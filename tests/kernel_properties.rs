//! Property-based tests for the dense row kernels: the blocked GEMM row
//! every product runs must be *bit-identical* to the scalar reference on
//! arbitrary shapes, at every dimension around the blocking breakpoints
//! (the narrow 1..=8 fixed paths, the 32/64 fixed widths, the 64-column
//! tile edge).
//!
//! The CI kernel-equivalence job runs this file as built and again under
//! `RUSTFLAGS="-C target-cpu=native"`, the leg that would expose an FMA
//! contraction; the assertions select each kernel explicitly through
//! `Matrix::matmul_with_kernel`.

use proptest::prelude::*;

use gcn_testability::tensor::{Kernel, Matrix};

/// Dense widths straddling every blocking breakpoint: each narrow
/// fixed GEMM path (1..=8) plus just past it, the 32/64 fixed paths,
/// and the 64-column tile edge.
const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65];

/// A deterministic dense operand with negative, positive and fractional
/// values (exact in f32, so accumulation-order bugs surface as real bit
/// differences rather than vanishing in rounding noise).
fn dense_operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7 + salt * 13) % 23) as f32 * 0.4375 - 4.8125
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense × dense (the embed loop's GEMM): blocked equals scalar,
    /// including through the zero-skip path (post-ReLU activations are
    /// mostly zero, so the lhs is sprinkled with exact zeros here).
    #[test]
    fn matmul_blocked_is_bitwise_scalar(
        rows in 1usize..24,
        k in 1usize..24,
        salt in 0usize..64,
        zero_every in 2usize..5,
    ) {
        for &dim in DIMS {
            let mut lhs = dense_operand(rows, k, salt);
            for r in 0..rows {
                for c in 0..k {
                    if (r + c) % zero_every == 0 {
                        lhs.set(r, c, 0.0);
                    }
                }
            }
            let rhs = dense_operand(k, dim, salt + 1);
            let scalar = lhs.matmul_with_kernel(&rhs, Kernel::Scalar).unwrap();
            let blocked = lhs.matmul_with_kernel(&rhs, Kernel::Blocked).unwrap();
            prop_assert_eq!(
                scalar.as_slice(),
                blocked.as_slice(),
                "matmul diverged at dim {}",
                dim
            );
        }
    }
}
