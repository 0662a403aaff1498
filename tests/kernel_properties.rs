//! Property-based tests for the dense products: each must be
//! *bit-identical* to the element-at-a-time loop written out below, on
//! arbitrary shapes — the forward `matmul` and `matmul_bias_into` at
//! every width around the register chunks (the narrow 1..=8 widths, 32
//! columns at a time, ragged tails, the model's widest output 128) and at
//! shared dimensions on both sides of a 256-coefficient gather block, and
//! the two backward products on both sides of their parallel thresholds,
//! over operands holding exact zeros, `-0.0`, ±inf and NaN.
//!
//! The CI kernel-equivalence job runs this file as built and again under
//! `RUSTFLAGS="-C target-cpu=native"`, the leg that would expose an FMA
//! contraction.

use proptest::prelude::*;

use gcn_testability::tensor::Matrix;

/// Dense widths straddling every breakpoint of the forward row: each
/// narrow fixed width (1..=8) plus just past it, one to four 32-column
/// register chunks with and without a ragged tail, and the model's widest
/// output (128).
const DIMS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129,
];

/// Row counts on both sides of 256 and, times the widest of [`WIDTHS`],
/// of 16 Ki elements — the operand size at which the backward products
/// leave their serial loop for output bands (`Xᵀ·dY`) or parallel output
/// rows (`dY·Wᵀ`).
const ROWS: &[usize] = &[1, 7, 127, 129, 257, 1031];

/// Odd widths, plus the model's narrowest (2) and widest (128), so that
/// `k·n` falls on both sides of 1024 and every row-kernel path runs.
const WIDTHS: &[usize] = &[1, 2, 3, 5, 9, 31, 33, 63, 65, 128];

/// A deterministic dense operand with negative, positive and fractional
/// values whose products and sums round in f32, so that adding the same
/// terms in another order changes the bits (with dyadic values every
/// partial sum would be exact and any order would pass).
fn dense_operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 7 + salt * 13) % 23) as f32 - 11.0) * 0.413
    })
}

/// [`dense_operand`] with exact zeros and `-0.0` (the post-ReLU and
/// masked-gradient values a backward product sees) and, one element in
/// `special_every`, ±inf or NaN.
fn backward_operand(rows: usize, cols: usize, salt: usize, special_every: usize) -> Matrix {
    let mut m = dense_operand(rows, cols, salt);
    for r in 0..rows {
        for c in 0..cols {
            let h = (r * 7919 + c * 104_729 + salt * 31) % (special_every * 6);
            let v = match h {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                _ if h % 3 == 0 => 0.0,
                _ if h % 7 == 0 => -0.0,
                _ => continue,
            };
            m.set(r, c, v);
        }
    }
    m
}

/// A `k x dim` [`dense_operand`] with ±inf or NaN in one column of every
/// row `kk` where some row of `lhs` holds a zero (`+0.0` or `-0.0`) at
/// `kk`: the product must skip those terms, and one that did not would
/// add `0 · inf = NaN` to an output the loop keeps finite.
fn poisoned_rhs(lhs: &Matrix, dim: usize, salt: usize) -> Matrix {
    let mut rhs = dense_operand(lhs.cols(), dim, salt);
    for kk in 0..lhs.cols() {
        if (0..lhs.rows()).any(|r| lhs.get(r, kk) == 0.0) {
            let v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][kk % 3];
            rhs.set(kk, (kk * 7 + salt) % dim, v);
        }
    }
    rhs
}

/// The bit patterns of `values`, every NaN mapped to one pattern: which
/// NaN an operation on a NaN operand returns is unspecified in Rust (the
/// sign follows whichever operand the compiler puts first, and a
/// `-C target-cpu=native` build flips it for the loops below), so a NaN's
/// bits are no product's contract. Every other value, `-0.0` included,
/// compares bit for bit.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// `lhs · rhs`, one output row at a time, each `lhs` coefficient in `k`
/// order, exact zeros skipped.
fn matmul_loop(lhs: &Matrix, rhs: &Matrix) -> Vec<f32> {
    let n = rhs.cols();
    let mut out = vec![0.0f32; lhs.rows() * n];
    for r in 0..lhs.rows() {
        for kk in 0..lhs.cols() {
            let a = lhs.get(r, kk);
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                out[r * n + j] += a * rhs.get(kk, j);
            }
        }
    }
    out
}

/// `xᵀ · y`, one output row `kk` at a time, walking every row `r` of both
/// operands in order, exact zeros of `x` skipped.
fn transpose_matmul_loop(x: &Matrix, y: &Matrix) -> Vec<f32> {
    let n = y.cols();
    let mut out = vec![0.0f32; x.cols() * n];
    for kk in 0..x.cols() {
        for r in 0..x.rows() {
            let a = x.get(r, kk);
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                out[kk * n + j] += a * y.get(r, j);
            }
        }
    }
    out
}

/// `y · wᵀ`, each output element one dot product started from `+0.0`,
/// every term added.
fn matmul_transpose_loop(y: &Matrix, w: &Matrix) -> Vec<f32> {
    let n = w.rows();
    let mut out = vec![0.0f32; y.rows() * n];
    for r in 0..y.rows() {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..y.cols() {
                acc += y.get(r, kk) * w.get(j, kk);
            }
            out[r * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense × dense (the encode and head GEMM, plain and with its bias):
    /// the gathered row equals the element-at-a-time loop at every width
    /// around the register chunks, with shared dimensions on both sides of
    /// a gather block. The lhs holds exact zeros, `-0.0`, ±inf and NaN,
    /// and the rhs puts ±inf or NaN in rows where the lhs has a zero, so a
    /// skipped term that leaked in (`0 · inf`) turns a finite output NaN.
    #[test]
    fn matmul_blocked_is_bitwise_scalar(
        rows in 1usize..24,
        k in 1usize..24,
        salt in 0usize..64,
        special_every in 2usize..400,
    ) {
        for k in [k, 255, 256, 257, 600] {
            // The gather works row by row: a few long rows cross its blocks.
            let rows = if k > 24 { rows % 4 + 1 } else { rows };
            let lhs = backward_operand(rows, k, salt, special_every);
            for &dim in DIMS {
                let rhs = poisoned_rhs(&lhs, dim, salt + 1);
                let mut expected = matmul_loop(&lhs, &rhs);
                let blocked = lhs.matmul(&rhs).unwrap();
                prop_assert_eq!(
                    bits(&expected),
                    bits(blocked.as_slice()),
                    "matmul diverged at {} x {} x {}",
                    rows,
                    k,
                    dim
                );
                let bias = dense_operand(1, dim, salt + 2);
                for (e, &b) in expected.iter_mut().zip(bias.as_slice().iter().cycle()) {
                    *e += b;
                }
                let mut out = vec![f32::NAN; rows * dim];
                let lhs_rows = lhs.as_slice().chunks_exact(k);
                Matrix::matmul_bias_into(lhs_rows, &rhs, bias.as_slice(), &mut out).unwrap();
                prop_assert_eq!(
                    bits(&expected),
                    bits(&out),
                    "matmul_bias_into diverged at {} x {} x {}",
                    rows,
                    k,
                    dim
                );
            }
        }
    }

    /// The weight gradient `Xᵀ·dY`, serial or banded, equals the loop
    /// that walks every row once per output row.
    #[test]
    fn transpose_matmul_is_bitwise_the_row_walk(
        k_at in 0..WIDTHS.len(),
        n_at in 0..WIDTHS.len(),
        salt in 0usize..64,
        special_every in 1usize..400,
    ) {
        let (k, n) = (WIDTHS[k_at], WIDTHS[n_at]);
        for &rows in ROWS {
            let x = backward_operand(rows, k, salt, special_every);
            let dy = backward_operand(rows, n, salt + 1, special_every);
            let banded = x.transpose_matmul(&dy).unwrap();
            prop_assert_eq!(banded.shape(), (k, n));
            prop_assert_eq!(
                bits(&transpose_matmul_loop(&x, &dy)),
                bits(banded.as_slice()),
                "transpose_matmul diverged at {} x {} x {}",
                rows,
                k,
                n
            );
        }
    }

    /// The input gradient `dY·Wᵀ`, serial or row-parallel, equals one dot
    /// product per element.
    #[test]
    fn matmul_transpose_is_bitwise_the_dot_products(
        k_at in 0..WIDTHS.len(),
        n_at in 0..WIDTHS.len(),
        salt in 0usize..64,
        special_every in 1usize..400,
    ) {
        let (k, n) = (WIDTHS[k_at], WIDTHS[n_at]);
        let w = backward_operand(n, k, salt + 1, special_every);
        for &rows in ROWS {
            let dy = backward_operand(rows, k, salt, special_every);
            let lanes = dy.matmul_transpose(&w).unwrap();
            prop_assert_eq!(lanes.shape(), (rows, n));
            prop_assert_eq!(
                bits(&matmul_transpose_loop(&dy, &w)),
                bits(lanes.as_slice()),
                "matmul_transpose diverged at {} x {} x {}",
                rows,
                k,
                n
            );
        }
    }
}
