//! Row kernels: the sparse row primitive and the dense GEMM row in its
//! scalar reference form and its register-blocked form.
//!
//! Every hot product in this crate (sparse [`crate::CsrMatrix::spmm`],
//! partitioned [`crate::PartitionedCsr::spmm`], dense
//! [`crate::Matrix::matmul`]) is built from one row primitive: *for each
//! stored coefficient `v` of the row, accumulate `out[j] += v * src[j]`
//! over the dense operand*.
//!
//! * The **sparse** row ([`spmm_row`]) is the plain element-at-a-time
//!   zip. Netlist adjacencies hold ~1.4 stored coefficients per row, so
//!   there is nothing to amortize blocking bookkeeping against, and LLVM
//!   already vectorizes the zip.
//! * The **dense** row has two implementations ([`Kernel`]): the scalar
//!   loop, kept verbatim as the bit-exactness reference the property
//!   tests compare against, and the blocked one every product runs —
//!   fixed-width fast paths for the embedding dimensions the model
//!   actually uses (32 and 64) and for narrow outputs up to 8 columns
//!   (the two-class head) that keep the whole output row in a stack
//!   accumulator — i.e. in vector registers — across the shared
//!   dimension, plus 64-column tiling for other widths. One rhs row is
//!   reused across the whole lhs row, which is where the register
//!   accumulator pays (measured 1.4–2.3x; see EXPERIMENTS.md).
//!
//! # Bit-identity
//!
//! The blocked GEMM row is **bit-identical** to the scalar one, by
//! construction rather than by tolerance:
//!
//! * every output element `out[j]` accumulates its terms in exactly the
//!   scalar order (the shared-dimension order `k`); tiling only regroups
//!   the *independent* `j` lanes, so the dependent chain never reorders;
//! * each term stays a separate `mul` + `add` — nothing is fused into a
//!   wider accumulation tree, and rustc does not contract `a * b + c`
//!   into an FMA on its own (not even under `-C target-cpu=native`,
//!   which the CI kernel-equivalence job pins down);
//! * the fixed-width paths copy the output row into the stack
//!   accumulator and back bitwise.
//!
//! This is what keeps the full / incremental / partitioned equality
//! properties the rest of the workspace is built on; the dense
//! equivalence is property-tested in `tests/kernel_properties.rs`
//! through [`crate::Matrix::matmul_with_kernel`].

/// Columns per tile in the generic blocked path: 64 f32 = 256 bytes of
/// output tile, four cache lines, comfortably register/L1-resident
/// across one row's coefficients.
const TILE_COLS: usize = 64;

/// Which implementation of the dense GEMM row to run; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The element-at-a-time reference loops.
    Scalar,
    /// The register-blocked loops.
    Blocked,
}

/// One sparse output row: `out_row[j] += v * fetch(c)[j]` for every
/// stored `(c, v)` of the row, in stored order. `fetch` maps a stored
/// column index to its dense source row (the CSR product passes
/// `rhs.row`; the partitioned product also resolves halo positions).
#[inline]
pub(crate) fn spmm_row<'a, F>(out_row: &mut [f32], idx: &[u32], vals: &[f32], fetch: F)
where
    F: Fn(usize) -> &'a [f32],
{
    for (&ci, &v) in idx.iter().zip(vals) {
        axpy(out_row, v, fetch(ci as usize));
    }
}

/// One dense GEMM output row: `out_row[j] += a * rhs_row(kk)[j]` over
/// the lhs row's entries, skipping exact zeros (the embed loop's
/// post-ReLU activations are mostly zero, and skipping is semantically
/// different from adding `0.0 * b` for non-finite `b`, so both kernels
/// skip). `rhs` is the full row-major right-hand data of width `n`.
#[inline]
pub(crate) fn gemm_row(
    kernel: Kernel,
    out_row: &mut [f32],
    lhs_row: &[f32],
    rhs: &[f32],
    n: usize,
) {
    match kernel {
        Kernel::Scalar => {
            for (kk, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.get(kk * n..(kk + 1) * n).unwrap_or(&[]);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Kernel::Blocked => gemm_row_blocked(out_row, lhs_row, rhs, n),
    }
}

/// Blocked dense row: fixed-width register-accumulator fast paths for
/// the model's widths 32/64 and for narrow outputs up to 8 columns —
/// the two-class head (one rhs row is reused across the whole lhs row,
/// so keeping `out` in registers amortizes over the shared dimension
/// `k` — unlike the sparse case, where nnz is tiny; for narrow outputs
/// the fully-unrolled body also removes the per-`kk` loop machinery
/// that otherwise dwarfs the arithmetic), else 64-column tiles.
pub(crate) fn gemm_row_blocked(out_row: &mut [f32], lhs_row: &[f32], rhs: &[f32], n: usize) {
    macro_rules! fixed {
        ($d:literal) => {
            if let Ok(out) = <&mut [f32; $d]>::try_from(&mut *out_row) {
                return gemm_row_fixed::<$d>(out, lhs_row, rhs);
            }
        };
    }
    match n {
        1 => fixed!(1),
        2 => fixed!(2),
        3 => fixed!(3),
        4 => fixed!(4),
        5 => fixed!(5),
        6 => fixed!(6),
        7 => fixed!(7),
        8 => fixed!(8),
        32 => fixed!(32),
        64 => fixed!(64),
        _ => {}
    }
    let mut offset = 0usize;
    for tile in out_row.chunks_mut(TILE_COLS) {
        for (kk, &a) in lhs_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let src = rhs.get(kk * n + offset..kk * n + n).unwrap_or(&[]);
            axpy(tile, a, src);
        }
        offset += TILE_COLS;
    }
}

/// Fixed-width dense row with the register accumulator and zero skip.
///
/// Walking the rhs with `chunks_exact` is bit-identical to the scalar
/// reference's `rhs.get(kk * n..(kk + 1) * n).unwrap_or(&[])`: a ragged
/// trailing fragment produces no complete chunk here and an empty (or
/// never-started) zip there, so neither side ever consumes it.
fn gemm_row_fixed<const D: usize>(out: &mut [f32; D], lhs_row: &[f32], rhs: &[f32]) {
    let mut acc = *out;
    for (&a, src) in lhs_row.iter().zip(rhs.chunks_exact(D)) {
        if a == 0.0 {
            continue;
        }
        let Ok(b) = <&[f32; D]>::try_from(src) else {
            continue; // unreachable: chunks_exact yields exact-D slices
        };
        for (x, &b) in acc.iter_mut().zip(b) {
            *x += a * b;
        }
    }
    *out = acc;
}

/// `out[j] += v * src[j]` — the plain zip, which LLVM turns into packed
/// f32 ops on its own. Lane `j` touches only lane `j`, so the
/// element-wise accumulation order is untouched.
#[inline]
fn axpy(out: &mut [f32], v: f32, src: &[f32]) {
    for (o, &b) in out.iter_mut().zip(src) {
        *o += v * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_gemm_row_matches_scalar_across_widths() {
        for n in [1usize, 2, 3, 5, 8, 31, 32, 33, 64, 65, 130] {
            let k = 9;
            let rhs: Vec<f32> = (0..k * n)
                .map(|i| ((i * 13) % 19) as f32 * 0.21 - 1.5)
                .collect();
            let mut lhs: Vec<f32> = (0..k).map(|i| (i as f32 - 4.0) * 0.75).collect();
            lhs[2] = 0.0; // exercise the zero skip
            let mut scalar = vec![0.0f32; n];
            let mut blocked = vec![0.0f32; n];
            gemm_row(Kernel::Scalar, &mut scalar, &lhs, &rhs, n);
            gemm_row(Kernel::Blocked, &mut blocked, &lhs, &rhs, n);
            assert_eq!(scalar, blocked, "n = {n}");
        }
    }
}
