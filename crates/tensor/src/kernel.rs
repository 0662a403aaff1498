//! Row kernels: the sparse row primitive, the register-blocked dense
//! GEMM row, and the band kernel of the transposed product.
//!
//! Every hot product in this crate (sparse [`crate::CsrMatrix::spmm`],
//! partitioned [`crate::PartitionedCsr::spmm`], dense
//! [`crate::Matrix::matmul`] and the two backward products) is built from
//! one row primitive: *for each coefficient `v`, accumulate
//! `out[j] += v * src[j]` over a dense row*.
//!
//! * The **sparse** row ([`spmm_row`]) is the plain element-at-a-time
//!   zip. Netlist adjacencies hold ~1.4 stored coefficients per row, so
//!   there is nothing to amortize blocking bookkeeping against, and LLVM
//!   already vectorizes the zip.
//! * The **dense** row (`gemm_row`) has fixed-width fast paths for the
//!   embedding dimensions the model actually uses (32 and 64) and for
//!   narrow outputs up to 8 columns (the two-class head) that keep the
//!   whole output row in a stack accumulator — i.e. in vector registers
//!   — across the shared dimension, plus 64-column tiling for other
//!   widths. One rhs row is reused across the whole lhs row, which is
//!   where the register accumulator pays (measured 1.4–2.3x; see
//!   EXPERIMENTS.md). The forward products run it skipping exact-zero
//!   coefficients; [`crate::Matrix::matmul_transpose`] (the input
//!   gradient `dY·Wᵀ`) runs it with every term, over `W` transposed once.
//! * The **band** kernel (`transpose_gemm_band`) is the weight gradient
//!   [`crate::Matrix::transpose_matmul`] (`Xᵀ·dY`): each worker owns a
//!   contiguous band of output rows and streams both operands once, row
//!   by row, instead of walking all of them once per output row.
//!
//! Both backward products also come in row-block forms
//! ([`crate::Matrix::transpose_matmul_acc`],
//! [`crate::Matrix::matmul_transpose_into`]) that a training step feeds
//! one tile of rows at a time, in row order, on the same two kernels.
//!
//! # Bit-identity
//!
//! Each product computes every output element with one fixed chain of
//! operations — the element-at-a-time loop's — by construction rather
//! than by tolerance:
//!
//! * every output element accumulates its terms in exactly that loop's
//!   order (the shared-dimension order); tiling, banding and transposing
//!   only regroup *independent* output elements, so no dependent chain
//!   reorders;
//! * each term stays a separate `mul` + `add` — nothing is fused into a
//!   wider accumulation tree, and rustc does not contract `a * b + c`
//!   into an FMA on its own (not even under `-C target-cpu=native`,
//!   which the CI kernel-equivalence job pins down);
//! * the fixed-width paths copy the output row into the stack
//!   accumulator and back bitwise.
//!
//! This is what keeps the full / incremental / partitioned equality
//! properties the rest of the workspace is built on.
//! `tests/kernel_properties.rs` compares `matmul`, `transpose_matmul` and
//! `matmul_transpose` bitwise against element-at-a-time loops of its own.

/// Columns per tile in the generic blocked path: 64 f32 = 256 bytes of
/// output tile, four cache lines, comfortably register/L1-resident
/// across one row's coefficients.
const TILE_COLS: usize = 64;

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
/// the lhs row's entries in `kk` order. With `SKIP_ZEROS` an exact-zero
/// `a` adds no term — the forward products skip them, because post-ReLU
/// activations are mostly zero, and skipping is semantically different
/// from adding `0.0 * b` for non-finite `b`; without it every term is
/// added, which is the dot-product chain of `dY·Wᵀ`. `rhs` is the full
/// row-major right-hand data of width `n`.
///
/// Fixed-width register-accumulator fast paths cover the model's widths
/// 32/64 and narrow outputs up to 8 columns — the two-class head (one
/// rhs row is reused across the whole lhs row, so keeping `out` in
/// registers amortizes over the shared dimension `k` — unlike the sparse
/// case, where nnz is tiny; for narrow outputs the fully-unrolled body
/// also removes the per-`kk` loop machinery that otherwise dwarfs the
/// arithmetic); other widths run in 64-column tiles.
pub(crate) fn gemm_row<const SKIP_ZEROS: bool>(
    out_row: &mut [f32],
    lhs_row: &[f32],
    rhs: &[f32],
    n: usize,
) {
    macro_rules! fixed {
        ($d:literal) => {
            if let Ok(out) = <&mut [f32; $d]>::try_from(&mut *out_row) {
                return gemm_row_fixed::<$d, SKIP_ZEROS>(out, lhs_row, rhs);
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
            if SKIP_ZEROS && a == 0.0 {
                continue;
            }
            let src = rhs.get(kk * n + offset..kk * n + n).unwrap_or(&[]);
            axpy(tile, a, src);
        }
        offset += TILE_COLS;
    }
}

/// Fixed-width dense row with the register accumulator.
///
/// Walking the rhs with `chunks_exact` consumes the same rows as
/// `rhs.get(kk * n..(kk + 1) * n)`: a ragged trailing fragment produces
/// no complete chunk, so it is never read.
fn gemm_row_fixed<const D: usize, const SKIP_ZEROS: bool>(
    out: &mut [f32; D],
    lhs_row: &[f32],
    rhs: &[f32],
) {
    let mut acc = *out;
    for (&a, src) in lhs_row.iter().zip(rhs.chunks_exact(D)) {
        if SKIP_ZEROS && a == 0.0 {
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

/// A band of `Xᵀ·Y` output rows — rows `first..` of the `k x n` product,
/// `band.len() / n` of them — accumulated by streaming both operands
/// once, row `r` ascending: `band[kk] += X[r][first + kk] * Y[r]` for
/// every nonzero `X[r][first + kk]`. Each output element therefore sums
/// its terms in `r` order with exact zeros skipped, the chain of the
/// element-at-a-time `Xᵀ·Y`, while X and Y are read once per band
/// instead of once per output row. `lhs` is `rows x k`, `rhs` `rows x n`.
pub(crate) fn transpose_gemm_band(
    band: &mut [f32],
    first: usize,
    lhs: &[f32],
    k: usize,
    rhs: &[f32],
    n: usize,
) {
    if k == 0 || n == 0 {
        return;
    }
    let width = band.len() / n;
    for (lhs_row, rhs_row) in lhs.chunks_exact(k).zip(rhs.chunks_exact(n)) {
        let lhs_band = lhs_row.get(first..first + width).unwrap_or(&[]);
        for (&a, out_row) in lhs_band.iter().zip(band.chunks_exact_mut(n)) {
            if a != 0.0 {
                axpy(out_row, a, rhs_row);
            }
        }
    }
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
