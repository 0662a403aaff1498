//! Row kernels: the sparse row primitive, the register-chunk dense GEMM
//! row, and the band kernel of the transposed product.
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
//! * The **dense** row (`gemm_row`) fills the output row one register
//!   chunk at a time — 32 columns, or the whole row when it is 1..=8 wide
//!   (the two-class head) — over the lhs row's coefficients, so one
//!   accumulator stays in vector registers across the shared dimension.
//!   The forward products skip exact-zero coefficients: the row's nonzero
//!   coefficients are gathered once, without a branch on their values,
//!   because post-ReLU layer inputs are 42–77 % nonzero and a per-term
//!   `continue` there mispredicts about as often as it is taken (see
//!   DESIGN.md#the-row-kernels). [`crate::Matrix::matmul_transpose`] (the input
//!   gradient `dY·Wᵀ`) runs the same chunks over every term, with `W`
//!   transposed once.
//! * The **band** kernel (`transpose_gemm_band`) is the weight gradient
//!   [`crate::Matrix::transpose_matmul`] (`Xᵀ·dY`): each worker owns a
//!   contiguous band of output rows and streams both operands once, row
//!   by row, gathering each row's nonzero band coefficients the same way.
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
//!   order (the shared-dimension order): the gather keeps ascending
//!   order and drops exactly the terms the loop skips (`+0.0` and `-0.0`
//!   coefficients; NaN is kept), and chunking, banding and transposing
//!   only regroup *independent* output elements, so no dependent chain
//!   reorders;
//! * each term stays a separate `mul` + `add` — nothing is fused into a
//!   wider accumulation tree, and rustc does not contract `a * b + c`
//!   into an FMA on its own (not even under `-C target-cpu=native`,
//!   which the CI kernel-equivalence job pins down);
//! * a chunk copies its output columns into the stack accumulator and
//!   back bitwise.
//!
//! This is what keeps the full / incremental / partitioned equality
//! properties the rest of the workspace is built on.
//! `tests/kernel_properties.rs` compares `matmul`, `matmul_bias_into`,
//! `transpose_matmul` and `matmul_transpose` bitwise against
//! element-at-a-time loops of its own.

/// Columns per register chunk of the dense row: a `[f32; 32]`
/// accumulator is 8 of the 16 vector registers of the default x86-64
/// target, which leaves room for the rhs operand and the broadcast
/// coefficient (a 64-wide chunk measured no faster).
const CHUNK: usize = 32;

/// Coefficients gathered per block: a row of any width the model uses
/// (at most 128) is one block; a longer row goes block after block.
const GATHER: usize = 256;

/// One gathered coefficient: its index within the block and its value.
type Pair = (u32, f32);

/// Room for one block of a row's gathered coefficients. A product holds
/// one per call (one per worker when it runs parallel) and reuses it
/// row after row, so no row pays to initialise 2 KB.
pub(crate) type GatherBlock = [Pair; GATHER];

/// A fresh [`GatherBlock`].
pub(crate) fn gather_block() -> GatherBlock {
    [(0, 0.0); GATHER]
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

/// Collects the nonzero coefficients of `block` into `pairs` as
/// `(index, value)`, in ascending index, and returns how many there are.
/// Exact zeros (`-0.0` included) are dropped and NaN is kept, as a
/// `a == 0.0` skip would. The slot is written unconditionally and the
/// count advances by the comparison, so no branch depends on a
/// coefficient.
#[inline]
fn gather(pairs: &mut GatherBlock, block: &[f32]) -> usize {
    let mut cnt = 0usize;
    for (i, &a) in (0u32..).zip(block) {
        // `cnt <= i < GATHER`, so the mask only proves the bound.
        if let Some(slot) = pairs.get_mut(cnt % GATHER) {
            *slot = (i, a);
        }
        cnt += usize::from(a != 0.0);
    }
    cnt
}

/// One dense GEMM output row: `out_row[j] += a * rhs_row(kk)[j]` over
/// the lhs row's nonzero entries in `kk` order. An exact-zero `a` adds no
/// term — the forward products skip them, because post-ReLU activations
/// are largely zero, and skipping is semantically different from adding
/// `0.0 * b` for non-finite `b`. `rhs` is the full row-major right-hand
/// data of width `n`.
///
/// The row's nonzero coefficients are [`gather`]ed into `pairs` a block
/// at a time, then [`fill_row`] fills the row from them.
pub(crate) fn gemm_row(
    out_row: &mut [f32],
    lhs_row: &[f32],
    rhs: &[f32],
    n: usize,
    pairs: &mut GatherBlock,
) {
    for (block, rhs) in lhs_row.chunks(GATHER).zip(rhs.chunks(GATHER * n.max(1))) {
        let cnt = gather(pairs, block);
        let pairs = pairs.get(..cnt).unwrap_or(&[]);
        fill_row(out_row, pairs.iter().map(|&(i, a)| (i as usize, a)), rhs, n);
    }
}

/// [`gemm_row`] over every term, exact zeros included: the dot-product
/// chain of `dY·Wᵀ`.
pub(crate) fn gemm_row_full(out_row: &mut [f32], lhs_row: &[f32], rhs: &[f32], n: usize) {
    fill_row(out_row, lhs_row.iter().copied().enumerate(), rhs, n);
}

/// Fills one dense output row from its `(kk, a)` coefficients, in
/// order, one register [`chunk`] at a time: the whole row when it is
/// 1..=8 wide (the two-class head), else 32-column chunks and the plain
/// [`axpy`] for a ragged tail. One rhs row segment is reused across a
/// whole chunk, so its accumulator stays in registers over the shared
/// dimension.
fn fill_row<I>(out_row: &mut [f32], coeffs: I, rhs: &[f32], n: usize)
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    macro_rules! narrow {
        ($($d:literal)*) => {
            match n {
                $($d => if let Ok(out) = <&mut [f32; $d]>::try_from(&mut *out_row) {
                    return chunk(out, coeffs, rhs, n, 0);
                },)*
                _ => {}
            }
        };
    }
    narrow!(1 2 3 4 5 6 7 8);
    let mut chunks = out_row.chunks_exact_mut(CHUNK);
    let mut offset = 0;
    for out in &mut chunks {
        if let Ok(out) = <&mut [f32; CHUNK]>::try_from(out) {
            chunk(out, coeffs.clone(), rhs, n, offset);
        }
        offset += CHUNK;
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        for (kk, a) in coeffs {
            axpy(tail, a, rhs.get(kk * n + offset..kk * n + n).unwrap_or(&[]));
        }
    }
}

/// Columns `offset..offset + W` of one dense output row, accumulated in
/// a `[f32; W]` register chunk over the coefficients in order:
/// `out[j] += a * rhs[kk][offset + j]`. The chunk is copied in and back
/// out bitwise, so each element's chain is the row's own.
#[inline]
fn chunk<const W: usize>(
    out: &mut [f32; W],
    coeffs: impl Iterator<Item = (usize, f32)>,
    rhs: &[f32],
    n: usize,
    offset: usize,
) {
    let mut acc = *out;
    for (kk, a) in coeffs {
        let start = kk * n + offset;
        let Some(Ok(b)) = rhs.get(start..start + W).map(<&[f32; W]>::try_from) else {
            continue;
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
/// every nonzero `X[r][first + kk]`, [`gather`]ed per row without a
/// branch on the coefficient. Each output element therefore sums its
/// terms in `r` order with exact zeros skipped, the chain of the
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
    let mut pairs = gather_block();
    for (lhs_row, rhs_row) in lhs.chunks_exact(k).zip(rhs.chunks_exact(n)) {
        let lhs_band = lhs_row.get(first..first + width).unwrap_or(&[]);
        for (block, band) in lhs_band.chunks(GATHER).zip(band.chunks_mut(GATHER * n)) {
            let cnt = gather(&mut pairs, block);
            for &(kk, a) in pairs.get(..cnt).unwrap_or(&[]) {
                let start = kk as usize * n;
                if let Some(out_row) = band.get_mut(start..start + n) {
                    axpy(out_row, a, rhs_row);
                }
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
