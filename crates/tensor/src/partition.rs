//! Partition-aware CSR: contiguous row-range shards with per-partition
//! halos and a partition-parallel SpMM.
//!
//! [`PartitionedCsr`] re-shapes a square adjacency matrix into `P`
//! contiguous row blocks chosen by a fanout-aware [`PartitionPlan`]
//! (blocks balance `1 + nnz` per row, so hub-heavy regions get smaller
//! blocks). Each block stores:
//!
//! * a **local `u32` row pointer** array (memory-frugal: the per-block
//!   nnz bound is what has to fit in `u32`, not the global nnz), backed
//!   by one shared arena — no per-partition allocation churn;
//! * its non-zeros in one shared `indices`/`values` arena, with column
//!   indices **remapped**: an index `< cols` is a global column owned by
//!   the block itself, an index `>= cols` points into the block's
//!   **halo** — the sorted list of out-of-block columns the block reads;
//! * the halo column list itself, again in one shared arena.
//!
//! [`PartitionedCsr::spmm`] runs one worker per partition over the same
//! scoped-thread plumbing as `core`'s `train_parallel`. Each worker first
//! performs the *halo exchange* — gathering the dense rows its block
//! reads from other partitions into a scratch arena — then runs exactly
//! the serial [`CsrMatrix::spmm`] row kernel over its block. Because the
//! serial kernel is independent per output row and the halo gather is a
//! bitwise copy, the partitioned product is **bit-identical** to the
//! serial one for any partition count (property-tested in
//! `tests/partition_properties.rs`, the same guarantee discipline as
//! `train_parallel` and `CascadeSession::refresh`).

use std::time::Instant;

use crate::kernel;
use crate::{CsrMatrix, Matrix, Result, TensorError};

/// A contiguous row-range partitioning of an `n x n` adjacency: `P + 1`
/// block boundaries with every block non-empty (unless `n == 0`).
///
/// # Examples
///
/// ```
/// use gcnt_tensor::PartitionPlan;
///
/// let plan = PartitionPlan::balanced(&[1, 1, 1, 1], 2);
/// assert_eq!(plan.starts(), &[0, 2, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    starts: Vec<usize>,
}

impl PartitionPlan {
    /// Splits `rows` rows into `parts` near-equal contiguous blocks.
    pub fn uniform(rows: usize, parts: usize) -> Self {
        Self::balanced(&vec![0usize; rows], parts)
    }

    /// Fanout-aware split: balances `1 + row_nnz[r]` across blocks, so
    /// partitions covering high-fanout hubs hold fewer rows. `parts` is
    /// clamped to `1..=rows` (a block is never empty).
    pub fn balanced(row_nnz: &[usize], parts: usize) -> Self {
        let rows = row_nnz.len();
        let parts = parts.clamp(1, rows.max(1));
        let total: usize = row_nnz.iter().map(|&w| w + 1).sum();
        let mut starts = Vec::with_capacity(parts + 1);
        starts.push(0usize);
        let mut cum = 0usize;
        for (r, &w) in row_nnz.iter().enumerate() {
            cum += w + 1;
            let placed = starts.len();
            if placed == parts {
                break;
            }
            let rows_left = rows - (r + 1);
            let must_cut = rows_left == parts - placed;
            // Close block `placed` once its proportional share of the
            // total weight is behind us (or when the remaining rows are
            // exactly enough to give every later block one row).
            let share_met = cum * parts >= total * placed;
            if must_cut || (share_met && rows_left >= parts - placed) {
                starts.push(r + 1);
            }
        }
        starts.push(rows);
        PartitionPlan { starts }
    }

    /// Block boundaries: block `p` covers rows `starts[p]..starts[p+1]`.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Number of blocks.
    pub fn partitions(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }
}

/// Reusable dense scratch for the halo exchange: one arena sized to
/// `total_halo_cols x rhs_cols`, split into disjoint per-partition
/// chunks before the workers start. Reusing it across layers avoids
/// per-call allocation in the embed loop.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    data: Vec<f32>,
}

impl PartitionScratch {
    /// Creates an empty scratch; the first `spmm_with` sizes it.
    pub fn new() -> Self {
        PartitionScratch { data: Vec::new() }
    }
}

/// The per-worker slice bundle for one partition: borrowed block views
/// of the shared arenas plus the worker's disjoint output and scratch
/// chunks.
struct Block<'a> {
    indptr: &'a [u32],
    indices: &'a [u32],
    values: &'a [f32],
    halo: &'a [u32],
    out: &'a mut [f32],
    scratch: &'a mut [f32],
}

/// A square CSR matrix sharded into contiguous row blocks with
/// per-partition halos (see the module docs for the storage layout).
///
/// # Examples
///
/// ```
/// use gcnt_tensor::{CsrMatrix, Matrix, PartitionedCsr};
///
/// // Row 0 reads column 3 (a halo of partition 0); row 3 reads column 0.
/// let csr = CsrMatrix::from_raw_parts_unchecked(4, 4, vec![0, 1, 1, 1, 2], vec![3, 0], vec![2.0, 1.0]);
/// let part = PartitionedCsr::from_csr(&csr, 2).unwrap();
/// let x = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(part.spmm(&x).unwrap(), csr.spmm(&x).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedCsr {
    rows: usize,
    cols: usize,
    /// Block boundaries, `parts + 1` entries.
    starts: Vec<usize>,
    /// Per-block local row pointers, one arena: block `p` owns
    /// `indptr[starts[p] + p .. starts[p+1] + p + 1]`, `rows + parts`
    /// entries total, each relative to the block's first non-zero.
    indptr: Vec<u32>,
    /// Global non-zero offset of each block, `parts + 1` entries.
    nnz_starts: Vec<usize>,
    /// Remapped column of each non-zero: `< cols` is a global in-block
    /// column, `>= cols` is `cols + halo_position` within the block.
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Per-block halo ranges into `halo_cols`, `parts + 1` entries.
    halo_starts: Vec<usize>,
    /// Sorted out-of-block global columns each block reads, one arena.
    halo_cols: Vec<u32>,
}

impl PartitionedCsr {
    /// Partitions a square CSR matrix into `parts` fanout-balanced row
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the matrix is not
    /// square (only adjacency-shaped matrices have a row-owner for every
    /// column, which is what gives halo columns an owning partition).
    pub fn from_csr(csr: &CsrMatrix, parts: usize) -> Result<Self> {
        let row_nnz: Vec<usize> = csr
            .indptr()
            .iter()
            .zip(csr.indptr().iter().skip(1))
            .map(|(&a, &b)| b - a)
            .collect();
        Self::from_csr_with_plan(csr, &PartitionPlan::balanced(&row_nnz, parts))
    }

    /// Partitions a square CSR matrix along an explicit plan.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a non-square matrix
    /// and [`TensorError::LengthMismatch`] if the plan does not cover
    /// the matrix rows exactly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every narrowed value is a column below `cols` or an offset at most `top`, checked to fit u32"
    )]
    pub fn from_csr_with_plan(csr: &CsrMatrix, plan: &PartitionPlan) -> Result<Self> {
        let rows = csr.rows();
        let cols = csr.cols();
        if rows != cols {
            return Err(TensorError::ShapeMismatch {
                op: "partition_from_csr",
                lhs: (rows, cols),
                rhs: (rows, rows),
            });
        }
        let bounds = plan.starts();
        let covering = bounds.first() == Some(&0)
            && bounds.last() == Some(&rows)
            && bounds.windows(2).all(|w| match w {
                [a, b] => (rows == 0 && a == b) || a < b,
                _ => true,
            });
        if !covering {
            return Err(TensorError::LengthMismatch {
                expected: rows,
                actual: bounds.last().copied().unwrap_or(0),
            });
        }
        let parts = plan.partitions();
        let mut indptr: Vec<u32> = Vec::with_capacity(rows + parts);
        let mut nnz_starts = Vec::with_capacity(parts + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(csr.nnz());
        let mut values: Vec<f32> = Vec::with_capacity(csr.nnz());
        let mut halo_starts = Vec::with_capacity(parts + 1);
        let mut halo_cols: Vec<u32> = Vec::new();
        nnz_starts.push(0usize);
        halo_starts.push(0usize);
        for (&lo, &hi) in bounds.iter().zip(bounds.iter().skip(1)) {
            // Pass 1: this block's halo — the sorted distinct columns it
            // reads from outside its own row range.
            let mut halo: Vec<u32> = Vec::new();
            for r in lo..hi {
                for (c, _) in csr.row(r) {
                    if c < lo || c >= hi {
                        halo.push(c as u32);
                    }
                }
            }
            halo.sort_unstable();
            halo.dedup();
            // The remap encodes halo positions above `cols`; both must
            // fit the u32 index arena.
            let top = cols.saturating_add(halo.len());
            if u32::try_from(top).is_err() {
                return Err(TensorError::LengthMismatch {
                    expected: u32::MAX as usize,
                    actual: top,
                });
            }
            // Pass 2: local row pointers and remapped non-zeros.
            let block_nnz_base = values.len();
            indptr.push(0u32);
            for r in lo..hi {
                for (c, v) in csr.row(r) {
                    let enc = if c >= lo && c < hi {
                        c as u32 // in-block global column
                    } else {
                        // c is in the sorted halo by construction.
                        let pos = halo.partition_point(|&h| (h as usize) < c);
                        (cols + pos) as u32
                    };
                    indices.push(enc);
                    values.push(v);
                }
                indptr.push((values.len() - block_nnz_base) as u32);
            }
            nnz_starts.push(values.len());
            halo_cols.extend_from_slice(&halo);
            halo_starts.push(halo_cols.len());
        }
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            obs.gauge_set(gcnt_obs::gauges::TENSOR_PARTITIONS_ACTIVE, parts as f64);
        }
        Ok(PartitionedCsr {
            rows,
            cols,
            starts: bounds.to_vec(),
            indptr,
            nnz_starts,
            indices,
            values,
            halo_starts,
            halo_cols,
        })
    }

    /// Number of rows (== columns; the matrix is square).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of row blocks.
    pub fn partitions(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Block boundaries: block `p` covers rows `starts[p]..starts[p+1]`.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// The shared local-row-pointer arena (see the field docs).
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// Global non-zero offset of each block.
    pub fn nnz_starts(&self) -> &[usize] {
        &self.nnz_starts
    }

    /// Remapped column indices (see the field docs for the encoding).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Non-zero values, parallel to [`PartitionedCsr::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Per-block ranges into [`PartitionedCsr::halo_cols`].
    pub fn halo_starts(&self) -> &[usize] {
        &self.halo_starts
    }

    /// Sorted out-of-block columns each block reads, concatenated.
    pub fn halo_cols(&self) -> &[u32] {
        &self.halo_cols
    }

    /// Total halo rows exchanged per SpMM (sum over blocks).
    pub fn halo_total(&self) -> usize {
        self.halo_cols.len()
    }

    /// Row range of block `p` (empty if `p` is out of range).
    pub fn partition_rows(&self, p: usize) -> std::ops::Range<usize> {
        let lo = self.starts.get(p).copied().unwrap_or(self.rows);
        let hi = self.starts.get(p + 1).copied().unwrap_or(lo);
        lo..hi
    }

    /// Partition-parallel sparse × dense product, allocating fresh halo
    /// scratch. Bit-identical to [`CsrMatrix::spmm`] on the same matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn spmm(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut scratch = PartitionScratch::new();
        self.spmm_with(rhs, &mut scratch)
    }

    /// Partition-parallel sparse × dense product reusing a caller-owned
    /// halo scratch arena (the embed loop calls this once per layer).
    ///
    /// One scoped worker runs per partition: it gathers its halo rows
    /// from `rhs` into its scratch chunk (the halo exchange), then runs
    /// the serial CSR row kernel over its block. Per-partition wall
    /// clock is recorded in the `gcnt_tensor_partition_spmm_ns`
    /// histogram and gathered rows in
    /// `gcnt_tensor_halo_rows_exchanged_total`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn spmm_with(&self, rhs: &Matrix, scratch: &mut PartitionScratch) -> Result<Matrix> {
        if self.cols != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "partitioned_spmm",
                lhs: (self.rows, self.cols),
                rhs: rhs.shape(),
            });
        }
        let n = rhs.cols();
        let obs = gcnt_obs::global();
        let enabled = obs.is_enabled();
        if enabled {
            obs.incr(gcnt_obs::counters::TENSOR_SPMM_CALLS);
            obs.add(gcnt_obs::counters::TENSOR_SPMM_ROWS, self.rows as u64);
            obs.add(
                gcnt_obs::counters::TENSOR_SPMM_NNZ,
                self.values.len() as u64,
            );
            obs.add(
                gcnt_obs::counters::TENSOR_HALO_ROWS,
                self.halo_cols.len() as u64,
            );
        }
        let started = enabled.then(Instant::now);
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 || self.rows == 0 {
            return Ok(out);
        }
        scratch.data.resize(self.halo_cols.len() * n, 0.0);
        let blocks = self.blocks(out.as_mut_slice(), scratch.data.as_mut_slice(), n);
        let timings = run_blocks(blocks, rhs, self.cols, n);
        if enabled {
            for ns in timings {
                obs.observe(gcnt_obs::histograms::TENSOR_PARTITION_SPMM_NS, ns);
            }
        }
        if let Some(t0) = started {
            obs.observe(
                gcnt_obs::histograms::TENSOR_SPMM_NS,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        Ok(out)
    }

    /// Carves the shared arenas, the output matrix, and the scratch
    /// arena into one disjoint [`Block`] per partition.
    fn blocks<'a>(
        &'a self,
        out: &'a mut [f32],
        scratch: &'a mut [f32],
        n: usize,
    ) -> Vec<Block<'a>> {
        let parts = self.partitions();
        let mut blocks = Vec::with_capacity(parts);
        let mut out_rest = out;
        let mut scr_rest = scratch;
        for p in 0..parts {
            let range = self.partition_rows(p);
            let (out_p, out_tail) = std::mem::take(&mut out_rest).split_at_mut(range.len() * n);
            out_rest = out_tail;
            let halo_lo = self.halo_starts.get(p).copied().unwrap_or(0);
            let halo_hi = self.halo_starts.get(p + 1).copied().unwrap_or(halo_lo);
            let (scr_p, scr_tail) =
                std::mem::take(&mut scr_rest).split_at_mut((halo_hi - halo_lo) * n);
            scr_rest = scr_tail;
            let ip_lo = range.start + p;
            let ip_hi = range.end + p + 1;
            let nnz_lo = self.nnz_starts.get(p).copied().unwrap_or(0);
            let nnz_hi = self.nnz_starts.get(p + 1).copied().unwrap_or(nnz_lo);
            blocks.push(Block {
                indptr: self.indptr.get(ip_lo..ip_hi).unwrap_or(&[]),
                indices: self.indices.get(nnz_lo..nnz_hi).unwrap_or(&[]),
                values: self.values.get(nnz_lo..nnz_hi).unwrap_or(&[]),
                halo: self.halo_cols.get(halo_lo..halo_hi).unwrap_or(&[]),
                out: out_p,
                scratch: scr_p,
            });
        }
        blocks
    }
}

/// Runs one scoped worker per block (the `train_parallel` plumbing) and
/// returns each worker's wall-clock nanoseconds. A panicking worker is
/// resumed on the caller's thread, exactly as a serial kernel panic
/// would surface.
fn run_blocks(blocks: Vec<Block<'_>>, rhs: &Matrix, cols: usize, n: usize) -> Vec<u64> {
    let scoped = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move |_| spmm_block(block, rhs, cols, n)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(ns) => ns,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect::<Vec<u64>>()
    });
    match scoped {
        Ok(timings) => timings,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// One partition's work: halo exchange, then the shared CSR row kernel
/// over the block. Accumulation order per output row is exactly
/// [`CsrMatrix::spmm`]'s, so the result is bit-identical to the serial
/// product.
fn spmm_block(block: Block<'_>, rhs: &Matrix, cols: usize, n: usize) -> u64 {
    let t0 = Instant::now();
    let Block {
        indptr,
        indices,
        values,
        halo,
        out,
        scratch,
    } = block;
    // Halo exchange: gather the out-of-block rows this block reads into
    // its scratch chunk (a bitwise copy, so reading the copy below is
    // identical to reading `rhs` directly).
    for (dst, &c) in scratch.chunks_mut(n).zip(halo) {
        dst.copy_from_slice(rhs.row(c as usize));
    }
    let gathered: &[f32] = scratch;
    // Column indices >= `cols` are halo positions: resolve them into the
    // gathered arena, everything else straight from `rhs`.
    let fetch = |c: usize| {
        if c < cols {
            rhs.row(c)
        } else {
            let off = (c - cols) * n;
            gathered.get(off..off + n).unwrap_or(&[])
        }
    };
    let row_starts = indptr.iter();
    let row_ends = indptr.iter().skip(1);
    for ((out_row, &s), &e) in out.chunks_mut(n).zip(row_starts).zip(row_ends) {
        let idx = indices.get(s as usize..e as usize).unwrap_or(&[]);
        let vals = values.get(s as usize..e as usize).unwrap_or(&[]);
        kernel::spmm_row(out_row, idx, vals, fetch);
    }
    // CAST: saturating clock-to-u64; 2^64 ns is ~584 years.
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `r` reads `r`, `r + 1` and `r - 3`, all mod `n` (`n >= 5`).
    fn ring(n: usize) -> CsrMatrix {
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..n {
            let mut row = [(r, 1.5), ((r + 1) % n, 0.25), ((r + n - 3) % n, -0.75)];
            row.sort_by_key(|&(c, _)| c);
            for (c, v) in row {
                indices.push(u32::try_from(c).unwrap());
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts_unchecked(n, n, indptr, indices, values)
    }

    #[test]
    fn plan_uniform_covers_all_rows() {
        let plan = PartitionPlan::uniform(10, 3);
        assert_eq!(plan.partitions(), 3);
        assert_eq!(plan.starts().first(), Some(&0));
        assert_eq!(plan.starts().last(), Some(&10));
        assert!(plan.starts().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn plan_clamps_parts_to_rows() {
        assert_eq!(PartitionPlan::uniform(2, 8).partitions(), 2);
        assert_eq!(PartitionPlan::uniform(0, 4).partitions(), 1);
        assert_eq!(PartitionPlan::uniform(0, 4).starts(), &[0, 0]);
    }

    #[test]
    fn plan_balances_skewed_fanout() {
        // One hub row with 90 nnz, nine rows with 1: the hub should sit
        // in a small block.
        let mut weights = vec![1usize; 10];
        weights[0] = 90;
        let plan = PartitionPlan::balanced(&weights, 2);
        assert_eq!(plan.partitions(), 2);
        // First block carries the hub and must end early.
        assert!(plan.starts()[1] <= 2, "starts = {:?}", plan.starts());
    }

    #[test]
    fn from_csr_rejects_non_square() {
        let err = PartitionedCsr::from_csr(&CsrMatrix::new(3, 4), 2).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_csr_with_plan_rejects_non_covering() {
        let csr = ring(6);
        let plan = PartitionPlan {
            starts: vec![0, 3, 5],
        };
        let err = PartitionedCsr::from_csr_with_plan(&csr, &plan).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn single_partition_has_no_halo() {
        let part = PartitionedCsr::from_csr(&ring(8), 1).unwrap();
        assert_eq!(part.partitions(), 1);
        assert_eq!(part.halo_total(), 0);
    }

    #[test]
    fn halo_cols_are_sorted_and_out_of_block() {
        let part = PartitionedCsr::from_csr(&ring(16), 4).unwrap();
        assert!(part.halo_total() > 0, "ring edges must cross blocks");
        for p in 0..part.partitions() {
            let range = part.partition_rows(p);
            let lo = part.halo_starts()[p];
            let hi = part.halo_starts()[p + 1];
            let halo = &part.halo_cols()[lo..hi];
            assert!(halo.windows(2).all(|w| w[0] < w[1]), "halo not sorted");
            for &c in halo {
                assert!(!range.contains(&(c as usize)), "halo col owned by block");
            }
        }
    }

    #[test]
    fn spmm_matches_serial_bitwise_for_all_partition_counts() {
        let csr = ring(23);
        let x = Matrix::from_fn(23, 7, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.37 - 1.21);
        let serial = csr.spmm(&x).unwrap();
        for parts in 1..=8 {
            let part = PartitionedCsr::from_csr(&csr, parts).unwrap();
            let got = part.spmm(&x).unwrap();
            assert_eq!(got, serial, "parts = {parts}");
        }
    }

    #[test]
    fn spmm_with_reuses_scratch_across_calls() {
        let csr = ring(12);
        let part = PartitionedCsr::from_csr(&csr, 3).unwrap();
        let mut scratch = PartitionScratch::new();
        let x = Matrix::from_fn(12, 4, |r, c| (r + c) as f32);
        let y = Matrix::from_fn(12, 4, |r, c| (r * c) as f32 - 3.0);
        assert_eq!(
            part.spmm_with(&x, &mut scratch).unwrap(),
            csr.spmm(&x).unwrap()
        );
        assert_eq!(
            part.spmm_with(&y, &mut scratch).unwrap(),
            csr.spmm(&y).unwrap()
        );
    }

    #[test]
    fn spmm_shape_mismatch() {
        let part = PartitionedCsr::from_csr(&ring(6), 2).unwrap();
        assert!(matches!(
            part.spmm(&Matrix::zeros(5, 3)),
            Err(TensorError::ShapeMismatch {
                op: "partitioned_spmm",
                ..
            })
        ));
    }

    #[test]
    fn empty_matrix_round_trips() {
        let csr = CsrMatrix::new(0, 0);
        let part = PartitionedCsr::from_csr(&csr, 4).unwrap();
        assert_eq!(part.partitions(), 1);
        let out = part.spmm(&Matrix::zeros(0, 3)).unwrap();
        assert_eq!(out.shape(), (0, 3));
    }

    #[test]
    fn zero_width_rhs_is_fine() {
        let part = PartitionedCsr::from_csr(&ring(6), 2).unwrap();
        let out = part.spmm(&Matrix::zeros(6, 0)).unwrap();
        assert_eq!(out.shape(), (6, 0));
    }

    #[test]
    fn indptr_blocks_are_local_and_monotone() {
        let part = PartitionedCsr::from_csr(&ring(20), 5).unwrap();
        for p in 0..part.partitions() {
            let range = part.partition_rows(p);
            let lo = range.start + p;
            let hi = range.end + p + 1;
            let block = &part.indptr()[lo..hi];
            assert_eq!(block.first(), Some(&0));
            assert!(block.windows(2).all(|w| w[0] <= w[1]));
            let block_nnz = part.nnz_starts()[p + 1] - part.nnz_starts()[p];
            assert_eq!(block.last().copied().map(|v| v as usize), Some(block_nnz));
        }
    }
}
