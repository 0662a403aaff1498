use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::kernel;
use crate::{Matrix, Result, TensorError};

/// spmm falls back to a serial loop below this many output elements.
const PAR_SPMM_THRESHOLD: usize = 8 * 1024;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// This is the product-friendly form of the adjacency matrix: the paper's
/// matrix-form inference (§3.4.1) computes `G_d = A · E_{d-1}` as a
/// sparse×dense product, which [`CsrMatrix::spmm`] implements with one rayon
/// task per output row.
///
/// # Examples
///
/// ```
/// use gcnt_tensor::{CsrMatrix, Matrix};
///
/// // Row 0 holds (0, 0) = 2; row 1 holds (1, 0) = 1.
/// let csr = CsrMatrix::from_raw_parts_unchecked(2, 2, vec![0, 1, 2], vec![0, 0], vec![2.0, 1.0]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0]]).unwrap();
/// let y = csr.spmm(&x).unwrap();
/// assert_eq!(y.get(0, 0), 2.0);
/// assert_eq!(y.get(1, 0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each non-zero, grouped by row.
    indices: Vec<u32>,
    /// Value of each non-zero.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Creates an empty `rows x cols` CSR matrix with no non-zeros.
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array (`rows + 1` entries; row `r`'s non-zeros live
    /// at `indptr[r]..indptr[r + 1]`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index of each non-zero, grouped by row and sorted within
    /// each row.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value of each non-zero, parallel to [`CsrMatrix::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Builds a CSR matrix from raw arrays without validation.
    ///
    /// For builders that produce the arrays directly (the netlist
    /// adjacency, copied from its fanin/fanout lists), and for tests and
    /// tooling that deliberately construct broken matrices (e.g. to
    /// exercise the lint rules); every kernel assumes
    /// [`CsrMatrix::structure_ok`], so feeding an invalid matrix to them
    /// is unspecified (panics or wrong results, but never UB).
    pub fn from_raw_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Whether the CSR structural invariants hold: `indptr` has
    /// `rows + 1` monotone entries starting at 0 and ending at `nnz`,
    /// `indices` and `values` run parallel, and every row's column indices
    /// are strictly increasing and in bounds.
    ///
    /// The hot kernels `debug_assert!` this; the lint crate reports each
    /// violation individually.
    pub fn structure_ok(&self) -> bool {
        if self.indptr.len() != self.rows + 1
            || self.indptr.first() != Some(&0)
            || self.indptr.last() != Some(&self.indices.len())
            || self.indices.len() != self.values.len()
        {
            return false;
        }
        if self.indptr.windows(2).any(|w| matches!(w, [a, b] if a > b)) {
            return false;
        }
        for (&start, &end) in self.indptr.iter().zip(self.indptr.iter().skip(1)) {
            // Monotone indptr ending at nnz (checked above) keeps every
            // range in bounds; `get` is belt-and-braces.
            let row = self.indices.get(start..end).unwrap_or(&[]);
            if row.iter().any(|&c| c as usize >= self.cols) {
                return false;
            }
            if row.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
                return false;
            }
        }
        true
    }

    /// Iterates over the non-zeros of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(r < self.rows, "row index out of bounds");
        let start = self.indptr.get(r).copied().unwrap_or(0);
        let end = self.indptr.get(r + 1).copied().unwrap_or(start);
        self.indices
            .get(start..end)
            .unwrap_or(&[])
            .iter()
            .zip(self.values.get(start..end).unwrap_or(&[]))
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Sparse × dense product `self * rhs`, parallelised over output rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn spmm(&self, rhs: &Matrix) -> Result<Matrix> {
        debug_assert!(self.structure_ok(), "spmm on a malformed CSR matrix");
        if self.cols != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm",
                lhs: self.shape(),
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
        }
        let started = enabled.then(std::time::Instant::now);
        let mut out = Matrix::zeros(self.rows, n);
        let row_kernel = |(r, out_row): (usize, &mut [f32])| {
            let start = self.indptr.get(r).copied().unwrap_or(0);
            let end = self.indptr.get(r + 1).copied().unwrap_or(start);
            let idx = self.indices.get(start..end).unwrap_or(&[]);
            let vals = self.values.get(start..end).unwrap_or(&[]);
            kernel::spmm_row(out_row, idx, vals, |c| rhs.row(c));
        };
        if self.rows * n >= PAR_SPMM_THRESHOLD {
            out.as_mut_slice()
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(r, out_row)| row_kernel((r, out_row)));
        } else {
            let data = out.as_mut_slice();
            for (r, out_row) in data.chunks_mut(n).enumerate() {
                row_kernel((r, out_row));
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

    /// Accumulates one product row into a caller-provided buffer:
    /// `out[j] += (self * rhs)[row][j]`.
    ///
    /// This is the raw per-row primitive behind [`CsrMatrix::spmm`] —
    /// identical kernel, identical stored-coefficient accumulation order,
    /// so filling a zeroed buffer reproduces the corresponding `spmm` row
    /// bit for bit. Unlike the whole-product entry points it records no
    /// observability samples (callers invoke it per row; per-call
    /// instrumentation would swamp the measurement). The GCN's fused
    /// serial aggregation uses it to combine `P·E` and `S·E` rows without
    /// materialising either product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()` and `out.len() == rhs.cols()`, and
    /// [`TensorError::IndexOutOfBounds`] if `row` is out of range.
    pub fn spmm_row_into(&self, row: usize, rhs: &Matrix, out: &mut [f32]) -> Result<()> {
        debug_assert!(self.structure_ok(), "spmm_row_into on a malformed CSR");
        if self.cols != rhs.rows() || out.len() != rhs.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm_row_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if row >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: (row, 0),
                shape: self.shape(),
            });
        }
        let start = self.indptr.get(row).copied().unwrap_or(0);
        let end = self.indptr.get(row + 1).copied().unwrap_or(start);
        let idx = self.indices.get(start..end).unwrap_or(&[]);
        let vals = self.values.get(start..end).unwrap_or(&[]);
        kernel::spmm_row(out, idx, vals, |c| rhs.row(c));
        Ok(())
    }

    /// Row-sliced sparse × dense product: computes only the listed output
    /// rows of `self * rhs`, returned as a dense `rows.len() x rhs.cols()`
    /// matrix with `out[i] = self[rows[i]] · rhs`.
    ///
    /// The per-row accumulation order matches [`CsrMatrix::spmm`] exactly, so
    /// each returned row is bit-for-bit equal to the corresponding row of the
    /// full product — the invariant the incremental inference engine's
    /// dirty-cone updates rely on.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`, and [`TensorError::IndexOutOfBounds`] if
    /// any requested row is out of range.
    pub fn spmm_rows(&self, rhs: &Matrix, rows: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(rows.len(), rhs.cols());
        self.spmm_rows_into(rhs, rows, out.as_mut_slice())?;
        Ok(out)
    }

    /// [`CsrMatrix::spmm_rows`] into a caller-provided row block: `out`
    /// holds `rows.len()` rows of `rhs.cols()` values and is overwritten
    /// (zeroed, then accumulated), so a pass can reuse one tile buffer
    /// instead of allocating a product per call. Same kernel and per-row
    /// accumulation order as [`CsrMatrix::spmm`]; serial.
    ///
    /// # Errors
    ///
    /// As [`CsrMatrix::spmm_rows`], plus [`TensorError::LengthMismatch`]
    /// unless `out.len() == rows.len() * rhs.cols()`.
    pub fn spmm_rows_into(&self, rhs: &Matrix, rows: &[usize], out: &mut [f32]) -> Result<()> {
        debug_assert!(self.structure_ok(), "spmm_rows on a malformed CSR matrix");
        if self.cols != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm_rows",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.rows) {
            return Err(TensorError::IndexOutOfBounds {
                index: (bad, 0),
                shape: self.shape(),
            });
        }
        let n = rhs.cols();
        if out.len() != rows.len() * n {
            return Err(TensorError::LengthMismatch {
                expected: rows.len() * n,
                actual: out.len(),
            });
        }
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            obs.incr(gcnt_obs::counters::TENSOR_SPMM_CALLS);
            obs.add(gcnt_obs::counters::TENSOR_SPMM_ROWS, rows.len() as u64);
            let nnz: usize = rows
                .iter()
                .map(|&r| {
                    let start = self.indptr.get(r).copied().unwrap_or(0);
                    self.indptr.get(r + 1).copied().unwrap_or(start) - start
                })
                .sum();
            obs.add(gcnt_obs::counters::TENSOR_SPMM_NNZ, nnz as u64);
        }
        if n == 0 {
            return Ok(());
        }
        out.fill(0.0);
        for (out_row, &r) in out.chunks_mut(n).zip(rows) {
            let start = self.indptr.get(r).copied().unwrap_or(0);
            let end = self.indptr.get(r + 1).copied().unwrap_or(start);
            let idx = self.indices.get(start..end).unwrap_or(&[]);
            let vals = self.values.get(start..end).unwrap_or(&[]);
            kernel::spmm_row(out_row, idx, vals, |c| rhs.row(c));
        }
        Ok(())
    }

    /// Grows a square adjacency by one node: appends row and column
    /// `n = self.rows()`, optionally with a unit entry `(n, driver)` in the
    /// new last row and a unit entry `(reader, n)` in an existing row.
    ///
    /// `n` is the largest index on both axes, so the second entry lands at
    /// the end of row `reader` and every row stays sorted — the result is
    /// element for element the CSR of the grown edge list. This is the paper's observation-point update (§4)
    /// applied to the CSR form directly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless the matrix is square,
    /// and [`TensorError::IndexOutOfBounds`] unless `driver` and `reader`
    /// name existing nodes and `n` fits the `u32` index storage; the
    /// matrix is left untouched.
    pub fn append_node(&mut self, driver: Option<usize>, reader: Option<usize>) -> Result<()> {
        if self.rows != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "append_node",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let n = self.rows;
        let oob = |r: usize, c: usize| TensorError::IndexOutOfBounds {
            index: (r, c),
            shape: (n, n),
        };
        let new_col = u32::try_from(n).map_err(|_| oob(n, n))?;
        let driver = match driver {
            Some(c) if c >= n => return Err(oob(n, c)),
            Some(c) => Some(u32::try_from(c).map_err(|_| oob(n, c))?),
            None => None,
        };
        if let Some(r) = reader {
            if r >= n {
                return Err(oob(r, n));
            }
            let at = self.indptr.get(r + 1).copied().ok_or_else(|| oob(r, n))?;
            self.indices.insert(at, new_col);
            self.values.insert(at, 1.0);
            for end in self.indptr.iter_mut().skip(r + 1) {
                *end += 1;
            }
        }
        if let Some(c) = driver {
            self.indices.push(c);
            self.values.push(1.0);
        }
        self.indptr.push(self.indices.len());
        self.rows = n + 1;
        self.cols = n + 1;
        Ok(())
    }

    /// Returns the transpose as a new CSR matrix.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the adjacency is square, so a row index fits the u32 column index storage"
    )]
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            if let Some(slot) = counts.get_mut(c as usize + 1) {
                *slot += 1;
            }
        }
        let mut running = 0usize;
        for count in counts.iter_mut() {
            running += *count;
            *count = running;
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let pos = cursor.get(c).copied().unwrap_or(0);
                if let Some(slot) = indices.get_mut(pos) {
                    *slot = r as u32;
                }
                if let Some(slot) = values.get_mut(pos) {
                    *slot = v;
                }
                if let Some(slot) = cursor.get_mut(c) {
                    *slot += 1;
                }
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSR of `(row, col, value)` entries with distinct coordinates, in
    /// any order.
    fn csr(rows: usize, cols: usize, entries: &[(usize, usize, f32)]) -> CsrMatrix {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0; rows + 1];
        for &(r, _, _) in &sorted {
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        let indices = sorted
            .iter()
            .map(|&(_, c, _)| u32::try_from(c).unwrap())
            .collect();
        let values = sorted.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix::from_raw_parts_unchecked(rows, cols, indptr, indices, values)
    }

    const SAMPLE: [(usize, usize, f32); 5] = [
        (0, 0, 1.0),
        (0, 2, 2.0),
        (1, 1, 3.0),
        (2, 0, 4.0),
        (2, 2, 5.0),
    ];

    fn sample() -> CsrMatrix {
        csr(3, 3, &SAMPLE)
    }

    fn dense(m: &CsrMatrix) -> Matrix {
        let mut d = Matrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            for (c, v) in m.row(r) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// The product one element and one non-zero at a time.
    fn spmm_reference(a: &CsrMatrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), rhs.cols());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                for j in 0..rhs.cols() {
                    out.set(r, j, out.get(r, j) + v * rhs.get(c, j));
                }
            }
        }
        out
    }

    #[test]
    fn spmm_matches_dense() {
        let csr = sample();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let sparse = csr.spmm(&x).unwrap();
        assert_eq!(sparse, dense(&csr).matmul(&x).unwrap());
    }

    #[test]
    fn spmm_reference_matches_spmm() {
        let csr = sample();
        let x = Matrix::from_fn(3, 5, |r, c| (r + c) as f32);
        assert_eq!(csr.spmm(&x).unwrap(), spmm_reference(&csr, &x));
    }

    #[test]
    fn spmm_shape_mismatch() {
        let csr = sample();
        let x = Matrix::zeros(2, 2);
        assert!(matches!(
            csr.spmm(&x),
            Err(TensorError::ShapeMismatch { op: "spmm", .. })
        ));
    }

    #[test]
    fn spmm_rows_matches_full_product_bitwise() {
        let csr = sample();
        let x = Matrix::from_fn(3, 5, |r, c| (r as f32 + 0.37) * (c as f32 - 1.21));
        let full = csr.spmm(&x).unwrap();
        let sliced = csr.spmm_rows(&x, &[2, 0]).unwrap();
        assert_eq!(sliced.row(0), full.row(2));
        assert_eq!(sliced.row(1), full.row(0));
    }

    #[test]
    fn spmm_rows_checks_bounds_and_shape() {
        let csr = sample();
        assert!(matches!(
            csr.spmm_rows(&Matrix::zeros(2, 2), &[0]),
            Err(TensorError::ShapeMismatch {
                op: "spmm_rows",
                ..
            })
        ));
        assert!(matches!(
            csr.spmm_rows(&Matrix::zeros(3, 2), &[7]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let csr = sample();
        assert_eq!(dense(&csr.transpose()), dense(&csr).transpose());
    }

    #[test]
    fn append_node_equals_rebuilding_from_the_grown_edge_list() {
        // Row 2 gains (2, 3) behind its existing columns; row 3 is [1].
        let mut grown = sample();
        grown.append_node(Some(1), Some(2)).unwrap();
        let edges = [&SAMPLE[..], &[(3, 1, 1.0), (2, 3, 1.0)]].concat();
        assert_eq!(grown, csr(4, 4, &edges));
        assert!(grown.structure_ok());

        // No entries at all still grows the shape.
        let mut bare = CsrMatrix::new(0, 0);
        bare.append_node(None, None).unwrap();
        assert_eq!(bare, CsrMatrix::new(1, 1));
    }

    #[test]
    fn append_node_rejects_bad_input_and_leaves_the_matrix_untouched() {
        let mut csr = sample();
        let before = csr.clone();
        // Neither end of a new edge may be the new node itself (or beyond).
        assert!(matches!(
            csr.append_node(Some(3), None),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            csr.append_node(None, Some(3)),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            csr.append_node(Some(0), Some(usize::MAX)),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert_eq!(csr, before);
        assert!(matches!(
            CsrMatrix::new(2, 3).append_node(None, None),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_rows_are_fine() {
        let csr = CsrMatrix::new(4, 4); // no entries at all
        let x = Matrix::from_fn(4, 3, |_, _| 1.0);
        let y = csr.spmm(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn large_spmm_parallel_path() {
        // Big enough to take the rayon branch.
        let n = 512;
        let entries: Vec<_> = (0..n)
            .flat_map(|i| [(i, i, 2.0), (i, (i + 1) % n, 1.0)])
            .collect();
        let csr = csr(n, n, &entries);
        let x = Matrix::from_fn(n, 32, |r, c| ((r * 31 + c) % 17) as f32);
        let y = csr.spmm(&x).unwrap();
        // Spot-check: y[i] = 2*x[i] + x[(i+1)%n]
        for &i in &[0usize, 100, 511] {
            for j in 0..32 {
                let expect = 2.0 * x.get(i, j) + x.get((i + 1) % n, j);
                assert_eq!(y.get(i, j), expect);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let csr = sample();
        let json = serde_json::to_string(&csr).unwrap();
        let back: CsrMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(csr, back);
    }
}
