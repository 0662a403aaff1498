use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::kernel;
use crate::{Result, TensorError};

/// GEMM falls back to a serial loop below this many output elements (for
/// `Xᵀ·dY`, whose output is small and whose work grows with `X`, this
/// many elements of `X`); the rayon dispatch overhead dominates for tiny
/// matrices.
const PAR_GEMM_THRESHOLD: usize = 16 * 1024;

/// One output row of `lhs · rhs + bias`, accumulated onto a zeroed
/// `out_row`: the complete `k`-order sum, then the bias.
#[inline]
fn bias_row(out_row: &mut [f32], lhs_row: &[f32], rhs: &Matrix, bias: &[f32]) {
    kernel::gemm_row::<true>(out_row, lhs_row, &rhs.data, rhs.cols);
    for (o, &b) in out_row.iter_mut().zip(bias) {
        *o += b;
    }
}

/// Runs `row(r, out_row)` on every row of `out`, on the row-parallel
/// primitive once the output reaches [`PAR_GEMM_THRESHOLD`] elements.
/// A zero-width output has no rows to visit.
fn for_each_row(out: &mut Matrix, row: impl Fn(usize, &mut [f32]) + Sync) {
    let n = out.cols.max(1);
    if out.data.len() >= PAR_GEMM_THRESHOLD {
        out.data
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, out_row)| row(r, out_row));
    } else {
        for (r, out_row) in out.data.chunks_mut(n).enumerate() {
            row(r, out_row);
        }
    }
}

/// A row-major dense `f32` matrix.
///
/// This is the workhorse type for node-feature matrices (`N x 4`), embedding
/// matrices (`N x K_d`) and fully-connected weights. All binary operations
/// validate shapes and return [`TensorError::ShapeMismatch`] on disagreement.
///
/// # Examples
///
/// ```
/// use gcnt_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Decoding checks the shape: `data` must hold exactly `rows × cols`
/// values, so a damaged model file is refused instead of decoding into
/// weights that silently compute something else.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let Raw { rows, cols, data } = Raw::from_value(v)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::custom(format!(
                "matrix data holds {} values, not {rows} x {cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        // The diagonal is every (n + 1)-th element.
        for d in m.data.iter_mut().step_by(n + 1) {
            *d = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the rows have differing
    /// lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(TensorError::LengthMismatch {
                    expected: ncols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
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

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[expect(clippy::indexing_slicing, reason = "documented-panic accessor")]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[expect(clippy::indexing_slicing, reason = "documented-panic accessor")]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[expect(clippy::indexing_slicing, reason = "documented-panic accessor")]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[expect(clippy::indexing_slicing, reason = "documented-panic accessor")]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * rhs`, parallelised over rows for large
    /// outputs, on the blocked GEMM row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let k = self.cols;
        for_each_row(&mut out, |r, out_row| {
            let lhs_row = self.data.get(r * k..(r + 1) * k).unwrap_or(&[]);
            kernel::gemm_row::<true>(out_row, lhs_row, &rhs.data, rhs.cols);
        });
        Ok(out)
    }

    /// Matrix product plus row-broadcast bias `self * rhs + bias`.
    ///
    /// The bias is added to each output row immediately after that row's
    /// accumulation finishes — while the row is still cache-hot — which
    /// is bit-identical to running [`Matrix::matmul`] and then a second
    /// full `+= bias` pass (the bias lands after the complete `k`-order
    /// sum either way) but skips re-walking the output slab. This is the
    /// linear-layer forward `x·W + b`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()` and `bias.len() == rhs.cols()`.
    pub fn matmul_bias(&self, rhs: &Matrix, bias: &[f32]) -> Result<Matrix> {
        if self.cols != rhs.rows || bias.len() != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: if self.cols != rhs.rows {
                    rhs.shape()
                } else {
                    (bias.len(), 1)
                },
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let k = self.cols;
        for_each_row(&mut out, |r, out_row| {
            let lhs_row = self.data.get(r * k..(r + 1) * k).unwrap_or(&[]);
            bias_row(out_row, lhs_row, rhs, bias);
        });
        Ok(out)
    }

    /// Serial row-block form of [`Matrix::matmul_bias`] over caller-owned
    /// storage: row `i` of `out` (rows of `rhs.cols()` values, overwritten)
    /// becomes `lhs_rows[i] * rhs + bias`, through the same row kernel and
    /// hence bit for bit the row [`Matrix::matmul_bias`] computes. The
    /// left-hand rows come from an iterator so a tile can read them in
    /// place — consecutive rows of a buffer (`chunks_exact`) or listed
    /// rows of a matrix (`rows.iter().map(|&r| m.row(r))`) — and nothing
    /// is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `bias.len() == rhs.cols()` and every left-hand row has `rhs.rows()`
    /// values, and [`TensorError::LengthMismatch`] unless `out` holds
    /// exactly one row per left-hand row.
    pub fn matmul_bias_into<'a, I>(
        lhs_rows: I,
        rhs: &Matrix,
        bias: &[f32],
        out: &mut [f32],
    ) -> Result<()>
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: ExactSizeIterator,
    {
        let n = rhs.cols;
        let mismatch = |lhs: (usize, usize), rhs: (usize, usize)| TensorError::ShapeMismatch {
            op: "matmul_bias_into",
            lhs,
            rhs,
        };
        if bias.len() != n {
            return Err(mismatch((out.len(), n), (bias.len(), 1)));
        }
        let lhs_rows = lhs_rows.into_iter();
        if out.len() != lhs_rows.len() * n {
            return Err(TensorError::LengthMismatch {
                expected: lhs_rows.len() * n,
                actual: out.len(),
            });
        }
        // A zero-width product has no rows to cut `out` into.
        for (out_row, lhs_row) in out.chunks_exact_mut(n.max(1)).zip(lhs_rows) {
            if lhs_row.len() != rhs.rows {
                return Err(mismatch((1, lhs_row.len()), rhs.shape()));
            }
            out_row.fill(0.0);
            bias_row(out_row, lhs_row, rhs, bias);
        }
        Ok(())
    }

    /// Matrix product `self^T * rhs` without materialising the transpose
    /// — the weight gradient `dW = Xᵀ·dY` of a linear layer.
    ///
    /// Every output element `out[kk][j]` is the `r`-ascending sum of
    /// `self[r][kk] * rhs[r][j]` over the rows whose `self[r][kk]` is not
    /// an exact zero, started from `+0.0`. The output rows are cut into
    /// one contiguous band per worker, and each band streams both
    /// operands once (`kernel::transpose_gemm_band`); how the rows
    /// are banded does not change any element's chain.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows() == rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (k, n) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(k, n);
        let band = |first: usize, band: &mut [f32]| {
            kernel::transpose_gemm_band(band, first, &self.data, k, &rhs.data, n);
        };
        if n > 0 && self.data.len() >= PAR_GEMM_THRESHOLD {
            let band_rows = k.div_ceil(rayon::current_num_threads());
            out.data
                .par_chunks_mut(band_rows * n)
                .enumerate()
                .for_each(|(b, out_band)| band(b * band_rows, out_band));
        } else {
            band(0, &mut out.data);
        }
        Ok(out)
    }

    /// Matrix product `self * rhs^T` — the input gradient `dX = dY·Wᵀ` of
    /// a linear layer.
    ///
    /// Every output element `out[r][j]` is the `kk`-ascending sum of
    /// `self[r][kk] * rhs[j][kk]`, every term included, started from
    /// `+0.0`: the dot product of row `r` and row `j`. The small right
    /// operand is transposed once, so each output row accumulates
    /// `self[r][kk] * rhsᵀ[kk]` with its `n` independent elements side by
    /// side in vector lanes instead of one dependent add chain at a time.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let k = self.cols;
        let rhs_t = rhs.transpose();
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for_each_row(&mut out, |r, out_row| {
            let lhs_row = self.data.get(r * k..(r + 1) * k).unwrap_or(&[]);
            kernel::gemm_row::<false>(out_row, lhs_row, &rhs_t.data, rhs_t.cols);
        });
        Ok(out)
    }

    /// Row-block form of [`Matrix::transpose_matmul`] that accumulates:
    /// `self += lhsᵀ·rhs`, where `lhs` holds rows of `self.rows()` values
    /// and `rhs` as many rows of `self.cols()` values. Each element adds
    /// the block's terms in row order, exact zeros of `lhs` skipped, onto
    /// what it holds (`kernel::transpose_gemm_band` over the whole
    /// output), so blocks fed in ascending row order onto a zero matrix
    /// give every element the chain [`Matrix::transpose_matmul`] gives it
    /// over all the rows at once. Serial; nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `lhs` and `rhs` hold
    /// the same number of whole rows.
    pub fn transpose_matmul_acc(&mut self, lhs: &[f32], rhs: &[f32]) -> Result<()> {
        let (k, n) = (self.rows, self.cols);
        let rows = lhs.len().checked_div(k).unwrap_or(rhs.len() / n.max(1));
        if lhs.len() != rows * k || rhs.len() != rows * n {
            return Err(TensorError::ShapeMismatch {
                op: "transpose_matmul_acc",
                lhs: (lhs.len() / k.max(1), k),
                rhs: (rhs.len() / n.max(1), n),
            });
        }
        kernel::transpose_gemm_band(&mut self.data, 0, lhs, k, rhs, n);
        Ok(())
    }

    /// Row-block form of [`Matrix::matmul_transpose`] over caller-owned
    /// storage: row `i` of `out` (rows of `rhs_t.cols()` values,
    /// overwritten) becomes row `i` of `lhs` (rows of `rhs_t.rows()`
    /// values) times `rhs_t`, every term included — with `rhs_t` the
    /// [`Matrix::transpose`] of `rhs`, made once by the caller, that is bit
    /// for bit the row `lhs · rhsᵀ` of [`Matrix::matmul_transpose`]. Serial;
    /// nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `lhs` and `out` hold
    /// the same number of whole rows.
    pub fn matmul_transpose_into(lhs: &[f32], rhs_t: &Matrix, out: &mut [f32]) -> Result<()> {
        let (k, n) = (rhs_t.rows, rhs_t.cols);
        let rows = out.len().checked_div(n).unwrap_or(lhs.len() / k.max(1));
        if lhs.len() != rows * k || out.len() != rows * n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose_into",
                lhs: (lhs.len() / k.max(1), k),
                rhs: rhs_t.shape(),
            });
        }
        out.fill(0.0);
        if k > 0 && n > 0 {
            for (out_row, lhs_row) in out.chunks_exact_mut(n).zip(lhs.chunks_exact(k)) {
                kernel::gemm_row::<false>(out_row, lhs_row, &rhs_t.data, n);
            }
        }
        Ok(())
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let rows = self.rows;
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if let Some(o) = out.data.get_mut(c * rows + r) {
                    *o = v;
                }
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Fused `self + a * x + b * y` in one pass over the operands.
    ///
    /// Each element is computed as `(self + a * x) + b * y` — the exact
    /// addition order of `clone` + [`Matrix::axpy`] + [`Matrix::axpy`] —
    /// so the result is bit-identical to the three-pass version while
    /// reading every operand slab once instead of walking the output
    /// three times. This is the aggregation combine
    /// `E + w_pr·(P·E) + w_su·(S·E)` of the GCN embed loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled2(&self, a: f32, x: &Matrix, b: f32, y: &Matrix) -> Result<Matrix> {
        if self.shape() != x.shape() || self.shape() != y.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled2",
                lhs: self.shape(),
                rhs: if self.shape() != x.shape() {
                    x.shape()
                } else {
                    y.shape()
                },
            });
        }
        let data = self
            .data
            .iter()
            .zip(&x.data)
            .zip(&y.data)
            .map(|((&e, &p), &s)| {
                let t = e + a * p;
                t + b * s
            })
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of the element-wise product, `sum(self .* rhs)`.
    ///
    /// This is the scalar gradient kernel for the aggregation weights
    /// `w_pr` / `w_su` in the GCN backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "accumulates in f64, rounds once to f32"
    )]
    pub fn dot(&self, rhs: &Matrix) -> Result<f32> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32)
    }

    /// Sum of all elements.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "accumulates in f64, rounds once to f32"
    )]
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Extracts the listed rows into a new matrix (gather).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Writes the rows of `src` into `self` at the listed indices
    /// (scatter): `self[indices[i]] = src[i]`.
    ///
    /// Inverse of [`Matrix::gather_rows`] over the same index list; the
    /// incremental inference engine uses the pair to patch recomputed
    /// embedding rows back into a cached layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ or
    /// `src.rows() != indices.len()`, and [`TensorError::IndexOutOfBounds`]
    /// if any index is out of range. `self` is left untouched on error.
    pub fn scatter_rows(&mut self, indices: &[usize], src: &Matrix) -> Result<()> {
        if self.cols != src.cols || src.rows != indices.len() {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_rows",
                lhs: (indices.len(), self.cols),
                rhs: src.shape(),
            });
        }
        if let Some(&bad) = indices.iter().find(|&&r| r >= self.rows) {
            return Err(TensorError::IndexOutOfBounds {
                index: (bad, 0),
                shape: self.shape(),
            });
        }
        for (i, &r) in indices.iter().enumerate() {
            self.row_mut(r).copy_from_slice(src.row(i));
        }
        Ok(())
    }

    /// Appends one row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.cols {
            return Err(TensorError::LengthMismatch {
                expected: self.cols,
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]).unwrap();
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn zero_width_products_are_empty_matrices() {
        // Below and past the parallel thresholds.
        for rows in [3, 20_000] {
            let a = Matrix::filled(rows, 2, 1.5);
            let empty = Matrix::zeros(2, 0);
            let none = Matrix::zeros(rows, 0);
            assert_eq!(a.matmul(&empty).unwrap().shape(), (rows, 0));
            assert_eq!(a.matmul_bias(&empty, &[]).unwrap().shape(), (rows, 0));
            assert_eq!(a.transpose_matmul(&none).unwrap().shape(), (2, 0));
            assert_eq!(none.transpose_matmul(&a).unwrap().shape(), (0, 2));
            let dx = a.matmul_transpose(&Matrix::zeros(0, 2)).unwrap();
            assert_eq!(dx.shape(), (rows, 0));
        }
        // An empty shared dimension sums no terms: `+0.0` everywhere.
        let zero_k = Matrix::zeros(3, 0).matmul_transpose(&Matrix::zeros(2, 0));
        assert_eq!(zero_k.unwrap(), Matrix::zeros(3, 2));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 7.0]]).unwrap()
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[2.0, 3.0]]).unwrap()
        );
        assert_eq!(
            a.hadamard(&b).unwrap(),
            Matrix::from_rows(&[&[3.0, 10.0]]).unwrap()
        );
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 4.0]]).unwrap());
    }

    #[test]
    fn dot_and_sum() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.dot(&a).unwrap(), 30.0);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = a.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn scatter_rows_is_gather_inverse() {
        let mut a = Matrix::from_fn(4, 2, |r, c| (10 * r + c) as f32);
        let original = a.clone();
        let idx = [3usize, 1];
        let taken = a.gather_rows(&idx);
        let patch = Matrix::from_rows(&[&[-1.0, -2.0], &[-3.0, -4.0]]).unwrap();
        a.scatter_rows(&idx, &patch).unwrap();
        assert_eq!(a.row(3), &[-1.0, -2.0]);
        assert_eq!(a.row(1), &[-3.0, -4.0]);
        assert_eq!(a.row(0), original.row(0));
        a.scatter_rows(&idx, &taken).unwrap();
        assert_eq!(a, original);
    }

    #[test]
    fn scatter_rows_rejects_bad_shapes() {
        let mut a = Matrix::zeros(3, 2);
        let src = Matrix::zeros(2, 2);
        assert!(matches!(
            a.scatter_rows(&[0], &src),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.scatter_rows(&[0, 9], &src),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn push_row_appends() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        a.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert!(matches!(
            a.push_row(&[5.0]),
            Err(TensorError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn vstack_stacks() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn from_vec_length_checked() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn large_matmul_parallel_path() {
        // Exercise the rayon branch (rows * cols >= threshold).
        let a = Matrix::from_fn(256, 128, |r, c| ((r + c) % 7) as f32);
        let b = Matrix::from_fn(128, 128, |r, c| ((r * c) % 5) as f32);
        let par = a.matmul(&b).unwrap();
        // Serial reference on a few spot-checked entries.
        for &(r, c) in &[(0, 0), (17, 93), (255, 127)] {
            let mut acc = 0.0;
            for k in 0..128 {
                acc += a.get(r, k) * b.get(k, c);
            }
            assert!((par.get(r, c) - acc).abs() < 1e-3);
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 4.25]]).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn deserialize_refuses_a_shape_mismatch() {
        for json in [
            r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":2,"cols":2,"data":[]}"#,
            r#"{"rows":1,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":18446744073709551615,"cols":2,"data":[1.0,2.0]}"#,
        ] {
            let err = serde_json::from_str::<Matrix>(json).unwrap_err();
            assert!(err.to_string().contains("values, not"), "{json}: {err}");
        }
        let empty: Matrix = serde_json::from_str(r#"{"rows":0,"cols":3,"data":[]}"#).unwrap();
        assert_eq!(empty.shape(), (0, 3));
    }

    #[test]
    fn backward_row_blocks_are_bitwise_the_whole_products() {
        // Odd widths, exact zeros in the left operand, a ragged last block.
        let x = Matrix::from_fn(11, 5, |r, c| {
            let v = ((r * 5 + c) as f32 * 0.37).sin();
            if (r + c) % 4 == 0 {
                0.0
            } else {
                v
            }
        });
        let dy = Matrix::from_fn(11, 3, |r, c| ((r + 2 * c) as f32 * 0.21).cos());
        let w = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.53).sin());
        let dw = x.transpose_matmul(&dy).unwrap();
        let dx = dy.matmul_transpose(&w).unwrap();
        let w_t = w.transpose();
        let mut acc = Matrix::zeros(5, 3);
        let mut out = vec![f32::NAN; 11 * 5];
        for (lo, hi) in [(0usize, 4usize), (4, 8), (8, 11)] {
            acc.transpose_matmul_acc(
                &x.as_slice()[lo * 5..hi * 5],
                &dy.as_slice()[lo * 3..hi * 3],
            )
            .unwrap();
            Matrix::matmul_transpose_into(
                &dy.as_slice()[lo * 3..hi * 3],
                &w_t,
                &mut out[lo * 5..hi * 5],
            )
            .unwrap();
        }
        assert_eq!(acc, dw);
        assert_eq!(out, dx.as_slice());
        assert!(matches!(
            acc.transpose_matmul_acc(&x.as_slice()[..10], &dy.as_slice()[..3]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Matrix::matmul_transpose_into(&dy.as_slice()[..6], &w_t, &mut out[..5]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_bias_into_is_bitwise_matmul_bias_rows() {
        let lhs = Matrix::from_fn(7, 5, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let rhs = Matrix::from_fn(5, 3, |r, c| ((r + 2 * c) as f32 * 0.21).cos());
        let bias = [0.5, -0.25, 2.0];
        let full = lhs.matmul_bias(&rhs, &bias).unwrap();
        // Consecutive rows of a buffer, over stale output.
        let mut out = vec![f32::NAN; 7 * 3];
        Matrix::matmul_bias_into(lhs.as_slice().chunks_exact(5), &rhs, &bias, &mut out).unwrap();
        assert_eq!(out, full.as_slice());
        // Listed rows, read in place.
        let picked = [6usize, 0, 3];
        let mut out = vec![0.0; 3 * 3];
        Matrix::matmul_bias_into(picked.iter().map(|&r| lhs.row(r)), &rhs, &bias, &mut out)
            .unwrap();
        assert_eq!(out, full.gather_rows(&picked).as_slice());

        let rows = || lhs.as_slice().chunks_exact(5);
        assert!(matches!(
            Matrix::matmul_bias_into(rows(), &rhs, &bias, &mut [0.0; 20]),
            Err(TensorError::LengthMismatch {
                expected: 21,
                actual: 20
            })
        ));
        assert!(matches!(
            Matrix::matmul_bias_into(rows(), &rhs, &bias[..2], &mut [0.0; 21]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Matrix::matmul_bias_into(lhs.as_slice().chunks_exact(7), &rhs, &bias, &mut [0.0; 15]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }
}
