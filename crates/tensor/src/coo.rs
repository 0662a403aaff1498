use serde::{Deserialize, Serialize};

use crate::{CsrMatrix, Matrix, Result, TensorError};

/// A sparse matrix in coordinate (COO) format.
///
/// The DAC'19 flow stores the netlist adjacency matrix in COO because it
/// supports *incremental* construction: inserting one observation point
/// appends exactly three `(value, row, col)` tuples — `(w_pr, p, v)`,
/// `(w_su, v, p)` and `(1, p, p)` — without touching the rest of the matrix
/// (paper §4). Here COO is the construction format only: convert to
/// [`CsrMatrix`] with [`CooMatrix::to_csr`] for fast products, and apply
/// that same update to the CSR form with [`CsrMatrix::append_node`].
///
/// Duplicate coordinates are allowed and are summed during CSR conversion,
/// matching the usual COO semantics.
///
/// # Examples
///
/// ```
/// use gcnt_tensor::CooMatrix;
///
/// let mut a = CooMatrix::new(3, 3);
/// a.push(0, 1, 2.0);
/// a.push(2, 2, 1.0);
/// assert_eq!(a.nnz(), 2);
/// assert!(a.sparsity() > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f32>,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
}

impl CooMatrix {
    /// Creates an empty `rows x cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            values: Vec::new(),
            row_indices: Vec::new(),
            col_indices: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity for `cap` non-zeros.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            values: Vec::with_capacity(cap),
            row_indices: Vec::with_capacity(cap),
            col_indices: Vec::with_capacity(cap),
        }
    }

    /// Builds a COO matrix from `(row, col, value)` triplets.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any triplet lies outside
    /// the matrix.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self> {
        let mut m = CooMatrix::new(rows, cols);
        for (r, c, v) in triplets {
            m.try_push(r, c, v)?;
        }
        Ok(m)
    }

    /// Appends a non-zero entry.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds. Use [`CooMatrix::try_push`] for a
    /// fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic convenience API; `try_push` is the fallible variant"
    )]
    pub fn push(&mut self, r: usize, c: usize, v: f32) {
        self.try_push(r, c, v).expect("COO index out of bounds");
    }

    /// Appends a non-zero entry, validating the coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `(r, c)` is out of
    /// bounds.
    pub fn try_push(&mut self, r: usize, c: usize, v: f32) -> Result<()> {
        let oob = || TensorError::IndexOutOfBounds {
            index: (r, c),
            shape: (self.rows, self.cols),
        };
        if r >= self.rows || c >= self.cols {
            return Err(oob());
        }
        // Indices are stored as u32; a coordinate past 4Gi is reported as
        // out of bounds rather than silently wrapped.
        let r32 = u32::try_from(r).map_err(|_| oob())?;
        let c32 = u32::try_from(c).map_err(|_| oob())?;
        self.values.push(v);
        self.row_indices.push(r32);
        self.col_indices.push(c32);
        Ok(())
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

    /// Number of stored entries (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of the matrix that is zero, in `[0, 1]`.
    ///
    /// The paper reports sparsity above 99.95% for all benchmark designs.
    pub fn sparsity(&self) -> f64 {
        let total = self.rows as f64 * self.cols as f64;
        if total == 0.0 {
            return 1.0;
        }
        1.0 - self.nnz() as f64 / total
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Converts to CSR, summing duplicate coordinates.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(self)
    }

    /// Converts to a dense matrix (summing duplicates). Intended for tests
    /// and small examples only.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            let cur = m.get(r, c);
            m.set(r, c, cur + v);
        }
        m
    }
}

impl FromIterator<(usize, usize, f32)> for CooMatrix {
    /// Collects triplets into a COO matrix sized to fit the largest indices.
    #[expect(
        clippy::expect_used,
        reason = "`FromIterator` cannot return `Result`; indices are in bounds by construction"
    )]
    fn from_iter<T: IntoIterator<Item = (usize, usize, f32)>>(iter: T) -> Self {
        let triplets: Vec<_> = iter.into_iter().collect();
        let rows = triplets.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = triplets.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        CooMatrix::from_triplets(rows, cols, triplets)
            .expect("indices are in bounds by construction")
    }
}

impl Extend<(usize, usize, f32)> for CooMatrix {
    /// Appends triplets.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    fn extend<T: IntoIterator<Item = (usize, usize, f32)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 3.0);
        m.push(1, 0, -1.0);
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 3.0), (1, 0, -1.0)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = CooMatrix::new(2, 2);
        assert!(matches!(
            m.try_push(2, 0, 1.0),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn sparsity_empty_is_one() {
        assert_eq!(CooMatrix::new(0, 0).sparsity(), 1.0);
        assert_eq!(CooMatrix::new(10, 10).sparsity(), 1.0);
    }

    #[test]
    fn sparsity_counts_entries() {
        let mut m = CooMatrix::new(10, 10);
        m.push(0, 0, 1.0);
        assert!((m.sparsity() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn to_dense_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, 2.0);
        assert_eq!(m.to_dense().get(0, 0), 3.0);
    }

    #[test]
    fn from_iterator_sizes_to_fit() {
        let m: CooMatrix = vec![(0, 5, 1.0), (3, 1, 2.0)].into_iter().collect();
        assert_eq!(m.shape(), (4, 6));
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut m = CooMatrix::new(4, 4);
        m.extend(vec![(0, 0, 1.0), (3, 3, 2.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = CooMatrix::new(2, 3);
        m.push(1, 2, 4.5);
        let json = serde_json::to_string(&m).unwrap();
        let back: CooMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
