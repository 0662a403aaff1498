//! Free-standing element-wise and reduction helpers shared by the NN and
//! GCN crates.

use crate::Matrix;

/// Rectified linear unit applied element-wise: `max(x, 0)`.
///
/// # Examples
///
/// ```
/// use gcnt_tensor::{ops, Matrix};
///
/// let m = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
/// let r = ops::relu(&m);
/// assert_eq!(r.row(0), &[0.0, 2.0]);
/// ```
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|v| if v > 0.0 { v } else { 0.0 })
}

/// [`relu`] applied in place — same element-wise result without
/// allocating a fresh matrix; the inference loops use this on owned
/// intermediates.
pub fn relu_in_place(m: &mut Matrix) {
    relu_slice(m.as_mut_slice());
}

/// [`relu_in_place`] on a bare row block, for buffers that are not a
/// [`Matrix`] (a pass's tile scratch).
pub fn relu_slice(values: &mut [f32]) {
    for v in values {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// The first `len` values of a reusable scratch buffer, grown
/// (zero-filled) if it is shorter; what they hold is whatever the last
/// user left.
pub fn scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf.get_mut(..len).unwrap_or_default()
}

/// Gradient mask of ReLU: `1` where the *pre-activation* input was positive.
pub fn relu_mask(pre_activation: &Matrix) -> Matrix {
    pre_activation.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Row-wise softmax, numerically stabilised by subtracting the row max.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_row(out.row_mut(r));
    }
    out
}

/// One row of [`softmax_rows`], in place: the row max, then `exp(v - max)`
/// summed left to right, then each value divided by that sum unless it
/// is not positive. Every softmax over logit rows runs this chain.
pub fn softmax_row(row: &mut [f32]) {
    // NaN logits would silently poison every probability in their row;
    // catch them at the kernel boundary in debug builds.
    debug_assert!(
        row.iter().all(|v| !v.is_nan()),
        "softmax_rows on NaN logits"
    );
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// One column of [`softmax_rows`] without materialising the matrix.
///
/// Performs the same per-row max / exp / sum arithmetic in the same
/// order, so `softmax_col(m, c)[r]` is bit-for-bit equal to
/// `softmax_rows(m).get(r, c)` — including the degenerate all`-inf` row
/// where the sum guard leaves the exponentials undivided.
///
/// # Panics
///
/// Panics if `col >= m.cols()`.
pub fn softmax_col(m: &Matrix, col: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m.rows()];
    softmax_col_into(m.as_slice(), m.cols(), col, &mut out);
    out
}

/// [`softmax_col`] over a bare row block: `logits` holds rows of `cols`
/// values and `out[r]` receives column `col` of row `r`'s softmax. Same
/// arithmetic in the same order, nothing allocated.
///
/// # Panics
///
/// Panics if `col >= cols` or `logits` does not hold `out.len()` rows.
pub fn softmax_col_into(logits: &[f32], cols: usize, col: usize, out: &mut [f32]) {
    assert!(col < cols, "softmax_col: column {col} out of range");
    assert_eq!(logits.len(), out.len() * cols, "softmax_col: row count");
    debug_assert!(
        logits.iter().all(|v| !v.is_nan()),
        "softmax_col on NaN logits"
    );
    for (row, p) in logits.chunks_exact(cols).zip(out) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (mut sum, mut e) = (0.0, 0.0);
        for (c, &v) in row.iter().enumerate() {
            let exp = (v - max).exp();
            sum += exp;
            if c == col {
                e = exp;
            }
        }
        *p = if sum > 0.0 { e / sum } else { e };
    }
}

/// Index of the maximum element in each row.
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows()).map(|r| argmax_row(m.row(r))).collect()
}

/// Index of the maximum element of one row: the last of equal maxima, an
/// incomparable (NaN) pair counting as equal, and 0 for an empty row.
pub fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Mean of each column.
#[expect(
    clippy::cast_possible_truncation,
    reason = "accumulates in f64, rounds once to f32"
)]
pub fn column_means(m: &Matrix) -> Vec<f32> {
    let mut means = vec![0f64; m.cols()];
    for r in 0..m.rows() {
        for (mean, &v) in means.iter_mut().zip(m.row(r)) {
            *mean += v as f64;
        }
    }
    let n = m.rows().max(1) as f64;
    means.iter().map(|&s| (s / n) as f32).collect()
}

/// Standard deviation of each column (population, not sample).
#[expect(
    clippy::cast_possible_truncation,
    reason = "accumulates in f64, rounds once to f32"
)]
pub fn column_stds(m: &Matrix, means: &[f32]) -> Vec<f32> {
    let mut vars = vec![0f64; m.cols()];
    for r in 0..m.rows() {
        for ((var, &mean), &v) in vars.iter_mut().zip(means).zip(m.row(r)) {
            let d = v as f64 - mean as f64;
            *var += d * d;
        }
    }
    let n = m.rows().max(1) as f64;
    vars.iter().map(|&s| ((s / n).sqrt()) as f32).collect()
}

/// Z-score normalisation per column: `(x - mean) / std`, with `std == 0`
/// columns left centred but unscaled. Returns the normalised matrix plus the
/// `(means, stds)` used, so a test set can be normalised with the training
/// statistics.
pub fn standardize_columns(m: &Matrix) -> (Matrix, Vec<f32>, Vec<f32>) {
    // A single non-finite feature (e.g. an unclamped SCOAP saturation)
    // would drag the whole column's mean/std to NaN.
    debug_assert!(
        m.as_slice().iter().all(|v| v.is_finite()),
        "standardize_columns on non-finite features"
    );
    let means = column_means(m);
    let stds = column_stds(m, &means);
    let out = apply_standardization(m, &means, &stds);
    (out, means, stds)
}

/// Applies a previously computed per-column standardisation.
///
/// # Panics
///
/// Panics if `means`/`stds` lengths differ from `m.cols()`.
pub fn apply_standardization(m: &Matrix, means: &[f32], stds: &[f32]) -> Matrix {
    assert_eq!(means.len(), m.cols(), "means length mismatch");
    assert_eq!(stds.len(), m.cols(), "stds length mismatch");
    let mut out = m.clone();
    for r in 0..out.rows() {
        for ((v, &mean), &std) in out.row_mut(r).iter_mut().zip(means).zip(stds) {
            *v -= mean;
            if std > 1e-12 {
                *v /= std;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative() {
        let m = Matrix::from_rows(&[&[-3.0, 0.0, 2.5]]).unwrap();
        assert_eq!(relu(&m).row(0), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_mask_is_indicator() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 0.1]]).unwrap();
        assert_eq!(relu_mask(&m).row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Matrix::from_rows(&[&[1000.0, 1001.0]]).unwrap();
        let s = softmax_rows(&m);
        assert!(s.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn argmax_rows_picks_max() {
        let m = Matrix::from_rows(&[&[0.1, 0.9], &[0.8, 0.2]]).unwrap();
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    fn standardize_centers_and_scales() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]).unwrap();
        let (s, means, stds) = standardize_columns(&m);
        assert_eq!(means, vec![2.0, 10.0]);
        assert_eq!(stds[0], 1.0);
        assert_eq!(stds[1], 0.0);
        assert_eq!(s.get(0, 0), -1.0);
        assert_eq!(s.get(1, 0), 1.0);
        // Zero-variance column is centred but not divided.
        assert_eq!(s.get(0, 1), 0.0);
    }

    #[test]
    fn apply_standardization_reuses_stats() {
        let train = Matrix::from_rows(&[&[0.0], &[2.0]]).unwrap();
        let (_, means, stds) = standardize_columns(&train);
        let test = Matrix::from_rows(&[&[4.0]]).unwrap();
        let s = apply_standardization(&test, &means, &stds);
        assert_eq!(s.get(0, 0), 3.0); // (4 - 1) / 1
    }

    #[test]
    fn softmax_col_is_bitwise_a_column_of_softmax_rows() {
        let mut m = Matrix::from_fn(9, 3, |r, c| ((r * 3 + c) as f32 * 0.73).sin() * 6.0);
        // The degenerate row, where the sum guard leaves `exp` undivided.
        m.row_mut(4).fill(f32::NEG_INFINITY);
        let full = softmax_rows(&m);
        for col in 0..3 {
            let got = softmax_col(&m, col);
            for (r, p) in got.iter().enumerate() {
                assert_eq!(p.to_bits(), full.get(r, col).to_bits(), "row {r} col {col}");
            }
        }
    }

    #[test]
    fn scratch_grows_and_then_reuses() {
        let mut buf = Vec::new();
        scratch(&mut buf, 4).fill(7.0);
        assert_eq!(scratch(&mut buf, 2), &[7.0, 7.0]);
        assert_eq!(scratch(&mut buf, 6), &[7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
        assert_eq!(buf.len(), 6);
    }
}
