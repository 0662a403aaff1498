//! Loss functions.
//!
//! The paper trains with cross-entropy (§5) and handles the extreme class
//! imbalance by "imposing a large weight on the positive nodes such that
//! the penalty of misclassifying them would be large" (§3.3) — i.e.
//! class-weighted softmax cross-entropy, implemented here.

use gcnt_tensor::{ops, Matrix};

/// Class-weighted softmax cross-entropy.
///
/// `logits` is `n x c`, `labels[i] < c` is the target class of row `i`,
/// `class_weights[k]` scales the loss (and gradient) of rows whose target
/// class is `k`. The loss is normalised by the *total weight*, so doubling
/// every weight leaves the loss unchanged.
///
/// Returns `(mean_loss, dlogits)`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`, any label is out of range,
/// or `class_weights.len() != logits.cols()`.
///
/// # Examples
///
/// ```
/// use gcnt_nn::loss::weighted_softmax_cross_entropy;
/// use gcnt_tensor::Matrix;
///
/// let logits = Matrix::from_rows(&[&[2.0, -2.0], &[-2.0, 2.0]]).unwrap();
/// let (loss, grad) = weighted_softmax_cross_entropy(&logits, &[0, 1], &[1.0, 1.0]);
/// assert!(loss < 0.1); // both rows confidently correct
/// assert_eq!(grad.shape(), (2, 2));
/// ```
pub fn weighted_softmax_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
    class_weights: &[f32],
) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    assert_eq!(class_weights.len(), logits.cols(), "one weight per class");
    let norm = loss_norm(labels.iter().copied(), class_weights);
    let mut dlogits = logits.clone();
    let mut total_loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        total_loss += softmax_ce_row(dlogits.row_mut(r), label, class_weights, norm);
    }
    ((total_loss * norm) as f32, dlogits)
}

/// The normaliser of [`weighted_softmax_cross_entropy`]: one over the
/// labels' class weights summed in `f64`, in label order — `0` when that
/// total is not positive, so an empty label set has zero loss and zero
/// gradient.
///
/// # Panics
///
/// Panics if a label is not below `class_weights.len()`.
pub fn loss_norm(labels: impl IntoIterator<Item = usize>, class_weights: &[f32]) -> f64 {
    let mut total_weight = 0.0f64;
    for label in labels {
        assert!(label < class_weights.len(), "label out of range");
        total_weight += class_weights[label] as f64;
    }
    if total_weight > 0.0 {
        1.0 / total_weight
    } else {
        0.0
    }
}

/// One row of [`weighted_softmax_cross_entropy`], the loss chain every
/// training step runs: `row` holds the row's logits and receives its
/// gradient, `((p·w) − w·[c = label]) · norm` per class `c`, with `p` the
/// row's softmax ([`ops::softmax_row`]), `w` the label's class weight and
/// `norm` from [`loss_norm`]. Returns the row's loss term,
/// `−ln(max(p_label, 1e-12)) · w` in `f64`; the loss is the sum of the
/// terms in label order, times `norm`.
///
/// # Panics
///
/// Panics if `label` is not a column of `row` with a class weight.
pub fn softmax_ce_row(row: &mut [f32], label: usize, class_weights: &[f32], norm: f64) -> f64 {
    assert!(label < row.len(), "label out of range");
    let w = class_weights[label];
    ops::softmax_row(row);
    let p = row[label].max(1e-12);
    let term = -(p.ln() as f64) * w as f64;
    for v in row.iter_mut() {
        *v *= w;
    }
    row[label] -= w;
    let norm = norm as f32;
    for v in row.iter_mut() {
        *v *= norm;
    }
    term
}

/// Unweighted softmax cross-entropy: all classes weighted `1`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let weights = vec![1.0; logits.cols()];
    weighted_softmax_cross_entropy(logits, labels, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::zeros(4, 2);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 0, 1]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_points_away_from_target() {
        let logits = Matrix::zeros(1, 2);
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(grad.get(0, 0) < 0.0); // increase target logit
        assert!(grad.get(0, 1) > 0.0); // decrease other logit
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, -0.5, 0.25]]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2]);
        let sum: f32 = grad.row(0).iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn class_weight_scales_gradient() {
        let logits = Matrix::zeros(2, 2);
        // Same data, weight the positive class 9x. Both rows are class-0
        // and class-1 respectively; the class-1 row gets 9x the raw grad
        // before normalisation by total weight (1 + 9 = 10).
        let (_, g) = weighted_softmax_cross_entropy(&logits, &[0, 1], &[1.0, 9.0]);
        let g_neg = g.get(0, 0).abs();
        let g_pos = g.get(1, 1).abs();
        assert!((g_pos / g_neg - 9.0).abs() < 1e-4);
    }

    #[test]
    fn equal_weights_match_unweighted() {
        let logits = Matrix::from_rows(&[&[0.3, -0.2], &[1.0, 0.5]]).unwrap();
        let (l1, g1) = softmax_cross_entropy(&logits, &[1, 0]);
        let (l2, g2) = weighted_softmax_cross_entropy(&logits, &[1, 0], &[2.0, 2.0]);
        assert!((l1 - l2).abs() < 1e-6);
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// Finite-difference check of the loss gradient.
    #[test]
    fn gradient_check() {
        let mut logits = Matrix::from_rows(&[&[0.5, -1.0], &[0.1, 0.2]]).unwrap();
        let labels = [1usize, 0usize];
        let weights = [1.0f32, 3.0f32];
        let (_, grad) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let orig = logits.get(r, c);
                logits.set(r, c, orig + eps);
                let (lp, _) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
                logits.set(r, c, orig - eps);
                let (lm, _) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
                logits.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-3,
                    "({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn label_count_mismatch_panics() {
        let logits = Matrix::zeros(2, 2);
        softmax_cross_entropy(&logits, &[0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_out_of_range_panics() {
        let logits = Matrix::zeros(1, 2);
        softmax_cross_entropy(&logits, &[5]);
    }
}
