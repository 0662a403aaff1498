//! Classical machine-learning baselines for Table 2 of the paper:
//! logistic regression (LR), random forest (RF), linear support vector
//! machine (SVM) and a multi-layer perceptron (MLP).
//!
//! Unlike the GCN, these models need *handcrafted* fixed-dimension
//! features. The paper concatenates the `[LL, C0, C1, O]` attributes of up
//! to 500 fan-in-cone and 500 fan-out-cone nodes collected by
//! breadth-first search, giving `(500 + 500 + 1) × 4 = 4004` dimensions
//! (§5) — implemented by [`features::cone_features`].
//!
//! All four models share the [`Classifier`] trait so the Table 2 harness
//! can sweep them uniformly.

pub mod features;
mod forest;
mod logistic;
mod mlp;
mod svm;

pub use forest::{RandomForest, RandomForestConfig};
pub use logistic::{LogisticRegression, LogisticRegressionConfig};
pub use mlp::{MlpClassifier, MlpClassifierConfig};
pub use svm::{LinearSvm, LinearSvmConfig};

use gcnt_tensor::Matrix;

/// A trained binary classifier over dense feature vectors.
pub trait Classifier {
    /// Predicts a label (0 or 1) per row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<usize>;

    /// Short human-readable model name (e.g. `"LR"`).
    fn name(&self) -> &'static str;
}

/// Fraction of rows predicted correctly.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accuracy(labels: &[usize], predictions: &[usize]) -> f64 {
    assert_eq!(labels.len(), predictions.len(), "one prediction per label");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .zip(predictions)
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one prediction per label")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[1], &[1, 0]);
    }
}
