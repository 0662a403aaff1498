use rand::seq::SliceRandom;

use gcnt_nn::seeded_rng;
use gcnt_tensor::Matrix;

use super::Classifier;

/// Linear-SVM hyper-parameters (Pegasos-style stochastic subgradient
/// descent on the hinge loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSvmConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Regularisation strength `lambda` (controls the margin/step decay).
    pub lambda: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        LinearSvmConfig {
            epochs: 60,
            lambda: 1e-3,
            seed: 7,
        }
    }
}

/// Linear support vector machine with hinge loss.
///
/// # Examples
///
/// ```
/// use gcnt_bench::mlbase::{Classifier, LinearSvm, LinearSvmConfig};
/// use gcnt_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[-1.0], &[-2.0], &[1.0], &[2.0]]).unwrap();
/// let model = LinearSvm::fit(&x, &[0, 0, 1, 1], &LinearSvmConfig::default());
/// assert_eq!(model.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    weights: Vec<f32>,
    bias: f32,
}

impl LinearSvm {
    /// Trains on rows of `x` with binary labels (internally mapped to ±1).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()` or any label exceeds 1.
    pub fn fit(x: &Matrix, labels: &[usize], cfg: &LinearSvmConfig) -> Self {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        assert!(labels.iter().all(|&l| l <= 1), "binary labels expected");
        let n = x.rows();
        let d = x.cols();
        let mut weights = vec![0.0f32; d];
        let mut bias = 0.0f32;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = seeded_rng(cfg.seed);
        let mut t = 0u64;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &r in &order {
                t += 1;
                let lr = 1.0 / (cfg.lambda * t as f32);
                let y = if labels[r] == 1 { 1.0f32 } else { -1.0 };
                let row = x.row(r);
                let margin: f32 =
                    y * (row.iter().zip(&weights).map(|(a, w)| a * w).sum::<f32>() + bias);
                // Subgradient: always shrink, add the sample when inside
                // the margin.
                let shrink = 1.0 - lr * cfg.lambda;
                for w in weights.iter_mut() {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    for (w, &a) in weights.iter_mut().zip(row) {
                        *w += lr * y * a;
                    }
                    bias += lr * y;
                }
            }
        }
        LinearSvm { weights, bias }
    }

    /// Signed decision value per row (positive = class 1 side).
    pub fn decision_function(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|r| {
                x.row(r)
                    .iter()
                    .zip(&self.weights)
                    .map(|(a, w)| a * w)
                    .sum::<f32>()
                    + self.bias
            })
            .collect()
    }
}

impl Classifier for LinearSvm {
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.decision_function(x)
            .iter()
            .map(|&v| usize::from(v >= 0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            &[-2.0, 0.5],
            &[-1.0, -0.5],
            &[-1.5, 1.0],
            &[1.0, 0.5],
            &[2.0, -1.0],
            &[1.5, 0.0],
        ])
        .unwrap();
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable();
        let model = LinearSvm::fit(&x, &y, &LinearSvmConfig::default());
        assert_eq!(model.predict(&x), y);
    }

    #[test]
    fn decision_function_sign_matches_prediction() {
        let (x, y) = separable();
        let model = LinearSvm::fit(&x, &y, &LinearSvmConfig::default());
        let decisions = model.decision_function(&x);
        let preds = model.predict(&x);
        for (d, p) in decisions.iter().zip(&preds) {
            assert_eq!(*p == 1, *d >= 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = separable();
        let cfg = LinearSvmConfig::default();
        let a = LinearSvm::fit(&x, &y, &cfg);
        let b = LinearSvm::fit(&x, &y, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn margin_grows_with_distance() {
        let (x, y) = separable();
        let model = LinearSvm::fit(&x, &y, &LinearSvmConfig::default());
        let test = Matrix::from_rows(&[&[0.5, 0.0], &[5.0, 0.0]]).unwrap();
        let d = model.decision_function(&test);
        assert!(d[1] > d[0]);
    }
}
