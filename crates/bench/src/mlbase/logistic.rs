use gcnt_tensor::Matrix;

use super::Classifier;

/// Logistic-regression hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegressionConfig {
    /// Full-batch gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularisation strength.
    pub l2: f32,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            epochs: 200,
            lr: 0.1,
            l2: 1e-4,
        }
    }
}

/// Binary logistic regression trained by full-batch gradient descent.
///
/// # Examples
///
/// ```
/// use gcnt_bench::mlbase::{Classifier, LogisticRegression, LogisticRegressionConfig};
/// use gcnt_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]).unwrap();
/// let model = LogisticRegression::fit(&x, &[0, 0, 1, 1], &LogisticRegressionConfig::default());
/// assert_eq!(model.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

impl LogisticRegression {
    /// Trains on rows of `x` with binary labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()` or any label exceeds 1.
    pub fn fit(x: &Matrix, labels: &[usize], cfg: &LogisticRegressionConfig) -> Self {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        assert!(labels.iter().all(|&l| l <= 1), "binary labels expected");
        let n = x.rows();
        let d = x.cols();
        let mut weights = vec![0.0f32; d];
        let mut bias = 0.0f32;
        let inv_n = 1.0 / n.max(1) as f32;
        for _ in 0..cfg.epochs {
            let mut gw = vec![0.0f32; d];
            let mut gb = 0.0f32;
            for (r, &label) in labels.iter().enumerate() {
                let row = x.row(r);
                let z: f32 = row.iter().zip(&weights).map(|(a, w)| a * w).sum::<f32>() + bias;
                let p = sigmoid(z);
                let err = p - label as f32;
                for (g, &a) in gw.iter_mut().zip(row) {
                    *g += err * a;
                }
                gb += err;
            }
            for (w, g) in weights.iter_mut().zip(&gw) {
                *w -= cfg.lr * (g * inv_n + cfg.l2 * *w);
            }
            bias -= cfg.lr * gb * inv_n;
        }
        LogisticRegression { weights, bias }
    }

    /// Positive-class probability per row.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|r| {
                let z: f32 = x
                    .row(r)
                    .iter()
                    .zip(&self.weights)
                    .map(|(a, w)| a * w)
                    .sum::<f32>()
                    + self.bias;
                sigmoid(z)
            })
            .collect()
    }
}

impl Classifier for LogisticRegression {
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x)
            .iter()
            .map(|&p| usize::from(p >= 0.5))
            .collect()
    }
}

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            &[-2.0, 1.0],
            &[-1.0, -1.0],
            &[-1.5, 0.5],
            &[1.0, 0.0],
            &[2.0, -0.5],
            &[1.5, 1.0],
        ])
        .unwrap();
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable();
        let model = LogisticRegression::fit(&x, &y, &LogisticRegressionConfig::default());
        assert_eq!(model.predict(&x), y);
    }

    #[test]
    fn probabilities_ordered_by_margin() {
        let (x, y) = separable();
        let model = LogisticRegression::fit(&x, &y, &LogisticRegressionConfig::default());
        let test = Matrix::from_rows(&[&[-3.0, 0.0], &[3.0, 0.0]]).unwrap();
        let p = model.predict_proba(&test);
        assert!(p[0] < 0.5 && p[1] > 0.5);
        assert!(p[1] - p[0] > 0.5);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, y) = separable();
        let loose = LogisticRegression::fit(
            &x,
            &y,
            &LogisticRegressionConfig {
                l2: 0.0,
                ..Default::default()
            },
        );
        let tight = LogisticRegression::fit(
            &x,
            &y,
            &LogisticRegressionConfig {
                l2: 1.0,
                ..Default::default()
            },
        );
        let norm = |w: &[f32]| w.iter().map(|v| v * v).sum::<f32>();
        assert!(norm(&tight.weights) < norm(&loose.weights));
    }

    #[test]
    #[should_panic(expected = "binary labels")]
    fn non_binary_labels_panic() {
        let x = Matrix::zeros(1, 1);
        LogisticRegression::fit(&x, &[2], &LogisticRegressionConfig::default());
    }
}
