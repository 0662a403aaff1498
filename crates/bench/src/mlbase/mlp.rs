use gcnt_nn::loss::softmax_cross_entropy;
use gcnt_nn::{seeded_rng, Mlp};
use gcnt_tensor::{ops, Matrix};

use super::Classifier;

/// MLP-baseline hyper-parameters. The paper configures this baseline
/// identically to the GCN's classifier head ("the configuration of the
/// network is the same as the classifier module in GCN", §5):
/// hidden dims 64, 64, 128 with 2 outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpClassifierConfig {
    /// Hidden layer dimensions (paper: `[64, 64, 128]`).
    pub hidden_dims: Vec<usize>,
    /// Full-batch training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for MlpClassifierConfig {
    fn default() -> Self {
        MlpClassifierConfig {
            hidden_dims: vec![64, 64, 128],
            epochs: 150,
            lr: 0.05,
            seed: 23,
        }
    }
}

/// The MLP baseline of Table 2: a feed-forward net on handcrafted cone
/// features.
///
/// # Examples
///
/// ```
/// use gcnt_bench::mlbase::{Classifier, MlpClassifier, MlpClassifierConfig};
/// use gcnt_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[-1.0, 0.0], &[1.0, 0.0]]).unwrap();
/// let cfg = MlpClassifierConfig { hidden_dims: vec![8], epochs: 300, ..Default::default() };
/// let model = MlpClassifier::fit(&x, &[0, 1], &cfg);
/// assert_eq!(model.predict(&x), vec![0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpClassifier {
    net: Mlp,
}

impl MlpClassifier {
    /// Trains with full-batch SGD on softmax cross-entropy.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()` or any label exceeds 1.
    pub fn fit(x: &Matrix, labels: &[usize], cfg: &MlpClassifierConfig) -> Self {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        assert!(labels.iter().all(|&l| l <= 1), "binary labels expected");
        let mut dims = vec![x.cols()];
        dims.extend_from_slice(&cfg.hidden_dims);
        dims.push(2);
        let mut rng = seeded_rng(cfg.seed);
        let mut net = Mlp::new(&dims, &mut rng);
        for _ in 0..cfg.epochs {
            let (logits, cache) = net.forward(x).expect("shapes fixed at construction");
            let (_, dlogits) = softmax_cross_entropy(&logits, labels);
            let (grads, _) = net
                .backward(&cache, &dlogits)
                .expect("shapes fixed at construction");
            net.apply_sgd(&grads, cfg.lr);
        }
        MlpClassifier { net }
    }
}

impl Classifier for MlpClassifier {
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.net.predict(x).expect("feature dim fixed at fit time");
        ops::argmax_rows(&logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rings() -> (Matrix, Vec<usize>) {
        // Inner cluster class 0, outer ring class 1 — nonlinear.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let angle = i as f32 * 0.7;
            let r = if i % 2 == 0 { 0.3 } else { 1.5 };
            rows.push(vec![r * angle.cos(), r * angle.sin()]);
            labels.push(i % 2);
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = rings();
        let cfg = MlpClassifierConfig {
            hidden_dims: vec![16, 16],
            epochs: 400,
            lr: 0.1,
            seed: 1,
        };
        let model = MlpClassifier::fit(&x, &y, &cfg);
        let acc = crate::mlbase::accuracy(&y, &model.predict(&x));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = rings();
        let cfg = MlpClassifierConfig {
            hidden_dims: vec![8],
            epochs: 20,
            ..Default::default()
        };
        let a = MlpClassifier::fit(&x, &y, &cfg);
        let b = MlpClassifier::fit(&x, &y, &cfg);
        assert_eq!(a, b);
    }
}
