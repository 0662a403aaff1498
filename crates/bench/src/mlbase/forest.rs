use rand::seq::SliceRandom;
use rand::Rng as _;

use gcnt_nn::{seeded_rng, Rng};
use gcnt_tensor::Matrix;

use super::Classifier;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Features examined per split; `0` means `sqrt(total features)`.
    pub features_per_split: usize,
    /// Bagging / feature-sampling seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            trees: 30,
            max_depth: 12,
            min_samples_split: 4,
            features_per_split: 0,
            seed: 17,
        }
    }
}

/// A CART node.
#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    Leaf {
        /// Probability of class 1 among the training samples in the leaf.
        p1: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<TreeNode>,
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    fn predict(&self, row: &[f32]) -> f32 {
        match self {
            TreeNode::Leaf { p1 } => *p1,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] <= *threshold {
                    left.predict(row)
                } else {
                    right.predict(row)
                }
            }
        }
    }
}

/// A bagged ensemble of Gini-split CART trees with per-split feature
/// subsampling — the RF baseline of Table 2.
///
/// # Examples
///
/// ```
/// use gcnt_bench::mlbase::{Classifier, RandomForest, RandomForestConfig};
/// use gcnt_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.9], &[1.0]]).unwrap();
/// let model = RandomForest::fit(&x, &[0, 0, 1, 1], &RandomForestConfig::default());
/// assert_eq!(model.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<TreeNode>,
}

impl RandomForest {
    /// Trains the forest.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`, any label exceeds 1, or `x`
    /// is empty.
    pub fn fit(x: &Matrix, labels: &[usize], cfg: &RandomForestConfig) -> Self {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        assert!(labels.iter().all(|&l| l <= 1), "binary labels expected");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let n = x.rows();
        let mtry = if cfg.features_per_split == 0 {
            ((x.cols() as f64).sqrt().ceil() as usize).clamp(1, x.cols())
        } else {
            cfg.features_per_split.min(x.cols())
        };
        let mut rng = seeded_rng(cfg.seed);
        let trees = (0..cfg.trees)
            .map(|_| {
                // Bootstrap sample.
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                build_tree(x, labels, &sample, cfg, mtry, 0, &mut rng)
            })
            .collect();
        RandomForest { trees }
    }

    /// Mean class-1 probability across trees.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|r| {
                let row = x.row(r);
                let sum: f32 = self.trees.iter().map(|t| t.predict(row)).sum();
                sum / self.trees.len().max(1) as f32
            })
            .collect()
    }
}

impl Classifier for RandomForest {
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x)
            .iter()
            .map(|&p| usize::from(p >= 0.5))
            .collect()
    }
}

fn build_tree(
    x: &Matrix,
    labels: &[usize],
    sample: &[usize],
    cfg: &RandomForestConfig,
    mtry: usize,
    depth: usize,
    rng: &mut Rng,
) -> TreeNode {
    let pos = sample.iter().filter(|&&i| labels[i] == 1).count();
    let p1 = pos as f32 / sample.len().max(1) as f32;
    if depth >= cfg.max_depth
        || sample.len() < cfg.min_samples_split
        || pos == 0
        || pos == sample.len()
    {
        return TreeNode::Leaf { p1 };
    }
    // Candidate features for this split.
    let mut features: Vec<usize> = (0..x.cols()).collect();
    features.shuffle(rng);
    features.truncate(mtry);

    let parent_gini = gini(pos, sample.len());
    let mut best: Option<(usize, f32, f64)> = None;
    let mut values: Vec<(f32, usize)> = Vec::with_capacity(sample.len());
    for &feature in &features {
        values.clear();
        values.extend(sample.iter().map(|&i| (x.get(i, feature), labels[i])));
        values.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        // Sweep split points between distinct adjacent values.
        let total = values.len();
        let total_pos = pos;
        let mut left_pos = 0usize;
        for i in 0..total - 1 {
            if values[i].1 == 1 {
                left_pos += 1;
            }
            if values[i].0 == values[i + 1].0 {
                continue;
            }
            let left_n = i + 1;
            let right_n = total - left_n;
            let g_left = gini(left_pos, left_n);
            let g_right = gini(total_pos - left_pos, right_n);
            let weighted = (left_n as f64 * g_left + right_n as f64 * g_right) / total as f64;
            let gain = parent_gini - weighted;
            if gain > 1e-9 && best.is_none_or(|(_, _, bg)| gain > bg) {
                let threshold = 0.5 * (values[i].0 + values[i + 1].0);
                best = Some((feature, threshold, gain));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return TreeNode::Leaf { p1 };
    };
    let (left, right): (Vec<usize>, Vec<usize>) = sample
        .iter()
        .partition(|&&i| x.get(i, feature) <= threshold);
    if left.is_empty() || right.is_empty() {
        return TreeNode::Leaf { p1 };
    }
    TreeNode::Split {
        feature,
        threshold,
        left: Box::new(build_tree(x, labels, &left, cfg, mtry, depth + 1, rng)),
        right: Box::new(build_tree(x, labels, &right, cfg, mtry, depth + 1, rng)),
    }
}

fn gini(pos: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<usize>) {
        // XOR: linearly inseparable, trees handle it.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i % 2) as f32;
            let b = ((i / 2) % 2) as f32;
            let jitter = (i as f32 * 0.013).sin() * 0.05;
            rows.push(vec![a + jitter, b - jitter]);
            labels.push(usize::from(a != b));
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let model = RandomForest::fit(&x, &y, &RandomForestConfig::default());
        let acc = crate::mlbase::accuracy(&y, &model.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(0, 10), 0.0);
        assert_eq!(gini(10, 10), 0.0);
        assert!((gini(5, 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(0, 0), 0.0);
    }

    #[test]
    fn pure_leaf_short_circuits() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let model = RandomForest::fit(&x, &[1, 1], &RandomForestConfig::default());
        assert_eq!(model.predict(&x), vec![1, 1]);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = xor_data();
        let cfg = RandomForestConfig::default();
        let a = RandomForest::fit(&x, &y, &cfg);
        let b = RandomForest::fit(&x, &y, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = xor_data();
        let model = RandomForest::fit(&x, &y, &RandomForestConfig::default());
        for p in model.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn depth_limit_respected() {
        let (x, y) = xor_data();
        let cfg = RandomForestConfig {
            max_depth: 0,
            ..Default::default()
        };
        let model = RandomForest::fit(&x, &y, &cfg);
        // Depth 0 forces root leaves: constant prediction.
        let preds = model.predict(&x);
        assert!(preds.iter().all(|&p| p == preds[0]));
    }
}
