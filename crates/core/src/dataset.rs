use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use gcnt_netlist::{logic_levels, Netlist, Result as NetResult, Scoap};
use gcnt_tensor::Matrix;

use crate::features::{raw_features, FeatureNormalizer};
use crate::GraphTensors;

/// A netlist prepared for GCN consumption: sparse tensors, normalised
/// features and (optionally) node labels.
///
/// # Examples
///
/// ```
/// use gcnt_core::GraphData;
/// use gcnt_netlist::{generate, GeneratorConfig};
///
/// let net = generate(&GeneratorConfig::sized("d", 11, 500));
/// let data = GraphData::from_netlist(&net, None)?;
/// assert_eq!(data.features.rows(), net.node_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphData {
    /// Design name.
    pub name: String,
    /// Sparse adjacency tensors.
    pub tensors: GraphTensors,
    /// Raw (log-squashed, unnormalised) `[LL, C0, C1, O]` features.
    pub raw_features: Matrix,
    /// Normalised features actually fed to the model.
    pub features: Matrix,
    /// The normaliser that produced [`GraphData::features`] (needed to
    /// normalise attributes of nodes added later, e.g. observation points).
    pub normalizer: FeatureNormalizer,
    /// Per-node labels: 1 = difficult-to-observe, 0 = easy-to-observe.
    /// Empty for unlabeled designs.
    pub labels: Vec<u8>,
}

impl GraphData {
    /// Prepares a netlist: builds tensors, computes `[LL, C0, C1, O]` and
    /// normalises. If `normalizer` is `None`, statistics are fitted on this
    /// design (do that for training designs; pass the *training* normaliser
    /// for test designs to stay inductive).
    ///
    /// # Errors
    ///
    /// None: levels and SCOAP cannot fail on a [`Netlist`], which is
    /// valid by construction.
    pub fn from_netlist(net: &Netlist, normalizer: Option<&FeatureNormalizer>) -> NetResult<Self> {
        Self::featurize(net, normalizer).map(|(data, _)| data)
    }

    /// [`GraphData::from_netlist`], also handing back the SCOAP measures
    /// the features were built from, computed once — what the insertion
    /// flow keeps updating. Every design enters the model through here,
    /// under the `gcnt_core_featurize_ns` span.
    ///
    /// # Errors
    ///
    /// As [`GraphData::from_netlist`].
    pub fn featurize(
        net: &Netlist,
        normalizer: Option<&FeatureNormalizer>,
    ) -> NetResult<(Self, Scoap)> {
        let _span = gcnt_obs::span(gcnt_obs::histograms::CORE_FEATURIZE_NS);
        let scoap = Scoap::compute(net)?;
        let raw = raw_features(&logic_levels(net)?, &scoap);
        let normalizer = match normalizer {
            Some(n) => n.clone(),
            None => FeatureNormalizer::fit(&[&raw]),
        };
        let features = normalizer.apply(&raw);
        let data = GraphData {
            name: net.name().to_string(),
            tensors: GraphTensors::from_netlist(net),
            raw_features: raw,
            features,
            normalizer,
            labels: Vec::new(),
        };
        Ok((data, scoap))
    }

    /// Attaches node labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the node count;
    /// [`GraphData::try_with_labels`] reports the same condition as a typed
    /// error instead.
    #[expect(
        clippy::panic,
        reason = "documented-panic wrapper; `try_with_labels` is the fallible variant"
    )]
    pub fn with_labels(self, labels: Vec<u8>) -> Self {
        match self.try_with_labels(labels) {
            Ok(d) => d,
            Err(e) => panic!("one label per node: {e}"),
        }
    }

    /// Fallible variant of [`GraphData::with_labels`] for callers (CLI,
    /// checkpoint restore) that must surface a label/node mismatch as an
    /// error rather than a panic.
    ///
    /// # Errors
    ///
    /// Returns [`gcnt_tensor::TensorError::LengthMismatch`] if
    /// `labels.len()` differs from the node count.
    pub fn try_with_labels(mut self, labels: Vec<u8>) -> gcnt_tensor::Result<Self> {
        if labels.len() != self.tensors.node_count() {
            return Err(gcnt_tensor::TensorError::LengthMismatch {
                expected: self.tensors.node_count(),
                actual: labels.len(),
            });
        }
        self.labels = labels;
        Ok(self)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.tensors.node_count()
    }

    /// Number of positive (difficult-to-observe) labels.
    pub fn positive_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l == 1).count()
    }

    /// Number of negative labels.
    pub fn negative_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l == 0).count()
    }

    /// Labels gathered at the given node indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= node_count()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic API; a mask index past the node count is caller misuse"
    )]
    pub fn labels_at(&self, indices: &[usize]) -> Vec<usize> {
        indices.iter().map(|&i| self.labels[i] as usize).collect()
    }
}

/// Builds a balanced index set: *all* positive nodes plus an equal number
/// of randomly sampled negatives — exactly the paper's balanced-dataset
/// protocol for Table 2 ("using all the positive nodes and sampling the
/// same number of negative nodes randomly", §5).
///
/// Returns indices in shuffled order.
pub fn balanced_indices(labels: &[u8], rng: &mut gcnt_nn::Rng) -> Vec<usize> {
    let positives: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l == 1)
        .map(|(i, _)| i)
        .collect();
    let mut negatives: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l == 0)
        .map(|(i, _)| i)
        .collect();
    negatives.shuffle(rng);
    negatives.truncate(positives.len());
    let mut out = positives;
    out.extend(negatives);
    out.shuffle(rng);
    out
}

/// Leave-one-out rotation over `n` designs: yields `(train_indices,
/// test_index)` pairs — the paper's "each time we use three designs for
/// training and the remaining one for testing" protocol (§5).
pub fn train_test_rotation(n: usize) -> Vec<(Vec<usize>, usize)> {
    (0..n)
        .map(|test| ((0..n).filter(|&i| i != test).collect(), test))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;

    fn data() -> GraphData {
        let net = generate(&GeneratorConfig::sized("d", 21, 400));
        GraphData::from_netlist(&net, None).unwrap()
    }

    #[test]
    fn features_match_node_count() {
        let d = data();
        assert_eq!(d.features.rows(), d.node_count());
        assert_eq!(d.features.cols(), crate::features::RAW_DIM);
    }

    #[test]
    fn with_labels_counts() {
        let d = data();
        let n = d.node_count();
        let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 10 == 0)).collect();
        let d = d.with_labels(labels);
        assert_eq!(d.positive_count() + d.negative_count(), n);
        assert!(d.positive_count() > 0);
    }

    #[test]
    #[should_panic(expected = "one label per node")]
    fn wrong_label_count_panics() {
        data().with_labels(vec![0, 1]);
    }

    #[test]
    fn try_with_labels_reports_typed_error() {
        let d = data();
        let n = d.node_count();
        let err = d.clone().try_with_labels(vec![0, 1]);
        assert!(matches!(
            err,
            Err(gcnt_tensor::TensorError::LengthMismatch { expected, actual })
                if expected == n && actual == 2
        ));
        let ok = d.try_with_labels(vec![0; n]).unwrap();
        assert_eq!(ok.labels.len(), n);
    }

    #[test]
    fn balanced_indices_are_balanced() {
        let labels: Vec<u8> = (0..100).map(|i| u8::from(i < 7)).collect();
        let idx = balanced_indices(&labels, &mut seeded_rng(1));
        assert_eq!(idx.len(), 14);
        let pos = idx.iter().filter(|&&i| labels[i] == 1).count();
        assert_eq!(pos, 7);
        // No duplicates.
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 14);
    }

    #[test]
    fn balanced_indices_deterministic_per_seed() {
        let labels: Vec<u8> = (0..50).map(|i| u8::from(i % 9 == 0)).collect();
        let a = balanced_indices(&labels, &mut seeded_rng(3));
        let b = balanced_indices(&labels, &mut seeded_rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn rotation_covers_all_designs() {
        let rot = train_test_rotation(4);
        assert_eq!(rot.len(), 4);
        for (train, test) in &rot {
            assert_eq!(train.len(), 3);
            assert!(!train.contains(test));
        }
        let tests: Vec<usize> = rot.iter().map(|(_, t)| *t).collect();
        assert_eq!(tests, vec![0, 1, 2, 3]);
    }

    #[test]
    fn labels_at_gathers() {
        let d = data();
        let n = d.node_count();
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let d = d.with_labels(labels);
        assert_eq!(d.labels_at(&[0, 1, 2]), vec![0, 1, 0]);
    }
}
