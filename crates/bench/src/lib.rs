//! The experiments that regenerate every table and figure of the paper's
//! evaluation (§5), plus [`mlbase`], the classical baselines only Table 2
//! runs.
//!
//! Each experiment in [`experiments`] takes typed parameters, prints its
//! table as it goes and returns its serialisable rows; `gcnt table1`,
//! `gcnt fig8` and the rest parse the options and write the rows to
//! `results/<name>.json`. The defaults are sized so the whole suite
//! completes in minutes on a single core; the paper's 1.4M-node scale is
//! reachable by passing `--nodes 1400000`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod mlbase;

use gcnt_core::features::FeatureNormalizer;
use gcnt_core::{balanced_indices, GraphData, MultiStageConfig, MultiStageGcn};
use gcnt_dft::labeler::{label_difficult_to_observe, LabelConfig, LabelResult};
use gcnt_netlist::{generate, DesignPreset, Netlist};
use gcnt_nn::seeded_rng;

/// What an experiment returns: its rows, or the first error that stopped
/// it.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One prepared benchmark design: netlist + labels + model-ready data.
struct PreparedDesign {
    /// The generated netlist.
    netlist: Netlist,
    /// Labeling result (labels + estimated observabilities).
    label_result: LabelResult,
    /// Model-ready tensors/features with labels attached.
    data: GraphData,
}

/// Generates and labels the four Table 1 designs at the given node scale,
/// fitting one shared feature normaliser across all of them (they are the
/// *training universe*; an experiment that trains on some of them refits
/// on the training subset through [`balanced_split`] or
/// [`train_cascades`], for strict inductiveness).
///
/// # Errors
///
/// Returns the labeler's or the featurizer's error.
fn prepare_designs(nodes: usize, label_cfg: &LabelConfig) -> Result<Vec<PreparedDesign>> {
    let mut designs = Vec::new();
    for preset in DesignPreset::ALL {
        let net = generate(&preset.config(nodes));
        let labels = label_difficult_to_observe(&net, label_cfg)?;
        let data = GraphData::from_netlist(&net, None)?.with_labels(labels.labels.clone());
        designs.push(PreparedDesign {
            netlist: net,
            label_result: labels,
            data,
        });
    }
    Ok(designs)
}

/// Refits a shared normaliser on the listed (training) designs and
/// re-applies it to every design, so test designs are normalised with
/// training statistics only.
fn refit_normalizer(designs: &mut [PreparedDesign], train_idx: &[usize]) {
    let raws: Vec<&gcnt_tensor::Matrix> = train_idx
        .iter()
        .map(|&i| &designs[i].data.raw_features)
        .collect();
    let normalizer = FeatureNormalizer::fit(&raws);
    for d in designs.iter_mut() {
        d.data.features = normalizer.apply(&d.data.raw_features);
        d.data.normalizer = normalizer.clone();
    }
}

/// The balanced protocol of Table 2, Fig. 8 and the ablation: refits the
/// normaliser on the `train` designs, then draws one balanced node mask
/// (all positives, as many sampled negatives) per training design and one
/// for the `test` design, in that order, from one generator seeded with
/// `seed`.
fn balanced_split(
    designs: &mut [PreparedDesign],
    train: &[usize],
    test: usize,
    seed: u64,
) -> (Vec<Vec<usize>>, Vec<usize>) {
    refit_normalizer(designs, train);
    let mut rng = seeded_rng(seed);
    let train_masks = train
        .iter()
        .map(|&i| balanced_indices(&designs[i].data.labels, &mut rng))
        .collect();
    let test_mask = balanced_indices(&designs[test].data.labels, &mut rng);
    (train_masks, test_mask)
}

/// The cascade protocol of Fig. 9 and Table 3: refits the normaliser on
/// the `train` designs and trains one cascade per config on them, in
/// order.
///
/// # Errors
///
/// Returns a shape error from training.
fn train_cascades(
    designs: &mut [PreparedDesign],
    train: &[usize],
    cfgs: &[MultiStageConfig],
) -> Result<Vec<MultiStageGcn>> {
    refit_normalizer(designs, train);
    let refs: Vec<&GraphData> = train.iter().map(|&i| &designs[i].data).collect();
    cfgs.iter()
        .map(|cfg| Ok(MultiStageGcn::train(cfg, &refs)?.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_designs() {
        let label_cfg = LabelConfig {
            patterns: 512,
            threshold: 0.005,
            seed: 1,
        };
        let designs = prepare_designs(600, &label_cfg).expect("generated designs label");
        assert_eq!(designs.len(), 4);
        for d in &designs {
            assert_eq!(d.data.node_count(), d.netlist.node_count());
            assert_eq!(d.data.labels.len(), d.netlist.node_count());
        }
    }

    #[test]
    fn refit_uses_training_stats_only() {
        let label_cfg = LabelConfig {
            patterns: 256,
            threshold: 0.005,
            seed: 2,
        };
        let mut designs = prepare_designs(500, &label_cfg).expect("generated designs label");
        refit_normalizer(&mut designs, &[0, 1, 2]);
        let shared = designs[0].data.normalizer.clone();
        for d in &designs {
            assert_eq!(d.data.normalizer, shared);
        }
    }
}
