//! The trained bits, pinned.
//!
//! Every other tier-1 check of the model either uses seeded, untrained
//! weights or compares the code with itself, so a kernel rewrite that
//! moved one rounding in the backward pass would pass them all. This test
//! trains the paper-shape model for two momentum epochs on two generated
//! designs — two worker threads, and large enough (> 256 rows) that each
//! graph's step sweeps more than one row tile, the last one ragged — and
//! checks the FNV-1a of the model JSON against a literal recorded before
//! the backward products were rewritten and training moved onto tiles.

use gcn_testability::dft::labeler::label_by_scoap;
use gcn_testability::gcn::train::{train, TrainConfig};
use gcn_testability::gcn::{Gcn, GcnConfig, GraphData};
use gcn_testability::netlist::{generate, GeneratorConfig, Scoap};
use gcn_testability::nn::seeded_rng;
use gcn_testability::store::checksum_hex;

/// `checksum_hex` of the trained model's JSON.
const TRAINED_MODEL_FNV: &str = "10786f508ff60002";

fn labelled(name: &str, seed: u64, nodes: usize) -> GraphData {
    let net = generate(&GeneratorConfig::sized(name, seed, nodes));
    let scoap = Scoap::compute(&net).unwrap();
    let labels = label_by_scoap(&net, &scoap, 0.1);
    GraphData::from_netlist(&net, None)
        .unwrap()
        .with_labels(labels)
}

#[test]
fn two_momentum_epochs_reproduce_the_recorded_model() {
    let graphs = [labelled("golden-a", 61, 400), labelled("golden-b", 62, 330)];
    assert!(graphs.iter().all(|g| g.labels.len() > 300));
    let masks: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| (0..g.labels.len()).collect())
        .collect();
    let mut gcn = Gcn::new(&GcnConfig::default(), &mut seeded_rng(7));
    let history = train(
        &mut gcn,
        &[&graphs[0], &graphs[1]],
        &masks,
        &TrainConfig {
            epochs: 2,
            lr: 0.05,
            momentum: 0.9,
            pos_weight: 4.0,
        },
    )
    .unwrap();
    assert_eq!(history.len(), 2);
    assert!(history.iter().all(|e| e.loss.is_finite()));
    let json = serde_json::to_string(&gcn).unwrap();
    assert_eq!(checksum_hex(json.as_bytes()), TRAINED_MODEL_FNV);
}
