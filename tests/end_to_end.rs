//! Cross-crate integration tests: netlist -> DFT labeling -> GCN training
//! -> iterative OP insertion -> ATPG grading, exercised through the public
//! facade exactly as a downstream user would.

use gcn_testability::dft::atpg::{run_random_atpg, run_random_atpg_on, AtpgConfig};
use gcn_testability::dft::fault::collapsed_faults;
use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::dft::labeler::{label_difficult_to_observe, LabelConfig};
use gcn_testability::gcn::train::{evaluate, train, TrainConfig};
use gcn_testability::gcn::{balanced_indices, Gcn, GcnConfig, GraphData};
use gcn_testability::netlist::{generate, GeneratorConfig, Scoap};
use gcn_testability::nn::seeded_rng;

fn small_cfg() -> GcnConfig {
    GcnConfig {
        embed_dims: vec![8, 16],
        fc_dims: vec![8],
        ..GcnConfig::default()
    }
}

/// Train on one design, apply to an unseen design (the inductive claim of
/// §2.1): accuracy on the unseen design's balanced set must clearly beat
/// chance.
#[test]
fn inductive_generalization_to_unseen_design() {
    let label_cfg = LabelConfig {
        patterns: 2_048,
        threshold: 0.002,
        seed: 3,
    };
    let train_net = generate(&GeneratorConfig::sized("train", 201, 2_500));
    let train_labels = label_difficult_to_observe(&train_net, &label_cfg).unwrap();
    let train_data = GraphData::from_netlist(&train_net, None)
        .unwrap()
        .with_labels(train_labels.labels);

    let test_net = generate(&GeneratorConfig::sized("test", 202, 2_500));
    let test_labels = label_difficult_to_observe(&test_net, &label_cfg).unwrap();
    // Normalised with the *training* statistics — inductive application.
    let test_data = GraphData::from_netlist(&test_net, Some(&train_data.normalizer))
        .unwrap()
        .with_labels(test_labels.labels);

    let mut rng = seeded_rng(1);
    let train_mask = balanced_indices(&train_data.labels, &mut rng);
    let test_mask = balanced_indices(&test_data.labels, &mut rng);
    assert!(train_mask.len() >= 20, "not enough positives to train on");
    assert!(test_mask.len() >= 20, "not enough positives to test on");

    let mut gcn = Gcn::new(&small_cfg(), &mut rng);
    train(
        &mut gcn,
        &[&train_data],
        &[train_mask],
        &TrainConfig {
            epochs: 80,
            lr: 0.1,
            pos_weight: 1.0,
            momentum: 0.0,
        },
    )
    .unwrap();
    let acc = evaluate(&gcn, &test_data, &test_mask).unwrap().accuracy();
    assert!(acc > 0.75, "unseen-design balanced accuracy {acc}");
}

/// The full §4 loop with a *trained* model (not an oracle): the flow must
/// converge and the modified design must reach higher ATPG coverage than
/// the original.
#[test]
fn trained_flow_improves_coverage() {
    let label_cfg = LabelConfig {
        patterns: 2_048,
        threshold: 0.002,
        seed: 5,
    };
    let train_net = generate(&GeneratorConfig::sized("train", 211, 2_000));
    let labels = label_difficult_to_observe(&train_net, &label_cfg).unwrap();
    let train_data = GraphData::from_netlist(&train_net, None)
        .unwrap()
        .with_labels(labels.labels);
    let mut rng = seeded_rng(2);
    let mask = balanced_indices(&train_data.labels, &mut rng);
    let mut gcn = Gcn::new(&small_cfg(), &mut rng);
    train(
        &mut gcn,
        &[&train_data],
        &[mask],
        &TrainConfig {
            epochs: 80,
            lr: 0.1,
            pos_weight: 1.0,
            momentum: 0.0,
        },
    )
    .unwrap();

    let original = generate(&GeneratorConfig::sized("victim", 212, 2_000));
    let mut modified = original.clone();
    let outcome = run_gcn_opi(
        &mut modified,
        &train_data.normalizer,
        &gcn,
        &FlowConfig {
            max_iterations: 10,
            ..FlowConfig::default()
        },
    )
    .unwrap();
    assert!(!outcome.inserted.is_empty(), "flow inserted nothing");

    let atpg_cfg = AtpgConfig {
        max_patterns: 4_096,
        ..Default::default()
    };
    let faults = collapsed_faults(&original);
    let before = run_random_atpg_on(&original, &faults, &atpg_cfg);
    let after = run_random_atpg_on(&modified, &faults, &atpg_cfg);
    assert!(
        after.coverage() >= before.coverage(),
        "coverage {} -> {}",
        before.coverage(),
        after.coverage()
    );
}

/// Incremental graph maintenance across the whole pipeline: inserting OPs
/// through the flow keeps netlist, tensors and SCOAP mutually consistent
/// with a from-scratch rebuild.
#[test]
fn flow_state_matches_rebuild() {
    let mut net = generate(&GeneratorConfig::sized("consistency", 221, 1_200));
    let raw = gcn_testability::gcn::features::raw_features_of(&net).unwrap();
    let normalizer = gcn_testability::gcn::features::FeatureNormalizer::fit(&[&raw]);
    let oracle = |_t: &gcn_testability::gcn::GraphTensors, f: &gcn_testability::tensor::Matrix| {
        Ok((0..f.rows())
            .map(|r| if f.get(r, 3) > 2.0 { 0.9f32 } else { 0.1 })
            .collect::<Vec<f32>>())
    };
    let outcome = run_gcn_opi(&mut net, &normalizer, oracle, &FlowConfig::default()).unwrap();
    // Tensors rebuilt from the mutated netlist must match what incremental
    // maintenance produced: check node/edge counts via a fresh build.
    let fresh = gcn_testability::gcn::GraphTensors::from_netlist(&net);
    assert_eq!(fresh.node_count(), net.node_count());
    // Every inserted OP is observable at zero cost in a fresh SCOAP.
    let scoap = Scoap::compute(&net).unwrap();
    for &v in &outcome.inserted {
        assert_eq!(scoap.co(v), 0);
    }
}

/// ATPG sanity at the facade level: random ATPG on a generated design
/// reports plausible coverage and pattern counts, deterministically.
#[test]
fn atpg_deterministic_and_plausible() {
    let net = generate(&GeneratorConfig::sized("atpg", 231, 1_500));
    let cfg = AtpgConfig::default();
    let a = run_random_atpg(&net, &cfg).unwrap();
    let b = run_random_atpg(&net, &cfg).unwrap();
    assert_eq!(a, b);
    assert!(a.coverage() > 0.7, "coverage {}", a.coverage());
    assert!(a.patterns_kept > 0);
    assert!(a.patterns_kept <= a.patterns_applied);
}

/// Text-format round trip composed with the model pipeline: a design
/// written to text, re-read and re-featurised produces an identical node
/// count and SCOAP profile, so models transfer across serialisation.
#[test]
fn format_round_trip_preserves_pipeline_inputs() {
    let net = generate(&GeneratorConfig::sized("fmt", 241, 800));
    let text = gcn_testability::netlist::format::write(&net);
    let back = gcn_testability::netlist::format::read(&text).unwrap();
    assert_eq!(back.node_count(), net.node_count());
    assert_eq!(back.edge_count(), net.edge_count());
    let d1 = GraphData::from_netlist(&net, None).unwrap();
    let d2 = GraphData::from_netlist(&back, None).unwrap();
    // Same multiset of feature rows (node numbering may differ).
    let mut s1: Vec<String> = (0..d1.features.rows())
        .map(|r| format!("{:?}", d1.raw_features.row(r)))
        .collect();
    let mut s2: Vec<String> = (0..d2.features.rows())
        .map(|r| format!("{:?}", d2.raw_features.row(r)))
        .collect();
    s1.sort();
    s2.sort();
    assert_eq!(s1, s2);
}
