//! Acceptance check for the observability layer: running the GCN-guided
//! OP-insertion flow with metrics enabled must produce nonzero SpMM-row,
//! cache-reuse, and insertion counters whose values are consistent with the
//! flow's own `FlowOutcome::inference` accounting. The reference design is
//! the seeded 9-level/400-node netlist of EXPERIMENTS.md's reuse-factor
//! paragraph (the benchmark's `flow_b1_20k` is the same flow at 20k
//! nodes). Training metrics are checked the same way: every training path
//! must record its epochs.

use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::gcn::{Gcn, GcnConfig, GraphData, MultiStageConfig, MultiStageGcn};
use gcn_testability::netlist::{generate, GeneratorConfig, Scoap};
use gcn_testability::nn::seeded_rng;
use gcn_testability::obs::catalog::counters;

/// Counter deltas rather than absolutes: the global registry is process-wide
/// and other tests in this binary could in principle record into it.
fn counter_deltas<const N: usize>(
    ids: [gcn_testability::obs::CounterId; N],
    run: impl FnOnce(),
) -> [u64; N] {
    let registry = gcn_testability::obs::global();
    let before = ids.map(|id| registry.counter(id));
    run();
    let after = ids.map(|id| registry.counter(id));
    let mut delta = [0u64; N];
    for i in 0..N {
        delta[i] = after[i] - before[i];
    }
    delta
}

#[test]
fn flow_metrics_match_inference_accounting() {
    let net = generate(&GeneratorConfig::sized("x", 9, 400));
    let data = GraphData::from_netlist(&net, None).expect("acyclic");
    let gcn = Gcn::new(
        &GcnConfig {
            embed_dims: vec![32, 32],
            fc_dims: vec![32],
            ..GcnConfig::default()
        },
        &mut seeded_rng(9),
    );
    let cfg = FlowConfig {
        max_iterations: 2,
        ops_per_iteration: 4,
        ..FlowConfig::default()
    };

    gcn_testability::obs::global().enable();
    let mut outcome = None;
    let [spmm_rows, rows_computed, rows_full, inferences, ops_inserted, rows_reused] =
        counter_deltas(
            [
                counters::TENSOR_SPMM_ROWS,
                counters::DFT_FLOW_ROWS_COMPUTED,
                counters::DFT_FLOW_ROWS_FULL,
                counters::DFT_FLOW_INFERENCES,
                counters::DFT_FLOW_OPS_INSERTED,
                counters::CORE_INCR_ROWS_REUSED,
            ],
            || {
                outcome = Some(
                    run_gcn_opi(&mut net.clone(), &data.normalizer, &gcn, &cfg).expect("flow runs"),
                );
            },
        );
    let outcome = outcome.unwrap();

    // The counters are recorded at the same funnel that fills
    // `FlowOutcome::inference`, so on a fresh run they must agree exactly.
    assert_eq!(rows_computed, outcome.inference.rows_computed);
    assert_eq!(rows_full, outcome.inference.rows_full);
    assert_eq!(inferences, outcome.inference.inferences);
    assert_eq!(ops_inserted, outcome.inserted.len() as u64);

    // Nonzero work actually flowed through each layer.
    assert!(spmm_rows > 0, "GCN inference must drive SpMM rows");
    assert!(ops_inserted > 0, "the flow must insert observation points");
    assert!(
        rows_reused > 0,
        "incremental impact mode must reuse cached embedding rows"
    );
    // Reuse is the whole point of incremental mode: strictly fewer rows
    // computed than a full-pass flow would have needed.
    assert!(
        rows_computed < rows_full,
        "incremental mode must compute fewer rows than full equivalents \
         ({rows_computed} vs {rows_full})"
    );
}

#[test]
fn every_training_path_records_its_epochs() {
    let net = generate(&GeneratorConfig::sized("epochs", 5, 150));
    let scoap = Scoap::compute(&net).expect("acyclic");
    let labels = net.nodes().map(|v| u8::from(scoap.co(v) > 6)).collect();
    let data = GraphData::from_netlist(&net, None)
        .expect("acyclic")
        .with_labels(labels);
    let cfg = MultiStageConfig {
        stages: 2,
        gcn: GcnConfig {
            embed_dims: vec![4],
            fc_dims: vec![4],
            ..GcnConfig::default()
        },
        epochs_per_stage: 3,
        ..MultiStageConfig::default()
    };
    let expected = (cfg.stages * cfg.epochs_per_stage) as u64;

    gcn_testability::obs::global().enable();
    let [plain] = counter_deltas([counters::CORE_TRAIN_EPOCHS], || {
        MultiStageGcn::train(&cfg, &[&data]).expect("trains");
    });
    assert_eq!(plain, expected, "MultiStageGcn::train");
    let [guarded] = counter_deltas([counters::CORE_TRAIN_EPOCHS], || {
        gcn_testability::runtime::MultiStageTrainer::new(cfg.clone())
            .run(&[&data])
            .expect("trains");
    });
    assert_eq!(guarded, expected, "MultiStageTrainer::run");
    let loss = gcn_testability::obs::global()
        .gauge(gcn_testability::obs::catalog::gauges::CORE_TRAIN_LOSS);
    assert!(
        loss.is_finite() && loss > 0.0,
        "last epoch's loss, got {loss}"
    );
}
