//! The flow's output contract, pinned from outside the crate.
//!
//! `run_gcn_opi`'s internals are free to change; what a caller, a journal
//! and the benchmark's goldens see is not. The literals below hold the
//! [`FlowOutcome`] — inference accounting included — every journaled
//! [`BatchRecord`] and the final netlist, for each of the three classifier
//! kinds on one fixed design. A refactor that reorders an inference, drops
//! a refresh or double-counts the session's opening pass changes
//! `inferences` / `rows_computed` / `rows_full` here first, at 400 nodes,
//! instead of in `flow_b1_20k`'s output checks at 20k.
//!
//! Everything but the two session runs' `rows_computed` was recorded
//! before `FlowClassifier` shrank to `open`. Those fields moved once, on
//! purpose, when an impact preview began computing only the rows its cone
//! count reads (`CascadeSession::probs_after`) instead of refreshing and
//! reverting the whole halo. Their values come from an independent count
//! run inside the older refresh-and-revert flow: per preview, each cone row
//! still alive to a stage and inside its `D`-hop dirty halo is walked back
//! one `halo_step` at a time through the rows of each lower halo, and the
//! walks' union is counted per layer. The other bytes did not move.
//!
//! The cascade run's `rows_computed` moved once more when sessions began
//! caching a later stage only where its head reads (2626 → 2624 over the
//! run). Those values were checked by replaying every session call of the
//! run — open, refresh, preview, insertion — against `Held` in
//! `tests/cascade_properties.rs`, a count written from the halo definition
//! that matched each call. The single-stage runs did not move.

use gcn_testability::dft::flow::{
    run_gcn_opi, run_gcn_opi_resumable, BatchRecord, FlowClassifier, FlowConfig, FlowOutcome,
};
use gcn_testability::gcn::features::FeatureNormalizer;
use gcn_testability::gcn::{Gcn, GcnConfig, GraphData, GraphTensors, MultiStageGcn};
use gcn_testability::netlist::{
    format, generate, CellKind, GeneratorConfig, Netlist, NetlistBuilder,
};
use gcn_testability::nn::seeded_rng;
use gcn_testability::store::checksum_hex;
use gcn_testability::tensor::{Budget, Matrix};

const GCN_RUN: &str = r#"[{"inserted":[186,14,11,8,247,143,28,33,173],"converged":false,"remaining_positives":176,"history":[{"iteration":0,"positives":185,"inserted":3},{"iteration":1,"positives":182,"inserted":3},{"iteration":2,"positives":179,"inserted":3}],"skipped":[],"inference":{"rows_computed":2072,"rows_full":16504,"inferences":19}},[{"iteration":0,"positives":185,"inserted":[186,14,11],"skipped":[],"converged":false,"stats_after":{"rows_computed":1115,"rows_full":5172,"inferences":6}},{"iteration":1,"positives":182,"inserted":[8,247,143],"skipped":[],"converged":false,"stats_after":{"rows_computed":1613,"rows_full":10380,"inferences":12}},{"iteration":2,"positives":179,"inserted":[28,33,173],"skipped":[],"converged":false,"stats_after":{"rows_computed":1964,"rows_full":15624,"inferences":18}}]]"#;
const GCN_NET: &str = "f061f776e7e4891a";

const CASCADE_RUN: &str = r#"[{"inserted":[188,148,170,179,63,101,46,100,113],"converged":false,"remaining_positives":30,"history":[{"iteration":0,"positives":36,"inserted":3},{"iteration":1,"positives":35,"inserted":3},{"iteration":2,"positives":31,"inserted":3}],"skipped":[],"inference":{"rows_computed":2624,"rows_full":33008,"inferences":19}},[{"iteration":0,"positives":36,"inserted":[188,148,170],"skipped":[],"converged":false,"stats_after":{"rows_computed":1853,"rows_full":10344,"inferences":6}},{"iteration":1,"positives":35,"inserted":[179,63,101],"skipped":[],"converged":false,"stats_after":{"rows_computed":2171,"rows_full":20760,"inferences":12}},{"iteration":2,"positives":31,"inserted":[46,100,113],"skipped":[],"converged":false,"stats_after":{"rows_computed":2415,"rows_full":31248,"inferences":18}}]]"#;
const CASCADE_NET: &str = "fb5a3badc5c15726";

/// A closure gets the full path: the same insertions as the session run
/// on the same model (`GCN_NET`), every pass charged as a whole.
const CLOSURE_RUN: &str = r#"[{"inserted":[186,14,11,8,247,143,28,33,173],"converged":false,"remaining_positives":176,"history":[{"iteration":0,"positives":185,"inserted":3},{"iteration":1,"positives":182,"inserted":3},{"iteration":2,"positives":179,"inserted":3}],"skipped":[],"inference":{"rows_computed":8252,"rows_full":8252,"inferences":19}},[{"iteration":0,"positives":185,"inserted":[186,14,11],"skipped":[],"converged":false,"stats_after":{"rows_computed":2586,"rows_full":2586,"inferences":6}},{"iteration":1,"positives":182,"inserted":[8,247,143],"skipped":[],"converged":false,"stats_after":{"rows_computed":5190,"rows_full":5190,"inferences":12}},{"iteration":2,"positives":179,"inserted":[28,33,173],"skipped":[],"converged":false,"stats_after":{"rows_computed":7812,"rows_full":7812,"inferences":18}}]]"#;

fn design() -> Netlist {
    let mut cfg = GeneratorConfig::sized("contract", 18, 400);
    cfg.shadow_regions = 2;
    generate(&cfg)
}

fn cascade() -> MultiStageGcn {
    let cfg = GcnConfig {
        embed_dims: vec![8, 8],
        fc_dims: vec![8],
        ..GcnConfig::default()
    };
    let stages = vec![
        Gcn::new(&cfg, &mut seeded_rng(41)),
        Gcn::new(&cfg, &mut seeded_rng(42)),
    ];
    MultiStageGcn::from_stages(stages, 0.5)
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        max_iterations: 3,
        ops_per_iteration: 3,
        candidate_limit: 5,
        prob_threshold: 0.45,
        ..FlowConfig::default()
    }
}

fn run<F: FlowClassifier>(
    net: &Netlist,
    normalizer: &FeatureNormalizer,
    classify: F,
    resume: &[BatchRecord],
) -> (FlowOutcome, Vec<BatchRecord>, Netlist) {
    let mut net = net.clone();
    let mut records = Vec::new();
    let outcome = run_gcn_opi_resumable(
        &mut net,
        normalizer,
        classify,
        &flow_config(),
        &Budget::unlimited(),
        resume,
        &mut |r| {
            records.push(r.clone());
            Ok(())
        },
    )
    .unwrap();
    (outcome, records, net)
}

/// Fresh run ≡ the recorded literals; resumed from every journal prefix ≡
/// the fresh run, and the continuation re-journals exactly the tail.
fn check<F: FlowClassifier + Copy>(kind: &str, classify: F, golden_run: &str, golden_net: &str) {
    let net = design();
    let data = GraphData::from_netlist(&net, None).unwrap();
    let (outcome, records, flowed) = run(&net, &data.normalizer, classify, &[]);
    assert_eq!(
        serde_json::to_string(&(&outcome, &records)).unwrap(),
        golden_run,
        "{kind}: outcome or journaled records moved"
    );
    assert_eq!(
        checksum_hex(format::write(&flowed).as_bytes()),
        golden_net,
        "{kind}: final netlist moved"
    );
    for cut in 0..=records.len() {
        let (resumed, tail, resumed_net) = run(&net, &data.normalizer, classify, &records[..cut]);
        assert_eq!(resumed, outcome, "{kind}: resumed from {cut} record(s)");
        assert_eq!(tail, records[cut..], "{kind}: tail after {cut} record(s)");
        assert_eq!(resumed_net, flowed, "{kind}: design after {cut} record(s)");
    }
}

#[test]
fn every_classifier_kind_reproduces_the_recorded_run() {
    let model = cascade();
    let gcn = &model.stages()[0];
    check("&Gcn", gcn, GCN_RUN, GCN_NET);
    check("&MultiStageGcn", &model, CASCADE_RUN, CASCADE_NET);
    let full_pass = |t: &GraphTensors, x: &Matrix| gcn.predict_proba(t, x);
    check("closure", full_pass, CLOSURE_RUN, GCN_NET);
}

/// ROADMAP item 8's smallest designs through the model-driven flow: each
/// must come back `Ok` with the design intact, not trip an index or an
/// empty-matrix edge inside the session.
#[test]
fn degenerate_designs_flow_with_a_model_classifier() {
    let empty = NetlistBuilder::new("empty");
    let mut one_input = NetlistBuilder::new("one-input");
    one_input.add_cell(CellKind::Input);
    let mut wire = NetlistBuilder::new("input-to-output");
    let a = wire.add_cell(CellKind::Input);
    let o = wire.add_cell(CellKind::Output);
    wire.connect(a, o).unwrap();
    let mut chain = NetlistBuilder::new("buffer-chain");
    let mut prev = chain.add_cell(CellKind::Input);
    for _ in 0..50 {
        let buf = chain.add_cell(CellKind::Buf);
        chain.connect(prev, buf).unwrap();
        prev = buf;
    }
    let out = chain.add_cell(CellKind::Output);
    chain.connect(prev, out).unwrap();

    let model = cascade();
    let normalizer = GraphData::from_netlist(&design(), None).unwrap().normalizer;
    for net in [empty, one_input, wire, chain].map(|b| b.build().unwrap()) {
        flows_intact(&net, &normalizer, &model.stages()[0]);
        flows_intact(&net, &normalizer, &model);
    }
}

fn flows_intact<F: FlowClassifier>(net: &Netlist, normalizer: &FeatureNormalizer, classify: F) {
    let mut flowed = net.clone();
    let outcome = run_gcn_opi(&mut flowed, normalizer, classify, &flow_config())
        .unwrap_or_else(|e| panic!("design `{}`: {e}", net.name()));
    assert_eq!(
        flowed.node_count(),
        net.node_count() + outcome.inserted.len(),
        "design `{}`",
        net.name()
    );
    // The flowed design survives its persisted form, which re-validates.
    assert_eq!(
        format::read(&format::write(&flowed)).unwrap().node_count(),
        flowed.node_count()
    );
}
