//! The API surface the stand-alone `benchmark/` package is built against.
//!
//! The root workspace does not build `benchmark/`, so renaming anything it
//! calls would pass `cargo test -q` and only fail when the benchmark is
//! built. This file calls every pinned signature once, on a 200-node design
//! with a tiny two-stage cascade, so such a rename fails tier-1 first — and
//! asserts, where a function has a default form and an explicit
//! `(budget, backend)` form, that the two agree bit for bit.

use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::gcn::features::squash;
use gcn_testability::gcn::train::{apply_update, masked_loss_grads, optimizer_for, train};
use gcn_testability::gcn::{
    recursive, train_parallel, CascadeSession, EmbeddingCache, Gcn, GcnConfig, GcnGrads, GraphData,
    GraphTensors, MatrixBackend, MultiStageConfig, MultiStageGcn, PartitionedGraph, StageReport,
    TrainConfig,
};
use gcn_testability::lint::{lint_design, lint_graph_tensors, LintReport};
use gcn_testability::netlist::{generate, GeneratorConfig, Netlist, Scoap};
use gcn_testability::nn::{seeded_rng, ModelOptimizer};
use gcn_testability::serve::{
    classify_with_ladder_backed, LadderResult, Rung, ServeConfig, ServeCore,
};
use gcn_testability::store::{checksum_hex, fnv1a64};
use gcn_testability::tensor::{Budget, Matrix};

fn design() -> Netlist {
    generate(&GeneratorConfig::sized("surface", 13, 200))
}

fn cascade() -> MultiStageGcn {
    let cfg = GcnConfig {
        embed_dims: vec![8, 16],
        fc_dims: vec![8],
        ..GcnConfig::default()
    };
    let stages = vec![
        Gcn::new(&cfg, &mut seeded_rng(31)),
        Gcn::new(&cfg, &mut seeded_rng(32)),
    ];
    MultiStageGcn::from_stages(stages, 0.5)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gcnt-api-surface-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gcn_default_and_explicit_forms_agree() {
    let data = GraphData::from_netlist(&design(), None).unwrap();
    let (t, x) = (&data.tensors, &data.features);
    let model = cascade();
    let gcn = &model.stages()[0];

    let embedded = gcn.embed(t, x).unwrap();
    for mut backend in [
        MatrixBackend::serial(),
        MatrixBackend::auto(t),
        MatrixBackend::partitioned(t, 3).unwrap(),
    ] {
        let explicit = gcn
            .embed_budgeted_with(t, x, &Budget::unlimited(), &mut backend)
            .unwrap();
        assert_eq!(embedded, explicit, "backend {}", backend.label());
    }
    assert_eq!(
        gcn.embed_cached(t, x).unwrap().final_embedding(),
        &embedded,
        "the cached pass keeps the layers the lean pass drops"
    );

    // Training entry points: forward's logits are the inference logits,
    // and backward accepts forward's cache.
    let (logits, cache) = gcn.forward(t, x).unwrap();
    assert_eq!(logits, gcn.head().predict(&embedded).unwrap());
    assert_eq!(logits, gcn.predict(t, x).unwrap());
    let dlogits = Matrix::from_fn(logits.rows(), logits.cols(), |r, c| {
        if c == r % 2 {
            0.25
        } else {
            -0.25
        }
    });
    let grads = gcn.backward(t, &cache, &dlogits).unwrap();
    assert!(grads.is_finite());
    assert_eq!(grads.encoders.len(), gcn.depth());
}

#[test]
fn backend_aggregate_matches_graph_tensors() {
    let data = GraphData::from_netlist(&design(), None).unwrap();
    let (t, x) = (&data.tensors, &data.features);
    let model = cascade();
    let gcn = &model.stages()[0];
    let (w_pr, w_su) = (gcn.w_pr(), gcn.w_su());

    let reference = t.aggregate_g(x, w_pr, w_su).unwrap();
    for mut backend in [MatrixBackend::serial(), MatrixBackend::auto(t)] {
        assert_eq!(backend.aggregate(t, x, w_pr, w_su).unwrap(), reference);
    }
    let sharded = PartitionedGraph::new(t, 3).unwrap();
    assert_eq!(sharded.pred().spmm(x).unwrap(), t.pred().spmm(x).unwrap());
}

#[test]
fn cascade_default_explicit_and_session_forms_agree() {
    let mut net = design();
    let data = GraphData::from_netlist(&net, None).unwrap();
    let model = cascade();
    assert_eq!(model.filter_threshold(), 0.5);
    let (mut t, mut x) = (data.tensors, data.features);

    let probs = model.predict_proba(&t, &x).unwrap();
    for mut backend in [MatrixBackend::serial(), MatrixBackend::auto(&t)] {
        let explicit = model
            .predict_proba_budgeted_with(&t, &x, &Budget::unlimited(), &mut backend)
            .unwrap();
        assert_eq!(probs, explicit, "backend {}", backend.label());
    }
    let mut session: CascadeSession<'_> = model.open_session(&t, &x).unwrap();
    assert_eq!(session.probs(), probs.as_slice());

    // One committed insertion, maintained the way the flow maintains it:
    // tensors appended, SCOAP cone refreshed, session synced then
    // refreshed over the dirty rows.
    let mut scoap = Scoap::compute(&net).unwrap();
    let target = net
        .nodes()
        .find(|&v| scoap.co(v) > 0 && net.fanin_cone(v, 8).len() >= 3)
        .expect("design has an unobserved internal node");
    let op = net.insert_observation_point(target).unwrap();
    t.insert_observation_point(target, op).unwrap();
    let mut dirty = vec![target.index(), op.index()];
    for v in scoap.observe(&net, target, op) {
        let cell = data.normalizer.normalize_cell(3, squash(scoap.co(v)));
        x.set(v.index(), 3, cell);
        dirty.push(v.index());
    }
    x.push_row(&data.normalizer.observation_point_row())
        .unwrap();
    session.sync_nodes(&t);
    session.refresh(&t, &x, &dirty).unwrap();
    assert_eq!(
        session.probs(),
        model.predict_proba(&t, &x).unwrap().as_slice(),
        "a refreshed session serves the full pass's bits"
    );

    // The structure readers, on tensors that have absorbed the insertion:
    // only `target` reads the new node, the shards see the appended rows,
    // and the recursion oracle walks them to the matrix form's answer.
    assert_eq!(t.halo_step(&[op.index()]), vec![target.index(), op.index()]);
    let sharded = PartitionedGraph::new(&t, 3).unwrap();
    assert_eq!(sharded.generation(), t.generation());
    assert_eq!(sharded.succ().spmm(&x).unwrap(), t.succ().spmm(&x).unwrap());
    let gcn = &model.stages()[0];
    let nodes = [target.index(), op.index()];
    let oracle = recursive::predict_nodes(gcn, &t, &x, &nodes).unwrap();
    let logits = gcn.predict(&t, &x).unwrap();
    for (i, &node) in nodes.iter().enumerate() {
        for c in 0..logits.cols() {
            let (a, b) = (logits.get(node, c), oracle.get(i, c));
            assert!(
                (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                "node {node}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn flow_and_ladder_entry_points() {
    let net = design();
    let data = GraphData::from_netlist(&net, None).unwrap();
    let model = cascade();
    let cfg = FlowConfig {
        max_iterations: 2,
        ops_per_iteration: 2,
        prob_threshold: 0.5,
        ..Default::default()
    };
    let cfg_json = serde_json::to_string(&FlowConfig::default()).unwrap();
    assert!(
        !cfg_json.contains("backend")
            && !cfg_json.contains("kernel")
            && !cfg_json.contains("impact"),
        "FlowConfig carries no execution options: {cfg_json}"
    );

    let mut flowed = net.clone();
    let outcome = run_gcn_opi(&mut flowed, &data.normalizer, &model, &cfg).unwrap();
    assert_eq!(
        flowed.node_count(),
        net.node_count() + outcome.inserted.len()
    );
    // The other two classifier kinds: a single GCN (session path) and a
    // bare closure over the same model (full passes) pick the same OPs.
    let gcn = &model.stages()[0];
    let by_session = run_gcn_opi(&mut net.clone(), &data.normalizer, gcn, &cfg).unwrap();
    let full_pass = |t: &GraphTensors, x: &Matrix| gcn.predict_proba(t, x);
    let by_closure = run_gcn_opi(&mut net.clone(), &data.normalizer, full_pass, &cfg).unwrap();
    assert_eq!(by_session.inserted, by_closure.inserted);
    assert_eq!(
        by_closure.inference.rows_computed,
        by_closure.inference.rows_full
    );

    let (serial, caches): (LadderResult, Option<Vec<EmbeddingCache>>) =
        classify_with_ladder_backed(
            &model,
            &data.tensors,
            &data.features,
            &Budget::unlimited(),
            false,
            &mut MatrixBackend::serial(),
        )
        .unwrap();
    let (auto, _) = classify_with_ladder_backed(
        &model,
        &data.tensors,
        &data.features,
        &Budget::unlimited(),
        false,
        &mut MatrixBackend::auto(&data.tensors),
    )
    .unwrap();
    assert_eq!(serial.rung, Rung::Incremental);
    assert_eq!(caches.map(|c| c.len()), Some(model.stages().len()));
    assert_eq!(serial, auto);
    assert_eq!(
        serial.probs,
        model.predict_proba(&data.tensors, &data.features).unwrap()
    );

    // The serving core answers with the same bits and runs the same flow.
    let dir = temp_dir("serve");
    let mut core = ServeCore::new(
        data.normalizer.clone(),
        model.clone(),
        ServeConfig::default(),
    );
    let infer = core.handle_infer(&net, None).unwrap();
    assert_eq!(infer.probs, serial.probs);
    let mut served = net.clone();
    let job = core
        .run_flow_job(&mut served, &cfg, &dir.join("job.wal"), None)
        .unwrap();
    assert_eq!(job.outcome, outcome);
    assert_eq!(served, flowed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_entry_points() {
    // The signatures `benchmark/src/workloads/train.rs` and
    // `benchmark/src/fixture.rs` are written against.
    type Tensor<T> = gcn_testability::tensor::Result<T>;
    type MaskedLossGrads =
        fn(&Gcn, &GraphData, &[usize], &[f32; 2]) -> Tensor<(f32, GcnGrads, Vec<usize>)>;
    type CascadeTrain =
        fn(&MultiStageConfig, &[&GraphData]) -> Tensor<(MultiStageGcn, Vec<StageReport>)>;
    let _: fn(&mut Gcn, &GcnGrads, &TrainConfig, &mut Option<ModelOptimizer>) = apply_update;
    let _: fn(&mut Gcn, &TrainConfig) -> Option<ModelOptimizer> = optimizer_for;
    let _: MaskedLossGrads = masked_loss_grads;
    let _: CascadeTrain = MultiStageGcn::train;

    // `train_parallel` is `train` under the name the benchmark imports.
    let graphs: Vec<GraphData> = [13, 14]
        .iter()
        .map(|&seed| {
            let net = generate(&GeneratorConfig::sized("surface", seed, 200));
            let labels = net.nodes().map(|v| u8::from(v.index() % 7 == 0)).collect();
            GraphData::from_netlist(&net, None)
                .unwrap()
                .with_labels(labels)
        })
        .collect();
    let refs: Vec<&GraphData> = graphs.iter().collect();
    let masks: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| (0..g.node_count()).step_by(2).collect())
        .collect();
    let cfg = TrainConfig {
        epochs: 3,
        lr: 0.02,
        momentum: 0.9,
        pos_weight: 4.0,
    };
    let mut by_name = cascade().stages()[0].clone();
    let mut by_alias = by_name.clone();
    let history = train(&mut by_name, &refs, &masks, &cfg).unwrap();
    let aliased = train_parallel(&mut by_alias, &refs, &masks, &cfg).unwrap();
    assert_eq!(by_name, by_alias);
    assert_eq!(history, aliased);
}

#[test]
fn lint_entry_points() {
    // The names `benchmark/src/workloads/flow.rs` lints with.
    let _: fn(&Netlist) -> LintReport = lint_design;
    let _: fn(&Netlist, &GraphTensors) -> LintReport = lint_graph_tensors;
    let _: fn(&LintReport) -> bool = LintReport::is_clean;
    let net = design();
    assert!(lint_design(&net).is_clean());
    assert!(lint_graph_tensors(&net, &GraphTensors::from_netlist(&net)).is_clean());
}

#[test]
fn checksum_helpers() {
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(checksum_hex(b"a"), format!("{:016x}", fnv1a64(b"a")));
}
