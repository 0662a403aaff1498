//! Integration tests of the resilience layer: interrupt-then-resume
//! determinism, corrupted-checkpoint fallback, divergence recovery, and
//! injected worker/gradient faults.

use std::fs;
use std::path::PathBuf;

use gcnt_core::{GcnConfig, GraphData, MultiStageConfig, MultiStageGcn};
use gcnt_netlist::{generate, GeneratorConfig, Scoap};
use gcnt_runtime::{
    CheckpointError, CheckpointStore, DivergenceCause, FaultPlan, MultiStageTrainer, TrainError,
    TrainState, CHECKPOINT_VERSION,
};

/// Truncates a file to half its length — a torn-write simulation.
fn truncate_file(path: &std::path::Path) {
    let mut bytes = fs::read(path).expect("read file to truncate");
    bytes.truncate(bytes.len() / 2);
    fs::write(path, bytes).expect("write truncated file");
}

/// Flips one bit at the given byte offset — a bit-rot simulation.
fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = fs::read(path).expect("read file to corrupt");
    bytes[offset] ^= 0x01;
    fs::write(path, bytes).expect("write corrupted file");
}

/// Imbalanced labeled data from the SCOAP observability tail.
fn labeled_data(seed: u64, size: usize) -> GraphData {
    let net = generate(&GeneratorConfig::sized("resil", seed, size));
    let scoap = Scoap::compute(&net).unwrap();
    let mut cos: Vec<u32> = net.nodes().map(|v| scoap.co(v)).collect();
    cos.sort_unstable();
    let thresh = cos[cos.len() * 9 / 10].max(1);
    let labels: Vec<u8> = net
        .nodes()
        .map(|v| u8::from(scoap.co(v) >= thresh))
        .collect();
    GraphData::from_netlist(&net, None)
        .unwrap()
        .with_labels(labels)
}

fn small_cascade_cfg() -> MultiStageConfig {
    MultiStageConfig {
        stages: 2,
        gcn: GcnConfig {
            embed_dims: vec![4],
            fc_dims: vec![4],
            ..GcnConfig::default()
        },
        epochs_per_stage: 12,
        lr: 0.05,
        filter_threshold: 0.25,
        max_pos_weight: 8.0,
        seed: 3,
    }
}

/// One stage of `epochs` epochs at learning rate `lr`: how the guard
/// tests train a single model through the cascade trainer.
fn one_stage_cfg(epochs: usize, lr: f32) -> MultiStageConfig {
    MultiStageConfig {
        stages: 1,
        epochs_per_stage: epochs,
        lr,
        ..small_cascade_cfg()
    }
}

/// A stage-1 cascade state at `epoch`, over one graph of three nodes.
fn tiny_state(epoch: usize) -> TrainState {
    let mut rng = gcnt_nn::seeded_rng(42);
    let model = gcnt_core::Gcn::new(&small_cascade_cfg().gcn, &mut rng);
    TrainState {
        stage: 1,
        epoch,
        lr: 0.0125,
        retries_used: 2,
        model: model.clone(),
        history: vec![],
        completed: vec![model],
        active: vec![vec![1, 3, 5]],
        reports: vec![],
        rng,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcnt-resil-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn model_json(model: &MultiStageGcn) -> String {
    serde_json::to_string(model).unwrap()
}

#[test]
fn guarded_cascade_matches_plain_trainer_bit_for_bit() {
    let data: Vec<GraphData> = (81..84).map(|seed| labeled_data(seed, 250)).collect();
    let cfg = small_cascade_cfg();
    for n in 1..=3 {
        // The plain trainer sums the graphs' gradients in graph order.
        let graphs: Vec<&GraphData> = data.iter().take(n).collect();
        let (plain, plain_reports) = MultiStageGcn::train(&cfg, &graphs).unwrap();
        let outcome = MultiStageTrainer::new(cfg.clone()).run(&graphs).unwrap();
        assert_eq!(model_json(&plain), model_json(&outcome.model), "{n} graphs");
        assert_eq!(plain_reports, outcome.reports, "{n} graphs");
        assert!(outcome.rollbacks.is_empty());
        assert!(outcome.recovered_workers.is_empty());
    }
}

#[test]
fn interrupt_then_resume_is_bit_for_bit_identical() {
    let data = labeled_data(82, 300);
    let cfg = small_cascade_cfg();

    // Reference: uninterrupted run.
    let uninterrupted = MultiStageTrainer::new(cfg.clone()).run(&[&data]).unwrap();

    // Interrupted run: checkpoint every 5 epochs, keep everything, then
    // simulate a crash by discarding every checkpoint newer than an
    // early mid-stage one and resuming from what's left.
    let dir = temp_dir("resume");
    let store = CheckpointStore::open(&dir, 100).unwrap();
    let mut first = MultiStageTrainer::new(cfg.clone());
    first.checkpoint_every = 5;
    first.store = Some(&store);
    first.run(&[&data]).unwrap();

    let files = store.list().unwrap();
    assert!(files.len() >= 4, "expected several checkpoints: {files:?}");
    // Keep only the first two checkpoints (mid-stage-0 state).
    for late in &files[2..] {
        fs::remove_file(late).unwrap();
    }

    let mut resumed = MultiStageTrainer::new(cfg);
    resumed.store = Some(&store);
    resumed.resume = true;
    let outcome = resumed.run(&[&data]).unwrap();
    assert!(outcome.resumed_from.is_some());
    assert_ne!(outcome.resumed_from, Some((0, 0)), "must resume mid-run");
    assert_eq!(
        model_json(&uninterrupted.model),
        model_json(&outcome.model),
        "resumed run must be bit-for-bit identical"
    );
    assert_eq!(uninterrupted.reports, outcome.reports);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_stage_boundary_is_identical() {
    let data = labeled_data(83, 300);
    let cfg = small_cascade_cfg();
    let uninterrupted = MultiStageTrainer::new(cfg.clone()).run(&[&data]).unwrap();

    let dir = temp_dir("stage-boundary");
    let store = CheckpointStore::open(&dir, 100).unwrap();
    let mut first = MultiStageTrainer::new(cfg.clone());
    first.checkpoint_every = 0; // stage-boundary + end-of-stage only
    first.store = Some(&store);
    first.run(&[&data]).unwrap();

    // Keep only the stage-0 boundary checkpoint (ckpt-0001-000000).
    for path in store.list().unwrap() {
        if !path.to_str().unwrap().contains("ckpt-0001-000000") {
            fs::remove_file(path).unwrap();
        }
    }
    let mut resumed = MultiStageTrainer::new(cfg);
    resumed.store = Some(&store);
    resumed.resume = true;
    let outcome = resumed.run(&[&data]).unwrap();
    assert_eq!(outcome.resumed_from, Some((1, 0)));
    assert_eq!(model_json(&uninterrupted.model), model_json(&outcome.model));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoints_fall_back_to_previous() {
    let data = labeled_data(84, 250);
    let dir = temp_dir("corrupt");
    let store = CheckpointStore::open(&dir, 100).unwrap();
    let cfg = small_cascade_cfg();
    let mut trainer = MultiStageTrainer::new(cfg);
    trainer.checkpoint_every = 4;
    trainer.store = Some(&store);
    trainer.run(&[&data]).unwrap();

    let files = store.list().unwrap();
    let newest = files.last().unwrap().clone();

    // Truncation: typed Malformed error, and load_latest falls back.
    let original = fs::read(&newest).unwrap();
    fs::write(&newest, &original[..original.len() / 2]).unwrap();
    assert!(matches!(
        store.load(&newest),
        Err(CheckpointError::Malformed { .. })
    ));
    let (state, skipped) = store.load_latest().unwrap();
    let fallback = state.expect("older checkpoint must be usable");
    assert!(
        matches!(&skipped[..], [CheckpointError::Malformed { .. }]),
        "the skipped file must be reported as malformed: {skipped:?}"
    );

    // Bit flip inside the payload: checksum mismatch.
    fs::write(&newest, &original).unwrap();
    let mut flipped = original.clone();
    let offset = flipped.len() / 2;
    flipped[offset] ^= 0x01;
    fs::write(&newest, &flipped).unwrap();
    match store.load(&newest) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        Err(CheckpointError::Malformed { .. }) => {
            // A flip inside JSON string syntax can break parsing instead;
            // either way the file is rejected with a typed error.
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    let (state, _) = store.load_latest().unwrap();
    assert_eq!(
        state.expect("fallback state").epoch,
        fallback.epoch,
        "fallback must pick the same previous checkpoint"
    );

    // Wrong version.
    let text = String::from_utf8(original.clone()).unwrap();
    let versioned = text.replacen(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        "\"version\":99",
        1,
    );
    assert_ne!(text, versioned, "replacement must hit the version field");
    fs::write(&newest, versioned).unwrap();
    match store.load(&newest) {
        Err(CheckpointError::Unsupported { version: 99, .. }) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn natural_divergence_is_recovered_by_backoff() {
    let data = labeled_data(85, 250);
    // Too fast to train stably, slow enough that the 8 halvings the guard
    // may make bring the rate into range: the gradient explodes, then the
    // loss spikes, and the stage still finishes.
    let lr = 100.0;
    let outcome = MultiStageTrainer::new(one_stage_cfg(15, lr))
        .run(&[&data])
        .unwrap();
    let causes: Vec<DivergenceCause> = outcome.rollbacks.iter().map(|r| r.cause).collect();
    assert!(
        matches!(causes[..], [DivergenceCause::ExplodingGrad { .. }, ..])
            && matches!(causes[..], [.., DivergenceCause::LossSpike { .. }]),
        "{causes:?}"
    );
    assert!(causes.len() <= 8);
    let backed_off = outcome.rollbacks.last().unwrap().lr_after;
    assert_eq!(backed_off, lr * 0.5f32.powi(causes.len() as i32));
}

#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let data = labeled_data(86, 250);
    // Eight halvings are far too few to tame 1e6.
    match MultiStageTrainer::new(one_stage_cfg(15, 1e6)).run(&[&data]) {
        Err(TrainError::Diverged { retries, .. }) => assert_eq!(retries, 8),
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn checkpoint_state_round_trips_rng_and_cursor() {
    let dir = temp_dir("state-roundtrip");
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let state = tiny_state(17);
    let path = store.save(&state).unwrap();
    let back = store.load(&path).unwrap();
    assert_eq!(back, state);
    // The restored RNG continues the exact stream.
    use rand::RngCore;
    let (mut restored, mut original) = (back.rng, state.rng);
    for _ in 0..20 {
        assert_eq!(restored.next_u64(), original.next_u64());
    }
    let _ = fs::remove_dir_all(&dir);
}

mod fault_injected {
    use super::*;

    #[test]
    fn injected_nan_gradient_is_detected_and_rolled_back() {
        let data = labeled_data(90, 250);
        let mut trainer = MultiStageTrainer::new(one_stage_cfg(10, 0.05));
        trainer.fault = FaultPlan::none().with_nan_grads(3);
        let outcome = trainer.run(&[&data]).unwrap();
        assert_eq!(outcome.rollbacks.len(), 1);
        assert_eq!(outcome.rollbacks[0].epoch, 3);
        // The transient fault must not leave NaN anywhere in the model.
        let mut stage = outcome.model.stages()[0].clone();
        assert!(stage
            .params_mut()
            .iter()
            .all(|p| p.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn killed_worker_is_recovered_and_result_unchanged() {
        let graphs = [labeled_data(91, 250), labeled_data(92, 250)];
        let graphs: Vec<&GraphData> = graphs.iter().collect();
        let reference = MultiStageTrainer::new(one_stage_cfg(5, 0.05))
            .run(&graphs)
            .unwrap();
        let mut trainer = MultiStageTrainer::new(one_stage_cfg(5, 0.05));
        trainer.fault = FaultPlan::none().with_worker_kill(2, 1);
        let survivor = trainer.run(&graphs).unwrap();
        assert_eq!(survivor.recovered_workers, vec![(2, 1)]);
        assert_eq!(
            model_json(&reference.model),
            model_json(&survivor.model),
            "recovery must not change the trained model"
        );
    }

    #[test]
    fn corruption_helpers_break_checkpoints_detectably() {
        let dir = temp_dir("helpers");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let state = tiny_state(4);
        let p1 = store.save(&state).unwrap();
        truncate_file(&p1);
        assert!(store.load(&p1).is_err());
        let state2 = tiny_state(8);
        let p2 = store.save(&state2).unwrap();
        let len = fs::read(&p2).unwrap().len();
        flip_byte(&p2, len / 2);
        assert!(store.load(&p2).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The cascade of [`PINNED_CHECKPOINT`]: two tiny stages of four epochs.
fn pinned_cfg() -> MultiStageConfig {
    MultiStageConfig {
        stages: 2,
        gcn: GcnConfig {
            embed_dims: vec![2],
            fc_dims: vec![2],
            ..GcnConfig::default()
        },
        epochs_per_stage: 4,
        ..small_cascade_cfg()
    }
}

/// `ckpt-0001-000002.json` as `gcnt train` wrote it before checkpoints
/// lost their optimizer section: the cascade of [`pinned_cfg`] on
/// `labeled_data(93, 40)`, checkpointed every 2 epochs, two epochs into
/// stage 1. It still carries `"optimizer":null`.
const PINNED_CHECKPOINT: &str = r#"{"version":1,"checksum":"3215865713d326b9","payload":"{\"stage\":1,\"epoch\":2,\"lr\":0.05000000074505806,\"retries_used\":0,\"model\":{\"agg_weights\":[0.501323401927948,0.4893219769001007],\"encoders\":[{\"weight\":{\"rows\":4,\"cols\":2,\"data\":[0.9983950853347778,-0.5112278461456299,-0.3872535824775696,0.6744396090507507,-0.27593058347702026,0.09853401780128479,0.893926739692688,0.37692397832870483]},\"bias\":[0.0015274225734174252,-0.005865581799298525]}],\"head\":{\"layers\":[{\"weight\":{\"rows\":2,\"cols\":2,\"data\":[-0.8040782809257507,-0.5330528616905212,0.09845596551895142,0.4896414279937744]},\"bias\":[-0.005186413414776325,-0.010791588574647903]},{\"weight\":{\"rows\":2,\"cols\":2,\"data\":[-1.040610909461975,0.02427273616194725,-0.8016395568847656,0.8226149678230286]},\"bias\":[0.004029229283332825,-0.004029230214655399]}]}},\"optimizer\":null,\"history\":[{\"epoch\":0,\"loss\":0.7056083083152771,\"train_accuracy\":0.1875},{\"epoch\":1,\"loss\":0.7027255892753601,\"train_accuracy\":0.625}],\"completed\":[{\"agg_weights\":[0.5030562281608582,0.5021571516990662],\"encoders\":[{\"weight\":{\"rows\":4,\"cols\":2,\"data\":[-0.3182096481323242,0.2622831165790558,0.284521222114563,0.16657577455043793,-0.630582332611084,-0.3795078992843628,-0.9434253573417664,-0.919539749622345]},\"bias\":[0.002662279177457094,0.006584355607628822]}],\"head\":{\"layers\":[{\"weight\":{\"rows\":2,\"cols\":2,\"data\":[1.2151192426681519,0.7008253931999207,-0.7958016991615295,0.9363468885421753]},\"bias\":[-0.0018655469175428152,0.000753740081563592]},{\"weight\":{\"rows\":2,\"cols\":2,\"data\":[-0.18210704624652863,0.09010287374258041,0.012132294476032257,-1.07976496219635]},\"bias\":[-0.021502375602722168,0.021502375602722168]}]}}],\"active\":[[0,1,3,4,5,6,7,13,17,20,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,53]],\"reports\":[{\"stage\":0,\"active\":54,\"positives\":6,\"pos_weight\":8.0,\"filtered\":22}],\"rng\":{\"key\":[3674312685,487265508,2072095113,3007737738,3494960385,2632706214,1722534351,312960251],\"counter\":4,\"buf\":[2528309250,737602535,15437550,1215822269,2030579776,2325778243,1372178581,3018873561,802194128,322337838,2981265516,2190568500,2405324539,738980362,188911718,3592765425],\"cursor\":16}}"}"#;

#[test]
fn a_checkpoint_an_earlier_build_wrote_resumes_bit_for_bit() {
    let data = labeled_data(93, 40);
    let uninterrupted = MultiStageTrainer::new(pinned_cfg()).run(&[&data]).unwrap();

    let dir = temp_dir("pinned");
    let store = CheckpointStore::open(&dir, 100).unwrap();
    fs::write(dir.join("ckpt-0001-000002.json"), PINNED_CHECKPOINT).unwrap();
    let mut resumed = MultiStageTrainer::new(pinned_cfg());
    resumed.store = Some(&store);
    resumed.resume = true;
    let outcome = resumed.run(&[&data]).unwrap();
    assert!(outcome.skipped.is_empty(), "{:?}", outcome.skipped);
    assert_eq!(outcome.resumed_from, Some((1, 2)));
    assert_eq!(model_json(&uninterrupted.model), model_json(&outcome.model));
    assert_eq!(uninterrupted.reports, outcome.reports);
    let _ = fs::remove_dir_all(&dir);
}
