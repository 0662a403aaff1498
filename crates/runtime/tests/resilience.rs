//! Integration tests of the resilience layer: interrupt-then-resume
//! determinism, corrupted-checkpoint fallback, divergence recovery, and
//! injected worker/gradient faults.

use std::fs;
use std::path::PathBuf;

use gcnt_core::{GcnConfig, GraphData, MultiStageConfig, MultiStageGcn, TrainConfig};
use gcnt_netlist::{generate, GeneratorConfig, Scoap};
use gcnt_runtime::{
    CheckpointError, CheckpointStore, FaultPlan, GuardConfig, MultiStageTrainer, TrainError,
    TrainSession, TrainState, CHECKPOINT_VERSION,
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
    let data = labeled_data(81, 300);
    let cfg = small_cascade_cfg();
    let (plain, plain_reports) = MultiStageGcn::train(&cfg, &[&data]).unwrap();
    let outcome = MultiStageTrainer::new(cfg).run(&[&data]).unwrap();
    assert_eq!(model_json(&plain), model_json(&outcome.model));
    assert_eq!(plain_reports, outcome.reports);
    assert!(outcome.rollbacks.is_empty());
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
    first.guard.checkpoint_every = 5;
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
    first.guard.checkpoint_every = 0; // stage-boundary + end-of-stage only
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
    trainer.guard.checkpoint_every = 4;
    trainer.store = Some(&store);
    trainer.run(&[&data]).unwrap();

    let files = store.list().unwrap();
    let newest = files.last().unwrap().clone();

    // Truncation: typed Malformed error, and load_latest falls back.
    let original = fs::read(&newest).unwrap();
    fs::write(&newest, &original[..original.len() / 2]).unwrap();
    assert!(matches!(
        store.load(&newest, false),
        Err(CheckpointError::Malformed { .. })
    ));
    let (state, skipped) = store.load_latest(false).unwrap();
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
    match store.load(&newest, false) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        Err(CheckpointError::Malformed { .. }) => {
            // A flip inside JSON string syntax can break parsing instead;
            // either way the file is rejected with a typed error.
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    let (state, _) = store.load_latest(false).unwrap();
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
    match store.load(&newest, false) {
        Err(CheckpointError::Unsupported { version: 99, .. }) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }

    // Missing optimizer state when required.
    fs::write(&newest, &original).unwrap();
    let plain_state = store.load(&newest, false).unwrap();
    assert!(plain_state.optimizer.is_none());
    match store.load(&newest, true) {
        Err(CheckpointError::MissingState {
            section: "optimizer",
            ..
        }) => {}
        other => panic!("expected missing-optimizer rejection, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn natural_divergence_is_recovered_by_backoff() {
    let data = labeled_data(85, 250);
    let mask: Vec<usize> = (0..data.node_count()).step_by(2).collect();
    let mut gcn = gcnt_core::Gcn::new(
        &GcnConfig {
            embed_dims: vec![4],
            fc_dims: vec![4],
            ..GcnConfig::default()
        },
        &mut gcnt_nn::seeded_rng(1),
    );
    let mut session = TrainSession::new(TrainConfig {
        epochs: 15,
        lr: 1e6, // guaranteed to explode without the guard
        momentum: 0.0,
        pos_weight: 1.0,
    });
    session.guard = GuardConfig {
        max_retries: 40,
        ..GuardConfig::default()
    };
    let outcome = session.run(&mut gcn, &[&data], &[mask]).unwrap();
    assert!(
        !outcome.rollbacks.is_empty(),
        "an lr of 1e6 must trip the guard"
    );
    assert!(outcome.final_lr < 1e6, "backoff must reduce the rate");
    assert!(outcome.history.iter().all(|s| s.loss.is_finite()));
    assert_eq!(outcome.history.len(), 15);
}

#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let data = labeled_data(86, 250);
    let mask: Vec<usize> = (0..data.node_count()).step_by(2).collect();
    let mut gcn = gcnt_core::Gcn::new(
        &GcnConfig {
            embed_dims: vec![4],
            fc_dims: vec![4],
            ..GcnConfig::default()
        },
        &mut gcnt_nn::seeded_rng(1),
    );
    let mut session = TrainSession::new(TrainConfig {
        epochs: 15,
        lr: 1e6,
        momentum: 0.0,
        pos_weight: 1.0,
    });
    session.guard = GuardConfig {
        max_retries: 2, // far too few halvings to tame 1e6
        ..GuardConfig::default()
    };
    match session.run(&mut gcn, &[&data], &[mask]) {
        Err(TrainError::Diverged { retries, .. }) => assert_eq!(retries, 2),
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn single_model_resume_is_bit_for_bit_identical() {
    let data = labeled_data(87, 250);
    let mask: Vec<usize> = (0..data.node_count()).step_by(2).collect();
    let fresh_gcn = || {
        gcnt_core::Gcn::new(
            &GcnConfig {
                embed_dims: vec![4],
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(5),
        )
    };
    let cfg = |epochs| TrainConfig {
        epochs,
        lr: 0.05,
        momentum: 0.9, // exercises optimizer-state persistence
        pos_weight: 1.0,
    };

    let mut reference = fresh_gcn();
    TrainSession::new(cfg(20))
        .run(&mut reference, &[&data], std::slice::from_ref(&mask))
        .unwrap();

    let dir = temp_dir("single-resume");
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let mut interrupted = fresh_gcn();
    let mut first = TrainSession::new(cfg(10));
    first.store = Some(&store);
    first.guard.checkpoint_every = 5;
    first
        .run(&mut interrupted, &[&data], std::slice::from_ref(&mask))
        .unwrap();

    let mut resumed_model = fresh_gcn();
    let mut second = TrainSession::new(cfg(20));
    second.store = Some(&store);
    second.resume = true;
    let outcome = second
        .run(&mut resumed_model, &[&data], std::slice::from_ref(&mask))
        .unwrap();
    assert_eq!(outcome.resumed_from, Some(10));
    assert_eq!(
        serde_json::to_string(&reference).unwrap(),
        serde_json::to_string(&resumed_model).unwrap(),
        "momentum run must resume bit-for-bit"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn guarded_run_equals_by_parts_sum_in_graph_order() {
    let data: Vec<GraphData> = (88..91).map(|seed| labeled_data(seed, 250)).collect();
    let masks: Vec<Vec<usize>> = data
        .iter()
        .map(|d| (0..d.node_count()).step_by(3).collect())
        .collect();
    let fresh_gcn = || {
        gcnt_core::Gcn::new(
            &GcnConfig {
                embed_dims: vec![4],
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(6),
        )
    };
    for n in 1..=3 {
        for momentum in [0.0, 0.9] {
            let graphs: Vec<&GraphData> = data.iter().take(n).collect();
            let cfg = TrainConfig {
                epochs: 6,
                lr: 0.05,
                momentum,
                pos_weight: 2.0,
            };
            // The reference: graph after graph on this thread, summed
            // in graph order, one update per epoch.
            let mut reference = fresh_gcn();
            let mut optimizer = gcnt_core::optimizer_for(&mut reference, &cfg);
            for _ in 0..cfg.epochs {
                let mut total = reference.zero_grads();
                for (d, mask) in graphs.iter().zip(&masks) {
                    let (_, grads, _) =
                        gcnt_core::masked_loss_grads(&reference, d, mask, &[1.0, cfg.pos_weight])
                            .unwrap();
                    total.accumulate(&grads);
                }
                total.scale(1.0 / n as f32);
                gcnt_core::apply_update(&mut reference, &total, &cfg, &mut optimizer);
            }
            let mut guarded = fresh_gcn();
            let outcome = TrainSession::new(cfg)
                .run(&mut guarded, &graphs, &masks[..n])
                .unwrap();
            assert_eq!(reference, guarded, "{n} graphs, momentum {momentum}");
            assert!(outcome.recovered_workers.is_empty());
        }
    }
}

#[test]
fn checkpoint_state_round_trips_rng_and_cursor() {
    let dir = temp_dir("state-roundtrip");
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let mut rng = gcnt_nn::seeded_rng(42);
    let model = gcnt_core::Gcn::new(
        &GcnConfig {
            embed_dims: vec![3],
            fc_dims: vec![3],
            ..GcnConfig::default()
        },
        &mut rng,
    );
    let state = TrainState {
        stage: 1,
        epoch: 17,
        lr: 0.0125,
        retries_used: 2,
        model,
        optimizer: None,
        history: vec![],
        completed: vec![],
        active: vec![vec![1, 3, 5]],
        reports: vec![],
        rng: Some(rng.clone()),
    };
    let path = store.save(&state).unwrap();
    let back = store.load(&path, false).unwrap();
    assert_eq!(back, state);
    // The restored RNG continues the exact stream.
    use rand::RngCore;
    let mut restored = back.rng.unwrap();
    let mut original = rng;
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
        let mask: Vec<usize> = (0..data.node_count()).step_by(2).collect();
        let fresh_gcn = || {
            gcnt_core::Gcn::new(
                &GcnConfig {
                    embed_dims: vec![4],
                    fc_dims: vec![4],
                    ..GcnConfig::default()
                },
                &mut gcnt_nn::seeded_rng(7),
            )
        };
        let cfg = TrainConfig {
            epochs: 10,
            lr: 0.05,
            momentum: 0.0,
            pos_weight: 1.0,
        };
        let mut clean_model = fresh_gcn();
        TrainSession::new(cfg.clone())
            .run(&mut clean_model, &[&data], std::slice::from_ref(&mask))
            .unwrap();

        let mut faulted_model = fresh_gcn();
        let mut session = TrainSession::new(cfg);
        session.fault = FaultPlan::none().with_nan_grads(3);
        let outcome = session
            .run(&mut faulted_model, &[&data], std::slice::from_ref(&mask))
            .unwrap();
        assert_eq!(outcome.rollbacks.len(), 1);
        assert_eq!(outcome.rollbacks[0].epoch, 3);
        assert_eq!(outcome.history.len(), 10);
        assert!(outcome.history.iter().all(|s| s.loss.is_finite()));
        // The transient fault must not leave NaN anywhere in the model.
        assert!(faulted_model
            .params_mut()
            .iter()
            .all(|p| p.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn killed_worker_is_recovered_and_result_unchanged() {
        let d1 = labeled_data(91, 250);
        let d2 = labeled_data(92, 250);
        let masks: Vec<Vec<usize>> = [&d1, &d2]
            .iter()
            .map(|d| (0..d.node_count()).step_by(3).collect())
            .collect();
        let fresh_gcn = || {
            gcnt_core::Gcn::new(
                &GcnConfig {
                    embed_dims: vec![4],
                    fc_dims: vec![4],
                    ..GcnConfig::default()
                },
                &mut gcnt_nn::seeded_rng(8),
            )
        };
        let cfg = TrainConfig {
            epochs: 5,
            lr: 0.05,
            momentum: 0.0,
            pos_weight: 1.0,
        };
        let mut reference = fresh_gcn();
        TrainSession::new(cfg.clone())
            .run(&mut reference, &[&d1, &d2], &masks)
            .unwrap();

        let mut survivor = fresh_gcn();
        let mut session = TrainSession::new(cfg);
        session.fault = FaultPlan::none().with_worker_kill(2, 1);
        let outcome = session.run(&mut survivor, &[&d1, &d2], &masks).unwrap();
        assert_eq!(outcome.recovered_workers, vec![(2, 1)]);
        assert_eq!(
            reference, survivor,
            "recovery must not change the trained model"
        );
    }

    #[test]
    fn corruption_helpers_break_checkpoints_detectably() {
        let dir = temp_dir("helpers");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let model = gcnt_core::Gcn::new(
            &GcnConfig {
                embed_dims: vec![3],
                fc_dims: vec![3],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(2),
        );
        let state = TrainState::single(4, &model, &None, 0.05, 0, &[]);
        let p1 = store.save(&state).unwrap();
        truncate_file(&p1);
        assert!(store.load(&p1, false).is_err());
        let state2 = TrainState::single(8, &model, &None, 0.05, 0, &[]);
        let p2 = store.save(&state2).unwrap();
        let len = fs::read(&p2).unwrap().len();
        flip_byte(&p2, len / 2);
        assert!(store.load(&p2, false).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
