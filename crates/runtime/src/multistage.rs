//! Checkpointed, guarded multi-stage cascade training.
//!
//! [`MultiStageTrainer`] drives the same [`CascadeTraining`] stepper as
//! [`gcnt_core::MultiStageGcn::train`] — the stepper owns the RNG draws,
//! the per-stage positive weight and the filtering — but trains each
//! stage through the guarded [`TrainSession`] and checkpoints both within
//! stages (epoch granularity) and at stage boundaries. A checkpoint
//! carries the stepper's whole state, so a resumed run is bit-for-bit
//! identical to an uninterrupted one.

use gcnt_core::{CascadeTraining, GraphData, MultiStageConfig, MultiStageGcn, StageReport};

use crate::checkpoint::{CheckpointError, CheckpointStore, TrainState};
use crate::fault::FaultPlan;
use crate::guard::{GuardConfig, RollbackEvent, TrainError, TrainSession};

/// Result of a resilient cascade run.
#[derive(Debug)]
pub struct MultiStageOutcome {
    /// The trained cascade.
    pub model: MultiStageGcn,
    /// Per-stage reports (identical to the plain trainer's).
    pub reports: Vec<StageReport>,
    /// `(stage, epoch)` the run resumed from, if a checkpoint was used.
    pub resumed_from: Option<(usize, usize)>,
    /// Guard rollbacks across all stages.
    pub rollbacks: Vec<RollbackEvent>,
    /// Died-and-recovered workers across all stages, as `(epoch, worker)`.
    pub recovered_workers: Vec<(usize, usize)>,
    /// Checkpoints skipped during resume, newest first, each with the
    /// reason it was not used.
    pub skipped: Vec<CheckpointError>,
}

/// Drives multi-stage training with checkpoint/resume and divergence
/// guards.
#[derive(Debug)]
pub struct MultiStageTrainer<'a> {
    /// Cascade configuration (shared with the plain trainer).
    pub cfg: MultiStageConfig,
    /// Guard policy for every stage.
    pub guard: GuardConfig,
    /// Where checkpoints go (`None` disables checkpointing).
    pub store: Option<&'a CheckpointStore>,
    /// Restore the newest usable checkpoint before training.
    pub resume: bool,
    /// Faults to inject (empty outside recovery tests).
    pub fault: FaultPlan,
}

impl<'a> MultiStageTrainer<'a> {
    /// A trainer with default guard policy and no checkpointing.
    pub fn new(cfg: MultiStageConfig) -> Self {
        MultiStageTrainer {
            cfg,
            guard: GuardConfig::default(),
            store: None,
            resume: false,
            fault: FaultPlan::none(),
        }
    }

    /// Trains the cascade. Without a store and without faults this is
    /// bit-for-bit identical to [`MultiStageGcn::train`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Diverged`] when a stage exhausts its retry
    /// budget, and checkpoint/tensor failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or any graph is unlabeled.
    pub fn run(&mut self, graphs: &[&GraphData]) -> Result<MultiStageOutcome, TrainError> {
        let cfg = &self.cfg;
        let mut cascade = CascadeTraining::new(cfg, graphs);
        let mut mid_stage: Option<TrainState> = None;
        let mut resumed_from = None;
        let mut skipped = Vec::new();

        if self.resume {
            if let Some(store) = self.store {
                // The cascade trains with plain SGD (no optimizer state),
                // but the RNG is mandatory for deterministic resumption.
                let (state, rejected) = store.load_latest(false)?;
                skipped = rejected;
                if let Some(mut state) = state {
                    if let Some(rng) = state.rng.take() {
                        resumed_from = Some((state.stage, state.epoch));
                        cascade = CascadeTraining {
                            rng,
                            active: std::mem::take(&mut state.active),
                            completed: std::mem::take(&mut state.completed),
                            reports: std::mem::take(&mut state.reports),
                        };
                        if state.epoch > 0 && state.stage < cfg.stages {
                            mid_stage = Some(state);
                        }
                    } else {
                        // Without its RNG a cascade resume would not be
                        // deterministic: start fresh and say why.
                        skipped.push(CheckpointError::MissingState {
                            path: store.path_of(&state),
                            section: "rng",
                        });
                    }
                }
            }
        }

        let mut rollbacks = Vec::new();
        let mut recovered_workers = Vec::new();
        while cascade.completed.len() < cfg.stages {
            let restored = mid_stage.as_ref().map(|state| state.model.clone());
            let mut stage = cascade.begin_stage(cfg, graphs, restored);
            let mut session = TrainSession {
                cfg: stage.train.clone(),
                guard: self.guard,
                store: self.store,
                resume: false,
                fault: std::mem::take(&mut self.fault),
            };
            let outcome = session.run_stage(
                &mut stage.gcn,
                graphs,
                &cascade.active,
                mid_stage.take(),
                |epoch, model, optimizer, lr, retries, history| {
                    TrainState::cascade(&cascade, epoch, model, optimizer, lr, retries, history)
                },
            );
            self.fault = std::mem::take(&mut session.fault);
            let outcome = outcome?;
            rollbacks.extend(outcome.rollbacks);
            recovered_workers.extend(outcome.recovered_workers);

            cascade.finish_stage(cfg, graphs, stage)?;
            if let (Some(store), Some(last)) = (self.store, cascade.completed.last()) {
                store.save(&TrainState::cascade(
                    &cascade,
                    0,
                    last,
                    &None,
                    cfg.lr,
                    0,
                    &[],
                ))?;
            }
        }

        Ok(MultiStageOutcome {
            model: MultiStageGcn::from_stages(cascade.completed, cfg.filter_threshold),
            reports: cascade.reports,
            resumed_from,
            rollbacks,
            recovered_workers,
            skipped,
        })
    }
}
