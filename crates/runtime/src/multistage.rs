//! Checkpointed, guarded multi-stage cascade training.
//!
//! [`MultiStageTrainer`] drives the same [`CascadeTraining`] stepper as
//! [`gcnt_core::MultiStageGcn::train`] — the stepper owns the RNG draws,
//! the per-stage positive weight and the filtering — but trains each
//! stage through a guarded epoch loop and checkpoints both within stages
//! (epoch granularity) and at stage boundaries. That loop is
//! [`gcnt_core::epoch_grads`] and [`gcnt_core::commit_epoch`] — the two
//! halves of the plain trainer's epoch — with the guard's checks in
//! between, so a run that never trips a guard is bit-for-bit the plain
//! trainer's. A checkpoint carries the stepper's whole state, so a resumed
//! run is bit-for-bit identical to an uninterrupted one.

use gcnt_core::{
    commit_epoch, epoch_grads, CascadeTraining, GraphData, MultiStageConfig, MultiStageGcn,
    OpenStage, StageReport, TrainConfig,
};

use crate::checkpoint::{CheckpointError, CheckpointStore, TrainState};
use crate::fault::FaultPlan;
use crate::guard::{check_epoch, RollbackEvent, TrainError, LR_BACKOFF, MAX_RETRIES};

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
    /// Save a checkpoint every this many completed epochs of a stage
    /// (0 = only at the end of the stage). Ignored without a store.
    pub checkpoint_every: usize,
    /// Where checkpoints go (`None` disables checkpointing).
    pub store: Option<&'a CheckpointStore>,
    /// Restore the newest usable checkpoint before training.
    pub resume: bool,
    /// Faults to inject (empty outside recovery tests).
    pub fault: FaultPlan,
}

impl<'a> MultiStageTrainer<'a> {
    /// A trainer that checkpoints every 25 epochs once it has a store.
    pub fn new(cfg: MultiStageConfig) -> Self {
        MultiStageTrainer {
            cfg,
            checkpoint_every: 25,
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
        let mut cascade = CascadeTraining::new(&self.cfg, graphs);
        let mut mid_stage: Option<TrainState> = None;
        let mut resumed_from = None;
        let mut skipped = Vec::new();

        if let (true, Some(store)) = (self.resume, self.store) {
            let (state, rejected) = store.load_latest()?;
            skipped = rejected;
            if let Some(mut state) = state {
                resumed_from = Some((state.stage, state.epoch));
                cascade = CascadeTraining {
                    rng: state.rng.clone(),
                    active: std::mem::take(&mut state.active),
                    completed: std::mem::take(&mut state.completed),
                    reports: std::mem::take(&mut state.reports),
                };
                if state.epoch > 0 && state.stage < self.cfg.stages {
                    mid_stage = Some(state);
                }
            }
        }

        let mut rollbacks = Vec::new();
        let mut recovered_workers = Vec::new();
        while cascade.completed.len() < self.cfg.stages {
            let restored = mid_stage.as_ref().map(|state| state.model.clone());
            let mut stage = cascade.begin_stage(&self.cfg, graphs, restored);
            self.guarded_stage(
                &cascade,
                &mut stage,
                graphs,
                mid_stage.take(),
                &mut rollbacks,
                &mut recovered_workers,
            )?;
            cascade.finish_stage(&self.cfg, graphs, stage)?;
            if let (Some(store), Some(last)) = (self.store, cascade.completed.last()) {
                store.save(&TrainState::cascade(&cascade, 0, last, self.cfg.lr, 0, &[]))?;
            }
        }

        Ok(MultiStageOutcome {
            model: MultiStageGcn::from_stages(cascade.completed, self.cfg.filter_threshold),
            reports: cascade.reports,
            resumed_from,
            rollbacks,
            recovered_workers,
            skipped,
        })
    }

    /// The guarded epoch loop of one stage, from `resume`'s cursor if
    /// given (its model is already `stage.gcn`). An epoch whose loss or
    /// gradient fails [`check_epoch`] rewinds the model to before the
    /// update that diverged, backs off the learning rate and replays that
    /// epoch, at most [`MAX_RETRIES`] times per stage.
    fn guarded_stage(
        &mut self,
        cascade: &CascadeTraining,
        stage: &mut OpenStage,
        graphs: &[&GraphData],
        resume: Option<TrainState>,
        rollbacks: &mut Vec<RollbackEvent>,
        recovered_workers: &mut Vec<(usize, usize)>,
    ) -> Result<(), TrainError> {
        let (gcn, cfg) = (&mut stage.gcn, &stage.train);
        let class_weights = [1.0, cfg.pos_weight];
        let (mut epoch, mut lr, mut retries, mut history) = match resume {
            Some(r) => (r.epoch, r.lr, r.retries_used, r.history),
            None => (0, cfg.lr, 0, Vec::with_capacity(cfg.epochs)),
        };
        // The rollback target: the model *before* the most recent
        // parameter update, plus the loop cursor to replay it.
        let mut good = (gcn.clone(), epoch, history.clone());
        let mut prev_loss: Option<f32> = history.last().map(|s| s.loss);
        let mut good_prev_loss = prev_loss;

        while epoch < cfg.epochs {
            let fault = &self.fault;
            let mut computed = epoch_grads(gcn, graphs, &cascade.active, &class_weights, &|w| {
                fault.kill_if_planned(epoch, w);
            })?;
            recovered_workers.extend(computed.recovered.iter().map(|&w| (epoch, w)));
            self.fault.corrupt_grads(epoch, &mut computed.grads);

            if let Some(cause) = check_epoch(computed.loss, &computed.grads, prev_loss) {
                if retries >= MAX_RETRIES {
                    return Err(TrainError::Diverged {
                        epoch,
                        cause,
                        retries,
                    });
                }
                retries += 1;
                lr *= LR_BACKOFF;
                gcnt_obs::global().incr(gcnt_obs::counters::RUNTIME_ROLLBACKS);
                rollbacks.push(RollbackEvent {
                    epoch,
                    cause,
                    lr_after: lr,
                });
                // Rewind to the state before the update that diverged and
                // replay that epoch with the smaller rate.
                *gcn = good.0.clone();
                epoch = good.1;
                history = good.2.clone();
                prev_loss = good_prev_loss;
                continue;
            }

            // This epoch's forward pass proved the current parameters
            // good; snapshot them before the (possibly diverging) update.
            good = (gcn.clone(), epoch, history.clone());
            good_prev_loss = prev_loss;
            let step_cfg = TrainConfig { lr, ..cfg.clone() };
            // The cascade trains with plain SGD: no optimizer state.
            history.push(commit_epoch(gcn, epoch, &computed, &step_cfg, &mut None));
            prev_loss = Some(computed.loss);
            epoch += 1;

            if let Some(store) = self.store {
                let due = (self.checkpoint_every != 0 && epoch % self.checkpoint_every == 0)
                    || epoch == cfg.epochs;
                if due {
                    store.save(&TrainState::cascade(
                        cascade, epoch, gcn, lr, retries, &history,
                    ))?;
                }
            }
        }
        Ok(())
    }
}
