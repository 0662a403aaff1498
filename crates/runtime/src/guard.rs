//! Divergence guards: detect NaN/Inf losses, loss spikes, and exploding
//! gradients during training; roll back to the last good state with a
//! learning-rate backoff and a bounded retry budget.
//!
//! The guarded epoch loop is [`gcnt_core::epoch_grads`] and
//! [`gcnt_core::commit_epoch`] — the two halves of the plain trainer's
//! epoch — with the checks in between, so a guarded run that never trips
//! a guard is bit-for-bit identical to [`gcnt_core::train()`].

use std::fmt;

use gcnt_core::{
    commit_epoch, epoch_grads, optimizer_for, EpochStats, Gcn, GcnGrads, GraphData, TrainConfig,
};
use gcnt_nn::ModelOptimizer;
use gcnt_tensor::TensorError;

use crate::checkpoint::{CheckpointError, CheckpointStore, TrainState};
use crate::fault::FaultPlan;

/// Divergence-guard policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Rollback budget: after this many rollbacks the run fails with
    /// [`TrainError::Diverged`] instead of retrying further.
    pub max_retries: usize,
    /// An epoch whose loss exceeds `spike_factor * previous_loss` is a
    /// divergence (checked once a previous loss exists).
    pub spike_factor: f32,
    /// Global gradient L2-norm limit; above it the gradient is exploding.
    pub grad_limit: f32,
    /// Learning-rate multiplier applied on each rollback.
    pub lr_backoff: f32,
    /// Save a checkpoint every this many completed epochs (0 = only at
    /// the end of the stage). Ignored without a store.
    pub checkpoint_every: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_retries: 8,
            spike_factor: 4.0,
            grad_limit: 1e4,
            lr_backoff: 0.5,
            checkpoint_every: 25,
        }
    }
}

/// What tripped a divergence guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceCause {
    /// The epoch loss was NaN or infinite.
    NonFiniteLoss,
    /// A gradient value was NaN or infinite.
    NonFiniteGrad,
    /// The loss jumped past `spike_factor` times the previous epoch's.
    LossSpike {
        /// Previous epoch's loss.
        previous: f32,
        /// This epoch's loss.
        current: f32,
    },
    /// The global gradient norm exceeded the limit.
    ExplodingGrad {
        /// Observed global L2 norm.
        norm: f32,
        /// Configured limit.
        limit: f32,
    },
}

impl fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceCause::NonFiniteLoss => write!(f, "loss is NaN or infinite"),
            DivergenceCause::NonFiniteGrad => write!(f, "gradient holds a NaN or infinite value"),
            DivergenceCause::LossSpike { previous, current } => {
                write!(f, "loss spiked {previous} -> {current}")
            }
            DivergenceCause::ExplodingGrad { norm, limit } => {
                write!(f, "gradient norm {norm} exceeds limit {limit}")
            }
        }
    }
}

/// One rollback performed by the guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollbackEvent {
    /// Epoch at which divergence was detected.
    pub epoch: usize,
    /// What tripped the guard.
    pub cause: DivergenceCause,
    /// Learning rate after the backoff.
    pub lr_after: f32,
}

/// Typed training failure.
#[derive(Debug)]
pub enum TrainError {
    /// The retry budget is exhausted; training cannot proceed.
    Diverged {
        /// Epoch at which the final divergence was detected.
        epoch: usize,
        /// What tripped the guard.
        cause: DivergenceCause,
        /// Rollbacks consumed before giving up.
        retries: usize,
    },
    /// A checkpoint operation failed.
    Checkpoint(CheckpointError),
    /// A tensor-shape failure from the epoch computation.
    Tensor(TensorError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged {
                epoch,
                cause,
                retries,
            } => write!(
                f,
                "training diverged at epoch {epoch} after {retries} retries: {cause}"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::Tensor(e) => write!(f, "tensor failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Tensor(e) => Some(e),
            TrainError::Diverged { .. } => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<TensorError> for TrainError {
    fn from(e: TensorError) -> Self {
        TrainError::Tensor(e)
    }
}

/// Result of a guarded run.
#[derive(Debug, Clone)]
pub struct GuardedOutcome {
    /// Per-epoch statistics (includes epochs restored from a checkpoint).
    pub history: Vec<EpochStats>,
    /// Rollbacks performed, in order.
    pub rollbacks: Vec<RollbackEvent>,
    /// Workers that died and whose graphs were recomputed on the
    /// training thread, as `(epoch, worker)` pairs.
    pub recovered_workers: Vec<(usize, usize)>,
    /// Guard retries consumed.
    pub retries_used: usize,
    /// Effective learning rate at the end of the run.
    pub final_lr: f32,
    /// Epoch the run resumed from, if it restored a checkpoint.
    pub resumed_from: Option<usize>,
}

/// A guarded, checkpointing training session for one model. See
/// [`crate::MultiStageTrainer`] for the cascade-level driver.
#[derive(Debug)]
pub struct TrainSession<'a> {
    /// Training hyper-parameters (`lr` is the starting rate; the guard
    /// may back it off).
    pub cfg: TrainConfig,
    /// Guard policy.
    pub guard: GuardConfig,
    /// Where to write checkpoints (`None` = keep everything in memory).
    pub store: Option<&'a CheckpointStore>,
    /// Restore the newest usable checkpoint before training.
    pub resume: bool,
    /// Faults to inject (empty outside recovery tests).
    pub fault: FaultPlan,
}

impl<'a> TrainSession<'a> {
    /// A session with default guard policy and no checkpointing.
    pub fn new(cfg: TrainConfig) -> Self {
        TrainSession {
            cfg,
            guard: GuardConfig::default(),
            store: None,
            resume: false,
            fault: FaultPlan::none(),
        }
    }

    /// Runs guarded training of a single model, resuming from the
    /// session's store when `resume` is set.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Diverged`] when the retry budget is
    /// exhausted, and checkpoint/tensor failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and `masks` lengths differ or a graph is
    /// unlabeled.
    pub fn run(
        &mut self,
        gcn: &mut Gcn,
        graphs: &[&GraphData],
        masks: &[Vec<usize>],
    ) -> Result<GuardedOutcome, TrainError> {
        let mut restored = None;
        if self.resume {
            if let Some(store) = self.store {
                let require_optimizer = self.cfg.momentum != 0.0;
                restored = store.load_latest(require_optimizer)?.0;
            }
        }
        self.run_stage(gcn, graphs, masks, restored, TrainState::single)
    }

    /// The guarded epoch loop. `resume` replaces `gcn` with a
    /// checkpointed model and positions the loop where that checkpoint
    /// was taken; `snapshot` builds the full checkpoint payload (a
    /// cascade driver embeds its stage context here).
    ///
    /// # Errors
    ///
    /// See [`TrainSession::run`].
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and `masks` lengths differ or a graph is
    /// unlabeled.
    pub fn run_stage(
        &mut self,
        gcn: &mut Gcn,
        graphs: &[&GraphData],
        masks: &[Vec<usize>],
        resume: Option<TrainState>,
        mut snapshot: impl FnMut(
            usize,
            &Gcn,
            &Option<ModelOptimizer>,
            f32,
            usize,
            &[EpochStats],
        ) -> TrainState,
    ) -> Result<GuardedOutcome, TrainError> {
        assert_eq!(graphs.len(), masks.len(), "one mask per graph");
        let class_weights = [1.0, self.cfg.pos_weight];
        let resumed_from = resume.as_ref().map(|r| r.epoch);
        let (mut epoch, mut lr, mut retries, mut history, mut optimizer) = match resume {
            Some(r) => {
                *gcn = r.model;
                let mut opt = r.optimizer;
                if let Some(o) = &mut opt {
                    o.set_lr(r.lr);
                }
                (r.epoch, r.lr, r.retries_used, r.history, opt)
            }
            None => (
                0,
                self.cfg.lr,
                0,
                Vec::with_capacity(self.cfg.epochs),
                optimizer_for(gcn, &self.cfg),
            ),
        };
        let mut rollbacks = Vec::new();
        let mut recovered_workers = Vec::new();
        // The rollback target: model and optimizer *before* the most
        // recent parameter update, plus the loop cursor to replay it.
        let mut good = (gcn.clone(), optimizer.clone(), epoch, history.clone());
        let mut prev_loss: Option<f32> = history.last().map(|s| s.loss);
        let mut good_prev_loss = prev_loss;

        while epoch < self.cfg.epochs {
            let fault = &self.fault;
            let mut computed = epoch_grads(gcn, graphs, masks, &class_weights, &|worker| {
                fault.kill_if_planned(epoch, worker);
            })?;
            recovered_workers.extend(computed.recovered.iter().map(|&w| (epoch, w)));
            self.fault.corrupt_grads(epoch, &mut computed.grads);

            if let Some(cause) = self.check_epoch(computed.loss, &computed.grads, prev_loss) {
                if retries >= self.guard.max_retries {
                    return Err(TrainError::Diverged {
                        epoch,
                        cause,
                        retries,
                    });
                }
                retries += 1;
                lr *= self.guard.lr_backoff;
                gcnt_obs::global().incr(gcnt_obs::counters::RUNTIME_ROLLBACKS);
                rollbacks.push(RollbackEvent {
                    epoch,
                    cause,
                    lr_after: lr,
                });
                // Rewind to the state before the update that diverged and
                // replay that epoch with the smaller rate.
                *gcn = good.0.clone();
                optimizer = good.1.clone();
                if let Some(opt) = &mut optimizer {
                    opt.set_lr(lr);
                }
                epoch = good.2;
                history = good.3.clone();
                prev_loss = good_prev_loss;
                continue;
            }

            // This epoch's forward pass proved the current parameters
            // good; snapshot them before the (possibly diverging) update.
            good = (gcn.clone(), optimizer.clone(), epoch, history.clone());
            good_prev_loss = prev_loss;
            let step_cfg = TrainConfig {
                lr,
                ..self.cfg.clone()
            };
            history.push(commit_epoch(
                gcn,
                epoch,
                &computed,
                &step_cfg,
                &mut optimizer,
            ));
            prev_loss = Some(computed.loss);
            epoch += 1;

            if let Some(store) = self.store {
                let due = (self.guard.checkpoint_every != 0
                    && epoch % self.guard.checkpoint_every == 0)
                    || epoch == self.cfg.epochs;
                if due {
                    store.save(&snapshot(epoch, gcn, &optimizer, lr, retries, &history))?;
                }
            }
        }
        Ok(GuardedOutcome {
            history,
            rollbacks,
            recovered_workers,
            retries_used: retries,
            final_lr: lr,
            resumed_from,
        })
    }

    fn check_epoch(
        &self,
        loss: f32,
        grads: &GcnGrads,
        prev_loss: Option<f32>,
    ) -> Option<DivergenceCause> {
        if !loss.is_finite() {
            return Some(DivergenceCause::NonFiniteLoss);
        }
        if !grads.is_finite() {
            return Some(DivergenceCause::NonFiniteGrad);
        }
        let norm = grads.l2_norm();
        gcnt_obs::global().gauge_set(gcnt_obs::gauges::CORE_TRAIN_GRAD_NORM, f64::from(norm));
        if norm > self.guard.grad_limit {
            return Some(DivergenceCause::ExplodingGrad {
                norm,
                limit: self.guard.grad_limit,
            });
        }
        if let Some(prev) = prev_loss {
            if prev.is_finite() && loss > prev * self.guard.spike_factor && loss > 1e-6 {
                return Some(DivergenceCause::LossSpike {
                    previous: prev,
                    current: loss,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::GcnConfig;

    fn tiny_gcn(seed: u64) -> Gcn {
        Gcn::new(
            &GcnConfig {
                embed_dims: vec![2],
                fc_dims: vec![2],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(seed),
        )
    }

    #[test]
    fn check_epoch_flags_each_cause() {
        let session = TrainSession::new(TrainConfig::default());
        let gcn = tiny_gcn(1);
        let clean = gcn.zero_grads();
        assert_eq!(session.check_epoch(0.5, &clean, Some(0.4)), None);
        assert_eq!(
            session.check_epoch(f32::NAN, &clean, None),
            Some(DivergenceCause::NonFiniteLoss)
        );
        let mut nan_grads = gcn.zero_grads();
        nan_grads.agg_weights[0] = f32::NAN;
        assert_eq!(
            session.check_epoch(0.5, &nan_grads, None),
            Some(DivergenceCause::NonFiniteGrad)
        );
        let mut big_grads = gcn.zero_grads();
        big_grads.agg_weights[0] = 1e9;
        assert!(matches!(
            session.check_epoch(0.5, &big_grads, None),
            Some(DivergenceCause::ExplodingGrad { .. })
        ));
        assert!(matches!(
            session.check_epoch(10.0, &clean, Some(0.1)),
            Some(DivergenceCause::LossSpike { .. })
        ));
    }

    #[test]
    fn errors_render_and_convert() {
        let e: TrainError = TensorError::LengthMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(e.to_string().contains("tensor failure"));
        let d = TrainError::Diverged {
            epoch: 7,
            cause: DivergenceCause::NonFiniteLoss,
            retries: 3,
        };
        assert!(d.to_string().contains("epoch 7"));
        assert!(d.to_string().contains("NaN"));
    }
}
