//! Divergence guards: detect NaN/Inf losses, loss spikes, and exploding
//! gradients during training. [`crate::MultiStageTrainer`] rolls back to
//! the last good state with a learning-rate backoff and a bounded retry
//! budget when [`check_epoch`] names a cause. The policy is four
//! constants.

use std::fmt;

use gcnt_core::GcnGrads;
use gcnt_tensor::TensorError;

use crate::checkpoint::CheckpointError;

/// Rollback budget: after this many rollbacks a stage fails with
/// [`TrainError::Diverged`] instead of retrying further.
pub(crate) const MAX_RETRIES: usize = 8;
/// An epoch whose loss exceeds `SPIKE_FACTOR` times the previous epoch's
/// is a divergence.
const SPIKE_FACTOR: f32 = 4.0;
/// Global gradient L2-norm limit; above it the gradient is exploding.
const GRAD_LIMIT: f32 = 1e4;
/// Learning-rate multiplier applied on each rollback.
pub(crate) const LR_BACKOFF: f32 = 0.5;

/// What tripped a divergence guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceCause {
    /// The epoch loss was NaN or infinite.
    NonFiniteLoss,
    /// A gradient value was NaN or infinite.
    NonFiniteGrad,
    /// The loss jumped past `SPIKE_FACTOR` times the previous epoch's.
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
        /// The limit it exceeded.
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

/// What, if anything, makes an epoch with this loss and summed gradient
/// a divergence, given the previous accepted epoch's loss.
pub(crate) fn check_epoch(
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
    if norm > GRAD_LIMIT {
        return Some(DivergenceCause::ExplodingGrad {
            norm,
            limit: GRAD_LIMIT,
        });
    }
    if let Some(prev) = prev_loss {
        if prev.is_finite() && loss > prev * SPIKE_FACTOR && loss > 1e-6 {
            return Some(DivergenceCause::LossSpike {
                previous: prev,
                current: loss,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::{Gcn, GcnConfig};

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
        let gcn = tiny_gcn(1);
        let clean = gcn.zero_grads();
        assert_eq!(check_epoch(0.5, &clean, Some(0.4)), None);
        assert_eq!(
            check_epoch(f32::NAN, &clean, None),
            Some(DivergenceCause::NonFiniteLoss)
        );
        let mut nan_grads = gcn.zero_grads();
        nan_grads.agg_weights[0] = f32::NAN;
        assert_eq!(
            check_epoch(0.5, &nan_grads, None),
            Some(DivergenceCause::NonFiniteGrad)
        );
        let mut big_grads = gcn.zero_grads();
        big_grads.agg_weights[0] = 1e9;
        assert!(matches!(
            check_epoch(0.5, &big_grads, None),
            Some(DivergenceCause::ExplodingGrad { .. })
        ));
        assert!(matches!(
            check_epoch(10.0, &clean, Some(0.1)),
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
