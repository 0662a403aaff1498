//! `gcnt-runtime`: the resilience layer of the GCN testability
//! workspace.
//!
//! Long training runs and insertion flows fail in practice: a learning
//! rate diverges, a machine goes down mid-write. (A worker thread that
//! dies is already survived one layer down: `gcnt_core::epoch_grads`, the
//! one epoch every trainer runs, recomputes its graph.) This crate makes
//! those failures recoverable instead of fatal:
//!
//! - **Checkpoint/resume** ([`CheckpointStore`], [`TrainState`]):
//!   versioned, checksummed training checkpoints — model weights,
//!   optimizer state, RNG state, and the epoch/stage cursor — written
//!   atomically (temp file + fsync + rename) and pruned to the newest
//!   `keep` files. A resumed run is bit-for-bit identical to an
//!   uninterrupted one.
//! - **Divergence guards** ([`TrainSession`], [`GuardConfig`]): every
//!   epoch is checked for NaN/Inf loss, loss spikes, and exploding
//!   gradient norms; a violation rolls the model back to the last good
//!   state, backs off the learning rate, and retries within a bounded
//!   budget, surfacing [`TrainError`] when the budget is exhausted.
//!   Checkpoints are validated on load — envelope version and checksum,
//!   a model and optimizer state that decode (mis-shaped or non-finite
//!   parameters refuse at decode), and the optimizer contract — falling
//!   back to older checkpoints on corruption.
//! - **Fault injection** ([`FaultPlan`], `fault-inject` feature):
//!   deterministic, named injection points — kill a worker thread,
//!   poison a gradient with NaN, corrupt a checkpoint file — so the
//!   recovery paths are tested, not hoped for.
//!
//! [`TrainSession`] is the guarded epoch loop around
//! `gcnt_core::epoch_grads`; [`MultiStageTrainer`] drives
//! `gcnt_core::CascadeTraining` — the stage stepper
//! `MultiStageGcn::train` drives too — with a `TrainSession` per stage,
//! checkpointing at epoch and stage granularity.
//!
//! # Examples
//!
//! Guarded training with checkpoints, then a bit-identical resume:
//!
//! ```no_run
//! use gcnt_core::{GraphData, MultiStageConfig};
//! use gcnt_runtime::{CheckpointStore, MultiStageTrainer};
//! # fn get_training_data() -> Vec<GraphData> { unimplemented!() }
//!
//! let graphs = get_training_data();
//! let refs: Vec<&GraphData> = graphs.iter().collect();
//! let store = CheckpointStore::open("checkpoints", 3)?;
//! let mut trainer = MultiStageTrainer::new(MultiStageConfig::default());
//! trainer.store = Some(&store);
//! trainer.resume = true; // picks up where a killed run left off
//! let outcome = trainer.run(&refs)?;
//! println!("trained {} stages", outcome.model.stages().len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod checkpoint;
mod fault;
mod guard;
mod multistage;

pub use checkpoint::{
    checksum_hex, fnv1a64, CheckpointError, CheckpointStore, TrainState, CHECKPOINT_VERSION,
};
pub use fault::FaultPlan;
#[cfg(feature = "fault-inject")]
pub use fault::{flip_byte, truncate_file};
pub use guard::{
    DivergenceCause, GuardConfig, GuardedOutcome, RollbackEvent, TrainError, TrainSession,
};
pub use multistage::{MultiStageOutcome, MultiStageTrainer};
