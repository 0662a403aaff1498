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
//!   versioned, checksummed cascade checkpoints — the model being
//!   trained, the stage's history, the cascade stepper's state (completed
//!   stages, active masks, reports, RNG) and the stage/epoch cursor —
//!   written atomically (temp file + fsync + rename) and pruned to the
//!   newest `keep` files. They are validated on load — envelope version
//!   and checksum, and a state that decodes (mis-shaped or non-finite
//!   parameters refuse at decode) — falling back to older checkpoints on
//!   corruption. A resumed run is bit-for-bit identical to an
//!   uninterrupted one.
//! - **Divergence guards**: every epoch is checked for NaN/Inf loss, loss
//!   spikes, and exploding gradient norms; a violation rolls the model
//!   back to the last good state, halves the learning rate, and retries,
//!   at most 8 times per stage, surfacing [`TrainError`] when the budget
//!   is exhausted.
//! - **Fault injection** ([`FaultPlan`]): deterministic, named
//!   injection points — kill a worker thread, poison a gradient with
//!   NaN, abort after a journal record — armed only by the plan's
//!   `with_*` builders in tests, so the recovery paths are tested, not
//!   hoped for.
//!
//! [`MultiStageTrainer`] is the one trainer that uses them: it drives
//! `gcnt_core::CascadeTraining` — the stage stepper `MultiStageGcn::train`
//! drives too — through a guarded epoch loop around
//! `gcnt_core::epoch_grads`, checkpointing at epoch and stage granularity.
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
//! trainer.checkpoint_every = 10; // and at every stage's end
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
pub use guard::{DivergenceCause, RollbackEvent, TrainError};
pub use multistage::{MultiStageOutcome, MultiStageTrainer};
