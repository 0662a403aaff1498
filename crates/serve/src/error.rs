//! Typed errors of the serving layer.

use std::fmt;

use gcnt_dft::flow::FlowError;
use gcnt_tensor::TensorError;

/// Errors produced by the inference/flow service.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control rejected the request: the bounded queue is full
    /// (or fault injection saturated it). The caller should back off and
    /// resubmit; nothing was enqueued and no work was started.
    Overloaded {
        /// The queue's capacity at rejection time.
        capacity: usize,
    },
    /// The request could not be loaded: its design fails validation (bad
    /// arity, combinational cycle) or cannot be featurised, or the served
    /// model has no stages. Refused on the first attempt — nothing
    /// retries it — and the core keeps serving.
    Load(String),
    /// The write-ahead journal could not be read, verified, or appended
    /// to.
    Journal(String),
    /// The page store backing journal compaction or warm-restart
    /// embeddings failed in a way that cannot be healed in place —
    /// a missing or corrupt journal segment, a failed commit, or a
    /// full disk. Never silent: anything the store *can* recover
    /// (torn tails, quarantined pages) is handled before this fires.
    Store(String),
    /// A journaled flow job failed. Batches the journal captured before
    /// the failure stay committed; a rerun resumes from them.
    Flow(FlowError),
    /// An inference request failed on the final (unbudgeted) ladder rung —
    /// a real model/graph error, not deadline pressure.
    Tensor(TensorError),
    /// The worker thread behind a [`crate::ServeHandle`] is gone; the
    /// request's reply will never arrive.
    WorkerGone,
    /// The worker thread could not be spawned — OS thread limits or
    /// memory exhaustion at startup.
    Spawn(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "service overloaded: request queue at capacity {capacity}"
                )
            }
            ServeError::Load(e) => write!(f, "load failed: {e}"),
            ServeError::Journal(e) => write!(f, "journal error: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Flow(e) => write!(f, "flow job failed: {e}"),
            ServeError::Tensor(e) => write!(f, "inference failed: {e}"),
            ServeError::WorkerGone => write!(f, "serve worker thread is gone"),
            ServeError::Spawn(e) => write!(f, "could not start serve worker: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Flow(e) => Some(e),
            ServeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FlowError> for ServeError {
    fn from(e: FlowError) -> Self {
        ServeError::Flow(e)
    }
}

#[doc(hidden)]
impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Overloaded { capacity: 4 }
            .to_string()
            .contains("capacity 4"));
        let e = ServeError::Tensor(TensorError::Cancelled);
        assert!(std::error::Error::source(&e).is_some());
    }
}
