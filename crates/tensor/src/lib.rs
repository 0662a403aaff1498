//! Dense and sparse linear-algebra kernels used by the GCN testability stack.
//!
//! This crate is the numeric substrate of the workspace. It provides exactly
//! what the DAC'19 GCN needs and nothing more:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with a rayon-parallel GEMM,
//!   used for node-feature/embedding matrices and fully-connected layers.
//! * [`CsrMatrix`] — compressed sparse row matrix with a parallel
//!   sparse×dense product ([`CsrMatrix::spmm`]), the kernel behind the
//!   matrix-form inference `E_d = σ((A·E_{d-1})·W_d)` of §3.4.1. An
//!   observation-point insertion grows it in place
//!   ([`CsrMatrix::append_node`]).
//! * [`PartitionedCsr`] — the same adjacency sharded into contiguous
//!   fanout-balanced row blocks with per-partition halos, whose
//!   partition-parallel [`PartitionedCsr::spmm`] is bit-identical to the
//!   serial kernel. This is what makes 10^5–10^6-node designs tractable.
//! * [`kernel`] — the row kernels those products are built from; each
//!   product computes every element with the chain of the
//!   element-at-a-time loop, bit for bit, by construction.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]

mod budget;
mod csr;
mod dense;
mod error;
pub mod kernel;
pub mod ops;
mod partition;

pub use budget::Budget;
pub use csr::CsrMatrix;
pub use dense::Matrix;
pub use error::{Result, TensorError};
pub use partition::{PartitionPlan, PartitionScratch, PartitionedCsr};
/// The row-parallel primitive the products here run on, re-exported so a
/// crate above can run its row tiles on the same one: a direct edge to it
/// would rewrite `benchmark/Cargo.lock`, and goes with the next
/// `[benchmark]` edit.
pub use rayon;
