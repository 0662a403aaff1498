//! Dense and sparse linear-algebra kernels used by the GCN testability stack.
//!
//! This crate is the numeric substrate of the workspace. It provides exactly
//! what the DAC'19 GCN needs and nothing more:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with a rayon-parallel GEMM,
//!   used for node-feature/embedding matrices and fully-connected layers.
//! * [`CooMatrix`] — coordinate-format sparse matrix. The paper stores the
//!   netlist adjacency in COO because observation-point insertion appends
//!   three `(value, row, col)` tuples per inserted point (§3.4.1 / §4).
//! * [`CsrMatrix`] — compressed sparse row matrix with a parallel
//!   sparse×dense product ([`CsrMatrix::spmm`]), the kernel behind the
//!   matrix-form inference `E_d = σ((A·E_{d-1})·W_d)` of §3.4.1.
//! * [`PartitionedCsr`] — the same adjacency sharded into contiguous
//!   fanout-balanced row blocks with per-partition halos, whose
//!   partition-parallel [`PartitionedCsr::spmm`] is bit-identical to the
//!   serial kernel. This is what makes 10^5–10^6-node designs tractable.
//! * [`kernel`] — the row kernels those products are built from; the
//!   dense GEMM row runs register-blocked, bit-identical by construction
//!   to the scalar reference ([`Kernel`]) the property tests compare it to.
//!
//! # Examples
//!
//! ```
//! use gcnt_tensor::{CooMatrix, Matrix};
//!
//! // A tiny 2-node graph: edge 0 -> 1, plus self loops.
//! let mut a = CooMatrix::new(2, 2);
//! a.push(0, 0, 1.0);
//! a.push(1, 1, 1.0);
//! a.push(1, 0, 0.5); // node 1 aggregates node 0 with weight 0.5
//! let a = a.to_csr();
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let g = a.spmm(&x).unwrap();
//! assert_eq!(g.get(1, 0), 3.5);
//! ```

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
mod coo;
mod csr;
mod dense;
mod error;
pub mod kernel;
pub mod ops;
mod partition;

pub use budget::Budget;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::Matrix;
pub use error::{Result, TensorError};
pub use kernel::Kernel;
pub use partition::{PartitionPlan, PartitionScratch, PartitionedCsr};
/// The row-parallel primitive the products here run on, re-exported so a
/// crate above can run its row tiles on the same one: a direct edge to it
/// would rewrite `benchmark/Cargo.lock`, and goes with the next
/// `[benchmark]` edit.
pub use rayon;
