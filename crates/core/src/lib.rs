//! High-performance graph convolutional network for netlist testability
//! analysis — the core contribution of the DAC'19 paper.
//!
//! The model classifies every cell of a netlist as *difficult-to-observe*
//! (positive) or *easy-to-observe* (negative):
//!
//! 1. Node attributes `[LL, C0, C1, O]` are assembled by [`features`].
//! 2. [`Gcn`] computes node embeddings with `D` rounds of *aggregate*
//!    (weighted sum over predecessors and successors with learned scalars
//!    `w_pr` / `w_su`, Eq. (1)) and *encode* (`E_d = ReLU(G_d W_d)`), then
//!    classifies with a 4-layer FC head (Fig. 1 / Alg. 1).
//! 3. Inference is formulated as sparse matrix products over the COO/CSR
//!    adjacency ([`GraphTensors`]), which is what makes the model scale to
//!    millions of cells (§3.4.1, Fig. 10). The recursion-based baseline it
//!    is compared against lives in [`recursive`]. Every inference pass
//!    runs one row-tiled layer step ([`pass`]): aggregate → encode → ReLU
//!    (→ head → softmax) per tile of [`pass::TILE_ROWS`] rows over reusable
//!    buffers, tiles in parallel, so a pass materialises no `n`-row
//!    transient and a 10^6-node design is a seconds-long job.
//! 4. [`MultiStageGcn`] implements the imbalance-handling cascade of §3.3.
//! 5. [`incremental`] caches per-layer embeddings and, when only a few
//!    nodes change (an OP-insertion preview or commit), recomputes just the
//!    D-hop halo around them — bit-identical to a full pass.
//! 6. [`train`] implements training: every epoch runs one worker per
//!    graph and gathers their gradients (§3.4.2).
//!
//! # Examples
//!
//! ```
//! use gcnt_core::{Gcn, GcnConfig, GraphData};
//! use gcnt_netlist::{generate, GeneratorConfig};
//!
//! let net = generate(&GeneratorConfig::sized("demo", 1, 600));
//! let data = GraphData::from_netlist(&net, None)?;
//! let gcn = Gcn::new(&GcnConfig::default(), &mut gcnt_nn::seeded_rng(0));
//! let logits = gcn.predict(&data.tensors, &data.features)?;
//! assert_eq!(logits.rows(), net.node_count());
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

mod adjacency;
pub mod backend;
mod dataset;
pub mod features;
pub mod incremental;
pub mod metrics;
mod model;
mod multistage;
pub mod pass;
pub mod recursive;
pub mod train;

pub use adjacency::GraphTensors;
pub use backend::{MatrixBackend, PartitionedGraph};
pub use dataset::{balanced_indices, train_test_rotation, GraphData};
pub use incremental::{CascadeSession, EmbeddingCache, EmbeddingDelta, SessionDelta};
pub use metrics::Confusion;
pub use model::{Gcn, GcnCache, GcnConfig, GcnGrads};
pub use multistage::{CascadeTraining, MultiStageConfig, MultiStageGcn, OpenStage, StageReport};
/// [`train()`] under the name `benchmark/src/workloads/train.rs` pins;
/// goes with the next `[benchmark]` edit.
pub use train::train as train_parallel;
pub use train::{
    apply_update, commit_epoch, epoch_grads, evaluate, masked_loss_grads, optimizer_for,
    EpochGrads, EpochStats, TrainConfig,
};
