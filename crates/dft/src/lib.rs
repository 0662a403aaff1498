//! Design-for-test substrate: everything the paper gets from commercial
//! DFT/ATPG tools, built from scratch.
//!
//! * [`sim`] — 64-way parallel-pattern logic simulation of scan netlists.
//! * [`cpt`] — critical path tracing: per-pattern observability of every
//!   node in one backward pass. This is the fault-grading engine behind
//!   both the labeler and the ATPG.
//! * [`fault`] — collapsed stuck-at fault lists.
//! * [`atpg`] — random-pattern ATPG with per-pattern fault dropping;
//!   reports pattern counts and fault coverage (the `#PAs` / `Coverage`
//!   columns of Table 3).
//! * [`labeler`] — produces the difficult-to-observe node labels the paper
//!   obtains "from commercial DFT tools" (§3.1), via random-pattern
//!   observability estimation (plus a faster SCOAP-threshold variant).
//! * [`baseline`] — testability-analysis-driven observation point
//!   insertion, standing in for the commercial tool of Table 3.
//! * [`flow`] — the paper's iterative GCN-guided OP insertion (§4), with
//!   impact evaluation (Fig. 6) and incremental graph updates.
//!
//! # Examples
//!
//! ```
//! use gcnt_dft::labeler::{label_difficult_to_observe, LabelConfig};
//! use gcnt_netlist::{generate, GeneratorConfig};
//!
//! let net = generate(&GeneratorConfig::sized("d", 3, 800));
//! let result = label_difficult_to_observe(&net, &LabelConfig::default())?;
//! assert_eq!(result.labels.len(), net.node_count());
//! # Ok::<(), gcnt_netlist::NetlistError>(())
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

pub mod atpg;
pub mod baseline;
pub mod cpt;
pub mod fault;
pub mod flow;
pub mod labeler;
pub mod report;
pub mod sim;
