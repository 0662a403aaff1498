//! Gate-level netlist substrate for the GCN testability stack.
//!
//! The DAC'19 paper operates on industrial scan designs represented as
//! directed graphs: each node is a cell, each edge a wire, and each node
//! carries the attribute vector `[LL, C0, C1, O]` (logic level and SCOAP
//! controllability-0 / controllability-1 / observability). This crate
//! provides everything needed to produce such graphs from scratch:
//!
//! * [`Netlist`] — the cell graph itself, with validation and topological
//!   ordering (DFFs are treated as scan cells, i.e. pseudo primary
//!   inputs/outputs, the standard full-scan DFT assumption).
//! * [`Scoap`] — SCOAP testability measures with incremental observability
//!   refresh after test-point insertion (paper §4).
//! * [`generate`] / [`GeneratorConfig`] — a seeded synthetic design
//!   generator that stands in for the paper's industrial 12nm designs,
//!   including *observability-shadow* structures that create the
//!   difficult-to-observe minority class.
//! * [`mod@format`] — a plain-text ISCAS-89-style reader/writer so designs can
//!   be persisted and inspected.
//! * The observation-point insertion primitive
//!   ([`Netlist::insert_observation_point`]).
//!
//! # Examples
//!
//! ```
//! use gcnt_netlist::{CellKind, Netlist};
//!
//! let mut net = Netlist::new("adder_bit");
//! let a = net.add_cell(CellKind::Input);
//! let b = net.add_cell(CellKind::Input);
//! let x = net.add_cell(CellKind::Xor);
//! let o = net.add_cell(CellKind::Output);
//! net.connect(a, x)?;
//! net.connect(b, x)?;
//! net.connect(x, o)?;
//! net.validate()?;
//! assert_eq!(net.node_count(), 4);
//! # Ok::<(), gcnt_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]

mod cell;
mod error;
pub mod format;
mod generator;
mod graph;
mod levels;
mod profile;
mod scoap;

pub use cell::CellKind;
pub use error::{NetlistError, Result};
pub use generator::{generate, DesignPreset, GeneratorConfig};
pub use graph::{Netlist, NetlistStats, NodeId};
pub use levels::logic_levels;
pub use profile::{profile, NetlistProfile};
pub use scoap::{Scoap, SCOAP_INF};
