//! Gate-level netlist substrate for the GCN testability stack.
//!
//! The DAC'19 paper operates on industrial scan designs represented as
//! directed graphs: each node is a cell, each edge a wire, and each node
//! carries the attribute vector `[LL, C0, C1, O]` (logic level and SCOAP
//! controllability-0 / controllability-1 / observability). This crate
//! provides everything needed to produce such graphs from scratch:
//!
//! * [`Netlist`] — the cell graph itself, valid by construction: a
//!   [`NetlistBuilder`], the reader and the generator all end in one
//!   validator that checks arities, proves the combinational logic acyclic
//!   and keeps the topological order it found (DFFs are treated as scan
//!   cells, i.e. pseudo primary inputs/outputs, the standard full-scan DFT
//!   assumption).
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
//! use gcnt_netlist::{CellKind, NetlistBuilder, NetlistError};
//!
//! let mut builder = NetlistBuilder::new("adder_bit");
//! let a = builder.add_cell(CellKind::Input);
//! let b = builder.add_cell(CellKind::Input);
//! let x = builder.add_cell(CellKind::Xor);
//! let o = builder.add_cell(CellKind::Output);
//! builder.connect(a, x)?;
//! builder.connect(b, x)?;
//! let unfinished = builder.clone();
//! builder.connect(x, o)?;
//! let net = builder.build()?;
//! assert_eq!(net.node_count(), 4);
//! // Without the last wire the output marker floats, and nothing is built.
//! assert!(matches!(unfinished.build(), Err(NetlistError::Invalid(_))));
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
pub use graph::{Netlist, NetlistBuilder, NetlistStats, NodeId, Violation};
pub use levels::logic_levels;
pub use profile::{profile, NetlistProfile};
pub use scoap::{Scoap, SCOAP_INF};
