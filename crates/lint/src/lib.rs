//! `gcnt-lint`: cross-crate static analysis for the GCN testability
//! workspace.
//!
//! The workspace moves data across three representation boundaries —
//! netlist graph → sparse adjacency tensors → model parameters — and a
//! corruption on any side (a stale tensor after an insertion, a NaN in a
//! checkpoint, an unsorted CSR row) surfaces far downstream as a wrong
//! prediction or a panic in a hot kernel. This crate checks the
//! invariants at each boundary and reports violations with stable rule
//! ids instead of panicking.
//!
//! # Rule catalogue
//!
//! | Code | Slug | Severity | Checks |
//! |------|------|----------|--------|
//! | `NL001` | `combinational-cycle` | error | acyclic combinational logic (DFFs cut) |
//! | `NL002` | `bad-arity` | error | fanin counts within each cell kind's bounds |
//! | `NL003` | `dangling-net` | warning | non-output nodes that drive nothing |
//! | `NL004` | `floating-input` | error | nodes that require drivers but have none |
//! | `NL005` | `level-monotonicity` | error | stored logic levels = 1 + max fanin level |
//! | `NL006` | `scoap-range` | error | SCOAP measures within their legal ranges |
//! | `TS001` | `adjacency-netlist-mismatch` | error | graph tensors mirror the netlist |
//! | `TS002` | `csr-sorted-indices` | error | CSR structural invariants |
//! | `TS003` | `nan-or-inf-value` | error | finite sparse-matrix values |
//! | `MD001` | `weight-nan` | error | finite model parameters |
//! | `MD002` | `layer-shape-mismatch` | error | adjacent model layers chain |
//! | `CK001` | `checkpoint-checksum-mismatch` | error | checkpoint payload integrity |
//! | `CK002` | `checkpoint-version-unsupported` | error | checkpoint format version known |
//! | `CK003` | `checkpoint-missing-state` | error | resume state sections present |
//! | `EC001` | `embedding-cache-consistency` | error | incremental caches match their graph |
//! | `JN001` | `journal-record-checksum-mismatch` | error | journal record payload integrity |
//! | `JN002` | `journal-sequence-gap` | error | journal records consecutively numbered |
//! | `JN003` | `journal-growth-cap` | warning | journal within its record/byte caps |
//! | `PG001` | `page-checksum-mismatch` | error | store page integrity (magic/length/checksum) |
//! | `PG002` | `store-version-unsupported` | error | store metadata format version known |
//! | `PG003` | `segment-page-missing` | error | segment page refs within committed count |
//! | `NT001` | `frame-envelope-broken` | error | wire frame envelope integrity (magic/length-cap/checksum) |
//! | `NT002` | `frame-version-unsupported` | error | wire frame protocol version known |
//!
//! The catalogue is available programmatically via [`registry::RULES`].
//!
//! # Entry points
//!
//! - [`lint_netlist`] / [`lint_netlist_deep`] — graph structure, plus
//!   derived logic levels and SCOAP measures.
//! - [`lint_levels`] / [`lint_scoap`] — externally stored per-node
//!   vectors against the graph.
//! - [`lint_csr`] / [`lint_graph_tensors`] — sparse
//!   matrices, standalone or against their netlist.
//! - [`lint_linear`] / [`lint_mlp`] / [`lint_gcn`] / [`lint_multistage`]
//!   — model parameters, e.g. after loading a checkpoint.
//! - [`lint_checkpoint_meta`] / [`lint_optimizer_shape`] — checkpoint
//!   file metadata (checksum, version, required state sections).
//! - [`lint_journal_records`] / [`lint_journal_growth`] — a recovered
//!   write-ahead journal record stream, validated before a killed flow
//!   job is replayed, and the journal's size against configured caps.
//! - [`lint_frame`] — one wire-frame envelope (magic, length cap,
//!   payload checksum, protocol version), refused by the net layer
//!   before any payload byte is trusted.
//! - [`lint_store_pages`] / [`lint_store_segments`] /
//!   [`lint_store_version`] — paged-store integrity summaries, driven by
//!   `gcnt store scrub`.
//! - [`lint_embedding_cache`] / [`lint_embedding_caches`] — incremental
//!   inference caches against their graph, checked by the flow after
//!   every insertion batch.
//! - [`lint_design`] — everything derivable from a netlist in one call;
//!   this is what `gcnt lint` runs.
//!
//! # Examples
//!
//! ```
//! use gcnt_lint::{lint_design, RuleId, Severity};
//! use gcnt_netlist::{CellKind, Netlist};
//!
//! let mut net = Netlist::new("demo");
//! let a = net.add_cell(CellKind::Input);
//! let g = net.add_cell(CellKind::And); // needs >= 2 fanins, gets 1
//! let o = net.add_cell(CellKind::Output);
//! net.connect(a, g)?;
//! net.connect(g, o)?;
//!
//! let report = lint_design(&net);
//! assert!(report.fired(RuleId::BadArity));
//! assert_eq!(RuleId::BadArity.code(), "NL002");
//! assert!(report.count(Severity::Error) >= 1);
//! # Ok::<(), gcnt_netlist::NetlistError>(())
//! ```

pub mod registry;
pub mod report;

mod checkpoint_rules;
mod embedding_rules;
mod journal_rules;
mod model_rules;
mod net_rules;
mod netlist_rules;
mod page_rules;
mod tensor_rules;

pub use checkpoint_rules::{lint_checkpoint_meta, lint_optimizer_shape, CheckpointMeta};
pub use embedding_rules::{lint_embedding_cache, lint_embedding_caches};
pub use journal_rules::{
    lint_journal_growth, lint_journal_records, JournalCaps, JournalRecordMeta,
};
pub use model_rules::{lint_gcn, lint_linear, lint_mlp, lint_multistage};
pub use net_rules::{lint_frame, FrameCaps, FrameMeta};
pub use netlist_rules::{lint_levels, lint_netlist, lint_netlist_deep, lint_scoap};
pub use page_rules::{
    lint_store_pages, lint_store_segments, lint_store_version, PageMeta, SegmentMeta,
};
pub use report::{Finding, LintReport, RuleId, Severity};
pub use tensor_rules::{lint_csr, lint_graph_tensors};

use gcnt_core::GraphTensors;
use gcnt_netlist::Netlist;

/// Runs every netlist-derivable check: structure (`NL001`–`NL004`),
/// derived logic levels and SCOAP measures (`NL005`, `NL006`), and —
/// when the structure is sound — freshly built graph tensors
/// (`TS001`–`TS003`).
///
/// Derived artifacts are only linted on structurally sound netlists;
/// structural errors would make every downstream rule fire noisily for
/// the same root cause.
pub fn lint_design(net: &Netlist) -> LintReport {
    let mut report = lint_netlist_deep(net);
    if !report.has_errors() {
        let tensors = GraphTensors::from_netlist(net);
        report.merge(lint_graph_tensors(net, &tensors));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, CellKind, GeneratorConfig};

    #[test]
    fn lint_design_is_clean_on_generated_netlists() {
        for seed in ["a", "b", "c"] {
            let net = generate(&GeneratorConfig::sized(seed, 7, 90));
            let report = lint_design(&net);
            assert!(report.is_clean(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn lint_design_skips_derived_checks_on_broken_structure() {
        let mut net = Netlist::new("broken");
        net.add_cell(CellKind::Not); // floating input
        let report = lint_design(&net);
        assert!(report.fired(RuleId::FloatingInput));
        // No TS/NL005/NL006 noise from the same root cause.
        assert!(!report.fired(RuleId::AdjacencyNetlistMismatch));
        assert!(!report.fired(RuleId::LevelMonotonicity));
    }

    #[test]
    fn every_rule_id_round_trips_through_the_registry() {
        for desc in registry::RULES {
            assert_eq!(RuleId::from_code(desc.code), Some(desc.id));
        }
    }
}
