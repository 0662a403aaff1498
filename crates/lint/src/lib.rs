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
//! | `EC001` | `embedding-cache-consistency` | error | incremental caches match their graph |
//!
//! The catalogue is available programmatically via [`registry::RULES`].
//!
//! The checksummed envelopes (checkpoint files, journal lines, store
//! pages, wire frames) are not linted here: each decoder checks its own
//! bytes and returns its own typed error, so a refusal never round-trips
//! through a report.
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

mod embedding_rules;
mod model_rules;
mod netlist_rules;
mod tensor_rules;

pub use embedding_rules::{lint_embedding_cache, lint_embedding_caches};
pub use model_rules::{lint_gcn, lint_linear, lint_mlp, lint_multistage};
pub use netlist_rules::{lint_levels, lint_netlist, lint_netlist_deep, lint_scoap};
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
