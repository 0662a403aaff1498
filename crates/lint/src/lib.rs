//! `gcnt-lint`: static analysis of netlists and the sparse tensors built
//! from them.
//!
//! A [`Netlist`] is valid by construction, so a broken design never
//! becomes one: the reader refuses it with every violation it found, and
//! [`lint_violations`] turns that list into a full report — each violation
//! with a stable rule id — instead of the one line the error prints. A
//! design that builds gets the one structural warning left (`NL003`) and
//! a check of the graph tensors built from it.
//!
//! # Rule catalogue
//!
//! | Code | Slug | Severity | Checks |
//! |------|------|----------|--------|
//! | `NL001` | `combinational-cycle` | error | acyclic combinational logic (DFFs cut) |
//! | `NL002` | `bad-arity` | error | fanin counts within each cell kind's bounds |
//! | `NL003` | `dangling-net` | warning | non-output nodes that drive nothing |
//! | `NL004` | `floating-input` | error | nodes that require drivers but have none |
//! | `TS001` | `adjacency-netlist-mismatch` | error | graph tensors mirror the netlist |
//! | `TS002` | `csr-sorted-indices` | error | CSR structural invariants |
//! | `TS003` | `nan-or-inf-value` | error | finite sparse-matrix values |
//!
//! The catalogue is available programmatically via [`registry::RULES`].
//!
//! Everything else checks itself where it is made: model bundles and
//! checkpoints refuse bad shapes and non-finite parameters at decode, the
//! checksummed envelopes (checkpoint files, journal lines, store pages,
//! wire frames) verify their own bytes, and incremental caches refuse a
//! stale graph generation. None of those refusals round-trips through a
//! report.
//!
//! # Entry points
//!
//! - [`lint_violations`] — `NL001`/`NL002`/`NL004` for a design that
//!   failed to build.
//! - [`lint_netlist`] — `NL003` for a design that built.
//! - [`lint_csr`] / [`lint_graph_tensors`] — sparse matrices, standalone
//!   or against their netlist.
//! - [`lint_design`] — `NL003`, then freshly built tensors; with
//!   [`lint_violations`], this is what `gcnt lint` runs.
//!
//! # Examples
//!
//! ```
//! use gcnt_lint::{lint_violations, RuleId, Severity};
//! use gcnt_netlist::{CellKind, NetlistBuilder, NetlistError};
//!
//! let mut net = NetlistBuilder::new("demo");
//! let a = net.add_cell(CellKind::Input);
//! let g = net.add_cell(CellKind::And); // needs >= 2 fanins, gets 1
//! let o = net.add_cell(CellKind::Output);
//! net.connect(a, g)?;
//! net.connect(g, o)?;
//!
//! let Err(NetlistError::Invalid(violations)) = net.build() else {
//!     unreachable!("a one-input AND does not build");
//! };
//! let report = lint_violations(&violations);
//! assert!(report.fired(RuleId::BadArity));
//! assert_eq!(RuleId::BadArity.code(), "NL002");
//! assert!(report.count(Severity::Error) >= 1);
//! # Ok::<(), NetlistError>(())
//! ```

#![forbid(unsafe_code)]

pub mod registry;
pub mod report;

mod netlist_rules;
mod tensor_rules;

pub use netlist_rules::{lint_netlist, lint_violations};
pub use report::{Finding, LintReport, RuleId, Severity};
pub use tensor_rules::{lint_csr, lint_graph_tensors};

use gcnt_core::GraphTensors;
use gcnt_netlist::Netlist;

/// Runs every check a built design can fail: `NL003`, then freshly built
/// graph tensors (`TS001`–`TS003`).
pub fn lint_design(net: &Netlist) -> LintReport {
    let mut report = lint_netlist(net);
    report.merge(lint_graph_tensors(net, &GraphTensors::from_netlist(net)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig};

    #[test]
    fn lint_design_is_clean_on_generated_netlists() {
        for seed in ["a", "b", "c"] {
            let net = generate(&GeneratorConfig::sized(seed, 7, 90));
            let report = lint_design(&net);
            assert!(report.is_clean(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn every_rule_id_round_trips_through_the_registry() {
        for desc in registry::RULES {
            assert_eq!(RuleId::from_code(desc.code), Some(desc.id));
        }
    }
}
