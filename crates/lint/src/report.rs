//! Lint report types: severities, rule identifiers, findings, and the
//! machine-readable [`LintReport`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::registry;

/// Severity of a lint finding.
///
/// Ordered: `Info < Warning < Error`, so `max()` over findings yields the
/// worst severity of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but not necessarily wrong; does not fail a lint run.
    Warning,
    /// A hard invariant violation; fails the lint run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a lint rule.
///
/// Every rule has a fixed code (`NL001`, `TS002`, ...) and slug
/// (`combinational-cycle`, ...) that external tooling can rely on; see
/// [`crate::registry::RULES`] for the full catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `NL001 combinational-cycle`: the combinational logic (with DFFs
    /// cut) contains a cycle.
    CombinationalCycle,
    /// `NL002 bad-arity`: a cell's fanin count violates its kind's arity
    /// bounds, or an `Output` marker drives fanout.
    BadArity,
    /// `NL003 dangling-net`: a non-pseudo-output node drives nothing.
    DanglingNet,
    /// `NL004 floating-input`: a node that requires inputs has none.
    FloatingInput,
    /// `TS001 adjacency-netlist-mismatch`: graph tensors disagree with the
    /// netlist they were built from.
    AdjacencyNetlistMismatch,
    /// `TS002 csr-sorted-indices`: malformed sparse-matrix structure
    /// (unsorted/duplicate/out-of-bounds indices, broken indptr).
    CsrSortedIndices,
    /// `TS003 nan-or-inf-value`: a sparse-matrix value is NaN or infinite.
    NanOrInfValue,
}

impl RuleId {
    /// The stable rule code, e.g. `"NL001"`.
    pub fn code(self) -> &'static str {
        registry::rule(self).code
    }

    /// The stable rule slug, e.g. `"combinational-cycle"`.
    pub fn slug(self) -> &'static str {
        registry::rule(self).slug
    }

    /// The severity findings of this rule carry.
    pub fn severity(self) -> Severity {
        registry::rule(self).severity
    }

    /// Resolves a rule code (`"NL001"`) or slug back to its id.
    pub fn from_code(code: &str) -> Option<RuleId> {
        registry::RULES
            .iter()
            .find(|r| r.code == code || r.slug == code)
            .map(|r| r.id)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

// Rule ids serialize as their stable code so reports stay readable and
// stable across enum refactors.
impl Serialize for RuleId {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.code().to_string())
    }
}

impl Deserialize for RuleId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => RuleId::from_code(s)
                .ok_or_else(|| serde::Error::custom(format!("unknown rule code `{s}`"))),
            _ => Err(serde::Error::custom("expected rule code string")),
        }
    }
}

/// A single lint finding: one rule violation at one place.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Severity, copied from the rule's registry entry.
    pub severity: Severity,
    /// Which artifact was being checked, e.g. `"netlist"` or
    /// `"tensors.pred"`.
    pub context: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Creates a finding for `rule` with its registered severity.
    pub fn new(rule: RuleId, context: impl Into<String>, message: impl Into<String>) -> Self {
        Finding {
            rule,
            severity: rule.severity(),
            context: context.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}: {}",
            self.severity,
            self.rule.code(),
            self.rule.slug(),
            self.context,
            self.message
        )
    }
}

/// A machine-readable collection of lint findings.
///
/// Reports render to human text via `Display` and to JSON via
/// [`LintReport::to_json`]; `serde` round-trips preserve every field.
///
/// # Examples
///
/// A design with a gate that has no drivers does not build, and its
/// violations trip `NL004 floating-input`:
///
/// ```
/// use gcnt_lint::{lint_violations, RuleId};
/// use gcnt_netlist::{format, NetlistError};
///
/// let Err(NetlistError::Invalid(violations)) = format::read("y = NOT()") else {
///     unreachable!("a NOT gate with no fanin does not build");
/// };
/// let report = lint_violations(&violations);
/// assert!(report.fired(RuleId::FloatingInput));
/// assert!(report.has_errors());
/// ```
///
/// Clean designs produce empty reports:
///
/// ```
/// use gcnt_lint::lint_design;
/// use gcnt_netlist::{generate, GeneratorConfig};
///
/// let net = generate(&GeneratorConfig::sized("ok", 8, 100));
/// let report = lint_design(&net);
/// assert!(report.is_clean(), "{report}");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    findings: Vec<Finding>,
}

impl LintReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Adds a finding for `rule` with its registered severity.
    pub fn report(&mut self, rule: RuleId, context: impl Into<String>, message: impl Into<String>) {
        self.push(Finding::new(rule, context, message));
    }

    /// Appends all findings of another report.
    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
    }

    /// All findings, in the order they were recorded.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Whether no findings were recorded at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether any `Error`-severity finding was recorded.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether the given rule fired at least once.
    pub fn fired(&self, rule: RuleId) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        writeln!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn rule_codes_resolve_both_ways() {
        for desc in registry::RULES {
            assert_eq!(RuleId::from_code(desc.code), Some(desc.id));
            assert_eq!(RuleId::from_code(desc.slug), Some(desc.id));
            assert_eq!(desc.id.code(), desc.code);
        }
        assert_eq!(RuleId::from_code("XX999"), None);
    }

    #[test]
    fn report_counts_and_queries() {
        let mut report = LintReport::new();
        assert!(report.is_clean());
        report.report(RuleId::DanglingNet, "netlist", "node 3 drives nothing");
        report.report(RuleId::CombinationalCycle, "netlist", "cycle at node 5");
        assert!(!report.is_clean());
        assert!(report.has_errors());
        assert_eq!(report.count(Severity::Warning), 1);
        assert!(report.fired(RuleId::DanglingNet));
        assert!(!report.fired(RuleId::NanOrInfValue));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = LintReport::new();
        report.report(RuleId::CsrSortedIndices, "tensors.pred", "row 2 unsorted");
        let json = report.to_json();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.findings().len(), 1);
        assert_eq!(back.findings()[0].rule, RuleId::CsrSortedIndices);
        assert_eq!(back.findings()[0].severity, Severity::Error);
        assert!(json.contains("TS002"));
    }

    #[test]
    fn display_renders_summary_line() {
        let mut report = LintReport::new();
        report.report(RuleId::NanOrInfValue, "tensors.pred", "value is NaN");
        let text = report.to_string();
        assert!(text.contains("TS003"));
        assert!(text.contains("1 error(s)"));
        assert!(LintReport::new().to_string().contains("no findings"));
    }
}
