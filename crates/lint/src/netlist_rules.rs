//! Structural netlist rules (`NL...`).

use gcnt_netlist::{CellKind, Netlist, NodeId, Violation};

use crate::report::{LintReport, RuleId};

/// Cap on findings recorded per rule per run, so a systematically broken
/// artifact produces a readable report instead of thousands of lines.
pub(crate) const MAX_FINDINGS_PER_RULE: usize = 16;

pub(crate) struct Capped<'r> {
    report: &'r mut LintReport,
    rule: RuleId,
    context: &'static str,
    seen: usize,
}

impl<'r> Capped<'r> {
    pub(crate) fn new(report: &'r mut LintReport, rule: RuleId, context: &'static str) -> Self {
        Capped {
            report,
            rule,
            context,
            seen: 0,
        }
    }

    pub(crate) fn report(&mut self, message: impl Into<String>) {
        self.seen += 1;
        if self.seen <= MAX_FINDINGS_PER_RULE {
            self.report.report(self.rule, self.context, message);
        }
    }
}

impl Drop for Capped<'_> {
    fn drop(&mut self) {
        if self.seen > MAX_FINDINGS_PER_RULE {
            self.report.report(
                self.rule,
                self.context,
                format!(
                    "... and {} more finding(s) of this rule suppressed",
                    self.seen - MAX_FINDINGS_PER_RULE
                ),
            );
        }
    }
}

fn describe(node: NodeId, kind: CellKind) -> String {
    format!("node {} ({kind:?})", node.index())
}

/// The findings for a design that failed to build, from the validator's
/// [`NetlistError::Invalid`](gcnt_netlist::NetlistError::Invalid) list:
/// `NL002` (bad arity) for each cell with too few or too many drivers,
/// `NL004` (floating input) for each cell that needs drivers and has none,
/// and `NL001` (combinational cycle) naming a node on the cycle.
pub fn lint_violations(violations: &[Violation]) -> LintReport {
    let mut report = LintReport::new();
    let bad_arity = || {
        violations.iter().filter_map(|v| match *v {
            Violation::BadArity { node, kind, fanins } => Some((node, kind, fanins)),
            Violation::Cycle { .. } => None,
        })
    };
    {
        let mut arity = Capped::new(&mut report, RuleId::BadArity, "netlist");
        for (node, kind, n) in bad_arity().filter(|&(.., n)| n > 0) {
            let (lo, hi) = kind.arity();
            arity.report(format!(
                "{} has {n} fanin(s), expected {}",
                describe(node, kind),
                if hi == usize::MAX {
                    format!(">= {lo}")
                } else if lo == hi {
                    format!("exactly {lo}")
                } else {
                    format!("{lo}..={hi}")
                }
            ));
        }
    }
    {
        let mut floating = Capped::new(&mut report, RuleId::FloatingInput, "netlist");
        for (node, kind, _) in bad_arity().filter(|&(.., n)| n == 0) {
            floating.report(format!("{} has no drivers", describe(node, kind)));
        }
    }
    for v in violations {
        if let Violation::Cycle { node, kind } = *v {
            report.report(
                RuleId::CombinationalCycle,
                "netlist",
                format!("combinational cycle through {}", describe(node, kind)),
            );
        }
    }
    report
}

/// `NL003` (dangling net): the one structural rule a built [`Netlist`] can
/// still fire. The other three are the validator's refusals, which
/// [`lint_violations`] reports.
pub fn lint_netlist(net: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    {
        let mut dangling = Capped::new(&mut report, RuleId::DanglingNet, "netlist");
        for v in net.nodes() {
            if net.fanout(v).is_empty() && !net.kind(v).is_pseudo_output() {
                dangling.report(format!("{} drives nothing", describe(v, net.kind(v))));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{format, generate, GeneratorConfig, NetlistError};

    fn violations(text: &str) -> Vec<Violation> {
        match format::read(text) {
            Err(NetlistError::Invalid(v)) => v,
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn clean_generated_netlist_has_no_findings() {
        let report = lint_netlist(&generate(&GeneratorConfig::sized("clean", 6, 80)));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn floating_input_fires_nl004_not_nl002() {
        let report = lint_violations(&violations("INPUT(a)\ny = NOT()\nOUTPUT(y)"));
        assert!(report.fired(RuleId::FloatingInput));
        assert!(!report.fired(RuleId::BadArity));
    }

    #[test]
    fn single_fanin_and_fires_nl002() {
        let report = lint_violations(&violations("INPUT(a)\ny = AND(a)\nOUTPUT(y)"));
        assert!(report.fired(RuleId::BadArity));
    }

    #[test]
    fn unused_gate_fires_nl003_warning_only() {
        let net = format::read("INPUT(a)\nINPUT(b)\ng = AND(a, b)").unwrap();
        let report = lint_netlist(&net);
        assert!(report.fired(RuleId::DanglingNet));
        assert!(!report.has_errors());
    }

    #[test]
    fn back_edge_fires_nl001() {
        let text = "INPUT(a)\ng1 = AND(a, g2)\ng2 = AND(g1, a)\nOUTPUT(g2)";
        let report = lint_violations(&violations(text));
        assert!(report.fired(RuleId::CombinationalCycle));
    }

    #[test]
    fn findings_are_capped_per_rule() {
        let mut text = String::new();
        for i in 0..3 * MAX_FINDINGS_PER_RULE {
            text.push_str(&format!("g{i} = NOT()\n"));
        }
        let report = lint_violations(&violations(&text));
        let floating = report
            .findings()
            .iter()
            .filter(|f| f.rule == RuleId::FloatingInput)
            .count();
        assert_eq!(floating, MAX_FINDINGS_PER_RULE + 1); // findings + summary
    }
}
