//! Structural netlist rules (`NL...`).

use gcnt_netlist::{CellKind, Netlist, NetlistError, NodeId};

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

fn describe(net: &Netlist, v: NodeId) -> String {
    format!("node {} ({:?})", v.index(), net.kind(v))
}

/// Deep structural check of a netlist: fires `NL001` (combinational
/// cycle), `NL002` (bad arity), `NL003` (dangling net), and `NL004`
/// (floating input).
///
/// This subsumes [`Netlist::validate`] — everything `validate` rejects is
/// reported here with a rule id, plus the dangling-net warning that
/// `validate` does not check.
pub fn lint_netlist(net: &Netlist) -> LintReport {
    let mut report = LintReport::new();

    {
        let mut arity = Capped::new(&mut report, RuleId::BadArity, "netlist");
        for v in net.nodes() {
            let kind = net.kind(v);
            let (lo, hi) = kind.arity();
            let n = net.fanin(v).len();
            if n == 0 && lo > 0 {
                continue; // NL004's carve-out, reported below
            }
            if n < lo || n > hi {
                arity.report(format!(
                    "{} has {n} fanin(s), expected {}",
                    describe(net, v),
                    if hi == usize::MAX {
                        format!(">= {lo}")
                    } else if lo == hi {
                        format!("exactly {lo}")
                    } else {
                        format!("{lo}..={hi}")
                    }
                ));
            }
            if kind == CellKind::Output && !net.fanout(v).is_empty() {
                arity.report(format!(
                    "{} is an Output marker but drives {} sink(s)",
                    describe(net, v),
                    net.fanout(v).len()
                ));
            }
        }
    }

    {
        let mut floating = Capped::new(&mut report, RuleId::FloatingInput, "netlist");
        for v in net.nodes() {
            if net.fanin(v).is_empty() && net.kind(v).arity().0 > 0 {
                floating.report(format!("{} has no drivers", describe(net, v)));
            }
        }
    }

    {
        let mut dangling = Capped::new(&mut report, RuleId::DanglingNet, "netlist");
        for v in net.nodes() {
            if net.fanout(v).is_empty() && !net.kind(v).is_pseudo_output() {
                dangling.report(format!("{} drives nothing", describe(net, v)));
            }
        }
    }

    match net.topo_order() {
        Ok(_) => {}
        Err(NetlistError::CombinationalCycle { node }) => {
            report.report(
                RuleId::CombinationalCycle,
                "netlist",
                format!("combinational cycle through {}", describe(net, node)),
            );
        }
        Err(other) => {
            report.report(
                RuleId::CombinationalCycle,
                "netlist",
                format!("topological ordering failed: {other}"),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig};

    fn clean_net() -> Netlist {
        generate(&GeneratorConfig::sized("clean", 6, 80))
    }

    #[test]
    fn clean_generated_netlist_has_no_findings() {
        let report = lint_netlist(&clean_net());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn floating_input_fires_nl004_not_nl002() {
        let mut net = Netlist::new("floating");
        net.add_cell(CellKind::Not);
        let report = lint_netlist(&net);
        assert!(report.fired(RuleId::FloatingInput));
        assert!(!report.fired(RuleId::BadArity));
    }

    #[test]
    fn single_fanin_and_fires_nl002() {
        let mut net = Netlist::new("arity");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let report = lint_netlist(&net);
        assert!(report.fired(RuleId::BadArity));
    }

    #[test]
    fn unused_gate_fires_nl003_warning_only() {
        let mut net = Netlist::new("dangling");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::And);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        let report = lint_netlist(&net);
        assert!(report.fired(RuleId::DanglingNet));
        assert!(!report.has_errors());
    }

    #[test]
    fn back_edge_fires_nl001() {
        let mut net = Netlist::new("cycle");
        let a = net.add_cell(CellKind::Input);
        let g1 = net.add_cell(CellKind::And);
        let g2 = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g1).unwrap();
        net.connect(g1, g2).unwrap();
        net.connect(g2, g1).unwrap(); // back edge
        net.connect(a, g2).unwrap();
        net.connect(g2, o).unwrap();
        let report = lint_netlist(&net);
        assert!(report.fired(RuleId::CombinationalCycle));
    }

    #[test]
    fn findings_are_capped_per_rule() {
        let mut net = Netlist::new("many");
        for _ in 0..3 * MAX_FINDINGS_PER_RULE {
            net.add_cell(CellKind::Not);
        }
        let report = lint_netlist(&net);
        let floating = report
            .findings()
            .iter()
            .filter(|f| f.rule == RuleId::FloatingInput)
            .count();
        assert_eq!(floating, MAX_FINDINGS_PER_RULE + 1); // findings + summary
    }
}
