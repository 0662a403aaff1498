//! Findings and the analysis report.
//!
//! Mirrors the `gcnt-lint` report shape — stable rule codes, `is_clean`,
//! capped per-rule findings — but is dependency-free, so the JSON encoder
//! is hand-rolled here rather than borrowed from the serde shim. Every
//! finding is an error: a report that is not clean fails the gate.

use std::fmt;

use crate::registry::{rule, RuleId, RULES};

/// How many findings a single rule may report before the rest are
/// folded into a suppressed counter. Keeps a pathological tree from
/// drowning the report.
pub const MAX_FINDINGS_PER_RULE: usize = 20;

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Repo-relative path of the offending file or artifact.
    pub path: String,
    /// 1-based line number, or 0 for whole-artifact findings.
    pub line: usize,
    /// Human-readable detail for this site.
    pub message: String,
}

impl Finding {
    /// Builds a finding for `rule` at `path:line`.
    pub fn new(rule: RuleId, path: &str, line: usize, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// The full result of one analysis run.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// Findings in rule/path/line order, capped per rule.
    pub findings: Vec<Finding>,
    /// Per-rule counts of findings dropped past the cap, `(code, n)`.
    pub suppressed: Vec<(&'static str, usize)>,
    /// Number of source files analyzed.
    pub files_scanned: usize,
}

impl AnalyzeReport {
    /// Folds raw findings into the report, applying the per-rule cap.
    /// Findings are sorted by rule code, then path, then line.
    pub fn from_findings(mut findings: Vec<Finding>, files_scanned: usize) -> AnalyzeReport {
        findings.sort_by(|a, b| {
            rule(a.rule)
                .code
                .cmp(rule(b.rule).code)
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.line.cmp(&b.line))
        });
        let mut report = AnalyzeReport {
            files_scanned,
            ..AnalyzeReport::default()
        };
        for desc in RULES {
            let total = findings.iter().filter(|f| f.rule == desc.id).count();
            if total > MAX_FINDINGS_PER_RULE {
                report
                    .suppressed
                    .push((desc.code, total - MAX_FINDINGS_PER_RULE));
            }
        }
        for desc in RULES {
            report.findings.extend(
                findings
                    .iter()
                    .filter(|f| f.rule == desc.id)
                    .take(MAX_FINDINGS_PER_RULE)
                    .cloned(),
            );
        }
        report
    }

    /// True when nothing fired at all — the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.suppressed.is_empty()
    }

    /// Renders the report as a stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"clean\": {},\n  \"errors\": {},\n",
            self.files_scanned,
            self.is_clean(),
            !self.is_clean()
        ));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let desc = rule(f.rule);
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"slug\": \"{}\", \"severity\": \"error\", \
                 \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                desc.code,
                desc.slug,
                json_escape(&f.path),
                f.line,
                json_escape(&f.message)
            ));
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"suppressed\": {");
        for (i, (code, n)) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{code}\": {n}"));
        }
        out.push_str("}\n}\n");
        out
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(
                f,
                "analyze: clean ({} files scanned, {} rules)",
                self.files_scanned,
                RULES.len()
            );
        }
        for finding in &self.findings {
            let desc = rule(finding.rule);
            if finding.line == 0 {
                writeln!(
                    f,
                    "error: {} [{} {}] {}",
                    finding.path, desc.code, desc.slug, finding.message
                )?;
            } else {
                writeln!(
                    f,
                    "error: {}:{} [{} {}] {}",
                    finding.path, finding.line, desc.code, desc.slug, finding.message
                )?;
            }
        }
        for (code, n) in &self.suppressed {
            writeln!(f, "note: {n} further {code} findings suppressed")?;
        }
        let n = self.findings.len();
        writeln!(
            f,
            "analyze: {n} finding(s), {n} error(s), {} files scanned",
            self.files_scanned
        )
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sorts_and_counts() {
        let findings = vec![
            Finding::new(RuleId::AtomicsObsNotRelaxed, "b.rs", 2, "x"),
            Finding::new(RuleId::AtomicsSeqCstUnjustified, "z.rs", 9, "x"),
            Finding::new(RuleId::AtomicsSeqCstUnjustified, "a.rs", 1, "x"),
        ];
        let report = AnalyzeReport::from_findings(findings, 3);
        assert_eq!(report.findings[0].path, "a.rs");
        assert_eq!(report.findings[1].path, "z.rs");
        assert_eq!(report.findings[2].path, "b.rs");
        assert!(!report.is_clean());
        assert_eq!(report.findings[2].rule, RuleId::AtomicsObsNotRelaxed);
    }

    #[test]
    fn per_rule_cap_suppresses() {
        let findings: Vec<Finding> = (0..MAX_FINDINGS_PER_RULE + 5)
            .map(|i| Finding::new(RuleId::AtomicsSeqCstUnjustified, "a.rs", i + 1, "x"))
            .collect();
        let report = AnalyzeReport::from_findings(findings, 1);
        assert_eq!(report.findings.len(), MAX_FINDINGS_PER_RULE);
        assert_eq!(report.suppressed, vec![("SA301", 5)]);
        assert!(!report.is_clean());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let findings = vec![Finding::new(
            RuleId::AtomicsSeqCstUnjustified,
            "crates/x/src/a.rs",
            7,
            "SeqCst with \"quotes\"",
        )];
        let report = AnalyzeReport::from_findings(findings, 1);
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"SA301\""));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"errors\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
