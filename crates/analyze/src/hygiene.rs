//! Source-hygiene rules rustc cannot check: atomics orderings
//! (`SA301`/`SA302`) and fault-injection feature gating (`SA501`).
//!
//! The atomics rules hold repo-wide, and an `// ORDERING:` comment on or
//! just above the site is the only exemption.

use crate::registry::RuleId;
use crate::report::Finding;
use crate::source::SourceFile;

/// How many lines above a site a justification comment may sit.
const JUSTIFY_WINDOW: usize = 3;

/// Runs all hygiene rules over `files`.
pub fn check_hygiene(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        check_atomics(file, &mut findings);
        if file.path == "crates/runtime/src/fault.rs" {
            check_fault_gating(file, &mut findings);
        }
    }
    findings
}

/// `SA301` repo-wide: `SeqCst` is the sledgehammer ordering and nothing
/// in this workspace needs it — any use must say why with
/// `// ORDERING:`. `SA302` in `crates/obs/src`: the metric record paths
/// promise "a plain load and a predictable branch", so Acquire/Release
/// there also need an `// ORDERING:` justification. `SeqCst` inside obs
/// fires only `SA301` (the stronger complaint), not both.
fn check_atomics(file: &SourceFile, findings: &mut Vec<Finding>) {
    let in_obs = file.path.starts_with("crates/obs/src/");
    for i in 0..file.lines.len() {
        let code = &file.lines[i].code;
        let justified = file.justified(i, JUSTIFY_WINDOW, "ORDERING:");
        if code.contains("Ordering::SeqCst") && !justified {
            findings.push(Finding::new(
                RuleId::AtomicsSeqCstUnjustified,
                &file.path,
                i + 1,
                "`Ordering::SeqCst` without an adjacent `// ORDERING:` justification",
            ));
        } else if in_obs
            && !file.test_lines[i]
            && ["Ordering::Acquire", "Ordering::Release", "Ordering::AcqRel"]
                .iter()
                .any(|o| code.contains(o))
            && !justified
        {
            findings.push(Finding::new(
                RuleId::AtomicsObsNotRelaxed,
                &file.path,
                i + 1,
                "non-Relaxed ordering in an obs record path without `// ORDERING:`",
            ));
        }
    }
}

/// `SA501`: in `fault.rs`, every `FaultPlan` field and every `with_*`
/// builder must sit under `#[cfg(feature = "fault-inject")]` so
/// production builds carry no fault state at all.
fn check_fault_gating(file: &SourceFile, findings: &mut Vec<Finding>) {
    // Fields: lines inside the `struct FaultPlan { ... }` braces.
    if let Some(start) = file
        .lines
        .iter()
        .position(|l| l.code.contains("struct FaultPlan"))
    {
        let mut depth = 0i64;
        for i in start..file.lines.len() {
            for c in file.lines[i].code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            let t = file.lines[i].code.trim();
            let is_field = i > start && depth > 0 && !t.is_empty() && !t.starts_with('#');
            if is_field && !file.gated_lines[i] {
                findings.push(Finding::new(
                    RuleId::FaultInjectUngated,
                    &file.path,
                    i + 1,
                    "FaultPlan field outside `#[cfg(feature = \"fault-inject\")]`",
                ));
            }
            if i > start && depth == 0 {
                break;
            }
        }
    }
    // Builders: any `fn with_*` must be in a gated span.
    for i in 0..file.lines.len() {
        let code = &file.lines[i].code;
        if code.contains("fn with_") && !file.gated_lines[i] && !file.test_lines[i] {
            findings.push(Finding::new(
                RuleId::FaultInjectUngated,
                &file.path,
                i + 1,
                "fault builder outside `#[cfg(feature = \"fault-inject\")]`",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_hygiene(&[SourceFile::parse(path, src)])
    }

    #[test]
    fn seqcst_needs_ordering_comment() {
        let bad = run("crates/x/src/a.rs", "x.store(1, Ordering::SeqCst);\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, RuleId::AtomicsSeqCstUnjustified);
        let good = run(
            "crates/x/src/a.rs",
            "// ORDERING: total order needed across three flags\nx.store(1, Ordering::SeqCst);\n",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn obs_must_stay_relaxed() {
        let bad = run("crates/obs/src/a.rs", "x.store(1, Ordering::Release);\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, RuleId::AtomicsObsNotRelaxed);
        // Outside obs, Release is fine.
        assert!(run("crates/serve/src/a.rs", "x.store(1, Ordering::Release);\n").is_empty());
        // Relaxed in obs is the expected case.
        assert!(run("crates/obs/src/a.rs", "x.load(Ordering::Relaxed);\n").is_empty());
        // SeqCst in obs fires SA301 only, not both.
        let seq = run("crates/obs/src/a.rs", "x.store(1, Ordering::SeqCst);\n");
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].rule, RuleId::AtomicsSeqCstUnjustified);
    }

    #[test]
    fn fault_plan_fields_must_be_gated() {
        let src = "pub struct FaultPlan {\n\
                       #[cfg(feature = \"fault-inject\")]\n\
                       gated: bool,\n\
                       ungated: bool,\n\
                   }\n\
                   impl FaultPlan {\n\
                       pub fn with_bad(mut self) -> Self { self }\n\
                   }\n";
        let findings = run("crates/runtime/src/fault.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.rule == RuleId::FaultInjectUngated));
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[1].line, 7);
        // The same shapes in another file are not this rule's business.
        assert!(run("crates/runtime/src/other.rs", src).is_empty());
    }
}
