//! Cross-artifact consistency rules (`SA601`–`SA604`).
//!
//! The repo commits several generated-looking artifacts next to the code
//! that defines them: the golden metric-key list, the benchmark's
//! declared metrics, the README rule tables, the changelog. Each pair can
//! drift silently — a metric renamed but the golden stale, a documented
//! number citing a metric the benchmark no longer emits, a lint rule
//! undocumented. These rules re-derive each artifact's
//! expected content from its source of truth and report the diff.
//!
//! Everything here parses *text* with the same light touch as the rest
//! of the analyzer: no serde, no syn — the formats are all
//! machine-written and line-regular, and a parse miss degrades into a
//! reported inconsistency rather than a crash.

use std::collections::BTreeSet;

use crate::registry::{RuleId, RULES};
use crate::report::Finding;

/// The artifact texts the rules compare. `None` means the file is
/// missing, which is itself reported.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// `crates/obs/src/catalog.rs`.
    pub catalog: Option<String>,
    /// `tests/golden/metrics_keys.txt`.
    pub metrics_keys: Option<String>,
    /// `BENCHMARK.json`.
    pub benchmark: Option<String>,
    /// `(path, text)` of `README.md`, `DESIGN.md` and `EXPERIMENTS.md`.
    pub docs: Vec<(String, String)>,
    /// `(path, text)` of the CI workflow and every `.rs` file outside
    /// `benchmark/`.
    pub sources: Vec<(String, String)>,
    /// `crates/lint/src/registry.rs`.
    pub lint_registry: Option<String>,
    /// `CHANGES.md`.
    pub changes: Option<String>,
}

/// Runs all artifact rules.
pub fn check_artifacts(a: &Artifacts) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_metrics_keys(a, &mut findings);
    check_benchmark_metrics(a, &mut findings);
    check_rule_tables(a, &mut findings);
    check_changes_log(a, &mut findings);
    findings
}

fn missing(rule: RuleId, path: &str, findings: &mut Vec<Finding>) {
    findings.push(Finding::new(
        rule,
        path,
        0,
        "expected artifact file is missing",
    ));
}

/// `SA601`: the metric catalog re-derived from the `declare_*!` blocks
/// must equal the committed golden key list, entry for entry.
fn check_metrics_keys(a: &Artifacts, findings: &mut Vec<Finding>) {
    let (Some(catalog), Some(golden)) = (&a.catalog, &a.metrics_keys) else {
        if a.catalog.is_none() {
            missing(
                RuleId::ArtifactMetricsKeys,
                "crates/obs/src/catalog.rs",
                findings,
            );
        }
        if a.metrics_keys.is_none() {
            missing(
                RuleId::ArtifactMetricsKeys,
                "tests/golden/metrics_keys.txt",
                findings,
            );
        }
        return;
    };
    // Walk the catalog: entering a declare block sets the kind; an
    // `=> "gcnt_...` line declares one metric of that kind.
    let mut expected: BTreeSet<String> = BTreeSet::new();
    let mut kind: Option<&str> = None;
    for line in catalog.lines() {
        for (mac, k) in [
            ("declare_counters!", "counter"),
            ("declare_gauges!", "gauge"),
            ("declare_histograms!", "histogram"),
        ] {
            // The macro *definitions* mention these names too; only the
            // invocation line `declare_x! {` opens a block.
            if line.trim_start().starts_with(mac) && line.contains('{') {
                kind = Some(k);
            }
        }
        if line.trim_start().starts_with('}') && !line.contains('{') {
            kind = None;
        }
        if let (Some(k), Some(pos)) = (kind, line.find("=> \"gcnt_")) {
            let rest = &line[pos + 4..];
            if let Some(end) = rest.find('"') {
                expected.insert(format!("{k} {}", &rest[..end]));
            }
        }
    }
    let actual: BTreeSet<String> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    for key in expected.difference(&actual) {
        findings.push(Finding::new(
            RuleId::ArtifactMetricsKeys,
            "tests/golden/metrics_keys.txt",
            0,
            format!("catalog declares `{key}` but the golden list lacks it"),
        ));
    }
    for key in actual.difference(&expected) {
        findings.push(Finding::new(
            RuleId::ArtifactMetricsKeys,
            "tests/golden/metrics_keys.txt",
            0,
            format!("golden list has `{key}` but the catalog does not declare it"),
        ));
    }
}

/// Layer prefixes of `BENCHMARK.json`'s per-layer metric names.
const METRIC_LAYERS: &[&str] = &[
    "tensor", "nn", "netlist", "core", "dft", "lint", "serve", "net", "store", "obs", "proc",
    "trace",
];

/// Names of the retired micro-bench gate, spelled in halves so that this
/// file passes its own rule.
const RETIRED: &[&str] = &[
    concat!("BENCH_", "baseline.json"),
    concat!("bench", "_gate"),
    concat!("cargo", " bench"),
];

/// `SA602`: a benchmark-shaped name cited in backticks by a doc must be
/// declared in `BENCHMARK.json` (or be the stem of a declared metric, as
/// the trace span `core.session_refresh` is of `core.session_refresh_us`),
/// and nothing may still mention the retired micro-bench gate.
fn check_benchmark_metrics(a: &Artifacts, findings: &mut Vec<Finding>) {
    let Some(benchmark) = &a.benchmark else {
        missing(RuleId::ArtifactBenchmarkMetrics, "BENCHMARK.json", findings);
        return;
    };
    let declared: Vec<&str> = benchmark
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let known = |token: &str| {
        declared.iter().any(|d| {
            d.strip_prefix(token)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
        })
    };
    for (path, text) in &a.docs {
        for (i, line) in text.lines().enumerate() {
            for token in line.split('`').skip(1).step_by(2) {
                if benchmark_shaped(token) && !known(token) {
                    findings.push(Finding::new(
                        RuleId::ArtifactBenchmarkMetrics,
                        path,
                        i + 1,
                        format!("`{token}` is cited but BENCHMARK.json declares no such name"),
                    ));
                }
            }
        }
    }
    for (path, text) in a.docs.iter().chain(&a.sources) {
        for (i, line) in text.lines().enumerate() {
            for name in RETIRED.iter().filter(|name| line.contains(**name)) {
                findings.push(Finding::new(
                    RuleId::ArtifactBenchmarkMetrics,
                    path,
                    i + 1,
                    format!("mentions `{name}`, which is retired; cite a BENCHMARK.json metric"),
                ));
            }
        }
    }
}

/// Whether a backticked doc token is shaped like a benchmark name: a
/// per-layer metric `layer.some_name` (the name carries an underscore,
/// which file names such as `store.json` and Rust paths do not) or a
/// workload `kind_design_NNk`.
fn benchmark_shaped(token: &str) -> bool {
    let word = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    match token.split_once('.') {
        Some((layer, name)) => METRIC_LAYERS.contains(&layer) && name.contains('_') && word(name),
        None => {
            word(token)
                && token
                    .strip_suffix('k')
                    .and_then(|t| t.rsplit_once('_'))
                    .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        }
    }
}

/// `SA603`: every rule code in the lint registry and in this analyzer's
/// own registry must appear in a README table row, and every code-shaped
/// name in a README table must resolve to a real rule.
fn check_rule_tables(a: &Artifacts, findings: &mut Vec<Finding>) {
    let Some((_, readme)) = a.docs.iter().find(|(path, _)| path == "README.md") else {
        missing(RuleId::ArtifactRuleTable, "README.md", findings);
        return;
    };
    let mut known: BTreeSet<String> = RULES.iter().map(|r| r.code.to_string()).collect();
    if let Some(lint) = &a.lint_registry {
        for line in lint.lines() {
            if let Some(pos) = line.find("code: \"") {
                let rest = &line[pos + 7..];
                if let Some(end) = rest.find('"') {
                    let code = &rest[..end];
                    if is_rule_code(code) {
                        known.insert(code.to_string());
                    }
                }
            }
        }
    } else {
        missing(
            RuleId::ArtifactRuleTable,
            "crates/lint/src/registry.rs",
            findings,
        );
    }
    let mut documented: BTreeSet<String> = BTreeSet::new();
    for line in readme.lines() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        for chunk in line.split('`').skip(1).step_by(2) {
            if is_rule_code(chunk) {
                documented.insert(chunk.to_string());
            }
        }
    }
    for code in known.difference(&documented) {
        findings.push(Finding::new(
            RuleId::ArtifactRuleTable,
            "README.md",
            0,
            format!("rule `{code}` is not documented in a README table"),
        ));
    }
    for code in documented.difference(&known) {
        findings.push(Finding::new(
            RuleId::ArtifactRuleTable,
            "README.md",
            0,
            format!("README documents `{code}` but no registry defines it"),
        ));
    }
}

/// `SA604`: `- PR N` entries in the changelog must count 1, 2, 3, …
fn check_changes_log(a: &Artifacts, findings: &mut Vec<Finding>) {
    let Some(changes) = &a.changes else {
        missing(RuleId::ArtifactChangesLog, "CHANGES.md", findings);
        return;
    };
    let mut expected = 1usize;
    for (i, line) in changes.lines().enumerate() {
        let Some(rest) = line.strip_prefix("- PR ") else {
            continue;
        };
        let num: String = rest.chars().take_while(char::is_ascii_digit).collect();
        match num.parse::<usize>() {
            Ok(n) if n == expected => expected += 1,
            Ok(n) => findings.push(Finding::new(
                RuleId::ArtifactChangesLog,
                "CHANGES.md",
                i + 1,
                format!("PR entry numbered {n}, expected {expected}"),
            )),
            Err(_) => findings.push(Finding::new(
                RuleId::ArtifactChangesLog,
                "CHANGES.md",
                i + 1,
                "PR entry has no number".to_string(),
            )),
        }
    }
    if expected == 1 {
        findings.push(Finding::new(
            RuleId::ArtifactChangesLog,
            "CHANGES.md",
            0,
            "no `- PR N` entries found".to_string(),
        ));
    }
}

/// `XX###`-shaped rule code: two to three uppercase letters then three
/// digits.
fn is_rule_code(s: &str) -> bool {
    let letters = s.chars().take_while(char::is_ascii_uppercase).count();
    (2..=3).contains(&letters)
        && s.len() == letters + 3
        && s[letters..].chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATALOG: &str = "declare_counters! {\n\
        A => \"gcnt_a_total\", \"help\";\n\
        B => \"gcnt_b_total\", \"help\";\n\
        }\n\
        declare_gauges! {\n\
        G => \"gcnt_g\", \"help\";\n\
        }\n";

    fn base() -> Artifacts {
        Artifacts {
            catalog: Some(CATALOG.to_string()),
            metrics_keys: Some(
                "counter gcnt_a_total\ncounter gcnt_b_total\ngauge gcnt_g\n".to_string(),
            ),
            benchmark: Some(
                "{\"name\": \"flow_b1_20k\", \"why\": \"x\"},\n\
                 {\"name\": \"op_p50_ms\", \"unit\": \"ms\"},\n\
                 {\"name\": \"core.session_refresh_us\", \"unit\": \"us\"},\n"
                    .to_string(),
            ),
            docs: vec![
                ("README.md".to_string(), readme_with(&["NL001", "EC001"])),
                (
                    "EXPERIMENTS.md".to_string(),
                    "`flow_b1_20k` spends `core.session_refresh_us` per refresh (span \
                     `core.session_refresh`, file `store.json`, `core::session`).\n"
                        .to_string(),
                ),
            ],
            sources: vec![(
                "crates/x/src/lib.rs".to_string(),
                "//! Timed by the benchmark.\n".to_string(),
            )],
            lint_registry: Some("code: \"NL001\",\ncode: \"EC001\",\n".to_string()),
            changes: Some("- PR 1 (x): a\n- PR 2 (y): b\n".to_string()),
        }
    }

    fn readme_with(extra: &[&str]) -> String {
        let mut s = String::from("| Rule | Checks |\n");
        for desc in RULES {
            s.push_str(&format!("| `{}` | x |\n", desc.code));
        }
        for code in extra {
            s.push_str(&format!("| `{code}` | x |\n"));
        }
        s
    }

    #[test]
    fn consistent_artifacts_are_clean() {
        let findings = check_artifacts(&base());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn metric_drift_fires_both_ways() {
        let mut a = base();
        a.metrics_keys = Some("counter gcnt_a_total\ncounter gcnt_stale_total\n".to_string());
        let findings = check_artifacts(&a);
        let msgs: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == RuleId::ArtifactMetricsKeys)
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("gcnt_b_total")));
        assert!(msgs.iter().any(|m| m.contains("gcnt_stale_total")));
        assert!(msgs.iter().any(|m| m.contains("gauge gcnt_g")));
    }

    #[test]
    fn benchmark_drift_is_caught() {
        // A cited metric and a cited workload that BENCHMARK.json lacks.
        let mut a = base();
        a.docs[1]
            .1
            .push_str("see `tensor.nonexistent_ms` on `flow_b1_2k`\n");
        let findings = check_artifacts(&a);
        for gone in ["tensor.nonexistent_ms", "flow_b1_2k"] {
            assert!(
                findings.iter().any(|f| {
                    f.rule == RuleId::ArtifactBenchmarkMetrics
                        && f.path == "EXPERIMENTS.md"
                        && f.line == 2
                        && f.message.contains(gone)
                }),
                "{gone}: {findings:?}"
            );
        }
        assert_eq!(findings.len(), 2, "{findings:?}");
        // A stale mention of the retired gate, in a doc and in a source.
        for name in RETIRED {
            let mut a = base();
            a.docs[0].1.push_str(&format!("run `{name}` first\n"));
            a.sources[0].1.push_str(&format!("// see {name}\n"));
            let findings = check_artifacts(&a);
            let hits: Vec<&str> = findings
                .iter()
                .filter(|f| f.message.contains(name))
                .map(|f| f.path.as_str())
                .collect();
            assert_eq!(hits, ["README.md", "crates/x/src/lib.rs"], "{name}");
        }
        // Declared names, a declared metric's stem, file names and Rust
        // paths all pass.
        assert!(check_artifacts(&base()).is_empty());
    }

    #[test]
    fn undocumented_rule_is_caught() {
        let mut a = base();
        a.docs[0].1 = readme_with(&["NL001"]); // EC001 row dropped
        let findings = check_artifacts(&a);
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::ArtifactRuleTable && f.message.contains("EC001")));
        // And the reverse: a documented ghost rule.
        let mut a = base();
        a.docs[0].1 = readme_with(&["NL001", "EC001", "ZZ999"]);
        assert!(check_artifacts(&a)
            .iter()
            .any(|f| f.message.contains("ZZ999")));
    }

    #[test]
    fn changes_numbering_is_checked() {
        let mut a = base();
        a.changes = Some("- PR 1 (x): a\n- PR 3 (y): b\n".to_string());
        let findings = check_artifacts(&a);
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::ArtifactChangesLog && f.line == 2));
    }

    #[test]
    fn missing_artifacts_are_reported() {
        let a = Artifacts::default();
        let findings = check_artifacts(&a);
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::ArtifactMetricsKeys));
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::ArtifactBenchmarkMetrics));
        assert!(findings.iter().any(|f| f.rule == RuleId::ArtifactRuleTable));
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::ArtifactChangesLog));
    }

    #[test]
    fn rule_code_shape() {
        assert!(is_rule_code("SA301"));
        assert!(is_rule_code("NL001"));
        assert!(!is_rule_code("gcnt_x"));
        assert!(!is_rule_code("SA1"));
        assert!(!is_rule_code("SAXX1"));
    }
}
