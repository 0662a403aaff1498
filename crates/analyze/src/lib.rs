//! `gcnt-analyze`: zero-dependency source & artifact static analysis.
//!
//! Where `gcnt-lint` checks *runtime data* (netlists, tensors, models,
//! checkpoints), this crate checks the *repository itself*: the source
//! tree and the committed artifacts next to it. It is the rustc-tidy of
//! the workspace — a lightweight line lexer (no `syn`), a registry of
//! `SA###` rules, and a report with stable codes and exit semantics,
//! run as `gcnt analyze` locally and as a required CI job.
//!
//! Rule families (see [`registry`]):
//!
//! * **Panic policy** (`SA101`–`SA104`) — no `unwrap`/`expect`/panicking
//!   macros/unchecked indexing in non-test code of the hot-path crates,
//!   governed by a committed allowlist and a ratchet so counts only go
//!   down ([`gate`]).
//! * **Unsafe hygiene** (`SA201`) — every `unsafe` carries `// SAFETY:`.
//! * **Atomics policy** (`SA301`/`SA302`) — `SeqCst` needs a written
//!   reason anywhere; obs record paths stay `Relaxed`.
//! * **Cast policy** (`SA401`) — no bare truncating `as` casts in
//!   tensor index math.
//! * **Feature-gate hygiene** (`SA501`) — fault-injection state stays
//!   behind its cargo feature.
//! * **Artifact consistency** (`SA601`–`SA604`) — metric golden list,
//!   documented benchmark metrics, README rule tables, and changelog
//!   numbering match their sources of truth.
//!
//! The crate deliberately has **no dependencies** — not even the
//! workspace shims — because it vets the tree that builds everything
//! else.

pub mod artifacts;
pub mod gate;
pub mod hygiene;
pub mod lexer;
pub mod policy;
pub mod registry;
pub mod report;
pub mod source;
mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use artifacts::Artifacts;
use gate::Gate;
use report::{AnalyzeReport, Finding};
use source::SourceFile;

/// Committed allowlist of justified panic-policy sites.
pub const ALLOWLIST_FILE: &str = "ANALYZE_allowlist.txt";
/// Committed ratcheted site counts.
pub const RATCHET_FILE: &str = "ANALYZE_ratchet.txt";

/// How a run is configured.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Repository root to analyze.
    pub root: PathBuf,
    /// Inject a synthetic violating file — CI uses this to prove the
    /// gate actually fails on a planted violation.
    pub sabotage: bool,
    /// Rewrite `ANALYZE_ratchet.txt` with the current (lower) counts
    /// instead of warning about them.
    pub update_ratchet: bool,
}

impl AnalyzeConfig {
    /// Analyze `root` with no sabotage and no ratchet rewrite.
    pub fn new(root: impl Into<PathBuf>) -> AnalyzeConfig {
        AnalyzeConfig {
            root: root.into(),
            sabotage: false,
            update_ratchet: false,
        }
    }
}

/// Why a run could not produce a report at all (findings are not
/// errors — this is for unusable inputs).
#[derive(Debug)]
pub enum AnalyzeError {
    /// A gate file is malformed; the message names the line.
    Gate(String),
    /// The ratchet rewrite failed.
    Io(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Gate(msg) => write!(f, "gate file: {msg}"),
            AnalyzeError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The planted violation used by the sabotage self-check. Lives on a
/// hot path so the panic policy must catch it; the path cannot collide
/// with a real file (`__` prefix).
const SABOTAGE_PATH: &str = "crates/tensor/src/__sabotage.rs";
const SABOTAGE_SRC: &str = "fn planted() {\n    let x: Option<u32> = None;\n    x.unwrap();\n}\n";

/// Runs the full analysis over the repo at `cfg.root`.
///
/// # Errors
///
/// Returns [`AnalyzeError`] on malformed gate files or a failed ratchet
/// rewrite; rule violations are findings in the report, not errors.
pub fn analyze(cfg: &AnalyzeConfig) -> Result<AnalyzeReport, AnalyzeError> {
    let raw = walk::rust_sources(&cfg.root);
    let mut files: Vec<SourceFile> = raw
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    if cfg.sabotage {
        files.push(SourceFile::parse(SABOTAGE_PATH, SABOTAGE_SRC));
    }

    let allowlist = walk::read_rel(&cfg.root, ALLOWLIST_FILE).unwrap_or_default();
    let ratchet = walk::read_rel(&cfg.root, RATCHET_FILE).unwrap_or_default();
    let mut gate = Gate::parse(&allowlist, &ratchet).map_err(AnalyzeError::Gate)?;

    let mut totals = BTreeMap::new();
    let sites = policy::check_panic_policy(&files, &mut gate, &mut totals);
    let mut findings = over_budget_sites(sites, &gate, &totals);
    findings.extend(hygiene::check_hygiene(&files));
    findings.extend(artifacts::check_artifacts(&gather_artifacts(
        &cfg.root, &raw,
    )));
    findings.extend(gate.finish(&totals));

    if cfg.update_ratchet {
        let text = Gate::serialize_ratchet(&totals);
        std::fs::write(cfg.root.join(RATCHET_FILE), text)
            .map_err(|e| AnalyzeError::Io(format!("writing {RATCHET_FILE}: {e}")))?;
        // The rewrite makes the ratchet findings moot.
        findings.retain(|f| f.path != RATCHET_FILE);
    }

    Ok(AnalyzeReport::from_findings(findings, files.len()))
}

/// Pulls the artifact texts the `SA6xx` rules compare: `.rs` sources
/// come from the walked tree, the rest are read directly.
fn gather_artifacts(root: &Path, raw: &[(String, String)]) -> Artifacts {
    let source = |path: &str| {
        raw.iter()
            .find(|(p, _)| p == path)
            .map(|(_, text)| text.clone())
    };
    let read_all = |paths: &[&str]| -> Vec<(String, String)> {
        paths
            .iter()
            .filter_map(|p| Some((p.to_string(), walk::read_rel(root, p)?)))
            .collect()
    };
    Artifacts {
        catalog: source("crates/obs/src/catalog.rs"),
        metrics_keys: walk::read_rel(root, "tests/golden/metrics_keys.txt"),
        benchmark: walk::read_rel(root, "BENCHMARK.json"),
        docs: read_all(&["README.md", "DESIGN.md", "EXPERIMENTS.md"]),
        sources: raw
            .iter()
            .filter(|(p, _)| !p.starts_with("benchmark/"))
            .cloned()
            .chain(read_all(&[".github/workflows/ci.yml"]))
            .collect(),
        lint_registry: source("crates/lint/src/registry.rs"),
        changes: walk::read_rel(root, "CHANGES.md"),
    }
}

/// Re-exported for tests and the CLI: analyze pre-parsed sources with
/// explicit gate texts and no artifact checks — the policy/hygiene core
/// without filesystem access.
pub fn analyze_sources(
    files: &[SourceFile],
    allowlist: &str,
    ratchet: &str,
) -> Result<AnalyzeReport, AnalyzeError> {
    let mut gate = Gate::parse(allowlist, ratchet).map_err(AnalyzeError::Gate)?;
    let mut totals = BTreeMap::new();
    let sites = policy::check_panic_policy(files, &mut gate, &mut totals);
    let mut findings = over_budget_sites(sites, &gate, &totals);
    findings.extend(hygiene::check_hygiene(files));
    findings.extend(gate.finish(&totals));
    Ok(AnalyzeReport::from_findings(findings, files.len()))
}

/// Keeps only the panic-policy sites of rules that blew their ratchet
/// budget: within-budget legacy debt is tolerated silently, over-budget
/// rules get every site listed so the offending addition is findable.
fn over_budget_sites(
    sites: Vec<Finding>,
    gate: &Gate,
    totals: &BTreeMap<registry::RuleId, usize>,
) -> Vec<Finding> {
    let exceeded = gate.exceeded(totals);
    sites
        .into_iter()
        .filter(|f| exceeded.contains(&f.rule))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotage_source_trips_the_policy() {
        let files = vec![SourceFile::parse(SABOTAGE_PATH, SABOTAGE_SRC)];
        let report = analyze_sources(&files, "", "").expect("gate parses");
        assert!(report.has_errors());
        assert!(report.fired(registry::RuleId::PanicUnwrap));
    }

    #[test]
    fn finding_vs_error_distinction() {
        let report = analyze_sources(&[], "", "").expect("gate parses");
        assert!(report.is_clean());
        let err = analyze_sources(&[], "not a valid line\n", "");
        assert!(matches!(err, Err(AnalyzeError::Gate(_))));
    }
}
