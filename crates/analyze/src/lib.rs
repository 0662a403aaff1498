//! `gcnt-analyze`: zero-dependency source & artifact static analysis.
//!
//! Where `gcnt-lint` checks *runtime data* (netlists, tensors), this crate
//! checks the *repository itself*: the source tree and the committed
//! artifacts next to it. It keeps only what rustc and clippy cannot see —
//! the panic, `unsafe` and cast policies are compiler lints, set in each
//! crate's `lib.rs`. What is left is a lightweight line lexer (no `syn`), a
//! registry of `SA###` rules, and a report with stable codes and exit
//! semantics, run as `gcnt analyze` locally and as a required CI job.
//!
//! Rule families (see [`registry`]):
//!
//! * **Atomics policy** (`SA301`/`SA302`) — `SeqCst` needs a written
//!   reason anywhere; obs record paths stay `Relaxed`.
//! * **Feature-gate hygiene** (`SA501`) — fault-injection state stays
//!   behind its cargo feature.
//! * **Artifact consistency** (`SA601`–`SA604`) — metric golden list,
//!   documented benchmark metrics, README rule tables, and changelog
//!   numbering match their sources of truth.
//!
//! The crate deliberately has **no dependencies** — not even the
//! workspace shims — because it vets the tree that builds everything
//! else.

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod hygiene;
pub mod lexer;
pub mod registry;
pub mod report;
pub mod source;
mod walk;

use std::path::Path;

use artifacts::Artifacts;
use report::AnalyzeReport;
use source::SourceFile;

/// Runs the full analysis over the repo at `root`. Rule violations are
/// findings in the report; an unreadable file is skipped, and a missing
/// artifact is itself a finding.
pub fn analyze(root: &Path) -> AnalyzeReport {
    let raw = walk::rust_sources(root);
    let files: Vec<SourceFile> = raw
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    let mut findings = hygiene::check_hygiene(&files);
    findings.extend(artifacts::check_artifacts(&gather_artifacts(root, &raw)));
    AnalyzeReport::from_findings(findings, files.len())
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
