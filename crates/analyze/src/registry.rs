//! The analyzer's rule registry: one descriptor per `SA###` rule, with
//! stable codes, slugs, severities, and one-line summaries — the same
//! idiom as `gcnt-lint`'s registry, but for *source and artifact* checks
//! rather than runtime data.
//!
//! Code families:
//!
//! * `SA1xx` — panic policy over non-test code of the hot-path crates
//!   (`tensor`, `core`, `serve`, `dft`), ratcheted (see
//!   [`crate::gate`]).
//! * `SA2xx` — `unsafe` hygiene (repo-wide, tests included).
//! * `SA3xx` — atomics ordering policy.
//! * `SA4xx` — truncating-cast policy in index math.
//! * `SA5xx` — feature-gate hygiene for fault injection.
//! * `SA6xx` — cross-artifact consistency (catalogs, baselines, README
//!   tables, the changelog) and the allowlist/ratchet files themselves.

use crate::report::Severity;

/// Stable identifier of an analyzer rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `SA101 panic-unwrap`: `.unwrap()` in non-test hot-path code.
    PanicUnwrap,
    /// `SA102 panic-expect`: `.expect(...)` in non-test hot-path code.
    PanicExpect,
    /// `SA103 panic-macro`: `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test hot-path code.
    PanicMacro,
    /// `SA104 panic-index`: `x[i]` indexing (slicing included) in
    /// non-test hot-path code — prefer `get`/`get_mut` or checked
    /// helpers.
    PanicIndex,
    /// `SA201 unsafe-missing-safety-comment`: an `unsafe` block, fn, or
    /// impl without an adjacent `// SAFETY:` comment.
    UnsafeMissingSafetyComment,
    /// `SA301 atomics-seqcst-unjustified`: `Ordering::SeqCst` without an
    /// adjacent `// ORDERING:` justification.
    AtomicsSeqCstUnjustified,
    /// `SA302 atomics-obs-not-relaxed`: a non-`Relaxed` ordering inside
    /// `crates/obs/src` (the record paths must stay relaxed) without an
    /// `// ORDERING:` justification.
    AtomicsObsNotRelaxed,
    /// `SA401 cast-truncating-index`: a bare `as u32`-style truncating
    /// cast in tensor index math without an adjacent `// CAST:`
    /// justification.
    CastTruncatingIndex,
    /// `SA501 fault-inject-ungated`: fault-injection state (a
    /// `FaultPlan` field or `with_*` builder) not behind
    /// `#[cfg(feature = "fault-inject")]`.
    FaultInjectUngated,
    /// `SA601 artifact-metrics-keys`: the obs metric catalog and
    /// `tests/golden/metrics_keys.txt` disagree.
    ArtifactMetricsKeys,
    /// `SA602 artifact-benchmark-metrics`: a doc cites a workload or
    /// metric `BENCHMARK.json` does not declare, or something still
    /// mentions the retired micro-bench gate.
    ArtifactBenchmarkMetrics,
    /// `SA603 artifact-rule-table`: the README rule tables and the
    /// lint/analyze registries disagree.
    ArtifactRuleTable,
    /// `SA604 artifact-changes-log`: `CHANGES.md` PR entries are not
    /// consecutively numbered from 1.
    ArtifactChangesLog,
    /// `SA605 allowlist-stale`: an `ANALYZE_allowlist.txt` entry matches
    /// no current site (fixed code must shed its exemption).
    AllowlistStale,
    /// `SA606 ratchet-stale`: a ratcheted count dropped below
    /// `ANALYZE_ratchet.txt` — run `gcnt analyze --ratchet-update` to
    /// bank the improvement.
    RatchetStale,
}

/// Static description of one analyzer rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDescriptor {
    /// The rule's identifier.
    pub id: RuleId,
    /// Stable code, e.g. `"SA101"`.
    pub code: &'static str,
    /// Stable kebab-case slug.
    pub slug: &'static str,
    /// Severity carried by this rule's findings.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in code order.
pub const RULES: &[RuleDescriptor] = &[
    RuleDescriptor {
        id: RuleId::PanicUnwrap,
        code: "SA101",
        slug: "panic-unwrap",
        severity: Severity::Error,
        summary: "`.unwrap()` in non-test hot-path code (ratcheted)",
    },
    RuleDescriptor {
        id: RuleId::PanicExpect,
        code: "SA102",
        slug: "panic-expect",
        severity: Severity::Error,
        summary: "`.expect(...)` in non-test hot-path code (ratcheted)",
    },
    RuleDescriptor {
        id: RuleId::PanicMacro,
        code: "SA103",
        slug: "panic-macro",
        severity: Severity::Error,
        summary: "panicking macro in non-test hot-path code (ratcheted)",
    },
    RuleDescriptor {
        id: RuleId::PanicIndex,
        code: "SA104",
        slug: "panic-index",
        severity: Severity::Error,
        summary: "unchecked `[...]` indexing in non-test hot-path code (ratcheted)",
    },
    RuleDescriptor {
        id: RuleId::UnsafeMissingSafetyComment,
        code: "SA201",
        slug: "unsafe-missing-safety-comment",
        severity: Severity::Error,
        summary: "`unsafe` without an adjacent `// SAFETY:` comment",
    },
    RuleDescriptor {
        id: RuleId::AtomicsSeqCstUnjustified,
        code: "SA301",
        slug: "atomics-seqcst-unjustified",
        severity: Severity::Error,
        summary: "`Ordering::SeqCst` without an adjacent `// ORDERING:` justification",
    },
    RuleDescriptor {
        id: RuleId::AtomicsObsNotRelaxed,
        code: "SA302",
        slug: "atomics-obs-not-relaxed",
        severity: Severity::Error,
        summary: "non-Relaxed ordering in obs record paths without `// ORDERING:`",
    },
    RuleDescriptor {
        id: RuleId::CastTruncatingIndex,
        code: "SA401",
        slug: "cast-truncating-index",
        severity: Severity::Error,
        summary: "bare truncating `as` cast in tensor index math without `// CAST:`",
    },
    RuleDescriptor {
        id: RuleId::FaultInjectUngated,
        code: "SA501",
        slug: "fault-inject-ungated",
        severity: Severity::Error,
        summary: "fault-injection state outside `#[cfg(feature = \"fault-inject\")]`",
    },
    RuleDescriptor {
        id: RuleId::ArtifactMetricsKeys,
        code: "SA601",
        slug: "artifact-metrics-keys",
        severity: Severity::Error,
        summary: "obs metric catalog and tests/golden/metrics_keys.txt disagree",
    },
    RuleDescriptor {
        id: RuleId::ArtifactBenchmarkMetrics,
        code: "SA602",
        slug: "artifact-benchmark-metrics",
        severity: Severity::Error,
        summary: "docs cite a name BENCHMARK.json lacks, or the retired micro-bench gate",
    },
    RuleDescriptor {
        id: RuleId::ArtifactRuleTable,
        code: "SA603",
        slug: "artifact-rule-table",
        severity: Severity::Error,
        summary: "README rule tables and the lint/analyze registries disagree",
    },
    RuleDescriptor {
        id: RuleId::ArtifactChangesLog,
        code: "SA604",
        slug: "artifact-changes-log",
        severity: Severity::Error,
        summary: "CHANGES.md PR entries are not consecutively numbered from 1",
    },
    RuleDescriptor {
        id: RuleId::AllowlistStale,
        code: "SA605",
        slug: "allowlist-stale",
        severity: Severity::Error,
        summary: "ANALYZE_allowlist.txt entry matches no current site",
    },
    RuleDescriptor {
        id: RuleId::RatchetStale,
        code: "SA606",
        slug: "ratchet-stale",
        severity: Severity::Warning,
        summary: "count dropped below ANALYZE_ratchet.txt; run --ratchet-update",
    },
];

/// Looks up the descriptor of a rule.
pub fn rule(id: RuleId) -> &'static RuleDescriptor {
    RULES
        .iter()
        .find(|r| r.id == id)
        .expect("every RuleId has a registry entry")
}

/// Resolves a rule code (`"SA101"`) or slug back to its id.
pub fn from_code(code: &str) -> Option<RuleId> {
    RULES
        .iter()
        .find(|r| r.code == code || r.slug == code)
        .map(|r| r.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_slugs_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.code, b.code);
                assert_ne!(a.slug, b.slug);
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn registry_covers_all_families() {
        for prefix in ["SA1", "SA2", "SA3", "SA4", "SA5", "SA6"] {
            assert!(RULES.iter().any(|r| r.code.starts_with(prefix)));
        }
        assert_eq!(RULES.len(), 15);
    }

    #[test]
    fn codes_resolve_both_ways() {
        for desc in RULES {
            assert_eq!(from_code(desc.code), Some(desc.id));
            assert_eq!(from_code(desc.slug), Some(desc.id));
            assert_eq!(rule(desc.id).code, desc.code);
        }
        assert_eq!(from_code("SA999"), None);
    }
}
