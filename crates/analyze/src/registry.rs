//! The analyzer's rule registry: one descriptor per `SA###` rule, with
//! stable codes, slugs and one-line summaries — the same
//! idiom as `gcnt-lint`'s registry, but for *source and artifact* checks
//! rather than runtime data.
//!
//! Code families:
//!
//! * `SA3xx` — atomics ordering policy.
//! * `SA5xx` — feature-gate hygiene for fault injection.
//! * `SA6xx` — cross-artifact consistency (catalogs, benchmark metrics,
//!   README tables, the changelog).
//!
//! Every finding is an error. The retired `SA1xx` (panic), `SA2xx`
//! (`unsafe`) and `SA4xx` (cast) codes are clippy lints now, denied in
//! each crate's `lib.rs`.

/// Stable identifier of an analyzer rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `SA301 atomics-seqcst-unjustified`: `Ordering::SeqCst` without an
    /// adjacent `// ORDERING:` justification.
    AtomicsSeqCstUnjustified,
    /// `SA302 atomics-obs-not-relaxed`: a non-`Relaxed` ordering inside
    /// `crates/obs/src` (the record paths must stay relaxed) without an
    /// `// ORDERING:` justification.
    AtomicsObsNotRelaxed,
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
}

/// Static description of one analyzer rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDescriptor {
    /// The rule's identifier.
    pub id: RuleId,
    /// Stable code, e.g. `"SA301"`.
    pub code: &'static str,
    /// Stable kebab-case slug.
    pub slug: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in code order.
pub const RULES: &[RuleDescriptor] = &[
    RuleDescriptor {
        id: RuleId::AtomicsSeqCstUnjustified,
        code: "SA301",
        slug: "atomics-seqcst-unjustified",
        summary: "`Ordering::SeqCst` without an adjacent `// ORDERING:` justification",
    },
    RuleDescriptor {
        id: RuleId::AtomicsObsNotRelaxed,
        code: "SA302",
        slug: "atomics-obs-not-relaxed",
        summary: "non-Relaxed ordering in obs record paths without `// ORDERING:`",
    },
    RuleDescriptor {
        id: RuleId::FaultInjectUngated,
        code: "SA501",
        slug: "fault-inject-ungated",
        summary: "fault-injection state outside `#[cfg(feature = \"fault-inject\")]`",
    },
    RuleDescriptor {
        id: RuleId::ArtifactMetricsKeys,
        code: "SA601",
        slug: "artifact-metrics-keys",
        summary: "obs metric catalog and tests/golden/metrics_keys.txt disagree",
    },
    RuleDescriptor {
        id: RuleId::ArtifactBenchmarkMetrics,
        code: "SA602",
        slug: "artifact-benchmark-metrics",
        summary: "docs cite a name BENCHMARK.json lacks, or the retired micro-bench gate",
    },
    RuleDescriptor {
        id: RuleId::ArtifactRuleTable,
        code: "SA603",
        slug: "artifact-rule-table",
        summary: "README rule tables and the lint/analyze registries disagree",
    },
    RuleDescriptor {
        id: RuleId::ArtifactChangesLog,
        code: "SA604",
        slug: "artifact-changes-log",
        summary: "CHANGES.md PR entries are not consecutively numbered from 1",
    },
];

/// Looks up the descriptor of a rule.
pub fn rule(id: RuleId) -> &'static RuleDescriptor {
    RULES
        .iter()
        .find(|r| r.id == id)
        .expect("every RuleId has a registry entry")
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
        for prefix in ["SA3", "SA5", "SA6"] {
            assert!(RULES.iter().any(|r| r.code.starts_with(prefix)));
        }
        assert_eq!(RULES.len(), 7);
    }

    #[test]
    fn every_id_resolves_to_its_descriptor() {
        for desc in RULES {
            assert_eq!(rule(desc.id).code, desc.code);
        }
    }
}
