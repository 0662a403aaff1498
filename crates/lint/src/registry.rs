//! The rule registry: one descriptor per lint rule, with stable codes,
//! slugs, severities, and one-line summaries.

use crate::report::{RuleId, Severity};

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDescriptor {
    /// The rule's identifier.
    pub id: RuleId,
    /// Stable code, e.g. `"NL001"`. `NL` rules check netlist structure,
    /// `TS` rules check tensors, `MD` rules check model state, `CK` rules
    /// check checkpoint files, `EC` rules check embedding caches.
    pub code: &'static str,
    /// Stable kebab-case slug, e.g. `"combinational-cycle"`.
    pub slug: &'static str,
    /// Severity carried by this rule's findings.
    pub severity: Severity,
    /// One-line summary shown by `gcnt lint --rules`.
    pub summary: &'static str,
}

/// Every rule the linter knows, in code order.
pub const RULES: &[RuleDescriptor] = &[
    RuleDescriptor {
        id: RuleId::CombinationalCycle,
        code: "NL001",
        slug: "combinational-cycle",
        severity: Severity::Error,
        summary: "combinational logic (with DFFs cut) contains a cycle",
    },
    RuleDescriptor {
        id: RuleId::BadArity,
        code: "NL002",
        slug: "bad-arity",
        severity: Severity::Error,
        summary: "cell fanin count violates its kind's arity bounds",
    },
    RuleDescriptor {
        id: RuleId::DanglingNet,
        code: "NL003",
        slug: "dangling-net",
        severity: Severity::Warning,
        summary: "non-output node drives no sinks",
    },
    RuleDescriptor {
        id: RuleId::FloatingInput,
        code: "NL004",
        slug: "floating-input",
        severity: Severity::Error,
        summary: "node that requires inputs has no drivers",
    },
    RuleDescriptor {
        id: RuleId::LevelMonotonicity,
        code: "NL005",
        slug: "level-monotonicity",
        severity: Severity::Error,
        summary: "stored logic level differs from 1 + max(fanin levels)",
    },
    RuleDescriptor {
        id: RuleId::ScoapRange,
        code: "NL006",
        slug: "scoap-range",
        severity: Severity::Error,
        summary: "SCOAP measure outside its legal range",
    },
    RuleDescriptor {
        id: RuleId::AdjacencyNetlistMismatch,
        code: "TS001",
        slug: "adjacency-netlist-mismatch",
        severity: Severity::Error,
        summary: "graph tensors disagree with the source netlist",
    },
    RuleDescriptor {
        id: RuleId::CsrSortedIndices,
        code: "TS002",
        slug: "csr-sorted-indices",
        severity: Severity::Error,
        summary: "sparse matrix structure broken (indptr/indices invariants)",
    },
    RuleDescriptor {
        id: RuleId::NanOrInfValue,
        code: "TS003",
        slug: "nan-or-inf-value",
        severity: Severity::Error,
        summary: "sparse matrix holds a NaN or infinite value",
    },
    RuleDescriptor {
        id: RuleId::WeightNan,
        code: "MD001",
        slug: "weight-nan",
        severity: Severity::Error,
        summary: "model parameter is NaN or infinite",
    },
    RuleDescriptor {
        id: RuleId::LayerShapeMismatch,
        code: "MD002",
        slug: "layer-shape-mismatch",
        severity: Severity::Error,
        summary: "adjacent model layers have incompatible shapes",
    },
    RuleDescriptor {
        id: RuleId::ChecksumMismatch,
        code: "CK001",
        slug: "checkpoint-checksum-mismatch",
        severity: Severity::Error,
        summary: "checkpoint payload checksum differs from the stored one",
    },
    RuleDescriptor {
        id: RuleId::UnsupportedVersion,
        code: "CK002",
        slug: "checkpoint-version-unsupported",
        severity: Severity::Error,
        summary: "checkpoint declares an unsupported format version",
    },
    RuleDescriptor {
        id: RuleId::MissingState,
        code: "CK003",
        slug: "checkpoint-missing-state",
        severity: Severity::Error,
        summary: "checkpoint lacks state required to resume (e.g. optimizer)",
    },
    RuleDescriptor {
        id: RuleId::EmbeddingCacheConsistency,
        code: "EC001",
        slug: "embedding-cache-consistency",
        severity: Severity::Error,
        summary: "embedding cache disagrees with its graph (rows or generation)",
    },
    RuleDescriptor {
        id: RuleId::JournalChecksumMismatch,
        code: "JN001",
        slug: "journal-record-checksum-mismatch",
        severity: Severity::Error,
        summary: "journal record payload checksum differs from the stored one",
    },
    RuleDescriptor {
        id: RuleId::JournalSequenceGap,
        code: "JN002",
        slug: "journal-sequence-gap",
        severity: Severity::Error,
        summary: "journal records are not consecutively numbered from zero",
    },
    RuleDescriptor {
        id: RuleId::JournalGrowthCap,
        code: "JN003",
        slug: "journal-growth-cap",
        severity: Severity::Warning,
        summary: "journal exceeds its configured record or byte cap (compact it)",
    },
    RuleDescriptor {
        id: RuleId::PageChecksumMismatch,
        code: "PG001",
        slug: "page-checksum-mismatch",
        severity: Severity::Error,
        summary: "store page fails its integrity check (magic/length/checksum)",
    },
    RuleDescriptor {
        id: RuleId::StoreVersionUnsupported,
        code: "PG002",
        slug: "store-version-unsupported",
        severity: Severity::Error,
        summary: "store metadata declares an unsupported format version",
    },
    RuleDescriptor {
        id: RuleId::SegmentPageMissing,
        code: "PG003",
        slug: "segment-page-missing",
        severity: Severity::Error,
        summary: "segment references a page past the committed page count",
    },
    RuleDescriptor {
        id: RuleId::FrameEnvelopeBroken,
        code: "NT001",
        slug: "frame-envelope-broken",
        severity: Severity::Error,
        summary: "wire frame envelope malformed (magic/length-cap/checksum)",
    },
    RuleDescriptor {
        id: RuleId::FrameVersionUnsupported,
        code: "NT002",
        slug: "frame-version-unsupported",
        severity: Severity::Error,
        summary: "wire frame declares an unsupported protocol version",
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
    fn registry_covers_all_prefixes() {
        assert!(RULES.iter().any(|r| r.code.starts_with("NL")));
        assert!(RULES.iter().any(|r| r.code.starts_with("TS")));
        assert!(RULES.iter().any(|r| r.code.starts_with("MD")));
        assert!(RULES.iter().any(|r| r.code.starts_with("CK")));
        assert!(RULES.iter().any(|r| r.code.starts_with("EC")));
        assert!(RULES.iter().any(|r| r.code.starts_with("JN")));
        assert!(RULES.iter().any(|r| r.code.starts_with("PG")));
        assert!(RULES.iter().any(|r| r.code.starts_with("NT")));
        assert_eq!(RULES.len(), 23);
    }
}
