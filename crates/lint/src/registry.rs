//! The rule registry: one descriptor per lint rule, with stable codes,
//! slugs, severities, and one-line summaries.

use crate::report::{RuleId, Severity};

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDescriptor {
    /// The rule's identifier.
    pub id: RuleId,
    /// Stable code, e.g. `"NL001"`. `NL` rules check netlist structure,
    /// `TS` rules check tensors, `MD` rules check model state, `EC` rules
    /// check embedding caches.
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
        id: RuleId::EmbeddingCacheConsistency,
        code: "EC001",
        slug: "embedding-cache-consistency",
        severity: Severity::Error,
        summary: "embedding cache disagrees with its graph (rows or generation)",
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
        assert!(RULES.iter().any(|r| r.code.starts_with("EC")));
        assert_eq!(RULES.len(), 12);
    }
}
