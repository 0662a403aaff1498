//! The rule registry: one descriptor per lint rule, with stable codes,
//! slugs, severities, and one-line summaries.

use crate::report::{RuleId, Severity};

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDescriptor {
    /// The rule's identifier.
    pub id: RuleId,
    /// Stable code, e.g. `"NL001"`. `NL` rules check netlist structure,
    /// `TS` rules check graph tensors.
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
        assert_eq!(RULES.len(), 7);
    }
}
