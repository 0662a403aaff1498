use std::fmt;

use crate::{NodeId, Violation};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NetlistError>;

/// Errors produced while building or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// The design failed validation: every arity violation in node order,
    /// then the combinational cycle, if any. Never empty.
    Invalid(Vec<Violation>),
    /// An edge was added twice between the same pair of nodes.
    DuplicateEdge {
        /// Driving node.
        from: NodeId,
        /// Driven node.
        to: NodeId,
    },
    /// An `Output` cell may not drive anything.
    OutputHasFanout(NodeId),
    /// The text format could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetlistError::Invalid(violations) => {
                if let Some(first) = violations.first() {
                    write!(f, "{first}")?;
                }
                match violations.len() {
                    0 | 1 => Ok(()),
                    n => write!(f, " (and {} more)", n - 1),
                }
            }
            NetlistError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            NetlistError::OutputHasFanout(n) => {
                write!(f, "output cell {n} must not drive other cells")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetlistError::Invalid(vec![Violation::BadArity {
            node: NodeId::from_index(7),
            kind: crate::CellKind::Not,
            fanins: 3,
        }]);
        let msg = e.to_string();
        assert!(msg.contains("n7"));
        assert!(msg.contains("not"));
        assert!(msg.contains('3'));
        assert!(!msg.contains("more"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
