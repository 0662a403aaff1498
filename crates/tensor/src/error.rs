use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by the tensor kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed, e.g. `"matmul"`.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// Offending `(row, col)` index.
        index: (usize, usize),
        /// Matrix shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// A constructor was given data whose length does not match the shape.
    LengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// An incremental-inference embedding cache was used against a graph
    /// state it was not built for (generation counters disagree).
    StaleCache {
        /// Generation recorded in the cache.
        cache: u64,
        /// Generation of the graph tensors it was used with.
        graph: u64,
    },
    /// A work budget ran out: the computation was stopped at a
    /// cooperative checkpoint (see [`crate::Budget`]).
    BudgetExceeded {
        /// Embedding-row units charged, including the overrunning charge.
        spent: u64,
        /// The budget's cap.
        cap: u64,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "data length {actual} does not match expected {expected}")
            }
            TensorError::StaleCache { cache, graph } => write!(
                f,
                "stale embedding cache: cache generation {cache} vs graph generation {graph}"
            ),
            TensorError::BudgetExceeded { spent, cap } => write!(
                f,
                "work budget exceeded: {spent} of {cap} embedding-row units"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "shape mismatch in matmul: 2x3 vs 4x5");
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = TensorError::IndexOutOfBounds {
            index: (9, 1),
            shape: (3, 3),
        };
        assert!(e.to_string().contains("(9, 1)"));
        assert!(e.to_string().contains("3x3"));
    }

    #[test]
    fn display_length_mismatch() {
        let e = TensorError::LengthMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn display_stale_cache() {
        let e = TensorError::StaleCache { cache: 2, graph: 5 };
        assert!(e.to_string().contains("cache generation 2"));
        assert!(e.to_string().contains("graph generation 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
