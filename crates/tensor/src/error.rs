use std::fmt;

/// Error type returned by fallible tensor operations.
///
/// Every public operation that can fail (shape mismatch, bad index, invalid
/// sparse structure, …) returns `Result<T, TensorError>` rather than
/// panicking, so callers can surface precise diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match (or be compatible) do not.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand / first operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand / second operand.
        rhs: Vec<usize>,
    },
    /// The tensor rank (number of dimensions) is not what the op requires.
    RankMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Rank the operation expected.
        expected: usize,
        /// Rank that was provided.
        actual: usize,
    },
    /// An index (element, row, or axis) is out of bounds.
    IndexOutOfBounds {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Offending index value.
        index: usize,
        /// Exclusive bound the index must stay below.
        bound: usize,
    },
    /// A sparse matrix failed structural validation.
    InvalidSparse {
        /// Description of the structural violation.
        reason: String,
    },
    /// A numeric argument was invalid (e.g. zero-sized dimension, p∉(0,1)).
    InvalidArgument {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Description of why the argument is invalid.
        reason: String,
    },
    /// Training produced a numeric anomaly (NaN/Inf loss, exploding
    /// gradients, divergence) and was aborted rather than left to train
    /// garbage.
    NumericAnomaly {
        /// What was being monitored (e.g. `"epoch loss"`, `"grad norm"`).
        what: &'static str,
        /// Epoch at which the anomaly was detected (0-based).
        epoch: usize,
        /// Description of the anomalous value.
        value: String,
    },
    /// An error annotated with the workload it occurred in, so suite-level
    /// failures name their workload instead of a bare tensor error.
    InWorkload {
        /// The workload's display label (e.g. `"PSAGE-MVL"`).
        workload: String,
        /// The underlying error.
        source: Box<TensorError>,
    },
}

impl TensorError {
    /// Wraps the error with the workload it occurred in (idempotent: an
    /// already-annotated error is returned unchanged).
    #[must_use]
    pub fn in_workload(self, workload: &str) -> TensorError {
        match self {
            TensorError::InWorkload { .. } => self,
            other => TensorError::InWorkload {
                workload: workload.to_string(),
                source: Box::new(other),
            },
        }
    }

    /// The innermost error, unwrapping any workload annotation.
    pub fn root_cause(&self) -> &TensorError {
        match self {
            TensorError::InWorkload { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in `{op}`: {lhs:?} vs {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "rank mismatch in `{op}`: expected {expected}, got {actual}"
                )
            }
            TensorError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "index {index} out of bounds ({bound}) in `{op}`")
            }
            TensorError::InvalidSparse { reason } => {
                write!(f, "invalid sparse structure: {reason}")
            }
            TensorError::InvalidArgument { op, reason } => {
                write!(f, "invalid argument to `{op}`: {reason}")
            }
            TensorError::NumericAnomaly { what, epoch, value } => {
                write!(f, "numeric anomaly at epoch {epoch}: {what} {value}")
            }
            TensorError::InWorkload { workload, source } => {
                write!(f, "{workload}: {source}")
            }
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::InWorkload { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("[2, 3]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn workload_context_wraps_and_unwraps() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let wrapped = e.clone().in_workload("PSAGE-MVL");
        let s = wrapped.to_string();
        assert!(s.starts_with("PSAGE-MVL: "), "{s}");
        assert!(s.contains("matmul"));
        assert_eq!(wrapped.root_cause(), &e);
        // Idempotent: re-wrapping keeps the original workload name.
        let twice = wrapped.clone().in_workload("OTHER");
        assert!(twice.to_string().starts_with("PSAGE-MVL: "));
        // std::error::Error::source exposes the cause chain.
        use std::error::Error as _;
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn numeric_anomaly_displays_epoch_and_value() {
        let e = TensorError::NumericAnomaly {
            what: "epoch loss",
            epoch: 3,
            value: "NaN".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("epoch 3") && s.contains("NaN"), "{s}");
    }
}
