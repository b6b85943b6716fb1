//! Typed serving errors: admission-control rejections and execution
//! failures, reusing `smat-diag` findings for pre-flight rejections.

use smat_diag::Diagnostic;
use smat_gpusim::SimError;

/// Why the admission controller refused a request before execution.
#[derive(Clone, Debug)]
pub enum RejectReason {
    /// Every device queue was at capacity — backpressure. Retry later.
    QueueFull {
        /// Pending requests across the pool at rejection time.
        depth: usize,
        /// Total pool capacity (per-queue capacity × devices).
        capacity: usize,
    },
    /// The request's deadline expired before its batch reached a device.
    Deadline {
        /// How far past the deadline the request was when dropped, in
        /// milliseconds of host wall clock.
        late_ms: f64,
    },
    /// The static pre-flight pass found error-severity findings for this
    /// (matrix, n) plan; the launch would be rejected by the pipeline, so
    /// the request is refused at admission instead of wasting queue slots.
    Preflight {
        /// The findings (at least one of error severity).
        diagnostics: Vec<Diagnostic>,
    },
}

impl RejectReason {
    /// Stable label used in stats and logs.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::Deadline { .. } => "deadline",
            RejectReason::Preflight { .. } => "preflight",
        }
    }
}

/// Error type of [`Server::submit`](crate::Server::submit) futures.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Refused by admission control (typed reason inside).
    Rejected(RejectReason),
    /// The request's B panel row count does not match the matrix.
    ShapeMismatch {
        /// Rows the registered matrix requires of B.
        expected_rows: usize,
        /// Rows the submitted panel has.
        got_rows: usize,
    },
    /// The simulated device failed the launch (e.g. out of memory).
    Sim(SimError),
    /// The server shut down before the request completed.
    ShutDown,
    /// The referenced matrix key is not registered.
    UnknownMatrix,
    /// A mutation targeted a cell outside the matrix bounds.
    UpdateOutOfBounds {
        /// Registered matrix rows.
        nrows: usize,
        /// Registered matrix columns.
        ncols: usize,
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(RejectReason::QueueFull { depth, capacity }) => {
                write!(f, "rejected: queue full ({depth}/{capacity} pending)")
            }
            ServeError::Rejected(RejectReason::Deadline { late_ms }) => {
                write!(f, "rejected: deadline missed by {late_ms:.3} ms")
            }
            ServeError::Rejected(RejectReason::Preflight { diagnostics }) => {
                write!(f, "rejected: pre-flight ({} findings)", diagnostics.len())
            }
            ServeError::ShapeMismatch {
                expected_rows,
                got_rows,
            } => write!(f, "B must have {expected_rows} rows, got {got_rows}"),
            ServeError::Sim(e) => write!(f, "simulated launch failed: {e}"),
            ServeError::ShutDown => write!(f, "server shut down before completion"),
            ServeError::UnknownMatrix => write!(f, "matrix key not registered"),
            ServeError::UpdateOutOfBounds {
                nrows,
                ncols,
                row,
                col,
            } => write!(
                f,
                "update targets ({row},{col}) outside the {nrows}x{ncols} matrix"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_display_are_stable() {
        let q = RejectReason::QueueFull {
            depth: 4,
            capacity: 4,
        };
        assert_eq!(q.label(), "queue-full");
        assert_eq!(
            ServeError::Rejected(q).to_string(),
            "rejected: queue full (4/4 pending)"
        );
        let d = RejectReason::Deadline { late_ms: 1.5 };
        assert_eq!(d.label(), "deadline");
        let p = RejectReason::Preflight {
            diagnostics: vec![],
        };
        assert_eq!(p.label(), "preflight");
        assert!(ServeError::ShutDown.to_string().contains("shut down"));
        assert_eq!(
            ServeError::UpdateOutOfBounds {
                nrows: 4,
                ncols: 8,
                row: 9,
                col: 1
            }
            .to_string(),
            "update targets (9,1) outside the 4x8 matrix"
        );
    }
}
