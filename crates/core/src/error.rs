//! Error type for the PANDA core library.

use std::fmt;
use std::time::Duration;

use panda_comm::CommError;

/// Errors reported by tree construction and querying APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum PandaError {
    /// A point coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point.
        point: usize,
        /// Dimension of the offending coordinate.
        dim: usize,
    },
    /// Dimensionality out of the supported range `1..=MAX_DIMS`.
    BadDims {
        /// The requested dimensionality.
        dims: usize,
    },
    /// Coordinate buffer length is not a multiple of `dims`.
    RaggedCoordinates {
        /// Buffer length supplied.
        len: usize,
        /// Dimensionality supplied.
        dims: usize,
    },
    /// `ids` and coordinate buffers disagree on the number of points.
    IdCountMismatch {
        /// Number of points implied by coordinates.
        points: usize,
        /// Number of ids supplied.
        ids: usize,
    },
    /// `k` must be at least 1.
    ZeroK,
    /// Query dimensionality differs from the indexed points.
    DimsMismatch {
        /// Dimensionality of the index.
        expected: usize,
        /// Dimensionality of the query.
        got: usize,
    },
    /// Point-count mismatch between two sets that must align (e.g. the
    /// point set handed to `knn_graph` vs. the indexed points).
    LenMismatch {
        /// Number of points expected.
        expected: usize,
        /// Number of points supplied.
        got: usize,
    },
    /// Operation requires a non-empty point set.
    EmptyPointSet,
    /// A search radius was NaN, infinite, negative, or zero. A radius
    /// limit must be a positive finite number; use *no* radius (e.g.
    /// [`crate::engine::QueryRequest`] without `with_radius`) for an
    /// unbounded KNN search.
    BadRadius {
        /// The rejected radius value.
        radius: f32,
    },
    /// A configuration value was invalid.
    BadConfig(String),
    /// An I/O error (dataset persistence).
    Io(String),
    /// A durable file (dataset, snapshot, or WAL header) failed its
    /// integrity checks: bad magic, unsupported version, truncation, or
    /// a checksum mismatch. Unlike a torn WAL *tail* (which recovery
    /// silently truncates — it holds only unacknowledged writes), a
    /// corrupt snapshot or header means acknowledged-durable data is
    /// unreadable, so it must surface instead of being papered over.
    Corrupt {
        /// Path of the unreadable file.
        path: String,
        /// What check failed.
        detail: String,
    },
    /// A query service's bounded submission queue is full and its
    /// overflow policy rejects rather than blocks. Retry later, raise
    /// the queue capacity, or switch the service to the blocking policy.
    Overloaded {
        /// Queued query points at the time of rejection.
        depth: usize,
        /// Configured queue capacity (query points).
        capacity: usize,
    },
    /// The query service was shut down; no further submissions are
    /// accepted (tickets issued before shutdown still resolve).
    ServiceStopped,
    /// A backend panicked while executing a service batch. The service
    /// stays up (the panic is contained to the batch); the message
    /// carries whatever context the panic payload offered.
    BackendPanicked(String),
    /// The query's deadline elapsed before the scheduler could execute
    /// it; the query was shed unexecuted (see
    /// [`crate::engine::QueryRequest::with_deadline`]).
    DeadlineExceeded {
        /// The deadline the submission carried (relative to submit time).
        deadline: Duration,
        /// How long the query had actually waited when it was shed.
        waited: Duration,
    },
    /// The client cancelled the submission before execution; its queue
    /// slot was reclaimed and the query never ran.
    Cancelled,
    /// A communication-layer failure (a peer stalled past the receive bound)
    /// surfaced through a distributed query instead of aborting the run.
    Comm(CommError),
    /// An insert supplied a global id that is already live in a mutable
    /// index. Ids are the identity deletions and updates address, so a
    /// live duplicate would make results ambiguous; `remove` the old
    /// point first to update it.
    DuplicateId {
        /// The already-live id.
        id: u64,
    },
    /// An armed fault point fired (test harness only — see
    /// [`crate::faultpoint`]). Never produced in production runs.
    FaultInjected {
        /// Name of the fault point that fired.
        point: String,
    },
}

impl fmt::Display for PandaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PandaError::NonFiniteCoordinate { point, dim } => {
                write!(
                    f,
                    "point {point} has a non-finite coordinate in dimension {dim}"
                )
            }
            PandaError::BadDims { dims } => write!(
                f,
                "dimensionality {dims} unsupported (must be 1..={})",
                crate::point::MAX_DIMS
            ),
            PandaError::RaggedCoordinates { len, dims } => {
                write!(
                    f,
                    "coordinate buffer of length {len} is not a multiple of dims={dims}"
                )
            }
            PandaError::IdCountMismatch { points, ids } => {
                write!(f, "{points} points but {ids} ids supplied")
            }
            PandaError::ZeroK => write!(f, "k must be at least 1"),
            PandaError::DimsMismatch { expected, got } => {
                write!(f, "query has {got} dimensions, index has {expected}")
            }
            PandaError::LenMismatch { expected, got } => {
                write!(f, "point set has {got} points, expected {expected}")
            }
            PandaError::EmptyPointSet => write!(f, "operation requires a non-empty point set"),
            PandaError::BadRadius { radius } => write!(
                f,
                "search radius must be a positive finite number, got {radius} \
                 (omit the radius for an unbounded KNN search)"
            ),
            PandaError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PandaError::Io(msg) => write!(f, "i/o error: {msg}"),
            PandaError::Corrupt { path, detail } => {
                write!(f, "corrupt file {path:?}: {detail}")
            }
            PandaError::Overloaded { depth, capacity } => write!(
                f,
                "service queue overloaded ({depth} queries queued, capacity {capacity}); \
                 retry later or raise the capacity"
            ),
            PandaError::ServiceStopped => {
                write!(f, "query service was shut down; submissions are closed")
            }
            PandaError::BackendPanicked(msg) => {
                write!(f, "backend panicked while executing a service batch: {msg}")
            }
            PandaError::DeadlineExceeded { deadline, waited } => write!(
                f,
                "query deadline of {deadline:?} exceeded (waited {waited:?}); \
                 the query was shed before execution"
            ),
            PandaError::Cancelled => {
                write!(f, "submission was cancelled before execution")
            }
            PandaError::Comm(e) => write!(f, "communication failure: {e}"),
            PandaError::DuplicateId { id } => write!(
                f,
                "point id {id} is already live in the index; remove it before re-inserting"
            ),
            PandaError::FaultInjected { point } => {
                write!(f, "injected fault fired at point {point:?}")
            }
        }
    }
}

impl std::error::Error for PandaError {}

impl From<std::io::Error> for PandaError {
    fn from(e: std::io::Error) -> Self {
        PandaError::Io(e.to_string())
    }
}

impl From<CommError> for PandaError {
    fn from(e: CommError) -> Self {
        PandaError::Comm(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PandaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_payload() {
        assert!(PandaError::NonFiniteCoordinate { point: 7, dim: 2 }
            .to_string()
            .contains("point 7"));
        assert!(PandaError::BadDims { dims: 99 }.to_string().contains("99"));
        assert!(PandaError::DimsMismatch {
            expected: 3,
            got: 10
        }
        .to_string()
        .contains("10"));
        let e = PandaError::LenMismatch {
            expected: 50,
            got: 10,
        }
        .to_string();
        assert!(e.contains("50") && e.contains("10"));
    }

    #[test]
    fn io_conversion() {
        let e: PandaError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, PandaError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn comm_conversion_preserves_the_typed_error() {
        let inner = CommError::Timeout {
            rank: 2,
            src: 0,
            tag: 0x8000_0000_0000_0004,
        };
        let e: PandaError = inner.clone().into();
        assert_eq!(e, PandaError::Comm(inner));
        assert!(e.to_string().contains("timed out"), "{e}");
    }

    #[test]
    fn robustness_variants_display_their_context() {
        let e = PandaError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
            waited: Duration::from_millis(9),
        };
        assert!(e.to_string().contains("5ms"), "{e}");
        assert!(e.to_string().contains("shed"), "{e}");
        assert!(PandaError::Cancelled.to_string().contains("cancelled"));
        let e = PandaError::DuplicateId { id: 42 };
        assert!(e.to_string().contains("42"), "{e}");
        let e = PandaError::FaultInjected {
            point: "service.drain".into(),
        };
        assert!(e.to_string().contains("service.drain"), "{e}");
        let e = PandaError::Corrupt {
            path: "/tmp/snap.pnda".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("snap.pnda"), "{e}");
        assert!(e.to_string().contains("checksum"), "{e}");
    }
}
