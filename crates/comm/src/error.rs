//! Error type for the communication substrate.

use std::fmt;

/// Errors surfaced by the simulated runtime.
///
/// Most misuse (deadlock, type confusion on a tag) is a programming error in
/// SPMD code; we surface them as typed errors where recovery is plausible
/// and panic with context where it is not (mirroring how MPI aborts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A blocking receive waited [`crate::ClusterConfig::recv_timeout`]
    /// with no matching message. Indicates either a dead/stalled peer or
    /// mismatched send/recv sequences (deadlock).
    Timeout {
        /// Rank that was waiting.
        rank: usize,
        /// Source rank the receive was posted against.
        src: usize,
        /// Tag the receive was posted against.
        tag: u64,
    },
    /// A message payload did not have the type the receiver asked for.
    TypeMismatch {
        /// Rank that performed the receive.
        rank: usize,
        /// Source of the offending message.
        src: usize,
        /// Tag of the offending message.
        tag: u64,
    },
    /// Rank index out of range for the communicator/group.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// Size of the communicator it was used with.
        size: usize,
    },
    /// A cluster was configured with zero ranks.
    EmptyCluster,
    /// A peer rank panicked; the cluster run was torn down.
    PeerFailure(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => write!(
                f,
                "rank {rank}: receive from rank {src} (tag {tag:#x}) timed out \
                 — stalled peer or deadlock"
            ),
            CommError::TypeMismatch { rank, src, tag } => write!(
                f,
                "rank {rank}: message from rank {src} (tag {tag:#x}) had unexpected payload type"
            ),
            CommError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank index {rank} out of range for communicator of size {size}"
                )
            }
            CommError::EmptyCluster => write!(f, "cluster must have at least one rank"),
            CommError::PeerFailure(msg) => write!(f, "peer rank failed: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CommError::Timeout {
            rank: 3,
            src: 1,
            tag: 0xff,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("timed out"));

        let e = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CommError::EmptyCluster, CommError::EmptyCluster);
        assert_ne!(
            CommError::EmptyCluster,
            CommError::InvalidRank { rank: 0, size: 0 }
        );
    }
}
