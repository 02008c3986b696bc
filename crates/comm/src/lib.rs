//! # panda-comm — simulated distributed message-passing runtime
//!
//! PANDA (Patwary et al., IPDPS 2016) was evaluated on the Edison Cray XC30
//! with MPI across ~50,000 cores. This crate is the substitute substrate: an
//! in-process cluster where **each rank is an OS thread** owning private
//! data, and where point-to-point messages and MPI-style collectives move
//! *real values* between ranks over channels.
//!
//! Two things make it a *simulator* rather than a toy:
//!
//! 1. **Virtual clocks.** Every rank carries a [`clock::VirtualClock`].
//!    Compute sections advance it by *counted work* converted to seconds
//!    through a calibrated [`cost::CostModel`]; communication advances it
//!    through a LogP-style `α + β·bytes` model with log-tree collectives.
//!    Because the inputs to the clock are deterministic operation counts
//!    (not wall time), simulated timings are reproducible and independent
//!    of host load or oversubscription.
//! 2. **Full accounting.** Per-rank message/byte/collective counters
//!    ([`stats::CommStats`]) expose the communication volume arguments the
//!    paper makes (e.g. global-tree vs per-node local-tree query traffic).
//!
//! The algorithm built on top (see `panda-core`) therefore runs *exactly* —
//! results are bit-identical to a sequential computation — while the
//! reported times scale the way a real distributed memory machine would.
//!
//! ## Quick example
//!
//! ```
//! use panda_comm::{ClusterConfig, run_cluster};
//!
//! let cfg = ClusterConfig::new(4);
//! let outcomes = run_cluster(&cfg, |comm| {
//!     // every rank contributes its rank id; allreduce sums them
//!     comm.allreduce_sum(comm.rank() as u64)
//! });
//! for o in &outcomes {
//!     assert_eq!(o.result, 0 + 1 + 2 + 3);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod error;
pub mod group;
pub(crate) mod mailbox;
pub mod stats;

pub use clock::{ClockSummary, VirtualClock};
pub use cluster::{make_endpoints, makespan, run_cluster, total_stats, ClusterConfig, RankOutcome};
pub use collectives::ReduceOp;
pub use comm::{Comm, Tag};
pub use cost::{log2_ceil, ComputeCosts, CostModel, MachineProfile, NetworkCosts, ThreadModel};
pub use error::CommError;
pub use group::Group;
pub use stats::CommStats;

/// Convenience alias: result type used throughout the crate.
pub type Result<T> = std::result::Result<T, CommError>;
