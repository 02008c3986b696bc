//! # panda_store — a mutable exact-KNN index
//!
//! The PANDA tree ([`panda_core::knn::KnnIndex`]) is immutable: superb
//! for query throughput, useless for streams. This crate wraps it in a
//! log-structured mutable layer, the classic LSM shape applied to a
//! spatial index:
//!
//! * **Writes** append to an in-memory fresh log ([`MutableIndex::insert`])
//!   or lay copy-on-write tombstones ([`MutableIndex::remove`]).
//! * **Queries** run against the immutable tree generation (tombstones
//!   skipped in its leaf kernel), brute-force-scan the log through that
//!   same fused SIMD kernel, and merge — results are bit-identical in
//!   distances to a from-scratch brute-force scan of the live set, always.
//! * **Compaction** runs in the background on the persistent rayon
//!   pool: the log freezes, tree + log − tombstones rebuild into a new
//!   generation, and an atomic swap publishes it (epoch + 1) without
//!   blocking writers or readers. Failures roll back and surface as
//!   typed errors; the old tree keeps serving.
//! * **Durability** is opt-in via [`MutableIndex::open`]: every
//!   mutation appends a checksummed record to a write-ahead log before
//!   it is acknowledged, and each compaction checkpoints the new tree
//!   generation into a snapshot file that absorbs the log it covers.
//!   Reopening the directory recovers the newest snapshot plus a WAL
//!   replay.
//!
//! # Durability contract
//!
//! For a store opened with [`MutableIndex::open`], define the
//! *acknowledged* sequence as the mutations whose `insert`/`remove`
//! call returned `Ok`. After a crash at **any** instant, reopening
//! recovers exactly a **prefix** of that sequence — never a reordered
//! subset, a torn point, or a resurrected delete. How long the
//! at-risk suffix can be is the fsync policy's only effect
//! ([`FsyncPolicy`], set via [`StoreConfig::with_fsync`]):
//!
//! | Policy | Acknowledged write lost on crash |
//! |---|---|
//! | [`FsyncPolicy::PerWrite`] (default) | never — ack ⇒ durable |
//! | [`FsyncPolicy::EveryN`]`(n)` | at most the last `n − 1` |
//! | [`FsyncPolicy::OnCompaction`] | any since the last freeze/[`MutableIndex::sync`] |
//!
//! A torn or bit-flipped WAL *tail* is silently truncated at recovery
//! (it can only hold unacknowledged or not-yet-durable writes); an
//! unreadable snapshot — acknowledged-durable state — surfaces as
//! [`panda_core::PandaError::Corrupt`] instead of being papered over.
//! The crash-point sweep in `tests/recovery.rs` pins all of this by
//! killing a scripted workload at every fault point and diffing the
//! recovered store against a brute-force oracle.
//!
//! See [`MutableIndex`] for the full lifecycle contract and
//! [`StoreConfig`] for the compaction and durability policy knobs.

#![warn(missing_docs)]

mod config;
mod index;
mod stats;
mod wal;

pub use config::{FsyncPolicy, StoreConfig};
pub use index::MutableIndex;
pub use stats::StoreStats;
