//! Compaction and durability policy knobs for [`crate::MutableIndex`].

use panda_core::TreeConfig;

/// When the write-ahead log is fsynced, for stores opened with
/// [`crate::MutableIndex::open`] (in-memory stores ignore it).
///
/// The policy sets the **acknowledged-durable window**: how many
/// acknowledged writes a crash may lose. It never affects ordering or
/// integrity — after any crash, recovery yields exactly a *prefix* of
/// the acknowledged write sequence (pinned by `tests/recovery.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record, before the write is acknowledged. An
    /// acknowledged write is durable, full stop — the crash-point sweep
    /// runs under this policy. The default.
    #[default]
    PerWrite,
    /// Fsync once every `n` records. Up to `n − 1` acknowledged writes
    /// may be lost to a crash; the surviving prefix is still exact.
    EveryN(u32),
    /// Fsync only when the log rotates at a compaction freeze (and at
    /// [`crate::MutableIndex::sync`]). The whole fresh log since the
    /// last freeze is at risk; cheapest per write.
    OnCompaction,
}

/// When and how a [`crate::MutableIndex`] compacts its write log into a
/// fresh tree generation.
///
/// Compaction triggers when **any** threshold is reached: the fresh log
/// holds at least [`compact_points`](Self::compact_points) points, the
/// log's resident size (coords + ids) reaches 1 MiB, or the total
/// tombstone count reaches [`max_deleted`](Self::max_deleted). Reads do
/// not pay per tombstone: the leaf kernel rejects a tombstoned point
/// before it can take a heap slot, so every query still searches for
/// exactly `k` live points. Tombstones cost memory until compaction
/// physically drops the deleted points.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Fresh-log point count that triggers a compaction (default 4096).
    /// The log is scanned exactly on every query, so this bounds the
    /// per-query brute-force work.
    pub compact_points: usize,
    /// Total tombstones (tree + frozen segment) that trigger a
    /// compaction (default 1024). Bounds memory and the copy-on-write
    /// clone a `remove` may make, not read cost.
    pub max_deleted: usize,
    /// Tree construction parameters for each rebuilt generation.
    pub tree: TreeConfig,
    /// Run compaction synchronously inside the triggering write instead
    /// of on the background pool (default `false`). Useful for
    /// deterministic tests; production keeps writes non-blocking.
    pub synchronous_compaction: bool,
    /// WAL fsync policy for durable stores (see [`FsyncPolicy`]).
    /// Ignored by in-memory stores ([`crate::MutableIndex::new`] /
    /// `from_points`).
    pub fsync: FsyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            compact_points: 4096,
            max_deleted: 1024,
            tree: TreeConfig::default(),
            synchronous_compaction: false,
            fsync: FsyncPolicy::PerWrite,
        }
    }
}

impl StoreConfig {
    /// Default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the fresh-log point-count compaction threshold.
    #[must_use]
    pub fn with_compact_points(mut self, n: usize) -> Self {
        self.compact_points = n;
        self
    }

    /// Set the tombstone-count compaction threshold.
    #[must_use]
    pub fn with_max_deleted(mut self, n: usize) -> Self {
        self.max_deleted = n;
        self
    }

    /// Set the tree construction parameters used by each compaction.
    #[must_use]
    pub fn with_tree(mut self, tree: TreeConfig) -> Self {
        self.tree = tree;
        self
    }

    /// Run compactions synchronously inside the triggering write.
    #[must_use]
    pub fn with_synchronous_compaction(mut self, sync: bool) -> Self {
        self.synchronous_compaction = sync;
        self
    }

    /// Set the WAL fsync policy for durable stores.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let cfg = StoreConfig::new()
            .with_compact_points(7)
            .with_max_deleted(3)
            .with_tree(TreeConfig::default().with_bucket_size(9))
            .with_synchronous_compaction(true)
            .with_fsync(FsyncPolicy::EveryN(16));
        assert_eq!(cfg.compact_points, 7);
        assert_eq!(cfg.max_deleted, 3);
        assert_eq!(cfg.tree.bucket_size, 9);
        assert!(cfg.synchronous_compaction);
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(16));
        assert_eq!(StoreConfig::default().fsync, FsyncPolicy::PerWrite);
    }
}
