//! Store observability: typed `panda_obs` counters/gauges plus the
//! shared pow2 duration histogram, registered under `store.*` names and
//! snapshotted into a plain [`StoreStats`] — the same reporting pattern
//! as `panda_service`'s `ServiceStats`.

use std::time::Duration;

use panda_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// Pow2 nanosecond buckets covering ~1 ns .. ~18 min.
const DUR_BUCKETS: usize = 41;

/// Live metric handles, shared with the store's [`Registry`] so one
/// telemetry snapshot carries them alongside every other crate's.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    pub registry: Registry,
    pub inserted: Counter,
    pub removed: Counter,
    pub compactions: Counter,
    pub compaction_failures: Counter,
    /// Live (queryable) points, refreshed on every write and swap.
    pub live_points: Gauge,
    /// Fresh-log points, refreshed on every write and swap.
    pub log_points: Gauge,
    compact_hist: Histogram,
}

impl StoreMetrics {
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            inserted: registry.counter("store.inserted"),
            removed: registry.counter("store.removed"),
            compactions: registry.counter("store.compactions"),
            compaction_failures: registry.counter("store.compaction_failures"),
            live_points: registry.gauge("store.live_points"),
            log_points: registry.gauge("store.log_points"),
            compact_hist: registry.histogram("store.compaction_ns", DUR_BUCKETS),
            registry,
        }
    }

    /// Record one successful compaction's wall duration.
    pub fn record_compaction(&self, dur: Duration) {
        self.compactions.inc();
        self.compact_hist.record_duration(dur);
    }

    pub fn hist_snapshot(&self) -> HistogramSnapshot {
        self.compact_hist.snapshot()
    }
}

/// A point-in-time snapshot of a [`crate::MutableIndex`]'s health,
/// returned by [`crate::MutableIndex::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Live (queryable) points: tree + frozen + fresh, minus tombstones.
    pub live_points: usize,
    /// Points in the current immutable tree generation (including ones
    /// already tombstoned — they leave at the next compaction).
    pub tree_points: usize,
    /// Points in the fresh write log (brute-force-scanned per query).
    pub log_points: usize,
    /// Points in the frozen segment currently being compacted
    /// (0 when no compaction is in flight).
    pub frozen_points: usize,
    /// Outstanding tombstones (tree + frozen targets). Reads skip them in
    /// the leaf kernel; each holds memory until a compaction clears it.
    pub deleted: usize,
    /// Total `insert` calls accepted.
    pub inserted: u64,
    /// Total `remove` calls that removed a live point.
    pub removed: u64,
    /// Compactions completed successfully (== number of tree swaps).
    pub compactions: u64,
    /// Compactions that failed or panicked and were rolled back.
    pub compaction_failures: u64,
    /// True while a background compaction is in flight.
    pub compacting: bool,
    /// Generation number of the serving tree; incremented by every
    /// successful atomic swap.
    pub epoch: u64,
    /// Median successful-compaction duration (pow2 bucket upper edge).
    pub compaction_p50_seconds: f64,
    /// 99th-percentile successful-compaction duration.
    pub compaction_p99_seconds: f64,
    /// True for stores opened with [`crate::MutableIndex::open`] (all
    /// `wal_*`/`snapshot_*` fields stay zero on in-memory stores).
    pub durable: bool,
    /// WAL segment files on disk (closed + active).
    pub wal_segments: usize,
    /// Logical bytes in the active WAL segment (header + records).
    pub wal_bytes: u64,
    /// Prefix of the active segment guaranteed on disk. Equal to
    /// `wal_bytes` under [`crate::FsyncPolicy::PerWrite`]; lags it by
    /// the at-risk window under the batched policies.
    pub wal_synced_bytes: u64,
    /// Records appended since this handle opened the store.
    pub wal_appends: u64,
    /// Fsyncs issued since this handle opened the store.
    pub wal_fsyncs: u64,
    /// Sequence number of the newest published snapshot checkpoint
    /// (0 before the first compaction of a durable store).
    pub snapshot_seq: u64,
    /// Snapshot checkpoints published since this handle opened the store.
    pub snapshots_written: u64,
}

impl StoreStats {
    pub(crate) fn quantiles(hist: &HistogramSnapshot) -> (f64, f64) {
        (hist.quantile_seconds(0.50), hist.quantile_seconds(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let m = StoreMetrics::new();
        let (p50, p99) = StoreStats::quantiles(&m.hist_snapshot());
        assert_eq!((p50, p99), (0.0, 0.0));
    }

    #[test]
    fn quantiles_walk_bucket_upper_edges() {
        let m = StoreMetrics::new();
        for _ in 0..99 {
            m.record_compaction(Duration::from_nanos(1000)); // bucket edge ≤ 2^10 ns
        }
        m.record_compaction(Duration::from_millis(8));
        let (p50, p99) = StoreStats::quantiles(&m.hist_snapshot());
        assert!(p50 <= 3e-6, "p50 near the fast cluster, got {p50}");
        assert!(p99 <= 3e-6, "99/100 samples are fast, got {p99}");
        let p999 = m.hist_snapshot().quantile_seconds(0.999);
        assert!(p999 >= 8e-3, "tail sees the slow sample, got {p999}");
        assert_eq!(m.compactions.get(), 100);
    }

    #[test]
    fn registry_carries_store_metrics() {
        let m = StoreMetrics::new();
        m.inserted.add(5);
        m.live_points.set(5);
        m.record_compaction(Duration::from_micros(3));
        let snap = m.registry.snapshot();
        assert_eq!(snap.counter("store.inserted"), Some(5));
        assert_eq!(snap.gauge("store.live_points"), Some(5));
        let hist = snap.histogram("store.compaction_ns").unwrap();
        assert_eq!(hist.total(), 1);
    }
}
