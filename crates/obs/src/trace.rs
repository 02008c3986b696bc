//! Per-query pipeline tracing: sampled stage spans in a lock-free ring.
//!
//! A [`TraceId`] is minted at `ServiceHandle::submit` (1-in-N sampling,
//! [`set_sampling`]) and carried with the query through the micro-batch
//! into the backend. Each pipeline stage that handles a sampled query
//! calls [`record`], which appends a `(trace, stage, start, duration)`
//! event to a fixed-size global ring buffer.
//!
//! Cost model mirrors `panda_core::faultpoint`: when sampling is off
//! (the default) [`maybe_sample`] is a single relaxed atomic load, and
//! [`record`] on an unsampled [`TraceId::NONE`] is a branch on a local
//! integer — no stores, no time syscalls. Sampled writes take one
//! `fetch_add` to claim a slot plus five relaxed stores guarded by a
//! per-slot seqlock, so tracing never blocks the pipeline and readers
//! ([`events`], [`TraceReport::gather`]) simply skip slots that are
//! mid-write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identifier for one sampled query's trip through the pipeline.
///
/// `TraceId::NONE` (the common case) makes every recording call a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The unsampled id: recording against it does nothing.
    pub const NONE: TraceId = TraceId(0);

    /// True when this query was selected for tracing.
    #[inline]
    #[must_use]
    pub fn is_sampled(self) -> bool {
        self.0 != 0
    }

    /// Raw id value (0 = unsampled).
    #[inline]
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a trace id from [`Self::raw`] (for carrying through
    /// layers that can only hold plain integers).
    #[inline]
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }
}

/// Pipeline stages recorded by the tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Stage {
    /// Service: waiting in the pending queue before a flush picked it up.
    Queue = 0,
    /// Service: micro-batch assembly (coalescing member coords).
    Flush = 1,
    /// Sharded engine: routing the batch to its owning shards.
    Scatter = 2,
    /// Sharded engine: one shard's whole answer to one pass.
    ShardWorker = 3,
    /// Leaf kernel: the local batched kd-tree traversal.
    LeafKernel = 4,
    /// Sharded engine: gather + merge of per-shard results.
    Gather = 5,
    /// Service: scattering the batch response back into tickets.
    Resolve = 6,
    /// Store: WAL record append (write portion).
    WalAppend = 7,
    /// Store: WAL fsync.
    WalFsync = 8,
    /// Store: freezing the write log into a frozen segment.
    Freeze = 9,
    /// Store: background compaction tree build.
    CompactBuild = 10,
    /// Store: compaction atomic swap (under the write lock).
    CompactSwap = 11,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 12] = [
        Stage::Queue,
        Stage::Flush,
        Stage::Scatter,
        Stage::ShardWorker,
        Stage::LeafKernel,
        Stage::Gather,
        Stage::Resolve,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::Freeze,
        Stage::CompactBuild,
        Stage::CompactSwap,
    ];

    /// Stable lowercase name (used in trace reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Flush => "flush",
            Stage::Scatter => "scatter",
            Stage::ShardWorker => "shard_worker",
            Stage::LeafKernel => "leaf_kernel",
            Stage::Gather => "gather",
            Stage::Resolve => "resolve",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::Freeze => "freeze",
            Stage::CompactBuild => "compact_build",
            Stage::CompactSwap => "compact_swap",
        }
    }

    fn from_u64(v: u64) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// Sampling period: 0 = tracing off, N = mint a trace id for 1-in-N
/// [`maybe_sample`] calls.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
/// Rolling tick deciding which calls win the 1-in-N lottery.
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);
/// Next trace id to mint (0 is reserved for NONE).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Enable 1-in-`every` sampling (0 disables tracing entirely).
pub fn set_sampling(every: u64) {
    // Touch the epoch before arming so concurrent recorders never race
    // the OnceLock initialisation on the hot path.
    let _ = epoch();
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Current sampling period (0 = off).
#[must_use]
pub fn sampling() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Mint a [`TraceId`] if this call wins the 1-in-N sampling lottery.
///
/// When sampling is disabled this is a single relaxed load.
#[inline]
#[must_use]
pub fn maybe_sample() -> TraceId {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return TraceId::NONE;
    }
    sample_slow(every)
}

#[cold]
fn sample_slow(every: u64) -> TraceId {
    let tick = SAMPLE_TICK.fetch_add(1, Ordering::Relaxed);
    if tick.is_multiple_of(every) {
        TraceId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    } else {
        TraceId::NONE
    }
}

/// One recorded stage span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which sampled query this span belongs to.
    pub trace: TraceId,
    /// Pipeline stage.
    pub stage: Stage,
    /// Span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

const RING_BITS: usize = 13;
/// Ring capacity (events); old events are overwritten.
pub const RING_CAPACITY: usize = 1 << RING_BITS;

/// One seqlock-guarded ring slot. `seq` is even when the slot holds a
/// consistent event (seq/2 = claim ticket + 1), odd while a writer is
/// mid-update; 0 means never written.
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    trace: AtomicU64::new(0),
    stage: AtomicU64::new(0),
    start: AtomicU64::new(0),
    dur: AtomicU64::new(0),
};
static SLOTS: [Slot; RING_CAPACITY] = [EMPTY_SLOT; RING_CAPACITY];
static CURSOR: AtomicU64 = AtomicU64::new(0);

/// Record a span for `stage` that started at `start` and ends now.
///
/// No-op when `id` is [`TraceId::NONE`].
#[inline]
pub fn record(id: TraceId, stage: Stage, start: Instant) {
    if !id.is_sampled() {
        return;
    }
    record_slow(id, stage, start, Instant::now());
}

/// Record a span with an explicit end time.
#[inline]
pub fn record_between(id: TraceId, stage: Stage, start: Instant, end: Instant) {
    if !id.is_sampled() {
        return;
    }
    record_slow(id, stage, start, end);
}

#[cold]
fn record_slow(id: TraceId, stage: Stage, start: Instant, end: Instant) {
    let ep = epoch();
    let start_ns = start.saturating_duration_since(ep).as_nanos() as u64;
    let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
    let ticket = CURSOR.fetch_add(1, Ordering::Relaxed);
    let slot = &SLOTS[(ticket as usize) & (RING_CAPACITY - 1)];
    // Per-slot seqlock: dirty (odd) while writing, clean (even) when
    // done; successive owners of a slot are a full ring wrap apart so
    // their seqs are strictly increasing. A writer that lost its slot
    // to a later owner (lagged a whole wrap behind) drops its event
    // rather than corrupt the newer one.
    let dirty = ticket.wrapping_mul(2).wrapping_add(1);
    let prev = slot.seq.fetch_max(dirty, Ordering::AcqRel);
    if prev > dirty {
        return;
    }
    slot.trace.store(id.raw(), Ordering::Relaxed);
    slot.stage.store(stage as u64, Ordering::Relaxed);
    slot.start.store(start_ns, Ordering::Relaxed);
    slot.dur.store(dur_ns, Ordering::Relaxed);
    let _ = slot
        .seq
        .compare_exchange(dirty, dirty + 1, Ordering::Release, Ordering::Relaxed);
}

/// Copy out every consistent event currently in the ring, oldest first
/// by start time. Slots being written concurrently are skipped.
#[must_use]
pub fn events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for slot in SLOTS.iter() {
        let seq0 = slot.seq.load(Ordering::Acquire);
        if seq0 == 0 || seq0 & 1 == 1 {
            continue;
        }
        let trace = slot.trace.load(Ordering::Relaxed);
        let stage = slot.stage.load(Ordering::Relaxed);
        let start = slot.start.load(Ordering::Relaxed);
        let dur = slot.dur.load(Ordering::Relaxed);
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 != seq0 {
            continue; // torn read: a writer landed mid-copy
        }
        let Some(stage) = Stage::from_u64(stage) else {
            continue;
        };
        out.push(TraceEvent {
            trace: TraceId(trace),
            stage,
            start_ns: start,
            dur_ns: dur,
        });
    }
    out.sort_by_key(|e| (e.start_ns, e.trace.raw()));
    out
}

/// Discard all buffered events (sampling state is unchanged).
pub fn clear() {
    for slot in SLOTS.iter() {
        slot.seq.store(0, Ordering::Release);
    }
}

/// Per-stage latency summary derived from the ring buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// One row per stage that has at least one event, pipeline order.
    pub stages: Vec<StageBreakdown>,
    /// Total events the report was built from.
    pub events: usize,
    /// Distinct sampled trace ids seen.
    pub traces: usize,
}

/// Latency summary for one pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageBreakdown {
    /// Which stage.
    pub stage: Stage,
    /// Number of recorded spans.
    pub count: u64,
    /// Mean span duration in nanoseconds.
    pub mean_ns: f64,
    /// Median span duration in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile span duration in nanoseconds.
    pub p99_ns: u64,
    /// Largest span duration in nanoseconds.
    pub max_ns: u64,
}

impl TraceReport {
    /// Build a report from everything currently in the ring.
    #[must_use]
    pub fn gather() -> Self {
        Self::from_events(&events())
    }

    /// Build a report from an explicit event list.
    #[must_use]
    pub fn from_events(evs: &[TraceEvent]) -> Self {
        let mut traces: Vec<u64> = evs.iter().map(|e| e.trace.raw()).collect();
        traces.sort_unstable();
        traces.dedup();
        let mut stages = Vec::new();
        for stage in Stage::ALL {
            let mut durs: Vec<u64> = evs
                .iter()
                .filter(|e| e.stage == stage)
                .map(|e| e.dur_ns)
                .collect();
            if durs.is_empty() {
                continue;
            }
            durs.sort_unstable();
            let count = durs.len() as u64;
            let sum: u64 = durs.iter().sum();
            let q = |p: f64| -> u64 {
                let idx = ((p * count as f64).ceil() as usize).clamp(1, durs.len()) - 1;
                durs[idx]
            };
            stages.push(StageBreakdown {
                stage,
                count,
                mean_ns: sum as f64 / count as f64,
                p50_ns: q(0.5),
                p99_ns: q(0.99),
                max_ns: *durs.last().unwrap(),
            });
        }
        TraceReport {
            stages,
            events: evs.len(),
            traces: traces.len(),
        }
    }

    /// Breakdown row for `stage`, if any spans were recorded.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageBreakdown> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace report: {} events, {} sampled queries",
            self.events, self.traces
        )?;
        writeln!(
            f,
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "stage", "count", "mean_us", "p50_us", "p99_us", "max_us"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<14} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                s.stage.name(),
                s.count,
                s.mean_ns / 1e3,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Tracing state is process-global; tests in this module share it,
    // so they run under a lock to avoid cross-talk.
    fn serial<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        let r = f();
        set_sampling(0);
        clear();
        r
    }

    #[test]
    fn disarmed_is_none() {
        serial(|| {
            set_sampling(0);
            assert_eq!(maybe_sample(), TraceId::NONE);
            // Recording against NONE must not touch the ring.
            clear();
            record(TraceId::NONE, Stage::Queue, Instant::now());
            assert!(events().is_empty());
        });
    }

    #[test]
    fn one_in_n_sampling() {
        serial(|| {
            set_sampling(4);
            let sampled = (0..400).filter(|_| maybe_sample().is_sampled()).count();
            assert_eq!(sampled, 100);
        });
    }

    #[test]
    fn record_and_report() {
        serial(|| {
            set_sampling(1);
            clear();
            let a = maybe_sample();
            let b = maybe_sample();
            let t0 = Instant::now();
            record_between(a, Stage::Queue, t0, t0 + Duration::from_micros(10));
            record_between(a, Stage::LeafKernel, t0, t0 + Duration::from_micros(50));
            record_between(b, Stage::Queue, t0, t0 + Duration::from_micros(30));
            let evs = events();
            assert_eq!(evs.len(), 3);
            let report = TraceReport::from_events(&evs);
            assert_eq!(report.traces, 2);
            let q = report.stage(Stage::Queue).unwrap();
            assert_eq!(q.count, 2);
            assert_eq!(q.max_ns, 30_000);
            assert_eq!(q.p50_ns, 10_000);
            let lk = report.stage(Stage::LeafKernel).unwrap();
            assert_eq!(lk.count, 1);
            assert!(report.stage(Stage::WalFsync).is_none());
            let table = report.to_string();
            assert!(table.contains("leaf_kernel"));
            assert!(table.contains("queue"));
        });
    }

    #[test]
    fn ring_wraps_without_corruption() {
        serial(|| {
            set_sampling(1);
            clear();
            let t0 = Instant::now();
            for _ in 0..(RING_CAPACITY * 2 + 17) {
                let id = maybe_sample();
                record_between(id, Stage::Flush, t0, t0 + Duration::from_nanos(5));
            }
            let evs = events();
            assert_eq!(evs.len(), RING_CAPACITY);
            assert!(evs.iter().all(|e| e.stage == Stage::Flush && e.dur_ns == 5));
        });
    }

    #[test]
    fn concurrent_writers_readers() {
        serial(|| {
            set_sampling(1);
            clear();
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(|| {
                        let t0 = Instant::now();
                        for _ in 0..20_000 {
                            let id = maybe_sample();
                            record_between(
                                id,
                                Stage::ShardWorker,
                                t0,
                                t0 + Duration::from_nanos(7),
                            );
                        }
                    })
                })
                .collect();
            for _ in 0..50 {
                // Every consistent slot must decode to the stage/duration
                // the writers produce — torn slots are skipped, never
                // misread.
                for e in events() {
                    assert_eq!(e.stage, Stage::ShardWorker);
                    assert_eq!(e.dur_ns, 7);
                }
            }
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(events().len(), RING_CAPACITY);
        });
    }
}
