//! Deterministic fault injection for chaos testing.
//!
//! Production code is sprinkled with **named fault points** — one
//! [`maybe_fail`] / [`maybe_fail_ctx`] call at each place a real
//! deployment could fail (a comm exchange, a leaf kernel dispatch, a
//! service drain). The module is compiled unconditionally but costs one
//! relaxed atomic load per hit while disarmed, so the points stay in
//! release builds and the chaos suite exercises the exact binary that
//! ships.
//!
//! Tests arm a [`FaultPlan`]: a deterministic schedule of [`FaultSpec`]s
//! saying *which* point fires, on *which hit*, doing *what*
//! ([`FaultAction`]: typed failure, synthetic comm timeout, panic, or
//! delay). [`arm`] returns a [`FaultGuard`] that holds a process-wide
//! exclusivity lock (chaos tests serialize instead of cross-arming each
//! other) and disarms on drop — including on test panic.
//!
//! ```
//! use panda_core::faultpoint::{self, FaultAction, FaultPlan};
//!
//! let guard = faultpoint::arm(
//!     FaultPlan::new().fail("demo.point", 2), // fail the 2nd hit only
//! );
//! assert!(faultpoint::maybe_fail("demo.point").is_ok());
//! assert!(faultpoint::maybe_fail("demo.point").is_err());
//! assert!(faultpoint::maybe_fail("demo.point").is_ok());
//! assert_eq!(guard.hits("demo.point"), 3);
//! drop(guard); // disarmed: hits are free again
//! assert!(faultpoint::maybe_fail("demo.point").is_ok());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use panda_comm::CommError;

use crate::error::{PandaError, Result};

/// Well-known fault point names wired into the engine, kept here so
/// tests and call sites cannot drift apart.
pub mod points {
    /// Stage-1 query routing exchange of the distributed pipeline
    /// (`query_distributed`'s prologue).
    pub const DIST_EXCHANGE_ROUTE: &str = "dist.exchange.route";
    /// Stage-3 remote-request exchange of the distributed pipeline.
    pub const DIST_EXCHANGE_REQUESTS: &str = "dist.exchange.requests";
    /// Stage-4/5 response exchange of the distributed pipeline.
    pub const DIST_EXCHANGE_RESPONSES: &str = "dist.exchange.responses";
    /// Origin-return exchange (pipeline epilogue).
    pub const DIST_EXCHANGE_RETURN: &str = "dist.exchange.return";
    /// Local engine batch execution (leaf kernel dispatch), also inside
    /// every shard's answer.
    pub const ENGINE_LEAF_DISPATCH: &str = "engine.leaf_dispatch";
    /// Sharded engine, start of one shard's answer to an owner-pass or a
    /// remote-pass ask (context = shard id). Fires on the thread that
    /// runs the answer — the caller or a pool worker — before any
    /// traversal.
    pub const SHARD_WORKER_QUERY: &str = "shard.worker.query";
    /// Query-service micro-batch drain/execute path.
    pub const SERVICE_DRAIN: &str = "service.drain";
    /// Mutable-index write-log append (`MutableIndex::insert`).
    pub const STORE_LOG_APPEND: &str = "store.log.append";
    /// Background compaction: tree rebuild phase (before any state is
    /// published — a failure here must leave the old tree serving).
    pub const STORE_COMPACT_BUILD: &str = "store.compact.build";
    /// Background compaction: atomic swap point (under the write lock,
    /// immediately before the new tree is published — a failure here
    /// must not leave a torn view).
    pub const STORE_COMPACT_SWAP: &str = "store.compact.swap";
    /// Mutable-index write-ahead log, mid-record: fires after the first
    /// half of a record's bytes hit the file, so an injected failure
    /// leaves a **torn record** on disk — exactly what a kill during
    /// `write(2)` leaves. Recovery must truncate it away.
    pub const STORE_WAL_APPEND: &str = "store.wal.append";
    /// Mutable-index write-ahead log, at the fsync that would make the
    /// just-appended record durable. On failure the record is rolled
    /// back out of the log (truncated) and the write is rejected, so
    /// the durable prefix stays exactly the acknowledged prefix.
    pub const STORE_WAL_FSYNC: &str = "store.wal.fsync";
    /// Snapshot checkpoint: temp-file write phase (before the atomic
    /// rename — a failure leaves the previous snapshot + WAL intact).
    pub const STORE_SNAPSHOT_WRITE: &str = "store.snapshot.write";
    /// Snapshot checkpoint: atomic-rename publish point (after the temp
    /// file is written and fsynced — a failure must leave recovery on
    /// the previous snapshot + full WAL, never a half-visible one).
    pub const STORE_SNAPSHOT_RENAME: &str = "store.snapshot.rename";
}

/// What an armed fault point does when its schedule says "fire".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`PandaError::FaultInjected`].
    Fail,
    /// Return a synthetic [`PandaError::Comm`] timeout (what a stalled
    /// peer produces), letting callers exercise comm-failure handling
    /// without actually stalling a rank.
    Timeout,
    /// Panic with a recognizable message (`"injected fault panic at …"`).
    Panic,
    /// Sleep for the given duration, then continue normally — a
    /// straggler, not a failure.
    Delay(Duration),
}

/// One scheduled fault: *point* + deterministic trigger window + action.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    point: String,
    /// 1-based matching hit at which the fault starts firing.
    nth: u64,
    /// Consecutive matching hits that fire from `nth` on.
    count: u64,
    action: FaultAction,
    /// When set, only hits whose context value matches count/fire —
    /// call sites pass e.g. their rank, making per-rank schedules
    /// deterministic even when ranks race on a global counter.
    ctx: Option<u64>,
}

impl FaultSpec {
    /// A spec firing `action` on every hit of `point`.
    pub fn new(point: impl Into<String>, action: FaultAction) -> Self {
        Self {
            point: point.into(),
            nth: 1,
            count: u64::MAX,
            action,
            ctx: None,
        }
    }

    /// Fire starting at the `nth` matching hit (1-based; clamped to ≥ 1).
    #[must_use]
    pub fn at_hit(mut self, nth: u64) -> Self {
        self.nth = nth.max(1);
        self
    }

    /// Fire for exactly `count` consecutive matching hits.
    #[must_use]
    pub fn times(mut self, count: u64) -> Self {
        self.count = count;
        self
    }

    /// Restrict (and count) hits to those reporting this context value.
    #[must_use]
    pub fn on_ctx(mut self, ctx: u64) -> Self {
        self.ctx = Some(ctx);
        self
    }
}

/// A deterministic schedule of faults, armed via [`arm`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan. Arming it injects nothing but still takes the
    /// process-wide chaos lock — tests that must not observe *other*
    /// tests' faults arm an empty plan for exclusion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fully-specified fault.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Shorthand: fail (typed error) the `nth` hit of `point`, once.
    #[must_use]
    pub fn fail(self, point: impl Into<String>, nth: u64) -> Self {
        self.with(
            FaultSpec::new(point, FaultAction::Fail)
                .at_hit(nth)
                .times(1),
        )
    }

    /// Shorthand: synthetic comm timeout on the `nth` hit of `point`, once.
    #[must_use]
    pub fn timeout(self, point: impl Into<String>, nth: u64) -> Self {
        self.with(
            FaultSpec::new(point, FaultAction::Timeout)
                .at_hit(nth)
                .times(1),
        )
    }

    /// Shorthand: panic on the `nth` hit of `point`, once.
    #[must_use]
    pub fn panic(self, point: impl Into<String>, nth: u64) -> Self {
        self.with(
            FaultSpec::new(point, FaultAction::Panic)
                .at_hit(nth)
                .times(1),
        )
    }

    /// Shorthand: delay the `nth` hit of `point` by `dur`, once.
    #[must_use]
    pub fn delay(self, point: impl Into<String>, nth: u64, dur: Duration) -> Self {
        self.with(
            FaultSpec::new(point, FaultAction::Delay(dur))
                .at_hit(nth)
                .times(1),
        )
    }
}

struct SpecState {
    spec: FaultSpec,
    hits: u64,
}

#[derive(Default)]
struct Registry {
    specs: Vec<SpecState>,
    /// Total hits per point name while armed (for test assertions).
    hit_log: Vec<(String, u64)>,
}

/// Fast-path switch: exactly one relaxed load per fault-point hit while
/// disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    specs: Vec::new(),
    hit_log: Vec::new(),
});
/// Chaos-test exclusivity: held by the [`FaultGuard`] for the lifetime
/// of an armed plan so concurrent tests cannot cross-arm.
static EXCLUSIVE: Mutex<()> = Mutex::new(());
/// Process-lifetime count of faults that actually *fired* (took an
/// action) per point name. Unlike the per-plan `hit_log` this survives
/// disarming, so a telemetry snapshot taken after the run still shows
/// which faults tripped — chaos tests assert on it instead of inferring
/// firing from the error path.
static FIRED: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

fn note_fired(point: &str) {
    let mut fired = FIRED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(entry) = fired.iter_mut().find(|(p, _)| p == point) {
        entry.1 += 1;
    } else {
        fired.push((point.to_string(), 1));
    }
}

/// Times each fault point has fired (taken an action) since process
/// start, sorted by point name. Never reset by disarming.
pub fn fired_counts() -> Vec<(String, u64)> {
    let mut out = FIRED.lock().unwrap_or_else(PoisonError::into_inner).clone();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Times `point` has fired since process start.
pub fn fired(point: &str) -> u64 {
    FIRED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .find(|(p, _)| p == point)
        .map_or(0, |(_, n)| *n)
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    // An injected panic can unwind through a hit with the lock released
    // but the mutex poisoned by a dying holder elsewhere; the registry
    // is always left consistent, so poison is ignorable.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm a plan. The returned guard must be held for as long as faults
/// should fire; dropping it disarms every point and resets all counters.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let excl = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    {
        let mut reg = lock_registry();
        reg.specs = plan
            .specs
            .into_iter()
            .map(|spec| SpecState { spec, hits: 0 })
            .collect();
        reg.hit_log.clear();
    }
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _excl: excl }
}

/// Keeps a [`FaultPlan`] armed; disarms on drop (also on panic).
pub struct FaultGuard {
    _excl: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Total hits recorded at `point` (any context) since arming.
    pub fn hits(&self, point: &str) -> u64 {
        lock_registry()
            .hit_log
            .iter()
            .filter(|(p, _)| p == point)
            .map(|(_, n)| n)
            .sum()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        let mut reg = lock_registry();
        reg.specs.clear();
        reg.hit_log.clear();
    }
}

/// A fault point without per-hit context. Near-zero cost while disarmed.
#[inline]
pub fn maybe_fail(point: &str) -> Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire(point, None)
}

/// A fault point reporting a context value (e.g. the hitting rank), so
/// plans can target one participant deterministically.
#[inline]
pub fn maybe_fail_ctx(point: &str, ctx: u64) -> Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire(point, Some(ctx))
}

#[cold]
fn fire(point: &str, ctx: Option<u64>) -> Result<()> {
    let action = {
        let mut reg = lock_registry();
        if let Some(entry) = reg.hit_log.iter_mut().find(|(p, _)| p == point) {
            entry.1 += 1;
        } else {
            reg.hit_log.push((point.to_string(), 1));
        }
        let mut action = None;
        for st in reg.specs.iter_mut().filter(|st| st.spec.point == point) {
            if let (Some(want), Some(got)) = (st.spec.ctx, ctx) {
                if want != got {
                    continue;
                }
            } else if st.spec.ctx.is_some() {
                // ctx-targeted spec, context-free hit: not a match
                continue;
            }
            st.hits += 1;
            let in_window = st.hits >= st.spec.nth
                && (st.hits - st.spec.nth) < st.spec.count
                && action.is_none();
            if in_window {
                action = Some(st.spec.action);
            }
        }
        action
    };
    if action.is_some() {
        note_fired(point);
    }
    match action {
        None => Ok(()),
        Some(FaultAction::Fail) => Err(PandaError::FaultInjected {
            point: point.to_string(),
        }),
        Some(FaultAction::Timeout) => Err(PandaError::Comm(CommError::Timeout {
            rank: ctx.unwrap_or(0) as usize,
            src: 0,
            tag: 0,
        })),
        Some(FaultAction::Panic) => panic!("injected fault panic at {point}"),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_are_free_and_ok() {
        // no guard held — every point passes
        assert!(maybe_fail("x").is_ok());
        assert!(maybe_fail_ctx("y", 7).is_ok());
    }

    #[test]
    fn nth_hit_schedule_is_deterministic() {
        let g = arm(FaultPlan::new().fail("p", 3));
        assert!(maybe_fail("p").is_ok());
        assert!(maybe_fail("p").is_ok());
        let e = maybe_fail("p").unwrap_err();
        assert!(matches!(e, PandaError::FaultInjected { ref point } if point == "p"));
        assert!(maybe_fail("p").is_ok(), "window of one hit");
        assert_eq!(g.hits("p"), 4);
        assert_eq!(g.hits("other"), 0);
    }

    #[test]
    fn ctx_filter_targets_one_participant() {
        let _g =
            arm(FaultPlan::new().with(FaultSpec::new("p", FaultAction::Fail).on_ctx(2).times(1)));
        assert!(maybe_fail_ctx("p", 0).is_ok());
        assert!(maybe_fail_ctx("p", 1).is_ok());
        assert!(maybe_fail_ctx("p", 2).is_err());
        assert!(maybe_fail_ctx("p", 2).is_ok(), "once only");
        assert!(maybe_fail("p").is_ok(), "context-free hit never matches");
    }

    #[test]
    fn timeout_action_builds_a_typed_comm_error() {
        let _g = arm(FaultPlan::new().timeout("p", 1));
        match maybe_fail_ctx("p", 5).unwrap_err() {
            PandaError::Comm(CommError::Timeout { rank, .. }) => assert_eq!(rank, 5),
            other => panic!("expected Comm(Timeout), got {other:?}"),
        }
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let _g = arm(FaultPlan::new().delay("p", 1, Duration::from_millis(20)));
        let t0 = std::time::Instant::now();
        assert!(maybe_fail("p").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(15));
        let t0 = std::time::Instant::now();
        assert!(maybe_fail("p").is_ok());
        assert!(t0.elapsed() < Duration::from_millis(15), "fires once");
    }

    #[test]
    fn guard_drop_disarms_even_after_panic_action() {
        let res = std::panic::catch_unwind(|| {
            let _g = arm(FaultPlan::new().panic("p", 1));
            let _ = maybe_fail("p");
        });
        assert!(res.is_err(), "panic action panicked");
        // guard dropped during unwind: the world is disarmed again
        assert!(maybe_fail("p").is_ok());
    }

    #[test]
    fn fired_counts_survive_disarm() {
        let before = fired("fp.fired.test");
        {
            let _g = arm(FaultPlan::new().fail("fp.fired.test", 1));
            assert!(maybe_fail("fp.fired.test").is_err());
            assert!(maybe_fail("fp.fired.test").is_ok(), "hit but no fire");
        }
        // Guard dropped (disarmed): the fired count persists.
        assert_eq!(fired("fp.fired.test"), before + 1);
        assert!(fired_counts()
            .iter()
            .any(|(p, n)| p == "fp.fired.test" && *n >= 1));
    }

    #[test]
    fn windows_can_cover_multiple_hits() {
        let _g =
            arm(FaultPlan::new().with(FaultSpec::new("p", FaultAction::Fail).at_hit(2).times(2)));
        assert!(maybe_fail("p").is_ok());
        assert!(maybe_fail("p").is_err());
        assert!(maybe_fail("p").is_err());
        assert!(maybe_fail("p").is_ok());
    }
}
