//! Tickets: the future-like handle a client holds between `submit` and
//! the scheduler resolving its micro-batch.
//!
//! # Lifecycle contract
//!
//! A ticket ends in exactly one of three ways:
//!
//! * **Consumed** — [`Ticket::wait`] / [`Ticket::wait_timeout`] returns
//!   the result. The normal path.
//! * **Cancelled** — [`Ticket::cancel`] detaches the submission. If the
//!   scheduler has not flushed it yet, the queued slot is reclaimed at
//!   flush time and the ticket is resolved with `PandaError::Cancelled`
//!   (nobody observes that resolution — the handle is gone).
//! * **Abandoned** — the ticket is dropped while still pending (most
//!   commonly after a [`Ticket::wait_timeout`] miss hands it back and
//!   the caller lets it fall). The scheduler still executes the work and
//!   resolves the ticket; the reply is silently discarded, and the
//!   service counts it in `ServiceStats::abandoned` so walked-away
//!   clients are visible instead of vanishing.
//!
//! Dropping a ticket *after* it resolved (without taking the reply) is
//! none of these — the client raced the scheduler and chose not to look;
//! nothing is counted.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use panda_core::engine::QueryResponse;
use panda_core::{Neighbor, Result};

/// A client's view of its slice of a coalesced batch response.
///
/// The neighbor storage is the **shared** batch
/// [`QueryResponse`] behind an `Arc` — `row` hands out slices into the
/// one CSR arena the engine produced, so scattering a batch back to its
/// clients copies no [`Neighbor`] at all.
#[derive(Clone, Debug)]
pub struct TicketReply {
    response: Arc<QueryResponse>,
    start: u32,
    len: u32,
}

impl TicketReply {
    pub(crate) fn new(response: Arc<QueryResponse>, start: u32, len: u32) -> Self {
        Self {
            response,
            start,
            len,
        }
    }

    /// Number of queries this submission asked (and rows it owns).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the submission had no queries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Neighbors of this submission's query `i` (ascending distance) —
    /// a zero-copy slice into the shared batch arena. Panics when `i >=
    /// len()`.
    pub fn row(&self, i: usize) -> &[Neighbor] {
        assert!(i < self.len(), "reply row {i} out of {}", self.len());
        self.response.neighbors.row(self.start as usize + i)
    }

    /// Iterate this submission's rows in submission order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Neighbor]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// This submission's row range inside the shared batch response.
    pub fn rows(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The whole coalesced batch response this reply slices into
    /// (counters and timings there are **batch-wide**, shared by every
    /// client coalesced into it).
    pub fn response(&self) -> &QueryResponse {
        &self.response
    }
}

/// One wake-up channel per service, shared by every ticket.
///
/// Resolving a micro-batch of `n` submissions stores `n` results and
/// then broadcasts **once** — one `notify_all` instead of `n` per-ticket
/// notifies, so the scheduler's hand-back costs O(1) syscalls per batch
/// rather than one per client. Waiters from a batch that has not
/// resolved yet observe a spurious wake, recheck their `done` flag, and
/// sleep again.
///
/// All hub locking is poison-tolerant: the guarded state is the empty
/// tuple, so a panicking holder leaves nothing inconsistent behind and
/// waiters must keep working after a flush panics (the scheduler
/// resolves that flush's tickets through this same hub).
pub(crate) struct WakeHub {
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeHub {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    /// Broadcast to every waiting ticket of this service. Must be
    /// called after the `done` flags it is announcing are stored (the
    /// flag stores happen-before this lock acquisition, and waiters
    /// check the flag under the same lock — no lost wake-ups).
    pub(crate) fn wake_all(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }
}

pub(crate) struct TicketShared {
    /// Set (release) after `result` is stored; checked by waiters.
    done: AtomicBool,
    /// Set by [`Ticket::cancel`]; the scheduler skips execution for
    /// flushed-but-cancelled submissions.
    cancelled: AtomicBool,
    /// Set by `Ticket`'s `Drop` when the handle dies before resolution;
    /// the scheduler counts it when it later resolves the ticket.
    abandoned: AtomicBool,
    result: Mutex<Option<Result<TicketReply>>>,
    wake: Arc<WakeHub>,
}

impl TicketShared {
    pub(crate) fn pending(wake: Arc<WakeHub>) -> Arc<Self> {
        Arc::new(Self {
            done: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            result: Mutex::new(None),
            wake,
        })
    }

    pub(crate) fn resolved(wake: Arc<WakeHub>, result: Result<TicketReply>) -> Arc<Self> {
        Arc::new(Self {
            done: AtomicBool::new(true),
            cancelled: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            result: Mutex::new(Some(result)),
            wake,
        })
    }

    /// Store the outcome. Does **not** wake the waiter — the scheduler
    /// resolves the whole batch and then broadcasts once through the
    /// [`WakeHub`].
    pub(crate) fn resolve(&self, result: Result<TicketReply>) {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.is_none(), "double resolve");
        *slot = Some(result);
        drop(slot);
        self.done.store(true, Ordering::Release);
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    pub(crate) fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    fn take(&self) -> Result<TicketReply> {
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("resolved ticket has a result")
    }
}

/// The pending side of one `submit` call. Resolved exactly once by the
/// service scheduler.
///
/// # Lifecycle contract
///
/// A ticket ends in exactly one of three ways:
///
/// * **Consumed** — [`Ticket::wait`] / [`Ticket::wait_timeout`] returns
///   the result. The normal path.
/// * **Cancelled** — [`Ticket::cancel`] detaches the submission; an
///   unflushed one has its queue slot reclaimed at the next flush.
/// * **Abandoned** — dropped while still pending (most commonly after a
///   [`Ticket::wait_timeout`] miss hands it back and the caller lets it
///   fall). The scheduler still executes and resolves it; the reply is
///   silently discarded, and the service counts it in
///   `ServiceStats::abandoned` so walked-away clients are visible.
///
/// Dropping a ticket *after* it resolved (without taking the reply) is
/// none of these — the client raced the scheduler and chose not to
/// look; nothing is counted.
pub struct Ticket {
    pub(crate) shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the micro-batch containing this submission has been
    /// executed, then return this client's slice of it.
    pub fn wait(self) -> Result<TicketReply> {
        if !self.shared.done.load(Ordering::Acquire) {
            let hub = Arc::clone(&self.shared.wake);
            let mut guard = hub.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while !self.shared.done.load(Ordering::Acquire) {
                guard = hub.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.shared.take()
    }

    /// Like [`Self::wait`] but give up after `timeout`; `Err(self)`
    /// hands the ticket back so the caller can keep waiting.
    ///
    /// # Contract after a timeout
    ///
    /// A timeout does **not** withdraw the submission — the scheduler
    /// still executes it. The caller owns the returned ticket and must
    /// choose: keep waiting (call `wait`/`wait_timeout` again),
    /// [`cancel`](Self::cancel) it so an unflushed submission's queue
    /// slot is reclaimed, or drop it — in which case the eventual reply
    /// is discarded and the service counts the ticket in
    /// `ServiceStats::abandoned`.
    pub fn wait_timeout(self, timeout: Duration) -> std::result::Result<Result<TicketReply>, Self> {
        let deadline = std::time::Instant::now() + timeout;
        if !self.shared.done.load(Ordering::Acquire) {
            let hub = Arc::clone(&self.shared.wake);
            let mut guard = hub.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while !self.shared.done.load(Ordering::Acquire) {
                let now = std::time::Instant::now();
                if now >= deadline {
                    drop(guard);
                    return Err(self);
                }
                let (g, _) = hub
                    .cv
                    .wait_timeout(guard, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                guard = g;
            }
        }
        Ok(self.shared.take())
    }

    /// Detach this submission and discard any result.
    ///
    /// Returns `true` when the cancellation was registered while the
    /// submission was still pending: if the scheduler has not flushed it
    /// into a micro-batch yet, its queue slot is reclaimed at the next
    /// flush (it is resolved internally with `PandaError::Cancelled` and
    /// counted in `ServiceStats::cancelled`) — the backend never sees
    /// it. Returns `false` when the result was already available; it is
    /// simply discarded (and not counted as abandoned).
    ///
    /// Cancellation is advisory about *work*: a submission already
    /// flushed into an executing batch still runs, but its reply is
    /// dropped.
    pub fn cancel(self) -> bool {
        self.shared.cancelled.store(true, Ordering::SeqCst);
        !self.shared.done.load(Ordering::SeqCst)
    }

    /// True once the scheduler has resolved this ticket ([`Self::wait`]
    /// will not block).
    pub fn is_ready(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }
}

impl Drop for Ticket {
    /// A ticket dropped while still pending (and not cancelled) is
    /// *abandoned*: the scheduler will still resolve it, notice the
    /// flag, and count the discarded reply in `ServiceStats::abandoned`.
    fn drop(&mut self) {
        if !self.shared.done.load(Ordering::Acquire)
            && !self.shared.cancelled.load(Ordering::Acquire)
        {
            self.shared.abandoned.store(true, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}
