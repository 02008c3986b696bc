//! Shared support for the service tests: backends that let a test decide
//! *when* the scheduler runs instead of guessing with a clock.
//!
//! The service scheduler is work-conserving — it takes whatever is
//! queued the moment it is free — so the only way to make submissions
//! pile up deterministically is to keep it busy. [`GatedBackend`] does
//! that: the first batch parks inside `query` until the test opens the
//! gate, everything submitted meanwhile queues behind it, and opening
//! the gate produces exactly the flushes the test describes, whatever
//! the thread scheduling.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use panda::prelude::*;

/// Upper bound on anything a test waits for. Never the thing asserted:
/// running into it means a hang (e.g. a lost wake-up), reported loudly.
pub const PATIENCE: Duration = Duration::from_secs(60);

/// `Ticket::wait` that fails the test instead of hanging it.
pub fn wait(ticket: Ticket) -> panda::core::Result<TicketReply> {
    ticket
        .wait_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("ticket unresolved after {PATIENCE:?}: lost wake-up?"))
}

/// Poll `cond` until it holds; panics (naming `what`) after [`PATIENCE`].
pub fn await_until(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed() < PATIENCE, "gave up waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A one-point query set.
pub fn single(coords: &[f32]) -> PointSet {
    PointSet::from_coords(coords.len(), coords.to_vec()).unwrap()
}

/// Wraps any backend; `query` blocks until the test opens the gate. Once
/// open the gate stays open.
pub struct GatedBackend<B> {
    pub inner: B,
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicBool,
}

impl<B: NnBackend> GatedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicBool::new(false),
        }
    }

    pub fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Block until a batch is inside `query`, i.e. the scheduler is
    /// parked in the gate and further submissions can only queue.
    pub fn await_entry(&self) {
        await_until("the scheduler to reach the backend", || {
            self.entered.load(Ordering::Acquire)
        });
    }

    /// Hold the first batch until `service` has accepted `n` submissions
    /// (from concurrent clients), then open the gate: whatever the
    /// timing, some batch provably coalesces several of them.
    pub fn open_after_submissions(&self, service: &QueryService, n: usize) {
        self.await_entry();
        await_until("every client's first submission", || {
            service.stats().submitted >= n as u64
        });
        self.open_gate();
    }
}

impl<B: NnBackend> NnBackend for GatedBackend<B> {
    fn query(&self, req: &QueryRequest<'_>) -> panda::core::Result<QueryResponse> {
        self.entered.store(true, Ordering::Release);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.query(req)
    }

    fn name(&self) -> &'static str {
        "gated"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }
}

/// Wraps any backend and records the query coordinates of every batch it
/// is handed, one entry per batch, in the order the service assembled
/// them.
pub struct RecordingBackend<B> {
    inner: B,
    batches: Mutex<Vec<Vec<f32>>>,
}

impl<B: NnBackend> RecordingBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            batches: Mutex::new(Vec::new()),
        }
    }

    /// The batches seen so far.
    pub fn batches(&self) -> Vec<Vec<f32>> {
        self.batches.lock().unwrap().clone()
    }
}

impl<B: NnBackend> NnBackend for RecordingBackend<B> {
    fn query(&self, req: &QueryRequest<'_>) -> panda::core::Result<QueryResponse> {
        self.batches
            .lock()
            .unwrap()
            .push(req.queries().coords().to_vec());
        self.inner.query(req)
    }

    fn name(&self) -> &'static str {
        "recording"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }
}
