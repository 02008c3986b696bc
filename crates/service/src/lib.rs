//! # `panda_service` — concurrent query serving with dynamic micro-batching
//!
//! PANDA's throughput comes from **batching**: queries executed together
//! share tree paths and cached leaves (the batch engine runs each batch
//! in a spatially coherent order), and per-call dispatch overhead
//! amortizes across the batch. But a process serving many independent clients sees queries one at a time —
//! calling [`NnBackend::query`](panda_core::engine::NnBackend) per
//! client forfeits all of it.
//!
//! This crate closes that gap with an in-process service:
//!
//! * [`QueryService::new`] wraps any thread-safe backend
//!   (`Arc<dyn NnBackend + Send + Sync>`) and starts one scheduler
//!   thread;
//! * clients clone a cheap [`ServiceHandle`] and call
//!   [`ServiceHandle::submit`], which enqueues the request and returns a
//!   [`Ticket`] immediately;
//! * the scheduler is **work-conserving**: it sleeps only while the
//!   queue is empty, and whenever it is free it takes what is queued —
//!   up to [`ServiceConfig::max_batch`] query points — as one
//!   micro-batch. A lone submission over an idle service runs at once;
//!   under load, whatever arrived while the previous batch executed
//!   **coalesces** into the next, so batch size tracks load with no
//!   delay to tune. The backend orders each batch (coalesced traffic
//!   from unrelated clients is sorted along a Morton curve) and executes
//!   it on the persistent worker pool behind the engine's parallel path;
//! * each [`Ticket`] resolves to a [`TicketReply`]: a **zero-copy**
//!   row-slice into the shared batch response (`Arc`ed CSR
//!   `NeighborTable`), so scatter-back copies no neighbors;
//! * the submission queue is **bounded** ([`ServiceConfig::queue_capacity`]);
//!   beyond it `submit` blocks or fails fast with
//!   [`PandaError::Overloaded`](panda_core::PandaError::Overloaded)
//!   ([`OverflowPolicy`]);
//! * [`QueryService::drain`] flushes everything outstanding,
//!   [`QueryService::shutdown`] additionally stops intake and joins the
//!   scheduler, and [`QueryService::stats`] surfaces queue depth, a
//!   batch-size histogram, p50/p99/p999 submit→resolve latency, and
//!   the robustness counters ([`ServiceStats`]).
//!
//! ## Degrading gracefully
//!
//! The service is built to lose work loudly, never hang:
//!
//! * **Deadlines** — a submission carrying
//!   [`QueryRequest::with_deadline`](panda_core::engine::QueryRequest::with_deadline)
//!   that is still queued when the deadline passes is **shed at flush
//!   time**: its ticket resolves with
//!   [`PandaError::DeadlineExceeded`](panda_core::PandaError::DeadlineExceeded)
//!   instead of occupying a backend slot, and `ServiceStats::deadline_exceeded`
//!   counts it.
//! * **Cancellation** — [`Ticket::cancel`] detaches a submission; an
//!   unflushed one gives its queue slot back at the next flush
//!   (`ServiceStats::cancelled`).
//! * **Abandonment** — dropping a pending ticket (e.g. after a
//!   [`Ticket::wait_timeout`] miss) discards the eventual reply and is
//!   counted in `ServiceStats::abandoned`; the full lifecycle contract
//!   is documented on [`Ticket`].
//! * **Panics** — the scheduler catches a panic where it happens, per
//!   flush (backend panics are already caught per batch): every ticket
//!   of that flush still pending resolves with
//!   [`PandaError::BackendPanicked`](panda_core::PandaError::BackendPanicked)
//!   carrying the root-cause message, and the same loop takes the next
//!   flush. The service keeps accepting and serving work across panics.
//!
//! The chaos suite (`tests/chaos.rs` at the workspace root) drives all
//! of these through `panda_core::faultpoint`.
//!
//! Exactness is untouched: coalescing and the backend's batch ordering
//! are locality plays — every client gets bit-identical neighbors to a
//! direct `query_session` call (pinned by `tests/service_parity.rs`).
//!
//! ## Serving the distributed engine
//!
//! The sharded engine is a first-class backend here:
//! [`ShardedIndex`](panda_core::engine::ShardedIndex) is `Send + Sync`
//! (a front handle over one local tree per spatial cell), so
//! `QueryService::new(Arc::new(sharded), cfg)` serves a whole
//! distributed tree behind the same ticket API — see the
//! `sharded_service` example. Only the SPMD entry points
//! (`query_distributed` under `run_cluster`, used by the virtual-time
//! scaling studies) remain outside the service, since every simulated
//! rank must enter those collectives in lockstep.
//!
//! ```
//! use std::sync::Arc;
//! use panda_core::engine::QueryRequest;
//! use panda_core::knn::KnnIndex;
//! use panda_core::{PointSet, TreeConfig};
//! use panda_service::{QueryService, ServiceConfig};
//!
//! let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
//! let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default())?);
//! let service = QueryService::new(index, ServiceConfig::default())?;
//!
//! // clients submit concurrently through cheap clonable handles
//! let handle = service.handle();
//! let worker = std::thread::spawn(move || {
//!     let q = PointSet::from_coords(1, vec![1.2]).unwrap();
//!     let ticket = handle.submit(&QueryRequest::knn(&q, 2)).unwrap();
//!     let reply = ticket.wait().unwrap();
//!     reply.row(0)[0].id // nearest to 1.2 is x = 1.0 → id 1
//! });
//! assert_eq!(worker.join().unwrap(), 1);
//!
//! let stats = service.stats();
//! assert_eq!(stats.queries, 1);
//! service.shutdown(); // graceful: flushes, resolves, joins
//! # Ok::<(), panda_core::PandaError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod metrics;
mod service;
mod ticket;

pub use config::{OverflowPolicy, ServiceConfig};
pub use metrics::{ServiceStats, BATCH_BUCKETS, LATENCY_BUCKETS};
pub use service::{QueryService, ServiceHandle};
pub use ticket::{Ticket, TicketReply};
