//! `panda_obs` — unified telemetry for the PANDA workspace.
//!
//! One always-compiled, dependency-free observability plane shared by
//! every runtime crate (`panda_service`, `panda_store`, `panda_core`'s
//! sharded engine):
//!
//! * **Metrics** — lock-free [`Counter`] / [`Gauge`] / [`Histogram`]
//!   handles registered under dotted names in a [`Registry`]
//!   (`service.rejected`, `store.wal.fsyncs`, `shard.messages`,
//!   `shard.rounds`, …), snapshotted coherently into a [`Snapshot`].
//! * **Tracing** — sampled per-query pipeline spans ([`trace`]): a
//!   [`TraceId`] minted at `ServiceHandle::submit` rides the micro-batch
//!   into the backend, and each stage records its latency into a global
//!   lock-free ring; [`TraceReport`] turns the ring into a per-stage
//!   breakdown table. Disabled (the default) it costs one relaxed load.
//! * **Exposition** — [`render_prometheus`] (text format 0.0.4) and
//!   [`render_json`] over any [`Snapshot`].
//!
//! # Quickstart
//!
//! ```
//! use panda_obs::{Registry, render_prometheus, trace, TraceReport};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("demo.cache.hits");
//! let lat = reg.histogram("demo.latency_ns", 41);
//! hits.inc();
//! lat.record(600);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.cache.hits"), Some(1));
//! assert!(render_prometheus(&snap).contains("panda_demo_cache_hits 1"));
//!
//! // Tracing: off by default; arm 1-in-1 sampling, record a span.
//! trace::set_sampling(1);
//! let id = trace::maybe_sample();
//! trace::record(id, trace::Stage::LeafKernel, std::time::Instant::now());
//! let report = TraceReport::gather();
//! assert!(report.stage(trace::Stage::LeafKernel).is_some());
//! trace::set_sampling(0);
//! trace::clear();
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use expose::{prometheus_name, render_json, render_prometheus};
pub use metrics::{bucket_upper_edge, pow2_bucket, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricValue, Registry, Snapshot};
pub use trace::{Stage, TraceEvent, TraceId, TraceReport};
