//! PR 10 telemetry suite: one `panda_obs` snapshot spanning every
//! runtime crate, Prometheus round-trip through an in-test parser,
//! fault-point trip exposure, full-pipeline trace coverage, and the
//! disarmed-tracing overhead bound.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use panda::core::faultpoint::{self, points};
use panda::obs::{self, Stage};
use panda::prelude::*;

/// Tests that arm the global trace ring/sampling serialize here so they
/// never see each other's events or sampling rates.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "panda-telemetry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn line_points(n: usize) -> PointSet {
    PointSet::from_coords(1, (0..n).map(|i| i as f32).collect()).unwrap()
}

/// Acceptance: one snapshot carries live metrics from every runtime
/// crate that keeps them (service, core/shards, store) through one
/// exposition call. The comm crate builds the shards and keeps per-rank
/// `CommStats` on the SPMD path; shard rounds send no comm traffic.
#[test]
fn one_snapshot_spans_service_shards_comm_and_store() {
    // Service over the sharded distributed engine (core; comm builds it).
    let sharded =
        Arc::new(ShardedIndex::build(&line_points(256), 2, &DistConfig::default()).unwrap());
    let service = QueryService::new(sharded, ServiceConfig::default()).unwrap();
    for i in 0..6u64 {
        let q = PointSet::from_coords(1, vec![i as f32 + 0.4, 200.0 - i as f32]).unwrap();
        service
            .submit(&QueryRequest::knn(&q, 3))
            .unwrap()
            .wait()
            .unwrap();
    }
    service.drain();

    // Durable mutable store (store + WAL).
    let tmp = TmpDir::new("span");
    let store = MutableIndex::open(
        &tmp.0,
        1,
        StoreConfig::default().with_synchronous_compaction(true),
    )
    .unwrap();
    for i in 0..16u64 {
        store.insert(&[i as f32], i).unwrap();
    }
    store.remove(3).unwrap();
    store.compact_now().unwrap();

    let mut snap = service.telemetry();
    snap.merge(&store.telemetry());

    // service.*
    assert_eq!(snap.counter("service.queries"), Some(12));
    assert!(snap.counter("service.submitted").unwrap() >= 6);
    assert!(snap.histogram("service.latency_ns").unwrap().total() >= 6);
    // shard.* (core)
    assert!(snap.counter("shard.rounds").unwrap() >= 1);
    assert_eq!(snap.counter("shard.queries"), Some(12));
    // shard asks made (a round is an owner pass and a remote pass, with
    // no collectives)
    assert!(snap.counter("shard.messages").unwrap() >= 1);
    // store.* and store.wal.*
    assert_eq!(snap.counter("store.inserted"), Some(16));
    assert_eq!(snap.counter("store.removed"), Some(1));
    assert!(snap.counter("store.compactions").unwrap() >= 1);
    assert_eq!(snap.gauge("store.live_points"), Some(15));
    assert_eq!(snap.counter("store.wal.appends"), Some(17));
    assert!(snap.counter("store.wal.fsyncs").unwrap() >= 17);

    // And the whole thing renders as one Prometheus page.
    let page = obs::render_prometheus(&snap);
    for series in [
        "panda_service_queries 12",
        "panda_shard_queries 12",
        "panda_shard_messages",
        "panda_store_inserted 16",
        "panda_store_wal_appends 17",
        "panda_service_latency_ns_bucket",
    ] {
        assert!(page.contains(series), "missing {series} in:\n{page}");
    }
    let json = obs::render_json(&snap);
    assert!(json.contains("\"service.queries\": {\"type\": \"counter\", \"value\": 12}"));
    service.shutdown();
}

/// Minimal Prometheus text-format 0.0.4 parser: `# TYPE` lines declare
/// the kind; plain samples are `name value`; histogram series are
/// `name_bucket{le="..."} cum` / `name_sum` / `name_count`.
fn parse_prometheus(page: &str) -> HashMap<String, (String, Vec<(String, u64)>)> {
    let mut metrics: HashMap<String, (String, Vec<(String, u64)>)> = HashMap::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap().to_string();
            let kind = it.next().unwrap().to_string();
            metrics.entry(name).or_insert((kind, Vec::new())).0 =
                rest.split_whitespace().nth(1).unwrap().to_string();
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample {line}"));
        let (base, label) = match series.split_once('{') {
            Some((b, l)) => (
                b.trim_end_matches("_bucket").to_string(),
                l.trim_end_matches('}').to_string(),
            ),
            None => {
                let b = series
                    .strip_suffix("_sum")
                    .or_else(|| series.strip_suffix("_count"))
                    .unwrap_or(series);
                (b.to_string(), series[b.len()..].to_string())
            }
        };
        metrics
            .entry(base)
            .or_insert(("?".into(), Vec::new()))
            .1
            .push((label, value));
    }
    metrics
}

#[test]
fn prometheus_page_round_trips_through_a_parser() {
    let reg = Registry::new();
    reg.counter("rt.hits").add(41);
    reg.gauge("rt.depth").set(7);
    let h = reg.histogram("rt.lat_ns", 12);
    for v in [1u64, 2, 600, 600, 5000] {
        h.record(v);
    }
    let snap = reg.snapshot();
    let parsed = parse_prometheus(&obs::render_prometheus(&snap));

    let (kind, samples) = &parsed["panda_rt_hits"];
    assert_eq!(kind, "counter");
    assert_eq!(samples, &vec![(String::new(), 41)]);
    let (kind, samples) = &parsed["panda_rt_depth"];
    assert_eq!(kind, "gauge");
    assert_eq!(samples, &vec![(String::new(), 7)]);

    let (kind, samples) = &parsed["panda_rt_lat_ns"];
    assert_eq!(kind, "histogram");
    let count = samples.iter().find(|(l, _)| l == "_count").unwrap().1;
    let sum = samples.iter().find(|(l, _)| l == "_sum").unwrap().1;
    let hist = snap.histogram("rt.lat_ns").unwrap();
    assert_eq!(count, hist.total());
    assert_eq!(sum, hist.sum);
    assert_eq!(sum, 1 + 2 + 600 + 600 + 5000);
    // Cumulative buckets are monotone and end at the total count.
    let buckets: Vec<u64> = samples
        .iter()
        .filter(|(l, _)| l.starts_with("le="))
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(buckets.len(), hist.counts.len() + 1, "+Inf included");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*buckets.last().unwrap(), count);
    // The le="1023" bucket must already hold the two 600ns samples.
    let le1023 = samples.iter().find(|(l, _)| l == "le=\"1023\"").unwrap().1;
    assert_eq!(le1023, 4); // 1, 2, 600, 600
}

/// Satellite: fault-point trips surface in the merged telemetry as
/// `fault.<point>.fired` counters.
#[test]
fn faultpoint_trips_surface_in_telemetry() {
    let backend = Arc::new(KnnIndex::build(&line_points(64), &TreeConfig::default()).unwrap());
    let service = QueryService::new(backend, ServiceConfig::default()).unwrap();
    let before = faultpoint::fired("service.drain");
    let _guard = faultpoint::arm(faultpoint::FaultPlan::new().fail(points::SERVICE_DRAIN, 1));
    let q = PointSet::from_coords(1, vec![3.2]).unwrap();
    let err = service
        .submit(&QueryRequest::knn(&q, 1))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, PandaError::FaultInjected { .. }), "{err}");
    let snap = service.telemetry();
    assert!(
        snap.counter("fault.service.drain.fired").unwrap() > before,
        "trip count should be exposed: {snap:?}"
    );
    service.shutdown();
}

/// Acceptance: a sampled trace shows the per-stage breakdown of the
/// whole pipeline — service stages, shard scatter/gather, each shard's
/// answer, the leaf kernel, and the store's WAL/compaction stages.
#[test]
fn sampled_trace_covers_every_pipeline_stage() {
    let _g = trace_lock();
    obs::trace::clear();
    obs::trace::set_sampling(1);

    // Service over the sharded engine: Queue/Flush/Scatter/ShardWorker/
    // Gather/Resolve.
    let sharded =
        Arc::new(ShardedIndex::build(&line_points(128), 2, &DistConfig::default()).unwrap());
    let service = QueryService::new(sharded, ServiceConfig::default()).unwrap();
    for i in 0..4u64 {
        let q = PointSet::from_coords(1, vec![i as f32 + 0.3]).unwrap();
        service
            .submit(&QueryRequest::knn(&q, 2))
            .unwrap()
            .wait()
            .unwrap();
    }
    service.drain();
    service.shutdown();

    // Direct local query with an explicitly carried trace: LeafKernel.
    let index = KnnIndex::build(&line_points(64), &TreeConfig::default()).unwrap();
    let t = obs::trace::maybe_sample();
    assert!(t.is_sampled(), "sampling 1-in-1 must sample");
    let q = PointSet::from_coords(1, vec![9.1]).unwrap();
    index
        .query_session(&QueryRequest::knn(&q, 2).with_trace(t))
        .unwrap();

    // Durable store: WalAppend/WalFsync on writes, Freeze/CompactBuild/
    // CompactSwap on compaction.
    let tmp = TmpDir::new("stages");
    let store = MutableIndex::open(
        &tmp.0,
        1,
        StoreConfig::default().with_synchronous_compaction(true),
    )
    .unwrap();
    for i in 0..8u64 {
        store.insert(&[i as f32], i).unwrap();
    }
    store.compact_now().unwrap();

    let report = obs::TraceReport::gather();
    obs::trace::set_sampling(0);
    for stage in [
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
    ] {
        let b = report.stage(stage);
        assert!(
            b.is_some(),
            "stage {} missing from report:\n{report}",
            stage.name()
        );
        assert!(b.unwrap().count >= 1);
    }
    assert!(report.traces >= 4, "at least the four service queries");
    let table = format!("{report}");
    assert!(table.contains("shard_worker"), "{table}");
}

/// Satellite: with sampling disarmed, the whole tracing surface costs a
/// handful of relaxed loads per submission — bounded here at under 2%
/// of one smoke-benchmark query's wall time (the shape of
/// `benchmark/run.sh --smoke`'s `serve_hotspot` workload: closed-loop
/// clients over a local KnnIndex).
#[test]
fn unsampled_tracing_overhead_is_under_two_percent() {
    let _g = trace_lock();
    obs::trace::set_sampling(0);

    // Per-hook cost of the disarmed path (sample mint + NONE records).
    let iters = 1_000_000u64;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        let t = obs::trace::maybe_sample();
        acc = acc.wrapping_add(t.raw());
        obs::trace::record(t, Stage::Queue, t0);
    }
    std::hint::black_box(acc);
    let per_hook_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // One smoke query's wall time through the real service path.
    let backend = Arc::new(KnnIndex::build(&line_points(4096), &TreeConfig::default()).unwrap());
    let service = QueryService::new(backend, ServiceConfig::default().with_max_batch(64)).unwrap();
    let queries = 512usize;
    let t1 = Instant::now();
    for i in 0..queries {
        let q = PointSet::from_coords(1, vec![(i % 4096) as f32 + 0.4]).unwrap();
        service
            .submit(&QueryRequest::knn(&q, 4))
            .unwrap()
            .wait()
            .unwrap();
    }
    let per_query_ns = t1.elapsed().as_nanos() as f64 / queries as f64;
    service.shutdown();

    // The submit pipeline executes a bounded handful of disarmed hooks
    // (one mint + at most ~8 record calls across all layers).
    let tracing_cost = 9.0 * per_hook_ns;
    assert!(
        tracing_cost < 0.02 * per_query_ns,
        "disarmed tracing {tracing_cost:.1}ns/query vs query {per_query_ns:.0}ns \
         ({:.3}%) exceeds the 2% budget",
        100.0 * tracing_cost / per_query_ns
    );
}
