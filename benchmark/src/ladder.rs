//! The traced run: one workload's points and queries taken through every
//! layer of the stack, bottom up, with a span around every call.
//!
//! The program is measured from outside. A layer that sits *inside*
//! another (the batch engine inside the sharded engine inside the
//! service) cannot be given a child span without editing the program, so
//! the same query set is replayed through a **ladder** of entry points —
//! `LocalKdTree::query_into` → `KnnIndex::query_session` →
//! `ShardedIndex::query`, and `query_into` → `NnBackend::query` →
//! `submit` + `wait` — and a layer's own time is its rung minus the rung
//! below. The layers beside the query path (store, WAL, telemetry) are
//! measured by the difference between two runs that differ in exactly
//! that layer: logged against clean reads, fsync-per-write against
//! fsync-on-compaction, tracing on against off.
//!
//! Every rung's answers are compared with the gated rung's before its
//! time counts, and counts (nodes visited, points scanned, collectives,
//! fsyncs) come from the program's own `QueryCounters`, `stats()` and
//! registry snapshots, so they repeat exactly for a fixed seed.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda::core::local_tree::PackedLeaves;
use panda::core::morton::morton_schedule;
use panda::core::{KnnHeap, QueryOrder, QueryWorkspace};
use panda::obs::trace;
use panda::prelude::*;

use crate::data::{self, Dataset};
use crate::gate::{self, Checksum};
use crate::host;
use crate::json::Json;
use crate::loadgen::{closed_loop_in_flight, open_loop, OpenLoop};
use crate::report::Record;
use crate::spans::{ladder_self, Recorder, SpanId, ROOT};
use crate::spec::PER_LAYER;
use crate::stats::{quantile, Measured, Q};
use crate::workloads::{
    brute_force_gate, close, err, fresh_dir, Res, RunCfg, Tally, GATE_QUERIES, LIGHT_RATE_HZ,
    SAT_IN_FLIGHT,
};

/// Per-call spans kept; later ones are counted in the file's `dropped`.
const SPAN_CAP: usize = 150_000;
/// Rates of the service sweep; the first is the light phase itself.
const SWEEP_RATES_HZ: [f64; 4] = [LIGHT_RATE_HZ, 4000.0, 8000.0, 12000.0];
/// A rate is sustained when its p99 from due time stays under this. A
/// growing backlog fails it by construction: requests behind a backlog
/// are charged the wait.
const SWEEP_P99_LIMIT_US: f64 = 5000.0;
/// Fresh points behind `store.read_overhead_logged_us` and the WAL-only
/// replay: just under the default compaction threshold, so the log is as
/// full as a reader ever finds it.
const LOGGED_POINTS: usize = 4000;
/// Tree points removed to cross the default tombstone threshold once.
const REMOVED_POINTS: usize = 1100;
/// Writes behind `wal.fsyncs_per_write`.
const COUNTED_WRITES: usize = 1000;
/// Points in the store whose snapshot load is timed.
const SNAPSHOT_POINTS: usize = 20_000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Ladder<'a> {
    cfg: &'a RunCfg,
    rec: Recorder,
    root: SpanId,
    tally: Tally,
    metrics: HashMap<&'static str, Measured>,
    detail: Vec<(&'static str, Json)>,
}

impl Ladder<'_> {
    fn put(&mut self, name: &'static str, m: Measured) {
        debug_assert!(
            PER_LAYER.iter().any(|s| s.name == name),
            "{name} not in spec"
        );
        self.metrics.insert(name, m);
    }

    fn put1(&mut self, name: &'static str, value: f64) {
        self.put(name, Measured::single(value));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics[name].value
    }

    /// `share` of the whole run (the traced run has no rounds).
    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share)
    }

    /// Repeat `pass` until `share` of the run is spent (three passes at
    /// least), one span per pass. Returns seconds per pass.
    fn passes(
        &mut self,
        name: &'static str,
        share: f64,
        mut pass: impl FnMut() -> bool,
    ) -> Vec<f64> {
        let budget = self.budget(share);
        let phase = self.rec.open(name, self.root);
        let mut secs = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || secs.len() < 3 {
            let t0 = Instant::now();
            let ok = pass();
            let t1 = Instant::now();
            self.rec.add(name, t0, t1, phase, 0);
            self.tally.add(1, u64::from(!ok));
            secs.push((t1 - t0).as_secs_f64());
        }
        self.rec.close(phase);
        secs
    }

    /// A batch rung: whole-`lq` calls, reported as µs per query.
    fn batch_rung(
        &mut self,
        name: &'static str,
        share: f64,
        n_queries: usize,
        pass: impl FnMut() -> bool,
    ) -> Measured {
        let per_query: Vec<f64> = self
            .passes(name, share, pass)
            .iter()
            .map(|s| s * 1e6 / n_queries as f64)
            .collect();
        Measured::over_segments(&per_query, per_query.len() * n_queries)
    }

    /// A single-call rung: one request per call, cycling through
    /// `requests`, a span per call. Returns per-call µs.
    fn calls(
        &mut self,
        name: &'static str,
        share: f64,
        requests: usize,
        mut call: impl FnMut(usize) -> bool,
    ) -> Vec<f64> {
        let budget = self.budget(share);
        let phase = self.rec.open(name, self.root);
        let mut lat = Vec::new();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed() < budget || i < 16 {
            let t0 = Instant::now();
            let ok = call(i % requests);
            let t1 = Instant::now();
            self.rec.add(name, t0, t1, phase, i as u64 + 1);
            self.tally.add(1, u64::from(!ok));
            lat.push(us(t1 - t0));
            i += 1;
        }
        self.rec.close(phase);
        lat
    }

    /// Keep the request spans of an open-loop segment.
    fn keep_requests(&mut self, name: &'static str, phase: SpanId, r: &OpenLoop) {
        for (i, &(due, done)) in r.intervals.iter().enumerate() {
            self.rec.add(name, due, done, phase, i as u64 + 1);
        }
    }
}

fn p50(samples: &[f64]) -> Measured {
    let mut m = Measured::single(quantile(samples, Q::P50));
    (m.q1, m.q3) = (quantile(samples, Q::Q1), quantile(samples, Q::Q3));
    m.samples = samples.len();
    m
}

/// Every row of `got` must be the gated rung's row, or the same up to
/// which equidistant points were kept.
fn same_answers(
    what: &str,
    data: &Dataset,
    lq: &PointSet,
    got: &NeighborTable,
    reference: &NeighborTable,
    tally: &mut Tally,
) -> Res<()> {
    let bad = gate::mismatches_against(&data.points, lq, got, reference);
    tally.add(lq.len() as u64, bad);
    if bad > 0 {
        return Err(format!(
            "{what}: {bad} of {} answers differ from the gated rung",
            lq.len()
        ));
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Record {
    let mut l = Ladder {
        cfg,
        rec: Recorder::new(SPAN_CAP),
        root: ROOT,
        tally: Tally::default(),
        metrics: HashMap::new(),
        detail: Vec::new(),
    };
    l.root = l.rec.open("run", ROOT);
    let outcome = climb(&mut l);
    l.rec.close(l.root);
    l.put1("trace.spans", l.rec.len() as f64);
    l.put1("trace.peak_rss_mb", host::peak_rss_mb());

    let spans_path = cfg
        .out_dir
        .join(format!("{}.spans.json", cfg.workload.name()));
    if let Err(e) = std::fs::write(&spans_path, l.rec.to_json().to_string()) {
        l.tally
            .note(format!("cannot write {}: {e}", spans_path.display()));
    }
    l.detail
        .push(("spans_file", Json::str(spans_path.display().to_string())));
    l.detail.push(("span_summary", l.rec.summary()));

    let mut correct = l.tally.failed == 0;
    if let Err(why) = outcome {
        l.tally.note(format!("stopped: {why}"));
        l.tally.failed = l.tally.failed.max(1);
        correct = false;
    }
    // PER_LAYER order; a stopped climb leaves the list short, which the
    // caller reports as no result
    let metrics = PER_LAYER
        .iter()
        .filter_map(|s| l.metrics.get(s.name).map(|m| (s.name, *m)))
        .collect();
    Record {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: true,
        smoke: cfg.smoke,
        correct,
        attempted: l.tally.attempted.max(1),
        failed: l.tally.failed,
        metrics,
        detail: l.detail,
        notes: l.tally.notes,
    }
}

fn climb(l: &mut Ladder) -> Res<()> {
    let cfg = l.cfg;
    let data = data::dataset(cfg.workload, cfg.seed, cfg.smoke);
    l.put1("data.gen_s", data.gen_s);
    let (k, dims) = (data.k, data.points.dims());
    // one serial pass over the ladder's queries should take ~0.2 s
    let lq_n = if dims <= 3 { 65_536 } else { 4096 };
    let lq = data::shuffled_sample(
        &data.queries,
        if cfg.smoke { lq_n / 8 } else { lq_n },
        cfg.seed,
    );
    let n = lq.len();
    let singles = data::singles(&lq, 2048);
    l.detail.push(("ladder_queries", Json::Num(n as f64)));

    kernel(l);

    // ------------------------------------------------ builds, all timed
    let setup = l.rec.open("setup.builds", l.root);
    let t0 = Instant::now();
    let serial =
        Arc::new(KnnIndex::build(&data.points, &TreeConfig::default()).map_err(err("build"))?);
    let build_serial = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = KnnIndex::build(
        &data.points,
        &TreeConfig {
            parallel: true,
            threads: rayon::current_num_threads(),
            ..TreeConfig::default()
        },
    )
    .map_err(err("parallel build"))?;
    let build_parallel = t0.elapsed().as_secs_f64();
    let shard1 =
        ShardedIndex::build(&data.points, 1, &DistConfig::default()).map_err(err("1 shard"))?;
    let t0 = Instant::now();
    let shard2 = Arc::new(
        ShardedIndex::build(&data.points, 2, &DistConfig::default()).map_err(err("2 shards"))?,
    );
    let build_shard2 = t0.elapsed().as_secs_f64();
    l.rec.close(setup);
    l.put1("tree.build_serial_s", build_serial);
    l.put1("tree.memory_bytes", serial.tree().memory_bytes() as f64);
    l.put1("knn.build_parallel_speedup", build_serial / build_parallel);
    l.put1("shard.build_over_single", build_shard2 / build_serial);

    // ------------------------------- the gated rung: knn against brute force
    let request = QueryRequest::knn(&lq, k);
    let reference = serial
        .query_session(&request)
        .map_err(err("reference query"))?;
    let (sample, picks) = gate::sample_every(&lq, GATE_QUERIES);
    let got = gate::pick_rows(&reference.neighbors, &picks);
    brute_force_gate("rung.knn", &data.points, &sample, k, &got, &mut l.tally)?;
    let reference_rows = Checksum::per_row(&reference.neighbors);

    // ---------------------------------------------------------- rung.tree
    // One pass with a span per call (it also yields the answers and the
    // counts), then whole passes with the clock outside the loop.
    let tree = serial.tree();
    let order = morton_schedule(&lq);
    let mut heap = KnnHeap::new(k);
    let mut ws = QueryWorkspace::new();
    let mut counters = QueryCounters::default();
    let mut rows = vec![Vec::new(); n];
    let phase = l.rec.open("rung.tree.calls", l.root);
    let mut per_call = Vec::with_capacity(n);
    for &qi in &order {
        heap.reset(k, f32::INFINITY);
        let t0 = Instant::now();
        tree.query_into(
            lq.point(qi as usize),
            &mut heap,
            BoundMode::Exact,
            &mut ws,
            &mut counters,
        );
        let t1 = Instant::now();
        l.rec
            .add("rung.tree.call", t0, t1, phase, u64::from(qi) + 1);
        per_call.push(us(t1 - t0));
        heap.append_sorted_into(&mut rows[qi as usize]);
    }
    l.rec.close(phase);
    let tree_table = NeighborTable::from_nested(rows);
    same_answers(
        "rung.tree",
        &data,
        &lq,
        &tree_table,
        &reference.neighbors,
        &mut l.tally,
    )?;
    if counters != reference.counters {
        return Err("rung.tree and rung.knn disagree on the work counters".into());
    }
    let per_q = |c: u64| c as f64 / n as f64;
    l.put("tree.query_us", p50(&per_call));
    l.put1(
        "tree.nodes_visited_per_query",
        per_q(counters.nodes_visited),
    );
    l.put1(
        "tree.leaves_scanned_per_query",
        per_q(counters.leaves_scanned),
    );
    l.put1("tree.heap_ops_per_query", per_q(counters.heap_ops));
    l.put1(
        "kernel.points_scanned_per_query",
        per_q(counters.points_scanned),
    );
    l.put1(
        "kernel.blocks_pruned_frac",
        counters.kernel_blocks_pruned as f64 / (counters.points_scanned as f64 / 8.0),
    );
    let rung_tree = l.batch_rung("rung.tree", 0.05, n, || {
        let mut c = QueryCounters::default();
        for &qi in &order {
            heap.reset(k, f32::INFINITY);
            tree.query_into(
                lq.point(qi as usize),
                &mut heap,
                BoundMode::Exact,
                &mut ws,
                &mut c,
            );
            black_box(&heap);
        }
        c == counters
    });
    l.put("rung.tree_us", rung_tree);
    let kernel_rate = l.get(if dims <= 3 {
        "kernel.points_per_s.d3"
    } else {
        "kernel.points_per_s.d10"
    });
    l.put1(
        "kernel.est_share",
        per_q(counters.points_scanned) / kernel_rate / (rung_tree.value * 1e-6),
    );

    // ------------------------------------------- rung.knn, rung.knn_par
    // every repetition of a rung must reproduce that rung's first answer
    let same = |r: Result<QueryResponse>, sum: Checksum| {
        r.is_ok_and(|r| Checksum::of_table(&r.neighbors) == sum)
    };
    let expected = Checksum::of_table(&reference.neighbors);
    let rung_knn = l.batch_rung("rung.knn", 0.05, n, || {
        same(serial.query_session(&request), expected)
    });
    let input_order = QueryRequest::knn(&lq, k).with_order(QueryOrder::Input);
    let rung_knn_input = l.batch_rung("rung.knn.input_order", 0.04, n, || {
        same(serial.query_session(&input_order), expected)
    });
    let par_first = parallel
        .query_session(&request)
        .map_err(err("parallel query"))?;
    same_answers(
        "rung.knn_par",
        &data,
        &lq,
        &par_first.neighbors,
        &reference.neighbors,
        &mut l.tally,
    )?;
    let par_expected = Checksum::of_table(&par_first.neighbors);
    let rung_knn_par = l.batch_rung("rung.knn_par", 0.04, n, || {
        same(parallel.query_session(&request), par_expected)
    });
    l.put("rung.knn_us", rung_knn);
    l.put("rung.knn_par_us", rung_knn_par);
    l.put1(
        "knn.engine_overhead_frac",
        rung_knn.value / rung_tree.value - 1.0,
    );
    l.put1("knn.parallel_speedup", rung_knn.value / rung_knn_par.value);
    l.put1("knn.morton_gain", rung_knn_input.value / rung_knn.value);

    // --------------------------------------- rung.shard1, rung.shard2, comm
    let mut shard_rungs = Vec::new();
    for (name, index) in [("rung.shard1", &shard1), ("rung.shard2", &*shard2)] {
        let registry = index.registry().expect("sharded index keeps a registry");
        let before = registry.snapshot();
        let first = index.query(&request).map_err(err("sharded query"))?;
        let after = registry.snapshot();
        same_answers(
            name,
            &data,
            &lq,
            &first.neighbors,
            &reference.neighbors,
            &mut l.tally,
        )?;
        if index.shards() == 2 {
            let delta =
                |c: &str| (after.counter(c).unwrap_or(0) - before.counter(c).unwrap_or(0)) as f64;
            let rounds = delta("shard.rounds").max(1.0);
            l.put1("shard.rounds_per_batch", delta("shard.rounds"));
            l.put1(
                "comm.collectives_per_round",
                delta("comm.collectives") / rounds,
            );
            l.put1(
                "comm.bytes_per_query",
                (delta("comm.sent_bytes") + delta("comm.collective_bytes_out")) / n as f64,
            );
            l.put1("comm.recv_retries", delta("comm.recv_retries"));
        }
        let sum = Checksum::of_table(&first.neighbors);
        let rung = l.batch_rung(name, 0.05, n, || same(index.query(&request), sum));
        shard_rungs.push(rung);
    }
    let (rung_shard1, rung_shard2) = (shard_rungs[0], shard_rungs[1]);
    drop(shard1);
    l.put("rung.shard1_us", rung_shard1);
    l.put("rung.shard2_us", rung_shard2);
    l.put1("shard.batch_qps.s1", 1e6 / rung_shard1.value);
    l.put1(
        "shard.scaling_s2_over_s1",
        rung_shard1.value / rung_shard2.value,
    );
    l.put1(
        "shard.overhead_s1_frac",
        rung_shard1.value / rung_knn.value - 1.0,
    );

    // ---------------------------------- rung.direct1 and its sharded twin
    // lq was shuffled, so its first rows are as random as any
    let direct = l.calls("rung.direct1", 0.04, singles.len(), |i| {
        NnBackend::query(&*serial, &QueryRequest::knn(&singles[i], k))
            .is_ok_and(|r| Checksum::of_row(r.neighbors.row(0)) == reference_rows[i])
    });
    let sharded_single = l.calls("shard2.single", 0.04, singles.len(), |i| {
        shard2
            .query(&QueryRequest::knn(&singles[i], k))
            .is_ok_and(|r| r.neighbors.row(0).len() == reference.neighbors.row(i).len())
    });
    let direct_p50 = p50(&direct);
    let direct_mean_us = direct.iter().sum::<f64>() / direct.len() as f64;
    l.put("rung.direct1_us", direct_p50);
    l.put1(
        "knn.call_overhead_us",
        direct_p50.value - l.get("tree.query_us"),
    );
    l.put1(
        "shard.round_us",
        p50(&sharded_single).value - direct_p50.value,
    );

    // -------------------------------------------------------- the service
    let service = QueryService::new(
        Arc::clone(&serial) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .map_err(err("service"))?;
    let submit = |s: &QueryService, i: usize| {
        s.submit(&QueryRequest::knn(&singles[i % singles.len()], k))
            .ok()
    };
    let right = |i: usize, t: Ticket| {
        t.wait()
            .is_ok_and(|r| Checksum::of_row(r.row(0)) == reference_rows[i % singles.len()])
    };

    // rung.service1: one request in flight, submit and wait as child spans
    let phase = l.rec.open("rung.service1", l.root);
    let (mut whole, mut submit_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = l.budget(0.05);
    let mut i = 0usize;
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let ticket = submit(&service, i);
        let t1 = Instant::now();
        let ok = ticket.is_some_and(|t| right(i, t));
        let t2 = Instant::now();
        if let Some(req) = l.rec.add("service.request", t0, t2, phase, i as u64 + 1) {
            l.rec.add("service.submit", t0, t1, req, i as u64 + 1);
            l.rec.add("service.wait", t1, t2, req, i as u64 + 1);
        }
        l.tally.add(1, u64::from(!ok));
        whole.push(us(t2 - t0));
        submit_us.push(us(t1 - t0));
        i += 1;
    }
    l.rec.close(phase);
    let service1 = p50(&whole);
    l.put("rung.service1_us", service1);
    l.put("service.submit_us", p50(&submit_us));
    l.put1(
        "service.ticket_overhead_us",
        service1.value - direct_p50.value,
    );

    // light, then the rest of the sweep: latency from due time per rate
    let mut sweep = Vec::new();
    for rate in SWEEP_RATES_HZ {
        let light = rate == LIGHT_RATE_HZ;
        let before = service.stats();
        let phase = l.rec.open(
            if light {
                "service.light"
            } else {
                "service.sweep"
            },
            l.root,
        );
        let r = open_loop(
            rate,
            l.budget(if light { 0.06 } else { 0.04 }),
            |i| submit(&service, i),
            right,
        );
        l.rec.close(phase);
        service.drain();
        l.keep_requests("service.request", phase, &r);
        l.tally.add(r.attempted, r.failed);
        let p99 = quantile(&r.latency_us, Q::P99);
        let sustained = r.failed == 0 && p99 <= SWEEP_P99_LIMIT_US;
        sweep.push((rate, quantile(&r.latency_us, Q::P50), p99, sustained));
        if light {
            let after = service.stats();
            l.put1(
                "service.mean_batch.light",
                (after.queries - before.queries) as f64
                    / (after.batches - before.batches).max(1) as f64,
            );
            l.put1("gen.late_p99_us", quantile(&r.late_us, Q::P99));
        }
    }
    let at = |hz: f64| sweep.iter().find(|s| s.0 == hz).expect("rate in sweep");
    l.put1("service.p50_us.r8000", at(8000.0).1);
    l.put1("service.p99_us.r8000", at(8000.0).2);
    l.put1(
        "service.max_rate_ok",
        sweep
            .iter()
            .filter(|s| s.3)
            .map(|s| s.0)
            .fold(0.0, f64::max),
    );
    l.detail.push((
        "service_sweep",
        Json::Arr(
            sweep
                .iter()
                .map(|&(rate, p50, p99, ok)| {
                    Json::obj([
                        ("rate_hz", Json::Num(rate)),
                        ("p50_us", Json::Num(p50)),
                        ("p99_us", Json::Num(p99)),
                        ("sustained", Json::Bool(ok)),
                    ])
                })
                .collect(),
        ),
    ));

    // sat: 64 tickets in flight from one thread. Tracing off and on take
    // turns, four short segments each, so that a slow spell of the host
    // falls on both and their ratio keeps its meaning.
    let (mut plain, mut traced) = ([0.0f64; 2], [0.0f64; 2]); // [replies, seconds]
    let (mut queries, mut batches) = (0u64, 0u64);
    trace::clear();
    for turn in 0..8 {
        let tracing = turn % 2 == 1;
        trace::set_sampling(u64::from(tracing));
        let before = service.stats();
        let phase = l.rec.open(
            if tracing {
                "service.sat.traced"
            } else {
                "service.sat"
            },
            l.root,
        );
        let r = closed_loop_in_flight(
            SAT_IN_FLIGHT,
            l.budget(0.0125),
            |i| submit(&service, i),
            right,
        );
        l.rec.close(phase);
        trace::set_sampling(0);
        l.tally.add(r.attempted, r.failed);
        let sums = if tracing { &mut traced } else { &mut plain };
        sums[0] += r.completed as f64;
        sums[1] += r.elapsed.as_secs_f64();
        if !tracing {
            let after = service.stats();
            queries += after.queries - before.queries;
            batches += after.batches - before.batches;
        }
    }
    let sat_qps = plain[0] / plain[1];
    let stats = service.stats();
    l.put1(
        "service.mean_batch.sat",
        queries as f64 / batches.max(1) as f64,
    );
    l.put1("service.batches_per_s.sat", batches as f64 / plain[1]);
    l.put1("service.queue_depth_max", stats.max_queue_depth as f64);
    l.put1(
        "service.shed",
        (stats.rejected + stats.deadline_exceeded + stats.cancelled) as f64,
    );
    l.put1("service.sat_over_direct", sat_qps / (1e6 / direct_mean_us));
    l.put1(
        "obs.trace_overhead_frac",
        1.0 - (traced[0] / traced[1]) / sat_qps,
    );
    let report = panda::obs::TraceReport::gather();
    l.detail.push((
        "trace_report",
        Json::Arr(
            report
                .stages
                .iter()
                .map(|s| {
                    Json::obj([
                        ("stage", Json::str(s.stage.name())),
                        ("count", Json::Num(s.count as f64)),
                        ("mean_ns", Json::Num(s.mean_ns)),
                        ("p50_ns", Json::Num(s.p50_ns as f64)),
                        ("p99_ns", Json::Num(s.p99_ns as f64)),
                        ("max_ns", Json::Num(s.max_ns as f64)),
                    ])
                })
                .collect(),
        ),
    ));
    let snapshots = l.calls("obs.telemetry", 0.01, 1, |_| {
        !black_box(service.telemetry()).is_empty()
    });
    l.put("obs.telemetry_snapshot_us", p50(&snapshots));
    let registry = render_json(&service.telemetry());
    l.detail.push((
        "registry_snapshot",
        Json::parse(&registry).unwrap_or(Json::Str(registry)),
    ));
    service.shutdown();

    // the same two phases over the 2-shard index
    let service = QueryService::new(
        Arc::clone(&shard2) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .map_err(err("sharded service"))?;
    let lengths = |i: usize, t: Ticket| {
        // shard2's own rows were compared with the reference above; ids at
        // tied distances may differ from the single tree's, lengths not
        t.wait()
            .is_ok_and(|r| r.row(0).len() == reference.neighbors.row(i % singles.len()).len())
    };
    let phase = l.rec.open("shard2.service.light", l.root);
    let r = open_loop(
        LIGHT_RATE_HZ,
        l.budget(0.05),
        |i| submit(&service, i),
        lengths,
    );
    l.rec.close(phase);
    service.drain();
    l.keep_requests("shard2.service.request", phase, &r);
    l.tally.add(r.attempted, r.failed);
    l.put1("shard.light_p99_us", quantile(&r.latency_us, Q::P99));
    let phase = l.rec.open("shard2.service.sat", l.root);
    let r = closed_loop_in_flight(
        SAT_IN_FLIGHT,
        l.budget(0.04),
        |i| submit(&service, i),
        lengths,
    );
    l.rec.close(phase);
    l.tally.add(r.attempted, r.failed);
    l.put1("shard.sat_qps", r.per_second());
    service.shutdown();
    drop(shard2);

    store(
        l,
        &data,
        &lq,
        &singles,
        &reference.neighbors,
        direct_p50.value,
    )?;
    wal(l, &data)?;

    // ------------------- each layer's own share: rung minus the rung below
    let batch = ladder_self(&[
        ("self.tree_us", rung_tree.value),
        ("self.knn_us", rung_knn.value),
        ("self.shard1_us", rung_shard1.value),
    ]);
    let single = ladder_self(&[
        ("tree.query_us", l.get("tree.query_us")),
        ("self.direct1_us", direct_p50.value),
        ("self.service1_us", service1.value),
    ]);
    for (name, own) in batch.into_iter().chain(single.into_iter().skip(1)) {
        l.put1(name, own);
    }
    Ok(())
}

/// `PackedLeaves::scan_and_offer` alone: one thread, 32-point buckets,
/// a working set of at least four L2s, one query and one heap carried
/// across the whole pass (so, as in a traversal, most blocks are pruned
/// in-register once the bound has tightened).
fn kernel(l: &mut Ladder) {
    const BUCKET: usize = 32;
    let l2 = match host::l2_bytes() {
        0 => 1 << 20,
        b => b as usize,
    };
    let mut sizes = Vec::new();
    for (name, dims) in [
        ("kernel.points_per_s.d3", 3usize),
        ("kernel.points_per_s.d10", 10),
    ] {
        let bucket_bytes = BUCKET * (dims * 4 + 8);
        let buckets = (4 * l2).div_ceil(bucket_bytes);
        let mut rng = panda::core::rng::SplitRng::new(l.cfg.seed ^ dims as u64);
        let coords: Vec<f32> = (0..buckets * BUCKET * dims)
            .map(|_| rng.next_f64() as f32)
            .collect();
        let mut leaves = PackedLeaves::new(dims);
        leaves.reserve(buckets * BUCKET);
        let bases: Vec<usize> = (0..buckets)
            .map(|b| {
                leaves.push_leaf(
                    BUCKET,
                    |i, d| coords[(b * BUCKET + i) * dims + d],
                    |i| (b * BUCKET + i) as u64,
                ) as usize
            })
            .collect();
        let q = vec![0.5f32; dims];
        let mut heap = KnnHeap::new(8);
        let secs = l.passes(name, 0.02, || {
            heap.reset(8, f32::INFINITY);
            for &base in &bases {
                black_box(leaves.scan_and_offer(base, BUCKET, &q, &mut heap));
            }
            heap.len() == 8
        });
        let rates: Vec<f64> = secs.iter().map(|s| (buckets * BUCKET) as f64 / s).collect();
        l.put(name, Measured::over_segments(&rates, rates.len()));
        sizes.push(Json::obj([
            ("dims", Json::Num(dims as f64)),
            ("bucket_points", Json::Num(BUCKET as f64)),
            ("points", Json::Num((buckets * BUCKET) as f64)),
            ("working_set_bytes", Json::Num(leaves.memory_bytes() as f64)),
            ("l2_bytes", Json::Num(l2 as f64)),
        ]));
    }
    l.detail.push(("kernel_working_sets", Json::Arr(sizes)));
}

/// `store` (index.rs): reads beside an empty and a full write log, the
/// cost of a write, and compactions crossed on the way.
fn store(
    l: &mut Ladder,
    data: &Dataset,
    lq: &PointSet,
    singles: &[PointSet],
    reference: &NeighborTable,
    direct_p50_us: f64,
) -> Res<()> {
    let k = data.k;
    let store = MutableIndex::from_points(&data.points, StoreConfig::default())
        .map_err(err("from_points"))?;
    let first = store
        .query(&QueryRequest::knn(lq, k))
        .map_err(err("store query"))?;
    same_answers("store", data, lq, &first.neighbors, reference, &mut l.tally)?;
    let read = |i: usize| {
        store
            .query(&QueryRequest::knn(&singles[i], k))
            .is_ok_and(|r| r.neighbors.row(0).len() == reference.row(i).len())
    };
    let clean = p50(&l.calls("store.read.clean", 0.03, singles.len(), read));

    let logged_n = LOGGED_POINTS.min(data.points.len());
    let fresh = data::fresh_points(logged_n + 200, data.points.dims(), 1 << 40, l.cfg.seed);
    let insert = |l: &mut Ladder, i: usize| {
        let t0 = Instant::now();
        let ok = store.insert(fresh.point(i), fresh.id(i)).is_ok();
        let dt = us(t0.elapsed());
        l.tally.add(1, u64::from(!ok));
        dt
    };
    let phase = l.rec.open("store.insert", l.root);
    let insert_us: Vec<f64> = (0..logged_n).map(|i| insert(l, i)).collect();
    l.rec.close(phase);
    let logged = p50(&l.calls("store.read.logged", 0.03, singles.len(), read));

    // cross the log threshold, let that compaction finish, then cross the
    // tombstone threshold: two compactions, whatever the host's speed
    let over_threshold: Vec<f64> = (logged_n..fresh.len()).map(|i| insert(l, i)).collect();
    store.quiesce();
    let phase = l.rec.open("store.remove", l.root);
    let remove_us: Vec<f64> = (0..REMOVED_POINTS.min(data.points.len()))
        .map(|i| {
            let t0 = Instant::now();
            let ok = store
                .remove(data.points.id(i))
                .is_ok_and(|was_live| was_live);
            let dt = us(t0.elapsed());
            l.tally.add(1, u64::from(!ok));
            dt
        })
        .collect();
    l.rec.close(phase);
    store.quiesce();
    let stats = store.stats();
    l.tally.add(1, stats.compaction_failures);

    l.put1("store.read_overhead_clean_us", clean.value - direct_p50_us);
    l.put1("store.read_overhead_logged_us", logged.value - clean.value);
    l.put("store.insert_us", p50(&insert_us));
    l.put("store.remove_us", p50(&remove_us));
    l.put1("store.compactions", stats.compactions as f64);
    l.put1(
        "store.compaction_p50_ms",
        stats.compaction_p50_seconds * 1e3,
    );
    l.put1(
        "store.write_stall_max_us",
        insert_us
            .iter()
            .chain(&over_threshold)
            .chain(&remove_us)
            .fold(0.0, |worst, &w| f64::max(worst, w)),
    );
    l.detail
        .push(("store_read_p50_clean_us", Json::Num(clean.value)));
    l.detail
        .push(("store_read_p50_logged_us", Json::Num(logged.value)));
    Ok(())
}

/// `writers` threads insert fresh points of their own into `store` until
/// each has done `limit` writes or `budget` is over. `round` keeps the
/// ids of different phases apart. Returns the acknowledged writes'
/// latencies (µs) and the phase's wall seconds.
fn write_phase(
    l: &mut Ladder,
    store: &MutableIndex,
    name: &'static str,
    writers: u64,
    round: u64,
    limit: usize,
    budget: Duration,
) -> (Vec<f64>, f64) {
    let dims = store.dims();
    let material: Vec<PointSet> = (0..writers)
        .map(|w| {
            let first_id = (3 << 40) + (round << 36) + (w << 32);
            data::fresh_points(limit.min(1 << 16), dims, first_id, l.cfg.seed + w)
        })
        .collect();
    let phase = l.rec.open(name, l.root);
    let start = Instant::now();
    let done: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = material
            .iter()
            .map(|points| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut tried = 0;
                    while tried < points.len() && start.elapsed() < budget {
                        let t0 = Instant::now();
                        if store.insert(points.point(tried), points.id(tried)).is_ok() {
                            lat.push(us(t0.elapsed()));
                        }
                        tried += 1;
                    }
                    (lat, tried)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    l.rec.close(phase);
    let mut all = Vec::new();
    for (lat, tried) in done {
        l.tally.add(tried as u64, (tried - lat.len()) as u64);
        all.extend(lat);
    }
    (all, elapsed)
}

/// `store::wal` + snapshot: the same inserts with no log, a log that is
/// never fsynced, and an fsync per write; then what a reopen costs from
/// a log alone and from a snapshot alone. Fsync figures are this
/// sandbox's disk.
fn wal(l: &mut Ladder, data: &Dataset) -> Res<()> {
    let cfg = l.cfg;
    let dims = data.points.dims();
    let logged_n = LOGGED_POINTS.min(data.points.len());
    let fresh = data::fresh_points(logged_n, dims, 2 << 40, cfg.seed);
    let insert_all = |l: &mut Ladder, s: &MutableIndex| -> Vec<f64> {
        (0..fresh.len())
            .map(|i| {
                let t0 = Instant::now();
                let ok = s.insert(fresh.point(i), fresh.id(i)).is_ok();
                l.tally.add(1, u64::from(!ok));
                us(t0.elapsed())
            })
            .collect()
    };
    let on_compaction = StoreConfig::default().with_fsync(FsyncPolicy::OnCompaction);

    let phase = l.rec.open("wal.policies", l.root);
    let memory = MutableIndex::new(dims, StoreConfig::default()).map_err(err("in-memory store"))?;
    let in_memory = p50(&insert_all(l, &memory));
    drop(memory);

    let log_dir = fresh_dir(cfg, "wal-log")?;
    let unsynced =
        MutableIndex::open(&log_dir, dims, on_compaction.clone()).map_err(err("open"))?;
    let appended = p50(&insert_all(l, &unsynced));
    unsynced.sync().map_err(err("sync"))?;
    close(unsynced);
    l.rec.close(phase);
    l.put1("wal.append_us", appended.value - in_memory.value);

    // a log and nothing else: reopen = replay
    let reopen = |l: &mut Ladder, name: &'static str, dir: &std::path::Path, expect: usize| {
        let secs = l.passes(name, 0.0, || {
            MutableIndex::open(dir, dims, StoreConfig::default())
                .is_ok_and(|s| s.stats().live_points == expect)
        });
        quantile(&secs, Q::P50)
    };
    let replay_s = reopen(l, "wal.replay", &log_dir, fresh.len());
    l.put1("wal.replay_records_per_s", fresh.len() as f64 / replay_s);
    let _ = std::fs::remove_dir_all(&log_dir);

    // fsync per write: a fixed number of writes from two writers (the
    // fsync count of a fixed number of writes repeats exactly), then one
    // writer and two writers against the clock
    let sync_dir = fresh_dir(cfg, "wal-sync")?;
    let synced =
        MutableIndex::open(&sync_dir, dims, StoreConfig::default()).map_err(err("open"))?;
    let before = synced.stats();
    write_phase(
        l,
        &synced,
        "wal.counted",
        2,
        0,
        COUNTED_WRITES / 2,
        Duration::MAX,
    );
    let counted = synced.stats();
    let budget = l.budget(0.04);
    let (one, one_s) = write_phase(l, &synced, "wal.writers1", 1, 1, usize::MAX, budget);
    let (two, two_s) = write_phase(l, &synced, "wal.writers2", 2, 2, usize::MAX, budget);
    let one_writer_p50 = quantile(&one, Q::P50);
    let per_second = [one.len() as f64 / one_s, two.len() as f64 / two_s];
    synced.sync().map_err(err("sync"))?;
    let stats = synced.stats();
    close(synced);
    l.put1("wal.fsync_us", one_writer_p50 - appended.value);
    l.put1(
        "wal.fsyncs_per_write",
        (counted.wal_fsyncs - before.wal_fsyncs) as f64
            / (counted.wal_appends - before.wal_appends).max(1) as f64,
    );
    l.put1("wal.writers2_over_writers1", per_second[1] / per_second[0]);
    let dir_bytes: u64 = std::fs::read_dir(&sync_dir)
        .map_err(err("read store dir"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    l.put1(
        "wal.dir_bytes_per_user_byte",
        dir_bytes as f64 / (stats.wal_appends.max(1) * (dims as u64 * 4 + 8)) as f64,
    );
    let _ = std::fs::remove_dir_all(&sync_dir);

    // a snapshot and nothing else: every threshold crossing is allowed to
    // finish before the next insert, then the remainder is compacted too
    let snap_dir = fresh_dir(cfg, "wal-snap")?;
    let snap = MutableIndex::open(&snap_dir, dims, on_compaction).map_err(err("open"))?;
    let n = SNAPSHOT_POINTS.min(data.points.len());
    let phase = l.rec.open("store.snapshot.fill", l.root);
    for i in 0..n {
        let ok = snap.insert(data.points.point(i), data.points.id(i)).is_ok();
        l.tally.add(1, u64::from(!ok));
        if snap.compacting() {
            snap.quiesce();
        }
    }
    snap.compact_now().map_err(err("compact_now"))?;
    snap.sync().map_err(err("sync"))?;
    l.rec.close(phase);
    l.put1(
        "store.snapshots_written",
        snap.stats().snapshots_written as f64,
    );
    close(snap);
    let load_s = reopen(l, "store.snapshot.load", &snap_dir, n);
    l.put1("store.snapshot_load_s", load_s);
    let _ = std::fs::remove_dir_all(&snap_dir);
    Ok(())
}
