//! The six workloads of the untraced run.
//!
//! Configs are the crates' defaults (`TreeConfig`, `DistConfig`,
//! `ServiceConfig`, `StoreConfig::default()`, result cache off), except
//! that the batch workloads build with `parallel: true` over the whole
//! pool, as a batch user would. They are fixed here and never tuned per
//! commit: the benchmark is the ruler, not the thing being measured.
//!
//! A run sets its workload up [`RunCfg::setups`] times — data
//! generation, builds, correctness gate, warm-up — and `setup_s` is the
//! median of those. The workloads over a static index then run a *round*
//! on every instance: measure a share of `--seconds` in segments, check,
//! drop. Every other metric is the best segment of all rounds (`stats`
//! says why not the median). Rounds exist because on the recorded host
//! one built instance differs from the next by as much as one process
//! from the next (single-query p50 on one tree: 56.6 to 63.5 µs across
//! three instances in one process), while segments on one instance agree
//! within 1%: only re-building inside the run samples that spread. The
//! store workloads measure on the last instance alone, for reasons given
//! at their `ROUNDS`.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda::prelude::*;

use crate::data::{self, Dataset};
use crate::gate::{self, Checksum};
use crate::host;
use crate::json::Json;
use crate::loadgen::{closed_loop_in_flight, open_loop, ClosedLoop, OpenLoop};
use crate::report::Record;
use crate::spec::{Better, Workload};
use crate::stats::{per_segment, Measured, Q};

/// Queries in the brute-force gate sample.
pub const GATE_QUERIES: usize = 512;
/// Open-loop rate of the `light` phases: about 15% of what one serial
/// 10-D tree can answer, so queueing is the service's own.
pub const LIGHT_RATE_HZ: f64 = 2000.0;
/// Callers the saturating phase stands in for.
pub const SAT_IN_FLIGHT: usize = 64;
/// A light-phase segment whose generator ran later than this at p99 is
/// flagged: its latencies include the generator's own lateness.
pub const LATE_FLAG_US: f64 = 200.0;

pub type Res<T> = std::result::Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measurement, all rounds and phases together.
    pub seconds: f64,
    pub smoke: bool,
    /// Times the workload is set up.
    pub setups: usize,
    /// Of those instances, how many (the last ones) are measured, each
    /// for an equal share of `seconds`. The caller says how many it
    /// allows; [`run`] lowers that to what the workload asks for.
    pub rounds: usize,
    /// Where the durable workloads keep their store directories.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// Seconds of measurement in one round.
    pub fn round_seconds(&self) -> f64 {
        self.seconds / self.rounds.max(1) as f64
    }

    /// `share` of one round's measurement, split over `parts` segments.
    pub fn slice(&self, share: f64, parts: usize) -> Duration {
        Duration::from_secs_f64(self.round_seconds() * share / parts as f64)
    }
}

/// Operations attempted and failed, and anything worth a line in the
/// report. A wrong answer, an `Err`, a refused submit and a lost durable
/// write are all failed operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// What one round's measurement produced, segment by segment.
pub struct Phases {
    /// Operations per second, one value per throughput segment.
    pub ops_s: Vec<f64>,
    /// Operations behind `ops_s`.
    pub ops: usize,
    /// Latencies in µs, one list per latency segment.
    pub latency_us: Vec<Vec<f64>>,
    /// Figures that are not end-to-end metrics but belong in the
    /// detailed result (generator lateness, batch sizes seen, ...).
    pub detail: Vec<(&'static str, Json)>,
}

/// One workload: how to set it up and how to measure it.
trait Scenario: Sized {
    /// Instances this workload wants measured (see [`RunCfg::rounds`]).
    const ROUNDS: usize;
    /// Segments per timed phase in one round.
    const SEGMENTS: usize;

    /// Generate inputs, build, gate, warm up. Returns the instance and
    /// its `ready_s` samples (time from points or directory to an index
    /// that answers queries).
    fn setup(cfg: &RunCfg, tally: &mut Tally) -> Res<(Self, Vec<f64>)>;
    fn measure(&mut self, cfg: &RunCfg, tally: &mut Tally) -> Res<Phases>;
    /// Checks that need the measured instance (final state of a store).
    fn finish(self, _cfg: &RunCfg, _tally: &mut Tally) -> Res<()> {
        Ok(())
    }
}

/// One untraced run of `cfg.workload`. The metrics come in `END_TO_END`
/// order, or not at all when a set-up or a gate failed.
pub fn run(cfg: &RunCfg, process_start: Instant) -> Record {
    match cfg.workload {
        Workload::BatchCosmo3d | Workload::BatchDayabay10d => run_as::<Batch>(cfg, process_start),
        Workload::ServeHotspot => run_as::<Serve<KnnIndex>>(cfg, process_start),
        Workload::Sharded2 => run_as::<Serve<ShardedIndex>>(cfg, process_start),
        Workload::StoreStream => run_as::<Stream>(cfg, process_start),
        Workload::StoreDurable => run_as::<Durable>(cfg, process_start),
    }
}

fn run_as<S: Scenario>(cli: &RunCfg, process_start: Instant) -> Record {
    let setups = cli.setups.max(1);
    let cfg = &RunCfg {
        rounds: S::ROUNDS.min(cli.rounds).clamp(1, setups),
        out_dir: cli.out_dir.clone(),
        ..*cli
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut ready_s = Vec::new();
    let mut ops_s = Vec::new();
    let mut ops = 0usize;
    let mut latency_us = Vec::new();
    let mut detail = Vec::new();
    let outcome = (|| -> Res<()> {
        for rep in 0..setups {
            // the first set-up is timed from process start; each instance
            // is gone before the next is built, so the peak resident set
            // is one instance's
            let t0 = if rep == 0 {
                process_start
            } else {
                Instant::now()
            };
            let (mut instance, ready) = S::setup(cfg, &mut tally)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            ready_s.extend(ready);
            if rep + cfg.rounds < setups {
                continue; // set up for `setup_s` only
            }
            let phases = instance.measure(cfg, &mut tally)?;
            instance.finish(cfg, &mut tally)?;
            ops_s.extend(phases.ops_s);
            ops += phases.ops;
            latency_us.extend(phases.latency_us);
            detail = phases.detail;
        }
        Ok(())
    })();
    // a percentile with fewer than ten samples beyond it is the tail's
    // luck, not the tail
    if latency_us
        .iter()
        .any(|seg| Q::P95.samples_beyond(seg.len()) < 10)
    {
        tally.note("a latency segment has fewer than ten samples beyond its p95".into());
    }
    if let Err(why) = &outcome {
        tally.note(format!("stopped: {why}"));
        tally.failed = tally.failed.max(1);
    }
    let metrics = if outcome.is_ok() {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let reads: usize = latency_us.iter().map(Vec::len).sum();
        let (p50, p95, p99) = (
            per_segment(&latency_us, Q::P50),
            per_segment(&latency_us, Q::P95),
            per_segment(&latency_us, Q::P99),
        );
        detail.push(("ready_s_samples", nums(&ready_s)));
        detail.push(("ops_s_segments", nums(&ops_s)));
        detail.push(("p50_us_segments", nums(&p50)));
        detail.push(("p95_us_segments", nums(&p95)));
        // p99 is recorded, not gated: with five runnable threads on two
        // cores it spread 21% (serve_hotspot) and 44% (sharded2) from run
        // to run where p95 stayed within 11% on every workload
        detail.push(("p99_us_segments", nums(&p99)));
        // `setup_s` is the median of the set-ups; everything else is the
        // run's best segment (see `stats`)
        vec![
            ("setup_s", Measured::over_segments(&setup_s, setup_s.len())),
            ("peak_rss_mb", Measured::single(host::peak_rss_mb())),
            (
                "ready_s",
                Measured::best_segment(&ready_s, ready_s.len(), Better::Lower),
            ),
            ("ops_s", Measured::best_segment(&ops_s, ops, Better::Higher)),
            ("p50_us", Measured::best_segment(&p50, reads, Better::Lower)),
            ("p95_us", Measured::best_segment(&p95, reads, Better::Lower)),
        ]
    } else {
        Vec::new()
    };
    Record {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: false,
        smoke: cfg.smoke,
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        detail,
        notes: tally.notes,
    }
}

/// Run `got` (the engine's answers for `sample`) past brute force; any
/// differing bit stops the run before a single timing is taken.
pub fn brute_force_gate(
    what: &str,
    points: &PointSet,
    sample: &PointSet,
    k: usize,
    got: &NeighborTable,
    tally: &mut Tally,
) -> Res<()> {
    let bad = gate::brute_force_mismatches(points, sample, k, got).map_err(err("brute force"))?;
    tally.add(sample.len() as u64, bad);
    if bad > 0 {
        return Err(format!(
            "{what}: {bad} of {} sampled queries differ from brute force",
            sample.len()
        ));
    }
    Ok(())
}

/// Builds timed per set-up: `ready_s` is a time of tens of milliseconds,
/// and three rounds of one build each left its median 10% wide.
const READY_REPS: usize = 3;

/// Run `build` [`READY_REPS`] times, each timed; keep the last instance.
fn timed_builds<T>(mut build: impl FnMut() -> Result<T>) -> Res<(T, Vec<f64>)> {
    let mut ready = Vec::new();
    let mut built = None;
    for _ in 0..READY_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build().map_err(err("build"))?);
        ready.push(t0.elapsed().as_secs_f64());
    }
    Ok((built.expect("built"), ready))
}

/// Repeat whole-batch calls until `budget` is spent (three at least) and
/// return operations per second over all of them together, and the
/// operations done. `call` runs call number `i` and returns the
/// operations it did, the time the call itself took, and whether the
/// answer was right; checking the answer stays outside that time.
///
/// One figure per round, not one per call: on the recorded host
/// `ShardedIndex::query` runs in streaks of ~0.6 s at 17k or at 29k
/// queries/s, whichever way the kernel has placed the two shard workers,
/// and a median over calls flips between the two modes from run to run
/// while the work done per second moves by a few percent.
fn batch_throughput(
    budget: Duration,
    tally: &mut Tally,
    mut call: impl FnMut(usize) -> (usize, Duration, bool),
) -> (f64, usize) {
    let (mut ops, mut busy, mut calls) = (0usize, Duration::ZERO, 0usize);
    let start = Instant::now();
    while start.elapsed() < budget || calls < 3 {
        let (n, took, ok) = call(calls);
        tally.add(n as u64, if ok { 0 } else { n as u64 });
        ops += n;
        busy += took;
        calls += 1;
    }
    (ops as f64 / busy.as_secs_f64(), ops)
}

/// Time single-query calls in `segments` segments of `segment` each,
/// cycling through `requests`; `call` answers one and says whether the
/// answer was right.
fn single_call_latency(
    segments: usize,
    segment: Duration,
    requests: usize,
    mut call: impl FnMut(usize) -> bool,
    tally: &mut Tally,
) -> Vec<Vec<f64>> {
    let mut next = 0usize;
    (0..segments)
        .map(|_| {
            let mut lat = Vec::new();
            let start = Instant::now();
            while start.elapsed() < segment {
                let t0 = Instant::now();
                let ok = call(next % requests);
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
                tally.add(1, u64::from(!ok));
                next += 1;
            }
            lat
        })
        .collect()
}

// ---------------------------------------------------------------- batch

/// `batch_cosmo3d` and `batch_dayabay10d`: whole query sets through one
/// `KnnIndex::query_session` call, then single queries through
/// `NnBackend::query` for the latency an interactive caller of the same
/// index would see.
struct Batch {
    data: Dataset,
    index: KnnIndex,
    expected: Checksum,
    singles: Vec<PointSet>,
    single_expected: Vec<Checksum>,
}

/// Single-query requests kept for the latency phase.
const SINGLES: usize = 4096;

impl Scenario for Batch {
    // static index: every round re-builds it, and three rounds of three
    // segments give the best-segment rule nine to choose from
    const ROUNDS: usize = 3;
    const SEGMENTS: usize = 3;

    fn setup(cfg: &RunCfg, tally: &mut Tally) -> Res<(Self, Vec<f64>)> {
        let data = data::dataset(cfg.workload, cfg.seed, cfg.smoke);
        let tree_cfg = TreeConfig {
            parallel: true,
            threads: rayon::current_num_threads(),
            ..TreeConfig::default()
        };
        let (index, ready) = timed_builds(|| KnnIndex::build(&data.points, &tree_cfg))?;

        let (sample, _) = gate::sample_every(&data.queries, GATE_QUERIES);
        let got = index
            .query_session(&QueryRequest::knn(&sample, data.k))
            .map_err(err("gate query"))?;
        brute_force_gate(
            "index",
            &data.points,
            &sample,
            data.k,
            &got.neighbors,
            tally,
        )?;

        // The first whole-set call is the warm-up and the reference every
        // timed repetition must reproduce.
        let first = index
            .query_session(&QueryRequest::knn(&data.queries, data.k))
            .map_err(err("warm-up query"))?;
        let expected = Checksum::of_table(&first.neighbors);
        let picks = data::shuffled_sample(&data.queries, SINGLES, cfg.seed);
        let singles = data::singles(&picks, SINGLES);
        // ids of `queries` are positions in it, so a pick's id is its row
        let single_expected = picks
            .ids()
            .iter()
            .map(|&row| Checksum::of_row(first.neighbors.row(row as usize)))
            .collect();
        Ok((
            Batch {
                data,
                index,
                expected,
                singles,
                single_expected,
            },
            ready,
        ))
    }

    fn measure(&mut self, cfg: &RunCfg, tally: &mut Tally) -> Res<Phases> {
        let nq = self.data.queries.len();
        let req = QueryRequest::knn(&self.data.queries, self.data.k);
        let (qps, ops) = batch_throughput(cfg.slice(0.8, 1), tally, |_| {
            let t0 = Instant::now();
            let res = black_box(self.index.query_session(black_box(&req)));
            let took = t0.elapsed();
            let ok = res.is_ok_and(|r| Checksum::of_table(&r.neighbors) == self.expected);
            (nq, took, ok)
        });

        let k = self.data.k;
        let segs = single_call_latency(
            Self::SEGMENTS,
            cfg.slice(0.2, Self::SEGMENTS),
            self.singles.len(),
            |i| {
                NnBackend::query(&self.index, &QueryRequest::knn(&self.singles[i], k))
                    .is_ok_and(|r| Checksum::of_row(r.neighbors.row(0)) == self.single_expected[i])
            },
            tally,
        );
        Ok(Phases {
            ops,
            ops_s: vec![qps],
            latency_us: segs,
            detail: vec![("queries_per_call", Json::Num(nq as f64))],
        })
    }
}

// ---------------------------------------------------------------- serve

/// What `serve_hotspot` and `sharded2` differ in: the index behind the
/// service, and how their throughput phase drives it.
trait ServeBackend: NnBackend + Send + Sync + Sized + 'static {
    fn build_default(points: &PointSet) -> Result<Self>;
    /// Share of the measurement given to the light (latency) phase; the
    /// throughput phase gets the rest.
    const LIGHT_SHARE: f64;
    /// Throughput phase of one round: operations per second over the
    /// whole phase, and how many operations that was.
    fn throughput(serve: &Serve<Self>, cfg: &RunCfg, tally: &mut Tally) -> (f64, usize);
}

struct Serve<B: ServeBackend> {
    data: Dataset,
    index: Arc<B>,
    service: Option<QueryService>,
    singles: Vec<PointSet>,
    /// Checksum of every pool query's row in the index's own whole-pool
    /// answer, which the set-up gated on a sample.
    expected: Vec<Checksum>,
}

impl<B: ServeBackend> Serve<B> {
    fn service(&self) -> &QueryService {
        self.service.as_ref().expect("service runs until finish")
    }

    /// Submit pool query `i` (cyclic) as a one-query request.
    fn submit(&self, i: usize) -> Option<Ticket> {
        let q = &self.singles[i % self.singles.len()];
        self.service()
            .submit(&QueryRequest::knn(q, self.data.k))
            .ok()
    }

    /// Wait for request `i`'s reply and hold it to the gated row.
    fn answered(&self, i: usize, ticket: Ticket) -> bool {
        ticket
            .wait()
            .is_ok_and(|r| Checksum::of_row(r.row(0)) == self.expected[i % self.expected.len()])
    }

    /// One open-loop segment of single-query requests through the
    /// service, starting at pool query `first`.
    fn light_segment(&self, first: usize, duration: Duration) -> OpenLoop {
        open_loop(
            LIGHT_RATE_HZ,
            duration,
            |i| self.submit(first + i),
            |i, ticket| self.answered(first + i, ticket),
        )
    }

    /// One saturating segment: a single thread keeps
    /// [`SAT_IN_FLIGHT`] tickets outstanding.
    fn sat_segment(&self, first: usize, duration: Duration) -> ClosedLoop {
        closed_loop_in_flight(
            SAT_IN_FLIGHT,
            duration,
            |i| self.submit(first + i),
            |i, ticket| self.answered(first + i, ticket),
        )
    }
}

impl<B: ServeBackend> Scenario for Serve<B> {
    const ROUNDS: usize = 3;
    const SEGMENTS: usize = 3;

    fn setup(cfg: &RunCfg, tally: &mut Tally) -> Res<(Self, Vec<f64>)> {
        let data = data::dataset(cfg.workload, cfg.seed, cfg.smoke);
        let (index, ready) = timed_builds(|| B::build_default(&data.points))?;
        let index = Arc::new(index);

        // The whole pool through the index under test, gated on a sample;
        // its rows are what every later reply is held to.
        let pool = index
            .query(&QueryRequest::knn(&data.queries, data.k).with_parallel(true))
            .map_err(err("pool query"))?;
        let (sample, picks) = gate::sample_every(&data.queries, GATE_QUERIES);
        let got = gate::pick_rows(&pool.neighbors, &picks);
        brute_force_gate(index.name(), &data.points, &sample, data.k, &got, tally)?;
        let expected = Checksum::per_row(&pool.neighbors);

        let service = QueryService::new(
            Arc::clone(&index) as Arc<dyn NnBackend + Send + Sync>,
            ServiceConfig::default(),
        )
        .map_err(err("service"))?;
        let serve = Serve {
            singles: data::singles(&data.queries, data.queries.len()),
            data,
            index,
            service: Some(service),
            expected,
        };
        // warm-up: both traffic shapes, untimed
        let warm = serve.light_segment(0, cfg.slice(0.02, 1));
        tally.add(warm.attempted, warm.failed);
        let warm = serve.sat_segment(0, cfg.slice(0.01, 1));
        tally.add(warm.attempted, warm.failed);
        Ok((serve, ready))
    }

    fn measure(&mut self, cfg: &RunCfg, tally: &mut Tally) -> Res<Phases> {
        let mut segs = Vec::new();
        let mut late = Vec::new();
        let mut flagged = 0usize;
        for s in 0..Self::SEGMENTS {
            let r = self.light_segment(s * 1009, cfg.slice(B::LIGHT_SHARE, Self::SEGMENTS));
            tally.add(r.attempted, r.failed);
            let late_p99 = crate::stats::quantile(&r.late_us, Q::P99);
            if late_p99 > LATE_FLAG_US {
                flagged += 1;
            }
            late.push(late_p99);
            segs.push(r.latency_us);
            self.service().drain();
        }
        if flagged > 0 {
            tally.note(format!(
                "generator ran more than {LATE_FLAG_US} us late at p99 in {flagged} of {} light segments",
                Self::SEGMENTS
            ));
        }
        let (ops, ops_n) = B::throughput(self, cfg, tally);
        let stats = self.service().stats();
        Ok(Phases {
            ops_s: vec![ops],
            ops: ops_n,
            latency_us: segs,
            detail: vec![
                ("light_rate_hz", Json::Num(LIGHT_RATE_HZ)),
                (
                    "gen_late_p99_us",
                    Json::Num(crate::stats::quantile(&late, Q::P50)),
                ),
                ("light_segments_flagged_late", Json::Num(flagged as f64)),
                ("service_mean_batch", Json::Num(stats.mean_batch_size())),
                (
                    "service_queue_depth_max",
                    Json::Num(stats.max_queue_depth as f64),
                ),
                (
                    "service_shed",
                    Json::Num((stats.rejected + stats.deadline_exceeded + stats.cancelled) as f64),
                ),
            ],
        })
    }

    fn finish(mut self, _cfg: &RunCfg, _tally: &mut Tally) -> Res<()> {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        Ok(())
    }
}

impl ServeBackend for KnnIndex {
    fn build_default(points: &PointSet) -> Result<Self> {
        KnnIndex::build(points, &TreeConfig::default())
    }

    const LIGHT_SHARE: f64 = 0.6;

    /// `sat`: 64 callers' worth of tickets in flight through the service.
    fn throughput(serve: &Serve<Self>, cfg: &RunCfg, tally: &mut Tally) -> (f64, usize) {
        let r = serve.sat_segment(2003, cfg.slice(1.0 - Self::LIGHT_SHARE, 1));
        tally.add(r.attempted, r.failed);
        (r.per_second(), r.completed as usize)
    }
}

/// Queries per `ShardedIndex::query` call in `sharded2`'s batch phase.
const SHARD_BATCH: usize = 2048;

impl ServeBackend for ShardedIndex {
    fn build_default(points: &PointSet) -> Result<Self> {
        ShardedIndex::build(points, 2, &DistConfig::default())
    }

    const LIGHT_SHARE: f64 = 0.4;

    /// `batch`: whole batches straight into `ShardedIndex::query`, no
    /// service in between.
    fn throughput(serve: &Serve<Self>, cfg: &RunCfg, tally: &mut Tally) -> (f64, usize) {
        let queries = &serve.data.queries;
        // the pool's gated rows give every batch its expected sum
        let per_batch = SHARD_BATCH.min(queries.len());
        let batches: Vec<(PointSet, Checksum)> = (0..queries.len() / per_batch)
            .map(|b| {
                let rows = b * per_batch..(b + 1) * per_batch;
                let idx: Vec<u32> = rows.clone().map(|i| i as u32).collect();
                (
                    queries.select(&idx),
                    Checksum::combine(&serve.expected[rows]),
                )
            })
            .collect();
        batch_throughput(cfg.slice(1.0 - Self::LIGHT_SHARE, 1), tally, |i| {
            let (batch, expected) = &batches[i % batches.len()];
            let t0 = Instant::now();
            let res = black_box(serve.index.query(&QueryRequest::knn(batch, serve.data.k)));
            let took = t0.elapsed();
            let ok =
                res.is_ok_and(|r| Checksum::combine(&Checksum::per_row(&r.neighbors)) == *expected);
            (batch.len(), took, ok)
        })
    }
}

// --------------------------------------------------------------- stream

enum Op {
    Read(usize),
    Insert(usize),
    Remove(u64),
}

/// `store_stream`: one closed loop of reads and writes on an in-memory
/// `MutableIndex`, crossing compactions.
struct Stream {
    data: Dataset,
    store: MutableIndex,
    reads: Vec<PointSet>,
    fresh: PointSet,
    script: Vec<Op>,
    /// Position in `script` the next segment starts from.
    cursor: usize,
}

/// Script length per measured second: six times what the store sustains
/// on the recorded host, so a much faster store still has work to the end.
const STREAM_OPS_PER_SECOND: f64 = 20_000.0;

impl Scenario for Stream {
    // The store ages as the stream runs: the log fills and tombstones
    // pile up until a compaction resets both, about every 10,000
    // operations (3.3 s on the recorded host). One long stream is
    // therefore cut into three segments that each hold about one whole
    // cycle; the best of them is still a whole cycle, not the moment
    // after a compaction. Rounds would restart the store young each time
    // and never reach one.
    const ROUNDS: usize = 1;
    const SEGMENTS: usize = 3;

    fn setup(cfg: &RunCfg, tally: &mut Tally) -> Res<(Self, Vec<f64>)> {
        let data = data::dataset(cfg.workload, cfg.seed, cfg.smoke);
        let (store, ready) =
            timed_builds(|| MutableIndex::from_points(&data.points, StoreConfig::default()))?;

        let (sample, _) = gate::sample_every(&data.queries, GATE_QUERIES);
        let got = store
            .query(&QueryRequest::knn(&sample, data.k))
            .map_err(err("gate query"))?;
        brute_force_gate(
            "store",
            &data.points,
            &sample,
            data.k,
            &got.neighbors,
            tally,
        )?;

        // 80% reads, 10% inserts, 10% removes. Every remove names a live
        // id exactly once and every insert a fresh id, so no operation of
        // the script can fail on a correct store.
        let ops = (STREAM_OPS_PER_SECOND * cfg.round_seconds()).ceil() as usize;
        let mut rng = panda::core::rng::SplitRng::new(cfg.seed ^ 0x0057_2EA4);
        let victims = rng.sample_indices(data.points.len(), (ops / 8).min(data.points.len()));
        let fresh = data::fresh_points(ops / 8, data.points.dims(), 1 << 40, cfg.seed);
        let (mut inserts, mut removes) = (0usize, 0usize);
        let script = (0..ops)
            .map(|_| match rng.next_below(10) {
                0 if inserts < fresh.len() => {
                    inserts += 1;
                    Op::Insert(inserts - 1)
                }
                1 if removes < victims.len() => {
                    removes += 1;
                    Op::Remove(data.points.id(victims[removes - 1] as usize))
                }
                _ => Op::Read(rng.next_below(data.queries.len())),
            })
            .collect();
        let reads = data::singles(&data.queries, data.queries.len());
        for q in reads.iter().take(512) {
            let ok = store.query(&QueryRequest::knn(q, data.k)).is_ok();
            tally.add(1, u64::from(!ok));
        }
        Ok((
            Stream {
                data,
                store,
                reads,
                fresh,
                script,
                cursor: 0,
            },
            ready,
        ))
    }

    fn measure(&mut self, cfg: &RunCfg, tally: &mut Tally) -> Res<Phases> {
        let k = self.data.k;
        let segment = cfg.slice(1.0, Self::SEGMENTS);
        let mut ops_s = Vec::new();
        let mut read_us = Vec::new();
        let mut total = 0usize;
        for _ in 0..Self::SEGMENTS {
            if self.cursor == self.script.len() {
                tally.note("store_stream used up its script before the time was over".into());
                break;
            }
            let mut lat = Vec::new();
            let mut done = 0usize;
            let start = Instant::now();
            while start.elapsed() < segment && self.cursor < self.script.len() {
                let ok = match self.script[self.cursor] {
                    Op::Read(q) => {
                        let t0 = Instant::now();
                        let res =
                            black_box(self.store.query(&QueryRequest::knn(&self.reads[q], k)));
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        res.is_ok_and(|r| r.neighbors.row(0).len() == k)
                    }
                    Op::Insert(i) => self
                        .store
                        .insert(self.fresh.point(i), self.fresh.id(i))
                        .is_ok(),
                    Op::Remove(id) => self.store.remove(id).is_ok_and(|was_live| was_live),
                };
                tally.add(1, u64::from(!ok));
                self.cursor += 1;
                done += 1;
            }
            ops_s.push(done as f64 / start.elapsed().as_secs_f64());
            total += done;
            read_us.push(lat);
        }
        self.store.quiesce();
        let stats = self.store.stats();
        Ok(Phases {
            ops_s,
            ops: total,
            latency_us: read_us,
            detail: vec![
                ("compactions", Json::Num(stats.compactions as f64)),
                (
                    "compaction_failures",
                    Json::Num(stats.compaction_failures as f64),
                ),
                ("inserted", Json::Num(stats.inserted as f64)),
                ("removed", Json::Num(stats.removed as f64)),
            ],
        })
    }

    /// The store's final state against brute force over the points that
    /// should be live: the initial set, minus every executed remove, plus
    /// every executed insert.
    fn finish(self, _cfg: &RunCfg, tally: &mut Tally) -> Res<()> {
        let mut removed = HashSet::new();
        let mut live = PointSet::new(self.data.points.dims()).map_err(err("dims"))?;
        for op in &self.script[..self.cursor] {
            match *op {
                Op::Remove(id) => {
                    removed.insert(id);
                }
                Op::Insert(i) => live.push(self.fresh.point(i), self.fresh.id(i)),
                Op::Read(_) => {}
            }
        }
        for i in 0..self.data.points.len() {
            if !removed.contains(&self.data.points.id(i)) {
                live.push(self.data.points.point(i), self.data.points.id(i));
            }
        }
        let stats = self.store.stats();
        let lost = (stats.live_points != live.len()) as u64 + stats.compaction_failures;
        tally.add(1, lost);
        if lost > 0 {
            return Err(format!(
                "store holds {} live points, {} expected, {} compactions failed",
                stats.live_points,
                live.len(),
                stats.compaction_failures
            ));
        }
        let (sample, _) = gate::sample_every(&self.data.queries, GATE_QUERIES);
        let got = self
            .store
            .query(&QueryRequest::knn(&sample, self.data.k))
            .map_err(err("final query"))?;
        brute_force_gate(
            "store after the stream",
            &live,
            &sample,
            self.data.k,
            &got.neighbors,
            tally,
        )
    }
}

// -------------------------------------------------------------- durable

/// Points the store holds, before and throughout the timed writes.
const DURABLE_POINTS: usize = 40_000;
/// Reopen cycles timed per set-up.
const REOPENS: usize = 5;
/// Fresh points generated per writer per measured second: well above
/// what an fsync per write allows.
const DURABLE_POINTS_PER_SECOND: f64 = 15_000.0;
/// Writes per writer before the clock starts.
const DURABLE_WARMUP: usize = 256;

/// `store_durable`: writers on a durable `MutableIndex` with an fsync
/// per write, then reopen and account for every acknowledged write.
///
/// Each writer alternates an insert with a remove of its oldest point,
/// so the store stays at [`DURABLE_POINTS`]. Insert-only writers were
/// tried first: every checkpoint rebuilds the whole corpus, so writes/s
/// fell from 11.1k to 6.5k as a 30 s run grew the store from 40k to
/// 295k points, and a time-boxed run measured mostly how far it got.
struct Durable {
    data: Dataset,
    dir: PathBuf,
    store: Option<MutableIndex>,
    preload: PointSet,
    writers: Vec<Writer>,
}

/// One writer thread's material and what it has been acknowledged.
struct Writer {
    fresh: PointSet,
    /// Ids this writer removes, oldest first: its share of the preload,
    /// then its own inserts.
    victims: VecDeque<u64>,
    /// Writes done so far; even ones insert, odd ones remove.
    ops: usize,
    /// Positions in `fresh` whose insert was acknowledged.
    inserted: Vec<usize>,
    /// Ids whose remove was acknowledged.
    removed: Vec<u64>,
}

impl Writer {
    /// Up to `limit` writes, stopping at `deadline`. Returns the
    /// acknowledged writes' latencies (µs) and how many writes failed.
    fn run(&mut self, store: &MutableIndex, deadline: Instant, limit: usize) -> (Vec<f64>, u64) {
        let mut lat = Vec::new();
        let mut failed = 0u64;
        for _ in 0..limit {
            let i = self.ops / 2;
            if Instant::now() >= deadline || i >= self.fresh.len() {
                break;
            }
            let t0 = Instant::now();
            let ok = if self.ops.is_multiple_of(2) {
                let ok = store.insert(self.fresh.point(i), self.fresh.id(i)).is_ok();
                if ok {
                    self.inserted.push(i);
                    self.victims.push_back(self.fresh.id(i));
                }
                ok
            } else {
                let id = self
                    .victims
                    .pop_front()
                    .expect("an insert precedes every remove");
                let ok = store.remove(id).is_ok_and(|was_live| was_live);
                if ok {
                    self.removed.push(id);
                }
                ok
            };
            if ok {
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                failed += 1;
            }
            self.ops += 1;
        }
        (lat, failed)
    }
}

/// A store directory of this process's own, emptied first.
pub fn fresh_dir(cfg: &RunCfg, tag: &str) -> Res<PathBuf> {
    let dir = cfg.out_dir.join(format!(
        "{}-{tag}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err("clear store dir"))?;
    }
    std::fs::create_dir_all(&dir).map_err(err("create store dir"))?;
    Ok(dir)
}

/// Quiesce and drop: a background compaction must not outlive its handle
/// and write into a directory the next `open` is reading.
pub fn close(store: MutableIndex) {
    store.quiesce();
    drop(store);
}

impl Scenario for Durable {
    // as for the stream, but a checkpoint comes every 2,048 writes
    // (~0.3 s), so five segments hold several each
    const ROUNDS: usize = 1;
    const SEGMENTS: usize = 5;

    fn setup(cfg: &RunCfg, tally: &mut Tally) -> Res<(Self, Vec<f64>)> {
        let data = data::dataset(cfg.workload, cfg.seed, cfg.smoke);
        let dims = data.points.dims();
        let dir = fresh_dir(cfg, "store")?;
        let idx: Vec<u32> = (0..DURABLE_POINTS.min(data.points.len()) as u32).collect();
        let preload = data.points.select(&idx);

        // The preload is input, not the thing measured: write it with the
        // cheapest fsync policy, then make it durable once.
        let store = MutableIndex::open(
            &dir,
            dims,
            StoreConfig::default().with_fsync(FsyncPolicy::OnCompaction),
        )
        .map_err(err("open"))?;
        // Every compaction is allowed to finish before the next insert, so
        // the directory always holds the same snapshot and the same log
        // tail. Left to race, the split moved with the host's speed, and
        // the reopen time with it: 17 ms for one directory, 30 ms for the
        // next, within 2 ms for five reopens of the same one.
        for i in 0..preload.len() {
            let ok = store.insert(preload.point(i), preload.id(i)).is_ok();
            tally.add(1, u64::from(!ok));
            if store.compacting() {
                store.quiesce();
            }
        }
        store.sync().map_err(err("sync"))?;
        close(store);

        let mut ready = Vec::new();
        let mut store = None;
        for _ in 0..REOPENS {
            drop(store.take());
            let t0 = Instant::now();
            let s =
                MutableIndex::open(&dir, dims, StoreConfig::default()).map_err(err("reopen"))?;
            ready.push(t0.elapsed().as_secs_f64());
            let found = s.stats().live_points;
            tally.add(1, u64::from(found != preload.len()));
            if found != preload.len() {
                return Err(format!(
                    "reopen found {found} points, {} were written",
                    preload.len()
                ));
            }
            store = Some(s);
        }
        let store = store.expect("reopened");

        let (sample, _) = gate::sample_every(&data.queries, GATE_QUERIES);
        let got = store
            .query(&QueryRequest::knn(&sample, data.k))
            .map_err(err("gate query"))?;
        brute_force_gate(
            "reopened store",
            &preload,
            &sample,
            data.k,
            &got.neighbors,
            tally,
        )?;

        let n_writers = host::generator_threads();
        let per_writer =
            (DURABLE_POINTS_PER_SECOND * cfg.round_seconds()).ceil() as usize + DURABLE_WARMUP;
        let writers = (0..n_writers)
            .map(|w| Writer {
                fresh: data::fresh_points(
                    per_writer,
                    dims,
                    (w as u64 + 1) << 40,
                    cfg.seed + w as u64,
                ),
                victims: (w..preload.len())
                    .step_by(n_writers)
                    .map(|i| preload.id(i))
                    .collect(),
                ops: 0,
                inserted: Vec::new(),
                removed: Vec::new(),
            })
            .collect();
        let mut durable = Durable {
            data,
            dir,
            store: Some(store),
            preload,
            writers,
        };
        durable.write_segment(Duration::from_secs(3600), DURABLE_WARMUP, tally);
        Ok((durable, ready))
    }

    fn measure(&mut self, cfg: &RunCfg, tally: &mut Tally) -> Res<Phases> {
        let mut per_s = Vec::new();
        let mut write_us = Vec::new();
        let mut total = 0usize;
        for _ in 0..Self::SEGMENTS {
            let (lat, elapsed) =
                self.write_segment(cfg.slice(1.0, Self::SEGMENTS), usize::MAX, tally);
            total += lat.len();
            per_s.push(lat.len() as f64 / elapsed);
            write_us.push(lat);
        }
        let stats = self.store.as_ref().expect("open").stats();
        Ok(Phases {
            ops_s: per_s,
            ops: total,
            latency_us: write_us,
            detail: vec![
                ("writers", Json::Num(self.writers.len() as f64)),
                ("store_points", Json::Num(self.preload.len() as f64)),
                ("wal_appends", Json::Num(stats.wal_appends as f64)),
                ("wal_fsyncs", Json::Num(stats.wal_fsyncs as f64)),
                (
                    "snapshots_written",
                    Json::Num(stats.snapshots_written as f64),
                ),
                ("compactions", Json::Num(stats.compactions as f64)),
            ],
        })
    }

    /// Sync, drop, reopen: the reopened store must hold exactly the
    /// preload plus every acknowledged insert minus every acknowledged
    /// remove, and answer like brute force over them.
    fn finish(mut self, _cfg: &RunCfg, tally: &mut Tally) -> Res<()> {
        let store = self.store.take().expect("open");
        store.sync().map_err(err("sync"))?;
        close(store);
        let dims = self.preload.dims();
        let removed: HashSet<u64> = self
            .writers
            .iter()
            .flat_map(|w| w.removed.iter().copied())
            .collect();
        let mut live = PointSet::new(dims).map_err(err("dims"))?;
        for i in (0..self.preload.len()).filter(|&i| !removed.contains(&self.preload.id(i))) {
            live.push(self.preload.point(i), self.preload.id(i));
        }
        for w in &self.writers {
            for &i in w
                .inserted
                .iter()
                .filter(|&&i| !removed.contains(&w.fresh.id(i)))
            {
                live.push(w.fresh.point(i), w.fresh.id(i));
            }
        }
        let acknowledged: usize = self
            .writers
            .iter()
            .map(|w| w.inserted.len() + w.removed.len())
            .sum();

        let store =
            MutableIndex::open(&self.dir, dims, StoreConfig::default()).map_err(err("reopen"))?;
        let found = store.stats().live_points;
        let lost = found.abs_diff(live.len()) as u64;
        tally.add(acknowledged as u64, lost);
        if lost > 0 {
            return Err(format!(
                "{found} points after reopen, {} follow from the acknowledged writes",
                live.len()
            ));
        }
        // half the sample asks for live points themselves: each must come
        // back as its own nearest neighbour at distance zero
        let (mut sample, _) = gate::sample_every(&self.data.queries, GATE_QUERIES / 2);
        let (own, _) = gate::sample_every(&live, GATE_QUERIES / 2);
        sample.append(&own).map_err(err("sample"))?;
        let got = store
            .query(&QueryRequest::knn(&sample, self.data.k))
            .map_err(err("final query"))?;
        let gated = brute_force_gate(
            "store after reopen",
            &live,
            &sample,
            self.data.k,
            &got.neighbors,
            tally,
        );
        close(store);
        let _ = std::fs::remove_dir_all(&self.dir);
        gated
    }
}

impl Durable {
    /// Every writer does up to `limit` writes of its own until
    /// `duration` is over. Returns the acknowledged writes' latencies
    /// (µs) and the segment's wall time.
    fn write_segment(
        &mut self,
        duration: Duration,
        limit: usize,
        tally: &mut Tally,
    ) -> (Vec<f64>, f64) {
        let store = self.store.as_ref().expect("open");
        let start = Instant::now();
        let deadline = start + duration;
        let per_writer: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .writers
                .iter_mut()
                .map(|w| s.spawn(move || w.run(store, deadline, limit)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut all = Vec::new();
        for (lat, failed) in per_writer {
            tally.add(lat.len() as u64 + failed, failed);
            all.extend(lat);
        }
        (all, elapsed)
    }
}
