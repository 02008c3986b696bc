//! The benchmark's fixed vocabulary: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the root of the
//! repository states the same tables for the driver; a unit test keeps
//! the two from drifting apart.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen before a change is a regression. Every workload
/// reports every one; what `ready_s`, `ops_s` and the latencies mean on
/// a given workload is in the README's table. Every bound sits at the
/// contract's ceiling: ten-seed spreads on the recorded host reach 15%
/// on the worst workload even with the best-segment rule (`stats`), and
/// a bound below the spread rejects changes for the host's mood.
pub const END_TO_END: [(MetricSpec, f64); 6] = [
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("peak_rss_mb", "MB", Better::Lower), 0.25),
    (m("ready_s", "s", Better::Lower), 0.25),
    (m("ops_s", "ops/s", Better::Higher), 0.25),
    (m("p50_us", "us", Better::Lower), 0.25),
    (m("p95_us", "us", Better::Lower), 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

/// Per-layer metrics of the traced run, bottom of the stack first. No
/// bounds: they explain a movement, they do not gate one.
pub const PER_LAYER: [MetricSpec; 71] = [
    // the ladder: one query through each layer, on this workload's data
    m("rung.tree_us", "us", Lo),
    m("rung.knn_us", "us", Lo),
    m("rung.knn_par_us", "us", Lo),
    m("rung.shard1_us", "us", Lo),
    m("rung.shard2_us", "us", Lo),
    m("rung.direct1_us", "us", Lo),
    m("rung.service1_us", "us", Lo),
    // core kernel (local_tree::PackedLeaves::scan_and_offer)
    m("kernel.points_per_s.d3", "points/s", Hi),
    m("kernel.points_per_s.d10", "points/s", Hi),
    m("kernel.points_scanned_per_query", "count", Lo),
    m("kernel.blocks_pruned_frac", "ratio", Hi),
    m("kernel.est_share", "ratio", Lo),
    // core::local_tree
    m("tree.build_serial_s", "s", Lo),
    m("tree.query_us", "us", Lo),
    m("tree.nodes_visited_per_query", "count", Lo),
    m("tree.leaves_scanned_per_query", "count", Lo),
    m("tree.heap_ops_per_query", "count", Lo),
    m("tree.memory_bytes", "bytes", Lo),
    // core::knn (batch engine)
    m("knn.engine_overhead_frac", "ratio", Lo),
    m("knn.parallel_speedup", "ratio", Hi),
    m("knn.build_parallel_speedup", "ratio", Hi),
    m("knn.morton_gain", "ratio", Hi),
    m("knn.call_overhead_us", "us", Lo),
    // core::engine::sharded
    m("shard.build_over_single", "ratio", Lo),
    m("shard.batch_qps.s1", "queries/s", Hi),
    m("shard.scaling_s2_over_s1", "ratio", Hi),
    m("shard.overhead_s1_frac", "ratio", Lo),
    m("shard.round_us", "us", Lo),
    m("shard.rounds_per_batch", "count", Lo),
    m("shard.light_p99_us", "us", Lo),
    m("shard.sat_qps", "queries/s", Hi),
    // comm
    m("comm.collectives_per_round", "count", Lo),
    m("comm.bytes_per_query", "bytes", Lo),
    m("comm.recv_retries", "count", Lo),
    // service
    m("service.ticket_overhead_us", "us", Lo),
    m("service.submit_us", "us", Lo),
    m("service.mean_batch.light", "queries", Hi),
    m("service.mean_batch.sat", "queries", Hi),
    m("service.batches_per_s.sat", "1/s", Lo),
    m("service.queue_depth_max", "queries", Lo),
    m("service.shed", "count", Lo),
    m("service.sat_over_direct", "ratio", Hi),
    m("service.p50_us.r8000", "us", Lo),
    m("service.p99_us.r8000", "us", Lo),
    m("service.max_rate_ok", "1/s", Hi),
    // store (index.rs)
    m("store.read_overhead_clean_us", "us", Lo),
    m("store.read_overhead_logged_us", "us", Lo),
    m("store.insert_us", "us", Lo),
    m("store.remove_us", "us", Lo),
    m("store.compactions", "count", Lo),
    m("store.compaction_p50_ms", "ms", Lo),
    m("store.write_stall_max_us", "us", Lo),
    // store::wal + snapshot
    m("wal.append_us", "us", Lo),
    m("wal.fsync_us", "us", Lo),
    m("wal.fsyncs_per_write", "ratio", Lo),
    m("wal.writers2_over_writers1", "ratio", Hi),
    m("wal.dir_bytes_per_user_byte", "ratio", Lo),
    m("wal.replay_records_per_s", "records/s", Hi),
    m("store.snapshot_load_s", "s", Lo),
    m("store.snapshots_written", "count", Lo),
    // obs, the generator and the data
    m("obs.trace_overhead_frac", "ratio", Lo),
    m("obs.telemetry_snapshot_us", "us", Lo),
    m("gen.late_p99_us", "us", Lo),
    m("data.gen_s", "s", Lo),
    // each layer's own share of one query (rung minus the rung below)
    m("self.tree_us", "us", Lo),
    m("self.knn_us", "us", Lo),
    m("self.shard1_us", "us", Lo),
    m("self.direct1_us", "us", Lo),
    m("self.service1_us", "us", Lo),
    // the traced run's own footprint
    m("trace.spans", "count", Lo),
    m("trace.peak_rss_mb", "MB", Lo),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchCosmo3d,
    BatchDayabay10d,
    ServeHotspot,
    Sharded2,
    StoreStream,
    StoreDurable,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BatchCosmo3d,
        Workload::BatchDayabay10d,
        Workload::ServeHotspot,
        Workload::Sharded2,
        Workload::StoreStream,
        Workload::StoreDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCosmo3d => "batch_cosmo3d",
            Workload::BatchDayabay10d => "batch_dayabay10d",
            Workload::ServeHotspot => "serve_hotspot",
            Workload::Sharded2 => "sharded2",
            Workload::StoreStream => "store_stream",
            Workload::StoreDurable => "store_durable",
        }
    }

    /// Whether the driver runs and gates the workload (it is then listed in
    /// `BENCHMARK.json`). `store_durable` is in the suite, the baseline
    /// and `--compare`, but not gated: it measures this sandbox's disk,
    /// and the disk's own speed moved write p50 from 255 µs to 135 µs
    /// between two sets of runs of one binary twenty minutes apart —
    /// over three times the largest bound the contract allows.
    pub fn gated(self) -> bool {
        self != Workload::StoreDurable
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the suite: the layer it isolates and the
    /// workload that is its mirror.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchCosmo3d => "clustered 3-D all-points k=5 self-query in one session call, the paper's headline use: traversal-bound, so tree and batch-engine work shows and kernel work barely does",
            Workload::BatchDayabay10d => "co-located 10-D records, jittered k=10 queries: kernel-bound (about 14,000 points scanned per query), the mirror of batch_cosmo3d",
            Workload::ServeHotspot => "single-query k=32 requests around 256 hot spots through a default QueryService over one serial tree: isolates service queueing, flush policy and coalescing",
            Workload::Sharded2 => "the same points and traffic on a 2-shard ShardedIndex, batches direct and single queries through a service: isolates engine::sharded and comm",
            Workload::StoreStream => "in-memory MutableIndex under one closed loop of 80% k=16 reads, 10% inserts, 10% removes across compactions: a read gain that costs writes or compaction shows",
            Workload::StoreDurable => "durable MutableIndex, fsync per write, two writers alternating insert and remove at constant size, then reopen and verify: isolates WAL, snapshot and recovery on this sandbox's disk",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field = |v: &Json, key: &str| match v.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("missing {key} in {v}"),
        };

        let workloads = list("workloads");
        let gated: Vec<Workload> = Workload::ALL.into_iter().filter(|w| w.gated()).collect();
        assert_eq!(workloads.len(), gated.len());
        for (w, j) in gated.iter().zip(&workloads) {
            assert_eq!(field(j, "name"), w.name());
            assert_eq!(field(j, "why"), w.why());
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(*w));
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for ((spec, bound), j) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(field(j, "name"), spec.name);
            assert_eq!(field(j, "unit"), spec.unit);
            assert_eq!(field(j, "better"), spec.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(*bound));
            assert!(*bound <= 0.25);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (spec, j) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(field(j, "name"), spec.name);
            assert_eq!(field(j, "unit"), spec.unit);
            assert_eq!(field(j, "better"), spec.better.as_str());
        }

        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("benchmark")]))
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|(s, _)| s).chain(PER_LAYER.iter());
        for spec in all {
            assert!(ok_name(spec.name), "{}", spec.name);
            assert!(ok_unit(spec.unit), "{} unit {}", spec.name, spec.unit);
            assert!(seen.insert(spec.name), "{} used twice", spec.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()));
            assert!(seen.insert(w.name()), "{} used twice", w.name());
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
