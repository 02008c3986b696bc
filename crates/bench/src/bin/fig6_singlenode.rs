//! Figure 6 — single-node thread scaling of construction and querying.
//!
//! Paper (24-core Edison node, *thin* datasets): construction scales
//! 17–20× on 24 threads (22.4× with SMT); querying is memory-bound and
//! reaches only 8.8–12.2× (another 1.5–1.7× from SMT on the 3-D
//! datasets; 1.2× on 10-D dayabay which has more compute per byte).
//!
//! Reproduction: the tree is built and queried **for real** (counting
//! every node visit and distance evaluation); the thread sweep applies
//! the Edison thread model to those counters. A real wall-clock
//! validation on this host's cores is printed at the end.

use std::time::Instant;

use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_comm::MachineProfile;
use panda_core::engine::QueryRequest;
use panda_core::knn::KnnIndex;
use panda_core::TreeConfig;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let cost = MachineProfile::EdisonNode.cost_model();

    let threads = [1usize, 2, 4, 8, 12, 16, 20, 24];

    for ds in [
        Dataset::CosmoThin,
        Dataset::PlasmaThin,
        Dataset::DayabayThin,
    ] {
        let row = ds.paper_row();
        let points = ds.generate(scale, seed);
        let n_queries = ((points.len() as f64 * row.query_fraction) as usize).max(256);
        let queries = queries_from(&points, n_queries, 0.01, seed + 1);

        let cfg = TreeConfig {
            threads: 24,
            ..TreeConfig::default()
        };
        let index = KnnIndex::build(&points, &cfg).expect("build");
        let counters = index
            .query_session(&QueryRequest::knn(&queries, row.k))
            .expect("query")
            .counters;

        println!(
            "\nFig 6 — {} ({} pts, {} queries, k={})",
            row.name,
            points.len(),
            queries.len(),
            row.k
        );
        let mut table = Table::new(&["Threads", "Constr speedup", "Query speedup"]);
        let c1 = index.tree().modeled_build_at(&cost, 1, false).total();
        let q1 = index.modeled_query_time_at(&counters, &cost, 1, false);
        for &t in &threads {
            let ct = index.tree().modeled_build_at(&cost, t, false).total();
            let qt = index.modeled_query_time_at(&counters, &cost, t, false);
            table.row(&[t.to_string(), f(c1 / ct, 1), f(q1 / qt, 1)]);
        }
        // SMT row (48 logical threads on 24 cores)
        let ct = index.tree().modeled_build_at(&cost, 24, true).total();
        let qt = index.modeled_query_time_at(&counters, &cost, 24, true);
        table.row(&["24+SMT".into(), f(c1 / ct, 1), f(q1 / qt, 1)]);
        table.print();
        println!(
            "paper @24T: construction 17-20x (18.3-22.4x SMT); query 8.8-12.2x (12.9-16.2x SMT)"
        );
    }

    // Real-hardware validation on this host (rayon, all cores).
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host_threads >= 2 && !args.switch("no-validate") {
        println!("\nvalidation: real wall-clock on this host ({host_threads} cores)");
        let points = Dataset::CosmoThin.generate(scale.max(4e-3), seed);
        let queries = queries_from(&points, (points.len() / 10).max(256), 0.01, seed + 1);
        // warm both paths (page faults, allocator, rayon pool start-up)
        let _ = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
        let t0 = Instant::now();
        let seq = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
        let t_build_1 = t0.elapsed().as_secs_f64();
        let par_cfg = TreeConfig::default()
            .with_parallel(true)
            .with_threads(host_threads);
        let _ = KnnIndex::build(&points, &par_cfg).unwrap();
        let t0 = Instant::now();
        let par = KnnIndex::build(&points, &par_cfg).unwrap();
        let t_build_p = t0.elapsed().as_secs_f64();
        // the 1T side runs the batch as one inline block; left to itself
        // the engine would fan it out over the pool
        let serial = QueryRequest::knn(&queries, 5).with_parallel(false);
        let _ = seq.query_session(&serial).unwrap();
        let t0 = Instant::now();
        let _ = seq.query_session(&serial).unwrap();
        let t_q1 = t0.elapsed().as_secs_f64();
        let _ = par.query_session(&QueryRequest::knn(&queries, 5)).unwrap();
        let t0 = Instant::now();
        let _ = par.query_session(&QueryRequest::knn(&queries, 5)).unwrap();
        let t_qp = t0.elapsed().as_secs_f64();
        println!(
            "  construction: 1T {:.3}s vs {host_threads}T {:.3}s -> {:.2}x",
            t_build_1,
            t_build_p,
            t_build_1 / t_build_p
        );
        println!(
            "  querying:     1T {:.3}s vs {host_threads}T {:.3}s -> {:.2}x",
            t_q1,
            t_qp,
            t_q1 / t_qp
        );
    }
}
