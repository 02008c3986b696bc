//! Figure 7 — PANDA vs FLANN vs ANN on the thin datasets.
//!
//! Paper: (a) construction — PANDA 2.2× / 2.6× faster than FLANN / ANN
//! at one thread, 39× / 59× at 24 threads; (b) query at 1 thread — up to
//! 48× vs FLANN and 3× vs ANN, with ~2× / 12× fewer node traversals;
//! (c) query at 24 threads — up to 22× vs FLANN (ANN is not
//! parallelizable).
//!
//! Reproduction: real single-thread wall-clock for all three
//! implementations (this is an apples-to-apples Rust comparison), plus
//! the traversal-count ratios (hardware-independent), plus modeled
//! 24-thread numbers under the Edison profile.

use std::time::Instant;

use panda_baselines::{AnnLikeTree, FlannLikeTree, UNPACKED_DIST_PENALTY};
use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_comm::MachineProfile;
use panda_core::engine::{NnBackend, QueryRequest};
use panda_core::knn::KnnIndex;
use panda_core::{QueryCounters, TreeConfig};
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    // Default one decade above the global harness scale: the asymptotic
    // differences the paper measures need ≥ a few hundred k points.
    let scale = args.f64("scale", 1e-2);
    let seed = args.seed();
    let cost = MachineProfile::EdisonNode.cost_model();

    for ds in [
        Dataset::CosmoThin,
        Dataset::PlasmaThin,
        Dataset::DayabayThin,
    ] {
        let row = ds.paper_row();
        let points = ds.generate(scale, seed);
        let n_queries = ((points.len() as f64 * row.query_fraction) as usize).clamp(256, 100_000);
        let queries = queries_from(&points, n_queries, 0.01, seed + 1);
        println!(
            "\nFig 7 — {} ({} pts, {} queries, k={})",
            row.name,
            points.len(),
            queries.len(),
            row.k
        );

        // --- real single-threaded construction (warm pass first so page
        //     faults and allocator growth don't pollute the comparison) --
        let _warm = FlannLikeTree::build(&points).expect("warm");
        let t0 = Instant::now();
        let flann = FlannLikeTree::build(&points).expect("flann build");
        let t_flann_build = t0.elapsed().as_secs_f64();
        let _warm = AnnLikeTree::build(&points).expect("warm");
        let t0 = Instant::now();
        let ann = AnnLikeTree::build(&points).expect("ann build");
        let t_ann_build = t0.elapsed().as_secs_f64();
        let panda_cfg = TreeConfig {
            threads: 24,
            ..TreeConfig::default()
        };
        let _warm = KnnIndex::build(&points, &panda_cfg).expect("warm");
        let t0 = Instant::now();
        let panda = KnnIndex::build(&points, &panda_cfg).expect("panda build");
        let t_panda_build = t0.elapsed().as_secs_f64();

        // modeled 24-thread PANDA construction: measured 1T wall time /
        // modeled speedup (the modeled thread pool applied to real work)
        let model = panda.tree();
        let speedup_24 = model.modeled_build_at(&cost, 1, false).total()
            / model.modeled_build_at(&cost, 24, false).total();
        let t_panda_build_24 = t_panda_build / speedup_24;

        let mut t = Table::new(&["Training", "seconds", "vs PANDA-1", "vs PANDA-24"]);
        for (name, secs) in [
            ("FLANN-like (1T)", t_flann_build),
            ("ANN-like (1T)", t_ann_build),
            ("PANDA-1", t_panda_build),
            ("PANDA-24 (model)", t_panda_build_24),
        ] {
            t.row(&[
                name.to_string(),
                f(secs, 3),
                f(secs / t_panda_build, 2),
                f(secs / t_panda_build_24, 1),
            ]);
        }
        t.print();
        println!(
            "paper: PANDA 2.2x/2.6x faster @1T; 39x/59x @24T | depths: flann {} ann {} panda {}",
            flann.stats().max_depth,
            ann.stats().max_depth,
            panda.tree().stats().max_depth
        );

        // --- real single-threaded querying (warmed) ---------------------
        // One request, one loop: every engine sits behind `NnBackend`.
        // Pinned to one inline block, or PANDA's batch would fan out
        // over the pool and the PANDA-1 row would not be one thread.
        let req = QueryRequest::knn(&queries, row.k).with_parallel(false);
        let backends: [&dyn NnBackend; 3] = [&flann, &ann, &panda];
        let mut measured = Vec::with_capacity(backends.len());
        for backend in backends {
            let _ = backend.query(&req).expect("warm");
            let t0 = Instant::now();
            let res = backend.query(&req).expect("query");
            measured.push((t0.elapsed().as_secs_f64(), res.counters));
        }
        let (t_flann_q, c_flann) = measured[0];
        let (t_ann_q, c_ann) = measured[1];
        let (t_panda_q, c_panda) = measured[2];

        let q24 = |counters: &QueryCounters, penalty: f64| {
            let cpu = counters.cpu_seconds(&cost.ops, points.dims()) * penalty;
            let mem = counters.mem_bytes(points.dims());
            cost.thread.parallel_time_at(cpu, mem, 24, false)
        };
        let t_flann_q24 = q24(&c_flann, UNPACKED_DIST_PENALTY);
        let t_panda_q24 = q24(&c_panda, 1.0);

        let mut t = Table::new(&["Classification", "seconds", "node visits", "vs PANDA"]);
        for (name, secs, visits) in [
            ("FLANN-like (1T)", t_flann_q, c_flann.nodes_visited),
            ("ANN-like (1T)", t_ann_q, c_ann.nodes_visited),
            ("PANDA-1", t_panda_q, c_panda.nodes_visited),
        ] {
            t.row(&[
                name.to_string(),
                f(secs, 3),
                visits.to_string(),
                f(secs / t_panda_q, 2),
            ]);
        }
        t.print();
        println!(
            "traversal ratio: flann/panda {:.2}, ann/panda {:.2} (paper: ~2x and ~12x on cosmo)",
            c_flann.nodes_visited as f64 / c_panda.nodes_visited as f64,
            c_ann.nodes_visited as f64 / c_panda.nodes_visited as f64,
        );
        println!(
            "24T model: FLANN-like {:.4}s vs PANDA {:.4}s -> {:.1}x (paper: up to 22x)",
            t_flann_q24,
            t_panda_q24,
            t_flann_q24 / t_panda_q24
        );
    }
}
