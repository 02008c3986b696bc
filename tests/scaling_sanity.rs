//! Sanity invariants of the simulated-time results that the figure
//! harnesses rely on: determinism, monotonicity, bounded speedups, and
//! breakdown accounting.

use panda::comm::{run_cluster, ClusterConfig, MachineProfile};
use panda::core::QueryConfig;
use panda::data::{cosmology, queries_from, scatter};
use panda::prelude::*;

fn run_times(ranks: usize, n: usize, seed: u64) -> (f64, f64) {
    let all = cosmology::generate(n, &Default::default(), seed);
    let queries = queries_from(&all, n / 10, 0.01, seed + 1);
    let cluster = ClusterConfig::new(ranks).with_cost(MachineProfile::EdisonNode.cost_model());
    let out = run_cluster(&cluster, |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        comm.barrier();
        let t_build = comm.now();
        let myq = scatter(&queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).expect("query");
        comm.barrier();
        let t_total = comm.now();
        (t_build, t_total - t_build, res.breakdown)
    });
    let build = out.iter().map(|o| o.result.0).fold(0.0, f64::max);
    let query = out.iter().map(|o| o.result.1).fold(0.0, f64::max);
    (build, query)
}

#[test]
fn virtual_times_are_deterministic() {
    let a = run_times(4, 20_000, 1);
    let b = run_times(4, 20_000, 1);
    assert_eq!(a, b, "same input must give bit-identical virtual times");
}

#[test]
fn strong_scaling_speedup_is_positive_and_bounded() {
    // 4 → 32 ranks (8×) at a per-rank size where work, not collective
    // latency, dominates (like the paper's runs: ≥ 10k points/rank here,
    // 33M/rank there). Construction scales sub-linearly because the
    // global tree gains levels (the paper saw 2.7–4.3× on 8× cores for
    // the same reason); querying scales closer to ideal.
    let (c1, q1) = run_times(4, 500_000, 2);
    let (c8, q8) = run_times(32, 500_000, 2);
    let cs = c1 / c8;
    let qs = q1 / q8;
    assert!(cs > 1.5, "construction speedup {cs}");
    assert!(qs > 2.5, "query speedup {qs}");
    // no super-linear magic: 8× more ranks can't beat 8× + margin
    assert!(cs < 10.0, "construction speedup {cs}");
    assert!(qs < 10.0, "query speedup {qs}");
}

#[test]
fn query_scales_better_than_construction() {
    // The paper's core multinode observation (§V-A1): construction must
    // move the dataset; querying only moves per-query traffic.
    let (c1, q1) = run_times(4, 500_000, 3);
    let (c2, q2) = run_times(32, 500_000, 3);
    let cs = c1 / c2;
    let qs = q1 / q2;
    assert!(
        qs > cs * 0.95,
        "query speedup {qs} should not trail construction speedup {cs}"
    );
}

#[test]
fn breakdown_accounts_for_total() {
    let all = cosmology::generate(20_000, &Default::default(), 4);
    let queries = queries_from(&all, 2000, 0.01, 5);
    let out = run_cluster(&ClusterConfig::new(4), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).expect("query");
        (tree.breakdown, res.breakdown)
    });
    for o in &out {
        let b = &o.result.0;
        let pct: f64 = b.percentages().iter().sum();
        assert!((pct - 100.0).abs() < 1e-6, "build breakdown sums to {pct}%");
        let q = &o.result.1;
        assert!(q.total_pipelined() <= q.total_synchronous() + 1e-12);
        assert!(q.comm_non_overlapped() <= q.comm_total + 1e-9);
        // step log must cover the whole batched phase
        assert!(!q.steps.is_empty());
    }
}

#[test]
fn modeled_thread_scaling_bands() {
    // Fig. 6 bands enforced as regression tests: construction 17–20×@24T,
    // query 8.8–12.2×@24T on 3-D data (Edison model).
    let points = cosmology::generate(30_000, &Default::default(), 6);
    let queries = queries_from(&points, 3000, 0.01, 7);
    let cost = MachineProfile::EdisonNode.cost_model();
    let index = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
    let counters = NnBackend::query(&index, &QueryRequest::knn(&queries, 5))
        .unwrap()
        .counters;

    let c1 = index.tree().modeled_build_at(&cost, 1, false).total();
    let c24 = index.tree().modeled_build_at(&cost, 24, false).total();
    let cs = c1 / c24;
    assert!(
        (14.0..=24.0).contains(&cs),
        "modeled construction speedup {cs}"
    );

    let q1 = index.modeled_query_time_at(&counters, &cost, 1, false);
    let q24 = index.modeled_query_time_at(&counters, &cost, 24, false);
    let qs = q1 / q24;
    assert!((7.0..=14.0).contains(&qs), "modeled query speedup {qs}");

    let q24smt = index.modeled_query_time_at(&counters, &cost, 24, true);
    let smt_gain = q24 / q24smt;
    assert!(
        (1.2..=1.8).contains(&smt_gain),
        "modeled SMT gain {smt_gain}"
    );
}

#[test]
fn communication_grows_with_ranks() {
    let all = cosmology::generate(20_000, &Default::default(), 8);
    let queries = queries_from(&all, 1000, 0.01, 9);
    let mut totals = Vec::new();
    for ranks in [2usize, 8] {
        let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
            let myq = scatter(&queries, comm.rank(), comm.size());
            let _ = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).expect("q");
        });
        totals.push(panda::comm::total_stats(&out).total_bytes());
    }
    assert!(
        totals[1] > totals[0],
        "more ranks → more traffic: {totals:?}"
    );
}
