//! The shared experiment driver: distributed build + query on a simulated
//! cluster, with rank-aggregated metrics.

use panda_comm::{run_cluster, ClusterConfig, CommStats, MachineProfile};
use panda_core::build_distributed::build_distributed;
use panda_core::query_distributed::{query_distributed, RemoteStats};
use panda_core::timers::{BuildBreakdown, QueryBreakdown};
use panda_core::{DistConfig, PointSet, QueryConfig, QueryCounters};
use panda_data::scatter;

/// Configuration of one distributed experiment.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Modeled threads per rank.
    pub threads: usize,
    /// Machine profile for the cost model.
    pub profile: MachineProfile,
    /// Construction parameters.
    pub dist: DistConfig,
    /// Query parameters.
    pub query: QueryConfig,
}

impl RunConfig {
    /// Edison-profile run with `ranks` ranks × 24 modeled threads.
    pub fn edison(ranks: usize) -> Self {
        Self {
            ranks,
            threads: 24,
            profile: MachineProfile::EdisonNode,
            dist: DistConfig::default(),
            query: QueryConfig::default(),
        }
    }

    /// KNL-profile run with `ranks` nodes × 68 modeled threads.
    pub fn knl(ranks: usize) -> Self {
        Self {
            ranks,
            threads: 68,
            profile: MachineProfile::KnlNode,
            dist: DistConfig::default(),
            query: QueryConfig {
                k: 10,
                ..QueryConfig::default()
            },
        }
    }

    /// Total modeled cores.
    pub fn cores(&self) -> usize {
        self.ranks * self.threads
    }
}

/// Aggregated outcome of a distributed experiment.
#[derive(Clone, Debug)]
pub struct DistMetrics {
    /// Virtual seconds for construction (makespan over ranks).
    pub construct_s: f64,
    /// Virtual seconds for querying, software-pipelined model (makespan).
    pub query_s: f64,
    /// Virtual seconds for querying without overlap (makespan).
    pub query_sync_s: f64,
    /// Construction breakdown summed over ranks (use for percentages).
    pub build_breakdown: BuildBreakdown,
    /// Query breakdown summed over ranks (use for percentages).
    pub query_breakdown: QueryBreakdown,
    /// Communication counters summed over ranks (whole run).
    pub comm: CommStats,
    /// Communication counters for the query phase only (summed).
    pub comm_query: CommStats,
    /// Remote-query statistics summed over ranks.
    pub remote: RemoteStats,
    /// Query traversal counters summed over ranks.
    pub counters: QueryCounters,
    /// Points indexed / queries answered.
    pub n_points: usize,
    /// Queries answered.
    pub n_queries: usize,
    /// Max over ranks of (local points / mean local points) — load balance.
    pub max_load_imbalance: f64,
}

/// Run one distributed experiment: scatter → build → query, aggregate.
///
/// When `verify_against` is `Some(k)`, a sample of results per rank is
/// recomputed by brute force and asserted equal (cheap confidence check
/// wired into every harness run at small scale).
pub fn run_distributed(
    all_points: &PointSet,
    all_queries: &PointSet,
    cfg: &RunConfig,
    verify: bool,
) -> DistMetrics {
    let mut dist = cfg.dist;
    dist.local.threads = cfg.threads;
    dist.local.parallel = false;
    let qcfg = cfg.query;
    let cost = cfg.profile.cost_model().with_threads(cfg.threads);
    let cluster = ClusterConfig::new(cfg.ranks).with_cost(cost);

    struct RankResult {
        t_build: f64,
        t_query_sync: f64,
        build_breakdown: BuildBreakdown,
        query_breakdown: QueryBreakdown,
        remote: RemoteStats,
        counters: QueryCounters,
        comm_query: CommStats,
        local_points: usize,
        sample: Vec<(Vec<f32>, Vec<f32>)>, // (query, dist²s) for verification
    }

    let outcomes = run_cluster(&cluster, |comm| {
        let mine = scatter(all_points, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &dist).expect("distributed build");
        comm.barrier();
        let t_build = comm.now();
        let stats_at_build = comm.stats();
        let myq = scatter(all_queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &qcfg).expect("distributed query");
        comm.barrier();
        let comm_query = comm.stats().since(&stats_at_build);
        let t_query_sync = comm.now() - t_build;
        let sample = if verify {
            (0..myq.len().min(5))
                .map(|i| {
                    (
                        myq.point(i).to_vec(),
                        res.neighbors.row(i).iter().map(|n| n.dist_sq).collect(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        RankResult {
            t_build,
            t_query_sync,
            build_breakdown: tree.breakdown,
            query_breakdown: res.breakdown,
            remote: res.remote,
            counters: res.counters,
            comm_query,
            local_points: tree.points.len(),
            sample,
        }
    });

    if verify {
        for o in &outcomes {
            for (q, dists) in &o.result.sample {
                let expect = brute_dists(all_points, q, qcfg.k);
                assert_eq!(dists, &expect, "verification failed at rank {}", o.rank);
            }
        }
    }

    let construct_s = outcomes
        .iter()
        .map(|o| o.result.t_build)
        .fold(0.0, f64::max);
    let query_sync_s = outcomes
        .iter()
        .map(|o| o.result.t_query_sync)
        .fold(0.0, f64::max);
    let query_s = outcomes
        .iter()
        .map(|o| o.result.query_breakdown.total_pipelined())
        .fold(0.0, f64::max);

    let mut build_breakdown = BuildBreakdown::default();
    let mut query_breakdown = QueryBreakdown::default();
    let mut remote = RemoteStats::default();
    let mut counters = QueryCounters::default();
    let mut comm_query = CommStats::new();
    for o in &outcomes {
        build_breakdown.add(&o.result.build_breakdown);
        query_breakdown.add(&o.result.query_breakdown);
        remote.add(&o.result.remote);
        counters.add(&o.result.counters);
        comm_query.merge(&o.result.comm_query);
    }
    let comm = panda_comm::total_stats(&outcomes);

    let mean_load = all_points.len() as f64 / cfg.ranks as f64;
    let max_load_imbalance = outcomes
        .iter()
        .map(|o| o.result.local_points as f64 / mean_load.max(1.0))
        .fold(0.0, f64::max);

    DistMetrics {
        construct_s,
        query_s,
        query_sync_s,
        build_breakdown,
        query_breakdown,
        comm,
        comm_query,
        remote,
        counters,
        n_points: all_points.len(),
        n_queries: all_queries.len(),
        max_load_imbalance,
    }
}

/// Brute-force distances for verification.
pub fn brute_dists(ps: &PointSet, q: &[f32], k: usize) -> Vec<f32> {
    let mut heap = panda_core::KnnHeap::new(k);
    for i in 0..ps.len() {
        heap.offer(ps.dist_sq_to(q, i), ps.id(i));
    }
    heap.into_sorted().iter().map(|n| n.dist_sq).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_data::uniform;

    #[test]
    fn end_to_end_metrics_with_verification() {
        let points = uniform::generate(3000, 3, 1.0, 1);
        let queries = panda_data::queries_from(&points, 80, 0.01, 2);
        let cfg = RunConfig::edison(4);
        let m = run_distributed(&points, &queries, &cfg, true);
        assert!(m.construct_s > 0.0);
        assert!(m.query_s > 0.0);
        assert!(m.query_s <= m.query_sync_s + 1e-9);
        assert_eq!(m.remote.owned_queries, 80);
        assert!(m.max_load_imbalance >= 1.0 && m.max_load_imbalance < 2.0);
        assert!(m.comm.total_bytes() > 0);
        assert_eq!(m.n_points, 3000);
    }

    #[test]
    fn more_ranks_speed_up_construction_and_query() {
        let points = uniform::generate(60_000, 3, 1.0, 3);
        let queries = panda_data::queries_from(&points, 2000, 0.01, 4);
        let m2 = run_distributed(&points, &queries, &RunConfig::edison(2), false);
        let m8 = run_distributed(&points, &queries, &RunConfig::edison(8), false);
        assert!(
            m8.construct_s < m2.construct_s,
            "construction {} vs {}",
            m8.construct_s,
            m2.construct_s
        );
        assert!(
            m8.query_s < m2.query_s,
            "query {} vs {}",
            m8.query_s,
            m2.query_s
        );
    }
}
