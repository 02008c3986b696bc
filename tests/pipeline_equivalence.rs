//! The SPMD query driver's own choices must never change results: the
//! pipeline step size and the rank count are performance knobs only.
//! (Every engine always traverses with the exact bound and routes with
//! the per-rank bounding boxes; the paper's scalar bound is an ablation
//! of the tree alone, checked in `local_tree/query.rs`.)

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::QueryConfig;
use panda::data::{cosmology, queries_from, scatter};
use panda::prelude::*;

fn run_with(cfg: QueryConfig, ranks: usize, seed: u64) -> Vec<Vec<f32>> {
    let all = cosmology::generate(3000, &Default::default(), seed);
    let queries = queries_from(&all, 64, 0.01, seed + 1);
    let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &cfg).expect("query");
        (0..myq.len())
            .map(|i| {
                (
                    myq.id(i),
                    res.neighbors
                        .row(i)
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect::<Vec<f32>>(),
                )
            })
            .collect::<Vec<_>>()
    });
    // reassemble in global query order
    let mut by_id: Vec<(u64, Vec<f32>)> = out.into_iter().flat_map(|o| o.result).collect();
    by_id.sort_by_key(|(id, _)| *id);
    by_id.into_iter().map(|(_, d)| d).collect()
}

#[test]
fn batch_size_is_result_invariant() {
    let base = run_with(QueryConfig::with_k(5), 4, 1);
    for batch_size in [1usize, 7, 64, 1000] {
        let cfg = QueryConfig {
            batch_size,
            ..QueryConfig::with_k(5)
        };
        assert_eq!(run_with(cfg, 4, 1), base, "batch={batch_size}");
    }
}

#[test]
fn rank_count_is_result_invariant() {
    let base = run_with(QueryConfig::with_k(5), 1, 4);
    for ranks in [2usize, 3, 4, 8] {
        let got = run_with(QueryConfig::with_k(5), ranks, 4);
        assert_eq!(got, base, "ranks={ranks}");
    }
}
