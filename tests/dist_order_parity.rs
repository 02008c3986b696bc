//! Distributed execution-order parity: the default order, `Morton` and
//! `Input`, under skewed query distributions.
//!
//! `QueryOrder::Morton` — the default — on the distributed path re-sorts
//! each rank's *owned* queries along a Z-order curve after routing
//! (unless they already arrive coherent). That is locality only: results
//! must stay bit-identical to input order (same ids, same distances, same
//! CSR layout) and the remote traffic must never increase — per-query
//! bounds are computed independently, so the fan-out is the same set of
//! (query, rank) pairs in both orders.

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::{KnnHeap, QueryConfig};
use panda::data::scatter;
use panda::prelude::*;

fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
    let mut rng = panda::core::rng::SplitRng::new(seed);
    PointSet::from_coords(
        dims,
        (0..n * dims)
            .map(|_| (rng.next_f64() * 10.0) as f32)
            .collect(),
    )
    .unwrap()
}

/// Rows as `(id, distance bits)`, in submission order.
fn rows(table: &NeighborTable) -> Vec<Vec<(u64, u32)>> {
    table
        .iter()
        .map(|row| row.iter().map(|n| (n.id, n.dist_sq.to_bits())).collect())
        .collect()
}

/// One collective query per order; returns, per rank, the rows
/// (ids + distances) in submission order plus the remote-pair count.
type RankRows = (Vec<Vec<(u64, f32)>>, u64);

fn run_orders<F>(
    all: &PointSet,
    queries_for_rank: F,
    ranks: usize,
    k: usize,
    batch_size: usize,
) -> (Vec<RankRows>, Vec<RankRows>)
where
    F: Fn(usize, usize) -> PointSet + Send + Sync + Clone + 'static,
{
    let run = |order: QueryOrder| {
        let all = all.clone();
        let queries_for_rank = queries_for_rank.clone();
        run_cluster(&ClusterConfig::new(ranks), move |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
            let myq = queries_for_rank(comm.rank(), comm.size());
            let cfg = QueryConfig {
                k,
                batch_size,
                order,
                ..QueryConfig::default()
            };
            let res = query_distributed(comm, &tree, &myq, &cfg).expect("query");
            let rows: Vec<Vec<(u64, f32)>> = res
                .neighbors
                .iter()
                .map(|row| row.iter().map(|n| (n.id, n.dist_sq)).collect())
                .collect();
            (rows, res.remote.remote_pairs_sent)
        })
        .into_iter()
        .map(|o| o.result)
        .collect::<Vec<RankRows>>()
    };
    (run(QueryOrder::Input), run(QueryOrder::Morton))
}

fn assert_parity(input: &[RankRows], morton: &[RankRows]) {
    let mut pairs_input = 0u64;
    let mut pairs_morton = 0u64;
    for (rank, (i, m)) in input.iter().zip(morton).enumerate() {
        assert_eq!(i.0, m.0, "rank {rank}: Morton changed results");
        pairs_input += i.1;
        pairs_morton += m.1;
    }
    assert!(
        pairs_morton <= pairs_input,
        "Morton increased remote traffic: {pairs_morton} > {pairs_input}"
    );
}

/// Extreme submission skew: every query enters at rank 0; the other
/// ranks submit nothing (but still own and serve routed queries).
#[test]
fn all_queries_submitted_on_one_rank() {
    let all = random_ps(2400, 3, 70);
    let queries = random_ps(120, 3, 71);
    let (input, morton) = run_orders(
        &all,
        move |rank, _| {
            if rank == 0 {
                queries.clone()
            } else {
                PointSet::new(3).unwrap()
            }
        },
        4,
        5,
        16,
    );
    assert_parity(&input, &morton);
    // the non-submitting ranks really got zero rows back
    for (rank, (rows, _)) in input.iter().enumerate().skip(1) {
        assert!(rows.is_empty(), "rank {rank} expected no results");
    }
}

/// Ownership skew: all queries live in one spatial corner, so one rank
/// owns everything and the rest run empty pipeline steps.
#[test]
fn all_queries_owned_by_one_corner_rank() {
    let all = random_ps(2000, 2, 72);
    // queries clustered tightly near the origin corner
    let mut rng = panda::core::rng::SplitRng::new(73);
    let queries = PointSet::from_coords(
        2,
        (0..200)
            .map(|_| (rng.next_f64() * 0.4) as f32)
            .collect::<Vec<f32>>(),
    )
    .unwrap();
    let (input, morton) = run_orders(
        &all,
        move |rank, size| scatter(&queries, rank, size),
        4,
        4,
        8,
    );
    assert_parity(&input, &morton);
}

/// Batch size smaller than k: every pipeline step carries fewer queries
/// than the per-query result size, forcing many steps and many
/// partially-filled exchanges. Only the SPMD driver steps in batches;
/// the sharded front end sends each shard its whole slice per pass.
#[test]
fn batch_size_smaller_than_k() {
    let all = random_ps(1600, 3, 74);
    let queries = random_ps(96, 3, 75);
    let (input, morton) = run_orders(
        &all,
        move |rank, size| scatter(&queries, rank, size),
        4,
        8, // k = 8 ...
        3, // ... but only 3 queries per step
    );
    assert_parity(&input, &morton);
    // all rows really carry k neighbors
    for (rows, _) in &input {
        for row in rows {
            assert_eq!(row.len(), 8);
        }
    }
}

/// 200 queries clustered tightly near the origin corner of
/// [`corner_points`] → one owner shard.
fn corner_queries() -> PointSet {
    let mut rng = panda::core::rng::SplitRng::new(79);
    PointSet::from_coords(
        2,
        (0..200)
            .map(|_| (rng.next_f64() * 0.4) as f32)
            .collect::<Vec<f32>>(),
    )
    .unwrap()
}

fn corner_points() -> PointSet {
    random_ps(2000, 2, 78)
}

/// Ownership skew through the sharded front handle: every query falls
/// in one shard's spatial corner, so the other three shards get no job
/// unless a ball reaches their cells. Results must stay
/// **bit-identical** to a single-shard deployment and to the local
/// engine.
#[test]
fn sharded_skewed_ownership_matches_single_shard() {
    let all = corner_points();
    let queries = corner_queries();
    let req = QueryRequest::knn(&queries, 8);
    let single = ShardedIndex::build(&all, 1, &DistConfig::default()).unwrap();
    let sharded = ShardedIndex::build(&all, 4, &DistConfig::default()).unwrap();
    let a = single.query(&req).expect("single-shard query");
    let b = sharded.query(&req).expect("sharded query");
    assert_eq!(rows(&a.neighbors), rows(&b.neighbors));
    // and both equal the plain local engine, bit for bit
    let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
    let l = local.query_session(&req).expect("local query");
    assert_eq!(rows(&l.neighbors), rows(&b.neighbors));
}

/// Only who is asked: when every ball stays inside the owner's cell (a
/// small k in the skewed corner batch), a round sends exactly one job —
/// the owner's — and the other shards get none. Rows still equal the
/// local engine's, ids included.
#[test]
fn sharded_asks_only_the_owner_when_balls_stay_home() {
    let all = corner_points();
    let queries = corner_queries();
    let sharded = ShardedIndex::build(&all, 4, &DistConfig::default()).unwrap();
    let mut counters = QueryCounters::default();
    let owner = sharded.global().owner(queries.point(0), &mut counters);
    for i in 0..queries.len() {
        assert_eq!(
            sharded.global().owner(queries.point(i), &mut counters),
            owner
        );
    }
    let registry = sharded.registry().unwrap();
    let messages = || registry.snapshot().counter("shard.messages").unwrap_or(0);
    let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
    let req = QueryRequest::knn(&queries, 3);
    for round in 1..=3 {
        let before = messages();
        let got = sharded.query(&req).expect("sharded query");
        assert_eq!(
            messages() - before,
            1,
            "round {round}: one job, the owner's"
        );
        let want = local.query_session(&req).expect("local query");
        assert_eq!(rows(&got.neighbors), rows(&want.neighbors));
    }
}

/// The default order (no override: the locality rule) through the
/// sharded front handle on 1 and 2 shards is bit-identical, ids
/// included, to explicit `Input` and `Morton` and to the local engine —
/// for a shuffled batch (which the rule sorts) and a Morton-presorted
/// one (which it may keep as given).
#[test]
fn sharded_default_order_matches_explicit_orders() {
    let all = random_ps(3000, 3, 80);
    let shuffled = random_ps(500, 3, 81);
    let presorted = shuffled.select(&panda::core::morton::morton_schedule(&shuffled));
    let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
    for shards in [1, 2] {
        let index = ShardedIndex::build(&all, shards, &DistConfig::default()).unwrap();
        for (name, queries) in [("shuffled", &shuffled), ("presorted", &presorted)] {
            let req = QueryRequest::knn(queries, 6);
            let default = rows(&index.query(&req).expect("default order").neighbors);
            for order in [QueryOrder::Input, QueryOrder::Morton] {
                let explicit = index.query(&req.with_order(order)).expect("explicit order");
                assert_eq!(
                    default,
                    rows(&explicit.neighbors),
                    "{name}, {shards} shard(s), {order:?}"
                );
            }
            let l = local
                .query_session(&req.with_order(QueryOrder::Input))
                .expect("local query");
            assert_eq!(default, rows(&l.neighbors), "{name}, {shards} shard(s)");
        }
    }
}

/// Morton-ordered distributed results are still exact vs brute force
/// (skewed case): the reordering must never lose a true neighbor.
#[test]
fn morton_skewed_results_are_exact() {
    let all = random_ps(1200, 3, 76);
    let queries = random_ps(50, 3, 77);
    let q2 = queries.clone();
    let out = run_cluster(&ClusterConfig::new(3), move |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = if comm.rank() == 1 {
            q2.clone()
        } else {
            PointSet::new(3).unwrap()
        };
        let cfg = QueryConfig {
            k: 6,
            batch_size: 7,
            order: QueryOrder::Morton,
            ..QueryConfig::default()
        };
        let res = query_distributed(comm, &tree, &myq, &cfg).expect("query");
        (0..myq.len())
            .map(|i| {
                (
                    myq.point(i).to_vec(),
                    res.neighbors
                        .row(i)
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect::<Vec<f32>>(),
                )
            })
            .collect::<Vec<_>>()
    });
    let all = random_ps(1200, 3, 76);
    for o in &out {
        for (q, dists) in &o.result {
            let mut heap = KnnHeap::new(6);
            for i in 0..all.len() {
                heap.offer(all.dist_sq_to(q, i), all.id(i));
            }
            let expect: Vec<f32> = heap.into_sorted().iter().map(|n| n.dist_sq).collect();
            assert_eq!(dists, &expect, "q={q:?}");
        }
    }
}
