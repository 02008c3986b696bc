//! Backend parity: one dataset, one [`QueryRequest`], every engine —
//! all driven through `&dyn NnBackend` trait objects, all required to
//! agree with brute force **bit-for-bit** on distances. At exact
//! distance ties the strict-`<` heap keeps whichever co-located point
//! each engine's traversal offered first, so ids are not compared
//! directly; instead every returned id is verified to really sit at its
//! reported distance from the query.
//!
//! Covered backends: `panda-local` (`KnnIndex`), `brute-force`,
//! `flann-like`, `ann-like` and a 2-shard `panda-sharded`
//! (`ShardedIndex`) behind one handle; the SPMD pipeline
//! (`query_distributed`) and `local-trees` (`LocalTreesBackend`) on a
//! simulated 4-rank cluster.

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::QueryConfig;
use panda::data::dayabay::{self, DayaBayParams};
use panda::data::{cosmology, queries_from, scatter, uniform};
use panda::prelude::*;

/// Flatten a response into comparable (row lengths, distances).
fn fingerprint(res: &QueryResponse) -> (Vec<usize>, Vec<f32>) {
    (
        res.neighbors.iter().map(<[Neighbor]>::len).collect(),
        res.neighbors.arena().iter().map(|n| n.dist_sq).collect(),
    )
}

/// Every id returned must really sit at its reported (bit-exact)
/// distance from its query, and rows must never repeat an id.
fn assert_ids_honest(res: &QueryResponse, points: &PointSet, queries: &PointSet, who: &str) {
    let by_id: std::collections::HashMap<u64, usize> =
        (0..points.len()).map(|i| (points.id(i), i)).collect();
    for (qi, row) in res.neighbors.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for n in row {
            assert!(
                seen.insert(n.id),
                "{who}: duplicate id {} in row {qi}",
                n.id
            );
            let pi = *by_id.get(&n.id).unwrap_or_else(|| {
                panic!("{who}: unknown id {} in row {qi}", n.id);
            });
            assert_eq!(
                points.dist_sq_to(queries.point(qi), pi),
                n.dist_sq,
                "{who}: id {} misreported its distance in row {qi}",
                n.id
            );
        }
    }
}

/// Every backend served from one handle, built from the same points —
/// the sharded engine included, with one local index per cell behind it.
fn single_node_backends(points: &PointSet) -> Vec<Box<dyn NnBackend>> {
    let cfg = TreeConfig::default();
    let parallel = TreeConfig::default().with_parallel(true).with_threads(2);
    vec![
        Box::new(KnnIndex::build(points, &cfg).unwrap()),
        Box::new(KnnIndex::build(points, &parallel).unwrap()),
        Box::new(BruteForce::new(points)),
        Box::new(FlannLikeTree::build(points).unwrap()),
        Box::new(AnnLikeTree::build(points).unwrap()),
        Box::new(ShardedIndex::build(points, 2, &DistConfig::default()).unwrap()),
    ]
}

fn assert_all_match(points: &PointSet, queries: &PointSet, k: usize, radius: Option<f32>) {
    let truth = {
        let bf = BruteForce::new(points);
        let mut req = QueryRequest::knn(queries, k);
        if let Some(r) = radius {
            req = req.with_radius(r);
        }
        fingerprint(&NnBackend::query(&bf, &req).unwrap())
    };
    for backend in single_node_backends(points) {
        let mut req = QueryRequest::knn(queries, k);
        if let Some(r) = radius {
            req = req.with_radius(r);
        }
        let res = backend.query(&req).unwrap();
        assert_eq!(res.len(), queries.len(), "{}", backend.name());
        assert_eq!(
            fingerprint(&res),
            truth,
            "backend {} diverged (k={k}, radius={radius:?})",
            backend.name()
        );
        assert_ids_honest(&res, points, queries, backend.name());
        assert_eq!(backend.len(), points.len(), "{}", backend.name());
        assert_eq!(backend.dims(), points.dims(), "{}", backend.name());
    }
}

#[test]
fn all_single_node_backends_agree_on_uniform_3d() {
    let points = uniform::generate(3000, 3, 1.0, 1);
    let queries = queries_from(&points, 60, 0.01, 2);
    assert_all_match(&points, &queries, 5, None);
    assert_all_match(&points, &queries, 1, None);
}

#[test]
fn all_single_node_backends_agree_on_clustered_data() {
    let points = cosmology::generate(2500, &Default::default(), 3);
    let queries = queries_from(&points, 50, 0.01, 4);
    assert_all_match(&points, &queries, 7, None);
}

#[test]
fn all_single_node_backends_agree_on_colocated_10d() {
    let lp = dayabay::generate(2000, &DayaBayParams::default(), 5);
    let queries = queries_from(&lp.points, 40, 0.05, 6);
    assert_all_match(&lp.points, &queries, 12, None);
}

#[test]
fn all_single_node_backends_agree_on_radius_limited_requests() {
    let points = uniform::generate(2500, 3, 1.0, 7);
    let queries = queries_from(&points, 50, 0.01, 8);
    // tight radius → some rows empty; the CSR table must reflect that
    // identically everywhere
    assert_all_match(&points, &queries, 10, Some(0.05));
    assert_all_match(&points, &queries, 10, Some(0.3));
}

#[test]
fn request_validation_is_uniform_across_backends() {
    let points = uniform::generate(200, 3, 1.0, 9);
    let queries = queries_from(&points, 5, 0.01, 10);
    // an empty batch still declares its dimensionality
    let empty_2d = PointSet::new(2).unwrap();
    for backend in single_node_backends(&points) {
        assert!(
            matches!(
                backend.query(&QueryRequest::knn(&queries, 0)),
                Err(PandaError::ZeroK)
            ),
            "{}",
            backend.name()
        );
        assert!(
            matches!(
                backend.query(&QueryRequest::knn(&queries, 3).with_radius(f32::NAN)),
                Err(PandaError::BadRadius { .. })
            ),
            "{}",
            backend.name()
        );
        assert!(
            matches!(
                backend.query(&QueryRequest::knn(&empty_2d, 3)),
                Err(PandaError::DimsMismatch { .. })
            ),
            "{}",
            backend.name()
        );
    }
}

#[test]
fn distributed_backends_agree_with_brute_force() {
    let points = cosmology::generate(2000, &Default::default(), 11);
    let queries = queries_from(&points, 32, 0.01, 12);
    let truth = {
        let bf = BruteForce::new(&points);
        fingerprint(&NnBackend::query(&bf, &QueryRequest::knn(&queries, 5)).unwrap())
    };
    let out = run_cluster(&ClusterConfig::new(4), |comm| {
        let (rank, size) = (comm.rank(), comm.size());
        let mine = scatter(&points, rank, size);
        // both distributed engines share the cluster run; the SPMD
        // pipeline only borrows the comm, so local-trees can follow it
        let tree = build_distributed(comm, mine.clone(), &DistConfig::default()).unwrap();
        let myq = scatter(&queries, rank, size);
        let dist_res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).unwrap();
        let lt = LocalTreesBackend::build_on(comm, &mine, &TreeConfig::default()).unwrap();
        let lt_res = {
            let backend: &dyn NnBackend = &lt;
            backend.query(&QueryRequest::knn(&myq, 5)).unwrap()
        };
        // (global query slot, per-backend rows)
        (0..myq.len())
            .map(|i| {
                (
                    rank + i * size,
                    dist_res
                        .neighbors
                        .row(i)
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect::<Vec<_>>(),
                    lt_res
                        .neighbors
                        .row(i)
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    });
    let mut checked = 0usize;
    for o in &out {
        for (slot, dist_row, lt_row) in &o.result {
            let lo = truth.0[..*slot].iter().sum::<usize>();
            let want = truth.1[lo..lo + truth.0[*slot]].to_vec();
            assert_eq!(dist_row, &want, "panda-dist query {slot}");
            assert_eq!(lt_row, &want, "local-trees query {slot}");
            checked += 1;
        }
    }
    assert_eq!(checked, queries.len());
}

/// Same work as the SPMD engine: a `ShardedIndex` round's routing, ball
/// tests, merge and shard traversals add up to the SPMD
/// `query_distributed` counters summed over ranks, on the same points
/// and queries.
#[test]
fn sharded_counters_equal_the_spmd_engine_summed_over_ranks() {
    let points = uniform::generate(1200, 3, 1.0, 80);
    let queries = uniform::generate(90, 3, 1.0, 81);
    for shards in [1, 2, 4] {
        let index = ShardedIndex::build(&points, shards, &DistConfig::default()).unwrap();
        let sharded = index.query(&QueryRequest::knn(&queries, 6)).unwrap();
        let spmd = run_cluster(&ClusterConfig::new(shards), |comm| {
            let (rank, size) = (comm.rank(), comm.size());
            let mine = scatter(&points, rank, size);
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, rank, size);
            query_distributed(comm, &tree, &myq, &QueryConfig::with_k(6))
                .unwrap()
                .counters
        });
        let mut expect = QueryCounters::default();
        for o in &spmd {
            expect.add(&o.result);
        }
        assert_eq!(sharded.counters, expect, "{shards} shard(s)");
    }
}
