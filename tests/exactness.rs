//! The load-bearing invariant of the whole reproduction: distributed
//! PANDA results are **exactly** the brute-force k nearest neighbors, on
//! every dataset family the paper uses, across rank counts, dimensions,
//! k values and batch sizes.

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::QueryConfig;
use panda::data::dayabay::DayaBayParams;
use panda::data::plasma::PlasmaParams;
use panda::data::{cosmology, dayabay, plasma, queries_from, scatter, sdss, uniform};
use panda::prelude::*;

/// Run the full distributed pipeline and compare every query against
/// brute force (distances must be bit-identical; ids checked through the
/// distances, which strict-< tie handling makes deterministic).
fn assert_distributed_exact(
    all: &PointSet,
    queries: &PointSet,
    ranks: usize,
    k: usize,
    batch: usize,
) {
    let bf = BruteForce::new(all);
    let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
        let mine = scatter(all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(queries, comm.rank(), comm.size());
        let cfg = QueryConfig {
            k,
            batch_size: batch,
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
    let mut checked = 0usize;
    for o in &out {
        for (q, dists) in &o.result {
            let expect: Vec<f32> = bf
                .query(q, k)
                .expect("brute")
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(dists, &expect, "rank {} ranks={ranks} k={k}", o.rank);
            checked += 1;
        }
    }
    assert_eq!(checked, queries.len());
}

#[test]
fn cosmology_clustered_data() {
    let all = cosmology::generate(4000, &Default::default(), 1);
    let queries = queries_from(&all, 60, 0.01, 2);
    for ranks in [2, 4, 8] {
        assert_distributed_exact(&all, &queries, ranks, 5, 4096);
    }
}

#[test]
fn plasma_sheet_data() {
    let all = plasma::generate(4000, &PlasmaParams::default(), 3);
    let queries = queries_from(&all, 60, 0.005, 4);
    assert_distributed_exact(&all, &queries, 4, 5, 4096);
    assert_distributed_exact(&all, &queries, 6, 3, 16);
}

#[test]
fn dayabay_colocated_10d() {
    let lp = dayabay::generate(3000, &DayaBayParams::default(), 5);
    let queries = queries_from(&lp.points, 40, 0.05, 6);
    assert_distributed_exact(&lp.points, &queries, 4, 5, 4096);
    // heavy co-location with larger k crossing duplicate groups
    assert_distributed_exact(&lp.points, &queries, 3, 25, 4096);
}

#[test]
fn sdss_magnitudes_10d_and_15d() {
    for variant in [sdss::SdssVariant::PsfModMag, sdss::SdssVariant::AllMag] {
        let all = sdss::generate(2500, variant, 7);
        let queries = queries_from(&all, 40, 0.02, 8);
        assert_distributed_exact(&all, &queries, 4, 10, 4096);
    }
}

#[test]
fn uniform_control() {
    let all = uniform::generate(3000, 3, 1.0, 9);
    let queries = queries_from(&all, 50, 0.01, 10);
    assert_distributed_exact(&all, &queries, 5, 7, 64);
}

#[test]
fn queries_far_outside_the_domain() {
    let all = uniform::generate(2000, 3, 1.0, 11);
    let mut queries = PointSet::new(3).unwrap();
    queries.push(&[50.0, -20.0, 7.0], 0);
    queries.push(&[-1.0, -1.0, -1.0], 1);
    queries.push(&[0.5, 0.5, 1e4], 2);
    assert_distributed_exact(&all, &queries, 4, 5, 4096);
}

#[test]
fn single_rank_degenerates_to_local() {
    let all = cosmology::generate(2000, &Default::default(), 12);
    let queries = queries_from(&all, 40, 0.01, 13);
    assert_distributed_exact(&all, &queries, 1, 5, 4096);
}

#[test]
fn all_points_identical() {
    let mut all = PointSet::new(3).unwrap();
    for i in 0..400u64 {
        all.push(&[1.0, 2.0, 3.0], i);
    }
    let mut queries = PointSet::new(3).unwrap();
    queries.push(&[1.0, 2.0, 3.0], 0);
    queries.push(&[5.0, 5.0, 5.0], 1);
    assert_distributed_exact(&all, &queries, 4, 5, 4096);
}

#[test]
fn k_spans_the_dataset_size() {
    let all = uniform::generate(50, 2, 1.0, 14);
    let queries = queries_from(&all, 10, 0.05, 15);
    for k in [1, 49, 50, 200] {
        assert_distributed_exact(&all, &queries, 4, k, 4096);
    }
}

#[test]
fn radius_limited_distributed_knn() {
    // QueryConfig::initial_radius bounds the search: results must be the
    // brute-force top-k *filtered to the radius*, exactly.
    let all = uniform::generate(2000, 3, 1.0, 20);
    let queries = queries_from(&all, 40, 0.01, 21);
    let radius = 0.08f32;
    let bf = BruteForce::new(&all);
    let out = run_cluster(&ClusterConfig::new(4), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&queries, comm.rank(), comm.size());
        let cfg = QueryConfig {
            initial_radius: radius,
            ..QueryConfig::with_k(10)
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
    for o in &out {
        for (q, dists) in &o.result {
            let expect: Vec<f32> = bf
                .query_radius(q, 10, radius)
                .expect("brute")
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(dists, &expect);
            assert!(dists.iter().all(|&d| d < radius * radius));
        }
    }
}

#[test]
fn local_trees_baseline_is_also_exact() {
    let all = cosmology::generate(2000, &Default::default(), 16);
    let queries = queries_from(&all, 30, 0.01, 17);
    let bf = BruteForce::new(&all);
    let out = run_cluster(&ClusterConfig::new(4), |comm| {
        let (rank, size) = (comm.rank(), comm.size());
        let mine = scatter(&all, rank, size);
        let engine =
            LocalTreesBackend::build_on(comm, &mine, &TreeConfig::default()).expect("build");
        let myq = scatter(&queries, rank, size);
        let res = engine.query(&QueryRequest::knn(&myq, 5)).expect("query");
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
    for o in &out {
        for (q, dists) in &o.result {
            let expect: Vec<f32> = bf
                .query(q, 5)
                .expect("brute")
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(dists, &expect);
        }
    }
}
