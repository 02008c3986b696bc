//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::QueryConfig;
use panda::data::scatter;
use panda::prelude::*;

/// Random point set: n points, dims, values drawn from a small lattice so
/// duplicate coordinates (the hard case) occur often.
fn arb_points(max_n: usize, max_dims: usize) -> impl Strategy<Value = PointSet> {
    (1..=max_dims, 1..=max_n).prop_flat_map(move |(dims, n)| {
        proptest::collection::vec(-8i32..8, n * dims).prop_map(move |grid| {
            let coords: Vec<f32> = grid.iter().map(|&g| g as f32 * 0.25).collect();
            PointSet::from_coords(dims, coords).expect("valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Single-node tree == brute force for arbitrary (duplicate-heavy)
    /// data, any dims ≤ 6, any k.
    #[test]
    fn local_tree_matches_brute_force(
        ps in arb_points(300, 6),
        k in 1usize..12,
        qseed in 0u64..1000,
    ) {
        let tree = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let bf = BruteForce::new(&ps);
        // queries: a dataset point, a lattice point, a far point
        let dims = ps.dims();
        let mut queries: Vec<Vec<f32>> = Vec::new();
        queries.push(ps.point((qseed as usize) % ps.len()).to_vec());
        queries.push((0..dims).map(|d| ((qseed + d as u64) % 7) as f32 - 3.0).collect());
        queries.push(vec![100.0; dims]);
        for q in &queries {
            let a: Vec<f32> = tree.query(q, k).unwrap().iter().map(|n| n.dist_sq).collect();
            let b: Vec<f32> = bf.query(q, k).unwrap().iter().map(|n| n.dist_sq).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// Results are sorted ascending, non-negative, right-sized, and the
    /// radius-limited query returns exactly the prefix within the radius.
    #[test]
    fn result_structure_invariants(
        ps in arb_points(200, 4),
        k in 1usize..10,
        radius in 0.1f32..4.0,
    ) {
        let tree = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let q = vec![0.1f32; ps.dims()];
        let full = tree.query(&q, k).unwrap();
        prop_assert_eq!(full.len(), k.min(ps.len()));
        for w in full.windows(2) {
            prop_assert!(w[0].dist_sq <= w[1].dist_sq);
        }
        prop_assert!(full.iter().all(|n| n.dist_sq >= 0.0));
        let limited = tree.query_radius(&q, k, radius).unwrap();
        let expect: Vec<_> =
            full.iter().filter(|n| n.dist_sq < radius * radius).cloned().collect();
        prop_assert_eq!(limited.len(), expect.len());
        for (a, b) in limited.iter().zip(&expect) {
            prop_assert_eq!(a.dist_sq, b.dist_sq);
        }
    }

    /// Tree configuration must not change *results* — only performance.
    #[test]
    fn config_invariance(
        ps in arb_points(250, 3),
        bucket in prop::sample::select(vec![1usize, 7, 32, 90]),
        seed in 0u64..50,
    ) {
        let q = vec![0.3f32; ps.dims()];
        let base = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let expect: Vec<f32> = base.query(&q, 5).unwrap().iter().map(|n| n.dist_sq).collect();
        let cfg = TreeConfig::default().with_bucket_size(bucket).with_seed(seed);
        let other = KnnIndex::build(&ps, &cfg).unwrap();
        let got: Vec<f32> = other.query(&q, 5).unwrap().iter().map(|n| n.dist_sq).collect();
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    // Distributed cases spawn threads; keep the case count lower.
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Distributed == brute force for arbitrary data and rank counts,
    /// including non-powers-of-two.
    #[test]
    fn distributed_matches_brute_force(
        ps in arb_points(250, 3),
        ranks in 1usize..7,
        k in 1usize..8,
    ) {
        let bf = BruteForce::new(&ps);
        let queries: Vec<Vec<f32>> = vec![
            ps.point(0).to_vec(),
            vec![0.0; ps.dims()],
            vec![9.0; ps.dims()],
        ];
        let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
            let mine = scatter(&ps, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let mut myq = PointSet::new(ps.dims()).unwrap();
            if comm.rank() == 0 {
                for (i, q) in queries.iter().enumerate() {
                    myq.push(q, i as u64);
                }
            }
            let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(k)).unwrap();
            res.neighbors
                .iter()
                .map(|ns| ns.iter().map(|n| n.dist_sq).collect::<Vec<f32>>())
                .collect::<Vec<_>>()
        });
        for (qi, got) in out[0].result.iter().enumerate() {
            let expect: Vec<f32> =
                bf.query(&queries[qi], k).unwrap().iter().map(|n| n.dist_sq).collect();
            prop_assert_eq!(got, &expect, "query {}", qi);
        }
    }

    /// Redistribution conserves points for arbitrary inputs.
    #[test]
    fn redistribution_conserves(
        ps in arb_points(300, 3),
        ranks in 2usize..6,
    ) {
        let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
            let mine = scatter(&ps, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            tree.points.ids().to_vec()
        });
        let mut ids: Vec<u64> = out.iter().flat_map(|o| o.result.clone()).collect();
        ids.sort_unstable();
        let mut expect: Vec<u64> = ps.ids().to_vec();
        expect.sort_unstable();
        prop_assert_eq!(ids, expect);
    }
}
