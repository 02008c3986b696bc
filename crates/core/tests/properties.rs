//! Property-based tests on the core data structures, via public API only.

use proptest::prelude::*;

use panda_core::config::HistScan;
use panda_core::engine::{NeighborTable, QueryRequest};
use panda_core::hist::SampledHistogram;
use panda_core::knn::KnnIndex;
use panda_core::local_tree::{PackedLeaves, LANE};
use panda_core::partition::{partition_by_count, partition_in_place, partition_stable};
use panda_core::{
    BoundMode, KnnHeap, LocalKdTree, Neighbor, PointSet, QueryCounters, QueryWorkspace, TreeConfig,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The two binning kernels implement the same function, for any
    /// boundaries and probes (duplicates and exact hits included).
    #[test]
    fn hist_scan_equals_binary(
        mut samples in proptest::collection::vec(-1000i32..1000, 0..300),
        probes in proptest::collection::vec(-1100i32..1100, 1..100),
    ) {
        let boundaries: Vec<f32> = samples.drain(..).map(|v| v as f32 * 0.5).collect();
        let h = SampledHistogram::from_samples(boundaries);
        for p in probes {
            let v = p as f32 * 0.5;
            prop_assert_eq!(h.bin_scan(v), h.bin_binary(v), "v={}", v);
        }
    }

    /// Histogram counts partition the input: all bins sum to n, and the
    /// quantile split's `left_count` equals the number of values ≤ split.
    #[test]
    fn hist_counts_partition(
        samples in proptest::collection::vec(-100i32..100, 2..200),
        values in proptest::collection::vec(-120i32..120, 1..300),
        target in 0.05f64..0.95,
    ) {
        let boundaries: Vec<f32> = samples.iter().map(|&v| v as f32).collect();
        let h = SampledHistogram::from_samples(boundaries);
        let vals: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let counts = h.count(vals.iter().copied(), HistScan::SubInterval);
        prop_assert_eq!(counts.iter().sum::<u64>(), vals.len() as u64);
        let d = h.split_at_quantile(&counts, target);
        let exact = vals.iter().filter(|&&v| v <= d.value).count() as u64;
        prop_assert_eq!(d.left_count, exact);
        prop_assert_eq!(d.total, vals.len() as u64);
        prop_assert_eq!(d.degenerate, d.left_count == 0 || d.left_count == d.total);
    }

    /// Partition routines agree on the boundary, preserve the index
    /// permutation, and satisfy the predicate on both sides.
    #[test]
    fn partitions_agree_and_are_valid(
        values in proptest::collection::vec(-50i32..50, 1..300),
        split in -60i32..60,
    ) {
        let coords: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let ps = PointSet::from_coords(1, coords).unwrap();
        let split = split as f32;
        let n = ps.len();
        let mut a: Vec<u32> = (0..n as u32).collect();
        let mut b = a.clone();
        let mut scratch = Vec::new();
        let la = partition_in_place(&ps, &mut a, 0, split);
        let lb = partition_stable(&ps, &mut b, 0, split, &mut scratch);
        prop_assert_eq!(la, lb);
        for (pos, &i) in a.iter().enumerate() {
            let v = ps.coord(i as usize, 0);
            prop_assert_eq!(pos < la, v <= split);
        }
        let mut sorted = a.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }

    /// Exact-median selection: position `mid` splits by (value, id) order.
    #[test]
    fn median_select_orders_sides(
        values in proptest::collection::vec(-20i32..20, 2..200),
    ) {
        let coords: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let ps = PointSet::from_coords(1, coords).unwrap();
        let n = ps.len();
        let mid = n / 2;
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let v = partition_by_count(&ps, &mut idx, 0, mid);
        for &i in &idx[..mid] {
            prop_assert!(ps.coord(i as usize, 0) <= v);
        }
        for &i in &idx[mid..] {
            prop_assert!(ps.coord(i as usize, 0) >= v);
        }
    }

    /// KnnHeap equals a sort-based top-k with strict-< semantics, for any
    /// stream (duplicates included), any k, any initial radius.
    #[test]
    fn heap_equals_sorted_topk(
        dists in proptest::collection::vec(0u32..50, 1..200),
        k in 1usize..20,
        radius_sq in prop::option::of(1u32..40),
    ) {
        let r_sq = radius_sq.map(|r| r as f32).unwrap_or(f32::INFINITY);
        let mut heap = KnnHeap::with_radius_sq(k, r_sq);
        for (id, &d) in dists.iter().enumerate() {
            heap.offer(d as f32, id as u64);
        }
        let got: Vec<f32> = heap.into_sorted().iter().map(|n| n.dist_sq).collect();
        // reference: values strictly below the radius, k smallest
        let mut reference: Vec<f32> =
            dists.iter().map(|&d| d as f32).filter(|&d| d < r_sq).collect();
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        reference.truncate(k);
        prop_assert_eq!(got, reference);
    }

    /// The fused scan-and-offer kernel (both the runtime-dispatched and
    /// the forced-portable paths) returns exactly the same neighbor sets
    /// as the scalar reference (`distances()` + offer loop) for every
    /// dimensionality 1..=16, padded and unpadded bucket sizes, k ∈
    /// {1, 8, 64}, and queries far outside the data domain — i.e. no
    /// FP-reassociation regressions in result sets, bit for bit.
    #[test]
    fn fused_kernel_equals_scalar_reference(
        dims in 1usize..=16,
        // n % LANE == 0 (unpadded) and n % LANE != 0 (padded) both occur
        n in 1usize..=96,
        grid in proptest::collection::vec(-40i32..40, 96 * 16),
        qsel in 0usize..3,
        qseed in 0u64..1000,
    ) {
        let mut pl = PackedLeaves::new(dims);
        let coord = |i: usize, d: usize| grid[(i * dims + d) % grid.len()] as f32 * 0.25;
        let base = pl.push_leaf(n, coord, |i| i as u64) as usize;
        let cap = n.div_ceil(LANE) * LANE;

        // near query / lattice query / far-outside query
        let q: Vec<f32> = match qsel {
            0 => (0..dims).map(|d| coord(qseed as usize % n, d)).collect(),
            1 => (0..dims).map(|d| ((qseed + d as u64) % 19) as f32 - 9.0).collect(),
            _ => (0..dims).map(|d| 1.0e5 + (qseed + d as u64) as f32).collect(),
        };

        for k in [1usize, 8, 64] {
            let mut h_ref = KnnHeap::new(k);
            let mut h_auto = KnnHeap::new(k);
            let mut h_port = KnnHeap::new(k);

            // scalar reference: two-pass distances + offer loop
            let mut dists = Vec::new();
            pl.distances(base, cap, &q, &mut dists);
            let mut accepted_ref = 0u32;
            for (i, &d) in dists.iter().enumerate() {
                if d < h_ref.bound_sq() && h_ref.offer(d, pl.ids()[base + i]) {
                    accepted_ref += 1;
                }
            }

            let s_auto = pl.scan_and_offer(base, cap, &q, &mut h_auto);
            let s_port = pl.scan_portable(base, cap, &q, &mut h_port, |_| true);
            prop_assert_eq!(s_auto.accepted, accepted_ref);
            prop_assert_eq!(s_port.accepted, accepted_ref);

            let r: Vec<(f32, u64)> =
                h_ref.into_sorted().iter().map(|x| (x.dist_sq, x.id)).collect();
            let a: Vec<(f32, u64)> =
                h_auto.into_sorted().iter().map(|x| (x.dist_sq, x.id)).collect();
            let p: Vec<(f32, u64)> =
                h_port.into_sorted().iter().map(|x| (x.dist_sq, x.id)).collect();
            prop_assert_eq!(&r, &a, "auto path dims={} n={} k={}", dims, n, k);
            prop_assert_eq!(&r, &p, "portable path dims={} n={} k={}", dims, n, k);
        }
    }

    /// Bounding boxes: min_dist_sq is 0 inside, positive outside, and
    /// never exceeds the true distance to any contained point.
    #[test]
    fn bbox_lower_bound_law(
        pts in proptest::collection::vec((-50i32..50, -50i32..50), 1..60),
        q in (-80i32..80, -80i32..80),
    ) {
        let mut coords = Vec::new();
        for (x, y) in &pts {
            coords.push(*x as f32);
            coords.push(*y as f32);
        }
        let ps = PointSet::from_coords(2, coords).unwrap();
        let bb = ps.bounding_box().unwrap();
        let q = [q.0 as f32, q.1 as f32];
        let lb = bb.min_dist_sq(&q);
        for i in 0..ps.len() {
            prop_assert!(lb <= ps.dist_sq_to(&q, i) + 1e-3);
        }
        if bb.contains(&q) {
            prop_assert_eq!(lb, 0.0);
        }
    }
}

/// Random point set on a coarse lattice (duplicates are the hard case).
fn lattice_points(max_n: usize, max_dims: usize) -> impl Strategy<Value = PointSet> {
    (1..=max_dims, 1..=max_n).prop_flat_map(move |(dims, n)| {
        proptest::collection::vec(-8i32..8, n * dims).prop_map(move |grid| {
            let coords: Vec<f32> = grid.iter().map(|&g| g as f32 * 0.25).collect();
            PointSet::from_coords(dims, coords).expect("valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// CSR `NeighborTable` structural invariants, and bit-for-bit
    /// agreement between the batched session path and the single-query
    /// reference path, for arbitrary data, k, radius, and parallelism.
    #[test]
    fn csr_table_matches_single_query_path(
        ps in lattice_points(250, 4),
        k in 1usize..10,
        radius in proptest::option::of(0.1f32..4.0),
        parallel in proptest::sample::select(vec![false, true]),
        qseed in 0u64..500,
    ) {
        let idx = KnnIndex::build(&ps, &TreeConfig::default().with_threads(2)).unwrap();
        let dims = ps.dims();
        let mut queries = PointSet::new(dims).unwrap();
        queries.push(ps.point((qseed as usize) % ps.len()), 0);
        queries.push(
            &(0..dims).map(|d| ((qseed + d as u64) % 7) as f32 - 3.0).collect::<Vec<_>>(),
            1,
        );
        queries.push(&vec![50.0; dims], 2);

        let mut req = QueryRequest::knn(&queries, k).with_parallel(parallel);
        if let Some(r) = radius {
            req = req.with_radius(r);
        }
        let res = idx.query_session(&req).unwrap();
        let table = &res.neighbors;

        // --- structural invariants -----------------------------------
        prop_assert_eq!(table.len(), queries.len());
        let offs = table.offsets();
        prop_assert_eq!(offs.len(), table.len() + 1);
        prop_assert_eq!(offs[0], 0);
        prop_assert!(offs.windows(2).all(|w| w[0] <= w[1]), "offsets monotone");
        prop_assert_eq!(*offs.last().unwrap() as usize, table.arena().len());
        prop_assert_eq!(table.total_neighbors(), table.arena().len());
        // a rebuilt table from the raw parts must validate
        prop_assert!(
            NeighborTable::from_parts(offs.to_vec(), table.arena().to_vec()).is_ok()
        );

        // --- bit-for-bit vs the single-query reference path ----------
        if radius.is_none() {
            let nested: Vec<Vec<Neighbor>> = (0..queries.len())
                .map(|i| idx.query(queries.point(i), k).unwrap())
                .collect();
            prop_assert_eq!(table.to_nested(), nested.clone(), "CSR rows == single-query rows");
            // per-row slice accessors agree with the reference rows
            for (i, row) in nested.iter().enumerate() {
                prop_assert_eq!(table.row(i), row.as_slice());
                prop_assert_eq!(table.get(i).unwrap(), row.as_slice());
                prop_assert_eq!(&table[i], row.as_slice());
            }
            prop_assert!(table.get(table.len()).is_none());
        } else {
            // radius rows: ascending, strictly inside r², per-query match
            let r_sq = radius.unwrap() * radius.unwrap();
            for (i, row) in table.iter().enumerate() {
                prop_assert!(row.iter().all(|n| n.dist_sq < r_sq));
                let single = idx
                    .query_radius(queries.point(i), k, radius.unwrap())
                    .unwrap();
                prop_assert_eq!(row, single.as_slice());
            }
        }

        // iterator and rows agree
        let iter_rows: Vec<&[Neighbor]> = table.iter().collect();
        prop_assert_eq!(iter_rows.len(), table.len());
        for (i, row) in iter_rows.iter().enumerate() {
            prop_assert_eq!(*row, table.row(i));
        }
    }

    /// A filtered traversal over the whole tree equals an unfiltered one
    /// over a tree built from the live points alone, for any dead subset
    /// (none and all included): the same distance bits always, and the
    /// same ids whenever the k + 1 nearest live points are at distinct
    /// distances. Coarse lattices make ties the common case; fine ones
    /// make them rare.
    #[test]
    fn filtered_traversal_equals_live_only_tree(
        dims in 1usize..=4,
        raw in proptest::collection::vec(0u32..1 << 20, 4..1200),
        coarse in any::<bool>(),
        marks in proptest::collection::vec(0u32..1000, 1200),
        dead_per_mille in proptest::sample::select(vec![0u32, 100, 500, 900, 1000]),
        k in 1usize..20,
        qseed in 0u64..1000,
    ) {
        let n = raw.len() / dims;
        let coords: Vec<f32> = raw[..n * dims]
            .iter()
            .map(|&r| if coarse { (r % 16) as f32 * 0.25 } else { r as f32 / 1024.0 })
            .collect();
        let ps = PointSet::from_coords(dims, coords).unwrap();
        let live = |id: u64| marks[id as usize] >= dead_per_mille;
        let mut live_ps = PointSet::new(dims).unwrap();
        for i in 0..n {
            if live(ps.id(i)) {
                live_ps.push(ps.point(i), ps.id(i));
            }
        }
        let cfg = TreeConfig::default().with_bucket_size(8);
        let full = LocalKdTree::build(&ps, &cfg).unwrap();
        let live_only = (!live_ps.is_empty()).then(|| LocalKdTree::build(&live_ps, &cfg).unwrap());

        let near: Vec<f32> = ps.point(qseed as usize % n).to_vec();
        let lattice: Vec<f32> = (0..dims).map(|d| ((qseed + d as u64) % 5) as f32).collect();
        let far = vec![5000.0f32; dims];
        let mut ws = QueryWorkspace::new();
        for q in [near, lattice, far] {
            let mut heap = KnnHeap::new(k);
            let mut counters = QueryCounters::default();
            full.query_into_filtered(&q, &mut heap, BoundMode::Exact, &mut ws, &mut counters, live);
            let got = heap.into_sorted();
            let want = live_only.as_ref().map_or(Vec::new(), |t| t.query(&q, k).unwrap());
            let bits = |row: &[Neighbor]| row.iter().map(|x| x.dist_sq.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "n={} dims={} k={}", n, dims, k);
            prop_assert!(got.iter().all(|x| live(x.id)));

            let mut dists: Vec<f32> = (0..live_ps.len()).map(|i| live_ps.dist_sq_to(&q, i)).collect();
            dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
            dists.truncate(k + 1);
            if dists.windows(2).all(|w| w[0] < w[1]) {
                let ids = |row: &[Neighbor]| row.iter().map(|x| x.id).collect::<Vec<_>>();
                prop_assert_eq!(ids(&got), ids(&want), "n={} dims={} k={}", n, dims, k);
            }
        }
    }
}
