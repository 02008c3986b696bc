//! Workload inputs, all made from `--seed`: the program under test only
//! ever sees generated points and queries.

use std::time::Instant;

use panda::core::rng::SplitRng;
use panda::data::{cosmology, dayabay, queries_from, uniform};
use panda::prelude::*;

use crate::spec::Workload;

/// Hot spots of the serving traffic (the `bench_pr5` shape, kept for
/// continuity with the recorded figures).
const HOTSPOTS: usize = 256;

/// One workload's points and the queries asked of them.
pub struct Dataset {
    pub points: PointSet,
    /// For `batch_cosmo3d` this is the point set itself (a self-query).
    pub queries: PointSet,
    pub k: usize,
    /// Seconds spent generating both.
    pub gen_s: f64,
}

/// Point and query counts. `--smoke` divides both by 20.
fn sizes(w: Workload, smoke: bool) -> (usize, usize) {
    let (points, queries) = match w {
        // 1M points keeps one set-up near 2 s; the driver's time cap
        // covers three set-ups and the measurement in every run.
        Workload::BatchCosmo3d => (1_000_000, 1_000_000),
        Workload::BatchDayabay10d => (300_000, 20_000),
        Workload::ServeHotspot => (200_000, 8_192),
        Workload::Sharded2 => (200_000, 16_384),
        Workload::StoreStream | Workload::StoreDurable => (200_000, 8_192),
    };
    if smoke {
        (points / 20, (queries / 20).max(512))
    } else {
        (points, queries)
    }
}

pub fn dataset(w: Workload, seed: u64, smoke: bool) -> Dataset {
    let t0 = Instant::now();
    let (n, nq) = sizes(w, smoke);
    let query_seed = seed ^ 0x5EED_0DD5;
    let (points, queries, k) = match w {
        Workload::BatchCosmo3d => {
            let points = cosmology::generate(n, &cosmology::CosmologyParams::default(), seed);
            let queries = points.clone();
            (points, queries, 5)
        }
        Workload::BatchDayabay10d => {
            let points = dayabay::generate(n, &dayabay::DayaBayParams::default(), seed).points;
            let queries = queries_from(&points, nq, 0.05, query_seed);
            (points, queries, 10)
        }
        Workload::ServeHotspot | Workload::Sharded2 => {
            let points = uniform::generate(n, 10, 1.0, seed);
            let queries = hotspot_queries(&points, nq, query_seed);
            (points, queries, 32)
        }
        Workload::StoreStream | Workload::StoreDurable => {
            let points = uniform::generate(n, 10, 1.0, seed);
            let queries = queries_from(&points, nq, 0.02, query_seed);
            (points, queries, 16)
        }
    };
    Dataset {
        points,
        queries,
        k,
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// Serving traffic with popularity skew: every query is a small
/// perturbation of one of [`HOTSPOTS`] dataset points, and consecutive
/// queries jump between hot spots, so a single caller's stream has no
/// locality of its own — only coalescing can group neighbours again.
fn hotspot_queries(points: &PointSet, n: usize, seed: u64) -> PointSet {
    let dims = points.dims();
    let mut rng = SplitRng::new(seed);
    let mut coords = Vec::with_capacity(n * dims);
    for _ in 0..n {
        let h = rng.next_below(HOTSPOTS);
        let center = points.point((h * points.len() / HOTSPOTS) % points.len());
        coords.extend(
            center
                .iter()
                .map(|&c| c + ((rng.next_f64() - 0.5) * 0.02) as f32),
        );
    }
    PointSet::from_coords(dims, coords).expect("finite hot-spot queries")
}

/// Each query of `set` as its own one-point request.
pub fn singles(set: &PointSet, n: usize) -> Vec<PointSet> {
    (0..n.min(set.len()))
        .map(|i| set.select(&[i as u32]))
        .collect()
}

/// `n` fresh uniform points with ids from `first_id` up — the material
/// the store workloads insert.
pub fn fresh_points(n: usize, dims: usize, first_id: u64, seed: u64) -> PointSet {
    let coords = uniform::generate(n, dims, 1.0, seed ^ 0xF2E5_4000)
        .coords()
        .to_vec();
    let ids = (first_id..first_id + n as u64).collect();
    PointSet::from_parts(dims, coords, ids).expect("fresh points")
}

/// A seeded sample of `n` distinct queries in random order — the
/// ladder's query set. A prefix would not do: the cosmology generator
/// emits points clump by clump.
pub fn shuffled_sample(set: &PointSet, n: usize, seed: u64) -> PointSet {
    let picks = SplitRng::new(seed ^ 0x001A_DDE2).sample_indices(set.len(), n.min(set.len()));
    set.select(&picks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = dataset(w, 7, true);
            let b = dataset(w, 7, true);
            let c = dataset(w, 8, true);
            assert_eq!(a.points.coords(), b.points.coords(), "{}", w.name());
            assert_eq!(a.queries.coords(), b.queries.coords(), "{}", w.name());
            assert_ne!(a.points.coords(), c.points.coords(), "{}", w.name());
            assert!(a.queries.len() >= 512 && a.k > 0);
        }
    }

    #[test]
    fn fresh_points_carry_their_own_ids() {
        let p = fresh_points(5, 10, 1 << 32, 3);
        assert_eq!(
            p.ids(),
            [
                1 << 32,
                (1 << 32) + 1,
                (1 << 32) + 2,
                (1 << 32) + 3,
                (1 << 32) + 4
            ]
        );
        let s = singles(&p, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].point(0), p.point(2));
    }
}
