//! A classic single-threaded kd-tree parameterized by the split
//! heuristics the paper attributes to FLANN and ANN (§V-B2).
//!
//! Deliberately *not* PANDA: sequential construction, no sampled-histogram
//! medians, no SIMD-packed buckets (leaf scans walk the original
//! point-major array), no parallel levels. The Fig. 7 comparison measures
//! exactly these differences.

use panda_core::engine::{NeighborTable, QueryRequest, QueryResponse};
use panda_core::{
    BuildCounters, KnnHeap, Neighbor, PandaError, PointSet, QueryCounters, Result, MAX_DIMS,
};
use rayon::prelude::*;

/// Modeled slowdown of an unpacked, strided leaf scan relative to PANDA's
/// lane-padded dimension-major kernel (scalar loop + pointer chasing vs a
/// vectorized stream). Used when converting baseline query counters to
/// modeled time; the real 1-thread wall-clock comparisons do not use it.
pub const UNPACKED_DIST_PENALTY: f64 = 2.5;

/// Which library's heuristics to mimic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Heuristic {
    /// Variance over the first ≤100 points picks the dimension; the mean
    /// of those points is the split value; bucket size 10.
    FlannLike,
    /// Max-extent dimension; midpoint of the bounds as split value with
    /// ANN-style sliding when a side is empty; bucket size 1.
    AnnLike,
}

impl Heuristic {
    fn bucket(&self) -> usize {
        match self {
            Heuristic::FlannLike => 10,
            Heuristic::AnnLike => 1,
        }
    }
}

/// Depth cap: co-located points make midpoint splits loop; ANN's real
/// trees hit depth ~109 on the Daya Bay data (§V-B2), so cap past that.
const MAX_DEPTH: usize = 128;

const LEAF: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct SNode {
    dim: u32,
    val: f32,
    a: u32, // internal: left child; leaf: idx start
    b: u32, // internal: right child; leaf: idx end
}

/// Structural stats of a baseline tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimpleTreeStats {
    /// Maximum leaf depth.
    pub max_depth: usize,
    /// Node count.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Construction work counters (comparable to PANDA's).
    pub build: BuildCounters,
}

/// The shared implementation behind [`crate::FlannLikeTree`] and
/// [`crate::AnnLikeTree`].
#[derive(Clone, Debug)]
pub(crate) struct SimpleKdTree {
    points: PointSet,
    idx: Vec<u32>,
    nodes: Vec<SNode>,
    stats: SimpleTreeStats,
}

impl SimpleKdTree {
    pub fn build(points: &PointSet, heuristic: Heuristic) -> Result<Self> {
        points.validate()?;
        let n = points.len();
        let mut tree = SimpleKdTree {
            points: points.clone(),
            idx: (0..n as u32).collect(),
            nodes: Vec::new(),
            stats: SimpleTreeStats::default(),
        };
        if n > 0 {
            let mut idx = std::mem::take(&mut tree.idx);
            let root = tree.rec(&mut idx, 0, 0, heuristic);
            debug_assert_eq!(root, 0, "root is created first (pre-order)");
            tree.idx = idx;
        }
        tree.stats.nodes = tree.nodes.len();
        tree.stats.build.nodes_created = tree.nodes.len() as u64;
        Ok(tree)
    }

    fn rec(&mut self, idx: &mut [u32], offset: usize, depth: usize, h: Heuristic) -> u32 {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let len = idx.len();
        if len <= h.bucket() || depth >= MAX_DEPTH {
            self.stats.leaves += 1;
            self.nodes.push(SNode {
                dim: LEAF,
                val: 0.0,
                a: offset as u32,
                b: (offset + len) as u32,
            });
            return (self.nodes.len() - 1) as u32;
        }
        let (dim, val, left_len) = self.choose_and_partition(idx, h);
        if left_len == 0 || left_len == len {
            // even sliding failed (all points identical): force a leaf
            self.stats.leaves += 1;
            self.nodes.push(SNode {
                dim: LEAF,
                val: 0.0,
                a: offset as u32,
                b: (offset + len) as u32,
            });
            return (self.nodes.len() - 1) as u32;
        }
        let me = self.nodes.len();
        self.nodes.push(SNode {
            dim: dim as u32,
            val,
            a: 0,
            b: 0,
        });
        let (l_idx, r_idx) = idx.split_at_mut(left_len);
        let l = self.rec(l_idx, offset, depth + 1, h);
        let r = self.rec(r_idx, offset + left_len, depth + 1, h);
        self.nodes[me].a = l;
        self.nodes[me].b = r;
        me as u32
    }

    /// Choose (dim, value) per heuristic and partition `idx` in place;
    /// returns (dim, value, left_len).
    fn choose_and_partition(&mut self, idx: &mut [u32], h: Heuristic) -> (usize, f32, usize) {
        let ps = &self.points;
        let dims = ps.dims();
        let len = idx.len();
        let (dim, mut val) = match h {
            Heuristic::FlannLike => {
                let sample = len.min(100);
                self.stats.build.sampled += sample as u64;
                self.stats.build.variance_ops += (sample * dims) as u64;
                let mut best = (0usize, f32::NEG_INFINITY);
                let mut mean_of_best = 0.0f32;
                for d in 0..dims {
                    let mut sum = 0.0f64;
                    let mut sumsq = 0.0f64;
                    for &i in &idx[..sample] {
                        let v = ps.coord(i as usize, d) as f64;
                        sum += v;
                        sumsq += v * v;
                    }
                    let mean = sum / sample as f64;
                    let var = (sumsq / sample as f64 - mean * mean).max(0.0) as f32;
                    if var > best.1 {
                        best = (d, var);
                        mean_of_best = mean as f32;
                    }
                }
                (best.0, mean_of_best)
            }
            Heuristic::AnnLike => {
                self.stats.build.extent_ops += (len * dims) as u64;
                let mut lo = [f32::INFINITY; MAX_DIMS];
                let mut hi = [f32::NEG_INFINITY; MAX_DIMS];
                for &i in idx.iter() {
                    let p = ps.point(i as usize);
                    for d in 0..dims {
                        lo[d] = lo[d].min(p[d]);
                        hi[d] = hi[d].max(p[d]);
                    }
                }
                let mut best = (0usize, f32::NEG_INFINITY);
                for d in 0..dims {
                    if hi[d] - lo[d] > best.1 {
                        best = (d, hi[d] - lo[d]);
                    }
                }
                (best.0, (lo[best.0] + hi[best.0]) * 0.5)
            }
        };

        self.stats.build.partition_ops += len as u64;
        let mut left = partition(ps, idx, dim, val);
        if left == 0 || left == len {
            // ANN's "sliding midpoint": move the plane to the nearest
            // actual coordinate so at least one point changes sides.
            let slide_to = if left == 0 {
                // everything > val: slide up to the min coordinate
                idx.iter()
                    .map(|&i| ps.coord(i as usize, dim))
                    .fold(f32::INFINITY, f32::min)
            } else {
                // everything ≤ val: slide down just below the max
                let max = idx
                    .iter()
                    .map(|&i| ps.coord(i as usize, dim))
                    .fold(f32::NEG_INFINITY, f32::max);
                // plane at the largest value *strictly below* max
                let below = idx
                    .iter()
                    .map(|&i| ps.coord(i as usize, dim))
                    .filter(|&v| v < max)
                    .fold(f32::NEG_INFINITY, f32::max);
                below
            };
            val = slide_to;
            self.stats.build.partition_ops += len as u64;
            left = partition(ps, idx, dim, val);
        }
        (dim, val, left)
    }

    pub fn stats(&self) -> &SimpleTreeStats {
        &self.stats
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn dims(&self) -> usize {
        self.points.dims()
    }

    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        let mut c = QueryCounters::default();
        self.query_counted(q, k, &mut c)
    }

    pub fn query_counted(
        &self,
        q: &[f32],
        k: usize,
        counters: &mut QueryCounters,
    ) -> Result<Vec<Neighbor>> {
        self.query_counted_radius_sq(q, k, f32::INFINITY, counters)
    }

    /// [`Self::query_counted`] with an initial squared search bound
    /// (radius-limited kNN).
    pub fn query_counted_radius_sq(
        &self,
        q: &[f32],
        k: usize,
        radius_sq: f32,
        counters: &mut QueryCounters,
    ) -> Result<Vec<Neighbor>> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if q.len() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: q.len(),
            });
        }
        counters.queries += 1;
        let mut heap = KnnHeap::with_radius_sq(k, radius_sq);
        if self.nodes.is_empty() {
            return Ok(Vec::new());
        }
        // exact side-distance traversal (same bound as PANDA: the
        // comparison is about tree shape and layout, not correctness)
        let mut stack: Vec<(u32, f32, [f32; MAX_DIMS])> = vec![(0, 0.0, [0.0; MAX_DIMS])];
        while let Some((ni, lb, side)) = stack.pop() {
            if lb >= heap.bound_sq() {
                continue;
            }
            let n = self.nodes[ni as usize];
            counters.nodes_visited += 1;
            if n.dim == LEAF {
                counters.leaves_scanned += 1;
                for &i in &self.idx[n.a as usize..n.b as usize] {
                    counters.points_scanned += 1;
                    let d = self.points.dist_sq_to(q, i as usize);
                    if heap.offer(d, self.points.id(i as usize)) {
                        counters.heap_ops += 1;
                    }
                }
            } else {
                let dim = n.dim as usize;
                let off = q[dim] - n.val;
                let (near, far) = if off <= 0.0 { (n.a, n.b) } else { (n.b, n.a) };
                let old = side[dim];
                let far_lb = lb - old * old + off * off;
                if far_lb < heap.bound_sq() {
                    let mut fs = side;
                    fs[dim] = off;
                    stack.push((far, far_lb, fs));
                }
                stack.push((near, lb, side));
            }
        }
        Ok(heap.into_sorted())
    }

    /// Answer a session [`QueryRequest`] as a CSR [`QueryResponse`] —
    /// the shared `NnBackend` plumbing of both wrapper trees. `parallel`
    /// is the wrapper's decision (the paper parallelized FLANN's outer
    /// query loop but not ANN's).
    pub(crate) fn query_session(
        &self,
        req: &QueryRequest<'_>,
        parallel: bool,
    ) -> Result<QueryResponse> {
        let t0 = std::time::Instant::now();
        req.validate()?;
        let queries = req.queries();
        if queries.dims() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: queries.dims(),
            });
        }
        let (k, r_sq) = (req.k(), req.radius_sq());
        let mut counters = QueryCounters::default();
        let mut table = NeighborTable::with_capacity(queries.len(), k);
        if parallel {
            let rows: Vec<(Vec<Neighbor>, QueryCounters)> = (0..queries.len())
                .into_par_iter()
                .map(|i| {
                    let mut c = QueryCounters::default();
                    let r = self.query_counted_radius_sq(queries.point(i), k, r_sq, &mut c)?;
                    Ok::<_, PandaError>((r, c))
                })
                .collect::<Result<_>>()?;
            for (row, c) in rows {
                counters.add(&c);
                table.push_row(&row);
            }
        } else {
            for i in 0..queries.len() {
                let row = self.query_counted_radius_sq(queries.point(i), k, r_sq, &mut counters)?;
                table.push_row(&row);
            }
        }
        Ok(QueryResponse::local(
            table,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }
}

fn partition(ps: &PointSet, idx: &mut [u32], dim: usize, val: f32) -> usize {
    let mut l = 0usize;
    let mut r = idx.len();
    while l < r {
        if ps.coord(idx[l] as usize, dim) <= val {
            l += 1;
        } else {
            r -= 1;
            idx.swap(l, r);
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::random_ps;

    fn brute(ps: &PointSet, q: &[f32], k: usize) -> Vec<f32> {
        let mut h = KnnHeap::new(k);
        for i in 0..ps.len() {
            h.offer(ps.dist_sq_to(q, i), ps.id(i));
        }
        h.into_sorted().iter().map(|n| n.dist_sq).collect()
    }

    #[test]
    fn both_heuristics_are_exact() {
        let ps = random_ps(3000, 3, 1);
        for h in [Heuristic::FlannLike, Heuristic::AnnLike] {
            let tree = SimpleKdTree::build(&ps, h).unwrap();
            for s in 0..20 {
                let qs = random_ps(1, 3, 100 + s);
                let q = qs.point(0);
                let got: Vec<f32> = tree
                    .query(q, 5)
                    .unwrap()
                    .iter()
                    .map(|n| n.dist_sq)
                    .collect();
                assert_eq!(got, brute(&ps, q, 5), "{h:?}");
            }
        }
    }

    #[test]
    fn ann_goes_deep_on_colocated_data() {
        // Exponential density gradient: most mass piles up near x = 0 with
        // a geometric tail to x = 10. A midpoint split of the point bounds
        // strips only the sparse tail each level, so depth grows ~linearly
        // — the mechanism behind the paper's ANN depth 109 vs FLANN 32 on
        // the heavily co-located Daya Bay data. Median-style splits stay
        // logarithmic.
        let mut ps = PointSet::new(3).unwrap();
        for i in 0..800u64 {
            let x = 10.0 * 0.93f32.powi((i % 400) as i32);
            let y = (i % 13) as f32 * 1e-3;
            let z = (i % 7) as f32 * 1e-3;
            ps.push(&[x, y, z], i);
        }
        let ann = SimpleKdTree::build(&ps, Heuristic::AnnLike).unwrap();
        let flann = SimpleKdTree::build(&ps, Heuristic::FlannLike).unwrap();
        assert!(
            ann.stats().max_depth > flann.stats().max_depth + 10,
            "ann depth {} vs flann {}",
            ann.stats().max_depth,
            flann.stats().max_depth
        );
        // still exact
        let q = [5.0f32, 5.0, 5.1];
        let a: Vec<f32> = ann
            .query(&q, 9)
            .unwrap()
            .iter()
            .map(|n| n.dist_sq)
            .collect();
        assert_eq!(a, brute(&ps, &q, 9));
    }

    #[test]
    fn identical_points_terminate() {
        let ps = PointSet::from_coords(2, [3.0f32, 4.0].repeat(500)).unwrap();
        for h in [Heuristic::FlannLike, Heuristic::AnnLike] {
            let tree = SimpleKdTree::build(&ps, h).unwrap();
            let r = tree.query(&[3.0, 4.0], 7).unwrap();
            assert_eq!(r.len(), 7);
            assert!(r.iter().all(|n| n.dist_sq == 0.0), "{h:?}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        let ps = PointSet::new(3).unwrap();
        let tree = SimpleKdTree::build(&ps, Heuristic::FlannLike).unwrap();
        assert!(tree.query(&[0.0; 3], 3).unwrap().is_empty());
        let one = random_ps(1, 3, 3);
        let tree = SimpleKdTree::build(&one, Heuristic::AnnLike).unwrap();
        assert_eq!(tree.query(&[0.0; 3], 3).unwrap().len(), 1);
    }

    #[test]
    fn parallel_batch_matches() {
        let ps = random_ps(2000, 3, 4);
        let qs = random_ps(100, 3, 5);
        let tree = SimpleKdTree::build(&ps, Heuristic::FlannLike).unwrap();
        let req = QueryRequest::knn(&qs, 5);
        let a = tree.query_session(&req, false).unwrap();
        let b = tree.query_session(&req, true).unwrap();
        for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
            let dx: Vec<f32> = x.iter().map(|n| n.dist_sq).collect();
            let dy: Vec<f32> = y.iter().map(|n| n.dist_sq).collect();
            assert_eq!(dx, dy);
        }
        assert_eq!(a.counters, b.counters, "identical traversal counters");
    }

    #[test]
    fn counters_populate() {
        let ps = random_ps(5000, 3, 6);
        let tree = SimpleKdTree::build(&ps, Heuristic::FlannLike).unwrap();
        let s = tree.stats();
        assert!(s.nodes > 100);
        assert!(s.leaves > 50);
        assert!(s.build.partition_ops > 5000);
        let mut c = QueryCounters::default();
        tree.query_counted(&[5.0, 5.0, 5.0], 5, &mut c).unwrap();
        assert!(c.nodes_visited > 0 && c.points_scanned > 0);
    }
}
