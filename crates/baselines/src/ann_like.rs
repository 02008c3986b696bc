//! ANN-style kd-tree (paper §V-B2): "ANN … uses upper and lower bound of
//! each dimension and select\[s\] the dimension with maximum difference.
//! Then it takes the average of the lower and upper values of that
//! dimension to compute median." Midpoint splits degrade badly on
//! co-located data (the paper measured depth 109 vs FLANN's 32 on the
//! Daya Bay dataset); the reproduction includes ANN's sliding-midpoint
//! rescue and a depth cap.

use panda_core::engine::{NnBackend, QueryRequest, QueryResponse};
use panda_core::{Neighbor, PointSet, QueryCounters, Result};

use crate::simple_tree::{Heuristic, SimpleKdTree, SimpleTreeStats};

/// Single-threaded kd-tree with ANN's split heuristics.
#[derive(Clone, Debug)]
pub struct AnnLikeTree {
    inner: SimpleKdTree,
}

impl AnnLikeTree {
    /// Build (single-threaded).
    pub fn build(points: &PointSet) -> Result<Self> {
        Ok(Self {
            inner: SimpleKdTree::build(points, Heuristic::AnnLike)?,
        })
    }

    /// `k` nearest neighbors (exact).
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.inner.query(q, k)
    }

    /// `k` nearest neighbors with traversal counters.
    pub fn query_counted(
        &self,
        q: &[f32],
        k: usize,
        counters: &mut QueryCounters,
    ) -> Result<Vec<Neighbor>> {
        self.inner.query_counted(q, k, counters)
    }

    /// Tree statistics (depth, node counts, build work).
    pub fn stats(&self) -> &SimpleTreeStats {
        self.inner.stats()
    }

    /// Indexed point count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

impl NnBackend for AnnLikeTree {
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        // ANN's query loop is never parallelized (§V-B2); the request's
        // `parallel` knob is ignored, not an error.
        self.inner.query_session(req, false)
    }

    fn name(&self) -> &'static str {
        "ann-like"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use crate::tests_support::random_ps;

    #[test]
    fn exact_vs_brute_force() {
        let ps = random_ps(3000, 3, 1);
        let tree = AnnLikeTree::build(&ps).unwrap();
        let bf = BruteForce::new(&ps);
        let qs = random_ps(25, 3, 2);
        for i in 0..qs.len() {
            let a: Vec<f32> = tree
                .query(qs.point(i), 7)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            let b: Vec<f32> = bf
                .query(qs.point(i), 7)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bucket_of_one_means_many_nodes() {
        let ps = random_ps(2000, 3, 3);
        let tree = AnnLikeTree::build(&ps).unwrap();
        // bucket size 1 → roughly one leaf per point
        assert!(tree.stats().leaves > 1000, "leaves {}", tree.stats().leaves);
    }
}
