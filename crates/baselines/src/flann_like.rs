//! FLANN-style kd-tree (paper §V-B2): "FLANN uses variance to select a
//! dimension and then takes an average of the first 100 points over that
//! dimension to compute median during the kd-tree construction."

use panda_core::engine::{NnBackend, QueryRequest, QueryResponse};
use panda_core::{Neighbor, PointSet, QueryCounters, Result};

use crate::simple_tree::{Heuristic, SimpleKdTree, SimpleTreeStats};

/// Single-threaded kd-tree with FLANN's split heuristics.
#[derive(Clone, Debug)]
pub struct FlannLikeTree {
    inner: SimpleKdTree,
}

impl FlannLikeTree {
    /// Build (single-threaded, like the original — "neither FLANN nor ANN
    /// can run \[construction\] in parallel").
    pub fn build(points: &PointSet) -> Result<Self> {
        Ok(Self {
            inner: SimpleKdTree::build(points, Heuristic::FlannLike)?,
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

impl NnBackend for FlannLikeTree {
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        // the paper parallelized FLANN's outer query loop
        self.inner
            .query_session(req, req.parallel().unwrap_or(false))
    }

    fn name(&self) -> &'static str {
        "flann-like"
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
        let ps = random_ps(4000, 10, 1);
        let tree = FlannLikeTree::build(&ps).unwrap();
        let bf = BruteForce::new(&ps);
        let qs = random_ps(25, 10, 2);
        for i in 0..qs.len() {
            let a: Vec<f32> = tree
                .query(qs.point(i), 5)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            let b: Vec<f32> = bf
                .query(qs.point(i), 5)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reasonable_depth_on_uniform_data() {
        let ps = random_ps(10_000, 3, 3);
        let tree = FlannLikeTree::build(&ps).unwrap();
        // ~log2(10000/10) ≈ 10 with mean splits wobbling around median
        assert!(
            tree.stats().max_depth < 40,
            "depth {}",
            tree.stats().max_depth
        );
        assert_eq!(tree.len(), 10_000);
    }
}
