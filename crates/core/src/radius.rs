//! Fixed-radius neighbor search — the "easier problem" the paper
//! contrasts KNN against (§I, discussing BD-CATS \[11\]).
//!
//! A single-tree method with no `k` cap, kept as the exact reference
//! for all-points-within-`r` (`tests/knn_graph_and_radius.rs`).
//! Radius-limited KNN, which every backend serves, is
//! `QueryRequest::with_radius` through the one KNN pipeline.

use crate::counters::QueryCounters;
use crate::error::{PandaError, Result};
use crate::heap::Neighbor;
use crate::local_tree::{LocalKdTree, QueryWorkspace, TraversalEntry, NO_APPLY};

impl LocalKdTree {
    /// **All** points strictly within `radius` of `q` (no k cap),
    /// ascending by distance. Exact.
    pub fn query_radius_all(&self, q: &[f32], radius: f32) -> Result<Vec<Neighbor>> {
        if radius.is_nan() || radius <= 0.0 {
            return Err(PandaError::BadRadius { radius });
        }
        if q.len() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: q.len(),
            });
        }
        let mut out = Vec::new();
        let mut ws = QueryWorkspace::new();
        let mut counters = QueryCounters::default();
        self.radius_into(q, radius * radius, &mut out, &mut ws, &mut counters);
        out.sort_by(|a, b| {
            a.dist_sq
                .partial_cmp(&b.dist_sq)
                .expect("finite")
                .then(a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// Core fixed-radius traversal (appends unsorted matches). Shares the
    /// undo-log side-state machinery ([`QueryWorkspace::restore_path`])
    /// with the KNN traversal; the only difference is the fixed bound —
    /// the radius never tightens, so no re-check on pop is needed.
    pub(crate) fn radius_into(
        &self,
        q: &[f32],
        r_sq: f32,
        out: &mut Vec<Neighbor>,
        ws: &mut QueryWorkspace,
        counters: &mut QueryCounters,
    ) {
        counters.queries += 1;
        if self.nodes.is_empty() {
            return;
        }
        ws.reset(self.dims());
        ws.stack.push(TraversalEntry {
            node: 0,
            lb_sq: 0.0,
            undo_len: 0,
            apply_dim: NO_APPLY,
            apply_off: 0.0,
        });
        while let Some(e) = ws.stack.pop() {
            let node = self.nodes[e.node as usize];
            counters.nodes_visited += 1;
            if node.is_leaf() {
                // Leaves never read the side array — skip the restore.
                counters.leaves_scanned += 1;
                let base = node.a as usize;
                let cap = crate::local_tree::padded_len(node.b as usize);
                let stats = self.leaves.scan_and_collect(base, cap, q, r_sq, out);
                counters.points_scanned += cap as u64;
                counters.leaf_kernel_calls += 1;
                counters.kernel_blocks_pruned += stats.pruned_blocks as u64;
                counters.heap_ops += stats.accepted as u64;
            } else {
                ws.restore_path(&e);
                let dim = node.split_dim as usize;
                let off = q[dim] - node.split_val;
                let (near, far) = if off <= 0.0 {
                    (node.a, node.b)
                } else {
                    (node.b, node.a)
                };
                let old = ws.side[dim];
                let far_lb = e.lb_sq - old * old + off * off;
                let checkpoint = ws.undo.len() as u32;
                if far_lb < r_sq {
                    ws.stack.push(TraversalEntry {
                        node: far,
                        lb_sq: far_lb,
                        undo_len: checkpoint,
                        apply_dim: dim as u32,
                        apply_off: off,
                    });
                }
                ws.stack.push(TraversalEntry {
                    node: near,
                    lb_sq: e.lb_sq,
                    undo_len: checkpoint,
                    apply_dim: NO_APPLY,
                    apply_off: 0.0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::point::PointSet;
    use crate::rng::SplitRng;

    fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims)
                .map(|_| (rng.next_f64() * 10.0) as f32)
                .collect(),
        )
        .unwrap()
    }

    fn brute_radius(ps: &PointSet, q: &[f32], r: f32) -> Vec<(f32, u64)> {
        let mut out: Vec<(f32, u64)> = (0..ps.len())
            .filter_map(|i| {
                let d = ps.dist_sq_to(q, i);
                (d < r * r).then_some((d, ps.id(i)))
            })
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out
    }

    #[test]
    fn local_radius_matches_brute() {
        let ps = random_ps(3000, 3, 1);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        for (qseed, r) in [(2u64, 0.5f32), (3, 1.5), (4, 5.0)] {
            let qs = random_ps(1, 3, qseed * 97);
            let q = qs.point(0);
            let got: Vec<(f32, u64)> = tree
                .query_radius_all(q, r)
                .unwrap()
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            assert_eq!(got, brute_radius(&ps, q, r), "r={r}");
        }
    }

    #[test]
    fn local_radius_validates() {
        let ps = random_ps(100, 3, 5);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        for r in [0.0, -1.0, f32::NAN] {
            assert!(
                matches!(
                    tree.query_radius_all(&[0.0; 3], r),
                    Err(PandaError::BadRadius { .. })
                ),
                "{r}"
            );
        }
        assert!(matches!(
            tree.query_radius_all(&[0.0; 2], 1.0),
            Err(PandaError::DimsMismatch { .. })
        ));
    }
}
