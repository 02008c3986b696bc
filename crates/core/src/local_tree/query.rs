//! Local KNN traversal — Algorithm 1 of the paper.
//!
//! Iterative traversal with an explicit stack and a bounded candidate heap.
//! Two lower-bound modes (see [`BoundMode`]):
//!
//! * `Exact` — per-dimension side-distance replacement (Arya–Mount): the
//!   workspace keeps **one** live side-offset array for the whole
//!   traversal; crossing a split plane *replaces* the offset along that
//!   dimension and records a `(dim, old value)` undo entry. Popping a
//!   stack entry rewinds the undo log to that entry's checkpoint, so the
//!   live array always equals the path state of the node being expanded —
//!   without copying a `[f32; MAX_DIMS]` per stack push. The resulting
//!   bound equals the true query↔cell distance, so pruning can never
//!   discard a true neighbor.
//! * `PaperScalar` — the accumulation exactly as printed in Algorithm 1
//!   (`d' ← √(d·d + d'·d')`), which over-estimates when a dimension
//!   repeats along a path. Kept for the fidelity ablation.
//!
//! Leaf buckets go through the fused scan-and-offer kernel
//! ([`super::PackedLeaves::scan_and_offer_filtered`]): distances are
//! computed and compared against the heap bound in one pass, with no
//! intermediate distance buffer. A filtered traversal
//! ([`LocalKdTree::query_into_filtered`]) hands its `live` predicate to
//! that kernel; [`LocalKdTree::query_into`] passes `|_| true`.

use crate::config::BoundMode;
use crate::counters::QueryCounters;
use crate::error::{PandaError, Result};
use crate::heap::{KnnHeap, Neighbor};
use crate::point::MAX_DIMS;

use super::layout::padded;
use super::LocalKdTree;

/// Reusable per-thread scratch for traversals: the stack, the single live
/// side-offset array, and its undo log. No allocation per query once the
/// vectors have grown; reusing one workspace across a whole batch is the
/// intended pattern.
#[derive(Clone, Debug, Default)]
pub struct QueryWorkspace {
    pub(crate) stack: Vec<Entry>,
    /// Live signed offsets of the query to the current path's cell, one
    /// per dimension (Arya–Mount incremental bound state).
    pub(crate) side: [f32; MAX_DIMS],
    /// Undo log of `(dim, previous value)` side mutations.
    pub(crate) undo: Vec<(u32, f32)>,
}

/// Sentinel for "this entry does not modify the side array".
pub(crate) const NO_APPLY: u32 = u32::MAX;

/// One pending subtree visit (20 bytes — the seed carried a 64-byte side
/// array copy per entry).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) node: u32,
    pub(crate) lb_sq: f32,
    /// Undo-log length when this entry was pushed: popping rewinds to it.
    pub(crate) undo_len: u32,
    /// Dimension whose side offset this entry replaces (far children), or
    /// [`NO_APPLY`] (near children: the path state is unchanged).
    pub(crate) apply_dim: u32,
    /// New side offset along `apply_dim`.
    pub(crate) apply_off: f32,
}

impl QueryWorkspace {
    /// Fresh workspace.
    pub fn new() -> Self {
        Self {
            stack: Vec::with_capacity(128),
            side: [0.0; MAX_DIMS],
            undo: Vec::with_capacity(64),
        }
    }

    /// Reset for a new query (cheap: clears the stack/log, zeroes the
    /// live side array).
    #[inline]
    pub(crate) fn reset(&mut self, dims: usize) {
        self.stack.clear();
        self.undo.clear();
        self.side[..dims].fill(0.0);
    }

    /// Rewind the live side array to `entry`'s checkpoint, then apply its
    /// own side mutation (if any). After this the live array equals the
    /// root→entry path state exactly.
    #[inline]
    pub(crate) fn restore_path(&mut self, e: &Entry) {
        while self.undo.len() > e.undo_len as usize {
            let (d, v) = self.undo.pop().expect("undo log underflow");
            self.side[d as usize] = v;
        }
        if e.apply_dim != NO_APPLY {
            let d = e.apply_dim as usize;
            self.undo.push((e.apply_dim, self.side[d]));
            self.side[d] = e.apply_off;
        }
    }
}

impl LocalKdTree {
    /// Find the `k` nearest neighbors of `q` (ascending distance).
    /// Convenience wrapper over [`Self::query_into`].
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.query_radius(q, k, f32::INFINITY)
    }

    /// `k` nearest neighbors within `radius` (Euclidean, exclusive bound).
    pub fn query_radius(&self, q: &[f32], k: usize, radius: f32) -> Result<Vec<Neighbor>> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if q.len() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: q.len(),
            });
        }
        let radius_sq = if radius.is_finite() {
            radius * radius
        } else {
            f32::INFINITY
        };
        let mut heap = KnnHeap::with_radius_sq(k, radius_sq);
        let mut ws = QueryWorkspace::new();
        let mut counters = QueryCounters::default();
        self.query_into(q, &mut heap, BoundMode::Exact, &mut ws, &mut counters);
        Ok(heap.into_sorted())
    }

    /// Core traversal: refine `heap` with the nearest points of this tree.
    ///
    /// The heap may arrive pre-seeded with an initial radius (remote
    /// queries carry the owner's `r'`) — the traversal then prunes against
    /// it from the start (§III-B step 4).
    ///
    /// The caller guarantees `q.len() == self.dims()`.
    pub fn query_into(
        &self,
        q: &[f32],
        heap: &mut KnnHeap,
        mode: BoundMode,
        ws: &mut QueryWorkspace,
        counters: &mut QueryCounters,
    ) {
        self.query_into_filtered(q, heap, mode, ws, counters, |_| true);
    }

    /// [`Self::query_into`] over the points whose id satisfies `live`.
    /// The leaf kernel rejects the others before they reach the heap, so
    /// the bound is always the k-th nearest *live* distance and pruning
    /// runs as if the tree held the live points only: the distances
    /// equal those of an unfiltered query over a tree built from them.
    pub fn query_into_filtered<F: Fn(u64) -> bool + Copy>(
        &self,
        q: &[f32],
        heap: &mut KnnHeap,
        mode: BoundMode,
        ws: &mut QueryWorkspace,
        counters: &mut QueryCounters,
        live: F,
    ) {
        debug_assert_eq!(q.len(), self.dims);
        counters.queries += 1;
        if self.nodes.is_empty() {
            return;
        }
        ws.reset(self.dims);
        ws.stack.push(Entry {
            node: 0,
            lb_sq: 0.0,
            undo_len: 0,
            apply_dim: NO_APPLY,
            apply_off: 0.0,
        });

        while let Some(e) = ws.stack.pop() {
            // The bound may have tightened since this entry was pushed.
            // Pruned entries are dropped without touching the side state:
            // the next expanded entry rewinds to its own checkpoint anyway.
            if e.lb_sq >= heap.bound_sq() {
                continue;
            }
            let node = self.nodes[e.node as usize];
            counters.nodes_visited += 1;
            if node.is_leaf() {
                // Leaves never read the side array — skip the restore.
                counters.leaves_scanned += 1;
                let base = node.a as usize;
                let n = node.b as usize;
                let cap = padded(n);
                let stats = self
                    .leaves
                    .scan_and_offer_filtered(base, cap, q, heap, live);
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
                let far_lb = match mode {
                    BoundMode::Exact => {
                        let old = ws.side[dim];
                        e.lb_sq - old * old + off * off
                    }
                    BoundMode::PaperScalar => e.lb_sq + off * off,
                };
                let undo_len = ws.undo.len() as u32;
                if far_lb < heap.bound_sq() {
                    ws.stack.push(Entry {
                        node: far,
                        lb_sq: far_lb,
                        undo_len,
                        apply_dim: dim as u32,
                        apply_off: off,
                    });
                }
                // Near child pushed last so it is explored first — this is
                // what makes the bound shrink early (paper §III-C). Its
                // path state is the current one, unchanged.
                ws.stack.push(Entry {
                    node: near,
                    lb_sq: e.lb_sq,
                    undo_len,
                    apply_dim: NO_APPLY,
                    apply_off: 0.0,
                });
            }
        }
    }
}

#[cfg(test)]
impl LocalKdTree {
    /// Reference traversal kept for differential testing: the
    /// pre-optimization implementation with a full `[f32; MAX_DIMS]`
    /// side-array copy on every stack push and a two-pass leaf scan
    /// (`distances()` into a buffer, then a scalar offer loop). Produces
    /// results bit-identical to [`Self::query_into`];
    /// `fused_traversal_matches_reference_traversal` below holds the
    /// fused hot path to that.
    fn query_into_reference(
        &self,
        q: &[f32],
        heap: &mut KnnHeap,
        mode: BoundMode,
        counters: &mut QueryCounters,
    ) {
        debug_assert_eq!(q.len(), self.dims);
        counters.queries += 1;
        if self.nodes.is_empty() {
            return;
        }
        struct RefEntry {
            node: u32,
            lb_sq: f32,
            side: [f32; MAX_DIMS],
        }
        let mut dists: Vec<f32> = Vec::new();
        let mut stack: Vec<RefEntry> = vec![RefEntry {
            node: 0,
            lb_sq: 0.0,
            side: [0.0; MAX_DIMS],
        }];
        while let Some(e) = stack.pop() {
            if e.lb_sq >= heap.bound_sq() {
                continue;
            }
            let node = self.nodes[e.node as usize];
            counters.nodes_visited += 1;
            if node.is_leaf() {
                counters.leaves_scanned += 1;
                let base = node.a as usize;
                let cap = padded(node.b as usize);
                self.leaves.distances(base, cap, q, &mut dists);
                counters.points_scanned += cap as u64;
                let ids = &self.leaves.ids()[base..base + cap];
                for i in 0..cap {
                    let d = dists[i];
                    if d < heap.bound_sq() && heap.offer(d, ids[i]) {
                        counters.heap_ops += 1;
                    }
                }
            } else {
                let dim = node.split_dim as usize;
                let off = q[dim] - node.split_val;
                let (near, far) = if off <= 0.0 {
                    (node.a, node.b)
                } else {
                    (node.b, node.a)
                };
                let far_lb = match mode {
                    BoundMode::Exact => {
                        let old = e.side[dim];
                        e.lb_sq - old * old + off * off
                    }
                    BoundMode::PaperScalar => e.lb_sq + off * off,
                };
                if far_lb < heap.bound_sq() {
                    let mut side = e.side;
                    side[dim] = off;
                    stack.push(RefEntry {
                        node: far,
                        lb_sq: far_lb,
                        side,
                    });
                }
                stack.push(RefEntry {
                    node: near,
                    lb_sq: e.lb_sq,
                    side: e.side,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::local_tree::tests::{brute_knn, random_points};
    use crate::point::PointSet;
    use crate::rng::SplitRng;

    fn check_matches_brute(ps: &PointSet, tree: &LocalKdTree, q: &[f32], k: usize) {
        let got: Vec<f32> = tree
            .query(q, k)
            .unwrap()
            .iter()
            .map(|n| n.dist_sq)
            .collect();
        let expect: Vec<f32> = brute_knn(ps, q, k).iter().map(|p| p.0).collect();
        assert_eq!(got, expect, "k={k} q={q:?}");
    }

    #[test]
    fn exact_against_brute_force_3d() {
        let ps = random_points(4000, 3, 21);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let mut rng = SplitRng::new(99);
        for _ in 0..50 {
            let q: Vec<f32> = (0..3).map(|_| (rng.next_f64() * 10.0) as f32).collect();
            for k in [1, 5, 17] {
                check_matches_brute(&ps, &tree, &q, k);
            }
        }
    }

    #[test]
    fn exact_against_brute_force_high_dims() {
        for dims in [2usize, 10, 15] {
            let ps = random_points(1500, dims, 31 + dims as u64);
            let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
            let mut rng = SplitRng::new(7);
            for _ in 0..20 {
                let q: Vec<f32> = (0..dims).map(|_| (rng.next_f64() * 10.0) as f32).collect();
                check_matches_brute(&ps, &tree, &q, 5);
            }
        }
    }

    #[test]
    fn queries_far_outside_the_domain() {
        let ps = random_points(2000, 3, 5);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        for q in [[-100.0f32, -100.0, -100.0], [1e6, 0.0, 0.0]] {
            check_matches_brute(&ps, &tree, &q, 3);
        }
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let ps = random_points(10, 3, 5);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let res = tree.query(&[0.0; 3], 50).unwrap();
        assert_eq!(res.len(), 10);
        // sorted ascending
        for w in res.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }

    #[test]
    fn radius_limits_results() {
        // grid of points at integer coordinates on a line
        let ps = PointSet::from_coords(1, (0..100).map(|i| i as f32).collect()).unwrap();
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let res = tree.query_radius(&[50.2], 10, 2.0).unwrap();
        // strictly within distance 2.0 of 50.2: 49, 50, 51, 52
        assert_eq!(res.len(), 4);
        assert!(res.iter().all(|n| n.dist() < 2.0));
        // and the same query unrestricted returns 10
        assert_eq!(tree.query(&[50.2], 10).unwrap().len(), 10);
    }

    #[test]
    fn query_on_dataset_points_returns_self_first() {
        let ps = random_points(500, 3, 77);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        for i in [0usize, 123, 499] {
            let q = ps.point(i).to_vec();
            let res = tree.query(&q, 1).unwrap();
            assert_eq!(res[0].dist_sq, 0.0);
        }
    }

    #[test]
    fn validates_inputs() {
        let ps = random_points(100, 3, 1);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        assert!(matches!(tree.query(&[0.0; 3], 0), Err(PandaError::ZeroK)));
        assert!(matches!(
            tree.query(&[0.0; 2], 1),
            Err(PandaError::DimsMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn paper_scalar_bound_visits_no_more_nodes_than_exact() {
        // The scalar bound is never smaller than the exact bound, so it can
        // only prune *more* (that is exactly why it can be wrong).
        let ps = random_points(3000, 3, 13);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let mut rng = SplitRng::new(3);
        let mut exact_nodes = 0u64;
        let mut scalar_nodes = 0u64;
        for _ in 0..30 {
            let q: Vec<f32> = (0..3).map(|_| (rng.next_f64() * 10.0) as f32).collect();
            let mut rows = Vec::new();
            for (mode, acc) in [
                (BoundMode::Exact, &mut exact_nodes),
                (BoundMode::PaperScalar, &mut scalar_nodes),
            ] {
                let mut heap = KnnHeap::new(5);
                let mut ws = QueryWorkspace::new();
                let mut c = QueryCounters::default();
                tree.query_into(&q, &mut heap, mode, &mut ws, &mut c);
                *acc += c.nodes_visited;
                rows.push(heap.into_sorted());
            }
            // a mis-pruned true neighbor is replaced by a farther one, so
            // per slot the scalar distance is never below the exact one
            let (exact, scalar) = (&rows[0], &rows[1]);
            assert_eq!(exact.len(), scalar.len());
            for (e, s) in exact.iter().zip(scalar) {
                assert!(
                    s.dist_sq >= e.dist_sq,
                    "scalar bound invented a closer neighbor"
                );
            }
        }
        // (Not a strict theorem — a mis-pruned true neighbor can keep the
        // heap bound looser — but on uniform data the aggregate holds with
        // a generous margin.)
        assert!(
            scalar_nodes <= exact_nodes + exact_nodes / 10 + 32,
            "scalar {scalar_nodes} vs exact {exact_nodes}"
        );
    }

    #[test]
    fn counters_reflect_traversal() {
        let ps = random_points(5000, 3, 17);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let mut heap = KnnHeap::new(5);
        let mut ws = QueryWorkspace::new();
        let mut c = QueryCounters::default();
        tree.query_into(
            &[5.0, 5.0, 5.0],
            &mut heap,
            BoundMode::Exact,
            &mut ws,
            &mut c,
        );
        assert_eq!(c.queries, 1);
        assert!(c.nodes_visited > 0);
        assert!(c.leaves_scanned > 0);
        assert!(c.points_scanned >= c.leaves_scanned * 8);
        assert!(c.heap_ops >= 5);
        // pruning must be effective: nowhere near the full ~5000/32 leaves
        let total_leaves = tree.stats().n_leaves as u64;
        assert!(
            c.leaves_scanned < total_leaves / 2,
            "scanned {} of {total_leaves} leaves",
            c.leaves_scanned
        );
    }

    #[test]
    fn pre_seeded_radius_prunes_remote_style() {
        let ps = random_points(5000, 3, 19);
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        let q = [5.0f32, 5.0, 5.0];
        // owner pass: get true k-th distance
        let full = tree.query(&q, 5).unwrap();
        let r_sq = full[4].dist_sq;
        // remote pass with the owner's bound: must scan far fewer leaves
        let mut c_full = QueryCounters::default();
        let mut c_seeded = QueryCounters::default();
        let mut ws = QueryWorkspace::new();
        let mut h1 = KnnHeap::new(5);
        tree.query_into(&q, &mut h1, BoundMode::Exact, &mut ws, &mut c_full);
        let mut h2 = KnnHeap::with_radius_sq(5, r_sq);
        tree.query_into(&q, &mut h2, BoundMode::Exact, &mut ws, &mut c_seeded);
        assert!(c_seeded.leaves_scanned <= c_full.leaves_scanned);
        // seeded results are a subset: strictly closer than r'
        assert!(h2.into_sorted().iter().all(|n| n.dist_sq < r_sq));
    }

    #[test]
    fn fused_traversal_matches_reference_traversal() {
        // The optimized path (undo-log stack + fused kernel) must be
        // indistinguishable from the seed implementation: same results,
        // same nodes visited, same leaves scanned, same accepted offers.
        for dims in [2usize, 3, 10, 15] {
            let ps = random_points(3000, dims, 101 + dims as u64);
            let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
            let mut rng = SplitRng::new(55);
            for _ in 0..20 {
                let q: Vec<f32> = (0..dims)
                    .map(|_| (rng.next_f64() * 12.0 - 1.0) as f32)
                    .collect();
                for mode in [BoundMode::Exact, BoundMode::PaperScalar] {
                    let mut h_new = KnnHeap::new(7);
                    let mut h_ref = KnnHeap::new(7);
                    let mut ws = QueryWorkspace::new();
                    let mut c_new = QueryCounters::default();
                    let mut c_ref = QueryCounters::default();
                    tree.query_into(&q, &mut h_new, mode, &mut ws, &mut c_new);
                    tree.query_into_reference(&q, &mut h_ref, mode, &mut c_ref);
                    let a: Vec<(f32, u64)> = h_new
                        .into_sorted()
                        .iter()
                        .map(|n| (n.dist_sq, n.id))
                        .collect();
                    let b: Vec<(f32, u64)> = h_ref
                        .into_sorted()
                        .iter()
                        .map(|n| (n.dist_sq, n.id))
                        .collect();
                    assert_eq!(a, b, "dims={dims} mode={mode:?}");
                    assert_eq!(c_new.nodes_visited, c_ref.nodes_visited);
                    assert_eq!(c_new.leaves_scanned, c_ref.leaves_scanned);
                    assert_eq!(c_new.points_scanned, c_ref.points_scanned);
                    assert_eq!(c_new.heap_ops, c_ref.heap_ops);
                }
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_queries_and_trees() {
        // one workspace driven across many queries and two different trees
        // must behave exactly like a fresh workspace each time
        let ps_a = random_points(2000, 3, 61);
        let ps_b = random_points(1500, 5, 62);
        let tree_a = LocalKdTree::build(&ps_a, &TreeConfig::default()).unwrap();
        let tree_b = LocalKdTree::build(&ps_b, &TreeConfig::default()).unwrap();
        let mut shared = QueryWorkspace::new();
        let mut rng = SplitRng::new(63);
        for i in 0..30 {
            let (dims, tree, ps): (usize, &LocalKdTree, &PointSet) = if i % 2 == 0 {
                (3, &tree_a, &ps_a)
            } else {
                (5, &tree_b, &ps_b)
            };
            let q: Vec<f32> = (0..dims).map(|_| (rng.next_f64() * 10.0) as f32).collect();
            let mut h_shared = KnnHeap::new(4);
            let mut h_fresh = KnnHeap::new(4);
            let mut c1 = QueryCounters::default();
            let mut c2 = QueryCounters::default();
            tree.query_into(&q, &mut h_shared, BoundMode::Exact, &mut shared, &mut c1);
            let mut fresh = QueryWorkspace::new();
            tree.query_into(&q, &mut h_fresh, BoundMode::Exact, &mut fresh, &mut c2);
            let a: Vec<(f32, u64)> = h_shared
                .into_sorted()
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            let b: Vec<(f32, u64)> = h_fresh
                .into_sorted()
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            assert_eq!(a, b, "iteration {i}");
            let expect: Vec<(f32, u64)> = brute_knn(ps, &q, 4);
            assert_eq!(a, expect, "iteration {i} vs brute");
        }
    }

    #[test]
    fn duplicate_heavy_data_is_exact() {
        // Daya-Bay-like co-location: many identical records
        let mut coords = Vec::new();
        let mut rng = SplitRng::new(4);
        for i in 0..2000 {
            if i % 4 == 0 {
                coords.extend_from_slice(&[1.0f32, 2.0, 3.0]); // co-located cluster
            } else {
                coords.extend([
                    (rng.next_f64() * 4.0) as f32,
                    (rng.next_f64() * 4.0) as f32,
                    (rng.next_f64() * 4.0) as f32,
                ]);
            }
        }
        let ps = PointSet::from_coords(3, coords).unwrap();
        let tree = LocalKdTree::build(&ps, &TreeConfig::default()).unwrap();
        for k in [1usize, 5, 40] {
            let got: Vec<f32> = tree
                .query(&[1.0, 2.0, 3.0], k)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect();
            let expect: Vec<f32> = brute_knn(&ps, &[1.0, 2.0, 3.0], k)
                .iter()
                .map(|p| p.0)
                .collect();
            assert_eq!(got, expect, "k={k}");
        }
    }
}
