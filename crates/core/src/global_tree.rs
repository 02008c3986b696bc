//! The replicated global kd-tree: a BSP over rank domains.
//!
//! The top `⌈log₂ P⌉` levels of the distributed tree partition space among
//! ranks (§III-A(i)). Every rank holds an identical copy (it is tiny:
//! `P − 1` internal nodes), which enables two query-time operations without
//! any communication:
//!
//! * [`GlobalKdTree::owner`] — which rank's cell contains a query point;
//! * [`GlobalKdTree::ranks_in_ball`] — which ranks' cells intersect the
//!   ball `(q, r')`, i.e. who could hold a closer neighbor (§III-B step 3).
//!
//! Cell distances use the same exact side-distance computation as the
//! local traversal, optionally refined by per-rank *point* bounding boxes
//! (cells are unbounded; the actual points occupy a sub-box).

use std::collections::HashMap;

use crate::counters::QueryCounters;
use crate::point::{BoundingBox, MAX_DIMS};

const LEAF: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct GNode {
    split_dim: u32,
    split_val: f32,
    /// internal: left child; leaf: owning rank
    a: u32,
    /// internal: right child; leaf: unused
    b: u32,
}

/// One split decision of the recursive rank-group halving.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalSplit {
    /// First rank of the group that was split.
    pub lo: usize,
    /// One past the last rank of the group.
    pub hi: usize,
    /// Split dimension.
    pub dim: usize,
    /// Split value (points with `v ≤ value` belong to the left half).
    pub value: f32,
}

/// Midpoint rule shared by construction and the global tree: group
/// `lo..hi` splits into `lo..mid` and `mid..hi`.
#[inline]
pub fn group_mid(lo: usize, hi: usize) -> usize {
    lo + (hi - lo) / 2
}

/// The replicated rank-domain BSP.
#[derive(Clone, Debug)]
pub struct GlobalKdTree {
    dims: usize,
    ranks: usize,
    nodes: Vec<GNode>,
    levels: usize,
    rank_bbox: Option<Vec<BoundingBox>>,
}

impl GlobalKdTree {
    /// Assemble the tree from the split decisions of every group that was
    /// halved during construction. `splits` must contain exactly one entry
    /// per internal group (every `lo..hi` with `hi - lo ≥ 2` reachable by
    /// recursive halving from `0..ranks`).
    pub fn from_splits(dims: usize, ranks: usize, splits: &[GlobalSplit]) -> Self {
        assert!(ranks >= 1);
        let by_group: HashMap<(usize, usize), &GlobalSplit> =
            splits.iter().map(|s| ((s.lo, s.hi), s)).collect();
        let mut nodes = Vec::with_capacity(2 * ranks);
        let mut levels = 0usize;
        build(&by_group, &mut nodes, &mut levels, 0, ranks, 0);
        return Self {
            dims,
            ranks,
            nodes,
            levels,
            rank_bbox: None,
        };

        fn build(
            by_group: &HashMap<(usize, usize), &GlobalSplit>,
            nodes: &mut Vec<GNode>,
            levels: &mut usize,
            lo: usize,
            hi: usize,
            depth: usize,
        ) -> u32 {
            *levels = (*levels).max(depth);
            let me = nodes.len() as u32;
            if hi - lo == 1 {
                nodes.push(GNode {
                    split_dim: LEAF,
                    split_val: 0.0,
                    a: lo as u32,
                    b: 0,
                });
                return me;
            }
            let s = by_group
                .get(&(lo, hi))
                .unwrap_or_else(|| panic!("missing global split for group {lo}..{hi}"));
            nodes.push(GNode {
                split_dim: s.dim as u32,
                split_val: s.value,
                a: 0,
                b: 0,
            });
            let mid = group_mid(lo, hi);
            let l = build(by_group, nodes, levels, lo, mid, depth + 1);
            let r = build(by_group, nodes, levels, mid, hi, depth + 1);
            nodes[me as usize].a = l;
            nodes[me as usize].b = r;
            me
        }
    }

    /// Trivial tree for a single rank.
    pub fn single_rank(dims: usize) -> Self {
        Self::from_splits(dims, 1, &[])
    }

    /// Attach per-rank point bounding boxes (refines
    /// [`Self::ranks_in_ball`]). `boxes[r]` is rank `r`'s tight box, or an
    /// empty box if the rank holds no points.
    pub fn set_rank_bboxes(&mut self, boxes: Vec<BoundingBox>) {
        assert_eq!(boxes.len(), self.ranks);
        self.rank_bbox = Some(boxes);
    }

    /// Whether bbox refinement is active.
    pub fn has_rank_bboxes(&self) -> bool {
        self.rank_bbox.is_some()
    }

    /// Number of ranks partitioned.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Depth of the rank partition (`⌈log₂ P⌉`).
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The rank whose cell contains `q`. Counts walked levels into
    /// `counters` (owner lookup is ~3% of query time in the paper).
    pub fn owner(&self, q: &[f32], counters: &mut QueryCounters) -> usize {
        debug_assert_eq!(q.len(), self.dims);
        counters.owner_lookups += 1;
        let mut ni = 0u32;
        loop {
            let n = self.nodes[ni as usize];
            if n.split_dim == LEAF {
                return n.a as usize;
            }
            counters.tree_levels += 1;
            ni = if q[n.split_dim as usize] <= n.split_val {
                n.a
            } else {
                n.b
            };
        }
    }

    /// All ranks whose region could contain a point strictly closer than
    /// `r_sq` to `q` (exact cell distance; refined by rank bboxes when
    /// attached). Appends to `out` in ascending rank order.
    pub fn ranks_in_ball(
        &self,
        q: &[f32],
        r_sq: f32,
        out: &mut Vec<usize>,
        counters: &mut QueryCounters,
    ) {
        debug_assert_eq!(q.len(), self.dims);
        // Depth-first with exact side-distance bounds; cells are visited
        // left-to-right, so output is ascending by rank.
        let mut stack: Vec<(u32, f32, [f32; MAX_DIMS])> = vec![(0, 0.0, [0.0; MAX_DIMS])];
        while let Some((ni, lb_sq, side)) = stack.pop() {
            if lb_sq >= r_sq {
                continue;
            }
            let n = self.nodes[ni as usize];
            if n.split_dim == LEAF {
                let rank = n.a as usize;
                if let Some(boxes) = &self.rank_bbox {
                    let bb = &boxes[rank];
                    if bb.is_empty() || bb.min_dist_sq(q) >= r_sq {
                        continue;
                    }
                }
                out.push(rank);
                continue;
            }
            counters.tree_levels += 1;
            let dim = n.split_dim as usize;
            let off = q[dim] - n.split_val;
            let (near, far) = if off <= 0.0 { (n.a, n.b) } else { (n.b, n.a) };
            let old = side[dim];
            let far_lb = lb_sq - old * old + off * off;
            // Push order: to emit ascending ranks we need left-subtree
            // leaves first; push right child first so left pops first.
            let mut far_side = side;
            far_side[dim] = off;
            if near == n.a {
                if far_lb < r_sq {
                    stack.push((far, far_lb, far_side));
                }
                stack.push((near, lb_sq, side));
            } else {
                stack.push((near, lb_sq, side));
                if far_lb < r_sq {
                    stack.push((far, far_lb, far_side));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 ranks on a line: splits at x=0 (root), x=-1 (left pair),
    /// x=1 (right pair). Cells: (-∞,-1], (-1,0], (0,1], (1,∞).
    fn line_tree() -> GlobalKdTree {
        GlobalKdTree::from_splits(
            1,
            4,
            &[
                GlobalSplit {
                    lo: 0,
                    hi: 4,
                    dim: 0,
                    value: 0.0,
                },
                GlobalSplit {
                    lo: 0,
                    hi: 2,
                    dim: 0,
                    value: -1.0,
                },
                GlobalSplit {
                    lo: 2,
                    hi: 4,
                    dim: 0,
                    value: 1.0,
                },
            ],
        )
    }

    #[test]
    fn owner_routes_by_cell() {
        let t = line_tree();
        let mut c = QueryCounters::default();
        assert_eq!(t.owner(&[-5.0], &mut c), 0);
        assert_eq!(t.owner(&[-1.0], &mut c), 0); // boundary goes left
        assert_eq!(t.owner(&[-0.5], &mut c), 1);
        assert_eq!(t.owner(&[0.0], &mut c), 1);
        assert_eq!(t.owner(&[0.5], &mut c), 2);
        assert_eq!(t.owner(&[2.0], &mut c), 3);
        assert_eq!(c.owner_lookups, 6);
        assert_eq!(c.tree_levels, 12); // 2 levels per lookup
        assert_eq!(t.levels(), 2);
    }

    #[test]
    fn ball_overlap_enumerates_only_reachable_cells() {
        let t = line_tree();
        let mut c = QueryCounters::default();
        let mut out = Vec::new();
        // Ball centered in rank 1's cell with radius 0.4: only rank 1
        t.ranks_in_ball(&[-0.5], 0.4 * 0.4, &mut out, &mut c);
        assert_eq!(out, vec![1]);
        // radius 0.6 crosses x=0 and x=-1: ranks 0,1,2
        out.clear();
        t.ranks_in_ball(&[-0.5], 0.6 * 0.6, &mut out, &mut c);
        assert_eq!(out, vec![0, 1, 2]);
        // huge radius: everyone
        out.clear();
        t.ranks_in_ball(&[-0.5], 1e9, &mut out, &mut c);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ball_overlap_uses_exact_cell_distance_not_plane_sum() {
        // rank 3's cell is (1,∞): from q=-0.5 the distance is 1.5 → a ball
        // of radius 1.2 must NOT include rank 3 even though it crosses the
        // root plane (0.5 away) and the x=1 plane is 1.5 away. The scalar
        // accumulation √(0.5² + 1.5²) ≈ 1.58 would also exclude it — but
        // for cells *between* planes the replacement matters: radius 1.4
        // includes ranks 0,1,2 but not 3 (needs 1.5).
        let t = line_tree();
        let mut c = QueryCounters::default();
        let mut out = Vec::new();
        t.ranks_in_ball(&[-0.5], 1.4 * 1.4, &mut out, &mut c);
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        t.ranks_in_ball(&[-0.5], 1.6 * 1.6, &mut out, &mut c);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bbox_refinement_prunes_empty_space() {
        let mut t = line_tree();
        // rank 2's points actually live only near x=0.9
        t.set_rank_bboxes(vec![
            BoundingBox::from_corners(&[-5.0], &[-1.0]),
            BoundingBox::from_corners(&[-1.0], &[0.0]),
            BoundingBox::from_corners(&[0.9], &[1.0]),
            BoundingBox::from_corners(&[1.0], &[5.0]),
        ]);
        let mut c = QueryCounters::default();
        let mut out = Vec::new();
        // Ball from x=0.05 with radius 0.5 reaches into rank 2's *cell*
        // (anything > 0) but not its *points* (≥ 0.9 away… 0.85 > 0.5).
        t.ranks_in_ball(&[0.05], 0.5 * 0.5, &mut out, &mut c);
        assert_eq!(out, vec![1]);
        // without refinement rank 2 is included
        let t2 = line_tree();
        out.clear();
        t2.ranks_in_ball(&[0.05], 0.5 * 0.5, &mut out, &mut c);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_rank_bbox_is_never_selected() {
        let mut t = line_tree();
        t.set_rank_bboxes(vec![
            BoundingBox::from_corners(&[-5.0], &[-1.0]),
            BoundingBox::empty(1), // rank 1 holds nothing
            BoundingBox::from_corners(&[0.0], &[1.0]),
            BoundingBox::from_corners(&[1.0], &[5.0]),
        ]);
        let mut c = QueryCounters::default();
        let mut out = Vec::new();
        t.ranks_in_ball(&[-0.5], 1e9, &mut out, &mut c);
        assert_eq!(out, vec![0, 2, 3]);
    }

    #[test]
    fn single_rank_tree() {
        let t = GlobalKdTree::single_rank(3);
        let mut c = QueryCounters::default();
        assert_eq!(t.owner(&[1.0, 2.0, 3.0], &mut c), 0);
        let mut out = Vec::new();
        t.ranks_in_ball(&[0.0, 0.0, 0.0], 1.0, &mut out, &mut c);
        assert_eq!(out, vec![0]);
        assert_eq!(t.levels(), 0);
    }

    #[test]
    fn non_power_of_two_ranks() {
        // 3 ranks: root splits 0..3 at mid 1 → left {0}, right {1,2}
        let t = GlobalKdTree::from_splits(
            1,
            3,
            &[
                GlobalSplit {
                    lo: 0,
                    hi: 3,
                    dim: 0,
                    value: 0.0,
                },
                GlobalSplit {
                    lo: 1,
                    hi: 3,
                    dim: 0,
                    value: 1.0,
                },
            ],
        );
        let mut c = QueryCounters::default();
        assert_eq!(t.owner(&[-1.0], &mut c), 0);
        assert_eq!(t.owner(&[0.5], &mut c), 1);
        assert_eq!(t.owner(&[1.5], &mut c), 2);
        assert_eq!(t.ranks(), 3);
    }

    #[test]
    #[should_panic(expected = "missing global split")]
    fn missing_split_panics() {
        let _ = GlobalKdTree::from_splits(
            1,
            4,
            &[GlobalSplit {
                lo: 0,
                hi: 4,
                dim: 0,
                value: 0.0,
            }],
        );
    }

    #[test]
    fn mid_rule() {
        assert_eq!(group_mid(0, 4), 2);
        assert_eq!(group_mid(0, 3), 1);
        assert_eq!(group_mid(2, 5), 3);
        assert_eq!(group_mid(0, 2), 1);
    }
}
