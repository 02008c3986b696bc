//! Fixed-radius neighbor search — the "easier problem" the paper
//! contrasts KNN against (§I, discussing BD-CATS \[11\]).
//!
//! With a fixed radius there is no `r'` refinement loop: the set of ranks
//! to consult is known the moment the query arrives, so the distributed
//! protocol is a single scatter/gather. Provided both as a local-tree
//! method and as a distributed operation; the `halo_finder` example and
//! the strategy discussions use it.

use panda_comm::{Comm, ReduceOp};

use crate::build_distributed::DistKdTree;
use crate::counters::QueryCounters;
use crate::engine::NeighborTable;
use crate::error::{PandaError, Result};
use crate::heap::Neighbor;
use crate::local_tree::{LocalKdTree, QueryWorkspace, TraversalEntry, NO_APPLY};
use crate::point::PointSet;

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

/// Distributed fixed-radius search (SPMD): every rank passes its own
/// queries; each gets, per query, **all** dataset points strictly within
/// `radius`, ascending by distance.
///
/// Results come back as a flat CSR [`NeighborTable`] (row `i` answers
/// `queries.point(i)`), assembled in place via
/// [`NeighborTable::with_row_counts`] + [`NeighborTable::row_mut`] —
/// the same arena-building path as the batched and distributed KNN
/// engines, with no nested `Vec<Vec<Neighbor>>` intermediate.
pub fn radius_search_distributed(
    comm: &mut Comm,
    tree: &DistKdTree,
    queries: &PointSet,
    radius: f32,
) -> Result<NeighborTable> {
    if radius.is_nan() || radius <= 0.0 {
        return Err(PandaError::BadRadius { radius });
    }
    let dims = tree.global.dims();
    if !queries.is_empty() && queries.dims() != dims {
        return Err(PandaError::DimsMismatch {
            expected: dims,
            got: queries.dims(),
        });
    }
    queries.validate()?;
    let p = comm.size();
    let me = comm.rank();
    let r_sq = radius * radius;
    let mut counters = QueryCounters::default();

    // One shot: the radius is fixed, so the target ranks are known
    // immediately — send each query to *every* rank whose region
    // intersects the ball (including our own share of the work).
    let mut coord_sends: Vec<Vec<f32>> = (0..p).map(|_| Vec::new()).collect();
    let mut qid_sends: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
    let mut targets = Vec::new();
    for i in 0..queries.len() {
        let q = queries.point(i);
        targets.clear();
        tree.global
            .ranks_in_ball(q, r_sq, &mut targets, &mut counters);
        for &r in &targets {
            coord_sends[r].extend_from_slice(q);
            qid_sends[r].push(((me as u64) << 32) | i as u64);
        }
    }
    let coords_in = comm.world().alltoallv(coord_sends);
    let qids_in = comm.world().alltoallv(qid_sends);

    // Serve everything we received; candidates go straight back.
    let mut meta_sends: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
    let mut dist_sends: Vec<Vec<f32>> = (0..p).map(|_| Vec::new()).collect();
    let mut hits = Vec::new();
    let mut ws = QueryWorkspace::new();
    for (src, (coords, qids)) in coords_in.iter().zip(&qids_in).enumerate() {
        for (j, &rq) in qids.iter().enumerate() {
            let q = &coords[j * dims..(j + 1) * dims];
            hits.clear();
            tree.local
                .radius_into(q, r_sq, &mut hits, &mut ws, &mut counters);
            for h in &hits {
                meta_sends[src].push(rq);
                meta_sends[src].push(h.id);
                dist_sends[src].push(h.dist_sq);
            }
        }
    }
    let cost = *comm.cost();
    comm.work_parallel(
        counters.cpu_seconds(&cost.ops, dims),
        counters.mem_bytes(dims),
    );
    let meta_in = comm.world().alltoallv(meta_sends);
    let dist_in = comm.world().alltoallv(dist_sends);

    // Assemble CSR in place: count each local query's hits across all
    // response streams, allocate the table once, then write every hit
    // directly into its final row.
    let mut row_counts = vec![0u32; queries.len()];
    for meta in &meta_in {
        for pair in meta.chunks_exact(2) {
            row_counts[(pair[0] & 0xFFFF_FFFF) as usize] += 1;
        }
    }
    let mut table = NeighborTable::with_row_counts(&row_counts)?;
    let mut written = vec![0u32; queries.len()];
    for (meta, dists) in meta_in.iter().zip(&dist_in) {
        for (pair, &d) in meta.chunks_exact(2).zip(dists) {
            let idx = (pair[0] & 0xFFFF_FFFF) as usize;
            table.row_mut(idx)[written[idx] as usize] = Neighbor {
                dist_sq: d,
                id: pair[1],
            };
            written[idx] += 1;
        }
    }
    debug_assert_eq!(written, row_counts);
    for i in 0..queries.len() {
        table.row_mut(i).sort_by(|a, b| {
            a.dist_sq
                .partial_cmp(&b.dist_sq)
                .expect("finite")
                .then(a.id.cmp(&b.id))
        });
    }
    // sanity: total candidate volume is globally conserved
    let _total = comm.world().allreduce_u64(counters.heap_ops, ReduceOp::Sum);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_distributed::build_distributed;
    use crate::config::{DistConfig, TreeConfig};
    use crate::rng::SplitRng;
    use panda_comm::{run_cluster, ClusterConfig};

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

    #[test]
    fn distributed_radius_matches_brute() {
        let all = random_ps(2000, 3, 6);
        let queries = random_ps(30, 3, 7);
        let radius = 1.2f32;
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mut mine = PointSet::new(3).unwrap();
            for i in (comm.rank()..all.len()).step_by(comm.size()) {
                mine.push(all.point(i), all.id(i));
            }
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let mut myq = PointSet::new(3).unwrap();
            for i in (comm.rank()..queries.len()).step_by(comm.size()) {
                myq.push(queries.point(i), queries.id(i));
            }
            let res = radius_search_distributed(comm, &tree, &myq, radius).unwrap();
            assert_eq!(res.len(), myq.len());
            (0..myq.len())
                .map(|i| {
                    (
                        myq.point(i).to_vec(),
                        res.row(i)
                            .iter()
                            .map(|n| (n.dist_sq, n.id))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        });
        let mut checked = 0;
        for o in &out {
            for (q, got) in &o.result {
                assert_eq!(got, &brute_radius(&all, q, radius));
                checked += 1;
            }
        }
        assert_eq!(checked, queries.len());
    }

    #[test]
    fn distributed_radius_empty_results_far_away() {
        let all = random_ps(500, 3, 8);
        let out = run_cluster(&ClusterConfig::new(3), |comm| {
            let mut mine = PointSet::new(3).unwrap();
            for i in (comm.rank()..all.len()).step_by(comm.size()) {
                mine.push(all.point(i), all.id(i));
            }
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = if comm.rank() == 0 {
                PointSet::from_coords(3, vec![1000.0, 1000.0, 1000.0]).unwrap()
            } else {
                PointSet::new(3).unwrap()
            };
            radius_search_distributed(comm, &tree, &myq, 0.5).unwrap()
        });
        assert!(out[0].result.row(0).is_empty());
    }
}
