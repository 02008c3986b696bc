//! Distributed kd-tree construction (§III-A of the paper).
//!
//! Recursive rank-group halving. For each group `lo..hi`:
//!
//! 1. **Split dimension** — per-dim moment sums over a per-rank sample,
//!    all-reduced within the group; maximum-variance dimension wins
//!    (strategy configurable, §III-A1).
//! 2. **Split value** — every rank samples `m` values (paper: 256) along
//!    the dimension; samples are all-gathered and become the non-uniform
//!    histogram boundaries; every rank bins all its points; the counts are
//!    all-reduced; all ranks deterministically pick the boundary closest
//!    to the target quantile (`|left group| / |group|`, which handles
//!    non-power-of-two rank counts).
//! 3. **Redistribution** — each rank partitions its points against the
//!    split value and the group exchanges them (balanced slot assignment +
//!    `alltoallv`) so the left half of the ranks holds exactly the left
//!    half of space.
//!
//! Degenerate data (everything equal along the chosen dimension — the
//! co-located Daya Bay records at scale) falls back to the
//! next-best dimension; if every dimension is degenerate the split keeps
//! the plane at the constant value and the right half legitimately ends
//! up empty (a spatial partition cannot separate identical points).
//!
//! After the loop every rank builds its local tree; the global tree is
//! assembled on every rank from the all-gathered path decisions.

use panda_comm::{Comm, ReduceOp};

use crate::config::{DistConfig, HistScan, SplitDimStrategy};
use crate::counters::BuildCounters;
use crate::error::Result;
use crate::global_tree::{group_mid, GlobalKdTree, GlobalSplit};
use crate::hist::SampledHistogram;
use crate::local_tree::LocalKdTree;
use crate::point::{BoundingBox, PointSet};
use crate::rng::SplitRng;
use crate::timers::BuildBreakdown;

/// The distributed kd-tree owned by one rank: the replicated global tree
/// plus this rank's local tree and points.
#[derive(Clone, Debug)]
pub struct DistKdTree {
    /// Replicated rank-domain BSP.
    pub global: GlobalKdTree,
    /// This rank's local tree.
    pub local: LocalKdTree,
    /// This rank's points after redistribution.
    pub points: PointSet,
    /// Per-phase construction times (virtual seconds, this rank).
    pub breakdown: BuildBreakdown,
    /// Global-phase work counters (local-phase counters live in
    /// `local.stats()`).
    pub counters: BuildCounters,
}

/// Charge build-side work counters to the rank's virtual clock.
fn charge(comm: &mut Comm, c: &BuildCounters, dims: usize, scan: HistScan) {
    let cost = *comm.cost();
    comm.work_parallel(c.cpu_seconds(&cost.ops, scan), c.mem_bytes(dims));
}

/// Per-dimension variance of the group's data, estimated from per-rank
/// samples and all-reduced moments. Returns variances (empty ranks
/// contribute nothing).
fn group_variances(
    comm: &mut Comm,
    lo: usize,
    hi: usize,
    ps: &PointSet,
    sample: usize,
    rng: &mut SplitRng,
    counters: &mut BuildCounters,
) -> Vec<f64> {
    let dims = ps.dims();
    // layout: [count, sum_0.., sumsq_0..]
    let mut moments = vec![0.0f64; 1 + 2 * dims];
    if !ps.is_empty() {
        let positions = rng.sample_with_replacement(ps.len(), sample.max(2));
        counters.sampled += positions.len() as u64;
        counters.variance_ops += (positions.len() * dims) as u64;
        moments[0] = positions.len() as f64;
        for &i in &positions {
            let p = ps.point(i as usize);
            for d in 0..dims {
                moments[1 + d] += p[d] as f64;
                moments[1 + dims + d] += (p[d] as f64) * (p[d] as f64);
            }
        }
    }
    let total = comm.group(lo, hi).allreduce_vec_f64(moments, ReduceOp::Sum);
    let n = total[0].max(1.0);
    (0..dims)
        .map(|d| {
            let mean = total[1 + d] / n;
            (total[1 + dims + d] / n - mean * mean).max(0.0)
        })
        .collect()
}

/// Group extents per dimension (for the MaxExtent strategy).
fn group_extents(comm: &mut Comm, lo: usize, hi: usize, ps: &PointSet) -> Vec<f64> {
    let dims = ps.dims();
    let (mut los, mut his) = (vec![f64::INFINITY; dims], vec![f64::NEG_INFINITY; dims]);
    for i in 0..ps.len() {
        let p = ps.point(i);
        for d in 0..dims {
            los[d] = los[d].min(p[d] as f64);
            his[d] = his[d].max(p[d] as f64);
        }
    }
    let glo = comm.group(lo, hi).allreduce_vec_f64(los, ReduceOp::Min);
    let ghi = comm.group(lo, hi).allreduce_vec_f64(his, ReduceOp::Max);
    glo.iter()
        .zip(&ghi)
        .map(|(a, b)| (b - a).max(0.0))
        .collect()
}

/// One group-level split decision: (dim, value, my left count). All ranks
/// of the group return identical `(dim, value)`.
#[allow(clippy::too_many_arguments)]
fn decide_split(
    comm: &mut Comm,
    lo: usize,
    hi: usize,
    ps: &PointSet,
    cfg: &DistConfig,
    level: usize,
    rng: &mut SplitRng,
    counters: &mut BuildCounters,
) -> (usize, f32) {
    let dims = ps.dims();
    let frac = (group_mid(lo, hi) - lo) as f64 / (hi - lo) as f64;

    // Rank dimensions by the configured criterion (best first) so we can
    // fall back to the next dimension on degenerate splits.
    let scores: Vec<f64> = match cfg.local.split_dim {
        SplitDimStrategy::MaxVariance { sample } => {
            group_variances(comm, lo, hi, ps, sample, rng, counters)
        }
        SplitDimStrategy::MaxExtent => group_extents(comm, lo, hi, ps),
        SplitDimStrategy::RoundRobin => (0..dims)
            .map(|d| if d == level % dims { 1.0 } else { 0.0 })
            .collect(),
    };
    let mut order: Vec<usize> = (0..dims).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));

    let mut fallback: Option<(usize, f32)> = None;
    for &dim in &order {
        // Sample m values along dim; gather to group histogram boundaries.
        let m = cfg.global_samples_per_rank;
        let mine: Vec<f32> = if ps.is_empty() {
            Vec::new()
        } else {
            let positions = rng.sample_with_replacement(ps.len(), m);
            counters.sampled += positions.len() as u64;
            positions
                .iter()
                .map(|&i| ps.coord(i as usize, dim))
                .collect()
        };
        let gathered = comm.group(lo, hi).allgather(mine);
        let samples: Vec<f32> = gathered.into_iter().flatten().collect();
        counters.sampled += samples.len() as u64; // histogram assembly cost
        let hist = SampledHistogram::from_samples(samples);
        let local_counts = hist.count((0..ps.len()).map(|i| ps.coord(i, dim)), cfg.local.hist_scan);
        counters.hist_binned += ps.len() as u64;
        let global_counts = comm
            .group(lo, hi)
            .allreduce_vec_u64(local_counts, ReduceOp::Sum);
        let decision = hist.split_at_quantile(&global_counts, frac);
        if !decision.degenerate {
            return (dim, decision.value);
        }
        if fallback.is_none() {
            fallback = Some((dim, decision.value));
        }
    }
    // Every dimension degenerate: identical points — keep the plane; the
    // right half will be empty, which is spatially honest.
    fallback.expect("at least one dimension")
}

/// Balanced slot ranges: destination `j` of `dests` owns
/// `total/dests (+1 for j < total%dests)` consecutive global slots.
/// Returns the `(dest, start_within_my_block, len)` pieces of my block
/// `[off, off+cnt)`.
pub(crate) fn slot_assignments(
    total: u64,
    dests: usize,
    off: u64,
    cnt: u64,
) -> Vec<(usize, u64, u64)> {
    debug_assert!(off + cnt <= total);
    let mut out = Vec::new();
    if cnt == 0 || dests == 0 {
        return out;
    }
    let base = total / dests as u64;
    let rem = total % dests as u64;
    let mut slot_start = 0u64;
    for j in 0..dests {
        let slot_len = base + u64::from((j as u64) < rem);
        let slot_end = slot_start + slot_len;
        let s = off.max(slot_start);
        let e = (off + cnt).min(slot_end);
        if s < e {
            out.push((j, s - off, e - s));
        }
        slot_start = slot_end;
        if slot_start >= off + cnt {
            break;
        }
    }
    out
}

/// Exchange one side's points within the group so the destination ranks
/// end up with balanced, contiguous slices of the side's global order.
/// `members` are the indices of my points belonging to this side.
#[allow(clippy::too_many_arguments)]
fn exchange_side(
    comm: &mut Comm,
    lo: usize,
    hi: usize,
    dest_lo: usize,
    dest_hi: usize,
    ps: &PointSet,
    members: &[u32],
    out: &mut PointSet,
) {
    let dims = ps.dims();
    let g = hi - lo;
    // global offset of my block in the side's rank-major order
    let counts = comm.group(lo, hi).allgather(vec![members.len() as u64]);
    let me_rel = comm.rank() - lo;
    let off: u64 = counts[..me_rel].iter().map(|c| c[0]).sum();
    let total: u64 = counts.iter().map(|c| c[0]).sum();
    let dests = dest_hi - dest_lo;

    let mut coord_sends: Vec<Vec<f32>> = (0..g).map(|_| Vec::new()).collect();
    let mut id_sends: Vec<Vec<u64>> = (0..g).map(|_| Vec::new()).collect();
    for (dest, start, len) in slot_assignments(total, dests, off, members.len() as u64) {
        let dest_rel = dest_lo + dest - lo;
        let coords = &mut coord_sends[dest_rel];
        let ids = &mut id_sends[dest_rel];
        coords.reserve(len as usize * dims);
        ids.reserve(len as usize);
        for &i in &members[start as usize..(start + len) as usize] {
            coords.extend_from_slice(ps.point(i as usize));
            ids.push(ps.id(i as usize));
        }
    }
    let coords_in = comm.group(lo, hi).alltoallv(coord_sends);
    let ids_in = comm.group(lo, hi).alltoallv(id_sends);
    for (cs, is) in coords_in.into_iter().zip(ids_in) {
        debug_assert_eq!(cs.len(), is.len() * dims);
        out.extend_trusted(&cs, &is);
    }
}

/// Build the distributed kd-tree. SPMD: call on every rank with that
/// rank's share of the points (any distribution; ids must be globally
/// unique). Returns each rank's [`DistKdTree`].
pub fn build_distributed(
    comm: &mut Comm,
    points: PointSet,
    cfg: &DistConfig,
) -> Result<DistKdTree> {
    cfg.validate()?;
    points.validate()?;
    let p = comm.size();
    let dims = points.dims();
    // All ranks must agree on dimensionality (a rank with an empty set
    // still carries dims in its PointSet).
    let dmax = comm.world().allreduce_u64(dims as u64, ReduceOp::Max);
    let dmin = comm.world().allreduce_u64(dims as u64, ReduceOp::Min);
    if dmax != dmin {
        return Err(crate::error::PandaError::DimsMismatch {
            expected: dmax as usize,
            got: dims,
        });
    }

    let mut breakdown = BuildBreakdown::default();
    let mut counters = BuildCounters::default();
    let mut rng = SplitRng::new(cfg.local.seed ^ 0xD15C0_u64);
    let scan = cfg.local.hist_scan;

    let mut my = points;
    let mut my_splits: Vec<GlobalSplit> = Vec::new();
    let (mut lo, mut hi) = (0usize, p);
    let mut level = 0usize;

    while hi - lo > 1 {
        // ---- global split decision -----------------------------------
        let t0 = comm.now();
        let mut level_counters = BuildCounters::default();
        // deterministic per-(group, level) stream, identical on all ranks
        // of the group for the shared decisions; per-rank divergence is
        // fine for sampling (only the reduced outcome must agree).
        let mut level_rng = rng.fork((level as u64) << 32 | lo as u64);
        let (dim, value) = decide_split(
            comm,
            lo,
            hi,
            &my,
            cfg,
            level,
            &mut level_rng,
            &mut level_counters,
        );
        charge(comm, &level_counters, dims, scan);
        counters.add(&level_counters);
        my_splits.push(GlobalSplit { lo, hi, dim, value });
        breakdown.global_tree += comm.now() - t0;

        // ---- redistribution -------------------------------------------
        let t0 = comm.now();
        let mut part_counters = BuildCounters::default();
        let mut left_members: Vec<u32> = Vec::new();
        let mut right_members: Vec<u32> = Vec::new();
        for i in 0..my.len() {
            if my.coord(i, dim) <= value {
                left_members.push(i as u32);
            } else {
                right_members.push(i as u32);
            }
        }
        part_counters.partition_ops += my.len() as u64;
        charge(comm, &part_counters, dims, scan);
        counters.add(&part_counters);

        let mid = group_mid(lo, hi);
        // Everyone participates in both exchanges (they are group-wide
        // collectives); each rank keeps only its own side's result.
        let mut left_out = PointSet::new(dims)?;
        let mut right_out = PointSet::new(dims)?;
        exchange_side(comm, lo, hi, lo, mid, &my, &left_members, &mut left_out);
        exchange_side(comm, lo, hi, mid, hi, &my, &right_members, &mut right_out);
        let me = comm.rank();
        my = if me < mid { left_out } else { right_out };
        breakdown.redistribute += comm.now() - t0;

        if me < mid {
            hi = mid;
        } else {
            lo = mid;
        }
        level += 1;
    }

    // ---- assemble the replicated global tree --------------------------
    let t0 = comm.now();
    let gathered = comm.world().allgather(my_splits);
    let mut flat: Vec<GlobalSplit> = Vec::new();
    {
        let mut seen = std::collections::HashMap::new();
        for s in gathered.into_iter().flatten() {
            match seen.entry((s.lo, s.hi)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s);
                    flat.push(s);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let prev: &GlobalSplit = e.get();
                    debug_assert_eq!(
                        (prev.dim, prev.value),
                        (s.dim, s.value),
                        "ranks disagreed on split for group {}..{}",
                        s.lo,
                        s.hi
                    );
                }
            }
        }
    }
    let mut global = GlobalKdTree::from_splits(dims, p, &flat);
    let bb = my
        .bounding_box()
        .unwrap_or_else(|| BoundingBox::empty(dims));
    let boxes = comm.world().allgather(vec![bb]);
    global.set_rank_bboxes(boxes.into_iter().map(|mut v| v.remove(0)).collect());
    breakdown.global_tree += comm.now() - t0;

    // ---- local tree ----------------------------------------------------
    // Real execution is rank-sequential; intra-rank threading is charged
    // through the modeled thread pool (`LocalKdTree::modeled_build`, over
    // `panda_comm::ThreadModel`).
    let local_cfg = crate::config::TreeConfig {
        parallel: false,
        ..cfg.local
    };
    let local = LocalKdTree::build(&my, &local_cfg)?;
    let model = local.modeled_build(comm.cost());
    comm.advance_time(model.total());
    breakdown.local_data_parallel = model.data_parallel;
    breakdown.local_thread_parallel = model.thread_parallel;
    breakdown.packing = model.packing;

    Ok(DistKdTree {
        global,
        local,
        points: my,
        breakdown,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_comm::{run_cluster, ClusterConfig};

    fn scatter(ps: &PointSet, rank: usize, p: usize) -> PointSet {
        // round-robin deal so every rank starts with an arbitrary subset
        let mut mine = PointSet::new(ps.dims()).unwrap();
        for i in (rank..ps.len()).step_by(p) {
            mine.push(ps.point(i), ps.id(i));
        }
        mine
    }

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

    #[test]
    fn slot_assignment_covers_and_balances() {
        // total 10 over 3 dests: slots 4/3/3
        assert_eq!(
            slot_assignments(10, 3, 0, 10),
            vec![(0, 0, 4), (1, 4, 3), (2, 7, 3)]
        );
        // a block spanning one boundary
        assert_eq!(slot_assignments(10, 3, 3, 3), vec![(0, 0, 1), (1, 1, 2)]);
        // empty block
        assert!(slot_assignments(10, 3, 5, 0).is_empty());
        // full block to one dest
        assert_eq!(slot_assignments(4, 1, 1, 2), vec![(0, 0, 2)]);
    }

    #[test]
    fn redistribution_conserves_and_balances_points() {
        for p in [2usize, 3, 4, 8] {
            let all = random_ps(4000, 3, 42);
            let cfg = ClusterConfig::new(p);
            let out = run_cluster(&cfg, |comm| {
                let mine = scatter(&all, comm.rank(), comm.size());
                let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
                (t.points.ids().to_vec(), t.local.len())
            });
            // conservation: exactly the original ids, once each
            let mut ids: Vec<u64> = out.iter().flat_map(|o| o.result.0.clone()).collect();
            ids.sort_unstable();
            assert_eq!(ids.len(), 4000, "p={p}");
            ids.dedup();
            assert_eq!(ids.len(), 4000, "p={p}: duplicated or lost points");
            // balance: within 30% of even (sampled medians are approximate)
            let sizes: Vec<usize> = out.iter().map(|o| o.result.1).collect();
            let even = 4000 / p;
            for s in &sizes {
                assert!(
                    (*s as f64) > 0.6 * even as f64 && (*s as f64) < 1.6 * even as f64,
                    "p={p} sizes={sizes:?}"
                );
            }
        }
    }

    #[test]
    fn cells_partition_space() {
        // every redistributed point must map back to its own rank via the
        // global tree's owner lookup
        let all = random_ps(2000, 3, 7);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let mut c = crate::counters::QueryCounters::default();
            let mut wrong = 0usize;
            for i in 0..t.points.len() {
                if t.global.owner(t.points.point(i), &mut c) != comm.rank() {
                    wrong += 1;
                }
            }
            (wrong, t.points.len())
        });
        for o in &out {
            assert_eq!(o.result.0, 0, "rank {} owns foreign points", o.rank);
            assert!(o.result.1 > 0);
        }
    }

    #[test]
    fn single_rank_build_works() {
        let all = random_ps(500, 3, 1);
        let out = run_cluster(&ClusterConfig::new(1), |comm| {
            let t = build_distributed(comm, all.clone(), &DistConfig::default()).unwrap();
            (t.local.len(), t.global.ranks())
        });
        assert_eq!(out[0].result, (500, 1));
    }

    #[test]
    fn identical_points_terminate_with_empty_right_ranks() {
        // 600 identical points scattered across ranks:
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            // re-id so ids stay globally unique after scatter
            let mut mine = PointSet::new(3).unwrap();
            for i in (comm.rank()..600).step_by(comm.size()) {
                mine.push(&[1.0, 2.0, 3.0], i as u64);
            }
            let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            t.points.len()
        });
        let total: usize = out.iter().map(|o| o.result).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn breakdown_phases_are_recorded() {
        let all = random_ps(3000, 3, 9);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            t.breakdown
        });
        for o in &out {
            assert!(o.result.global_tree > 0.0);
            assert!(o.result.redistribute > 0.0);
            assert!(o.result.local_thread_parallel > 0.0 || o.result.local_data_parallel > 0.0);
            assert!(o.result.packing > 0.0);
            assert!(o.result.total() > 0.0);
        }
    }

    #[test]
    fn empty_rank_input_is_fine() {
        // all points start on rank 0
        let all = random_ps(1000, 2, 3);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = if comm.rank() == 0 {
                all.clone()
            } else {
                PointSet::new(2).unwrap()
            };
            let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            t.points.len()
        });
        let total: usize = out.iter().map(|o| o.result).sum();
        assert_eq!(total, 1000);
        // redistribution must have spread them out
        assert!(
            out.iter().all(|o| o.result > 100),
            "{:?}",
            out.iter().map(|o| o.result).collect::<Vec<_>>()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let all = random_ps(1500, 3, 11);
        let run = || {
            run_cluster(&ClusterConfig::new(4), |comm| {
                let mine = scatter(&all, comm.rank(), comm.size());
                let t = build_distributed(comm, mine, &DistConfig::default()).unwrap();
                let mut ids = t.points.ids().to_vec();
                ids.sort_unstable();
                (ids, comm.now())
            })
            .into_iter()
            .map(|o| o.result)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
