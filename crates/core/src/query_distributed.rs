//! Distributed KNN querying (§III-B of the paper).
//!
//! Five stages per query, executed in globally synchronized batched steps:
//!
//! 1. **Find owner** — every query is routed (alltoallv) to the rank whose
//!    cell contains it.
//! 2. **Local KNN** — the owner traverses its local tree, producing the
//!    bound `r'` (distance to the k-th local neighbor).
//! 3. **Identify remote ranks** — the global tree enumerates ranks whose
//!    region intersects the ball `(q, r')`; the query and `r'` are sent to
//!    them.
//! 4. **Remote KNN** — those ranks answer with their local neighbors
//!    strictly inside `r'` (the carried radius makes this heavily pruned —
//!    the paper measures it at ~3% of query time for the 3-D datasets).
//! 5. **Merge** — the owner merges responses into the final top-k, then
//!    returns results to the rank that submitted each query.
//!
//! Batching (steps of `batch_size` queries per rank) load-balances the
//! exchange; software pipelining is modeled on the recorded per-step
//! compute/communication durations (see [`crate::timers::QueryBreakdown`]).
//!
//! The engine is **CSR-native and locality-aware** end to end:
//!
//! * Owned queries are re-sorted along a Morton curve after routing
//!   unless they already arrive coherent (the default
//!   [`crate::config::QueryConfig::order`]), so each pipeline
//!   step's local KNN and remote request streams touch spatially coherent
//!   leaves; results are always scattered back to submission order.
//! * Per-step heaps and the per-destination send buffers are persistent
//!   workspaces: heaps are recycled with [`KnnHeap::reset`] +
//!   [`KnnHeap::append_sorted_into`], and each exchange's received
//!   buffers become the next step's send buffers, so the steady state
//!   allocates nothing per query.
//! * Every exchange is flat: requests carry `dims + 1` floats per query
//!   (coordinates + `r'²`) with the per-destination request order
//!   remembered locally instead of echoing qids; responses stream
//!   per-request counts plus flat id/distance arrays; the origin-return
//!   leg streams one packed `(submission index, count)` word per query
//!   plus flat id/distance arrays — no header-per-query framing anywhere.
//! * Results are assembled directly into a flat CSR
//!   [`crate::engine::NeighborTable`] (counts first, then rows written in
//!   place) — no intermediate `Vec<Vec<Neighbor>>` on any path.

use panda_comm::{Comm, ReduceOp};

use crate::build_distributed::DistKdTree;
use crate::config::{BoundMode, QueryConfig, QueryOrder};
use crate::counters::QueryCounters;
use crate::engine::NeighborTable;
use crate::error::{PandaError, Result};
use crate::faultpoint::{self, points};
use crate::heap::{KnnHeap, Neighbor};
use crate::local_tree::QueryWorkspace;
use crate::morton::locality_schedule;
use crate::point::PointSet;
use crate::timers::{QueryBreakdown, StepTiming};

/// Per-rank remote-traffic statistics (§V-A3 discussion: remote fan-out,
/// fraction of queries leaving their owner, pruning effectiveness).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RemoteStats {
    /// Queries this rank owned (after routing).
    pub owned_queries: u64,
    /// Owned queries that had to consult at least one remote rank.
    pub queries_with_remote: u64,
    /// Total (query, remote rank) request pairs sent.
    pub remote_pairs_sent: u64,
    /// Remote requests served for other ranks.
    pub remote_requests_served: u64,
    /// Neighbor candidates returned by remote ranks to this rank.
    pub remote_neighbors_received: u64,
}

impl RemoteStats {
    /// Mean number of remote ranks consulted per owned query.
    pub fn avg_remote_fanout(&self) -> f64 {
        if self.owned_queries == 0 {
            0.0
        } else {
            self.remote_pairs_sent as f64 / self.owned_queries as f64
        }
    }

    /// Fraction of owned queries that consulted any remote rank.
    pub fn remote_fraction(&self) -> f64 {
        if self.owned_queries == 0 {
            0.0
        } else {
            self.queries_with_remote as f64 / self.owned_queries as f64
        }
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, o: &RemoteStats) {
        self.owned_queries += o.owned_queries;
        self.queries_with_remote += o.queries_with_remote;
        self.remote_pairs_sent += o.remote_pairs_sent;
        self.remote_requests_served += o.remote_requests_served;
        self.remote_neighbors_received += o.remote_neighbors_received;
    }
}

/// Charge query-side work counters to the rank's virtual clock.
fn charge(comm: &mut Comm, c: &QueryCounters, dims: usize) {
    let cost = *comm.cost();
    comm.work_parallel(c.cpu_seconds(&cost.ops, dims), c.mem_bytes(dims));
}

/// Clock deltas split into (compute, comm+wait).
fn clock_delta(comm: &Comm, before: panda_comm::ClockSummary) -> (f64, f64) {
    let now = comm.clock();
    (
        now.compute - before.compute,
        (now.comm - before.comm) + (now.wait - before.wait),
    )
}

const QID_SHIFT: u32 = 32;
const QID_IDX_MASK: u64 = (1u64 << QID_SHIFT) - 1;

/// Largest per-rank query count the qid packing can address: indices live
/// in the low [`QID_SHIFT`] bits, so at most `2³²` queries per rank.
pub(crate) const MAX_QUERIES_PER_RANK: u64 = 1u64 << QID_SHIFT;

/// Guard the qid packing: a rank submitting more queries than the index
/// field can hold would silently corrupt the origin rank and misroute
/// results, so it is rejected up front.
pub(crate) fn check_qid_capacity(n_queries: usize, ranks: usize) -> Result<()> {
    if n_queries as u64 > MAX_QUERIES_PER_RANK {
        return Err(PandaError::BadConfig(format!(
            "{n_queries} queries on one rank exceed the 2^{QID_SHIFT} qid \
             index space; split the request into smaller batches"
        )));
    }
    if ranks as u64 > MAX_QUERIES_PER_RANK {
        return Err(PandaError::BadConfig(format!(
            "{ranks} ranks exceed the 2^{QID_SHIFT} qid origin space"
        )));
    }
    Ok(())
}

#[inline]
fn qid(origin: usize, idx: usize) -> u64 {
    debug_assert!((idx as u64) < MAX_QUERIES_PER_RANK, "qid index overflow");
    debug_assert!(
        (origin as u64) < MAX_QUERIES_PER_RANK,
        "qid origin overflow"
    );
    ((origin as u64) << QID_SHIFT) | idx as u64
}

#[inline]
fn qid_origin(q: u64) -> usize {
    (q >> QID_SHIFT) as usize
}

#[inline]
fn qid_idx(q: u64) -> usize {
    (q & QID_IDX_MASK) as usize
}

/// CSR-native result of [`query_distributed`]: what SPMD callers (the
/// paper binaries, the virtual-time scaling studies) read, without any
/// nested intermediate.
#[derive(Debug)]
pub struct DistQueryOutput {
    /// Results in submission order, CSR layout.
    pub neighbors: NeighborTable,
    /// Per-phase virtual-time breakdown (see [`QueryBreakdown`]).
    pub breakdown: QueryBreakdown,
    /// Work counters accumulated over every stage.
    pub counters: QueryCounters,
    /// Remote-traffic statistics.
    pub remote: RemoteStats,
}

/// The SPMD engine: every rank passes its own `queries`; results come
/// back in the same order. `tree` must be the product of
/// [`crate::build_distributed::build_distributed`] on the same cluster.
///
/// Stages 2–5 run as a batched collective pipeline that every rank of
/// the communicator enters in lockstep, even with zero owned queries
/// (the step count is agreed by allreduce).
///
/// This is the low-level entry point for callers that drive the SPMD
/// world themselves (virtual-time scaling studies under
/// [`panda_comm::run_cluster`], chaos tests that manage
/// [`panda_comm::Comm::quiesce`] epochs by hand). For serving real
/// traffic, use [`crate::engine::ShardedIndex`], which runs the same
/// five stages behind a `Send + Sync` handle as two passes over its
/// shards, run on the caller or the pool, without collectives.
pub fn query_distributed(
    comm: &mut Comm,
    tree: &DistKdTree,
    queries: &PointSet,
    cfg: &QueryConfig,
) -> Result<DistQueryOutput> {
    cfg.validate()?;
    queries.validate()?;
    let dims = tree.global.dims();
    if !queries.is_empty() && queries.dims() != dims {
        return Err(PandaError::DimsMismatch {
            expected: dims,
            got: queries.dims(),
        });
    }
    check_qid_capacity(queries.len(), comm.size())?;
    let p = comm.size();
    let me = comm.rank();
    let k = cfg.k;
    let r0_sq = if cfg.initial_radius.is_finite() {
        cfg.initial_radius * cfg.initial_radius
    } else {
        f32::INFINITY
    };

    // ---- Stage 1: find owner & route ----------------------------------
    let before = comm.clock();
    let mut route_counters = QueryCounters::default();
    let mut coord_sends: Vec<Vec<f32>> = vec![Vec::new(); p];
    let mut qid_sends: Vec<Vec<u64>> = vec![Vec::new(); p];
    for i in 0..queries.len() {
        let q = queries.point(i);
        let owner = tree.global.owner(q, &mut route_counters);
        coord_sends[owner].extend_from_slice(q);
        qid_sends[owner].push(qid(me, i));
    }
    charge(comm, &route_counters, dims);
    faultpoint::maybe_fail_ctx(points::DIST_EXCHANGE_ROUTE, me as u64)?;
    let coords_in = comm.world().try_alltoallv(coord_sends)?;
    let qids_in = comm.world().try_alltoallv(qid_sends)?;
    let mut coords: Vec<f32> = coords_in.into_iter().flatten().collect();
    let mut qids: Vec<u64> = qids_in.into_iter().flatten().collect();
    let (d_comp, d_comm) = clock_delta(comm, before);

    // ---- Stages 2–5 -----------------------------------------------------
    let mut breakdown = QueryBreakdown {
        find_owner: d_comp,
        comm_total: d_comm,
        ..QueryBreakdown::default()
    };
    let mut counters = route_counters;
    let mut remote = RemoteStats::default();
    let mut ws = QueryWorkspace::new();

    // Locality pass: put incoherent owned queries in Morton order so
    // every batch (and its request streams) touches coherent leaves
    // (the rule in [`crate::morton`]). Results are keyed by qid, so the
    // permutation is invisible once they return to their origins. The
    // O(n log n) key sort is negligible next to traversal and is not
    // charged to the virtual clock.
    if cfg.order == QueryOrder::Morton {
        if let Some(schedule) = locality_schedule(dims, &coords) {
            coords = schedule
                .iter()
                .flat_map(|&s| &coords[s as usize * dims..(s as usize + 1) * dims])
                .copied()
                .collect();
            qids = schedule.iter().map(|&s| qids[s as usize]).collect();
        }
    }
    let owned = qids.len();
    let point = |i: usize| &coords[i * dims..(i + 1) * dims];
    remote.owned_queries = owned as u64;

    // ---- Batched pipeline ----------------------------------------------
    let steps = {
        let most = comm
            .world()
            .try_allreduce_u64(owned as u64, ReduceOp::Max)?;
        (most as usize).div_ceil(cfg.batch_size)
    };

    // Persistent per-step workspaces. The send lanes are recycled through
    // the exchange: `alltoallv` consumes the send vectors and returns the
    // received ones, which become the next step's (cleared) send buffers,
    // so lane capacity is allocated once and reused for the whole call.
    let mut heaps: Vec<KnnHeap> = Vec::new();
    let mut req_coord_ws: Vec<Vec<f32>> = vec![Vec::new(); p];
    let mut sent_bi: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut resp_cnt_ws: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut resp_id_ws: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut resp_dist_ws: Vec<Vec<f32>> = vec![Vec::new(); p];
    let mut serve_heap = KnnHeap::new(k);
    let mut serve_out: Vec<Neighbor> = Vec::new();
    let mut rank_scratch: Vec<usize> = Vec::new();

    // Finalized owned results, CSR-style in owned (processing) order: one
    // count per owned query plus one flat arena — no per-query `Vec`.
    let mut fin_counts: Vec<u32> = Vec::with_capacity(owned);
    let mut fin_arena: Vec<Neighbor> = Vec::new();

    let stride = dims + 1;
    for step in 0..steps {
        let lo = (step * cfg.batch_size).min(owned);
        let hi = ((step + 1) * cfg.batch_size).min(owned);
        let blen = hi - lo;
        let mut step_compute = 0.0f64;
        let mut step_comm = 0.0f64;

        // (2) local KNN for the batch — heaps recycled via `reset`
        let before = comm.clock();
        let mut local_counters = QueryCounters::default();
        while heaps.len() < blen {
            heaps.push(KnnHeap::new(k));
        }
        for (bi, i) in (lo..hi).enumerate() {
            let heap = &mut heaps[bi];
            heap.reset(k, r0_sq);
            tree.local.query_into(
                point(i),
                heap,
                BoundMode::Exact,
                &mut ws,
                &mut local_counters,
            );
        }
        charge(comm, &local_counters, dims);
        counters.add(&local_counters);
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.local_knn += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // (3) identify remote ranks; assemble flat request streams. A
        // request is `dims + 1` floats (coordinates + r'²); the order of
        // requests per destination is remembered in `sent_bi`, so
        // responses — which come back in request order — need no qid
        // echo at all.
        let before = comm.clock();
        let mut ident_counters = QueryCounters::default();
        for lane in &mut req_coord_ws {
            lane.clear();
        }
        for lane in &mut sent_bi {
            lane.clear();
        }
        for (bi, i) in (lo..hi).enumerate() {
            let q = point(i);
            let r_sq = heaps[bi].bound_sq();
            rank_scratch.clear();
            tree.global
                .ranks_in_ball(q, r_sq, &mut rank_scratch, &mut ident_counters);
            let mut any = false;
            for &r in &rank_scratch {
                if r == me {
                    continue;
                }
                any = true;
                remote.remote_pairs_sent += 1;
                req_coord_ws[r].extend_from_slice(q);
                req_coord_ws[r].push(r_sq);
                sent_bi[r].push(bi as u32);
            }
            if any {
                remote.queries_with_remote += 1;
            }
        }
        charge(comm, &ident_counters, dims);
        counters.add(&ident_counters);
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.identify_remote += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // exchange requests (compute observed during the exchange is
        // attributed to identify_remote so phase totals cover the steps)
        let before = comm.clock();
        faultpoint::maybe_fail_ctx(points::DIST_EXCHANGE_REQUESTS, me as u64)?;
        let req_coords_in = comm
            .world()
            .try_alltoallv(std::mem::take(&mut req_coord_ws))?;
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.identify_remote += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // (4) serve received requests with pruned local KNN. The response
        // to each source is flat: one neighbor count per request plus
        // flat id/distance arrays, in request order.
        let before = comm.clock();
        let mut remote_counters = QueryCounters::default();
        for lane in &mut resp_cnt_ws {
            lane.clear();
        }
        for lane in &mut resp_id_ws {
            lane.clear();
        }
        for lane in &mut resp_dist_ws {
            lane.clear();
        }
        for (src, coords) in req_coords_in.iter().enumerate() {
            debug_assert_eq!(coords.len() % stride, 0);
            let nreq = coords.len() / stride;
            remote.remote_requests_served += nreq as u64;
            for j in 0..nreq {
                let q = &coords[j * stride..j * stride + dims];
                let r_sq = coords[j * stride + dims];
                serve_heap.reset(k, r_sq);
                tree.local.query_into(
                    q,
                    &mut serve_heap,
                    BoundMode::Exact,
                    &mut ws,
                    &mut remote_counters,
                );
                serve_out.clear();
                serve_heap.append_sorted_into(&mut serve_out);
                resp_cnt_ws[src].push(serve_out.len() as u32);
                for n in &serve_out {
                    resp_id_ws[src].push(n.id);
                    resp_dist_ws[src].push(n.dist_sq);
                }
            }
        }
        charge(comm, &remote_counters, dims);
        counters.add(&remote_counters);
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.remote_knn += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // exchange responses (exchange-side compute goes to merge, the
        // phase that consumes these streams)
        let before = comm.clock();
        faultpoint::maybe_fail_ctx(points::DIST_EXCHANGE_RESPONSES, me as u64)?;
        let resp_cnt_in = comm
            .world()
            .try_alltoallv(std::mem::take(&mut resp_cnt_ws))?;
        let resp_id_in = comm
            .world()
            .try_alltoallv(std::mem::take(&mut resp_id_ws))?;
        let resp_dist_in = comm
            .world()
            .try_alltoallv(std::mem::take(&mut resp_dist_ws))?;
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.merge += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // (5) merge responses into the batch heaps. Responses from rank r
        // arrive in exactly the order this rank sent requests to r
        // (`sent_bi[r]`), so the merge walks both in lockstep — no qid
        // lookup at all.
        let before = comm.clock();
        let mut merge_counters = QueryCounters::default();
        for r in 0..p {
            let cnts = &resp_cnt_in[r];
            let ids = &resp_id_in[r];
            let dists = &resp_dist_in[r];
            debug_assert_eq!(cnts.len(), sent_bi[r].len());
            debug_assert_eq!(ids.len(), dists.len());
            let mut cur = 0usize;
            for (&bi, &cnt) in sent_bi[r].iter().zip(cnts) {
                let heap = &mut heaps[bi as usize];
                for t in cur..cur + cnt as usize {
                    merge_counters.merge_candidates += 1;
                    remote.remote_neighbors_received += 1;
                    heap.offer(dists[t], ids[t]);
                }
                cur += cnt as usize;
            }
            debug_assert_eq!(cur, dists.len());
        }
        // finalize the batch into the owned-order arena, draining each
        // heap in place so its buffer is ready for the next step
        for heap in heaps[..blen].iter_mut() {
            let start = fin_arena.len();
            heap.append_sorted_into(&mut fin_arena);
            fin_counts.push((fin_arena.len() - start) as u32);
        }
        charge(comm, &merge_counters, dims);
        counters.add(&merge_counters);
        let (d_comp, d_comm) = clock_delta(comm, before);
        breakdown.merge += d_comp;
        breakdown.comm_total += d_comm;
        step_compute += d_comp;
        step_comm += d_comm;

        // recycle the received buffers as the next step's send lanes
        req_coord_ws = req_coords_in;
        resp_cnt_ws = resp_cnt_in;
        resp_id_ws = resp_id_in;
        resp_dist_ws = resp_dist_in;

        breakdown.steps.push(StepTiming {
            compute: step_compute,
            comm: step_comm,
        });
    }

    // ---- return results to origins (flat framing) -----------------------
    // One packed meta word per finalized query — `(submission idx << 32) |
    // count` (the origin rank is implied by the lane) — plus flat
    // id/distance arrays. No header-per-query framing.
    let before = comm.clock();
    let mut ret_meta_sends: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut ret_id_sends: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut ret_dist_sends: Vec<Vec<f32>> = vec![Vec::new(); p];
    let mut cur = 0usize;
    for (&rq, &cnt) in qids.iter().zip(&fin_counts) {
        let origin = qid_origin(rq);
        ret_meta_sends[origin].push(((qid_idx(rq) as u64) << QID_SHIFT) | u64::from(cnt));
        for n in &fin_arena[cur..cur + cnt as usize] {
            ret_id_sends[origin].push(n.id);
            ret_dist_sends[origin].push(n.dist_sq);
        }
        cur += cnt as usize;
    }
    debug_assert_eq!(cur, fin_arena.len());
    faultpoint::maybe_fail_ctx(points::DIST_EXCHANGE_RETURN, me as u64)?;
    let ret_meta_in = comm.world().try_alltoallv(ret_meta_sends)?;
    let ret_id_in = comm.world().try_alltoallv(ret_id_sends)?;
    let ret_dist_in = comm.world().try_alltoallv(ret_dist_sends)?;

    // Assemble the CSR response in submission order: row counts first,
    // then each stream is copied into its final rows in place.
    let mut row_counts = vec![0u32; queries.len()];
    let mut answered = 0usize;
    for meta in &ret_meta_in {
        for &m in meta {
            row_counts[(m >> QID_SHIFT) as usize] = (m & QID_IDX_MASK) as u32;
            answered += 1;
        }
    }
    debug_assert_eq!(answered, queries.len(), "every query answered exactly once");
    let mut table = NeighborTable::with_row_counts(&row_counts)?;
    for ((meta, ids), dists) in ret_meta_in.iter().zip(&ret_id_in).zip(&ret_dist_in) {
        let mut cur = 0usize;
        for &m in meta {
            let idx = (m >> QID_SHIFT) as usize;
            let cnt = (m & QID_IDX_MASK) as usize;
            let row = table.row_mut(idx);
            for t in 0..cnt {
                row[t] = Neighbor {
                    dist_sq: dists[cur + t],
                    id: ids[cur + t],
                };
            }
            cur += cnt;
        }
        debug_assert_eq!(cur, dists.len());
    }
    let (d_comp, d_comm) = clock_delta(comm, before);
    breakdown.merge += d_comp;
    breakdown.comm_total += d_comm;
    // The return leg is the pipeline's epilogue step: logging it keeps
    // `Σ steps.compute` equal to the four in-pipeline phase totals (the
    // accounting invariant on `QueryBreakdown`).
    breakdown.steps.push(StepTiming {
        compute: d_comp,
        comm: d_comm,
    });

    Ok(DistQueryOutput {
        neighbors: table,
        breakdown,
        counters,
        remote,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_distributed::build_distributed;
    use crate::config::DistConfig;
    use crate::heap::KnnHeap;
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

    fn scatter(ps: &PointSet, rank: usize, p: usize) -> PointSet {
        let mut mine = PointSet::new(ps.dims()).unwrap();
        for i in (rank..ps.len()).step_by(p) {
            mine.push(ps.point(i), ps.id(i));
        }
        mine
    }

    fn brute(ps: &PointSet, q: &[f32], k: usize) -> Vec<f32> {
        let mut h = KnnHeap::new(k);
        for i in 0..ps.len() {
            h.offer(ps.dist_sq_to(q, i), ps.id(i));
        }
        h.into_sorted().iter().map(|n| n.dist_sq).collect()
    }

    /// End-to-end exactness across rank counts, dims, k, and batch sizes.
    fn check_exact(p: usize, n: usize, dims: usize, k: usize, batch: usize, seed: u64) {
        let all = random_ps(n, dims, seed);
        let queries = random_ps(60, dims, seed + 1);
        let out = run_cluster(&ClusterConfig::new(p), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let cfg = QueryConfig {
                k,
                batch_size: batch,
                ..QueryConfig::default()
            };
            let res = query_distributed(comm, &tree, &myq, &cfg).unwrap();
            // pair each local query with its result distances
            (0..myq.len())
                .map(|i| {
                    let dists: Vec<f32> = res.neighbors.row(i).iter().map(|n| n.dist_sq).collect();
                    (myq.point(i).to_vec(), dists)
                })
                .collect::<Vec<_>>()
        });
        for o in &out {
            for (q, dists) in &o.result {
                let expect = brute(&all, q, k);
                assert_eq!(
                    dists, &expect,
                    "p={p} dims={dims} k={k} batch={batch} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn exact_small_clusters() {
        check_exact(2, 1200, 3, 5, 4096, 100);
        check_exact(4, 1200, 3, 5, 4096, 101);
    }

    #[test]
    fn exact_non_power_of_two_ranks() {
        check_exact(3, 1000, 3, 4, 4096, 102);
        check_exact(5, 1000, 2, 3, 4096, 103);
    }

    #[test]
    fn exact_high_dims() {
        check_exact(4, 800, 10, 5, 4096, 104);
    }

    #[test]
    fn exact_tiny_batches_multiple_steps() {
        // batch of 4 forces many pipeline steps
        check_exact(4, 800, 3, 5, 4, 105);
    }

    #[test]
    fn exact_k_of_one_and_large_k() {
        check_exact(4, 600, 3, 1, 4096, 106);
        check_exact(4, 600, 3, 50, 4096, 107);
    }

    #[test]
    fn k_exceeding_dataset_returns_all() {
        let all = random_ps(40, 3, 9);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = if comm.rank() == 0 {
                PointSet::from_coords(3, vec![5.0, 5.0, 5.0]).unwrap()
            } else {
                PointSet::new(3).unwrap()
            };
            let cfg = QueryConfig {
                k: 100,
                ..QueryConfig::default()
            };
            let res = query_distributed(comm, &tree, &myq, &cfg).unwrap();
            res.neighbors.get(0).map(<[Neighbor]>::len)
        });
        assert_eq!(out[0].result, Some(40));
    }

    #[test]
    fn empty_query_set_on_some_ranks() {
        let all = random_ps(500, 3, 10);
        let queries = random_ps(10, 3, 11);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = if comm.rank() == 2 {
                queries.clone()
            } else {
                PointSet::new(3).unwrap()
            };
            let cfg = QueryConfig {
                k: 3,
                ..QueryConfig::default()
            };
            let res = query_distributed(comm, &tree, &myq, &cfg).unwrap();
            res.neighbors.len()
        });
        assert_eq!(out[2].result, 10);
        assert_eq!(out[0].result, 0);
    }

    #[test]
    fn breakdown_and_stats_are_recorded() {
        let all = random_ps(2000, 3, 14);
        let queries = random_ps(200, 3, 15);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).unwrap();
            (res.breakdown.clone(), res.remote, res.counters)
        });
        let mut owned = 0u64;
        for o in &out {
            let b = &o.result.0;
            assert!(b.local_knn > 0.0);
            assert!(b.total_synchronous() > 0.0);
            assert!(b.total_pipelined() <= b.total_synchronous() + 1e-12);
            assert!(!b.steps.is_empty());
            owned += o.result.1.owned_queries;
            assert!(o.result.2.points_scanned > 0);
        }
        assert_eq!(owned, 200, "all queries owned exactly once");
    }

    #[test]
    fn duplicate_heavy_distributed_data_exact() {
        // co-located records spread across ranks (Daya Bay §V-A3 behavior)
        let mut all = PointSet::new(3).unwrap();
        let mut rng = SplitRng::new(18);
        for i in 0..1200u64 {
            if i % 3 == 0 {
                all.push(&[5.0, 5.0, 5.0], i);
            } else {
                all.push(
                    &[
                        (rng.next_f64() * 10.0) as f32,
                        (rng.next_f64() * 10.0) as f32,
                        (rng.next_f64() * 10.0) as f32,
                    ],
                    i,
                );
            }
        }
        let queries = random_ps(20, 3, 19);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(7)).unwrap();
            (0..myq.len())
                .map(|i| {
                    let d: Vec<f32> = res.neighbors.row(i).iter().map(|n| n.dist_sq).collect();
                    (myq.point(i).to_vec(), d)
                })
                .collect::<Vec<_>>()
        });
        for o in &out {
            for (q, dists) in &o.result {
                assert_eq!(dists, &brute(&all, q, 7));
            }
        }
    }

    #[test]
    fn qid_packing_round_trips_at_the_boundary() {
        // max addressable index and origin survive the round trip
        let max = (u32::MAX) as usize;
        for (origin, idx) in [(0, 0), (0, max), (max, 0), (max, max), (3, 12345)] {
            let q = qid(origin, idx);
            assert_eq!(qid_origin(q), origin, "origin for {q:#x}");
            assert_eq!(qid_idx(q), idx, "idx for {q:#x}");
        }
    }

    #[test]
    fn qid_capacity_guard_rejects_oversized_batches() {
        assert!(check_qid_capacity(0, 1).is_ok());
        assert!(check_qid_capacity(u32::MAX as usize, 8).is_ok());
        // 2^32 queries still fit (indices 0..2^32-1); one more does not
        assert!(check_qid_capacity(MAX_QUERIES_PER_RANK as usize, 8).is_ok());
        let err = check_qid_capacity(MAX_QUERIES_PER_RANK as usize + 1, 8).unwrap_err();
        assert!(matches!(err, PandaError::BadConfig(_)));
        assert!(err.to_string().contains("qid"), "{err}");
        // absurd rank counts are rejected too
        assert!(check_qid_capacity(10, MAX_QUERIES_PER_RANK as usize + 1).is_err());
    }

    /// The accounting invariant from the `QueryBreakdown` docs: every
    /// compute delta recorded into a step is attributed to exactly one
    /// phase field, so the step log and the phase totals agree.
    #[test]
    fn step_accounting_matches_phase_totals() {
        let all = random_ps(2000, 3, 30);
        let queries = random_ps(300, 3, 31);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let cfg = QueryConfig {
                k: 5,
                batch_size: 32, // several steps
                ..QueryConfig::default()
            };
            query_distributed(comm, &tree, &myq, &cfg)
                .unwrap()
                .breakdown
        });
        for o in &out {
            let b = &o.result;
            let phases = b.local_knn + b.identify_remote + b.remote_knn + b.merge;
            assert!(
                (b.steps_compute() - phases).abs() <= 1e-9 * phases.max(1.0),
                "steps {} vs phases {phases}",
                b.steps_compute()
            );
            // comm: everything outside the routing prologue is in a step
            assert!(b.steps_comm() <= b.comm_total + 1e-12);
            // the epilogue (origin-return) step is recorded
            assert!(b.steps.len() >= 2);
        }
    }

    /// Morton execution order is locality only: results must be
    /// bit-identical to input order and exact vs brute force.
    #[test]
    fn morton_order_is_bit_identical_and_exact() {
        let all = random_ps(1500, 3, 32);
        let queries = random_ps(90, 3, 33);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let input = query_distributed(
                comm,
                &tree,
                &myq,
                &QueryConfig {
                    k: 5,
                    batch_size: 16,
                    order: crate::config::QueryOrder::Input,
                    ..QueryConfig::default()
                },
            )
            .unwrap();
            let morton = query_distributed(
                comm,
                &tree,
                &myq,
                &QueryConfig {
                    k: 5,
                    batch_size: 16,
                    order: crate::config::QueryOrder::Morton,
                    ..QueryConfig::default()
                },
            )
            .unwrap();
            assert_eq!(input.neighbors, morton.neighbors, "order changed results");
            // same queries, same bounds: the remote fan-out is identical
            assert_eq!(
                input.remote.remote_pairs_sent,
                morton.remote.remote_pairs_sent
            );
            (0..myq.len())
                .map(|i| {
                    let d: Vec<f32> = morton.neighbors.row(i).iter().map(|n| n.dist_sq).collect();
                    (myq.point(i).to_vec(), d)
                })
                .collect::<Vec<_>>()
        });
        for o in &out {
            for (q, dists) in &o.result {
                assert_eq!(dists, &brute(&all, q, 5));
            }
        }
    }

    #[test]
    fn validates_config_and_dims() {
        let all = random_ps(200, 3, 20);
        let out = run_cluster(&ClusterConfig::new(2), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
            let bad_q = random_ps(4, 2, 21);
            let e1 = query_distributed(comm, &tree, &bad_q, &QueryConfig::with_k(3));
            let good_q = random_ps(4, 3, 22);
            let e2 = query_distributed(comm, &tree, &good_q, &QueryConfig::with_k(0));
            // everyone still needs to run a real query so the SPMD
            // collectives stay aligned? No — both error paths return
            // before any collective, symmetrically on all ranks.
            (
                matches!(e1, Err(PandaError::DimsMismatch { .. })),
                matches!(e2, Err(PandaError::ZeroK)),
            )
        });
        for o in &out {
            assert!(o.result.0 && o.result.1);
        }
    }
}
