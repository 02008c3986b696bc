//! [`ShardedIndex`]: the distributed engine as a **service-grade**
//! backend — one local engine per spatial cell behind a `Send + Sync`
//! handle.
//!
//! The paper's query runs in five stages (§III-B, restated in
//! [`crate::query_distributed`]): find the owner, local KNN, identify
//! the remote ranks whose cells the ball `(q, r')` touches, remote KNN,
//! and merge. The SPMD driver runs them as collectives that every rank
//! enters in lockstep. Here the front handle runs stages 1, 3 and 5
//! itself, and a round is two passes over the shards, with no
//! collective anywhere:
//!
//! * **A shard is data.** Each cell's points sit in their own
//!   [`KnnIndex`] (built collectively by the SPMD [`build_distributed`]
//!   on threads that end with the build). A pass asks each shard it
//!   needs one question, "k-NN for these `(q, r²)`", answered by that
//!   shard's local batch engine on one thread (locality order per
//!   [`crate::morton`], one row per query in ask order). The asked shards
//!   run as one parallel map on the pool; a pass that asks one shard runs
//!   on the caller.
//! * **Owner pass.** The front routes each query to the shard whose cell
//!   holds it and asks each owning shard its slice, bounded by the
//!   request's `r0²` (`+∞` without a radius); the shard returns its
//!   local top-k rows.
//! * **Remote pass.** From each row the front takes `r'²` — the k-th
//!   distance when the row is full, else `r0²` — asks the global tree
//!   which other shards the ball touches, and asks `(q, r'²)` of those
//!   shards only. A shard with nothing to do is not asked
//!   (`shard.messages` counts the asks, the messages a remote transport
//!   would carry).
//! * **Merge.** Candidates enter a [`KnnHeap`] reset to `(k, r0²)` in the
//!   SPMD engine's order: the owner's row, then each remote shard in
//!   ascending rank. A query no other shard was asked about keeps its
//!   owner's row as is.
//!
//! Results are bit-for-bit identical to the single-shard local engine and
//! [`QueryCounters`] equal the SPMD engine's summed over ranks (pinned by
//! tests here, in `tests/dist_order_parity.rs` and in
//! `tests/backend_parity.rs`), so a service can front a sharded cluster
//! and still promise exactness.
//!
//! Rounds share no state, so rounds from several callers overlap freely.
//! A pass has no deadline of its own: a slow shard is a slow call, like a
//! slow [`KnnIndex`]. A panic inside a shard's answer is caught where it
//! happens and fails the round with a typed
//! [`PandaError::BackendPanicked`] naming the shard; the next round
//! proceeds normally. The first error in rank order is the round's.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

use panda_comm::{make_endpoints, ClusterConfig};
use panda_obs::trace::{self, Stage};
use panda_obs::{Counter, Registry, TraceId};
use rayon::prelude::*;

use crate::build_distributed::build_distributed;
use crate::config::{DistConfig, QueryOrder};
use crate::counters::QueryCounters;
use crate::engine::{NeighborTable, NnBackend, QueryRequest, QueryResponse};
use crate::error::{PandaError, Result};
use crate::faultpoint::{self, points};
use crate::global_tree::GlobalKdTree;
use crate::heap::KnnHeap;
use crate::knn::KnnIndex;
use crate::point::PointSet;
use crate::supervise::panic_message;

/// One shard's answer to its [`Asks`]: a sorted row per query, in ask
/// order, and the work it took.
type ShardRows = (NeighborTable, QueryCounters);

/// What one pass asks one shard: the queries, each with its squared
/// search bound.
struct Asks {
    queries: PointSet,
    bounds_sq: Vec<f32>,
}

impl Asks {
    fn new(dims: usize) -> Result<Self> {
        Ok(Self {
            queries: PointSet::new(dims)?,
            bounds_sq: Vec::new(),
        })
    }

    fn push(&mut self, q: &[f32], bound_sq: f32) {
        self.queries.push(q, self.bounds_sq.len() as u64);
        self.bounds_sq.push(bound_sq);
    }
}

/// A distributed kd-tree cluster behind one thread-safe handle.
///
/// `ShardedIndex: Send + Sync` — the compile-time pin that makes the
/// distributed engine service-eligible (`tests/thread_safety.rs`). It
/// holds the global BSP tree and one [`KnnIndex`] per cell, and starts no
/// thread once built. Build with [`ShardedIndex::build`], then use it
/// anywhere an `Arc<dyn NnBackend + Send + Sync>` is expected:
///
/// ```
/// use panda_core::engine::{NnBackend, QueryRequest, ShardedIndex};
/// use panda_core::{DistConfig, PointSet};
///
/// let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
/// let queries = PointSet::from_coords(1, vec![1.2])?;
/// let index = ShardedIndex::build(&points, 2, &DistConfig::default())?;
/// let res = index.query(&QueryRequest::knn(&queries, 2))?;
/// assert_eq!(res.neighbors.row(0)[0].id, 1); // x = 1.0
/// # Ok::<(), panda_core::PandaError>(())
/// ```
pub struct ShardedIndex {
    /// The global BSP tree, used by the front end for routing and for
    /// finding the shards a ball touches.
    global: GlobalKdTree,
    /// One local engine per cell, in rank order.
    shards: Vec<KnnIndex>,
    dims: usize,
    len: usize,
    /// Shared metrics plane: the `shard.*` counters (see
    /// [`NnBackend::registry`]).
    registry: Registry,
    rounds: Counter,
    queries_total: Counter,
    messages: Counter,
}

impl ShardedIndex {
    /// Build a cluster of `shards` cells over `points` (ids must be
    /// unique). Points are dealt round-robin across shards and then
    /// redistributed by the collective build into spatial cells, exactly
    /// as the SPMD [`build_distributed`] does; the build's threads and
    /// communicators end when it returns.
    pub fn build(points: &PointSet, shards: usize, cfg: &DistConfig) -> Result<Self> {
        if shards == 0 {
            return Err(PandaError::BadConfig(
                "sharded index needs at least one shard".into(),
            ));
        }
        points.validate()?;
        let dims = points.dims();
        let mut dealt = (0..shards)
            .map(|_| PointSet::new(dims))
            .collect::<Result<Vec<_>>>()?;
        for i in 0..points.len() {
            dealt[i % shards].push(points.point(i), points.id(i));
        }
        // The collective build either works everywhere or fails
        // everywhere (a dead peer surfaces as a timeout on the others);
        // keep the first error in rank order as the representative one.
        let built: Vec<Result<_>> = std::thread::scope(|s| {
            let handles = make_endpoints(&ClusterConfig::new(shards))
                .into_iter()
                .zip(dealt)
                .enumerate()
                .map(|(shard, (mut comm, mine))| {
                    std::thread::Builder::new()
                        .name(format!("panda-shard-{shard}"))
                        .stack_size(8 << 20)
                        .spawn_scoped(s, move || {
                            // Keep the local tree, and shard 0's routing
                            // tree (the build is deterministic and
                            // collective, so every shard holds the same);
                            // the redistributed points go here.
                            build_distributed(&mut comm, mine, cfg)
                                .map(|tree| ((shard == 0).then_some(tree.global), tree.local))
                        })
                        .map_err(|e| PandaError::BadConfig(format!("spawn shard build: {e}")))
                })
                .collect::<Vec<_>>();
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, handle)| {
                    handle?.join().unwrap_or_else(|panic| {
                        Err(PandaError::BackendPanicked(format!(
                            "shard {shard} build: {}",
                            panic_message(panic.as_ref())
                        )))
                    })
                })
                .collect()
        });
        let mut global = None;
        let mut locals = Vec::with_capacity(shards);
        for tree in built {
            let (routing, local) = tree?;
            global = global.or(routing);
            locals.push(KnnIndex { tree: local });
        }
        let registry = Registry::new();
        Ok(Self {
            global: global.expect("shard 0 keeps the routing tree"),
            shards: locals,
            dims,
            len: points.len(),
            rounds: registry.counter("shard.rounds"),
            queries_total: registry.counter("shard.queries"),
            messages: registry.counter("shard.messages"),
            registry,
        })
    }

    /// Number of shards (spatial cells).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The global BSP tree used for routing (rank regions, bboxes).
    pub fn global(&self) -> &GlobalKdTree {
        &self.global
    }

    /// One pass: answer every shard with something to ask, as one
    /// parallel map over those shards only. A shard asked nothing answers
    /// with empty rows.
    fn pass(
        &self,
        asks: Vec<Asks>,
        k: usize,
        order: QueryOrder,
        trace_id: TraceId,
    ) -> Result<Vec<ShardRows>> {
        let asked: Vec<(usize, Asks)> = asks
            .into_iter()
            .enumerate()
            .filter(|(_, ask)| !ask.bounds_sq.is_empty())
            .collect();
        self.messages.add(asked.len() as u64);
        let answers: Vec<(usize, Result<ShardRows>)> = asked
            .into_par_iter()
            .map(|(shard, ask)| (shard, self.answer(shard, &ask, k, order, trace_id)))
            .collect();
        let mut rows: Vec<ShardRows> = (0..self.shards()).map(|_| ShardRows::default()).collect();
        for (shard, answer) in answers {
            rows[shard] = answer?;
        }
        Ok(rows)
    }

    /// Shard `shard` answers `ask` through its local batch engine on the
    /// calling thread, each query from its own bound: the seam a remote
    /// transport would carry. A panic is caught here and returned typed.
    fn answer(
        &self,
        shard: usize,
        ask: &Asks,
        k: usize,
        order: QueryOrder,
        trace_id: TraceId,
    ) -> Result<ShardRows> {
        let t0 = Instant::now();
        let answer = std::panic::catch_unwind(AssertUnwindSafe(|| {
            faultpoint::maybe_fail_ctx(points::SHARD_WORKER_QUERY, shard as u64)?;
            let bounds_sq = &ask.bounds_sq;
            self.shards[shard].batch_csr(&ask.queries, k, |i| bounds_sq[i], order, false, |_| true)
        }));
        trace::record(trace_id, Stage::ShardWorker, t0);
        answer.unwrap_or_else(|panic| {
            Err(PandaError::BackendPanicked(format!(
                "shard {shard} panicked mid-batch: {}",
                panic_message(panic.as_ref())
            )))
        })
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards())
            .field("len", &self.len)
            .field("dims", &self.dims)
            .finish()
    }
}

impl NnBackend for ShardedIndex {
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = Instant::now();
        req.validate()?;
        let queries = req.queries();
        if queries.dims() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: queries.dims(),
            });
        }
        let n = queries.len();
        let mut counters = QueryCounters::default();
        if n == 0 {
            return Ok(QueryResponse::local(
                NeighborTable::new(),
                counters,
                t0.elapsed().as_secs_f64(),
            ));
        }
        self.rounds.inc();
        self.queries_total.add(n as u64);
        let p = self.shards();
        let (k, order, trace_id) = (req.k(), req.order(), req.trace());
        let r0_sq = req.radius_sq();

        // (1) find owner: `route[i]` is query i's owner and its place in
        // the owner's asks.
        let mut route = Vec::with_capacity(n);
        let mut asks = (0..p)
            .map(|_| Asks::new(self.dims))
            .collect::<Result<Vec<_>>>()?;
        for i in 0..n {
            let q = queries.point(i);
            let owner = self.global.owner(q, &mut counters);
            route.push((owner, asks[owner].bounds_sq.len()));
            asks[owner].push(q, r0_sq);
        }
        trace::record(trace_id, Stage::Scatter, t0);
        let gather_start = Instant::now();
        // (2) local KNN on the owners
        let owned = self.pass(asks, k, order, trace_id)?;

        // (3) identify remote shards from each owner row's bound; each
        // shard's `asked` list comes out in submission order
        let mut asks = (0..p)
            .map(|_| Asks::new(self.dims))
            .collect::<Result<Vec<_>>>()?;
        let mut asked: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut touched = Vec::new();
        for (i, &(owner, slot)) in route.iter().enumerate() {
            let q = queries.point(i);
            let row = owned[owner].0.row(slot);
            let r_sq = if row.len() == k {
                row[k - 1].dist_sq
            } else {
                r0_sq
            };
            touched.clear();
            self.global
                .ranks_in_ball(q, r_sq, &mut touched, &mut counters);
            for &shard in touched.iter().filter(|&&s| s != owner) {
                asks[shard].push(q, r_sq);
                asked[shard].push(i);
            }
        }
        // (4) remote KNN, bounded by r'²
        let remote = self.pass(asks, k, order, trace_id)?;

        // (5) merge in the SPMD order: the owner's row, then each remote
        // shard by ascending rank. `next[s]` walks shard s's `asked` list.
        let mut next = vec![0usize; p];
        let mut heap = KnnHeap::new(k);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut arena = Vec::with_capacity(owned.iter().map(|o| o.0.total_neighbors()).sum());
        for (i, &(owner, slot)) in route.iter().enumerate() {
            let own = owned[owner].0.row(slot);
            let mut merging = false;
            for shard in 0..p {
                if asked[shard].get(next[shard]) != Some(&i) {
                    continue;
                }
                if !merging {
                    heap.reset(k, r0_sq);
                    for nb in own {
                        heap.offer(nb.dist_sq, nb.id);
                    }
                    merging = true;
                }
                for nb in remote[shard].0.row(next[shard]) {
                    counters.merge_candidates += 1;
                    heap.offer(nb.dist_sq, nb.id);
                }
                next[shard] += 1;
            }
            if merging {
                heap.append_sorted_into(&mut arena);
            } else {
                arena.extend_from_slice(own);
            }
            offsets.push(arena.len() as u32);
        }
        for (_, work) in owned.iter().chain(&remote) {
            counters.add(work);
        }
        let table = NeighborTable::from_parts(offsets, arena)?;
        trace::record(trace_id, Stage::Gather, gather_start);
        Ok(QueryResponse::local(
            table,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }

    fn name(&self) -> &'static str {
        "panda-sharded"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn registry(&self) -> Option<Registry> {
        Some(self.registry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
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

    #[test]
    fn sharded_index_is_send_and_sync() {
        fn pin<T: Send + Sync>() {}
        pin::<ShardedIndex>();
    }

    #[test]
    fn sharded_matches_local_index_through_the_trait() {
        let all = random_ps(1500, 3, 40);
        let queries = random_ps(48, 3, 41);
        let expect = {
            let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
            local
                .query_session(&QueryRequest::knn(&queries, 5))
                .unwrap()
                .neighbors
        };
        let idx = ShardedIndex::build(&all, 4, &DistConfig::default()).unwrap();
        assert_eq!(idx.name(), "panda-sharded");
        assert_eq!(idx.dims(), 3);
        assert_eq!(idx.len(), 1500);
        assert_eq!(idx.shards(), 4);
        let backend: &dyn NnBackend = &idx;
        let res = backend.query(&QueryRequest::knn(&queries, 5)).unwrap();
        assert_eq!(res.neighbors, expect, "bit-identical to single-shard");
    }

    #[test]
    fn registry_carries_shard_and_comm_metrics() {
        let all = random_ps(600, 3, 70);
        let queries = random_ps(24, 3, 71);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        let snap = (&idx as &dyn NnBackend).registry().unwrap().snapshot();
        assert_eq!(snap.counter("shard.rounds"), Some(2));
        assert_eq!(snap.counter("shard.queries"), Some(48));
        // at least the owners' asks, at most an owner and a remote ask
        // per shard per round
        let messages = snap.counter("shard.messages").unwrap();
        assert!((2..=8).contains(&messages), "{messages} asks: {snap:?}");
        // rounds move no data through collectives, so no `comm.*` cell
        assert!(
            snap.iter().all(|(name, _)| !name.starts_with("comm.")),
            "{snap:?}"
        );
    }

    #[test]
    fn single_shard_cluster_works() {
        let all = random_ps(300, 2, 50);
        let queries = random_ps(20, 2, 51);
        let idx = ShardedIndex::build(&all, 1, &DistConfig::default()).unwrap();
        let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
        let a = idx.query(&QueryRequest::knn(&queries, 7)).unwrap();
        let b = local
            .query_session(&QueryRequest::knn(&queries, 7))
            .unwrap();
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn repeated_rounds_reuse_the_workers() {
        let all = random_ps(600, 3, 52);
        let idx = ShardedIndex::build(&all, 3, &DistConfig::default()).unwrap();
        for seed in 0..4 {
            let queries = random_ps(15, 3, 60 + seed);
            let res = idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
            assert_eq!(res.neighbors.len(), 15);
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let ps = random_ps(10, 2, 43);
        let err = ShardedIndex::build(&ps, 0, &DistConfig::default());
        assert!(matches!(err, Err(PandaError::BadConfig(_))));
    }

    #[test]
    fn radius_request_limits_results() {
        let all = random_ps(800, 2, 43);
        let queries = random_ps(10, 2, 44);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        let res = idx
            .query(&QueryRequest::knn(&queries, 8).with_radius(0.5))
            .unwrap();
        assert!(
            res.neighbors
                .iter()
                .flat_map(|row| row.iter().map(|n| n.dist_sq))
                .all(|d| d < 0.25),
            "0.5² bound"
        );
    }

    #[test]
    fn empty_query_set_is_fine() {
        let all = random_ps(100, 3, 47);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        let queries = PointSet::new(3).unwrap();
        let res = idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        assert_eq!(res.neighbors.len(), 0);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let all = random_ps(100, 3, 48);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        // an empty batch is checked too: dims are a property of the batch
        for queries in [random_ps(4, 2, 49), PointSet::new(2).unwrap()] {
            let err = idx.query(&QueryRequest::knn(&queries, 3));
            assert!(matches!(err, Err(PandaError::DimsMismatch { .. })));
        }
    }
}
