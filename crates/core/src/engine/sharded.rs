//! [`ShardedIndex`]: the distributed engine as a **service-grade**
//! backend — shard worker threads behind a `Send + Sync` handle.
//!
//! The paper's query runs in five stages (§III-B, restated in
//! [`crate::query_distributed`]): find the owner, local KNN, identify
//! the remote ranks whose cells the ball `(q, r')` touches, remote KNN,
//! and merge. The SPMD driver runs them as collectives that every rank
//! enters in lockstep. Here the front handle runs stages 1, 3 and 5
//! itself, and a round is two request/response passes over the shards'
//! job channels, with no collective anywhere:
//!
//! * **Each shard is a long-lived worker thread** that exclusively owns
//!   its local kd-tree (built collectively by the SPMD
//!   [`build_distributed`]; the comm endpoint is dropped once the build
//!   is done) and serves one kind of job: "k-NN for these `(q, r²)`".
//!   It runs the job through the local batch engine of [`KnnIndex`] on
//!   its own thread (locality order per [`crate::morton`], one row per
//!   query in job order) and answers on the reply channel the job
//!   carries.
//! * **Owner pass.** The front routes each query to the shard whose cell
//!   holds it and sends each owning shard one job with its slice, bounded
//!   by the request's `r0²` (`+∞` without a radius); the shard returns its
//!   local top-k rows.
//! * **Remote pass.** From each row the front takes `r'²` — the k-th
//!   distance when the row is full, else `r0²` — asks the global tree
//!   which other shards the ball touches, and sends `(q, r'²)` to those
//!   shards only. A shard with nothing to do gets no job
//!   (`shard.messages` counts the jobs sent).
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
//! Rounds share no state — each creates its own reply channel — so
//! rounds from several callers overlap freely. The front waits at most
//! [`ClusterConfig::recv_timeout`] per pass: a shard that has not
//! answered by then fails the round with [`PandaError::Comm`], never a
//! hang, and its late reply goes nowhere. A worker catches a panic
//! inside a job where it happens and replies at once with a typed
//! [`PandaError::BackendPanicked`] (counted in `shard.restarts`); a
//! worker whose reply finds its round gone keeps serving. Since no shard
//! waits on another, the first error a round receives is its root cause.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use panda_comm::{make_endpoints, ClusterConfig, Comm, CommError};
use panda_obs::trace::{self, Stage};
use panda_obs::{Counter, Registry, TraceId};

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

/// "k-NN for these `(q, r²)`": the one job both passes send.
struct KnnJob {
    asks: Asks,
    k: usize,
    order: QueryOrder,
    trace: TraceId,
    /// The round's reply channel; the shard tags its rows with its rank.
    reply: Sender<(usize, Result<ShardRows>)>,
}

/// One shard's answer to a [`KnnJob`]: a sorted row per query, in job
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
/// distributed engine service-eligible (`tests/thread_safety.rs`). Build
/// with [`ShardedIndex::build`], then use it anywhere an
/// `Arc<dyn NnBackend + Send + Sync>` is expected:
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
    /// Clone of the global BSP tree, used by the front end for routing
    /// and for finding the shards a ball touches.
    global: GlobalKdTree,
    dims: usize,
    len: usize,
    /// One job channel per shard worker; dropping them ends the workers.
    job_tx: Vec<Sender<KnnJob>>,
    /// How long one pass waits for its replies.
    recv_timeout: Duration,
    /// Shared metrics plane: the `shard.*` counters (see
    /// [`NnBackend::registry`]).
    registry: Registry,
    restarts: Counter,
    rounds: Counter,
    queries_total: Counter,
    messages: Counter,
    workers: Vec<JoinHandle<()>>,
}

fn shard_gone() -> PandaError {
    PandaError::BackendPanicked("shard worker disconnected".into())
}

impl ShardedIndex {
    /// Build a cluster of `shards` worker threads over `points` (ids must
    /// be unique). Points are dealt round-robin across shards and then
    /// redistributed by the collective build into spatial cells, exactly
    /// as the SPMD [`build_distributed`] does.
    pub fn build(points: &PointSet, shards: usize, cfg: &DistConfig) -> Result<Self> {
        Self::build_with_cluster(points, cfg, &ClusterConfig::new(shards))
    }

    /// [`ShardedIndex::build`] with an explicit [`ClusterConfig`]:
    /// `cluster.ranks` is the shard count, its cost model and receive
    /// timeout govern the collective build, and the same timeout bounds
    /// each pass of a query round — chaos tests shorten it so injected
    /// stalls surface as typed errors in milliseconds rather than
    /// minutes.
    pub fn build_with_cluster(
        points: &PointSet,
        cfg: &DistConfig,
        cluster: &ClusterConfig,
    ) -> Result<Self> {
        if cluster.ranks == 0 {
            return Err(PandaError::BadConfig(
                "sharded index needs at least one shard".into(),
            ));
        }
        points.validate()?;
        let shards = cluster.ranks;
        let dims = points.dims();
        let (init_tx, init_rx) = channel::<Result<Option<GlobalKdTree>>>();
        let registry = Registry::new();
        let restarts = registry.counter("shard.restarts");
        let mut job_tx = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, comm) in make_endpoints(cluster).into_iter().enumerate() {
            let (tx, rx) = channel::<KnnJob>();
            job_tx.push(tx);
            let mut mine = PointSet::new(dims)?;
            for i in (shard..points.len()).step_by(shards) {
                mine.push(points.point(i), points.id(i));
            }
            let cfg = *cfg;
            let init_tx = init_tx.clone();
            let restarts = restarts.clone();
            let handle = std::thread::Builder::new()
                .name(format!("panda-shard-{shard}"))
                .stack_size(8 << 20)
                .spawn(move || worker_entry(comm, mine, cfg, shard, rx, init_tx, restarts))
                .map_err(|e| PandaError::BadConfig(format!("spawn shard worker: {e}")))?;
            workers.push(handle);
        }
        drop(init_tx);
        // The collective build either succeeds on every shard or fails on
        // every shard; keep the first error as the representative one.
        let global = match init_rx.iter().collect::<Result<Vec<_>>>() {
            Ok(trees) if trees.len() == shards => trees.into_iter().flatten().next(),
            failed => {
                drop(job_tx);
                for h in workers {
                    let _ = h.join();
                }
                return Err(failed.err().unwrap_or_else(shard_gone));
            }
        };
        Ok(Self {
            global: global.expect("shard 0 publishes the global tree"),
            dims,
            len: points.len(),
            job_tx,
            recv_timeout: cluster.recv_timeout,
            rounds: registry.counter("shard.rounds"),
            queries_total: registry.counter("shard.queries"),
            messages: registry.counter("shard.messages"),
            registry,
            restarts,
            workers,
        })
    }

    /// Number of shard worker threads.
    pub fn shards(&self) -> usize {
        self.job_tx.len()
    }

    /// The global BSP tree used for routing (rank regions, bboxes).
    pub fn global(&self) -> &GlobalKdTree {
        &self.global
    }

    /// Panics caught by the shard workers (`shard.restarts`): each one
    /// failed its round with [`PandaError::BackendPanicked`] and the
    /// worker went on serving. A healthy cluster stays at 0.
    pub fn shard_restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// One pass: send one job to every shard with something to ask, then
    /// wait at most `recv_timeout` for all of their rows. A shard asked
    /// nothing answers with empty rows.
    fn pass(
        &self,
        asks: Vec<Asks>,
        k: usize,
        order: QueryOrder,
        trace_id: TraceId,
    ) -> Result<Vec<ShardRows>> {
        let (reply, replies) = channel();
        let mut waiting = Vec::new();
        for (shard, ask) in asks.into_iter().enumerate() {
            if ask.bounds_sq.is_empty() {
                continue;
            }
            let job = KnnJob {
                asks: ask,
                k,
                order,
                trace: trace_id,
                reply: reply.clone(),
            };
            self.job_tx[shard].send(job).map_err(|_| shard_gone())?;
            self.messages.inc();
            waiting.push(shard);
        }
        drop(reply);
        let deadline = Instant::now() + self.recv_timeout;
        let mut rows: Vec<ShardRows> = (0..self.shards()).map(|_| ShardRows::default()).collect();
        while !waiting.is_empty() {
            match replies.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((shard, answer)) => {
                    rows[shard] = answer?;
                    waiting.retain(|&s| s != shard);
                }
                Err(RecvTimeoutError::Timeout) => {
                    let shard = waiting[0];
                    return Err(PandaError::Comm(CommError::Timeout {
                        rank: shard,
                        src: shard,
                        tag: 0,
                    }));
                }
                Err(RecvTimeoutError::Disconnected) => return Err(shard_gone()),
            }
        }
        Ok(rows)
    }
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        // Closing the job channels ends every worker loop.
        self.job_tx.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards())
            .field("len", &self.len)
            .field("dims", &self.dims)
            .field("restarts", &self.shard_restarts())
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
        // the owner's job.
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

/// Worker thread body: collective build, publish the init result, then
/// serve jobs until the front handle closes the job channel.
fn worker_entry(
    mut comm: Comm,
    mine: PointSet,
    cfg: DistConfig,
    shard: usize,
    jobs: Receiver<KnnJob>,
    init_tx: Sender<Result<Option<GlobalKdTree>>>,
    restarts: Counter,
) {
    // The collective build either works everywhere or panics/errs
    // everywhere (a dead peer surfaces as a timeout panic here). Rounds
    // need no collectives, so the endpoint goes with it.
    let built = std::panic::catch_unwind(AssertUnwindSafe(|| {
        build_distributed(&mut comm, mine, &cfg)
    }));
    drop(comm);
    let index = match built {
        Ok(Ok(tree)) => {
            // Shard 0 publishes the routing tree (identical on every
            // shard — the build is deterministic and collective).
            let _ = init_tx.send(Ok((shard == 0).then(|| tree.global.clone())));
            KnnIndex { tree: tree.local }
        }
        Ok(Err(e)) => {
            let _ = init_tx.send(Err(e));
            return;
        }
        Err(panic) => {
            let _ = init_tx.send(Err(PandaError::BackendPanicked(format!(
                "shard {shard} build: {}",
                panic_message(panic.as_ref())
            ))));
            return;
        }
    };
    drop(init_tx);
    // A panic inside a job is caught where it happens: the job resolves
    // at once with a typed error, the panic counter advances, and the
    // worker takes the next job.
    for job in jobs {
        let t0 = Instant::now();
        let answer = std::panic::catch_unwind(AssertUnwindSafe(|| {
            faultpoint::maybe_fail_ctx(points::SHARD_WORKER_QUERY, shard as u64)?;
            // the local batch engine, on this thread, each query from its
            // own bound
            let bounds_sq = &job.asks.bounds_sq;
            index.batch_csr(
                &job.asks.queries,
                job.k,
                |i| bounds_sq[i],
                job.order,
                false,
                |_| true,
            )
        }));
        trace::record(job.trace, Stage::ShardWorker, t0);
        let answer = answer.unwrap_or_else(|panic| {
            restarts.inc();
            Err(PandaError::BackendPanicked(format!(
                "shard {shard} panicked mid-batch: {}",
                panic_message(panic.as_ref())
            )))
        });
        // A round that gave up has dropped its receiver; keep serving.
        let _ = job.reply.send((shard, answer));
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
        assert_eq!(idx.shard_restarts(), 0);
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
        assert_eq!(snap.counter("shard.restarts"), Some(0));
        // at least the owners' jobs, at most an owner and a remote job
        // per shard per round
        let messages = snap.counter("shard.messages").unwrap();
        assert!((2..=8).contains(&messages), "{messages} jobs: {snap:?}");
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
