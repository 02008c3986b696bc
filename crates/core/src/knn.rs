//! Single-node KNN index: the shared-memory face of PANDA.
//!
//! Wraps [`LocalKdTree`] with a locality-aware batch engine:
//! "parallelizing over queries on shared memory is simple" (§V-B2) — the
//! constant factors are not. By default ([`QueryOrder::Morton`]) the
//! engine runs every batch in a spatially coherent order: it keeps a
//! batch whose input order is already coherent and sorts any other along
//! a Morton curve (the rule in [`crate::morton`]), so consecutive queries
//! share tree paths and cached leaf buckets. It cuts the schedule into one
//! contiguous block per pool worker so per-task overhead amortizes and
//! each block reuses one [`QueryWorkspace`]. Parallelism, like the order,
//! is decided per batch rather than when the index is built: a batch
//! larger than one block fans out over the pool, a smaller one runs on
//! the calling thread. Results are written once, into fixed-width rows of
//! the storage the returned table owns; a reordered batch's rows are then
//! permuted back to input order in place. Every query runs through the
//! fused SIMD leaf kernel inherited from the traversal layer.

use rayon::prelude::*;

use panda_comm::CostModel;

use crate::config::{BoundMode, QueryOrder, TreeConfig};
use crate::counters::QueryCounters;
use crate::engine::{NeighborTable, QueryRequest, QueryResponse};
use crate::error::{PandaError, Result};
use crate::heap::{KnnHeap, Neighbor};
use crate::local_tree::{LocalKdTree, QueryWorkspace};
use crate::morton::locality_schedule;
use crate::point::PointSet;

/// Minimum queries per dispatched block: below this, task bookkeeping
/// would rival the traversal work itself.
const MIN_CHUNK: usize = 16;

/// Length of the `n × cap` row arena of a batch, or the "split the
/// batch" error when its CSR offsets would overflow `u32`. Checked
/// before anything is allocated or any query runs.
fn row_arena_len(n: usize, cap: usize) -> Result<usize> {
    n.checked_mul(cap)
        .filter(|&len| len <= u32::MAX as usize)
        .ok_or_else(|| {
            PandaError::BadConfig(
                "neighbor arena exceeds the 2^32 CSR limit; split the batch".into(),
            )
        })
}

/// Move the fixed-width rows (`cap` neighbors each, with their `counts`)
/// from schedule position `j` to input slot `schedule[j]`, in place: each
/// permutation cycle is followed once, carrying one row of scratch.
fn permute_rows_to_input_order(
    arena: &mut [Neighbor],
    counts: &mut [u32],
    cap: usize,
    schedule: &[u32],
) {
    let mut done = vec![false; counts.len()];
    let mut scratch = Vec::with_capacity(cap);
    for start in 0..counts.len() {
        if done[start] {
            continue;
        }
        // `scratch` holds the row of position `j`, which belongs at
        // `schedule[j]`: swap it into place and carry the evicted row on.
        scratch.clear();
        scratch.extend_from_slice(&arena[start * cap..][..cap]);
        let mut len = counts[start];
        let mut dest = schedule[start] as usize;
        while dest != start {
            arena[dest * cap..][..cap].swap_with_slice(&mut scratch);
            std::mem::swap(&mut counts[dest], &mut len);
            done[dest] = true;
            dest = schedule[dest] as usize;
        }
        arena[start * cap..][..cap].copy_from_slice(&scratch);
        counts[start] = len;
        done[start] = true;
    }
}

/// A single-node KNN index.
#[derive(Clone, Debug)]
pub struct KnnIndex {
    pub(crate) tree: LocalKdTree,
}

impl KnnIndex {
    /// Build an index over `points`.
    pub fn build(points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        Ok(Self {
            tree: LocalKdTree::build(points, cfg)?,
        })
    }

    /// The underlying tree (stats, modeled times).
    pub fn tree(&self) -> &LocalKdTree {
        &self.tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.tree.dims()
    }

    /// `k` nearest neighbors of one query (ascending distance).
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.tree.query(q, k)
    }

    /// `k` nearest neighbors within `radius` of one query.
    pub fn query_radius(&self, q: &[f32], k: usize, radius: f32) -> Result<Vec<Neighbor>> {
        self.tree.query_radius(q, k, radius)
    }

    /// Answer a batch [`QueryRequest`] (the [`crate::engine::NnBackend`]
    /// entry point): exact kNN or radius-limited kNN. The engine picks
    /// each batch's execution order and parallelism; a request may still
    /// override the order, or force one inline block with
    /// `with_parallel(false)`.
    /// Results come back **in input order** as a flat CSR
    /// [`NeighborTable`]; workers write each query's neighbors straight
    /// into its row of the table's storage, so the batch hot path
    /// performs no per-query heap allocation and no result is copied
    /// between buffers (short rows excepted, which are compacted once).
    pub fn query_session(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        self.query_session_filtered(req, |_| true)
    }

    /// [`Self::query_session`] over the indexed points whose id satisfies
    /// `live` (the store passes "not tombstoned"). The leaf kernel asks
    /// `live` only of candidates that beat the heap bound, so each query
    /// still searches for exactly `k` points and prunes as if only the
    /// live ones were indexed.
    pub fn query_session_filtered<F: Fn(u64) -> bool + Copy + Sync>(
        &self,
        req: &QueryRequest<'_>,
        live: F,
    ) -> Result<QueryResponse> {
        let t0 = std::time::Instant::now();
        req.validate()?;
        let radius_sq = req.radius_sq();
        let (neighbors, counters) = self.batch_csr(
            req.queries(),
            req.k(),
            |_| radius_sq,
            req.order(),
            req.parallel() != Some(false),
            live,
        )?;
        panda_obs::trace::record(req.trace(), panda_obs::Stage::LeafKernel, t0);
        Ok(QueryResponse::local(
            neighbors,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }

    /// The CSR batch engine behind [`Self::query_session_filtered`] and
    /// each shard's answer in [`crate::engine::ShardedIndex`], traversing
    /// with the exact bound over the points `live` accepts. Query `i`
    /// starts from the squared search bound `bound_sq(i)`.
    /// The execution order affects locality only, and the split into
    /// blocks affects which thread runs a query only: results and
    /// aggregate counters are identical for any order and any split (each
    /// query's traversal is independent).
    ///
    /// The batch decides its own parallelism: it is cut into one block per
    /// pool worker, of at least `MIN_CHUNK` queries. A batch that spans
    /// more than one block fans the blocks out over the pool; one that
    /// fits in a single block runs on the calling thread. `pool == false`
    /// (a request's `with_parallel(false)`) makes the whole batch one
    /// inline block.
    ///
    /// Every row gets `min(k, indexed points)` slots of one arena up
    /// front. Rows that come back shorter (radius limit, `live` filter)
    /// are closed up by one forward pass; a batch of full rows, the
    /// common fixed-k case, is handed over without a copy.
    pub(crate) fn batch_csr<B, F>(
        &self,
        queries: &PointSet,
        k: usize,
        bound_sq: B,
        order: QueryOrder,
        pool: bool,
        live: F,
    ) -> Result<(NeighborTable, QueryCounters)>
    where
        B: Fn(usize) -> f32 + Copy + Sync,
        F: Fn(u64) -> bool + Copy + Sync,
    {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if queries.dims() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: queries.dims(),
            });
        }
        crate::faultpoint::maybe_fail(crate::faultpoint::points::ENGINE_LEAF_DISPATCH)?;
        let n = queries.len();
        // No row holds more than `cap` neighbors (at least 1, so an empty
        // tree still splits into blocks).
        let cap = k.min(self.tree.len()).max(1);
        let blank = Neighbor {
            dist_sq: 0.0,
            id: 0,
        };
        let mut arena = vec![blank; row_arena_len(n, cap)?];
        // Row counts first, at `offsets[j + 1]`; the compaction below
        // turns them into the offsets in place.
        let mut offsets = vec![0u32; n + 1];
        // `None` runs the batch as given.
        let schedule = match order {
            QueryOrder::Input => None,
            QueryOrder::Morton => locality_schedule(queries.dims(), queries.coords()),
        };
        // Schedule position `j` owns `arena[j * cap..][..cap]` and
        // `offsets[j + 1]`. Each block of contiguous positions runs with
        // ONE reusable heap + workspace, so the blocks are disjoint slices
        // and no per-query `Vec` is allocated.
        let threads = if pool {
            rayon::current_num_threads()
        } else {
            1
        };
        let block = n.div_ceil(threads).max(MIN_CHUNK);
        let run_block = |(b, (rows, lens)): (usize, (&mut [Neighbor], &mut [u32]))| {
            let mut heap = KnnHeap::new(k);
            let mut ws = QueryWorkspace::new();
            let mut c = QueryCounters::default();
            for (i, (row, len)) in rows.chunks_mut(cap).zip(lens).enumerate() {
                let j = b * block + i;
                let qi = schedule.as_ref().map_or(j, |s| s[j] as usize);
                heap.reset(k, bound_sq(qi));
                self.tree.query_into_filtered(
                    queries.point(qi),
                    &mut heap,
                    BoundMode::Exact,
                    &mut ws,
                    &mut c,
                    live,
                );
                *len = heap.write_sorted_into(row) as u32;
            }
            c
        };
        // One block is one pool chunk, and a lone chunk runs on this
        // thread without touching the pool.
        let per_block: Vec<QueryCounters> = arena
            .chunks_mut(block * cap)
            .zip(offsets[1..].chunks_mut(block))
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(run_block)
            .collect();
        let mut counters = QueryCounters::default();
        for c in &per_block {
            counters.add(c);
        }
        if let Some(s) = &schedule {
            permute_rows_to_input_order(&mut arena, &mut offsets[1..], cap, s);
        }
        // Close the gaps short rows leave and turn the counts into
        // offsets; while every row so far is full, nothing moves.
        let mut end = 0usize;
        for (i, count) in offsets[1..].iter_mut().enumerate() {
            let len = *count as usize;
            if end != i * cap {
                arena.copy_within(i * cap..i * cap + len, end);
            }
            end += len;
            *count = end as u32;
        }
        if end < arena.len() {
            arena.truncate(end);
            arena.shrink_to_fit();
        }
        Ok((NeighborTable::from_parts(offsets, arena)?, counters))
    }

    /// The k-nearest-neighbor **graph** of the indexed points themselves
    /// (each point queried against the index, excluding itself) — the
    /// workload of distributed KNN-graph construction (the paper's
    /// related-work \[21\]) and the backbone of density-based analyses like
    /// the halo finder example.
    ///
    /// `graph[i]` holds the k nearest *other* points of point `i`
    /// (ascending). Needs the original points to issue the self-queries.
    pub fn knn_graph(&self, points: &PointSet, k: usize) -> Result<Vec<Vec<Neighbor>>> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if points.dims() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: points.dims(),
            });
        }
        if points.len() != self.len() {
            return Err(PandaError::LenMismatch {
                expected: self.len(),
                got: points.len(),
            });
        }
        // query k+1 and drop the self-match (distance 0 with own id)
        let (table, _counters) = self.batch_csr(
            points,
            k + 1,
            |_| f32::INFINITY,
            QueryOrder::default(),
            true,
            |_| true,
        )?;
        Ok(table
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut ns = row.to_vec();
                let own = points.id(i);
                if let Some(pos) = ns.iter().position(|n| n.id == own && n.dist_sq == 0.0) {
                    ns.remove(pos);
                } else {
                    ns.pop(); // self wasn't in top-(k+1): keep the k closest
                }
                ns.truncate(k);
                ns
            })
            .collect())
    }

    /// Modeled wall-seconds for a batch of queries with `counters`, under
    /// `cost`'s machine at an explicit thread count (Fig. 6/8 sweeps).
    pub fn modeled_query_time_at(
        &self,
        counters: &QueryCounters,
        cost: &CostModel,
        threads: usize,
        smt: bool,
    ) -> f64 {
        let cpu = counters.cpu_seconds(&cost.ops, self.dims());
        let mem = counters.mem_bytes(self.dims());
        cost.thread.parallel_time_at(cpu, mem, threads, smt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryOrder;
    use crate::rng::SplitRng;

    fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims)
                .map(|_| (rng.next_f64() * 100.0) as f32)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn batch_matches_single_queries() {
        let ps = random_ps(3000, 3, 1);
        let queries = random_ps(64, 3, 2);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let res = idx.query_session(&QueryRequest::knn(&queries, 4)).unwrap();
        assert_eq!(res.len(), 64);
        assert_eq!(res.counters.queries, 64);
        assert!(res.wall_seconds >= 0.0);
        for (i, row) in res.neighbors.iter().enumerate() {
            let single = idx.query(queries.point(i), 4).unwrap();
            let a: Vec<f32> = row.iter().map(|n| n.dist_sq).collect();
            let b: Vec<f32> = single.iter().map(|n| n.dist_sq).collect();
            assert_eq!(a, b, "query {i}");
        }
    }

    #[test]
    fn radius_limited_session_matches_query_radius() {
        let ps = random_ps(2000, 3, 52);
        let queries = random_ps(60, 3, 53);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let radius = 5.0f32;
        let res = idx
            .query_session(&QueryRequest::knn(&queries, 8).with_radius(radius))
            .unwrap();
        for (i, row) in res.neighbors.iter().enumerate() {
            let single = idx.query_radius(queries.point(i), 8, radius).unwrap();
            let a: Vec<(f32, u64)> = row.iter().map(|n| (n.dist_sq, n.id)).collect();
            let b: Vec<(f32, u64)> = single.iter().map(|n| (n.dist_sq, n.id)).collect();
            assert_eq!(a, b, "query {i}");
            assert!(row.iter().all(|n| n.dist_sq < radius * radius));
        }
    }

    #[test]
    fn session_rejects_bad_radius() {
        let ps = random_ps(100, 3, 54);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let queries = random_ps(4, 3, 55);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&queries, 3).with_radius(f32::NAN)),
            Err(PandaError::BadRadius { .. })
        ));
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let ps = random_ps(5000, 3, 3);
        let queries = random_ps(200, 3, 4);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let req = QueryRequest::knn(&queries, 5);
        let a = idx.query_session(&req.with_parallel(false)).unwrap();
        let b = idx.query_session(&req).unwrap();
        for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
            let dx: Vec<f32> = x.iter().map(|n| n.dist_sq).collect();
            let dy: Vec<f32> = y.iter().map(|n| n.dist_sq).collect();
            assert_eq!(dx, dy);
        }
        // identical traversal work regardless of execution strategy: one
        // inline block or one block per pool worker, each query traverses
        // exactly
        assert_eq!(a.counters.queries, b.counters.queries);
    }

    #[test]
    fn each_batch_decides_its_parallelism() {
        // built with the default config, so construction was serial; the
        // batches below still choose their own parallelism
        let ps = random_ps(3000, 3, 70);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();

        // (a) the split never shows: 1,001 queries fan out over any pool
        // of two or more workers, or run as one block when told to
        let queries = random_ps(1001, 3, 71);
        let req = QueryRequest::knn(&queries, 6);
        let default = idx.query_session(&req).unwrap();
        assert_eq!(default.len(), 1001);
        for parallel in [false, true] {
            let other = idx.query_session(&req.with_parallel(parallel)).unwrap();
            assert_eq!(rows(&default), rows(&other), "parallel={parallel}");
            assert_eq!(default.counters, other.counters, "parallel={parallel}");
        }

        // (b) a batch that fits in one block never reaches the pool: every
        // candidate check happens on the calling thread. The check is slow
        // on purpose: a pool's caller drains the queue itself while it
        // waits, so a stray block would show only once a worker has had
        // time to wake and take it.
        let caller = std::thread::current().id();
        for n in [1, MIN_CHUNK as u32] {
            let small = queries.select(&(0..n).collect::<Vec<u32>>());
            let seen = std::sync::Mutex::new(std::collections::HashSet::new());
            let live = |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(50));
                true
            };
            let res = idx
                .query_session_filtered(&QueryRequest::knn(&small, 6), live)
                .unwrap();
            assert_eq!(res.len(), n as usize);
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, [caller].into_iter().collect(), "n={n}");
        }
    }

    #[test]
    fn batch_validates_inputs() {
        let ps = random_ps(100, 3, 5);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let queries = random_ps(4, 2, 6);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&queries, 3)),
            Err(PandaError::DimsMismatch { .. })
        ));
        let q3 = random_ps(4, 3, 6);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&q3, 0)),
            Err(PandaError::ZeroK)
        ));
    }

    #[test]
    fn modeled_query_time_scales_down_with_threads() {
        let ps = random_ps(20_000, 3, 7);
        let queries = random_ps(2000, 3, 8);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let counters = idx
            .query_session(&QueryRequest::knn(&queries, 5))
            .unwrap()
            .counters;
        let cost = CostModel::default();
        let t1 = idx.modeled_query_time_at(&counters, &cost, 1, false);
        let t24 = idx.modeled_query_time_at(&counters, &cost, 24, false);
        let t24smt = idx.modeled_query_time_at(&counters, &cost, 24, true);
        assert!(t1 > t24);
        let speedup = t1 / t24;
        assert!(
            (4.0..=24.0).contains(&speedup),
            "modeled 24T query speedup {speedup}"
        );
        assert!(t24smt <= t24, "SMT should not hurt");
    }

    #[test]
    fn knn_graph_excludes_self_and_matches_brute() {
        let ps = random_ps(800, 3, 21);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let graph = idx.knn_graph(&ps, 4).unwrap();
        assert_eq!(graph.len(), 800);
        for (i, ns) in graph.iter().enumerate() {
            assert_eq!(ns.len(), 4);
            assert!(ns.iter().all(|n| n.id != ps.id(i)), "self-edge at {i}");
            // brute reference excluding self
            let mut all: Vec<(f32, u64)> = (0..ps.len())
                .filter(|&j| j != i)
                .map(|j| (ps.dist_sq_to(ps.point(i), j), ps.id(j)))
                .collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect: Vec<f32> = all[..4].iter().map(|p| p.0).collect();
            let got: Vec<f32> = ns.iter().map(|n| n.dist_sq).collect();
            assert_eq!(got, expect, "node {i}");
            if i >= 50 {
                break; // brute check on a prefix keeps the test fast
            }
        }
    }

    #[test]
    fn knn_graph_with_duplicate_points() {
        // duplicates: the self-exclusion must remove *itself*, not a
        // co-located twin (twins are legitimate neighbors at distance 0)
        let mut ps = PointSet::new(2).unwrap();
        for i in 0..10u64 {
            ps.push(&[1.0, 1.0], i);
        }
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let graph = idx.knn_graph(&ps, 3).unwrap();
        for (i, ns) in graph.iter().enumerate() {
            assert_eq!(ns.len(), 3);
            assert!(ns.iter().all(|n| n.dist_sq == 0.0));
            assert!(ns.iter().all(|n| n.id != ps.id(i)));
        }
    }

    #[test]
    fn knn_graph_validates() {
        let ps = random_ps(50, 3, 22);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert!(idx.knn_graph(&ps, 0).is_err());
        // same dims, wrong point count: must be a LenMismatch (not a
        // dims error claiming expected == got)
        let other = random_ps(10, 3, 23);
        assert!(matches!(
            idx.knn_graph(&other, 3),
            Err(PandaError::LenMismatch {
                expected: 50,
                got: 10
            })
        ));
        // wrong dims stays a DimsMismatch
        let other_dims = random_ps(50, 2, 23);
        assert!(matches!(
            idx.knn_graph(&other_dims, 3),
            Err(PandaError::DimsMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    /// A batch as comparable rows: `(id, distance bits)` per neighbor.
    fn rows(res: &QueryResponse) -> Vec<Vec<(u64, u32)>> {
        res.neighbors
            .iter()
            .map(|row| row.iter().map(|n| (n.id, n.dist_sq.to_bits())).collect())
            .collect()
    }

    /// `req` as run by the parity tests: split as the engine chooses when
    /// `parallel`, else forced into one inline block.
    fn inline_unless(parallel: bool, req: QueryRequest<'_>) -> QueryRequest<'_> {
        if parallel {
            req
        } else {
            req.with_parallel(false)
        }
    }

    /// Site `i mod 125` of a 5 × 5 × 5 lattice: a source of exact copies.
    fn lattice_site(i: u64) -> [f32; 3] {
        let site = i % 125;
        [site % 5, (site / 5) % 5, site / 25].map(|x| x as f32 * 20.0)
    }

    /// The batch shapes the locality rule tells apart, 5,000 queries each:
    /// shuffled, already Morton-sorted, clumped (cluster by cluster) and
    /// duplicate-heavy (lattice sites, each repeated).
    fn order_parity_batches() -> Vec<(&'static str, PointSet)> {
        let shuffled = random_ps(5000, 3, 41);
        let presorted = shuffled.select(&crate::morton::morton_schedule(&shuffled));
        let mut rng = SplitRng::new(42);
        let mut clumped = Vec::with_capacity(5000 * 3);
        for _ in 0..50 {
            let c = [0; 3].map(|_| rng.next_f64() * 100.0);
            for _ in 0..100 {
                clumped.extend(c.map(|x| (x + rng.next_f64()) as f32));
            }
        }
        let lattice = (0..5000).flat_map(|i| lattice_site(i / 4)).collect();
        vec![
            ("shuffled", shuffled),
            ("presorted", presorted),
            ("clumped", PointSet::from_coords(3, clumped).unwrap()),
            ("duplicates", PointSet::from_coords(3, lattice).unwrap()),
        ]
    }

    #[test]
    fn every_order_gives_identical_results_and_counters() {
        // the index holds exact copies too, so ties are decided by the
        // traversal — which the batch order must not influence
        let mut ps = random_ps(3000, 3, 40);
        for i in 0..1000 {
            ps.push(&lattice_site(i), 10_000 + i);
        }
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        for parallel in [false, true] {
            for (shape, batch) in order_parity_batches() {
                for n in [0u32, 1, 2, 65, 5000] {
                    let queries = batch.select(&(0..n).collect::<Vec<u32>>());
                    let req = inline_unless(parallel, QueryRequest::knn(&queries, 5));
                    let default = idx.query_session(&req).unwrap();
                    for order in [QueryOrder::Input, QueryOrder::Morton] {
                        let other = idx.query_session(&req.with_order(order)).unwrap();
                        let at = format!("{shape} n={n} {order:?} parallel={parallel}");
                        assert_eq!(rows(&default), rows(&other), "{at}");
                        // each query's traversal is independent of execution
                        // order, so the aggregate work is identical too
                        assert_eq!(default.counters, other.counters, "{at}");
                    }
                    assert_eq!(default.len(), n as usize);
                }
            }
        }
    }

    #[test]
    fn default_order_is_the_locality_order() {
        let ps = random_ps(2000, 3, 33);
        let queries = random_ps(200, 3, 34);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        // a request that names no order runs under the locality rule ...
        let req = QueryRequest::knn(&queries, 3);
        assert_eq!(req.order(), QueryOrder::Morton);
        // ... which sorts this shuffled batch, invisibly to the caller
        assert!(locality_schedule(3, queries.coords()).is_some());
        let a = idx.query_session(&req).unwrap();
        let b = idx
            .query_session(&req.with_order(QueryOrder::Input))
            .unwrap();
        assert_eq!(rows(&a), rows(&b));
    }

    #[test]
    fn kernel_counters_are_populated() {
        let ps = random_ps(5000, 3, 35);
        let queries = random_ps(100, 3, 36);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let c = idx
            .query_session(&QueryRequest::knn(&queries, 5))
            .unwrap()
            .counters;
        assert_eq!(c.leaf_kernel_calls, c.leaves_scanned);
        // the whole point of the fused kernel: most blocks die in-register
        assert!(c.kernel_blocks_pruned > 0);
        assert!(c.kernel_blocks_pruned <= c.points_scanned / 8);
    }

    #[test]
    fn empty_batch_is_fine() {
        let ps = random_ps(100, 3, 37);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let empty = PointSet::new(3).unwrap();
        for order in [QueryOrder::Input, QueryOrder::Morton] {
            let res = idx
                .query_session(&QueryRequest::knn(&empty, 4).with_order(order))
                .unwrap();
            assert!(res.is_empty());
            assert_eq!(res.counters.queries, 0);
        }
    }

    #[test]
    fn row_arena_len_rejects_past_the_u32_limit() {
        let max = u32::MAX as usize;
        assert_eq!(row_arena_len(0, 5).unwrap(), 0);
        assert_eq!(row_arena_len(max, 1).unwrap(), max);
        assert_eq!(row_arena_len(max / 5, 5).unwrap(), max); // 2^32 - 1 = 5 · 858993459
        assert_eq!(row_arena_len(65_536, 65_535).unwrap(), 65_536 * 65_535);
        for (n, cap) in [
            (max + 1, 1),
            (65_536, 65_536),
            (max / 5 + 1, 5),
            (usize::MAX, 2),
        ] {
            let err = row_arena_len(n, cap).unwrap_err();
            assert!(err.to_string().contains("split the batch"), "{n} × {cap}");
        }
    }

    #[test]
    fn over_limit_batch_is_rejected_before_it_runs() {
        // 70,000 queries × 70,000 slots: were any query run first, this
        // would search for 4.9e9 neighbors
        let ps = PointSet::from_coords(1, (0..70_000).map(|i| i as f32).collect()).unwrap();
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&ps, 70_000)),
            Err(PandaError::BadConfig(_))
        ));
    }

    /// Brute force over the indexed points `live` accepts: the `k`
    /// nearest as `(id, distance bits)`.
    fn brute(ps: &PointSet, q: &[f32], k: usize, live: impl Fn(u64) -> bool) -> Vec<(u64, u32)> {
        let mut all: Vec<(f32, u64)> = (0..ps.len())
            .filter(|&j| live(ps.id(j)))
            .map(|j| (ps.dist_sq_to(q, j), ps.id(j)))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
    }

    #[test]
    fn in_place_rows_hold_short_rows_and_uneven_blocks() {
        // 1,001 queries split unevenly across any pool size; 10 is below
        // MIN_CHUNK. Shuffled batches take the permutation path,
        // presorted ones run as given.
        let shuffled = random_ps(1001, 3, 60);
        let presorted = shuffled.select(&crate::morton::morton_schedule(&shuffled));
        assert!(locality_schedule(3, shuffled.coords()).is_some());
        assert!(locality_schedule(3, presorted.coords()).is_none());
        let dense = random_ps(3000, 3, 61);
        let sparse = random_ps(300, 3, 63);
        let tiny = random_ps(50, 3, 62);
        let one_in_ten = |id: u64| id.is_multiple_of(10);
        let cfg = TreeConfig::default();
        let dense_idx = KnnIndex::build(&dense, &cfg).unwrap();
        let sparse_idx = KnnIndex::build(&sparse, &cfg).unwrap();
        let tiny_idx = KnnIndex::build(&tiny, &cfg).unwrap();
        for parallel in [false, true] {
            for (shape, batch) in [("shuffled", &shuffled), ("presorted", &presorted)] {
                for n in [10u32, 1001] {
                    let queries = batch.select(&(0..n).collect::<Vec<u32>>());
                    let at = format!("{shape} n={n} parallel={parallel}");
                    let each_order = |run: &dyn Fn(QueryOrder) -> QueryResponse| {
                        let a = run(QueryOrder::Input);
                        let b = run(QueryOrder::Morton);
                        assert_eq!(rows(&a), rows(&b), "{at}");
                        assert_eq!(a.counters, b.counters, "{at}");
                        assert_eq!(a.len(), n as usize, "{at}");
                        a
                    };

                    // radius-limited rows, some of them empty
                    let req =
                        inline_unless(parallel, QueryRequest::knn(&queries, 8).with_radius(3.0));
                    let res = each_order(&|o| dense_idx.query_session(&req.with_order(o)).unwrap());
                    assert!(res.neighbors.iter().any(<[Neighbor]>::is_empty), "{at}");
                    for (i, row) in res.neighbors.iter().enumerate() {
                        let single = dense_idx.query_radius(queries.point(i), 8, 3.0).unwrap();
                        assert_eq!(row, single.as_slice(), "radius {at} query {i}");
                    }

                    // a live filter that rejects 90% of ids: 30 live
                    // points, so every row is shorter than k = 40
                    let req = inline_unless(parallel, QueryRequest::knn(&queries, 40));
                    let res = each_order(&|o| {
                        sparse_idx
                            .query_session_filtered(&req.with_order(o), one_in_ten)
                            .unwrap()
                    });
                    for (i, row) in rows(&res).into_iter().enumerate() {
                        let expect = brute(&sparse, queries.point(i), 40, one_in_ten);
                        assert_eq!(row.len(), 30, "filtered {at} query {i}");
                        assert_eq!(row, expect, "filtered {at} query {i}");
                    }

                    // k above the indexed count: rows hold every point
                    let req = inline_unless(parallel, QueryRequest::knn(&queries, 64));
                    let res = each_order(&|o| tiny_idx.query_session(&req.with_order(o)).unwrap());
                    for (i, row) in rows(&res).into_iter().enumerate() {
                        let expect = brute(&tiny, queries.point(i), 64, |_| true);
                        assert_eq!(row, expect, "k > n {at} query {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let ps = random_ps(128, 10, 9);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert_eq!(idx.len(), 128);
        assert_eq!(idx.dims(), 10);
        assert!(!idx.is_empty());
        assert!(idx.tree().stats().n_leaves > 0);
    }
}
