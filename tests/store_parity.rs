//! Mutable-store parity: a [`MutableIndex`] must answer **bit-identical
//! in distances to a from-scratch brute-force scan of the live point
//! set** at every step of an arbitrary interleaved insert/query/delete
//! history — including while a background compaction is in flight, and
//! while serving behind a `QueryService` under concurrent writers.
//!
//! As in `tests/backend_parity.rs`, ids are not compared directly (at
//! exact distance ties the strict-`<` heap keeps whichever co-located
//! point was offered first); instead every returned id must really sit
//! at its reported distance from its query.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda::core::faultpoint::{self, points, FaultAction, FaultPlan, FaultSpec};
use panda::data::uniform;
use panda::prelude::*;

/// Flatten a response into comparable (row lengths, distances).
fn fingerprint(res: &QueryResponse) -> (Vec<usize>, Vec<f32>) {
    (
        res.neighbors.iter().map(<[Neighbor]>::len).collect(),
        res.neighbors.arena().iter().map(|n| n.dist_sq).collect(),
    )
}

/// Every id returned must really sit at its reported (bit-exact)
/// distance from its query, and rows must never repeat an id.
fn assert_ids_honest(res: &QueryResponse, live: &PointSet, queries: &PointSet, who: &str) {
    let by_id: std::collections::HashMap<u64, usize> =
        (0..live.len()).map(|i| (live.id(i), i)).collect();
    for (qi, row) in res.neighbors.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for n in row {
            assert!(
                seen.insert(n.id),
                "{who}: duplicate id {} in row {qi}",
                n.id
            );
            let pi = *by_id.get(&n.id).unwrap_or_else(|| {
                panic!("{who}: unknown id {} in row {qi}", n.id);
            });
            assert_eq!(
                live.dist_sq_to(queries.point(qi), pi),
                n.dist_sq,
                "{who}: id {} misreported its distance in row {qi}",
                n.id
            );
        }
    }
}

/// Compare the store against a brute-force backend rebuilt from scratch
/// over the same live set, on the same request.
fn assert_store_matches_oracle(
    store: &MutableIndex,
    live: &PointSet,
    queries: &PointSet,
    k: usize,
    radius: Option<f32>,
    who: &str,
) {
    let mut req = QueryRequest::knn(queries, k);
    if let Some(r) = radius {
        req = req.with_radius(r);
    }
    let got = store.query(&req).unwrap();
    let bf = BruteForce::new(live);
    let want = NnBackend::query(&bf, &req).unwrap();
    assert_eq!(
        fingerprint(&got),
        fingerprint(&want),
        "{who}: store diverged from the brute-force oracle"
    );
    assert_ids_honest(&got, live, queries, who);
}

/// Tiny deterministic xorshift for history generation.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The mirror the oracle is rebuilt from: ids with their coordinates.
struct Mirror {
    dims: usize,
    live: Vec<(u64, Vec<f32>)>,
}

impl Mirror {
    fn to_points(&self) -> PointSet {
        let mut ps = PointSet::new(self.dims).unwrap();
        for (id, p) in &self.live {
            ps.push(p, *id);
        }
        ps
    }
}

/// A random interleaved insert/query/delete history, checked against a
/// from-scratch brute-force oracle after **every** query step. Low
/// compaction thresholds force many background freeze/rebuild/swap
/// cycles through the middle of the history.
#[test]
fn interleaved_history_matches_brute_force_at_every_step() {
    let _guard = faultpoint::arm(FaultPlan::new()); // exclusion only
    let dims = 3;
    let cfg = StoreConfig::default()
        .with_compact_points(24)
        .with_max_deleted(8)
        .with_tree(TreeConfig::default().with_bucket_size(8));
    let store = MutableIndex::new(dims, cfg).unwrap();
    let mut mirror = Mirror {
        dims,
        live: Vec::new(),
    };
    let mut rng = Rng(0x5eed_0007);
    let mut next_id = 0u64;

    for step in 0..600 {
        match rng.below(10) {
            // 60% inserts, 20% removes, 20% queries
            0..=5 => {
                let p: Vec<f32> = (0..dims).map(|_| rng.f32()).collect();
                store.insert(&p, next_id).unwrap();
                mirror.live.push((next_id, p));
                next_id += 1;
            }
            6..=7 => {
                if mirror.live.is_empty() {
                    continue;
                }
                let victim = rng.below(mirror.live.len());
                let id = mirror.live[victim].0;
                assert!(store.remove(id).unwrap(), "step {step}: id {id} was live");
                mirror.live.swap_remove(victim);
            }
            _ => {
                let nq = 1 + rng.below(4);
                let queries =
                    PointSet::from_coords(dims, (0..nq * dims).map(|_| rng.f32()).collect())
                        .unwrap();
                let k = 1 + rng.below(6);
                let radius = if rng.below(4) == 0 { Some(0.25) } else { None };
                assert_store_matches_oracle(
                    &store,
                    &mirror.to_points(),
                    &queries,
                    k,
                    radius,
                    &format!("step {step}"),
                );
            }
        }
    }

    store.quiesce();
    let stats = store.stats();
    assert_eq!(stats.live_points, mirror.live.len());
    assert!(
        stats.compactions >= 3,
        "history must have crossed the compaction threshold repeatedly, got {}",
        stats.compactions
    );
    assert_eq!(stats.compaction_failures, 0);
    assert!(stats.epoch >= 3, "swaps publish new generations");
    // Final exhaustive check after the dust settles.
    let queries = uniform::generate(32, dims, 1.0, 99);
    assert_store_matches_oracle(&store, &mirror.to_points(), &queries, 8, None, "final");
}

/// Duplicate-id discipline across the whole lifecycle: an id stays
/// un-insertable while live anywhere (fresh log, frozen segment, or
/// tree), and becomes insertable again the moment it is removed.
#[test]
fn duplicate_ids_rejected_wherever_the_live_copy_sits() {
    let _guard = faultpoint::arm(FaultPlan::new());
    let cfg = StoreConfig::default().with_synchronous_compaction(true);
    let store = MutableIndex::new(2, cfg).unwrap();
    store.insert(&[0.1, 0.1], 7).unwrap(); // fresh
    assert!(matches!(
        store.insert(&[0.9, 0.9], 7),
        Err(PandaError::DuplicateId { id: 7 })
    ));
    store.compact_now().unwrap(); // 7 now lives in the tree
    assert!(matches!(
        store.insert(&[0.9, 0.9], 7),
        Err(PandaError::DuplicateId { id: 7 })
    ));
    assert!(store.remove(7).unwrap()); // tombstoned in the tree
    store.insert(&[0.9, 0.9], 7).unwrap(); // re-insert lands in fresh
                                           // the tombstoned tree copy must never shadow the new live copy
    let q = PointSet::from_coords(2, vec![1.0, 1.0]).unwrap();
    let res = store.query(&QueryRequest::knn(&q, 1)).unwrap();
    assert_eq!(res.neighbors.row(0)[0].id, 7);
    assert!(
        res.neighbors.row(0)[0].dist_sq < 0.05,
        "the NEW coordinates [0.9, 0.9] answer (dist ~0.02), not the \
         tombstoned old ones at [0.1, 0.1] (dist ~1.62): got {}",
        res.neighbors.row(0)[0].dist_sq
    );
    store.compact_now().unwrap(); // resolve the tombstone physically
    let res = store.query(&QueryRequest::knn(&q, 1)).unwrap();
    assert_eq!(res.neighbors.row(0)[0].id, 7);
    assert_eq!(store.stats().deleted, 0);
}

/// Queries overlap an **in-flight** background compaction and stay
/// exact: a delay fault holds the build phase open while the main
/// thread observes `compacting() == true` and replays the oracle check.
#[test]
fn queries_stay_exact_during_inflight_compaction() {
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(
                points::STORE_COMPACT_BUILD,
                FaultAction::Delay(Duration::from_millis(400)),
            )
            .times(1),
        ),
    );
    let dims = 2;
    let n = 48; // == compact_points, so the final insert triggers the freeze
    let cfg = StoreConfig::default().with_compact_points(n);
    let store = MutableIndex::new(dims, cfg).unwrap();
    let points = uniform::generate(n, dims, 1.0, 4242);

    // Writes run on their own thread: with a sequential rayon pool the
    // triggering insert runs the (delayed) compaction inline, and the
    // main thread must stay free to observe + query the overlap.
    let writer = {
        let store = store.clone();
        let points = points.clone();
        std::thread::spawn(move || {
            for i in 0..points.len() {
                store.insert(points.point(i), points.id(i)).unwrap();
            }
        })
    };

    // Catch the compaction in flight.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut observed_overlap = false;
    let queries = uniform::generate(8, dims, 1.0, 77);
    while Instant::now() < deadline {
        if store.compacting() {
            observed_overlap = true;
            // All n inserts may not have landed yet, but the freeze only
            // happens after the last one (threshold == n), so the live
            // set is exactly `points` while compacting.
            assert_store_matches_oracle(&store, &points, &queries, 5, None, "overlap");
            break;
        }
        std::thread::yield_now();
    }
    writer.join().unwrap();
    assert!(
        observed_overlap,
        "the delay fault must make the compaction observable"
    );
    store.quiesce();
    assert!(!store.compacting());
    assert!(store.epoch() >= 1, "the delayed compaction still swapped");
    assert_eq!(store.stats().compaction_failures, 0);
    assert_store_matches_oracle(&store, &points, &queries, 5, None, "after swap");
}

/// A `MutableIndex` behind a `QueryService`, queried by concurrent
/// clients while a writer inserts and removes: every reply is honest
/// (each id sits at its bit-exact reported distance in the insert-time
/// universe), and after the writer stops the store matches the oracle
/// exactly.
#[test]
fn store_serves_behind_query_service_under_concurrent_writes() {
    let _guard = faultpoint::arm(FaultPlan::new());
    let dims = 2;
    let universe = uniform::generate(512, dims, 1.0, 9);
    let seed_n = 128;
    let mut seed_points = PointSet::new(dims).unwrap();
    for i in 0..seed_n {
        seed_points.push(universe.point(i), universe.id(i));
    }
    let cfg = StoreConfig::default()
        .with_compact_points(64)
        .with_max_deleted(16);
    let store = MutableIndex::from_points(&seed_points, cfg).unwrap();
    let service = QueryService::new(
        Arc::new(store.clone()),
        ServiceConfig::default().with_max_batch(16),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = store.clone();
        let universe = universe.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = Rng(0xabcd_ef01);
            let mut next = seed_n; // universe index of the next insert
            let mut live: Vec<u64> = (0..seed_n).map(|i| universe.id(i)).collect();
            while !stop.load(Ordering::Relaxed) {
                if next < universe.len() && rng.below(3) != 0 {
                    store
                        .insert(universe.point(next), universe.id(next))
                        .unwrap();
                    live.push(universe.id(next));
                    next += 1;
                } else if live.len() > 8 {
                    let victim = rng.below(live.len());
                    assert!(store.remove(live.swap_remove(victim)).unwrap());
                }
                std::thread::yield_now();
            }
            live
        })
    };

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let handle = service.handle();
            let store = store.clone();
            let universe = universe.clone();
            std::thread::spawn(move || {
                let mut rng = Rng(0x1111 + c);
                // Keep reading until the writer's churn has compacted at
                // least once, so reads provably overlapped a tree swap.
                // The bound is not a target: hitting it fails the test.
                let mut asked = 0;
                while asked < 40 || store.stats().compactions == 0 {
                    asked += 1;
                    assert!(asked <= 1_000_000, "writer churn never compacted");
                    let q = PointSet::from_coords(dims, (0..dims).map(|_| rng.f32()).collect())
                        .unwrap();
                    let ticket = handle.submit(&QueryRequest::knn(&q, 3)).unwrap();
                    let reply = ticket.wait().unwrap();
                    // Honesty against the immutable universe: whatever
                    // snapshot the query saw, each id's distance must be
                    // the bit-exact distance to that id's coordinates.
                    for n in reply.row(0) {
                        let pi = (0..universe.len())
                            .find(|&i| universe.id(i) == n.id)
                            .expect("reply ids come from the universe");
                        assert_eq!(universe.dist_sq_to(q.point(0), pi), n.dist_sq);
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let live_ids = writer.join().unwrap();
    service.drain();

    // Quiesced, the store must exactly equal a from-scratch oracle over
    // the writer's final live set.
    store.quiesce();
    let live_set: std::collections::HashSet<u64> = live_ids.iter().copied().collect();
    let mut live = PointSet::new(dims).unwrap();
    for i in 0..universe.len() {
        if live_set.contains(&universe.id(i)) {
            live.push(universe.point(i), universe.id(i));
        }
    }
    assert_eq!(store.len(), live.len());
    let queries = uniform::generate(24, dims, 1.0, 31);
    assert_store_matches_oracle(&store, &live, &queries, 6, None, "post-drain");
    let stats = store.stats();
    assert!(stats.compactions >= 1, "writer churn must have compacted");
    service.shutdown();
}
