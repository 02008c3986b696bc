//! Compile-time thread-safety pins for the query service.
//!
//! `QueryService` fronts an `Arc<dyn NnBackend + Send + Sync>`; every
//! backend listed here is part of that contract. If a future change
//! sneaks interior mutability (`RefCell`, `Rc`, raw `Cell`) into one of
//! these engines, this file stops **compiling** — the regression is
//! caught at `cargo build`, not as a data race in a serving process.
//!
//! The distributed engine is covered too: `ShardedIndex` holds its
//! shards as plain data (one local index per cell, no comm endpoint in
//! the handle), so it is `Send + Sync` and fully service-eligible.
//! Deliberately absent: `LocalTreesBackend` and the raw SPMD entry
//! points (`query_distributed`). Those are rank-collectives (every rank
//! must enter in lockstep) borrowing a `&mut Comm`, so they stay
//! outside the service contract by design.
//!
//! Two runtime pins ride along: `ShardedIndex` rounds share no state, so
//! callers on several threads may overlap rounds on one index directly;
//! and a one-query round runs on its caller, handing off to no thread.

use panda::prelude::*;

/// A backend is service-eligible iff it satisfies exactly this bound
/// (what `Arc<dyn NnBackend + Send + Sync>` demands).
fn assert_service_eligible<T: NnBackend + Send + Sync + 'static>() {}

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn local_backends_are_service_eligible() {
    assert_service_eligible::<KnnIndex>();
    assert_service_eligible::<BruteForce>();
    assert_service_eligible::<FlannLikeTree>();
    assert_service_eligible::<AnnLikeTree>();
    // the mutable store serves behind the service while writers mutate it
    assert_service_eligible::<MutableIndex>();
    // the distributed engine: one local index per cell behind the
    // handle. This line is the pin that keeps scale-out serving possible.
    assert_service_eligible::<ShardedIndex>();
}

#[test]
fn sharded_index_crosses_threads() {
    // the front handle is shared across client threads via Arc
    assert_send_sync::<ShardedIndex>();
}

#[test]
fn store_types_cross_threads() {
    // clones share one store and are handed to writer/reader threads
    assert_send_sync::<MutableIndex>();
    assert_send_sync::<StoreConfig>();
    assert_send_sync::<StoreStats>();
}

#[test]
fn service_types_cross_threads() {
    // handles are cloned into client threads
    assert_send_sync::<ServiceHandle>();
    // tickets and replies may be handed to other threads
    assert_send::<Ticket>();
    assert_send_sync::<TicketReply>();
    // the service itself can be owned by a supervisor thread
    assert_send_sync::<QueryService>();
    assert_send_sync::<ServiceConfig>();
    assert_send_sync::<ServiceStats>();
}

#[test]
fn shared_result_types_cross_threads() {
    // zero-copy scatter-back shares these across clients
    assert_send_sync::<NeighborTable>();
    assert_send_sync::<QueryResponse>();
    assert_send_sync::<Neighbor>();
}

/// Four callers, one 4-shard index, no service in between: every
/// overlapping round returns rows bit-identical (ids included) to the
/// local engine.
#[test]
fn sharded_rounds_overlap_across_threads() {
    let points = panda::data::uniform::generate(2000, 3, 1.0, 82);
    let index = ShardedIndex::build(&points, 4, &DistConfig::default()).unwrap();
    let local = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
    let bits = |t: &NeighborTable| {
        t.iter()
            .map(|row| row.iter().map(|n| (n.id, n.dist_sq.to_bits())).collect())
            .collect::<Vec<Vec<_>>>()
    };
    std::thread::scope(|s| {
        for caller in 0..4u64 {
            let (index, local) = (&index, &local);
            s.spawn(move || {
                for round in 0..6 {
                    let n = 1 + 7 * round as usize;
                    let queries =
                        panda::data::uniform::generate(n, 3, 1.0, 100 + 10 * caller + round);
                    let req = QueryRequest::knn(&queries, 5);
                    let got = index.query(&req).unwrap().neighbors;
                    let want = local.query_session(&req).unwrap().neighbors;
                    assert_eq!(bits(&got), bits(&want), "caller {caller} round {round}");
                }
            });
        }
    });
}

/// Voluntary context switches of the calling thread so far, where the
/// platform reports them.
fn voluntary_switches() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

/// A one-query round asks one shard per pass, and a pass that asks one
/// shard runs on the caller: the caller never blocks waiting on another
/// thread, so its voluntary context switches stay near zero.
#[test]
fn one_query_rounds_hand_off_to_no_thread() {
    if voluntary_switches().is_none() {
        eprintln!("skipped: no /proc/thread-self/status");
        return;
    }
    let points = panda::data::uniform::generate(20_000, 3, 1.0, 83);
    for shards in [1, 2] {
        let index = ShardedIndex::build(&points, shards, &DistConfig::default()).unwrap();
        let queries: Vec<PointSet> = (0..200)
            .map(|round| panda::data::uniform::generate(1, 3, 1.0, 1000 + round))
            .collect();
        let before = voluntary_switches().unwrap();
        for q in &queries {
            index.query(&QueryRequest::knn(q, 16)).unwrap();
        }
        let delta = voluntary_switches().unwrap() - before;
        assert!(
            delta <= 10,
            "{shards} shard(s): {delta} voluntary switches over 200 one-query rounds"
        );
    }
}
