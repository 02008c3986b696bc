//! Chaos suite: every injected fault must surface as a **typed error or
//! a clean degraded result** — never a hang, a stranded ticket, or a
//! poisoned worker pool.
//!
//! Faults are driven through `panda_core::faultpoint`: deterministic
//! plans (fail the Nth hit, synthetic timeout, panic, delay) armed
//! against the named points compiled into the comm exchanges, the leaf
//! kernel dispatch, and the service drain path. Arming takes a
//! process-wide exclusivity lock, so the tests in this file serialize
//! instead of cross-arming each other; tests that inject nothing still
//! arm an **empty** plan for the same exclusion.
//!
//! Plans are deterministic, so a red run replays identically. No test
//! here relies on a timeout longer than 5 seconds.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{GatedBackend, RecordingBackend};
use panda::comm::{run_cluster, ClusterConfig, CommError};
use panda::core::faultpoint::{self, points, FaultAction, FaultPlan, FaultSpec};
use panda::core::QueryConfig;
use panda::data::{scatter, uniform};
use panda::prelude::*;

fn line_points(n: usize) -> PointSet {
    PointSet::from_coords(1, (0..n).map(|i| i as f32).collect()).unwrap()
}

fn service_over(n: usize, cfg: ServiceConfig) -> QueryService {
    let index = Arc::new(KnnIndex::build(&line_points(n), &TreeConfig::default()).unwrap());
    QueryService::new(index, cfg).unwrap()
}

fn single_query(x: f32) -> PointSet {
    PointSet::from_coords(1, vec![x]).unwrap()
}

type Gate = Arc<GatedBackend<RecordingBackend<KnnIndex>>>;

/// A service whose scheduler parks inside its first batch until the
/// test opens the gate, over a backend that records every batch.
fn gated_service_over(n: usize, cfg: ServiceConfig) -> (Gate, QueryService) {
    let index = KnnIndex::build(&line_points(n), &TreeConfig::default()).unwrap();
    let gate = Arc::new(GatedBackend::new(RecordingBackend::new(index)));
    let service = QueryService::new(gate.clone(), cfg).unwrap();
    (gate, service)
}

const BAIT: f32 = 0.1;

/// Submit one query the test does not care about and wait until the
/// scheduler is parked in the gate with it: from here on submissions
/// can only queue.
fn park_scheduler(gate: &Gate, service: &QueryService) -> Ticket {
    let bait = service
        .submit(&QueryRequest::knn(&single_query(BAIT), 1))
        .unwrap();
    gate.await_entry();
    bait
}

// ---------------------------------------------------------------- service

/// A submission whose deadline already passed when the scheduler flushes
/// is shed with `DeadlineExceeded` — the backend never runs it — while
/// deadline-less traffic on the same service is untouched.
#[test]
fn expired_deadline_submissions_are_shed_with_typed_errors() {
    let _guard = faultpoint::arm(FaultPlan::new());
    let service = service_over(64, ServiceConfig::default().with_max_batch(16));

    let q = single_query(3.3);
    let doomed = service
        .submit(&QueryRequest::knn(&q, 2).with_deadline(Duration::ZERO))
        .unwrap();
    let healthy = service.submit(&QueryRequest::knn(&q, 2)).unwrap();

    match doomed.wait() {
        Err(PandaError::DeadlineExceeded { deadline, waited }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(waited >= deadline);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let reply = healthy.wait().unwrap();
    assert_eq!(reply.row(0)[0].id, 3);

    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.cancelled, 0);
    service.shutdown();

    // One flush over interleaved cancelled / expired / live submissions
    // (queued while the scheduler is parked in the gate): the backend
    // sees exactly the survivors, in submission order.
    let (gate, service) = gated_service_over(64, ServiceConfig::default());
    let bait = park_scheduler(&gate, &service);
    // cancelling consumes the ticket: only live and expired ones remain
    let tickets: Vec<(usize, Ticket)> = (0..30)
        .filter_map(|i| {
            let q = single_query(i as f32 + 0.2);
            let mut req = QueryRequest::knn(&q, 1);
            if i % 3 == 1 {
                req = req.with_deadline(Duration::ZERO);
            }
            let ticket = service.submit(&req).unwrap();
            if i % 3 == 2 {
                assert!(ticket.cancel(), "submission {i} still pending");
                return None;
            }
            Some((i, ticket))
        })
        .collect();
    gate.open_gate();
    service.drain();
    bait.wait().unwrap();
    for (i, ticket) in tickets {
        match (i % 3, ticket.wait()) {
            (0, Ok(reply)) => assert_eq!(reply.row(0)[0].id, i as u64),
            (1, Err(PandaError::DeadlineExceeded { .. })) => {}
            (_, other) => panic!("submission {i}: unexpected {other:?}"),
        }
    }
    let live: Vec<f32> = (0..30).step_by(3).map(|i| i as f32 + 0.2).collect();
    assert_eq!(
        gate.inner.batches(),
        vec![vec![BAIT], live],
        "survivors kept submission order"
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 10);
    assert_eq!(stats.cancelled, 10);
    assert_eq!(stats.batches, 2, "the bait, then one flush");
    assert_eq!(stats.queue_depth, 0);
    service.shutdown();
}

/// `Ticket::cancel` detaches an unflushed submission: its queue slot is
/// reclaimed at the next flush, the backend never sees it, and the
/// cancellation is counted. Cancelling an already-resolved ticket just
/// discards the reply and reports `false`.
#[test]
fn cancel_detaches_pending_submissions() {
    let _guard = faultpoint::arm(FaultPlan::new());
    let (gate, service) = gated_service_over(64, ServiceConfig::default());
    let bait = park_scheduler(&gate, &service);

    let q = single_query(7.4);
    let keep_a = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    let doomed = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    let keep_b = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    assert!(doomed.cancel(), "still pending: cancellation registered");
    gate.open_gate();
    service.drain();

    bait.wait().unwrap();
    assert_eq!(keep_a.wait().unwrap().row(0)[0].id, 7);
    assert_eq!(keep_b.wait().unwrap().row(0)[0].id, 7);
    assert_eq!(
        gate.inner.batches(),
        vec![vec![BAIT], vec![7.4, 7.4]],
        "the backend never saw the cancelled submission"
    );
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.deadline_exceeded, 0);

    // cancel after resolution: too late to shed, reply is discarded
    let late = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    service.drain();
    assert!(!late.cancel(), "already resolved");
    assert_eq!(service.stats().cancelled, 1, "late cancel not counted");
    service.shutdown();
}

/// Dropping a still-pending ticket abandons it: the work still runs, the
/// reply is discarded, and the walked-away client shows up in
/// `ServiceStats::abandoned`.
#[test]
fn abandoned_tickets_are_counted_when_their_reply_arrives() {
    let _guard = faultpoint::arm(FaultPlan::new());
    let (gate, service) = gated_service_over(64, ServiceConfig::default());
    let bait = park_scheduler(&gate, &service);

    let q = single_query(1.2);
    let walker = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    // a wait_timeout miss hands the ticket back; the client gives up
    let walker = match walker.wait_timeout(Duration::from_millis(1)) {
        Err(t) => t,
        Ok(r) => panic!("resolved while the scheduler was parked: {r:?}"),
    };
    drop(walker);
    gate.open_gate();
    service.drain();
    bait.wait().unwrap();
    assert_eq!(service.stats().abandoned, 1);

    // consumed and cancelled tickets are NOT abandoned
    let consumed = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    consumed.wait().unwrap();
    let cancelled = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    cancelled.cancel();
    service.drain();
    assert_eq!(service.stats().abandoned, 1);
    service.shutdown();
}

/// A `Fail` fault on the drain path degrades one flush to typed errors —
/// every ticket of the flush resolves with `FaultInjected`, nothing
/// hangs, and the very next flush serves normally.
#[test]
fn drain_fault_degrades_one_flush_and_the_service_recovers() {
    let guard = faultpoint::arm(
        FaultPlan::new().with(FaultSpec::new(points::SERVICE_DRAIN, FaultAction::Fail).times(1)),
    );
    let service = service_over(64, ServiceConfig::default().with_max_batch(16));

    let q = single_query(5.1);
    let hit = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    match hit.wait() {
        Err(PandaError::FaultInjected { point }) => assert_eq!(point, points::SERVICE_DRAIN),
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    let ok = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    assert_eq!(ok.wait().unwrap().row(0)[0].id, 5);
    assert!(guard.hits(points::SERVICE_DRAIN) >= 2);
    service.shutdown();
}

/// A fault inside the engine's leaf dispatch surfaces through the
/// service as the backend error it is — resolved to every member of the
/// batch, with the pool healthy afterwards.
#[test]
fn leaf_dispatch_fault_surfaces_through_the_service() {
    let _guard = faultpoint::arm(FaultPlan::new().fail(points::ENGINE_LEAF_DISPATCH, 1));
    let service = service_over(64, ServiceConfig::default().with_max_batch(16));

    let q = single_query(9.2);
    let hit = service.submit(&QueryRequest::knn(&q, 2)).unwrap();
    match hit.wait() {
        Err(PandaError::FaultInjected { point }) => {
            assert_eq!(point, points::ENGINE_LEAF_DISPATCH);
        }
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    let ok = service.submit(&QueryRequest::knn(&q, 2)).unwrap();
    assert_eq!(ok.wait().unwrap().row(0)[0].id, 9);
    service.shutdown();
}

/// A panic in a flush (injected on the drain path, outside the
/// per-batch backend `catch_unwind`) is caught where it happens: every
/// ticket of that flush resolves with `BackendPanicked` carrying the
/// root cause, and the service keeps accepting and serving work
/// afterwards.
#[test]
fn flush_panic_resolves_its_tickets_and_the_service_keeps_serving() {
    // the bait's flush is hit 1; the flush behind it panics
    let guard = faultpoint::arm(FaultPlan::new().panic(points::SERVICE_DRAIN, 2));
    let (gate, service) = gated_service_over(64, ServiceConfig::default());
    let bait = park_scheduler(&gate, &service);

    let q = single_query(4.4);
    // two submissions coalesced into the flush that panics
    let a = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    let b = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    gate.open_gate();
    bait.wait().unwrap();
    for (name, t) in [("a", a), ("b", b)] {
        match t.wait() {
            Err(PandaError::BackendPanicked(msg)) => {
                assert!(
                    msg.contains("injected fault panic"),
                    "{name}: root cause preserved: {msg}"
                );
            }
            other => panic!("{name}: expected BackendPanicked, got {other:?}"),
        }
    }
    // disarm (the next flush must serve cleanly), but keep the
    // exclusion: a sibling's plan must not fire on this service
    drop(guard);
    let _guard = faultpoint::arm(FaultPlan::new());

    let after = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    assert_eq!(after.wait().unwrap().row(0)[0].id, 4);
    service.shutdown(); // joins cleanly: the scheduler exits on stop
}

/// Repeated flush panics are each caught — every one resolves its
/// ticket typed, and the service still ends in a healthy,
/// shutdown-able state.
#[test]
fn repeated_scheduler_panics_stay_supervised() {
    let guard = faultpoint::arm(
        FaultPlan::new().with(FaultSpec::new(points::SERVICE_DRAIN, FaultAction::Panic).times(3)),
    );
    let service = service_over(64, ServiceConfig::default().with_max_batch(16));
    let q = single_query(2.9);
    for _ in 0..3 {
        let t = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
        assert!(matches!(t.wait(), Err(PandaError::BackendPanicked(_))));
    }
    assert!(guard.hits(points::SERVICE_DRAIN) >= 3);
    drop(guard);
    let _guard = faultpoint::arm(FaultPlan::new()); // disarmed, still exclusive
    let t = service.submit(&QueryRequest::knn(&q, 1)).unwrap();
    assert_eq!(t.wait().unwrap().row(0)[0].id, 3);
    service.shutdown();
}

/// No lost wake-up across a panicked flush: what queued behind it woke
/// nobody (the scheduler was busy), so the scheduler must pick it up
/// unprompted once the panic is caught — and the submit-then-wait
/// traffic that follows, which puts the scheduler to sleep and wakes it
/// again on every request, must all resolve exactly.
#[test]
fn backlog_behind_a_panicked_flush_is_served_unprompted() {
    const BACKLOG: usize = 20;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2000;
    let nearest = |reply: &TicketReply| (reply.row(0)[0].id, reply.row(0)[0].dist_sq.to_bits());
    let oracle = KnnIndex::build(&line_points(4096), &TreeConfig::default()).unwrap();
    let direct = |x: f32| {
        let r = oracle
            .query_session(&QueryRequest::knn(&single_query(x), 1))
            .unwrap();
        (
            r.neighbors.row(0)[0].id,
            r.neighbors.row(0)[0].dist_sq.to_bits(),
        )
    };
    for max_batch in [1usize, 8] {
        // the bait's flush is hit 1; the flush behind it panics
        let _guard = faultpoint::arm(FaultPlan::new().panic(points::SERVICE_DRAIN, 2));
        let (gate, service) =
            gated_service_over(4096, ServiceConfig::default().with_max_batch(max_batch));
        let bait = park_scheduler(&gate, &service);
        let backlog: Vec<Ticket> = (0..BACKLOG)
            .map(|i| {
                let q = single_query(i as f32 + 0.3);
                service.submit(&QueryRequest::knn(&q, 1)).unwrap()
            })
            .collect();
        gate.open_gate();
        bait.wait().unwrap();
        // The doomed flush took the first `max_batch` of the backlog;
        // the rest is served with nobody submitting.
        for (i, ticket) in backlog.into_iter().enumerate() {
            match (i < max_batch, common::wait(ticket)) {
                (true, Err(PandaError::BackendPanicked(_))) => {}
                (false, Ok(reply)) => assert_eq!(nearest(&reply), direct(i as f32 + 0.3)),
                (_, other) => panic!("max_batch {max_batch} backlog {i}: {other:?}"),
            }
        }

        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let handle = service.handle();
                let direct = &direct;
                scope.spawn(move || {
                    for r in 0..PER_CLIENT {
                        let x = ((c * PER_CLIENT + r) % 4096) as f32 + 0.4;
                        let q = single_query(x);
                        let ticket = handle.submit(&QueryRequest::knn(&q, 1)).unwrap();
                        let reply = common::wait(ticket).unwrap();
                        assert_eq!(nearest(&reply), direct(x), "client {c} request {r}");
                    }
                });
            }
        });
        assert_eq!(service.stats().queue_depth, 0);
        service.shutdown();
    }
}

// ------------------------------------------------------------------ comm

/// A rank failing before the routing exchange stalls everyone else's
/// receive — which must surface as `PandaError::Comm(Timeout)` on every
/// waiting rank (typed after one receive bound, no process abort), and after a
/// collective `quiesce` the same communicators serve an exact query
/// again with no leaked mailbox state.
#[test]
fn stalled_rank_yields_typed_timeouts_and_quiesce_recovers() {
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(points::DIST_EXCHANGE_ROUTE, FaultAction::Fail)
                .on_ctx(1)
                .times(1),
        ),
    );
    let all = uniform::generate(400, 3, 1.0, 7);
    let cfg = ClusterConfig::new(3).with_timeout(Duration::from_millis(200));
    // Stands in for a real recovery protocol's agreement step: the
    // faulted rank errors instantly while the others are still timing
    // out, so ranks must agree "the torn exchange is over" before
    // quiescing, and "everyone has quiesced" before re-querying
    // (otherwise a late quiesce would drain a peer's fresh messages).
    let torn_over = std::sync::Barrier::new(3);
    let all_quiesced = std::sync::Barrier::new(3);
    let out = run_cluster(&cfg, |comm| {
        let rank = comm.rank();
        let mine = scatter(&all, rank, comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&all, rank, comm.size());

        let qcfg = QueryConfig::with_k(4);
        let first = query_distributed(comm, &tree, &myq, &qcfg);
        let first_kind = match (rank, first) {
            (1, Err(PandaError::FaultInjected { point })) => {
                assert_eq!(point, points::DIST_EXCHANGE_ROUTE);
                "injected"
            }
            (_, Err(PandaError::Comm(CommError::Timeout { .. }))) => "timeout",
            (r, other) => panic!("rank {r}: unexpected first outcome: {other:?}"),
        };

        torn_over.wait();
        // same epoch on every rank: drop leftovers, rebase collective tags
        comm.quiesce(1);
        let parked = comm.pending_messages();
        // the faulted rank consumed nothing, but quiesce cleared it all
        assert_eq!(parked, 0, "rank {rank}: mailbox leaked after quiesce");
        all_quiesced.wait();

        let second =
            query_distributed(comm, &tree, &myq, &qcfg).expect("post-quiesce query succeeds");
        assert_eq!(second.neighbors.len(), myq.len());
        assert!(second.neighbors.iter().all(|row| row.len() == 4));
        first_kind
    });
    assert_eq!(out[0].result, "timeout");
    assert_eq!(out[1].result, "injected");
    assert_eq!(out[2].result, "timeout");
}

/// A straggling rank whose delay is within the receive bound is simply
/// waited for: the exchange completes and results are bit-identical.
#[test]
fn straggler_within_the_receive_bound_is_masked() {
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(
                points::DIST_EXCHANGE_ROUTE,
                FaultAction::Delay(Duration::from_millis(150)),
            )
            .on_ctx(1)
            .times(1),
        ),
    );
    let all = uniform::generate(300, 2, 1.0, 8);
    let expect = {
        let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
        local.query_session(&QueryRequest::knn(&all, 3)).unwrap()
    };
    let cfg = ClusterConfig::new(3).with_timeout(Duration::from_millis(400));
    let fired_before = faultpoint::fired(points::DIST_EXCHANGE_ROUTE);
    let out = run_cluster(&cfg, |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let p = comm.size();
        let rank = comm.rank();
        let myq = scatter(&all, rank, p);
        let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(3))
            .expect("straggler absorbed, query exact");
        // strided scatter: local row i answers global query rank + i*p
        res.neighbors
            .iter()
            .enumerate()
            .map(|(i, row)| {
                (
                    rank + i * p,
                    row.iter().map(|n| (n.dist_sq, n.id)).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    });
    let fired = faultpoint::fired(points::DIST_EXCHANGE_ROUTE) - fired_before;
    assert_eq!(fired, 1, "the straggler's delay really ran");
    for o in &out {
        for (slot, got) in &o.result {
            let want: Vec<(f32, u64)> = expect
                .neighbors
                .row(*slot)
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            assert_eq!(got, &want, "query {slot} bit-identical despite straggler");
        }
    }
}

/// Response-stage faults (deep in the pipeline, after state has been
/// exchanged) also come back typed on every rank and recover after
/// quiesce — the error path is not special to stage 1.
#[test]
fn late_stage_exchange_fault_is_also_typed_and_recoverable() {
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(points::DIST_EXCHANGE_RETURN, FaultAction::Fail)
                .on_ctx(0)
                .times(1),
        ),
    );
    let all = uniform::generate(300, 3, 1.0, 9);
    let cfg = ClusterConfig::new(2).with_timeout(Duration::from_millis(200));
    // out-of-band recovery agreement, as in the stalled-rank test
    let torn_over = std::sync::Barrier::new(2);
    let all_quiesced = std::sync::Barrier::new(2);
    let out = run_cluster(&cfg, |comm| {
        let rank = comm.rank();
        let mine = scatter(&all, rank, comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&all, rank, comm.size());
        let qcfg = QueryConfig::with_k(3);
        let first = query_distributed(comm, &tree, &myq, &qcfg);
        let typed = matches!(
            first,
            Err(PandaError::FaultInjected { .. })
                | Err(PandaError::Comm(CommError::Timeout { .. }))
        );
        torn_over.wait();
        comm.quiesce(2);
        all_quiesced.wait();
        let second = query_distributed(comm, &tree, &myq, &qcfg);
        (typed, second.is_ok())
    });
    for o in &out {
        assert!(o.result.0, "rank {}: first error was typed", o.rank);
        assert!(o.result.1, "rank {}: recovered after quiesce", o.rank);
    }
}

// ---------------------------------------------------------------- shards

fn bit_rows(rows: impl Iterator<Item = impl AsRef<[Neighbor]>>) -> Vec<Vec<(u64, u32)>> {
    rows.map(|row| {
        row.as_ref()
            .iter()
            .map(|n| (n.id, n.dist_sq.to_bits()))
            .collect()
    })
    .collect()
}

/// A shard panicking mid-batch inside a service-fronted
/// [`ShardedIndex`] surfaces as `BackendPanicked` on the affected
/// tickets — typed, naming the shard — because the round catches the
/// panic where it happens; once the plan disarms, the same service
/// serves answers bit-identical to the local engine.
#[test]
fn shard_panic_mid_batch_is_typed_and_the_worker_restarts() {
    let guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(points::SHARD_WORKER_QUERY, FaultAction::Panic)
                .on_ctx(2)
                .times(1),
        ),
    );
    let all = uniform::generate(600, 2, 1.0, 10);
    let expect = {
        let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
        local.query_session(&QueryRequest::knn(&all, 4)).unwrap()
    };
    let sharded = Arc::new(ShardedIndex::build(&all, 4, &DistConfig::default()).expect("build"));
    let service = QueryService::new(
        Arc::clone(&sharded) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .unwrap();

    let hit = service.submit(&QueryRequest::knn(&all, 4)).unwrap();
    match hit.wait() {
        Err(PandaError::BackendPanicked(msg)) => {
            assert!(msg.contains("shard 2"), "root cause names the shard: {msg}");
        }
        other => panic!("expected BackendPanicked, got {other:?}"),
    }
    // disarm (the same shard must serve cleanly), but keep the
    // exclusion: a sibling's plan must not fire on these shards
    drop(guard);
    let _guard = faultpoint::arm(FaultPlan::new());

    let reply = service
        .submit(&QueryRequest::knn(&all, 4))
        .unwrap()
        .wait()
        .expect("post-restart query succeeds");
    assert_eq!(
        bit_rows(reply.iter()),
        bit_rows(expect.neighbors.iter()),
        "recovered answers are bit-identical to the local engine"
    );
    service.shutdown();
}

/// An injected comm timeout inside a shard degrades the round to
/// `PandaError::Comm` — typed on the caller, **never a hang** — and,
/// since rounds share no state, the very next round is exact again.
#[test]
fn shard_comm_timeout_is_typed_never_a_hang() {
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(points::SHARD_WORKER_QUERY, FaultAction::Timeout)
                .on_ctx(1)
                .times(1),
        ),
    );
    let all = uniform::generate(500, 3, 1.0, 11);
    let sharded = ShardedIndex::build(&all, 3, &DistConfig::default()).expect("build");
    let req = QueryRequest::knn(&all, 3);
    let first = sharded.query(&req);
    assert!(
        matches!(first, Err(PandaError::Comm(_))),
        "expected a typed Comm error, got {first:?}"
    );

    let second = sharded.query(&req).expect("the next round is clean");
    let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
    let expect = local.query_session(&req).unwrap();
    assert_eq!(
        bit_rows(second.neighbors.iter()),
        bit_rows(expect.neighbors.iter())
    );
}

/// A straggler shard is a slow call, nothing more: a round has no
/// deadline of its own, so it waits for the stalled shard, fires the
/// stall once, and returns rows bit-identical to the local engine.
#[test]
fn slow_shard_is_waited_for_and_its_rows_are_exact() {
    let stall = Duration::from_millis(200);
    let _guard = faultpoint::arm(
        FaultPlan::new().with(
            FaultSpec::new(points::SHARD_WORKER_QUERY, FaultAction::Delay(stall))
                .on_ctx(1)
                .times(1),
        ),
    );
    let all = uniform::generate(500, 3, 1.0, 12);
    let sharded = ShardedIndex::build(&all, 3, &DistConfig::default()).expect("build");
    let req = QueryRequest::knn(&all, 3);
    let stalls = faultpoint::fired(points::SHARD_WORKER_QUERY);
    let t0 = std::time::Instant::now();
    let got = sharded.query(&req).expect("a straggler is not a failure");
    let waited = t0.elapsed();
    assert!(
        waited >= stall,
        "returned after {waited:?}, stall {stall:?}"
    );
    assert_eq!(faultpoint::fired(points::SHARD_WORKER_QUERY), stalls + 1);
    let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
    let expect = local.query_session(&req).unwrap();
    assert_eq!(
        bit_rows(got.neighbors.iter()),
        bit_rows(expect.neighbors.iter())
    );
}

// ----------------------------------------------------------------- store

/// Distances from a store must be bit-identical to a from-scratch brute
/// force over `live` (the store-parity standard; ids may differ at ties).
fn assert_store_parity(store: &MutableIndex, live: &PointSet, queries: &PointSet, who: &str) {
    let req = QueryRequest::knn(queries, 3.min(live.len().max(1)));
    let got = store.query(&req).unwrap();
    let want = NnBackend::query(&BruteForce::new(live), &req).unwrap();
    let d =
        |r: &QueryResponse| -> Vec<f32> { r.neighbors.arena().iter().map(|n| n.dist_sq).collect() };
    assert_eq!(d(&got), d(&want), "{who}: store diverged from brute force");
}

/// A panic in the background compaction's build phase is supervised:
/// the frozen log splices back, the old tree generation keeps serving
/// exact answers, the typed error is surfaced, and the next compaction
/// succeeds.
#[test]
fn compaction_build_panic_rolls_back_and_the_old_tree_keeps_serving() {
    let _guard = faultpoint::arm(FaultPlan::new().panic(points::STORE_COMPACT_BUILD, 1));
    let seed = line_points(16);
    let store =
        MutableIndex::from_points(&seed, StoreConfig::default().with_compact_points(4)).unwrap();
    let mut live = seed.clone();
    for i in 16..20u64 {
        // the 4th insert crosses the threshold and triggers the doomed build
        store.insert(&[i as f32], i).unwrap();
        live.push(&[i as f32], i);
    }
    store.quiesce();

    let err = store.take_last_compaction_error();
    assert!(
        matches!(err, Some(PandaError::BackendPanicked(_))),
        "panic must surface as a typed error, got {err:?}"
    );
    assert!(store.take_last_compaction_error().is_none(), "taken once");
    let stats = store.stats();
    assert_eq!(stats.compaction_failures, 1);
    assert_eq!(stats.epoch, 0, "no swap happened");
    assert_eq!(stats.frozen_points, 0, "frozen segment was spliced back");
    assert_eq!(stats.log_points, 4, "spliced points still queryable");
    assert_store_parity(&store, &live, &single_query(17.8), "after rollback");

    // The plan fired once; a retried compaction now succeeds.
    store.compact_now().unwrap();
    let stats = store.stats();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.log_points, 0);
    assert_eq!(stats.compactions, 1);
    assert_store_parity(&store, &live, &single_query(17.8), "after retry");
}

/// A fault at the swap point aborts the publication atomically: the
/// epoch never advances, queries see either the complete old world or
/// the complete new one (never a mix), and tombstones survive for the
/// retry.
#[test]
fn swap_fault_leaves_no_torn_view() {
    let _guard = faultpoint::arm(
        FaultPlan::new()
            .with(FaultSpec::new(points::STORE_COMPACT_SWAP, FaultAction::Fail).times(1)),
    );
    let seed = line_points(16);
    let store = MutableIndex::from_points(&seed, StoreConfig::default()).unwrap();
    for i in 16..21u64 {
        store.insert(&[i as f32], i).unwrap();
    }
    assert!(store.remove(3).unwrap()); // tombstone on a tree-resident point
    let mut live = PointSet::new(1).unwrap();
    for i in (0..21u64).filter(|&i| i != 3) {
        live.push(&[i as f32], i);
    }

    let err = store.compact_now();
    assert!(
        matches!(err, Err(PandaError::FaultInjected { ref point }) if point == points::STORE_COMPACT_SWAP),
        "swap fault must be typed, got {err:?}"
    );
    let stats = store.stats();
    assert_eq!(stats.epoch, 0, "failed swap must not publish");
    assert_eq!(stats.frozen_points, 0);
    assert_eq!(stats.log_points, 5, "log restored");
    assert_eq!(stats.deleted, 1, "tombstone survives for the retry");
    assert_eq!(stats.compaction_failures, 1);
    assert_store_parity(&store, &live, &single_query(3.4), "after failed swap");

    store.compact_now().unwrap();
    let stats = store.stats();
    assert_eq!(stats.epoch, 1);
    assert_eq!((stats.log_points, stats.deleted), (0, 0));
    assert_eq!(stats.tree_points, 20, "id 3 physically dropped");
    assert_store_parity(&store, &live, &single_query(3.4), "after retried swap");
}

/// A fault on the log-append path rejects that one insert with a typed
/// error before any state changes; the store stays consistent and the
/// same id inserts cleanly afterwards.
#[test]
fn log_append_fault_is_typed_and_the_store_stays_consistent() {
    let _guard = faultpoint::arm(FaultPlan::new().fail(points::STORE_LOG_APPEND, 2));
    let store = MutableIndex::new(1, StoreConfig::default()).unwrap();
    store.insert(&[0.0], 0).unwrap();
    let err = store.insert(&[1.0], 1);
    assert!(
        matches!(err, Err(PandaError::FaultInjected { ref point }) if point == points::STORE_LOG_APPEND),
        "got {err:?}"
    );
    assert_eq!(store.len(), 1, "failed insert changed nothing");
    store.insert(&[1.0], 1).unwrap(); // same id is still insertable
    assert_eq!(store.len(), 2);
    let live = PointSet::from_coords(1, vec![0.0, 1.0]).unwrap();
    assert_store_parity(&store, &live, &single_query(0.7), "after append fault");
}

/// With no plan armed, every fault point is dormant: the full service
/// path and the distributed path behave exactly as un-instrumented code.
#[test]
fn disarmed_points_change_nothing() {
    let _guard = faultpoint::arm(FaultPlan::new()); // empty: exclusion only
    let service = service_over(32, ServiceConfig::default());
    let q = single_query(11.7);
    let t = service.submit(&QueryRequest::knn(&q, 3)).unwrap();
    let reply = t.wait().unwrap();
    assert_eq!(reply.row(0)[0].id, 12);
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.abandoned, 0);
    service.shutdown();
}
