//! End-to-end tests of the concurrent query service.
//!
//! The load-bearing claim: coalescing many clients' interleaved singles
//! into micro-batches that the backend orders for locality changes no
//! value — every client gets **bit-identical** neighbors to a direct
//! `query_session` call over the same points. Plus the scheduling policy (a free
//! scheduler takes whatever is queued, up to `max_batch`) and the
//! lifecycle contracts: `drain` resolves everything, shutdown is
//! graceful, and the bounded queue rejects (or blocks) exactly as
//! configured.
//!
//! No test here reads a clock: wherever submissions must pile up, a
//! [`GatedBackend`] parks the scheduler inside the first batch.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{single, GatedBackend, RecordingBackend};
use panda::core::rng::SplitRng;
use panda::prelude::*;

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

fn direct_row(direct: &QueryResponse, i: usize) -> Vec<(f32, u64)> {
    direct
        .neighbors
        .row(i)
        .iter()
        .map(|n| (n.dist_sq, n.id))
        .collect()
}

fn rows(reply: &TicketReply) -> Vec<Vec<(f32, u64)>> {
    reply
        .iter()
        .map(|row| row.iter().map(|n| (n.dist_sq, n.id)).collect())
        .collect()
}

/// N concurrent client threads submitting interleaved singles produce
/// bit-identical neighbors to one direct `query_session` batch over the
/// same queries.
#[test]
fn concurrent_singles_match_one_direct_batch() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let points = random_ps(4000, 3, 1);
    let queries = random_ps(CLIENTS * PER_CLIENT, 3, 2);
    let k = 5;

    let index = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
    let direct = index
        .query_session(&QueryRequest::knn(&queries, k))
        .unwrap();

    let backend = Arc::new(GatedBackend::new(index));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default().with_max_batch(32),
    )
    .unwrap();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = service.handle();
            // client c owns query slots c*PER_CLIENT .. (c+1)*PER_CLIENT
            let mine: Vec<Vec<f32>> = (0..PER_CLIENT)
                .map(|i| queries.point(c * PER_CLIENT + i).to_vec())
                .collect();
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_CLIENT);
                for q in mine {
                    let qs = PointSet::from_coords(3, q).unwrap();
                    let ticket = handle.submit(&QueryRequest::knn(&qs, k)).unwrap();
                    let reply = ticket.wait().unwrap();
                    assert_eq!(reply.len(), 1);
                    got.push(
                        reply
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq, n.id))
                            .collect::<Vec<_>>(),
                    );
                }
                got
            })
        })
        .collect();
    // so the coalescing asserted below does not depend on timing
    backend.open_after_submissions(&service, CLIENTS);

    for (c, w) in workers.into_iter().enumerate() {
        let got = w.join().unwrap();
        for (i, row) in got.iter().enumerate() {
            let want: Vec<(f32, u64)> = direct
                .neighbors
                .row(c * PER_CLIENT + i)
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            assert_eq!(row, &want, "client {c} query {i}");
        }
    }

    let stats = service.stats();
    assert_eq!(stats.queries, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.rejected, 0);
    // singles were actually coalesced, not executed one by one
    assert!(
        stats.batches < stats.submitted,
        "batches {} vs submissions {}",
        stats.batches,
        stats.submitted
    );
    assert!(stats.mean_batch_size() > 1.0);
    assert!(stats.p99_latency_seconds() >= stats.p50_latency_seconds());
    service.shutdown();
}

/// Multi-query submissions with heterogeneous request shapes (different
/// k, with/without radius): the scheduler may only coalesce compatible
/// requests, and every client's row slice must match a direct call.
#[test]
fn mixed_request_shapes_stay_exact() {
    let points = random_ps(3000, 2, 10);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let service = QueryService::new(
        Arc::clone(&index) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default().with_max_batch(64),
    )
    .unwrap();

    let workers: Vec<_> = (0..6usize)
        .map(|c| {
            let handle = service.handle();
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                let qs = random_ps(7, 2, 100 + c as u64);
                let k = 3 + (c % 3); // 3, 4, 5
                let mut req = QueryRequest::knn(&qs, k);
                if c % 2 == 0 {
                    req = req.with_radius(25.0);
                }
                let reply = handle.submit(&req).unwrap().wait().unwrap();
                assert_eq!(reply.len(), qs.len());
                assert_eq!(reply.rows().len(), qs.len());
                let direct = index.query_session(&req).unwrap();
                let want: Vec<Vec<(f32, u64)>> = direct
                    .neighbors
                    .iter()
                    .map(|row| row.iter().map(|n| (n.dist_sq, n.id)).collect())
                    .collect();
                assert_eq!(rows(&reply), want, "client {c}");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    service.shutdown();
}

/// `drain` resolves every queued ticket without shutting the service
/// down; submissions stay welcome afterwards.
#[test]
fn drain_resolves_all_outstanding_tickets() {
    let points = random_ps(500, 3, 20);
    let backend = Arc::new(GatedBackend::new(
        KnnIndex::build(&points, &TreeConfig::default()).unwrap(),
    ));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .unwrap();

    // a bait parks the scheduler in the gate; the 40 queue behind it
    let qs = random_ps(40, 3, 21);
    let bait = service
        .submit(&QueryRequest::knn(&single(qs.point(0)), 4))
        .unwrap();
    backend.await_entry();
    let tickets: Vec<Ticket> = (0..qs.len())
        .map(|i| {
            service
                .submit(&QueryRequest::knn(&single(qs.point(i)), 4))
                .unwrap()
        })
        .collect();
    assert!(
        tickets.iter().all(|t| !t.is_ready()),
        "held behind the gate"
    );
    assert_eq!(service.stats().queue_depth, 40);

    backend.open_gate();
    service.drain();
    assert!(bait.is_ready());
    assert!(tickets.iter().all(Ticket::is_ready), "drain left a ticket");
    for (i, t) in tickets.into_iter().enumerate() {
        let reply = t.wait().unwrap();
        assert_eq!(reply.len(), 1);
        assert_eq!(reply.row(0).len(), 4, "query {i}");
    }
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(
        stats.batches, 2,
        "the bait, then one coalesced flush served everyone"
    );

    // the service still accepts work after a drain
    let one = single(qs.point(0));
    let t = service.submit(&QueryRequest::knn(&one, 2)).unwrap();
    service.drain();
    assert_eq!(t.wait().unwrap().row(0).len(), 2);
    service.shutdown();
}

/// Graceful shutdown: everything already queued resolves; later
/// submissions fail with `ServiceStopped`.
#[test]
fn shutdown_flushes_then_closes_intake() {
    let points = random_ps(400, 2, 30);
    let backend = Arc::new(GatedBackend::new(
        KnnIndex::build(&points, &TreeConfig::default()).unwrap(),
    ));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .unwrap();
    let handle = service.handle();

    // one in flight (parked in the gate), ten queued behind it
    let qs = random_ps(10, 2, 31);
    let bait = handle
        .submit(&QueryRequest::knn(&single(qs.point(0)), 3))
        .unwrap();
    backend.await_entry();
    let tickets: Vec<Ticket> = (0..qs.len())
        .map(|i| {
            handle
                .submit(&QueryRequest::knn(&single(qs.point(i)), 3))
                .unwrap()
        })
        .collect();
    assert!(tickets.iter().all(|t| !t.is_ready()), "still queued");

    backend.open_gate();
    service.shutdown();
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in tickets {
        assert!(t.is_ready());
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    // the retained handle sees the closed service
    let one = single(qs.point(0));
    assert!(matches!(
        handle.submit(&QueryRequest::knn(&one, 3)),
        Err(PandaError::ServiceStopped)
    ));
}

/// With the scheduler stuck in an in-flight batch and the queue full,
/// `Reject` fails fast with `Overloaded` — and the queued work still
/// completes once the backend recovers.
#[test]
fn reject_policy_returns_overloaded_when_full() {
    let points = random_ps(200, 2, 40);
    let backend = Arc::new(GatedBackend::new(BruteForce::new(&points)));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(4)
            .with_overflow(OverflowPolicy::Reject),
    )
    .unwrap();

    let one = |seed: u64| {
        let q = random_ps(1, 2, seed);
        PointSet::from_coords(2, q.point(0).to_vec()).unwrap()
    };
    // bait the scheduler into the gated backend …
    let bait = service.submit(&QueryRequest::knn(&one(41), 3)).unwrap();
    backend.await_entry();
    // … then fill the queue to capacity behind it
    let queued: Vec<Ticket> = (0..4)
        .map(|i| service.submit(&QueryRequest::knn(&one(50 + i), 3)).unwrap())
        .collect();
    // the queue is full and the scheduler cannot drain: fail fast
    let err = service.submit(&QueryRequest::knn(&one(60), 3)).unwrap_err();
    match err {
        PandaError::Overloaded { depth, capacity } => {
            assert_eq!(depth, 4);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    // recovery: open the gate, everything queued resolves exactly
    backend.open_gate();
    service.drain();
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in queued {
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    service.shutdown();
}

/// `Block` policy: a submitter over capacity parks until the scheduler
/// frees space, then succeeds — nothing is rejected.
#[test]
fn block_policy_applies_backpressure_without_loss() {
    let points = random_ps(200, 2, 70);
    let backend = Arc::new(GatedBackend::new(BruteForce::new(&points)));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(4)
            .with_overflow(OverflowPolicy::Block),
    )
    .unwrap();

    let one = |seed: u64| {
        let q = random_ps(1, 2, seed);
        PointSet::from_coords(2, q.point(0).to_vec()).unwrap()
    };
    let bait = service.submit(&QueryRequest::knn(&one(71), 3)).unwrap();
    backend.await_entry();
    let queued: Vec<Ticket> = (0..4)
        .map(|i| service.submit(&QueryRequest::knn(&one(80 + i), 3)).unwrap())
        .collect();

    // this submitter must block (queue full) until the gate opens
    let handle = service.handle();
    let blocked = std::thread::spawn(move || {
        let q = random_ps(1, 2, 90);
        let qs = PointSet::from_coords(2, q.point(0).to_vec()).unwrap();
        handle.submit(&QueryRequest::knn(&qs, 3)).unwrap().wait()
    });
    backend.open_gate();
    let reply = blocked.join().unwrap().unwrap();
    assert_eq!(reply.row(0).len(), 3);
    service.drain();
    assert_eq!(service.stats().rejected, 0);
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in queued {
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    service.shutdown();
}

/// A lone submission over an idle service is flushed at once as a batch
/// of one: nothing else — no second submission, drain or shutdown — is
/// there to trigger it.
#[test]
fn lone_submission_over_idle_service_flushes_at_once() {
    let points = random_ps(300, 2, 100);
    let backend = Arc::new(RecordingBackend::new(BruteForce::new(&points)));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .unwrap();

    let q = random_ps(1, 2, 101);
    let ticket = service.submit(&QueryRequest::knn(&q, 3)).unwrap();
    let reply = common::wait(ticket).unwrap();
    let direct = NnBackend::query(&BruteForce::new(&points), &QueryRequest::knn(&q, 3)).unwrap();
    assert_eq!(rows(&reply), vec![direct_row(&direct, 0)]);
    assert_eq!(backend.batches(), vec![q.coords().to_vec()]);
    let stats = service.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.queue_depth, 0);
    service.shutdown();
}

/// Natural batching: what queues while one batch runs is the next batch,
/// in submission order — all of it when it fits `max_batch`, else
/// ⌈N / `max_batch`⌉ capped chunks of whole submissions, never one
/// oversized batch.
#[test]
fn max_batch_caps_dispatched_batches() {
    const MAX_BATCH: usize = 8;
    const DIMS: usize = 2;
    let points = random_ps(300, DIMS, 110);
    for n in [5usize, MAX_BATCH, 20] {
        let backend = Arc::new(GatedBackend::new(RecordingBackend::new(BruteForce::new(
            &points,
        ))));
        let service = QueryService::new(
            Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
            ServiceConfig::default()
                .with_max_batch(MAX_BATCH)
                .with_queue_capacity(64),
        )
        .unwrap();

        // bait the scheduler into the gate, then build an n-query backlog
        let bait_q = random_ps(1, DIMS, 111);
        let bait = service.submit(&QueryRequest::knn(&bait_q, 3)).unwrap();
        backend.await_entry();
        let backlog = random_ps(n, DIMS, 120);
        let queued: Vec<Ticket> = (0..n)
            .map(|i| {
                service
                    .submit(&QueryRequest::knn(&single(backlog.point(i)), 3))
                    .unwrap()
            })
            .collect();

        backend.open_gate();
        service.drain();
        assert_eq!(bait.wait().unwrap().row(0).len(), 3);
        for t in queued {
            assert_eq!(t.wait().unwrap().row(0).len(), 3);
        }
        // the bait alone, then the backlog in submission order, chunked
        let mut want = vec![bait_q.coords().to_vec()];
        want.extend(
            backlog
                .coords()
                .chunks(MAX_BATCH * DIMS)
                .map(<[f32]>::to_vec),
        );
        assert_eq!(backend.inner.batches(), want, "backlog of {n}");
        let stats = service.stats();
        assert_eq!(stats.batches as usize, 1 + n.div_ceil(MAX_BATCH));
        // no dispatched batch exceeded max_batch = 8 (pow2 buckets above
        // 8..=15 must be empty)
        for (i, &count) in stats.batch_hist.iter().enumerate().skip(4) {
            assert_eq!(count, 0, "batch of 2^{i}..2^{} dispatched", i + 1);
        }
        service.shutdown();
    }
}

/// No lost wake-up: closed-loop clients that each submit and wait keep
/// putting the scheduler to sleep on an empty queue and waking it with
/// the very next submission. Every ticket must resolve, bit-identical to
/// one direct batch, whether batches are forced to one query or not.
#[test]
fn submit_then_wait_clients_never_lose_a_wakeup() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2000;
    let points = random_ps(2000, 3, 160);
    let queries = Arc::new(random_ps(CLIENTS * PER_CLIENT, 3, 161));
    let k = 4;
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let direct = Arc::new(
        index
            .query_session(&QueryRequest::knn(&queries, k))
            .unwrap(),
    );

    for max_batch in [1usize, 8] {
        let service = QueryService::new(
            Arc::clone(&index) as Arc<dyn NnBackend + Send + Sync>,
            ServiceConfig::default().with_max_batch(max_batch),
        )
        .unwrap();
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = service.handle();
                let queries = Arc::clone(&queries);
                let direct = Arc::clone(&direct);
                std::thread::spawn(move || {
                    for slot in c * PER_CLIENT..(c + 1) * PER_CLIENT {
                        let q = single(queries.point(slot));
                        let ticket = handle.submit(&QueryRequest::knn(&q, k)).unwrap();
                        let reply = common::wait(ticket).unwrap();
                        assert_eq!(
                            rows(&reply),
                            vec![direct_row(&direct, slot)],
                            "max_batch {max_batch} query {slot}"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
        assert_eq!(stats.queue_depth, 0);
        service.shutdown();
    }
}

/// A panicking backend is contained: its batch's tickets resolve with
/// `BackendPanicked`, the service keeps serving afterwards.
#[test]
fn backend_panic_is_contained() {
    struct FlakyBackend {
        inner: BruteForce,
        fail: AtomicBool,
    }
    impl NnBackend for FlakyBackend {
        fn query(&self, req: &QueryRequest<'_>) -> panda::core::Result<QueryResponse> {
            if self.fail.load(Ordering::Acquire) {
                panic!("injected backend failure");
            }
            NnBackend::query(&self.inner, req)
        }
        fn name(&self) -> &'static str {
            "flaky-brute"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dims(&self) -> usize {
            NnBackend::dims(&self.inner)
        }
    }

    let points = random_ps(100, 2, 130);
    let backend = Arc::new(FlakyBackend {
        inner: BruteForce::new(&points),
        fail: AtomicBool::new(true),
    });
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default(),
    )
    .unwrap();

    let q = PointSet::from_coords(2, random_ps(1, 2, 131).point(0).to_vec()).unwrap();
    let err = service
        .submit(&QueryRequest::knn(&q, 3))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        PandaError::BackendPanicked(msg) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected BackendPanicked, got {other:?}"),
    }

    // the scheduler survived the panic: the service still answers
    backend.fail.store(false, Ordering::Release);
    let reply = service
        .submit(&QueryRequest::knn(&q, 3))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(reply.row(0).len(), 3);
    service.shutdown();
}

/// Degenerate submissions: empty query sets resolve immediately;
/// invalid requests fail at submit time, not inside the batch.
#[test]
fn degenerate_submissions() {
    let points = random_ps(100, 3, 95);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let service = QueryService::new(index, ServiceConfig::default()).unwrap();

    let empty = PointSet::new(3).unwrap();
    let t = service.submit(&QueryRequest::knn(&empty, 5)).unwrap();
    assert!(t.is_ready());
    assert!(t.wait().unwrap().is_empty());

    let qs = random_ps(1, 3, 96);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&qs, 0)),
        Err(PandaError::ZeroK)
    ));
    let wrong_dims = random_ps(1, 2, 97);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&wrong_dims, 3)),
        Err(PandaError::DimsMismatch { .. })
    ));
    let oversized = random_ps(20_000, 3, 98);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&oversized, 3)),
        Err(PandaError::BadConfig(_))
    ));
    service.shutdown();
}

/// The PR 8 acceptance gate: `QueryService` fronting a 4-shard
/// `ShardedIndex` under 8 concurrent clients is bit-identical to a
/// direct single-shard `query_session` over the same queries.
#[test]
fn sharded_backend_under_concurrent_clients_matches_single_shard() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 20;
    let points = random_ps(3000, 3, 140);
    let queries = random_ps(CLIENTS * PER_CLIENT, 3, 141);
    let k = 6;

    // ground truth: one shard, one direct query
    let single = ShardedIndex::build(&points, 1, &DistConfig::default()).unwrap();
    let direct = NnBackend::query(&single, &QueryRequest::knn(&queries, k)).unwrap();

    let sharded = Arc::new(GatedBackend::new(
        ShardedIndex::build(&points, 4, &DistConfig::default()).unwrap(),
    ));
    assert_eq!(sharded.inner.shards(), 4);
    let service = QueryService::new(
        Arc::clone(&sharded) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default().with_max_batch(32),
    )
    .unwrap();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = service.handle();
            let mine: Vec<Vec<f32>> = (0..PER_CLIENT)
                .map(|i| queries.point(c * PER_CLIENT + i).to_vec())
                .collect();
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_CLIENT);
                for q in mine {
                    let qs = PointSet::from_coords(3, q).unwrap();
                    let reply = handle
                        .submit(&QueryRequest::knn(&qs, k))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(reply.len(), 1);
                    got.push(
                        reply
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq.to_bits(), n.id))
                            .collect::<Vec<_>>(),
                    );
                }
                got
            })
        })
        .collect();
    // so the coalescing asserted below does not depend on timing
    sharded.open_after_submissions(&service, CLIENTS);

    for (c, w) in workers.into_iter().enumerate() {
        let got = w.join().unwrap();
        for (i, row) in got.iter().enumerate() {
            let want: Vec<(u32, u64)> = direct
                .neighbors
                .row(c * PER_CLIENT + i)
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.id))
                .collect();
            assert_eq!(row, &want, "client {c} query {i}");
        }
    }

    let stats = service.stats();
    assert_eq!(stats.queries, (CLIENTS * PER_CLIENT) as u64);
    assert!(stats.mean_batch_size() > 1.0, "singles were coalesced");
    service.shutdown();
}
