//! Cluster driver: spawn rank threads, collect outcomes.

use std::time::Duration;

use std::sync::mpsc::channel;

use crate::clock::ClockSummary;
use crate::comm::Comm;
use crate::cost::{CostModel, MachineProfile};
use crate::mailbox::Envelope;
use crate::stats::CommStats;

/// Configuration for a simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of ranks (each becomes one OS thread).
    pub ranks: usize,
    /// Cost model used for virtual-time accounting.
    pub cost: CostModel,
    /// The one bound every receive waits. A message that arrives within
    /// it is delivered; otherwise the infallible collectives abort the
    /// run with a deadlock diagnostic and the fallible ones
    /// (`try_alltoallv`, `try_allgather`) return a typed
    /// [`crate::CommError::Timeout`]. A straggler is masked exactly when
    /// its message arrives within this bound.
    pub recv_timeout: Duration,
}

impl ClusterConfig {
    /// Cluster of `ranks` ranks with the default (Edison-node) cost model.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            cost: CostModel::default(),
            recv_timeout: Duration::from_secs(120),
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Use a named machine profile's cost model.
    pub fn with_profile(mut self, profile: MachineProfile) -> Self {
        self.cost = profile.cost_model();
        self
    }

    /// Replace the deadlock-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }
}

/// What one rank produced: the closure result plus simulation accounting.
#[derive(Clone, Debug)]
pub struct RankOutcome<R> {
    /// World rank.
    pub rank: usize,
    /// Value returned by the rank closure.
    pub result: R,
    /// Final virtual-clock snapshot.
    pub clock: ClockSummary,
    /// Final communication counters.
    pub stats: CommStats,
}

/// Run `f` once per rank on its own thread; block until all ranks finish.
/// Outcomes are returned in rank order.
///
/// If any rank panics, the panic is propagated to the caller after the
/// remaining ranks have been torn down (they abort on their next blocking
/// receive or at the timeout).
///
/// # Panics
/// If `cfg.ranks == 0`, or to propagate a rank panic.
pub fn run_cluster<R, F>(cfg: &ClusterConfig, f: F) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    assert!(cfg.ranks > 0, "cluster must have at least one rank");
    let p = cfg.ranks;

    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }

    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let cost = cfg.cost;
            let timeout = cfg.recv_timeout;
            let handle = std::thread::Builder::new()
                .name(format!("panda-rank-{rank}"))
                .stack_size(8 << 20)
                .spawn_scoped(scope, move || {
                    let mut comm = Comm::new(rank, p, senders, rx, cost, timeout);
                    let result = f(&mut comm);
                    RankOutcome {
                        rank,
                        result,
                        clock: comm.clock(),
                        stats: comm.stats(),
                    }
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }

        let mut outcomes = Vec::with_capacity(p);
        let mut panics = Vec::new();
        for h in handles {
            match h.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(payload) => panics.push(payload),
            }
        }
        if !panics.is_empty() {
            // A rank that dies makes its peers time out on their next
            // blocking receive; those timeout panics are symptoms. Prefer
            // propagating the root cause.
            let is_timeout = |p: &Box<dyn std::any::Any + Send>| {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                msg.contains("timed out") || msg.contains("peer has shut down")
            };
            let idx = panics.iter().position(|p| !is_timeout(p)).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(idx));
        }
        outcomes
    })
}

/// Build the channel mesh of a `cfg.ranks`-endpoint cluster and return
/// every rank's communicator **without spawning threads**.
///
/// [`run_cluster`] owns the whole SPMD lifecycle: it spawns one closure
/// per rank and tears everything down when the closures return. Callers
/// that manage their own threads — e.g. a sharded index that builds
/// collectively and keeps only the trees — need the opposite: endpoints
/// they can move into those threads. `Comm` is `Send`, so each element
/// of the returned vector (index = world rank) can migrate into its
/// thread; collectives work exactly as under `run_cluster`, including the
/// `recv_timeout` deadlock detection from `cfg`.
///
/// Dropping an endpoint closes its mailbox; peers blocked on it surface
/// the usual timeout diagnostics rather than hanging.
///
/// # Panics
/// If `cfg.ranks == 0`.
pub fn make_endpoints(cfg: &ClusterConfig) -> Vec<Comm> {
    assert!(cfg.ranks > 0, "cluster must have at least one rank");
    let p = cfg.ranks;
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Comm::new(rank, p, senders.clone(), rx, cfg.cost, cfg.recv_timeout))
        .collect()
}

/// Simulated makespan of a run: the maximum final virtual time over ranks.
pub fn makespan<R>(outcomes: &[RankOutcome<R>]) -> f64 {
    outcomes.iter().map(|o| o.clock.now).fold(0.0, f64::max)
}

/// Aggregate communication counters over all ranks.
pub fn total_stats<R>(outcomes: &[RankOutcome<R>]) -> CommStats {
    let mut acc = CommStats::new();
    for o in outcomes {
        acc.merge(&o.stats);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_in_rank_order() {
        let out = run_cluster(&ClusterConfig::new(5), |c| c.rank() * 2);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.rank, i);
            assert_eq!(o.result, i * 2);
        }
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = run_cluster(&ClusterConfig::new(1), |c| {
            assert_eq!(c.size(), 1);
            "ok"
        });
        assert_eq!(out[0].result, "ok");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = run_cluster(&ClusterConfig::new(0), |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        let cfg = ClusterConfig::new(4).with_timeout(Duration::from_millis(500));
        let _ = run_cluster(&cfg, |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            // Other ranks block on a message that never comes; the timeout
            // tears them down so the panic can propagate.
            let _ = c.recv_vec::<u8>(2, 1);
        });
    }

    #[test]
    fn makespan_is_max_over_ranks() {
        let out = run_cluster(&ClusterConfig::new(3), |c| {
            c.work_serial(c.rank() as f64);
        });
        assert!((makespan(&out) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_stats_aggregates() {
        let out = run_cluster(&ClusterConfig::new(2), |c| {
            if c.rank() == 0 {
                c.send_vec(1, 1, vec![0u8; 10]);
            } else {
                let _ = c.recv_vec::<u8>(0, 1);
            }
        });
        let t = total_stats(&out);
        assert_eq!(t.sent_msgs, 1);
        assert_eq!(t.recv_msgs, 1);
        assert_eq!(t.sent_bytes, 10);
    }

    #[test]
    fn endpoints_collect_like_a_cluster() {
        // Endpoints moved into caller-managed threads behave exactly like
        // run_cluster ranks: collectives complete and agree.
        let endpoints = make_endpoints(&ClusterConfig::new(4));
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let mine = comm.rank() as u64 + 1;
                    let sum = comm
                        .world()
                        .allreduce_u64(mine, crate::collectives::ReduceOp::Sum);
                    (comm.rank(), sum)
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let (rank, sum) = h.join().expect("endpoint thread");
            assert_eq!(rank, i);
            assert_eq!(sum, 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_endpoints_rejected() {
        let _ = make_endpoints(&ClusterConfig::new(0));
    }

    #[test]
    fn many_ranks_smoke() {
        // More ranks than host cores: correctness must be unaffected.
        let out = run_cluster(&ClusterConfig::new(32), |c| {
            c.world()
                .allreduce_u64(1, crate::collectives::ReduceOp::Sum)
        });
        assert!(out.iter().all(|o| o.result == 32));
    }
}
