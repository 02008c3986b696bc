//! The per-rank communicator handle.
//!
//! A [`Comm`] is handed to each rank closure by [`crate::run_cluster`]. It
//! provides point-to-point messaging, access to collectives (through
//! [`Comm::world`] / [`Comm::group`]), and — because this is a simulator —
//! the *work accounting* interface ([`Comm::work_parallel`],
//! [`Comm::work_serial`]) through which the algorithm charges counted
//! compute to its virtual clock.

use std::collections::HashMap;
use std::time::Duration;

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

use crate::clock::{ClockSummary, VirtualClock};
use crate::cost::CostModel;
use crate::error::CommError;
use crate::group::Group;
use crate::mailbox::{Envelope, PendingStore};
use crate::stats::CommStats;

/// Message tag. The top bit is reserved for collective traffic; user tags
/// must stay below [`Comm::MAX_USER_TAG`].
pub type Tag = u64;

/// The communicator handle owned by one rank for the duration of a cluster
/// run. Not `Clone`: exactly one per rank, mirroring rank-private MPI state.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    pending: PendingStore,
    pub(crate) clock: VirtualClock,
    pub(crate) cost: CostModel,
    pub(crate) stats: CommStats,
    pub(crate) coll_seq: HashMap<(usize, usize), u64>,
    pub(crate) coll_seq_base: u64,
    timeout: Duration,
}

impl Comm {
    /// Largest tag available to user point-to-point traffic.
    pub const MAX_USER_TAG: Tag = (1 << 62) - 1;

    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        cost: CostModel,
        timeout: Duration,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            inbox,
            pending: PendingStore::new(),
            clock: VirtualClock::new(),
            cost,
            stats: CommStats::new(),
            coll_seq: HashMap::new(),
            coll_seq_base: 0,
            timeout,
        }
    }

    /// This rank's index in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model the cluster was configured with.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Snapshot of this rank's virtual clock.
    pub fn clock(&self) -> ClockSummary {
        self.clock.summary()
    }

    /// Snapshot of this rank's communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// The bound every blocking receive on this rank waits (see
    /// [`crate::ClusterConfig::recv_timeout`]).
    #[inline]
    pub fn recv_timeout(&self) -> Duration {
        self.timeout
    }

    /// Number of messages parked in this rank's pending store (arrived but
    /// not yet matched by a receive). Useful for asserting that an aborted
    /// exchange did not leak mailbox state.
    pub fn pending_messages(&mut self) -> usize {
        self.drain_inbox();
        self.pending.len()
    }

    /// Abandon all in-flight exchange state after a failed collective.
    ///
    /// An aborted collective leaves ranks with diverged collective
    /// sequence numbers and possibly-parked stale envelopes; reusing the
    /// communicator would cross-match old traffic with new. `quiesce`
    /// drains and discards everything parked or queued, then jumps every
    /// group's collective sequence into a fresh tag region derived from
    /// `epoch` — call it **on every rank with the same epoch** (e.g. a
    /// count of recovery rounds) before issuing new collectives.
    pub fn quiesce(&mut self, epoch: u64) {
        self.drain_inbox();
        self.pending.clear();
        self.coll_seq.clear();
        // 27-bit seq space; reserve a 2^20-wide region per epoch (epochs
        // cycle mod 128, far beyond any realistic recovery count).
        self.coll_seq_base = (epoch & 0x7f) << 20;
    }

    // ------------------------------------------------------------------
    // Work accounting
    // ------------------------------------------------------------------

    /// Charge a parallel compute section: `cpu_seconds` of single-thread
    /// work plus `mem_bytes` streamed from memory, executed by the modeled
    /// per-rank thread pool (see [`crate::ThreadModel`]).
    #[inline]
    pub fn work_parallel(&mut self, cpu_seconds: f64, mem_bytes: f64) {
        let dt = self.cost.thread.parallel_time(cpu_seconds, mem_bytes);
        self.clock.advance_compute(dt);
    }

    /// Charge a serial compute section (runs on one thread regardless of
    /// the modeled pool).
    #[inline]
    pub fn work_serial(&mut self, cpu_seconds: f64) {
        self.clock.advance_compute(cpu_seconds);
    }

    /// Charge a pre-computed wall-time duration (used when the caller has
    /// already applied its own schedule, e.g. LPT over subtree builds).
    #[inline]
    pub fn advance_time(&mut self, seconds: f64) {
        self.clock.advance_compute(seconds);
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a vector payload to `dst` with `tag`. Never blocks (unbounded
    /// mailboxes). Panics if `dst` is out of range, the tag intrudes on the
    /// collective tag space, or the destination rank has died.
    pub fn send_vec<T: Send + 'static>(&mut self, dst: usize, tag: Tag, data: Vec<T>) {
        assert!(
            tag <= Self::MAX_USER_TAG,
            "tag {tag:#x} is reserved for collectives"
        );
        let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
        self.post(dst, tag, bytes, Box::new(data));
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes;
        self.clock.advance_comm(self.cost.net.send_overhead);
    }

    /// Blocking receive of a vector payload from `src` with `tag`.
    /// Synchronizes the virtual clock to the modeled arrival time.
    ///
    /// # Panics
    /// On payload type mismatch (SPMD programming error) or timeout
    /// (deadlock) — mirroring an MPI abort.
    pub fn recv_vec<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        assert!(
            tag <= Self::MAX_USER_TAG,
            "tag {tag:#x} is reserved for collectives"
        );
        let env = self.recv_env(src, tag);
        self.finish_p2p_recv(env)
    }

    /// Non-blocking receive from `src`: returns `None` if no matching
    /// message has arrived yet. Does not advance the clock on `None`
    /// (polling is free in virtual time; real pipelines poll too).
    pub fn try_recv_vec<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> Option<Vec<T>> {
        self.drain_inbox();
        let env = self.pending.pop(src, tag)?;
        Some(self.finish_p2p_recv(env))
    }

    /// Non-blocking receive of a matching message from *any* source.
    /// Returns `(src, payload)`.
    pub fn try_recv_any<T: Send + 'static>(&mut self, tag: Tag) -> Option<(usize, Vec<T>)> {
        self.drain_inbox();
        let env = self.pending.pop_any(tag)?;
        let src = env.src;
        Some((src, self.finish_p2p_recv(env)))
    }

    /// Sub-communicator over world ranks `lo..hi` (this rank must belong).
    /// Collectives run relative to the group.
    pub fn group(&mut self, lo: usize, hi: usize) -> Group<'_> {
        Group::new(self, lo, hi)
    }

    /// The whole-cluster group.
    pub fn world(&mut self) -> Group<'_> {
        let size = self.size;
        Group::new(self, 0, size)
    }

    // ------------------------------------------------------------------
    // Convenience world-level collectives (thin wrappers)
    // ------------------------------------------------------------------

    /// World barrier.
    pub fn barrier(&mut self) {
        self.world().barrier();
    }

    /// World all-reduce sum of one `u64`.
    pub fn allreduce_sum(&mut self, v: u64) -> u64 {
        self.world()
            .allreduce_u64(v, crate::collectives::ReduceOp::Sum)
    }

    // ------------------------------------------------------------------
    // Internals shared with `collectives`
    // ------------------------------------------------------------------

    pub(crate) fn post(
        &mut self,
        dst: usize,
        tag: Tag,
        bytes: u64,
        payload: Box<dyn std::any::Any + Send>,
    ) {
        assert!(
            dst < self.size,
            "destination rank {dst} out of range (size {})",
            self.size
        );
        let env = Envelope {
            src: self.rank,
            tag,
            vtime: self.clock.now(),
            bytes,
            payload,
        };
        if self.senders[dst].send(env).is_err() {
            panic!(
                "rank {}: send to rank {dst} failed — peer has shut down",
                self.rank
            );
        }
    }

    /// Blocking envelope receive with no clock side effects (collectives
    /// apply their own timing model).
    ///
    /// # Panics
    /// On timeout or peer death — the infallible collectives mirror an MPI
    /// abort. The fallible paths use [`Comm::try_recv_env`] instead.
    pub(crate) fn recv_env(&mut self, src: usize, tag: Tag) -> Envelope {
        match self.try_recv_env(src, tag) {
            Ok(env) => env,
            Err(CommError::Timeout { .. }) => panic!(
                "rank {}: receive from rank {src} (tag {tag:#x}) timed out after {:?} — \
                 likely deadlock ({} messages parked)",
                self.rank,
                self.timeout,
                self.pending.len(),
            ),
            Err(e) => panic!("{e}"),
        }
    }

    /// Bounded receive: wait up to the configured timeout for a matching
    /// envelope, parking non-matching arrivals. No clock side effects, no
    /// panic — timeout and peer death come back typed.
    pub(crate) fn try_recv_env(&mut self, src: usize, tag: Tag) -> crate::Result<Envelope> {
        if let Some(env) = self.pending.pop(src, tag) {
            return Ok(env);
        }
        loop {
            match self.inbox.recv_timeout(self.timeout) {
                Ok(env) => {
                    if env.src == src && env.tag == tag {
                        return Ok(env);
                    }
                    self.pending.push(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerFailure(format!(
                        "rank {}: all peers disconnected while waiting for rank {src}",
                        self.rank
                    )))
                }
            }
        }
    }

    fn drain_inbox(&mut self) {
        while let Ok(env) = self.inbox.try_recv() {
            self.pending.push(env);
        }
    }

    fn finish_p2p_recv<T: Send + 'static>(&mut self, env: Envelope) -> Vec<T> {
        let arrival = env.vtime + self.cost.net.p2p(env.bytes);
        self.clock.sync_to(arrival);
        self.stats.recv_msgs += 1;
        self.stats.recv_bytes += env.bytes;
        let src = env.src;
        let tag = env.tag;
        match env.payload.downcast::<Vec<T>>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "rank {}: message from rank {src} (tag {tag:#x}) had unexpected payload type \
                 (expected Vec<{}>)",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_cluster, ClusterConfig};

    #[test]
    fn ring_send_recv() {
        let cfg = ClusterConfig::new(4);
        let out = run_cluster(&cfg, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send_vec(next, 1, vec![c.rank() as u32]);
            let got = c.recv_vec::<u32>(prev, 1);
            got[0]
        });
        for o in &out {
            assert_eq!(o.result as usize, (o.rank + out.len() - 1) % out.len());
        }
    }

    #[test]
    fn recv_synchronizes_virtual_clock() {
        let cfg = ClusterConfig::new(2);
        let out = run_cluster(&cfg, |c| {
            if c.rank() == 0 {
                c.work_serial(1.0); // rank 0 computes for 1 virtual second
                c.send_vec(1, 3, vec![0u8; 100]);
            } else {
                let _ = c.recv_vec::<u8>(0, 3);
            }
            c.now()
        });
        // Rank 1 must have been dragged past rank 0's send time.
        assert!(out[1].result > 1.0, "rank1 time {}", out[1].result);
        assert!(out[1].clock.wait > 0.9);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let cfg = ClusterConfig::new(2);
        let out = run_cluster(&cfg, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 10, vec![1u32]);
                c.send_vec(1, 20, vec![2u32]);
                0
            } else {
                // receive in the opposite order of sending
                let b = c.recv_vec::<u32>(0, 20);
                let a = c.recv_vec::<u32>(0, 10);
                (a[0] * 10 + b[0]) as i32
            }
        });
        assert_eq!(out[1].result, 12);
    }

    #[test]
    fn try_recv_returns_none_before_arrival() {
        let cfg = ClusterConfig::new(2);
        let out = run_cluster(&cfg, |c| {
            if c.rank() == 0 {
                // Don't send until rank 1 has polled (rendezvous via tag 2).
                let _ = c.recv_vec::<u8>(1, 2);
                c.send_vec(1, 1, vec![42u8]);
                true
            } else {
                let early = c.try_recv_vec::<u8>(0, 1).is_none();
                c.send_vec(0, 2, Vec::<u8>::new());
                // spin until the message shows up
                let mut got = None;
                while got.is_none() {
                    got = c.try_recv_vec::<u8>(0, 1);
                    std::thread::yield_now();
                }
                early && got.unwrap() == vec![42]
            }
        });
        assert!(out[0].result && out[1].result);
    }

    #[test]
    fn try_recv_any_reports_source() {
        let cfg = ClusterConfig::new(3);
        let out = run_cluster(&cfg, |c| {
            if c.rank() == 0 {
                let mut seen = Vec::new();
                while seen.len() < 2 {
                    if let Some((src, v)) = c.try_recv_any::<u32>(5) {
                        seen.push((src, v[0]));
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen.sort();
                assert_eq!(seen, vec![(1, 100), (2, 200)]);
                true
            } else {
                c.send_vec(0, 5, vec![c.rank() as u32 * 100]);
                true
            }
        });
        assert!(out.iter().all(|o| o.result));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let cfg = ClusterConfig::new(2);
        let out = run_cluster(&cfg, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 1, vec![0u64; 10]); // 80 bytes
            } else {
                let _ = c.recv_vec::<u64>(0, 1);
            }
            c.stats()
        });
        assert_eq!(out[0].stats.sent_msgs, 1);
        assert_eq!(out[0].stats.sent_bytes, 80);
        assert_eq!(out[1].stats.recv_msgs, 1);
        assert_eq!(out[1].stats.recv_bytes, 80);
    }

    #[test]
    #[should_panic(expected = "reserved for collectives")]
    fn reserved_tags_rejected() {
        let cfg = ClusterConfig::new(1);
        run_cluster(&cfg, |c| {
            c.send_vec(0, u64::MAX, vec![0u8]);
        });
    }

    #[test]
    fn work_accounting_feeds_clock() {
        let cfg = ClusterConfig::new(1);
        let out = run_cluster(&cfg, |c| {
            c.work_serial(2.0);
            c.work_parallel(24.0, 0.0); // ≈1s at 24-way Amdahl on Edison profile
            c.now()
        });
        let t = out[0].result;
        assert!(t > 3.0 && t < 3.5, "virtual time {t}");
        assert!(out[0].clock.compute == t);
    }
}
