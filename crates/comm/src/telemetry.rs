//! Bridge from per-rank [`CommStats`] into the shared `panda_obs`
//! metrics registry.
//!
//! Each rank's [`Comm`](crate::Comm) endpoint accumulates plain-field
//! counters inline (no atomics on the message hot path). A [`CommMeter`]
//! owns a private baseline of the last published [`CommStats`] and a set
//! of shared `comm.*` counters; calling [`CommMeter::publish`] adds the
//! delta since the previous publish, so many ranks (e.g. every shard
//! worker) can feed the same registry counters without double counting.

use crate::stats::CommStats;
use panda_obs::{Counter, Registry};

/// Names of the registry counters a [`CommMeter`] publishes into.
pub const COMM_COUNTER_NAMES: [&str; 7] = [
    "comm.sent_msgs",
    "comm.sent_bytes",
    "comm.recv_msgs",
    "comm.recv_bytes",
    "comm.collectives",
    "comm.collective_bytes_out",
    "comm.collective_bytes_in",
];

/// Delta-publishes one rank's [`CommStats`] into shared `comm.*`
/// registry counters.
#[derive(Clone, Debug)]
pub struct CommMeter {
    sent_msgs: Counter,
    sent_bytes: Counter,
    recv_msgs: Counter,
    recv_bytes: Counter,
    collectives: Counter,
    collective_bytes_out: Counter,
    collective_bytes_in: Counter,
    last: CommStats,
}

impl CommMeter {
    /// Meter publishing into `reg`'s `comm.*` counters (get-or-register,
    /// so meters on different ranks share the same cells).
    #[must_use]
    pub fn new(reg: &Registry) -> Self {
        CommMeter {
            sent_msgs: reg.counter("comm.sent_msgs"),
            sent_bytes: reg.counter("comm.sent_bytes"),
            recv_msgs: reg.counter("comm.recv_msgs"),
            recv_bytes: reg.counter("comm.recv_bytes"),
            collectives: reg.counter("comm.collectives"),
            collective_bytes_out: reg.counter("comm.collective_bytes_out"),
            collective_bytes_in: reg.counter("comm.collective_bytes_in"),
            last: CommStats::default(),
        }
    }

    /// Publish the growth of `now` since the last publish.
    ///
    /// `now` must come from the same monotonically growing endpoint each
    /// time (a fresh endpoint means a fresh meter).
    pub fn publish(&mut self, now: &CommStats) {
        let d = now.since(&self.last);
        self.last = *now;
        if d.sent_msgs > 0 {
            self.sent_msgs.add(d.sent_msgs);
        }
        if d.sent_bytes > 0 {
            self.sent_bytes.add(d.sent_bytes);
        }
        if d.recv_msgs > 0 {
            self.recv_msgs.add(d.recv_msgs);
        }
        if d.recv_bytes > 0 {
            self.recv_bytes.add(d.recv_bytes);
        }
        if d.collectives > 0 {
            self.collectives.add(d.collectives);
        }
        if d.collective_bytes_out > 0 {
            self.collective_bytes_out.add(d.collective_bytes_out);
        }
        if d.collective_bytes_in > 0 {
            self.collective_bytes_in.add(d.collective_bytes_in);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(sent_msgs: u64, sent_bytes: u64) -> CommStats {
        CommStats {
            sent_msgs,
            sent_bytes,
            ..CommStats::default()
        }
    }

    #[test]
    fn publishes_deltas_not_totals() {
        let reg = Registry::new();
        let mut m = CommMeter::new(&reg);
        m.publish(&stats(3, 100));
        m.publish(&stats(5, 160));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("comm.sent_msgs"), Some(5));
        assert_eq!(snap.counter("comm.sent_bytes"), Some(160));
    }

    #[test]
    fn many_meters_share_counters() {
        let reg = Registry::new();
        let mut a = CommMeter::new(&reg);
        let mut b = CommMeter::new(&reg);
        a.publish(&stats(2, 20));
        b.publish(&stats(7, 70));
        a.publish(&stats(3, 30));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("comm.sent_msgs"), Some(10));
        assert_eq!(snap.counter("comm.sent_bytes"), Some(100));
    }
}
