//! Per-rank communication accounting.
//!
//! The paper's argument for the global-kd-tree strategy is a *traffic*
//! argument (a per-node-local-trees design transfers `P·k` candidates per
//! query and throws away all but `k`). These counters make that argument
//! measurable in the reproduction: every send, receive and collective is
//! tallied per rank and aggregated by the bench harness.

/// Message/byte counters for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub sent_msgs: u64,
    /// Point-to-point payload bytes sent.
    pub sent_bytes: u64,
    /// Point-to-point messages received.
    pub recv_msgs: u64,
    /// Point-to-point payload bytes received.
    pub recv_bytes: u64,
    /// Collective operations entered (barrier/bcast/allgather/...).
    pub collectives: u64,
    /// Payload bytes this rank contributed to collectives.
    pub collective_bytes_out: u64,
    /// Payload bytes this rank received from collectives.
    pub collective_bytes_in: u64,
}

impl CommStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes that crossed this rank's boundary in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes + self.recv_bytes + self.collective_bytes_out + self.collective_bytes_in
    }

    /// Total message-like events (p2p messages + collectives).
    pub fn total_events(&self) -> u64 {
        self.sent_msgs + self.recv_msgs + self.collectives
    }

    /// Element-wise accumulate (used to aggregate over ranks or phases).
    pub fn merge(&mut self, other: &CommStats) {
        self.sent_msgs += other.sent_msgs;
        self.sent_bytes += other.sent_bytes;
        self.recv_msgs += other.recv_msgs;
        self.recv_bytes += other.recv_bytes;
        self.collectives += other.collectives;
        self.collective_bytes_out += other.collective_bytes_out;
        self.collective_bytes_in += other.collective_bytes_in;
    }

    /// Difference since an earlier snapshot (for per-phase accounting).
    /// Counters are monotonic, so all fields of `earlier` must be ≤ `self`.
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            sent_msgs: self.sent_msgs - earlier.sent_msgs,
            sent_bytes: self.sent_bytes - earlier.sent_bytes,
            recv_msgs: self.recv_msgs - earlier.recv_msgs,
            recv_bytes: self.recv_bytes - earlier.recv_bytes,
            collectives: self.collectives - earlier.collectives,
            collective_bytes_out: self.collective_bytes_out - earlier.collective_bytes_out,
            collective_bytes_in: self.collective_bytes_in - earlier.collective_bytes_in,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommStats {
        CommStats {
            sent_msgs: 3,
            sent_bytes: 300,
            recv_msgs: 2,
            recv_bytes: 200,
            collectives: 5,
            collective_bytes_out: 50,
            collective_bytes_in: 70,
        }
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.total_bytes(), 300 + 200 + 50 + 70);
        assert_eq!(s.total_events(), 3 + 2 + 5);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.sent_msgs, 6);
        assert_eq!(a.collective_bytes_in, 140);
        assert_eq!(a.total_bytes(), 2 * sample().total_bytes());
    }

    #[test]
    fn since_is_inverse_of_merge() {
        let base = sample();
        let mut later = base;
        later.merge(&sample());
        assert_eq!(later.since(&base), base);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(CommStats::new().total_bytes(), 0);
        assert_eq!(CommStats::new().total_events(), 0);
    }
}
