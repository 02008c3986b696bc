//! MPI-style collectives over a [`Group`].
//!
//! Transport moves real values through the in-process mailboxes (star
//! pattern through the involved ranks). *Timing* is charged from a model of
//! an efficient implementation — log-tree latency plus bandwidth terms —
//! and *stats* count the logical payload each rank contributed/received,
//! so neither depends on the internal transport pattern.
//!
//! All collectives must be entered by every rank of the group in the same
//! order (SPMD discipline); the tag encoding in [`crate::group`] turns
//! violations into loud mismatches rather than silent corruption.

use crate::cost::log2_ceil;
use crate::group::{CollKind, Group};

/// Reduction operators for the scalar/vector all-reduce collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
}

impl ReduceOp {
    fn fold_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Group<'_> {
    /// Synchronize all ranks of the group. On exit every rank's virtual
    /// clock is at `max(entry times) + α·⌈log₂ g⌉`.
    pub fn barrier(&mut self) {
        let g = self.size();
        if g == 1 {
            self.comm().stats.collectives += 1;
            return;
        }
        let tag = self.coll_tag(CollKind::Barrier);
        let me = self.rank();
        for j in 0..g {
            if j != me {
                let dst = self.world_rank(j);
                self.comm.post(dst, tag, 0, Box::new(Vec::<u8>::new()));
            }
        }
        let mut max_vt = self.comm.now();
        for j in 0..g {
            if j != me {
                let src = self.world_rank(j);
                let env = self.comm.recv_env(src, tag);
                max_vt = max_vt.max(env.vtime);
            }
        }
        let alpha = self.comm.cost.net.alpha;
        self.comm.clock.sync_to(max_vt);
        self.comm.clock.advance_comm(alpha * log2_ceil(g) as f64);
        self.comm.stats.collectives += 1;
    }

    /// Broadcast a vector from group-relative `root` to all ranks.
    /// `data` must be `Some` exactly on the root.
    pub fn broadcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        assert!(root < self.size(), "broadcast root {root} out of range");
        let g = self.size();
        let me = self.rank();
        self.comm.stats.collectives += 1;
        if g == 1 {
            return data.expect("broadcast root must supply data");
        }
        let tag = self.coll_tag(CollKind::Broadcast);
        if me == root {
            let data = data.expect("broadcast root must supply data");
            let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
            for j in 0..g {
                if j != me {
                    let dst = self.world_rank(j);
                    self.comm.post(dst, tag, bytes, Box::new(data.clone()));
                }
            }
            self.comm.stats.collective_bytes_out += bytes;
            let cost = self.comm.cost.net.collective(g, bytes);
            self.comm.clock.advance_comm(cost);
            data
        } else {
            assert!(data.is_none(), "non-root rank passed data to broadcast");
            let src = self.world_rank(root);
            let env = self.comm.recv_env(src, tag);
            let cost = self.comm.cost.net.collective(g, env.bytes);
            let arrival = env.vtime + cost;
            self.comm.clock.sync_to(arrival);
            self.comm.stats.collective_bytes_in += env.bytes;
            *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                panic!(
                    "broadcast payload type mismatch at rank {}",
                    self.comm.rank()
                )
            })
        }
    }

    /// Gather every rank's vector at group-relative `root`. Returns
    /// `Some(vec_per_rank)` on the root, `None` elsewhere.
    pub fn gather<T: Send + 'static>(&mut self, root: usize, mine: Vec<T>) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size(), "gather root {root} out of range");
        let g = self.size();
        let me = self.rank();
        self.comm.stats.collectives += 1;
        let bytes = (std::mem::size_of::<T>() * mine.len()) as u64;
        if g == 1 {
            return Some(vec![mine]);
        }
        let tag = self.coll_tag(CollKind::Gather);
        if me == root {
            let mut out: Vec<Option<Vec<T>>> = (0..g).map(|_| None).collect();
            out[me] = Some(mine);
            let mut max_vt = self.comm.now();
            let mut total_in = 0;
            #[allow(clippy::needless_range_loop)] // j is a group rank, not just an index
            for j in 0..g {
                if j != me {
                    let src = self.world_rank(j);
                    let env = self.comm.recv_env(src, tag);
                    max_vt = max_vt.max(env.vtime);
                    total_in += env.bytes;
                    out[j] = Some(*env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                        panic!("gather payload type mismatch at rank {}", self.comm.rank())
                    }));
                }
            }
            let cost = self.comm.cost.net.collective(g, total_in);
            self.comm.clock.sync_to(max_vt);
            self.comm.clock.advance_comm(cost);
            self.comm.stats.collective_bytes_in += total_in;
            Some(out.into_iter().map(|o| o.expect("gather slot")).collect())
        } else {
            let dst = self.world_rank(root);
            self.comm.post(dst, tag, bytes, Box::new(mine));
            self.comm.stats.collective_bytes_out += bytes;
            let overhead = self.comm.cost.net.send_overhead;
            self.comm.clock.advance_comm(overhead);
            None
        }
    }

    /// All ranks receive every rank's vector (indexed by group-relative
    /// rank). Naturally supports variable lengths (allgatherv).
    pub fn allgather<T: Clone + Send + 'static>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        let g = self.size();
        let me = self.rank();
        self.comm.stats.collectives += 1;
        if g == 1 {
            return vec![mine];
        }
        let tag = self.coll_tag(CollKind::AllGather);
        let bytes = (std::mem::size_of::<T>() * mine.len()) as u64;
        for j in 0..g {
            if j != me {
                let dst = self.world_rank(j);
                self.comm.post(dst, tag, bytes, Box::new(mine.clone()));
            }
        }
        self.comm.stats.collective_bytes_out += bytes;
        let mut out: Vec<Option<Vec<T>>> = (0..g).map(|_| None).collect();
        out[me] = Some(mine);
        let mut max_vt = self.comm.now();
        let mut total_in = 0;
        #[allow(clippy::needless_range_loop)] // j is a group rank, not just an index
        for j in 0..g {
            if j != me {
                let src = self.world_rank(j);
                let env = self.comm.recv_env(src, tag);
                max_vt = max_vt.max(env.vtime);
                total_in += env.bytes;
                out[j] = Some(*env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                    panic!(
                        "allgather payload type mismatch at rank {}",
                        self.comm.rank()
                    )
                }));
            }
        }
        let cost = self.comm.cost.net.collective(g, total_in);
        self.comm.clock.sync_to(max_vt);
        self.comm.clock.advance_comm(cost);
        self.comm.stats.collective_bytes_in += total_in;
        out.into_iter()
            .map(|o| o.expect("allgather slot"))
            .collect()
    }

    /// Personalized all-to-all with per-destination vectors.
    /// `sends[j]` goes to group-relative rank `j`; returns `recvs[i]` from
    /// group-relative rank `i`. This is the workhorse of both point
    /// redistribution (construction) and query routing.
    ///
    /// # Panics
    /// On timeout (mirroring an MPI abort). Recoverable callers use
    /// [`Group::try_alltoallv`].
    pub fn alltoallv<T: Send + 'static>(&mut self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        // The panic message carries the typed error's Display, which
        // contains "timed out" — run_cluster relies on that marker to
        // separate symptom panics from the root cause.
        self.try_alltoallv(sends).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Group::alltoallv`]: each receive waits the one bound,
    /// [`crate::ClusterConfig::recv_timeout`]. A peer stalled past it
    /// surfaces as [`crate::CommError::Timeout`] instead of aborting the
    /// run; a straggler within it is simply waited for.
    ///
    /// On error the exchange is torn: sends were already posted and some
    /// peer payloads may have been consumed, so the collective sequence
    /// numbers across ranks can no longer be trusted. Call
    /// [`crate::Comm::quiesce`] on every rank (same epoch) before reusing
    /// the communicator for further collectives.
    pub fn try_alltoallv<T: Send + 'static>(
        &mut self,
        mut sends: Vec<Vec<T>>,
    ) -> crate::Result<Vec<Vec<T>>> {
        let g = self.size();
        assert_eq!(
            sends.len(),
            g,
            "alltoallv needs one send vector per group rank"
        );
        let me = self.rank();
        self.comm.stats.collectives += 1;
        if g == 1 {
            return Ok(sends);
        }
        let tag = self.coll_tag(CollKind::AllToAllV);
        let elem = std::mem::size_of::<T>();
        let mut out_bytes: u64 = 0;
        // Keep own slice; ship the rest (reverse order so indices stay valid
        // under swap_remove-free draining; we just replace with empty).
        let mut own: Option<Vec<T>> = None;
        for (j, v) in sends.drain(..).enumerate() {
            if j == me {
                own = Some(v);
            } else {
                let bytes = (elem * v.len()) as u64;
                out_bytes += bytes;
                let dst = self.world_rank(j);
                self.comm.post(dst, tag, bytes, Box::new(v));
            }
        }
        self.comm.stats.collective_bytes_out += out_bytes;
        let mut out: Vec<Option<Vec<T>>> = (0..g).map(|_| None).collect();
        out[me] = own;
        let mut max_vt = self.comm.now();
        let mut in_bytes: u64 = 0;
        #[allow(clippy::needless_range_loop)] // j is a group rank, not just an index
        for j in 0..g {
            if j != me {
                let src = self.world_rank(j);
                let env = self.comm.try_recv_env(src, tag)?;
                max_vt = max_vt.max(env.vtime);
                in_bytes += env.bytes;
                out[j] = Some(*env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                    panic!(
                        "alltoallv payload type mismatch at rank {}",
                        self.comm.rank()
                    )
                }));
            }
        }
        // Cost: synchronizing exchange; the bottleneck rank pays for the
        // larger of its in/out volumes.
        let net = self.comm.cost.net;
        let cost = net.alpha * log2_ceil(g) as f64 + net.beta * in_bytes.max(out_bytes) as f64;
        self.comm.clock.sync_to(max_vt);
        self.comm.clock.advance_comm(cost);
        self.comm.stats.collective_bytes_in += in_bytes;
        Ok(out
            .into_iter()
            .map(|o| o.expect("alltoallv slot"))
            .collect())
    }

    /// Fallible [`Group::allgather`]: a stalled peer surfaces as
    /// [`crate::CommError::Timeout`] (after one `recv_timeout`) instead of
    /// aborting the run. Same torn-exchange caveat as
    /// [`Group::try_alltoallv`]: on error, quiesce every rank before
    /// reusing the communicator for collectives.
    pub fn try_allgather<T: Clone + Send + 'static>(
        &mut self,
        mine: Vec<T>,
    ) -> crate::Result<Vec<Vec<T>>> {
        let g = self.size();
        let me = self.rank();
        self.comm.stats.collectives += 1;
        if g == 1 {
            return Ok(vec![mine]);
        }
        let tag = self.coll_tag(CollKind::AllGather);
        let bytes = (std::mem::size_of::<T>() * mine.len()) as u64;
        for j in 0..g {
            if j != me {
                let dst = self.world_rank(j);
                self.comm.post(dst, tag, bytes, Box::new(mine.clone()));
            }
        }
        self.comm.stats.collective_bytes_out += bytes;
        let mut out: Vec<Option<Vec<T>>> = (0..g).map(|_| None).collect();
        out[me] = Some(mine);
        let mut max_vt = self.comm.now();
        let mut total_in = 0;
        #[allow(clippy::needless_range_loop)] // j is a group rank, not just an index
        for j in 0..g {
            if j != me {
                let src = self.world_rank(j);
                let env = self.comm.try_recv_env(src, tag)?;
                max_vt = max_vt.max(env.vtime);
                total_in += env.bytes;
                out[j] = Some(*env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                    panic!(
                        "allgather payload type mismatch at rank {}",
                        self.comm.rank()
                    )
                }));
            }
        }
        let cost = self.comm.cost.net.collective(g, total_in);
        self.comm.clock.sync_to(max_vt);
        self.comm.clock.advance_comm(cost);
        self.comm.stats.collective_bytes_in += total_in;
        Ok(out
            .into_iter()
            .map(|o| o.expect("allgather slot"))
            .collect())
    }

    /// All-reduce one `u64`.
    pub fn allreduce_u64(&mut self, v: u64, op: ReduceOp) -> u64 {
        let all = self.allgather(vec![v]);
        all.iter()
            .map(|x| x[0])
            .reduce(|a, b| op.fold_u64(a, b))
            .expect("non-empty group")
    }

    /// Fallible [`Group::allreduce_u64`] built on [`Group::try_allgather`];
    /// timing and stats are identical to the infallible version.
    pub fn try_allreduce_u64(&mut self, v: u64, op: ReduceOp) -> crate::Result<u64> {
        let all = self.try_allgather(vec![v])?;
        Ok(all
            .iter()
            .map(|x| x[0])
            .reduce(|a, b| op.fold_u64(a, b))
            .expect("non-empty group"))
    }

    /// All-reduce one `f64`.
    pub fn allreduce_f64(&mut self, v: f64, op: ReduceOp) -> f64 {
        let all = self.allgather(vec![v]);
        all.iter()
            .map(|x| x[0])
            .reduce(|a, b| op.fold_f64(a, b))
            .expect("non-empty group")
    }

    /// Element-wise all-reduce of equal-length `u64` vectors (used for the
    /// global histogram of Section III-A1). Folds in ascending rank order,
    /// so the result is identical on every rank.
    ///
    /// Modeled as an efficient reduce+broadcast: `2·(α·⌈log₂ g⌉ + β·bytes)`
    /// per rank — the histogram vector grows with the group, so charging
    /// allgather volume here would (wrongly) penalize large groups
    /// quadratically.
    pub fn allreduce_vec_u64(&mut self, v: Vec<u64>, op: ReduceOp) -> Vec<u64> {
        self.allreduce_vec_impl(v, |acc, c| {
            assert_eq!(
                acc.len(),
                c.len(),
                "allreduce_vec length mismatch across ranks"
            );
            for (a, &x) in acc.iter_mut().zip(c) {
                *a = op.fold_u64(*a, x);
            }
        })
    }

    /// Element-wise all-reduce of equal-length `f64` vectors (variance /
    /// extent accumulation during split-dimension selection). Same cost
    /// model as [`Self::allreduce_vec_u64`].
    pub fn allreduce_vec_f64(&mut self, v: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        self.allreduce_vec_impl(v, |acc, c| {
            assert_eq!(
                acc.len(),
                c.len(),
                "allreduce_vec length mismatch across ranks"
            );
            for (a, &x) in acc.iter_mut().zip(c) {
                *a = op.fold_f64(*a, x);
            }
        })
    }

    /// Shared reduce-to-root + broadcast transport with the recursive
    /// doubling cost model. `fold(acc, contribution)` must be commutative
    /// enough for rank-order folding (all our ops are).
    fn allreduce_vec_impl<T: Clone + Send + 'static>(
        &mut self,
        mine: Vec<T>,
        fold: impl Fn(&mut Vec<T>, &[T]),
    ) -> Vec<T> {
        let g = self.size();
        let me = self.rank();
        self.comm.stats.collectives += 1;
        let bytes = (std::mem::size_of::<T>() * mine.len()) as u64;
        if g == 1 {
            return mine;
        }
        let up = self.coll_tag(CollKind::AllGather);
        let down = self.coll_tag(CollKind::Broadcast);
        let net = self.comm.cost.net;
        let leg = net.alpha * log2_ceil(g) as f64 + net.beta * bytes as f64;
        self.comm.stats.collective_bytes_out += bytes;
        self.comm.stats.collective_bytes_in += bytes;
        if me == 0 {
            let mut acc = mine;
            let mut max_vt = self.comm.now();
            for j in 1..g {
                let src = self.world_rank(j);
                let env = self.comm.recv_env(src, up);
                max_vt = max_vt.max(env.vtime);
                let contrib = env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                    panic!(
                        "allreduce payload type mismatch at rank {}",
                        self.comm.rank()
                    )
                });
                fold(&mut acc, &contrib);
            }
            self.comm.clock.sync_to(max_vt);
            self.comm.clock.advance_comm(leg); // reduction leg
            for j in 1..g {
                let dst = self.world_rank(j);
                self.comm.post(dst, down, bytes, Box::new(acc.clone()));
            }
            self.comm.clock.advance_comm(leg); // broadcast leg
            acc
        } else {
            let root = self.world_rank(0);
            self.comm.post(root, up, bytes, Box::new(mine));
            let env = self.comm.recv_env(root, down);
            // env.vtime already includes the root's two legs; charge the
            // downward propagation to this rank.
            self.comm.clock.sync_to(env.vtime);
            *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                panic!(
                    "allreduce payload type mismatch at rank {}",
                    self.comm.rank()
                )
            })
        }
    }

    /// Exclusive prefix sum of one `u64` across the group (rank 0 gets 0).
    /// Used to compute balanced destination slots during redistribution.
    pub fn exscan_sum_u64(&mut self, v: u64) -> u64 {
        let me = self.rank();
        let all = self.allgather(vec![v]);
        all[..me].iter().map(|x| x[0]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::ReduceOp;
    use crate::{run_cluster, ClusterConfig};

    fn cfg(p: usize) -> ClusterConfig {
        ClusterConfig::new(p)
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let out = run_cluster(&cfg(5), |c| {
            let data = if c.rank() == 2 {
                Some(vec![7u32, 8, 9])
            } else {
                None
            };
            c.world().broadcast(2, data)
        });
        assert!(out.iter().all(|o| o.result == vec![7, 8, 9]));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_cluster(&cfg(4), |c| {
            let mine = vec![c.rank() as u64; c.rank() + 1]; // variable lengths
            c.world().gather(0, mine)
        });
        let got = out[0].result.clone().expect("root gets data");
        assert_eq!(
            got,
            vec![vec![0], vec![1, 1], vec![2, 2, 2], vec![3, 3, 3, 3]]
        );
        assert!(out[1].result.is_none());
    }

    #[test]
    fn allgather_matches_on_all_ranks() {
        let out = run_cluster(&cfg(4), |c| {
            let mine = vec![c.rank() as u32 * 10];
            c.world().allgather(mine)
        });
        for o in &out {
            assert_eq!(o.result, vec![vec![0], vec![10], vec![20], vec![30]]);
        }
    }

    #[test]
    fn alltoallv_routes_and_conserves() {
        // rank r sends value r*10+j to rank j; j receives r*10+j from r.
        let out = run_cluster(&cfg(4), |c| {
            let r = c.rank() as u32;
            let sends: Vec<Vec<u32>> = (0..4).map(|j| vec![r * 10 + j]).collect();
            c.world().alltoallv(sends)
        });
        for (j, o) in out.iter().enumerate() {
            let expect: Vec<Vec<u32>> = (0..4u32).map(|r| vec![r * 10 + j as u32]).collect();
            assert_eq!(o.result, expect);
        }
    }

    #[test]
    fn alltoallv_empty_lanes_are_fine() {
        let out = run_cluster(&cfg(3), |c| {
            let mut sends: Vec<Vec<u64>> = vec![Vec::new(); 3];
            sends[0] = vec![c.rank() as u64]; // everyone sends only to rank 0
            c.world().alltoallv(sends)
        });
        assert_eq!(out[0].result, vec![vec![0], vec![1], vec![2]]);
        assert!(out[1].result.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn allreduce_ops() {
        let out = run_cluster(&cfg(4), |c| {
            let v = (c.rank() + 1) as u64; // 1,2,3,4
            let s = c.world().allreduce_u64(v, ReduceOp::Sum);
            let mn = c.world().allreduce_u64(v, ReduceOp::Min);
            let mx = c.world().allreduce_u64(v, ReduceOp::Max);
            let f = c.world().allreduce_f64(v as f64 / 2.0, ReduceOp::Sum);
            (s, mn, mx, f)
        });
        for o in &out {
            assert_eq!(o.result.0, 10);
            assert_eq!(o.result.1, 1);
            assert_eq!(o.result.2, 4);
            assert!((o.result.3 - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn try_allreduce_matches_infallible() {
        let out = run_cluster(&cfg(4), |c| {
            let v = (c.rank() + 1) as u64;
            let mx = c.world().try_allreduce_u64(v, ReduceOp::Max).unwrap();
            let all = c.world().try_allgather(vec![v]).unwrap();
            (mx, all)
        });
        for o in &out {
            assert_eq!(o.result.0, 4);
            assert_eq!(o.result.1, vec![vec![1], vec![2], vec![3], vec![4]]);
        }
    }

    #[test]
    fn allreduce_vec_sums_elementwise() {
        let out = run_cluster(&cfg(3), |c| {
            let v = vec![c.rank() as u64, 1, 100];
            c.world().allreduce_vec_u64(v, ReduceOp::Sum)
        });
        for o in &out {
            assert_eq!(o.result, vec![3, 3, 300]);
        }
    }

    #[test]
    fn allreduce_vec_f64_min_max() {
        let out = run_cluster(&cfg(3), |c| {
            let v = vec![c.rank() as f64, -(c.rank() as f64)];
            let mn = c.world().allreduce_vec_f64(v.clone(), ReduceOp::Min);
            let mx = c.world().allreduce_vec_f64(v, ReduceOp::Max);
            (mn, mx)
        });
        for o in &out {
            assert_eq!(o.result.0, vec![0.0, -2.0]);
            assert_eq!(o.result.1, vec![2.0, 0.0]);
        }
    }

    #[test]
    fn exscan_is_exclusive_prefix() {
        let out = run_cluster(&cfg(5), |c| {
            let v = c.rank() as u64 + 1;
            c.world().exscan_sum_u64(v)
        });
        let expect = [0u64, 1, 3, 6, 10];
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, expect[i]);
        }
    }

    #[test]
    fn barrier_aligns_clocks() {
        let out = run_cluster(&cfg(3), |c| {
            c.work_serial(c.rank() as f64); // skewed compute: 0s, 1s, 2s
            c.barrier();
            c.now()
        });
        let t0 = out[0].result;
        for o in &out {
            assert!(
                (o.result - t0).abs() < 1e-9,
                "clocks diverged after barrier"
            );
        }
        assert!(t0 >= 2.0);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = run_cluster(&cfg(1), |c| {
            c.barrier();
            let b = c.world().broadcast(0, Some(vec![1u8]));
            let g = c.world().allgather(vec![2u8]);
            let a = c.world().alltoallv(vec![vec![3u8]]);
            let r = c.world().allreduce_u64(9, ReduceOp::Sum);
            let e = c.world().exscan_sum_u64(5);
            (b, g, a, r, e)
        });
        let r = &out[0].result;
        assert_eq!(r.0, vec![1]);
        assert_eq!(r.1, vec![vec![2]]);
        assert_eq!(r.2, vec![vec![3]]);
        assert_eq!(r.3, 9);
        assert_eq!(r.4, 0);
    }

    #[test]
    fn collective_stats_accumulate() {
        let out = run_cluster(&cfg(2), |c| {
            let _ = c.world().allgather(vec![0u64; 8]); // 64 bytes each way
            c.stats()
        });
        for o in &out {
            assert_eq!(o.stats.collectives, 1);
            assert_eq!(o.stats.collective_bytes_out, 64);
            assert_eq!(o.stats.collective_bytes_in, 64);
        }
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            run_cluster(&cfg(4), |c| {
                let mine = vec![c.rank() as u64; 1000];
                let _ = c.world().allgather(mine);
                c.work_parallel(0.01, 1e6);
                c.barrier();
                c.now()
            })
            .into_iter()
            .map(|o| o.result)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
