//! Phase-breakdown containers for the construction and querying pipelines
//! (Figures 5(b) and 5(c) of the paper).
//!
//! Times here are **virtual seconds** recorded from the per-rank clock of
//! the simulated runtime. The breakdowns are per-rank; the bench harness
//! aggregates over ranks (max for makespans, mean for percentages).

/// Construction time split into the paper's five phases (Fig. 5(b)).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildBreakdown {
    /// Global kd-tree construction (sampling, histograms, split decisions).
    pub global_tree: f64,
    /// Particle redistribution (partitioning into send buffers + exchange).
    pub redistribute: f64,
    /// Local kd-tree, data-parallel breadth-first levels.
    pub local_data_parallel: f64,
    /// Local kd-tree, thread-parallel subtree phase.
    pub local_thread_parallel: f64,
    /// SIMD packing of leaf buckets.
    pub packing: f64,
}

impl BuildBreakdown {
    /// Phase labels in paper order.
    pub const LABELS: [&'static str; 5] = [
        "Global kd-tree construction",
        "Redistribute particles",
        "Local kd-tree (data parallel)",
        "Local kd-tree (thread parallel)",
        "Local kd-tree (SIMD packing)",
    ];

    /// Phase values in paper order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.global_tree,
            self.redistribute,
            self.local_data_parallel,
            self.local_thread_parallel,
            self.packing,
        ]
    }

    /// Total construction seconds.
    pub fn total(&self) -> f64 {
        self.values().iter().sum()
    }

    /// Percentages per phase (sums to ~100 unless total is zero).
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 5];
        }
        self.values().map(|v| 100.0 * v / t)
    }

    /// Element-wise accumulate (for aggregating ranks).
    pub fn add(&mut self, o: &BuildBreakdown) {
        self.global_tree += o.global_tree;
        self.redistribute += o.redistribute;
        self.local_data_parallel += o.local_data_parallel;
        self.local_thread_parallel += o.local_thread_parallel;
        self.packing += o.packing;
    }

    /// Element-wise max (for makespan-style aggregation).
    pub fn max(&mut self, o: &BuildBreakdown) {
        self.global_tree = self.global_tree.max(o.global_tree);
        self.redistribute = self.redistribute.max(o.redistribute);
        self.local_data_parallel = self.local_data_parallel.max(o.local_data_parallel);
        self.local_thread_parallel = self.local_thread_parallel.max(o.local_thread_parallel);
        self.packing = self.packing.max(o.packing);
    }

    /// Scale all phases (e.g. 1/ranks for means).
    pub fn scaled(&self, f: f64) -> BuildBreakdown {
        BuildBreakdown {
            global_tree: self.global_tree * f,
            redistribute: self.redistribute * f,
            local_data_parallel: self.local_data_parallel * f,
            local_thread_parallel: self.local_thread_parallel * f,
            packing: self.packing * f,
        }
    }
}

/// Compute/communication timing of one pipeline step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepTiming {
    /// Compute seconds in the step (local KNN + identify + remote KNN +
    /// merge).
    pub compute: f64,
    /// Communication seconds in the step (request/response exchanges,
    /// including synchronization wait).
    pub comm: f64,
}

/// Query time split into the paper's categories (Fig. 5(c)) plus the
/// per-step log that drives the software-pipelining model.
///
/// The step log holds one entry per pipeline batch **plus a final
/// epilogue entry** for the origin-return exchange, and the engine
/// attributes every compute delta it records into a step to exactly one
/// phase field, so the accounting invariant
/// `Σ steps.compute == local_knn + identify_remote + remote_knn + merge`
/// holds (`find_owner` is the prologue, outside the step log).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryBreakdown {
    /// Routing queries to their owning ranks (traversal + exchange).
    pub find_owner: f64,
    /// Local KNN on owned queries.
    pub local_knn: f64,
    /// Identifying remote ranks within `r'`.
    pub identify_remote: f64,
    /// Remote KNN service for other ranks' queries.
    pub remote_knn: f64,
    /// Final top-k merging of remote responses.
    pub merge: f64,
    /// Total communication (requests + responses + result return).
    pub comm_total: f64,
    /// Per-step compute/comm log.
    pub steps: Vec<StepTiming>,
}

impl QueryBreakdown {
    /// Labels in paper order (merge is folded into "Remote KNN" when
    /// printing the five-way figure, matching the paper's categories).
    pub const LABELS: [&'static str; 5] = [
        "Find owner",
        "Local KNN",
        "Identify remote nodes",
        "Remote KNN",
        "Non-overlapped communication",
    ];

    /// Total assuming no overlap: every stage strictly sequential.
    pub fn total_synchronous(&self) -> f64 {
        self.find_owner
            + self.local_knn
            + self.identify_remote
            + self.remote_knn
            + self.merge
            + self.comm_total
    }

    /// Sum of per-step compute seconds (equals the four in-pipeline phase
    /// fields — see the accounting invariant on the type docs).
    pub fn steps_compute(&self) -> f64 {
        self.steps.iter().map(|s| s.compute).sum()
    }

    /// Sum of per-step communication seconds.
    pub fn steps_comm(&self) -> f64 {
        self.steps.iter().map(|s| s.comm).sum()
    }

    /// Communication that cannot hide behind compute when the pipeline
    /// overlaps adjacent batches: `Σ max(0, comm_s − compute_s)` over steps
    /// (steady-state software-pipeline model).
    pub fn comm_non_overlapped(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| (s.comm - s.compute).max(0.0))
            .sum()
    }

    /// Total with software pipelining: per-step `max(compute, comm)` plus
    /// the owner-routing prologue.
    pub fn total_pipelined(&self) -> f64 {
        self.find_owner
            + self
                .steps
                .iter()
                .map(|s| s.compute.max(s.comm))
                .sum::<f64>()
            + self.residual_compute()
    }

    /// Compute not captured in the step log. Zero for breakdowns produced
    /// by the engine (every phase delta lands in a step — see the type
    /// docs); kept as a safety net for hand-built or aggregated
    /// breakdowns whose step logs were truncated.
    fn residual_compute(&self) -> f64 {
        let step_compute: f64 = self.steps.iter().map(|s| s.compute).sum();
        let all_compute = self.local_knn + self.identify_remote + self.remote_knn + self.merge;
        (all_compute - step_compute).max(0.0)
    }

    /// Five-way values for the Fig. 5(c) chart: merge folded into remote
    /// KNN, communication as the pipeline's non-overlapped share.
    pub fn figure_values(&self) -> [f64; 5] {
        [
            self.find_owner,
            self.local_knn,
            self.identify_remote,
            self.remote_knn + self.merge,
            self.comm_non_overlapped(),
        ]
    }

    /// Element-wise accumulate (steps appended index-wise).
    pub fn add(&mut self, o: &QueryBreakdown) {
        self.find_owner += o.find_owner;
        self.local_knn += o.local_knn;
        self.identify_remote += o.identify_remote;
        self.remote_knn += o.remote_knn;
        self.merge += o.merge;
        self.comm_total += o.comm_total;
        if self.steps.len() < o.steps.len() {
            self.steps.resize(o.steps.len(), StepTiming::default());
        }
        for (a, b) in self.steps.iter_mut().zip(&o.steps) {
            a.compute += b.compute;
            a.comm += b.comm;
        }
    }

    /// Scale all fields (e.g. 1/ranks for means).
    pub fn scaled(&self, f: f64) -> QueryBreakdown {
        QueryBreakdown {
            find_owner: self.find_owner * f,
            local_knn: self.local_knn * f,
            identify_remote: self.identify_remote * f,
            remote_knn: self.remote_knn * f,
            merge: self.merge * f,
            comm_total: self.comm_total * f,
            steps: self
                .steps
                .iter()
                .map(|s| StepTiming {
                    compute: s.compute * f,
                    comm: s.comm * f,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_breakdown_percentages_sum_to_100() {
        let b = BuildBreakdown {
            global_tree: 4.0,
            redistribute: 3.0,
            local_data_parallel: 1.0,
            local_thread_parallel: 1.5,
            packing: 0.5,
        };
        assert!((b.total() - 10.0).abs() < 1e-12);
        let p = b.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[0] - 40.0).abs() < 1e-9);
        assert_eq!(BuildBreakdown::default().percentages(), [0.0; 5]);
    }

    #[test]
    fn build_breakdown_add_max_scale() {
        let a = BuildBreakdown {
            global_tree: 1.0,
            ..Default::default()
        };
        let b = BuildBreakdown {
            global_tree: 3.0,
            packing: 2.0,
            ..Default::default()
        };
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.global_tree, 4.0);
        let mut mx = a;
        mx.max(&b);
        assert_eq!(mx.global_tree, 3.0);
        assert_eq!(mx.packing, 2.0);
        assert_eq!(sum.scaled(0.5).global_tree, 2.0);
    }

    #[test]
    fn pipelined_total_hides_comm_behind_compute() {
        let q = QueryBreakdown {
            find_owner: 1.0,
            local_knn: 6.0,
            identify_remote: 1.0,
            remote_knn: 2.0,
            merge: 1.0,
            comm_total: 5.0,
            steps: vec![
                StepTiming {
                    compute: 5.0,
                    comm: 2.0,
                }, // comm fully hidden
                StepTiming {
                    compute: 5.0,
                    comm: 3.0,
                }, // comm fully hidden
            ],
        };
        assert!((q.total_synchronous() - 16.0).abs() < 1e-12);
        assert!((q.total_pipelined() - 11.0).abs() < 1e-12); // 1 + 5 + 5
        assert_eq!(q.comm_non_overlapped(), 0.0);
    }

    #[test]
    fn pipelined_total_exposes_comm_when_dominant() {
        let q = QueryBreakdown {
            find_owner: 0.5,
            local_knn: 1.0,
            identify_remote: 0.0,
            remote_knn: 1.0,
            merge: 0.0,
            comm_total: 6.0,
            steps: vec![
                StepTiming {
                    compute: 1.0,
                    comm: 4.0,
                },
                StepTiming {
                    compute: 1.0,
                    comm: 2.0,
                },
            ],
        };
        assert!((q.comm_non_overlapped() - 4.0).abs() < 1e-12);
        // 0.5 + max(1,4) + max(1,2) = 6.5
        assert!((q.total_pipelined() - 6.5).abs() < 1e-12);
        assert!(q.total_pipelined() < q.total_synchronous());
    }

    #[test]
    fn figure_values_fold_merge_into_remote() {
        let q = QueryBreakdown {
            find_owner: 1.0,
            local_knn: 2.0,
            identify_remote: 3.0,
            remote_knn: 4.0,
            merge: 5.0,
            comm_total: 6.0,
            steps: vec![StepTiming {
                compute: 1.0,
                comm: 6.0,
            }],
        };
        // comm reported as Σ max(0, comm − compute) over steps, not comm_total
        assert_eq!(q.figure_values(), [1.0, 2.0, 3.0, 9.0, 5.0]);
    }

    #[test]
    fn add_aligns_steps() {
        let mut a = QueryBreakdown {
            steps: vec![StepTiming {
                compute: 1.0,
                comm: 1.0,
            }],
            ..Default::default()
        };
        let b = QueryBreakdown {
            steps: vec![
                StepTiming {
                    compute: 2.0,
                    comm: 0.0,
                },
                StepTiming {
                    compute: 3.0,
                    comm: 1.0,
                },
            ],
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.steps.len(), 2);
        assert_eq!(a.steps[0].compute, 3.0);
        assert_eq!(a.steps[1].compute, 3.0);
    }
}
