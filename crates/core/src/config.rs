//! Configuration for tree construction and querying.

use crate::error::{PandaError, Result};

/// How the split dimension is chosen at each tree level (§III-A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitDimStrategy {
    /// Dimension of maximum variance estimated on a sample — PANDA's choice
    /// (costs up to 18% extra construction, buys up to 43% query time).
    MaxVariance {
        /// Number of points sampled for the variance estimate.
        sample: usize,
    },
    /// Dimension of maximum coordinate range (ANN's choice) — cheaper to
    /// compute, worse trees on anisotropic data.
    MaxExtent,
    /// Cycle dimensions round-robin by depth (classic Bentley kd-tree);
    /// ablation baseline.
    RoundRobin,
}

impl Default for SplitDimStrategy {
    fn default() -> Self {
        // The paper computes variances "on a subset of points … similar to
        // the strategy used in FLANN" (which uses ~100); 128 keeps the
        // estimate stable in up to 16 dimensions at negligible cost.
        SplitDimStrategy::MaxVariance { sample: 128 }
    }
}

/// How the split value along the chosen dimension is found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitValueStrategy {
    /// Sampled non-uniform histogram, pick the interval point nearest the
    /// target quantile — PANDA's choice (§III-A1, after \[11\]).
    SampledHistogram {
        /// Sample size (paper: 1024 for the local tree, 256/rank global).
        samples: usize,
    },
    /// Exact median via selection — slower; ablation/ground-truth option.
    ExactMedian,
    /// Mean of the first 100 points along the dimension (FLANN's heuristic,
    /// §V-B2); kept here for ablations.
    MeanFirst100,
}

impl Default for SplitValueStrategy {
    fn default() -> Self {
        SplitValueStrategy::SampledHistogram { samples: 1024 }
    }
}

/// Histogram binning implementation (§III-A1 optimization).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HistScan {
    /// Branchy binary search over the sorted interval points.
    Binary,
    /// Two-level scan: every 32nd interval point is pulled into a
    /// sub-interval array scanned linearly (SIMD-friendly), then the
    /// 32-wide range is scanned — the paper's 42% construction win.
    #[default]
    SubInterval,
}

/// Lower-bound computation used while traversing the tree (Algorithm 1).
/// Only [`crate::LocalKdTree::query_into`] takes it, for the fidelity
/// ablation; every engine above the tree traverses with
/// [`BoundMode::Exact`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Exact incremental bound with per-dimension side distances
    /// (Arya–Mount). Guarantees exact KNN. Default.
    #[default]
    Exact,
    /// The scalar accumulation exactly as printed in the paper's
    /// Algorithm 1 (`d' ← √(d·d + d'·d')`). Slightly over-estimates the
    /// bound when a dimension repeats along a path, which can (rarely)
    /// prune a true neighbor — kept for the fidelity ablation.
    PaperScalar,
}

/// Order in which a query batch is executed. Results are returned in
/// input order and are identical under either variant — ids, distances
/// and work counters alike; the order affects locality only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryOrder {
    /// Run queries exactly as given.
    Input,
    /// Run queries in a spatially coherent order (the default). The batch
    /// engine decides from the batch itself: a batch of fewer than two
    /// queries, or one whose input order is already coherent (sampled
    /// adjacent queries share a Morton cell at least a quarter of the
    /// time, as in a self-query over data stored cluster by cluster), runs
    /// as given; any other batch is sorted along a Morton (Z-order) curve
    /// so consecutive queries touch the same tree nodes and leaf buckets —
    /// the locality-aware batching that ParlayANN-style schedulers use to
    /// win constant factors. See [`crate::morton`].
    #[default]
    Morton,
}

/// Local kd-tree construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum points per leaf bucket (paper: 32 empirically best).
    pub bucket_size: usize,
    /// Split-dimension strategy.
    pub split_dim: SplitDimStrategy,
    /// Split-value strategy.
    pub split_value: SplitValueStrategy,
    /// Histogram binning variant.
    pub hist_scan: HistScan,
    /// Stop breadth-first data parallelism once the number of open
    /// segments reaches `threads × data_parallel_factor` (paper: ×10).
    pub data_parallel_factor: usize,
    /// Thread count used for (a) real rayon parallelism in construction
    /// when `parallel` and (b) the modeled thread pool in simulated runs.
    /// Queries never read it: each batch sizes its blocks by the pool.
    pub threads: usize,
    /// Use real rayon parallelism for construction (single-node API).
    /// Distributed ranks run their local build sequentially and charge the
    /// modeled thread pool instead. Construction only: each query batch
    /// decides its own parallelism (see [`crate::knn::KnnIndex`]).
    pub parallel: bool,
    /// Segments at or below this size use an exact median regardless of
    /// `split_value` (cheap at small n, bounds tree depth).
    pub exact_median_below: usize,
    /// RNG seed for all sampling, making construction deterministic.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            bucket_size: 32,
            split_dim: SplitDimStrategy::default(),
            split_value: SplitValueStrategy::default(),
            hist_scan: HistScan::default(),
            data_parallel_factor: 10,
            threads: 1,
            parallel: false,
            exact_median_below: 4096,
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

impl TreeConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.bucket_size == 0 {
            return Err(PandaError::BadConfig("bucket_size must be ≥ 1".into()));
        }
        if self.threads == 0 {
            return Err(PandaError::BadConfig("threads must be ≥ 1".into()));
        }
        if self.data_parallel_factor == 0 {
            return Err(PandaError::BadConfig(
                "data_parallel_factor must be ≥ 1".into(),
            ));
        }
        match self.split_dim {
            SplitDimStrategy::MaxVariance { sample } if sample < 2 => {
                return Err(PandaError::BadConfig("variance sample must be ≥ 2".into()))
            }
            _ => {}
        }
        if let SplitValueStrategy::SampledHistogram { samples } = self.split_value {
            if samples < 2 {
                return Err(PandaError::BadConfig(
                    "histogram samples must be ≥ 2".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builder-style: set bucket size.
    #[must_use]
    pub fn with_bucket_size(mut self, b: usize) -> Self {
        self.bucket_size = b;
        self
    }

    /// Builder-style: set thread count.
    #[must_use]
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Builder-style: enable real rayon parallelism in construction.
    #[must_use]
    pub fn with_parallel(mut self, p: bool) -> Self {
        self.parallel = p;
        self
    }

    /// Builder-style: set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

/// Parameters of the SPMD distributed query driver
/// ([`crate::query_distributed::query_distributed`], §III-B), where every
/// rank calls the driver in lockstep. The engine always traverses with the
/// exact bound and refines remote-rank selection with the per-rank
/// bounding boxes; only what a query asks for, plus the pipeline step
/// size, is configurable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryConfig {
    /// Number of nearest neighbors.
    pub k: usize,
    /// Queries processed per pipeline step on each rank (paper: batching
    /// for load balance and throughput).
    pub batch_size: usize,
    /// Initial search radius (`∞` for plain KNN). Squared internally.
    pub initial_radius: f32,
    /// Execution order of each rank's *owned* queries (after routing).
    /// The default [`QueryOrder::Morton`] puts an incoherent owned batch
    /// in Morton order so every pipeline step's local KNN and remote
    /// request streams touch spatially coherent leaves, and keeps an
    /// already coherent one as given; results are always returned in
    /// submission order, so this affects locality only — never values.
    pub order: QueryOrder,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self {
            k: 5,
            batch_size: 4096,
            initial_radius: f32::INFINITY,
            order: QueryOrder::default(),
        }
    }
}

impl QueryConfig {
    /// Config for `k` neighbors with defaults otherwise.
    #[must_use]
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(PandaError::ZeroK);
        }
        if self.batch_size == 0 {
            return Err(PandaError::BadConfig("batch_size must be ≥ 1".into()));
        }
        // `+inf` is the documented "no limit" sentinel; everything else
        // must be a positive finite radius.
        if self.initial_radius.is_nan() || self.initial_radius <= 0.0 {
            return Err(PandaError::BadRadius {
                radius: self.initial_radius,
            });
        }
        Ok(())
    }
}

/// Distributed construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistConfig {
    /// Local-tree construction parameters (per rank).
    pub local: TreeConfig,
    /// Points sampled *per rank* for each global split (paper: 256).
    pub global_samples_per_rank: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            local: TreeConfig::default(),
            global_samples_per_rank: 256,
        }
    }
}

impl DistConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        self.local.validate()?;
        if self.global_samples_per_rank < 2 {
            return Err(PandaError::BadConfig(
                "global_samples_per_rank must be ≥ 2".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        let t = TreeConfig::default();
        assert_eq!(t.bucket_size, 32);
        assert_eq!(t.split_dim, SplitDimStrategy::MaxVariance { sample: 128 });
        assert_eq!(
            t.split_value,
            SplitValueStrategy::SampledHistogram { samples: 1024 }
        );
        assert_eq!(t.hist_scan, HistScan::SubInterval);
        assert_eq!(t.data_parallel_factor, 10);
        let d = DistConfig::default();
        assert_eq!(d.global_samples_per_rank, 256);
        let q = QueryConfig::default();
        assert_eq!(q.batch_size, 4096);
        assert_eq!(q.order, QueryOrder::Morton);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(TreeConfig::default()
            .with_bucket_size(0)
            .validate()
            .is_err());
        assert!(TreeConfig::default().with_threads(0).validate().is_err());
        assert!(TreeConfig {
            data_parallel_factor: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            split_dim: SplitDimStrategy::MaxVariance { sample: 1 },
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            split_value: SplitValueStrategy::SampledHistogram { samples: 0 },
            ..Default::default()
        }
        .validate()
        .is_err());

        assert!(QueryConfig::with_k(0).validate().is_err());
        assert!(QueryConfig {
            batch_size: 0,
            ..QueryConfig::with_k(1)
        }
        .validate()
        .is_err());
        for r in [0.0, -1.0, f32::NAN, f32::NEG_INFINITY] {
            let err = QueryConfig {
                initial_radius: r,
                ..QueryConfig::with_k(1)
            }
            .validate()
            .unwrap_err();
            assert!(
                matches!(err, PandaError::BadRadius { .. }),
                "expected BadRadius for {r}, got {err:?}"
            );
        }
        // +inf is the documented "no limit" sentinel
        assert!(QueryConfig {
            initial_radius: f32::INFINITY,
            ..QueryConfig::with_k(1)
        }
        .validate()
        .is_ok());

        assert!(DistConfig {
            global_samples_per_rank: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_compose() {
        let t = TreeConfig::default()
            .with_bucket_size(16)
            .with_threads(4)
            .with_parallel(true);
        assert_eq!(t.bucket_size, 16);
        assert_eq!(t.threads, 4);
        assert!(t.parallel);
        assert!(t.validate().is_ok());
    }
}
