//! # panda-baselines — what PANDA is measured against
//!
//! * [`brute`] — exact linear-scan KNN (ground truth for every exactness
//!   test, and the "no acceleration structure" baseline of prior
//!   distributed work \[9\], \[10\]);
//! * [`flann_like`] — a kd-tree with FLANN's heuristics as the paper
//!   describes them (§V-B2): variance split dimension, mean-of-first-100
//!   split value;
//! * [`ann_like`] — a kd-tree with ANN's heuristics: maximum-extent split
//!   dimension, midpoint-of-bounds split value (degenerates badly on
//!   co-located data — the paper measured depth 109 vs FLANN's 32);
//! * [`local_trees`] — distributed strategy (1) of §III-A: no global
//!   redistribution, every query broadcast to all ranks, top-k of `P·k`
//!   candidates merged at the origin. The traffic foil for PANDA's global
//!   tree.
//!
//! Every baseline implements [`panda_core::engine::NnBackend`], so the
//! same `Box<dyn NnBackend>` loop that drives PANDA's engines drives the
//! comparisons: build with each type's own constructor (the distributed
//! one's is `build_on`), query with a [`panda_core::engine::QueryRequest`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ann_like;
pub mod brute;
pub mod flann_like;
pub mod local_trees;
pub(crate) mod simple_tree;

pub use ann_like::AnnLikeTree;
pub use brute::BruteForce;
pub use flann_like::FlannLikeTree;
pub use local_trees::{LocalTreesBackend, LocalTreesKnn, LocalTreesStats};
pub use simple_tree::{SimpleTreeStats, UNPACKED_DIST_PENALTY};

#[cfg(test)]
pub(crate) mod tests_support {
    use panda_core::PointSet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    pub fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims).map(|_| rng.gen_range(0.0..10.0)).collect(),
        )
        .unwrap()
    }
}
