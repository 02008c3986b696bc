//! Morton (Z-order) curve keys for locality-aware query scheduling.
//!
//! Sorting a query batch along a space-filling curve makes consecutive
//! queries spatially adjacent, so they traverse mostly the same tree path
//! and re-touch the same leaf buckets while those are still cached. Both
//! batch engines — [`crate::knn::KnnIndex::query_session`] and every shard
//! of [`crate::engine::ShardedIndex`] (and the SPMD driver) — run
//! each batch through one rule under the default
//! [`crate::config::QueryOrder::Morton`]: a batch of fewer than two
//! queries, or one whose input order is already coherent (sampled
//! adjacent queries share a Morton cell often enough, as in a self-query
//! over data stored cluster by cluster), runs as given; any other batch
//! is sorted along the curve. Results are always scattered back to input
//! order, so the reordering is invisible in the API — it is purely a
//! constant-factor play.

use crate::point::{PointSet, MAX_DIMS};

/// Adjacent input pairs the coherence probe inspects at most.
const COHERENCE_SAMPLE: usize = 4096;

/// A batch whose sampled adjacent pairs share a Morton cell at
/// ⌈log2 n⌉ key bits (about one cell per query) at least this often, in
/// percent, is already coherent and runs as given. Incoherent traffic
/// (uniform or hot-spot queries in arrival order) sits at 0–3%; a
/// clump-by-clump generated self-query at ≈ 47%; a clustered batch
/// after sorting at 80% or more.
const COHERENT_PERCENT: usize = 25;

/// Morton key of one point: each coordinate is quantized to
/// `⌊63 / dims⌋` bits (capped at 21) against the bounding box `lo`/`scale`
/// and the bit planes are interleaved MSB-first.
#[inline]
pub fn morton_key(p: &[f32], lo: &[f32], scale: &[f64], bits: u32) -> u64 {
    let dims = p.len();
    debug_assert!(dims <= MAX_DIMS);
    let mut cells = [0u64; MAX_DIMS];
    let max_cell = (1u64 << bits) - 1;
    for d in 0..dims {
        let c = ((p[d] - lo[d]) as f64 * scale[d]) as u64;
        cells[d] = c.min(max_cell);
    }
    let mut key = 0u64;
    for b in (0..bits).rev() {
        for &cell in cells.iter().take(dims) {
            key = (key << 1) | ((cell >> b) & 1);
        }
    }
    key
}

/// Execution schedule visiting `queries` in Morton order: a permutation of
/// `0..queries.len()` (deterministic; key ties break by input index).
pub fn morton_schedule(queries: &PointSet) -> Vec<u32> {
    if queries.is_empty() {
        return Vec::new();
    }
    Grid::of(queries.dims(), queries.coords()).schedule(queries.coords())
}

/// The schedule a batch engine runs under
/// [`crate::config::QueryOrder::Morton`] for the flat coordinates of a
/// batch: `None` (run as given) for fewer than two queries or when the
/// input order is already coherent (see [`COHERENT_PERCENT`]), otherwise
/// the [`morton_schedule`] permutation. Deciding to skip costs one
/// bounding-box pass and at most `2 × COHERENCE_SAMPLE` keys; no
/// per-query memory is allocated.
pub(crate) fn locality_schedule(dims: usize, coords: &[f32]) -> Option<Vec<u32>> {
    if coords.len() < 2 * dims {
        return None;
    }
    let grid = Grid::of(dims, coords);
    (!grid.is_coherent(coords)).then(|| grid.schedule(coords))
}

/// The quantization of one batch that [`morton_key`] takes: bounding
/// box, per-dimension scale and bits per dimension.
struct Grid {
    dims: usize,
    lo: Vec<f32>,
    scale: Vec<f64>,
    bits: u32,
}

impl Grid {
    /// Grid over a non-empty flat coordinate buffer.
    fn of(dims: usize, coords: &[f32]) -> Self {
        debug_assert!((1..=MAX_DIMS).contains(&dims));
        debug_assert_eq!(coords.len() % dims, 0);
        let mut lo = vec![f32::INFINITY; dims];
        let mut hi = vec![f32::NEG_INFINITY; dims];
        for p in coords.chunks_exact(dims) {
            for d in 0..dims {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let bits = (63 / dims as u32).clamp(1, 21);
        let scale = (0..dims)
            .map(|d| {
                let ext = (hi[d] - lo[d]) as f64;
                if ext > 0.0 {
                    ((1u64 << bits) - 1) as f64 / ext
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            dims,
            lo,
            scale,
            bits,
        }
    }

    fn key(&self, coords: &[f32], i: usize) -> u64 {
        let p = &coords[i * self.dims..(i + 1) * self.dims];
        morton_key(p, &self.lo, &self.scale, self.bits)
    }

    /// All points sorted by key (ties by input index).
    fn schedule(&self, coords: &[f32]) -> Vec<u32> {
        let n = coords.len() / self.dims;
        let mut keyed: Vec<(u64, u32)> = (0..n).map(|i| (self.key(coords, i), i as u32)).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// Whether a fixed strided sample of adjacent pairs of the batch
    /// (n ≥ 2) lands in one cell at ⌈log2 n⌉ key bits at least
    /// [`COHERENT_PERCENT`] of the time.
    fn is_coherent(&self, coords: &[f32]) -> bool {
        let n = coords.len() / self.dims;
        let key_bits = self.bits * self.dims as u32;
        let cell_bits = (usize::BITS - (n - 1).leading_zeros()).min(key_bits);
        let cell = |i: usize| self.key(coords, i) >> (key_bits - cell_bits);
        let pairs = n - 1;
        let sample = pairs.min(COHERENCE_SAMPLE);
        let stride = pairs / sample;
        let same = (0..sample)
            .map(|s| s * stride)
            .filter(|&i| cell(i) == cell(i + 1))
            .count();
        same * 100 >= sample * COHERENT_PERCENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    fn ps(dims: usize, coords: Vec<f32>) -> PointSet {
        PointSet::from_coords(dims, coords).unwrap()
    }

    fn uniform(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        ps(dims, (0..n * dims).map(|_| rng.next_f64() as f32).collect())
    }

    /// Soneira–Peebles-shaped 3-D clumps emitted depth first, one clump
    /// after another — the shape of the cosmology generator's output.
    fn clumped(n: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        let mut coords = Vec::with_capacity(n * 3);
        let mut stack: Vec<([f64; 3], f64, u32)> = Vec::new();
        while coords.len() < n * 3 {
            if stack.is_empty() {
                let c = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
                stack.push((c, 0.12, 6));
            }
            let (c, r, level) = stack.pop().unwrap();
            if level == 0 {
                coords.extend(c.map(|x| x as f32));
                continue;
            }
            for _ in 0..5 {
                let child = c.map(|x| x + (rng.next_f64() * 2.0 - 1.0) * r);
                stack.push((child, r / 1.9, level - 1));
            }
        }
        ps(3, coords)
    }

    /// Hot-spot traffic: each query jitters one of `spots` centres,
    /// consecutive queries jumping between them.
    fn hotspots(n: usize, spots: usize, seed: u64) -> PointSet {
        let centres = uniform(spots, 10, seed);
        let mut rng = SplitRng::new(seed ^ 1);
        let mut coords = Vec::with_capacity(n * 10);
        for _ in 0..n {
            let c = centres.point(rng.next_below(spots));
            coords.extend(
                c.iter()
                    .map(|&x| x + ((rng.next_f64() - 0.5) * 0.02) as f32),
            );
        }
        ps(10, coords)
    }

    fn schedule_of(q: &PointSet) -> Option<Vec<u32>> {
        locality_schedule(q.dims(), q.coords())
    }

    #[test]
    fn schedule_is_a_permutation() {
        let q = ps(3, (0..300).map(|i| ((i * 37) % 100) as f32).collect());
        let mut s = morton_schedule(&q);
        assert_eq!(s.len(), 100);
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn nearby_points_are_adjacent_in_schedule() {
        // two tight clusters far apart: the schedule must not interleave them
        let mut coords = Vec::new();
        for i in 0..8 {
            coords.extend([i as f32 * 0.01, 0.0]); // cluster A near origin
        }
        for i in 0..8 {
            coords.extend([100.0 + i as f32 * 0.01, 100.0]); // cluster B
        }
        let q = ps(2, coords);
        let s = morton_schedule(&q);
        let first_half: Vec<u32> = s[..8].to_vec();
        let all_a = first_half.iter().all(|&i| i < 8);
        let all_b = first_half.iter().all(|&i| i >= 8);
        assert!(all_a || all_b, "clusters interleaved: {s:?}");
    }

    #[test]
    fn degenerate_inputs() {
        // empty
        assert!(morton_schedule(&PointSet::new(2).unwrap()).is_empty());
        // all-identical points: ties break by index, schedule is identity
        let q = ps(2, [1.0f32, 2.0].repeat(5).to_vec());
        assert_eq!(morton_schedule(&q), vec![0, 1, 2, 3, 4]);
        // single point
        let q = ps(3, vec![1.0, 2.0, 3.0]);
        assert_eq!(morton_schedule(&q), vec![0]);
    }

    #[test]
    fn keys_order_along_the_curve_in_1d() {
        // in 1-D, Morton order is plain coordinate order
        let q = ps(1, vec![5.0, 1.0, 9.0, 3.0]);
        assert_eq!(morton_schedule(&q), vec![1, 3, 0, 2]);
    }

    #[test]
    fn high_dims_still_fit_in_64_bits() {
        let q = ps(16, (0..160).map(|i| (i % 13) as f32).collect());
        let s = morton_schedule(&q);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn shuffled_batches_are_sorted() {
        for q in [
            uniform(5000, 3, 1),
            uniform(2048, 10, 2),
            hotspots(2048, 256, 3),
        ] {
            assert_eq!(
                schedule_of(&q),
                Some(morton_schedule(&q)),
                "dims {}",
                q.dims()
            );
        }
        // a handful of hot-spot queries, as one service micro-batch
        let q = hotspots(64, 256, 4);
        assert_eq!(schedule_of(&q), Some(morton_schedule(&q)));
    }

    #[test]
    fn coherent_batches_run_as_given() {
        // already in Morton order: sorting again would buy nothing
        for q in [hotspots(2048, 256, 5), clumped(20_000, 6)] {
            let sorted = q.select(&morton_schedule(&q));
            assert_eq!(schedule_of(&sorted), None, "dims {}", q.dims());
        }
        // generated clump by clump: coherent without any sort
        assert_eq!(schedule_of(&clumped(20_000, 7)), None);
        // every query at one point
        assert_eq!(schedule_of(&ps(3, [0.5f32; 3].repeat(100))), None);
    }

    #[test]
    fn tiny_batches() {
        assert_eq!(schedule_of(&PointSet::new(3).unwrap()), None);
        assert_eq!(schedule_of(&ps(3, vec![1.0, 2.0, 3.0])), None);
        // two queries in opposite corners: each its own cell, sorted
        assert_eq!(
            schedule_of(&ps(2, vec![1.0, 1.0, 0.0, 0.0])),
            Some(vec![1, 0])
        );
        assert_eq!(
            schedule_of(&ps(2, vec![0.0, 0.0, 1.0, 1.0])),
            Some(vec![0, 1])
        );
        // two copies of one query share every cell
        assert_eq!(schedule_of(&ps(2, vec![1.0, 1.0, 1.0, 1.0])), None);
    }

    #[test]
    fn rule_is_deterministic() {
        for q in [
            uniform(3000, 3, 8),
            clumped(9000, 9),
            hotspots(1000, 64, 10),
        ] {
            let first = schedule_of(&q);
            for _ in 0..3 {
                assert_eq!(schedule_of(&q), first);
            }
        }
    }
}
