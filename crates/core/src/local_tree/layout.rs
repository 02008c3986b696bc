//! SIMD-packed leaf storage and the fused scan-and-offer kernel
//! (§III-A(iv)).
//!
//! Once bucket membership is fixed, coordinates are copied into a layout
//! where the query-time exhaustive scan is a branch-free vectorizable
//! stream: buckets are contiguous, within a bucket the data is
//! dimension-major, and each bucket is padded to a multiple of [`LANE`]
//! positions. Padding coordinates are `+∞`, so padded positions produce an
//! infinite distance and can never enter the candidate heap — the scan
//! needs no tail handling at all.
//!
//! The hot entry point is [`PackedLeaves::scan_and_offer`]: it computes
//! squared distances dimension-major **and** compares them against the
//! candidate heap's current bound in the same pass, touching the heap only
//! for lanes that survive the in-register comparison. There is no
//! intermediate distance buffer and no second pass.
//! [`PackedLeaves::scan_and_offer_filtered`] also takes a `live`
//! predicate over ids, asked only for lanes that beat the bound: a point
//! it rejects never takes a heap slot, so it never tightens the bound
//! either. Every caller without a filter goes through `scan_and_offer`,
//! which monomorphises the predicate to `|_| true` and compiles to the
//! unfiltered kernel. Two implementations sit behind runtime dispatch:
//!
//! * an AVX2 `std::arch` kernel (8 × f32 per step, `vcmpps` + movemask
//!   bound test), selected once per process when the CPU supports it;
//! * a portable unrolled kernel over `[f32; LANE]` blocks that LLVM
//!   auto-vectorizes, used everywhere else (and directly testable).
//!
//! Both paths accumulate per point in dimension order with plain
//! sub/mul/add (no FMA), so results are **bit-identical** to the scalar
//! reference `distances()` and to brute force — exactness tests compare
//! them exactly. Specialized instantiations exist for the paper's
//! dimensionalities (2/3/10/15) via const generics; other dims take the
//! dynamic path.

use crate::heap::KnnHeap;

/// Vector lane count the layout pads to (8 × f32 = one AVX2 register).
pub const LANE: usize = 8;

/// What one fused leaf scan did (kernel-level stats for the counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Heap offers that were accepted.
    pub accepted: u32,
    /// [`LANE`]-wide blocks where no lane beat the bound — pruned entirely
    /// in-register, without touching the heap.
    pub pruned_blocks: u32,
}

/// Runtime AVX2 capability, probed once per process.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            // set to anything but "" or "0" to force the portable kernel
            let opted_out = match std::env::var_os("PANDA_NO_AVX2") {
                Some(v) => !v.is_empty() && v != "0",
                None => false,
            };
            let has = std::is_x86_feature_detected!("avx2") && !opted_out;
            STATE.store(if has { 2 } else { 1 }, Ordering::Relaxed);
            has
        }
        v => v == 2,
    }
}

/// Round `n` up to a multiple of [`LANE`].
#[inline]
pub(crate) fn padded(n: usize) -> usize {
    n.div_ceil(LANE) * LANE
}

/// Bucket-major packed coordinates and ids.
#[derive(Clone, Debug, Default)]
pub struct PackedLeaves {
    dims: usize,
    /// Per bucket: `cap × dims` floats, dimension-major within the bucket.
    coords: Vec<f32>,
    /// Padded point ids (`u64::MAX` marks padding).
    ids: Vec<u64>,
}

impl PackedLeaves {
    /// Empty storage for `dims`-dimensional buckets.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            coords: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Pre-allocate for `n_points` (estimates padding at full buckets).
    pub fn reserve(&mut self, n_points: usize) {
        self.coords.reserve(padded(n_points) * self.dims);
        self.ids.reserve(padded(n_points));
    }

    /// Append one bucket from `(coords_of, id_of)` accessors over `n`
    /// member points. Returns the bucket's padded base index.
    pub fn push_leaf(
        &mut self,
        n: usize,
        coord_of: impl Fn(usize, usize) -> f32, // (member, dim) -> coordinate
        id_of: impl Fn(usize) -> u64,
    ) -> u32 {
        debug_assert!(n > 0);
        let base = self.ids.len();
        let cap = padded(n);
        for d in 0..self.dims {
            for i in 0..cap {
                self.coords
                    .push(if i < n { coord_of(i, d) } else { f32::INFINITY });
            }
        }
        for i in 0..cap {
            self.ids.push(if i < n { id_of(i) } else { u64::MAX });
        }
        base as u32
    }

    /// Padded ids array.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Coordinate of member `i` (0-based within the bucket) along `dim`
    /// for the bucket at padded base `base` with capacity `cap`.
    /// Used by invariant checks and by code that needs to read points back
    /// out of the packed layout (e.g. per-rank bbox computation).
    #[inline]
    pub fn member_coord(&self, base: usize, cap: usize, i: usize, dim: usize) -> f32 {
        debug_assert!(i < cap);
        self.coords[base * self.dims + dim * cap + i]
    }

    /// Distance kernel: squared Euclidean distances from `q` to every
    /// padded position of the bucket at `base` with capacity `cap`,
    /// written into `out[..cap]`. Padded slots yield `+∞`.
    #[inline]
    pub fn distances(&self, base: usize, cap: usize, q: &[f32], out: &mut Vec<f32>) {
        let dims = self.dims;
        out.clear();
        out.resize(cap, 0.0);
        let block = &self.coords[base * dims..base * dims + cap * dims];
        match dims {
            3 => {
                let (xs, rest) = block.split_at(cap);
                let (ys, zs) = rest.split_at(cap);
                let (qx, qy, qz) = (q[0], q[1], q[2]);
                for i in 0..cap {
                    let dx = qx - xs[i];
                    let dy = qy - ys[i];
                    let dz = qz - zs[i];
                    out[i] = dx * dx + dy * dy + dz * dz;
                }
            }
            2 => {
                let (xs, ys) = block.split_at(cap);
                let (qx, qy) = (q[0], q[1]);
                for i in 0..cap {
                    let dx = qx - xs[i];
                    let dy = qy - ys[i];
                    out[i] = dx * dx + dy * dy;
                }
            }
            _ => {
                for (d, &qd) in q.iter().enumerate().take(dims) {
                    let row = &block[d * cap..(d + 1) * cap];
                    for i in 0..cap {
                        let diff = qd - row[i];
                        out[i] += diff * diff;
                    }
                }
            }
        }
    }

    /// Fused scan: compute squared distances from `q` to every position of
    /// the bucket at `base`/`cap` and offer survivors to `heap`, in one
    /// pass with no intermediate buffer. Runtime-dispatches to AVX2 when
    /// available, else the portable unrolled kernel. Bit-identical to
    /// `distances()` + a scalar offer loop.
    #[inline]
    pub fn scan_and_offer(
        &self,
        base: usize,
        cap: usize,
        q: &[f32],
        heap: &mut KnnHeap,
    ) -> ScanStats {
        self.scan_and_offer_filtered(base, cap, q, heap, |_| true)
    }

    /// [`Self::scan_and_offer`] over the points whose id satisfies
    /// `live`. The predicate is asked only for lanes that beat the heap
    /// bound, so a rejected point is never offered: the heap holds the
    /// nearest *live* points, and its bound is theirs.
    #[inline]
    pub fn scan_and_offer_filtered<F: Fn(u64) -> bool + Copy>(
        &self,
        base: usize,
        cap: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: F,
    ) -> ScanStats {
        debug_assert_eq!(cap % LANE, 0);
        debug_assert!(q.len() >= self.dims);
        // The AVX2 kernel's broadcast scratch is sized by MAX_DIMS; wider
        // layouts (PackedLeaves::new is unvalidated) take the portable
        // path on every CPU rather than panicking only on AVX2 hosts.
        #[cfg(target_arch = "x86_64")]
        if self.dims <= crate::point::MAX_DIMS && avx2_available() {
            let dims = self.dims;
            let block = &self.coords[base * dims..base * dims + cap * dims];
            let ids = &self.ids[base..base + cap];
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { avx2::scan(block, ids, cap, dims, q, heap, live) };
        }
        self.scan_portable(base, cap, q, heap, live)
    }

    /// The portable fused kernel behind
    /// [`Self::scan_and_offer_filtered`], callable directly (tests and
    /// benches compare it against both the AVX2 path and the scalar
    /// reference).
    #[inline]
    pub fn scan_portable<F: Fn(u64) -> bool + Copy>(
        &self,
        base: usize,
        cap: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: F,
    ) -> ScanStats {
        let dims = self.dims;
        let block = &self.coords[base * dims..base * dims + cap * dims];
        let ids = &self.ids[base..base + cap];
        match dims {
            2 => portable::scan_impl::<2, F>(block, ids, cap, 2, q, heap, live),
            3 => portable::scan_impl::<3, F>(block, ids, cap, 3, q, heap, live),
            10 => portable::scan_impl::<10, F>(block, ids, cap, 10, q, heap, live),
            15 => portable::scan_impl::<15, F>(block, ids, cap, 15, q, heap, live),
            _ => portable::scan_impl::<0, F>(block, ids, cap, dims, q, heap, live),
        }
    }

    /// Fused fixed-radius scan: append every position of the bucket at
    /// `base`/`cap` strictly within `r_sq` of `q` to `out`, one pass, no
    /// intermediate buffer (the radius-search analogue of
    /// [`Self::scan_and_offer`]; the bound is fixed so the block loop
    /// auto-vectorizes without needing the AVX2 path).
    pub fn scan_and_collect(
        &self,
        base: usize,
        cap: usize,
        q: &[f32],
        r_sq: f32,
        out: &mut Vec<crate::heap::Neighbor>,
    ) -> ScanStats {
        debug_assert_eq!(cap % LANE, 0);
        let dims = self.dims;
        let block = &self.coords[base * dims..base * dims + cap * dims];
        let ids = &self.ids[base..base + cap];
        match dims {
            2 => portable::collect_impl::<2>(block, ids, cap, 2, q, r_sq, out),
            3 => portable::collect_impl::<3>(block, ids, cap, 3, q, r_sq, out),
            10 => portable::collect_impl::<10>(block, ids, cap, 10, q, r_sq, out),
            15 => portable::collect_impl::<15>(block, ids, cap, 15, q, r_sq, out),
            _ => portable::collect_impl::<0>(block, ids, cap, dims, q, r_sq, out),
        }
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.coords.len() * 4 + self.ids.len() * 8
    }

    /// Total padded positions stored.
    pub fn padded_len(&self) -> usize {
        self.ids.len()
    }
}

/// Portable unrolled kernel: `[f32; LANE]` blocks, accumulate in
/// dimension order, scalar bound test per block. LLVM vectorizes the
/// inner loops; semantics are identical to the AVX2 path.
mod portable {
    use super::{ScanStats, LANE};
    use crate::heap::KnnHeap;

    #[inline]
    fn offer_block<F: Fn(u64) -> bool>(
        acc: &[f32; LANE],
        ids: &[u64],
        j: usize,
        heap: &mut KnnHeap,
        stats: &mut ScanStats,
        live: F,
    ) {
        let bound = heap.bound_sq();
        let mut any = false;
        for &d in acc {
            any |= d < bound;
        }
        if !any {
            stats.pruned_blocks += 1;
            return;
        }
        for (i, &d) in acc.iter().enumerate() {
            // offer() re-checks against the (possibly tightened) bound
            if d < heap.bound_sq() && live(ids[j + i]) && heap.offer(d, ids[j + i]) {
                stats.accepted += 1;
            }
        }
    }

    /// One [`LANE`]-wide block of squared distances, accumulated in
    /// dimension order — the single source of truth for the portable
    /// accumulation (KNN and radius kernels both call this, so the
    /// bit-exactness guarantee cannot diverge between them). `D = 0`
    /// means a dynamic trip count.
    #[inline(always)]
    fn acc_block<const D: usize>(
        block: &[f32],
        cap: usize,
        j: usize,
        dims: usize,
        q: &[f32],
    ) -> [f32; LANE] {
        let dims = if D > 0 { D } else { dims };
        let mut acc = [0.0f32; LANE];
        for (d, &qd) in q.iter().enumerate().take(dims) {
            let row = &block[d * cap + j..d * cap + j + LANE];
            for i in 0..LANE {
                let diff = qd - row[i];
                acc[i] += diff * diff;
            }
        }
        acc
    }

    #[inline]
    pub(super) fn scan_impl<const D: usize, F: Fn(u64) -> bool + Copy>(
        block: &[f32],
        ids: &[u64],
        cap: usize,
        dims: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: F,
    ) -> ScanStats {
        let mut stats = ScanStats::default();
        let mut j = 0;
        while j < cap {
            let acc = acc_block::<D>(block, cap, j, dims, q);
            offer_block(&acc, ids, j, heap, &mut stats, live);
            j += LANE;
        }
        stats
    }

    #[inline]
    pub(super) fn collect_impl<const D: usize>(
        block: &[f32],
        ids: &[u64],
        cap: usize,
        dims: usize,
        q: &[f32],
        r_sq: f32,
        out: &mut Vec<crate::heap::Neighbor>,
    ) -> ScanStats {
        let mut stats = ScanStats::default();
        let mut j = 0;
        while j < cap {
            let acc = acc_block::<D>(block, cap, j, dims, q);
            let mut any = false;
            for &d in &acc {
                any |= d < r_sq;
            }
            if any {
                for (i, &d) in acc.iter().enumerate() {
                    if d < r_sq {
                        out.push(crate::heap::Neighbor {
                            dist_sq: d,
                            id: ids[j + i],
                        });
                        stats.accepted += 1;
                    }
                }
            } else {
                stats.pruned_blocks += 1;
            }
            j += LANE;
        }
        stats
    }
}

/// AVX2 kernel: one 8-lane register per block, `vcmpps` against the
/// broadcast heap bound, movemask to find survivors. No FMA — plain
/// sub/mul/add keeps results bit-identical to the scalar reference.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ScanStats, LANE};
    use crate::heap::KnnHeap;
    use crate::point::MAX_DIMS;
    use std::arch::x86_64::*;

    /// Dispatch over the paper's dimensionalities; `D = 0` means dynamic.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan<F: Fn(u64) -> bool + Copy>(
        block: &[f32],
        ids: &[u64],
        cap: usize,
        dims: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: F,
    ) -> ScanStats {
        match dims {
            2 => scan_impl::<2, F>(block, ids, cap, 2, q, heap, live),
            3 => scan_impl::<3, F>(block, ids, cap, 3, q, heap, live),
            10 => scan_impl::<10, F>(block, ids, cap, 10, q, heap, live),
            15 => scan_impl::<15, F>(block, ids, cap, 15, q, heap, live),
            _ => scan_impl::<0, F>(block, ids, cap, dims, q, heap, live),
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime; `block` must
    /// hold `cap * dims` floats and `ids` at least `cap` entries.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_impl<const D: usize, F: Fn(u64) -> bool>(
        block: &[f32],
        ids: &[u64],
        cap: usize,
        dims: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: F,
    ) -> ScanStats {
        let dims = if D > 0 { D } else { dims };
        debug_assert!(dims <= MAX_DIMS);
        debug_assert!(block.len() >= cap * dims);
        let mut qv = [_mm256_setzero_ps(); MAX_DIMS];
        for d in 0..dims {
            qv[d] = _mm256_set1_ps(q[d]);
        }
        let mut stats = ScanStats::default();
        let base = block.as_ptr();
        let mut j = 0;
        while j < cap {
            let mut acc = _mm256_setzero_ps();
            // When D > 0 the trip count is a constant and LLVM fully
            // unrolls this loop.
            for (d, &qd) in qv.iter().enumerate().take(dims) {
                let x = _mm256_loadu_ps(base.add(d * cap + j));
                let diff = _mm256_sub_ps(qd, x);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
            }
            let bound = _mm256_set1_ps(heap.bound_sq());
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(acc, bound);
            let mut mask = _mm256_movemask_ps(lt) as u32;
            if mask == 0 {
                stats.pruned_blocks += 1;
            } else {
                let mut buf = [0.0f32; LANE];
                _mm256_storeu_ps(buf.as_mut_ptr(), acc);
                // lanes in ascending index order — same tie-breaking as
                // the scalar scan; offer() re-checks the bound
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    if live(ids[j + i]) && heap.offer(buf[i], ids[j + i]) {
                        stats.accepted += 1;
                    }
                }
            }
            j += LANE;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_one(dims: usize, pts: &[Vec<f32>]) -> (PackedLeaves, u32, usize) {
        let mut pl = PackedLeaves::new(dims);
        let base = pl.push_leaf(pts.len(), |i, d| pts[i][d], |i| i as u64 * 10);
        let cap = padded(pts.len());
        (pl, base, cap)
    }

    #[test]
    fn padding_rounds_to_lane() {
        assert_eq!(padded(1), LANE);
        assert_eq!(padded(8), 8);
        assert_eq!(padded(9), 16);
        assert_eq!(padded(32), 32);
        assert_eq!(padded(33), 40);
    }

    #[test]
    fn pack_and_ids() {
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let (pl, base, cap) = pack_one(2, &pts);
        assert_eq!(base, 0);
        assert_eq!(cap, 8);
        assert_eq!(pl.padded_len(), 8);
        assert_eq!(&pl.ids()[..3], &[0, 10, 20]);
        assert!(pl.ids()[3..].iter().all(|&i| i == u64::MAX));
    }

    #[test]
    fn distances_match_manual_and_padding_is_infinite() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0]];
        let (pl, base, cap) = pack_one(2, &pts);
        let mut out = Vec::new();
        pl.distances(base as usize, cap, &[0.0, 0.0], &mut out);
        assert_eq!(out.len(), cap);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 25.0);
        assert!(out[2..].iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn kernels_agree_across_dims() {
        // the specialized 2-D/3-D kernels must match the generic one
        for dims in [2usize, 3, 5, 10, 15] {
            let n = 13;
            let pts: Vec<Vec<f32>> = (0..n)
                .map(|i| (0..dims).map(|d| (i * 7 + d * 3) as f32 * 0.25).collect())
                .collect();
            let (pl, base, cap) = pack_one(dims, &pts);
            let q: Vec<f32> = (0..dims).map(|d| d as f32 * 0.5 + 1.0).collect();
            let mut out = Vec::new();
            pl.distances(base as usize, cap, &q, &mut out);
            for (i, p) in pts.iter().enumerate() {
                let manual: f32 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                assert!((out[i] - manual).abs() < 1e-4, "dims={dims} i={i}");
            }
        }
    }

    #[test]
    fn multiple_buckets_are_contiguous() {
        let mut pl = PackedLeaves::new(3);
        let b1 = pl.push_leaf(5, |i, d| (i + d) as f32, |i| i as u64);
        let b2 = pl.push_leaf(9, |i, d| (i * d) as f32, |i| 100 + i as u64);
        assert_eq!(b1, 0);
        assert_eq!(b2 as usize, padded(5));
        assert_eq!(pl.padded_len(), padded(5) + padded(9));
        // second bucket distances are self-consistent
        let mut out = Vec::new();
        pl.distances(b2 as usize, padded(9), &[0.0, 0.0, 0.0], &mut out);
        // member 2 of bucket 2 is (0, 2, 4): dist² = 20
        assert_eq!(out[2], 20.0);
    }

    #[test]
    fn memory_bytes_counts_padding() {
        let mut pl = PackedLeaves::new(2);
        pl.push_leaf(1, |_, _| 0.0, |_| 0);
        assert_eq!(pl.memory_bytes(), LANE * 2 * 4 + LANE * 8);
    }

    /// Reference implementation of scan_and_offer_filtered: the two-pass
    /// scalar kernel (`distances()` + offer loop over live ids).
    fn scalar_scan(
        pl: &PackedLeaves,
        base: usize,
        cap: usize,
        q: &[f32],
        heap: &mut KnnHeap,
        live: impl Fn(u64) -> bool,
    ) -> u32 {
        let mut out = Vec::new();
        pl.distances(base, cap, q, &mut out);
        let ids = &pl.ids()[base..base + cap];
        let mut accepted = 0;
        for i in 0..cap {
            if out[i] < heap.bound_sq() && live(ids[i]) && heap.offer(out[i], ids[i]) {
                accepted += 1;
            }
        }
        accepted
    }

    fn sorted(heap: KnnHeap) -> Vec<(f32, u64)> {
        heap.into_sorted()
            .iter()
            .map(|x| (x.dist_sq, x.id))
            .collect()
    }

    #[test]
    fn fused_kernels_bit_identical_to_scalar_reference() {
        for dims in 1..=16usize {
            for n in [1usize, 7, 8, 9, 27, 32] {
                let pts: Vec<Vec<f32>> = (0..n)
                    .map(|i| {
                        (0..dims)
                            .map(|d| ((i * 13 + d * 7) % 31) as f32 * 0.37 - 4.0)
                            .collect()
                    })
                    .collect();
                let (pl, base, cap) = pack_one(dims, &pts);
                let base = base as usize;
                for k in [1usize, 3, 64] {
                    let q: Vec<f32> = (0..dims).map(|d| (d as f32) * 0.71 - 1.0).collect();
                    let mut h_plain = KnnHeap::new(k);
                    let a_plain = pl.scan_and_offer(base, cap, &q, &mut h_plain).accepted;
                    let plain = sorted(h_plain);
                    // the id holding the last slot unfiltered (ids are i × 10)
                    let kth = plain.last().expect("n ≥ 1").1;
                    let filters: [(&str, &dyn Fn(u64) -> bool); 4] = [
                        ("none", &|_| true),
                        ("some", &|id| id % 30 != 0),
                        ("all", &|_| false),
                        ("kth", &|id| id != kth),
                    ];
                    for (name, live) in filters {
                        let at = format!("dims={dims} n={n} k={k} filter={name}");
                        let mut h_ref = KnnHeap::new(k);
                        let mut h_auto = KnnHeap::new(k);
                        let mut h_port = KnnHeap::new(k);
                        let a_ref = scalar_scan(&pl, base, cap, &q, &mut h_ref, live);
                        let s_auto = pl.scan_and_offer_filtered(base, cap, &q, &mut h_auto, live);
                        let s_port = pl.scan_portable(base, cap, &q, &mut h_port, live);
                        assert_eq!(a_ref, s_auto.accepted, "{at}");
                        assert_eq!(a_ref, s_port.accepted, "{at}");
                        let r = sorted(h_ref);
                        assert_eq!(r, sorted(h_auto), "avx2 {at}");
                        assert_eq!(r, sorted(h_port), "portable {at}");
                        assert!(r.iter().all(|&(_, id)| live(id)), "{at}");
                        match name {
                            "none" => {
                                assert_eq!(r, plain, "{at}");
                                assert_eq!(a_ref, a_plain, "{at}");
                            }
                            "all" => assert!(r.is_empty(), "{at}"),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_respects_preseeded_bound_and_counts_pruned_blocks() {
        // all points far from q, tight radius: every block prunes in-register
        let pts: Vec<Vec<f32>> = (0..32).map(|i| vec![100.0 + i as f32, 100.0]).collect();
        let (pl, base, cap) = pack_one(2, &pts);
        let mut heap = KnnHeap::with_radius_sq(4, 1.0);
        let stats = pl.scan_and_offer(base as usize, cap, &[0.0, 0.0], &mut heap);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.pruned_blocks as usize, cap / LANE);
        assert!(heap.is_empty());
    }

    #[test]
    fn dims_beyond_max_take_the_portable_path_on_any_cpu() {
        // PackedLeaves::new is unvalidated; a 20-D layout must behave the
        // same (and not panic) whether or not the host has AVX2
        let dims = 20;
        let pts: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..dims).map(|d| (i * dims + d) as f32 * 0.5).collect())
            .collect();
        let (pl, base, cap) = pack_one(dims, &pts);
        let q: Vec<f32> = (0..dims).map(|d| d as f32).collect();
        let mut h_auto = KnnHeap::new(3);
        let mut h_ref = KnnHeap::new(3);
        pl.scan_and_offer(base as usize, cap, &q, &mut h_auto);
        scalar_scan(&pl, base as usize, cap, &q, &mut h_ref, |_| true);
        assert_eq!(sorted(h_auto), sorted(h_ref));
    }

    #[test]
    fn fused_kernel_ties_keep_first_arrival() {
        // duplicate coordinates: strict-< means the earliest id wins
        let pts: Vec<Vec<f32>> = (0..12).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let (pl, base, cap) = pack_one(3, &pts);
        let mut h_fused = KnnHeap::new(4);
        let mut h_ref = KnnHeap::new(4);
        pl.scan_and_offer(base as usize, cap, &[1.0, 2.0, 3.0], &mut h_fused);
        scalar_scan(
            &pl,
            base as usize,
            cap,
            &[1.0, 2.0, 3.0],
            &mut h_ref,
            |_| true,
        );
        let f: Vec<u64> = h_fused.into_sorted().iter().map(|n| n.id).collect();
        let r: Vec<u64> = h_ref.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(f, r);
        assert_eq!(f, vec![0, 10, 20, 30]);
    }
}
