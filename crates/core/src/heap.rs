//! Bounded max-heap tracking the k nearest candidates (the heap `H` of
//! Algorithm 1 in the paper).
//!
//! Distances are kept **squared** throughout the hot path; the square root
//! is taken only when results are surfaced. The heap also carries the
//! current search bound `r'²`: before it fills, the bound is the caller's
//! initial radius (∞ for plain KNN, the owner's `r'` for remote KNN); once
//! full it is the largest distance held. Offers use strict `<`, so an
//! equal-distance candidate never displaces an earlier one — this keeps
//! tie handling deterministic and identical to the brute-force reference.

/// One nearest-neighbor candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub dist_sq: f32,
    /// Global id of the data point.
    pub id: u64,
}

impl Neighbor {
    /// Euclidean distance (square root of the stored squared distance).
    #[inline]
    pub fn dist(&self) -> f32 {
        self.dist_sq.sqrt()
    }
}

/// Array-backed bounded max-heap over [`Neighbor`]s ordered by `dist_sq`.
#[derive(Clone, Debug)]
pub struct KnnHeap {
    k: usize,
    bound_sq: f32,
    items: Vec<Neighbor>,
}

impl KnnHeap {
    /// Heap for the `k` nearest neighbors with an unbounded initial radius.
    pub fn new(k: usize) -> Self {
        Self::with_radius_sq(k, f32::INFINITY)
    }

    /// Heap with an initial search bound `r'²` (radius-limited KNN; used by
    /// remote queries which carry the owner's bound).
    pub fn with_radius_sq(k: usize, radius_sq: f32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            bound_sq: radius_sq,
            items: Vec::with_capacity(k),
        }
    }

    /// Capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no candidate is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when `k` candidates are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.k
    }

    /// Current squared search bound `r'²`: any point at squared distance
    /// `≥ bound_sq()` can be pruned.
    #[inline]
    pub fn bound_sq(&self) -> f32 {
        self.bound_sq
    }

    /// Offer a candidate; returns true if it was kept. Strict `<` against
    /// the current bound.
    ///
    /// A NaN distance is rejected (debug builds assert): were it admitted,
    /// it would poison `bound_sq` — every later comparison against a NaN
    /// bound is false, so all pruning would silently switch off and
    /// [`Self::into_sorted`] would panic on the unordered distance. An
    /// infinite distance (finite coordinates whose squared distance
    /// overflows `f32`) is rejected by the ordinary bound comparison,
    /// since the bound never exceeds `+∞`.
    #[inline]
    pub fn offer(&mut self, dist_sq: f32, id: u64) -> bool {
        debug_assert!(
            !dist_sq.is_nan(),
            "NaN distance offered to KnnHeap (id {id})"
        );
        // `!(a < b)` rather than `a >= b`: NaN fails every ordered
        // comparison, so the negated form also rejects NaN in release
        // builds where the assert above compiles out.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(dist_sq < self.bound_sq) {
            return false;
        }
        if self.items.len() < self.k {
            self.items.push(Neighbor { dist_sq, id });
            self.sift_up(self.items.len() - 1);
            if self.items.len() == self.k {
                self.bound_sq = self.bound_sq.min(self.items[0].dist_sq);
            }
        } else {
            self.items[0] = Neighbor { dist_sq, id };
            self.sift_down(0);
            self.bound_sq = self.items[0].dist_sq;
        }
        true
    }

    /// Largest held distance (the heap top), if any candidate is held.
    pub fn max_dist_sq(&self) -> Option<f32> {
        self.items.first().map(|n| n.dist_sq)
    }

    /// Reset in place for a new query with capacity `k` and initial bound
    /// `radius_sq`, keeping the item buffer's allocation. This is what
    /// lets the batch engine reuse **one** heap per worker chunk instead
    /// of allocating one per query.
    #[inline]
    pub fn reset(&mut self, k: usize, radius_sq: f32) {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self.bound_sq = radius_sq;
        self.items.clear();
        self.items.reserve(k);
    }

    /// Drain into `out`, appended in ascending distance (ties by id),
    /// leaving the heap empty but with its buffer intact. The sorted
    /// order is identical to [`Self::into_sorted`]; this variant exists
    /// so a growing result buffer (the distributed engine's per-round
    /// arenas, the store's merge) can be filled without a per-query
    /// `Vec` allocation.
    pub fn append_sorted_into(&mut self, out: &mut Vec<Neighbor>) {
        sort_by_dist_then_id(&mut self.items);
        out.append(&mut self.items);
    }

    /// Drain into the front of `out` in ascending distance (ties by id)
    /// and return how many neighbors were written, leaving the heap empty
    /// but with its buffer intact. The batch engine's fixed-width rows
    /// are written this way, straight into the table's storage. Panics
    /// when `out` is shorter than [`Self::len`].
    pub fn write_sorted_into(&mut self, out: &mut [Neighbor]) -> usize {
        sort_by_dist_then_id(&mut self.items);
        let n = self.items.len();
        out[..n].copy_from_slice(&self.items);
        self.items.clear();
        n
    }

    /// Drain into a vector sorted by ascending distance (ties by id for
    /// determinism).
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        sort_by_dist_then_id(&mut self.items);
        self.items
    }

    /// Iterate the held candidates in heap order (no particular sort).
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.items.iter()
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].dist_sq > self.items[parent].dist_sq {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < n && self.items[l].dist_sq > self.items[largest].dist_sq {
                largest = l;
            }
            if r < n && self.items[r].dist_sq > self.items[largest].dist_sq {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }
}

/// Ascending distance, ties by id. An unstable sort is fine: `(dist_sq,
/// id)` is a total order over a heap's items (ids are unique), so the
/// result is deterministic.
fn sort_by_dist_then_id(items: &mut [Neighbor]) {
    items.sort_unstable_by(|a, b| {
        a.dist_sq
            .partial_cmp(&b.dist_sq)
            .expect("finite distances")
            .then(a.id.cmp(&b.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (i, d) in [9.0f32, 1.0, 5.0, 3.0, 7.0, 2.0].iter().enumerate() {
            h.offer(*d, i as u64);
        }
        let out = h.into_sorted();
        let dists: Vec<f32> = out.iter().map(|n| n.dist_sq).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn bound_shrinks_as_heap_fills() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.bound_sq(), f32::INFINITY);
        h.offer(4.0, 0);
        assert_eq!(h.bound_sq(), f32::INFINITY); // not full yet
        h.offer(9.0, 1);
        assert_eq!(h.bound_sq(), 9.0); // full: bound = max held
        h.offer(1.0, 2);
        assert_eq!(h.bound_sq(), 4.0);
        assert!(!h.offer(4.0, 3)); // strict <: equal is rejected
        assert!(h.offer(3.9, 4));
    }

    #[test]
    fn initial_radius_prunes_before_full() {
        let mut h = KnnHeap::with_radius_sq(3, 2.0);
        assert!(!h.offer(2.0, 0)); // == radius: rejected (strict)
        assert!(!h.offer(5.0, 1));
        assert!(h.offer(1.0, 2));
        assert_eq!(h.len(), 1);
        // bound stays at the radius until the heap fills
        assert_eq!(h.bound_sq(), 2.0);
    }

    #[test]
    fn radius_tighter_than_kth_is_kept_after_fill() {
        // Initial radius 1.0; three candidates below it. After filling, the
        // bound must be min(radius, kth) = kth here since all < radius.
        let mut h = KnnHeap::with_radius_sq(2, 1.0);
        h.offer(0.9, 0);
        h.offer(0.5, 1);
        assert_eq!(h.bound_sq(), 0.9);
        // And if k-th dist were above radius, bound stays at radius:
        let mut h2 = KnnHeap::with_radius_sq(2, 1.0);
        h2.offer(0.2, 0);
        h2.offer(0.999, 1);
        assert!(h2.bound_sq() <= 1.0);
    }

    #[test]
    fn equal_distances_keep_first_arrival() {
        let mut h = KnnHeap::new(1);
        assert!(h.offer(5.0, 100));
        assert!(!h.offer(5.0, 200)); // tie: first stays
        let out = h.into_sorted();
        assert_eq!(out[0].id, 100);
    }

    #[test]
    fn into_sorted_is_ascending_with_id_ties() {
        let mut h = KnnHeap::new(4);
        h.offer(2.0, 7);
        h.offer(1.0, 9);
        h.offer(2.0, 3);
        h.offer(0.5, 1);
        let out = h.into_sorted();
        let pairs: Vec<(f32, u64)> = out.iter().map(|n| (n.dist_sq, n.id)).collect();
        assert_eq!(pairs, vec![(0.5, 1), (1.0, 9), (2.0, 3), (2.0, 7)]);
    }

    #[test]
    fn write_sorted_into_fills_the_front_and_empties_the_heap() {
        let mut h = KnnHeap::new(4);
        for (d, id) in [(2.0, 7), (1.0, 9), (2.0, 3)] {
            h.offer(d, id);
        }
        let expect = h.clone().into_sorted();
        let blank = Neighbor {
            dist_sq: -1.0,
            id: 0,
        };
        let mut row = [blank; 4];
        assert_eq!(h.write_sorted_into(&mut row), 3);
        assert_eq!(&row[..3], expect.as_slice());
        assert_eq!(row[3], blank); // past the count: untouched
        assert!(h.is_empty());
    }

    #[test]
    fn matches_naive_reference_on_random_streams() {
        // xorshift-ish deterministic pseudo-random stream
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32 * 100.0
        };
        for k in [1usize, 2, 5, 16] {
            let mut h = KnnHeap::new(k);
            let mut all = Vec::new();
            for id in 0..200u64 {
                let d = next();
                all.push((d, id));
                h.offer(d, id);
            }
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect: Vec<f32> = all.iter().take(k).map(|p| p.0).collect();
            let got: Vec<f32> = h.into_sorted().iter().map(|n| n.dist_sq).collect();
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn neighbor_dist_is_sqrt() {
        let n = Neighbor {
            dist_sq: 9.0,
            id: 0,
        };
        assert_eq!(n.dist(), 3.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = KnnHeap::new(0);
    }

    /// Finite coordinates can still square-overflow to `+∞` (e.g. two
    /// points at ±3e38 in one dimension): the ordinary bound comparison
    /// must reject it even while the heap is unbounded, and sorting must
    /// not panic afterwards.
    #[test]
    fn infinite_distance_is_rejected_not_poisoning() {
        let mut h = KnnHeap::new(2);
        assert!(!h.offer(f32::INFINITY, 0)); // ∞ ≥ ∞ bound: rejected
        assert!(h.offer(1.0, 1));
        assert!(!h.offer(f32::INFINITY, 2));
        assert!(h.offer(2.0, 3));
        assert_eq!(h.bound_sq(), 2.0);
        assert!(!h.offer(f32::INFINITY, 4));
        let out = h.into_sorted(); // must not panic on unordered values
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    /// Release builds must reject NaN outright instead of letting it
    /// poison the bound (debug builds assert instead — see below).
    #[cfg(not(debug_assertions))]
    #[test]
    fn nan_distance_is_rejected_in_release() {
        let mut h = KnnHeap::new(2);
        assert!(!h.offer(f32::NAN, 0));
        assert!(h.offer(1.0, 1));
        assert!(h.offer(2.0, 2));
        assert!(!h.offer(f32::NAN, 3));
        // the bound is still the real k-th distance, so pruning works
        assert_eq!(h.bound_sq(), 2.0);
        assert!(!h.offer(3.0, 4));
        let out = h.into_sorted(); // no "finite distances" panic
        assert_eq!(out.len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NaN distance offered")]
    fn nan_distance_asserts_in_debug() {
        let mut h = KnnHeap::new(2);
        h.offer(f32::NAN, 0);
    }

    #[test]
    fn fewer_than_k_available() {
        let mut h = KnnHeap::new(10);
        h.offer(1.0, 1);
        h.offer(2.0, 2);
        assert_eq!(h.len(), 2);
        assert!(!h.is_full());
        assert_eq!(h.into_sorted().len(), 2);
    }
}
