//! Exact brute-force KNN — the ground truth.
//!
//! Scans every point per query. Offers points in ascending id order, so
//! distance ties resolve identically to PANDA's strict-`<` heap rule —
//! which is what lets the test suite compare results bit-for-bit.

use panda_core::engine::{NeighborTable, NnBackend, QueryRequest, QueryResponse};
use panda_core::{KnnHeap, Neighbor, PandaError, PointSet, QueryCounters, Result};
use rayon::prelude::*;

/// Brute-force scanner over an owned copy of the point set.
#[derive(Clone, Debug)]
pub struct BruteForce {
    points: PointSet,
}

impl BruteForce {
    /// Copy the point set. The copy is the only cost: there is no
    /// acceleration structure to build — that is the point.
    pub fn new(points: &PointSet) -> Self {
        Self {
            points: points.clone(),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `k` nearest neighbors of `q`, ascending distance.
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.query_radius(q, k, f32::INFINITY)
    }

    /// `k` nearest neighbors strictly within `radius`.
    pub fn query_radius(&self, q: &[f32], k: usize, radius: f32) -> Result<Vec<Neighbor>> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if q.len() != self.points.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.points.dims(),
                got: q.len(),
            });
        }
        let r_sq = if radius.is_finite() {
            radius * radius
        } else {
            f32::INFINITY
        };
        let mut heap = KnnHeap::with_radius_sq(k, r_sq);
        for i in 0..self.points.len() {
            heap.offer(self.points.dist_sq_to(q, i), self.points.id(i));
        }
        Ok(heap.into_sorted())
    }
}

impl NnBackend for BruteForce {
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = std::time::Instant::now();
        req.validate()?;
        let queries = req.queries();
        if queries.dims() != self.points.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.points.dims(),
                got: queries.dims(),
            });
        }
        let (k, r_sq) = (req.k(), req.radius_sq());
        let run_one = |i: usize, c: &mut QueryCounters| {
            c.queries += 1;
            c.points_scanned += self.points.len() as u64;
            let mut heap = KnnHeap::with_radius_sq(k, r_sq);
            for j in 0..self.points.len() {
                if heap.offer(
                    self.points.dist_sq_to(queries.point(i), j),
                    self.points.id(j),
                ) {
                    c.heap_ops += 1;
                }
            }
            heap.into_sorted()
        };
        let mut counters = QueryCounters::default();
        let mut table = NeighborTable::with_capacity(queries.len(), k);
        if req.parallel().unwrap_or(false) {
            let rows: Vec<(Vec<Neighbor>, QueryCounters)> = (0..queries.len())
                .into_par_iter()
                .map(|i| {
                    let mut c = QueryCounters::default();
                    (run_one(i, &mut c), c)
                })
                .collect();
            for (row, c) in rows {
                counters.add(&c);
                table.push_row(&row);
            }
        } else {
            for i in 0..queries.len() {
                table.push_row(&run_one(i, &mut counters));
            }
        }
        Ok(QueryResponse::local(
            table,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dims(&self) -> usize {
        self.points.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> PointSet {
        PointSet::from_coords(1, (0..n).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn finds_the_closest() {
        let ps = grid_1d(100);
        let bf = BruteForce::new(&ps);
        let r = bf.query(&[42.3], 3).unwrap();
        let ids: Vec<u64> = r.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![42, 43, 41]);
    }

    #[test]
    fn radius_limits() {
        let ps = grid_1d(100);
        let bf = BruteForce::new(&ps);
        let r = bf.query_radius(&[50.0], 10, 1.5).unwrap();
        // strictly within 1.5 of 50: 49, 50, 51
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ps = crate::tests_support::random_ps(2000, 3, 1);
        let qs = crate::tests_support::random_ps(50, 3, 2);
        let bf = BruteForce::new(&ps);
        let a = NnBackend::query(&bf, &QueryRequest::knn(&qs, 5)).unwrap();
        let b = NnBackend::query(&bf, &QueryRequest::knn(&qs, 5).with_parallel(true)).unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn backend_trait_surface() {
        let ps = grid_1d(64);
        let backend: Box<dyn NnBackend> = Box::new(BruteForce::new(&ps));
        assert_eq!(backend.name(), "brute-force");
        assert_eq!(backend.len(), 64);
        assert_eq!(backend.dims(), 1);
        let qs = PointSet::from_coords(1, vec![10.2]).unwrap();
        let res = backend
            .query(&QueryRequest::knn(&qs, 2).with_radius(1.0))
            .unwrap();
        // strictly within 1.0 of 10.2: only 10 and 11
        let ids: Vec<u64> = res.neighbors.row(0).iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![10, 11]);
    }

    #[test]
    fn validates() {
        let ps = grid_1d(10);
        let bf = BruteForce::new(&ps);
        assert!(matches!(bf.query(&[0.0], 0), Err(PandaError::ZeroK)));
        assert!(matches!(
            bf.query(&[0.0, 0.0], 1),
            Err(PandaError::DimsMismatch { .. })
        ));
        let qs = PointSet::from_coords(1, vec![1.0]).unwrap();
        assert!(matches!(
            NnBackend::query(&bf, &QueryRequest::knn(&qs, 3).with_radius(-2.0)),
            Err(PandaError::BadRadius { .. })
        ));
    }
}
