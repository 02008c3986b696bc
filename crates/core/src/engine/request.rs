//! The unified query request: one validated entry point for kNN and
//! radius-limited kNN against every backend.

use std::time::Duration;

use panda_obs::TraceId;

use crate::config::QueryOrder;
use crate::error::{PandaError, Result};
use crate::point::PointSet;

/// A batch of nearest-neighbor queries — what to find, not how to find
/// it — built fluently:
///
/// ```
/// use panda_core::engine::QueryRequest;
/// use panda_core::PointSet;
///
/// let queries = PointSet::from_coords(3, vec![0.1, 0.2, 0.3])?;
/// let req = QueryRequest::knn(&queries, 5).with_radius(0.25);
/// assert_eq!(req.k(), 5);
/// req.validate()?;
/// # Ok::<(), panda_core::PandaError>(())
/// ```
///
/// A request carries the queries, `k`, an optional radius and an optional
/// deadline. The exact traversal bound, batching, pipelining and per-rank
/// bounding-box routing are the engine's own and apply to every request.
/// Two execution overrides remain, `order` and `parallel`; a backend with
/// no use for one ignores it, never an error — the same request can be
/// replayed against every [`crate::engine::NnBackend`].
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest<'a> {
    queries: &'a PointSet,
    k: usize,
    radius: Option<f32>,
    order: QueryOrder,
    parallel: Option<bool>,
    deadline: Option<Duration>,
    trace: TraceId,
}

impl<'a> QueryRequest<'a> {
    /// A plain k-nearest-neighbor request.
    pub fn knn(queries: &'a PointSet, k: usize) -> Self {
        Self {
            queries,
            k,
            radius: None,
            order: QueryOrder::default(),
            parallel: None,
            deadline: None,
            trace: TraceId::NONE,
        }
    }

    /// Limit the search to neighbors strictly within `radius` (hybrid
    /// radius-limited kNN). Must be positive and finite — validated by
    /// [`Self::validate`].
    #[must_use]
    pub fn with_radius(mut self, radius: f32) -> Self {
        self.radius = Some(radius);
        self
    }

    /// Override the batch execution order. The default,
    /// [`QueryOrder::Morton`], lets the engine pick a spatially coherent
    /// order for each batch; [`QueryOrder::Input`] runs it exactly as
    /// given. Either way results are identical.
    #[must_use]
    pub fn with_order(mut self, order: QueryOrder) -> Self {
        self.order = order;
        self
    }

    /// Override thread-parallel batch execution (local backends). The
    /// default belongs to the backend: `KnnIndex` decides per batch (a
    /// batch larger than one block fans out over the pool, a smaller one
    /// runs on the calling thread) and `false` forces one inline block;
    /// the baselines stay serial unless this is set to `true`. Either way
    /// results are identical.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// Give the request a deadline, measured from submission. A query
    /// service sheds submissions whose deadline has already elapsed when
    /// their micro-batch is flushed, resolving the ticket with
    /// [`PandaError::DeadlineExceeded`] instead of burning backend time
    /// on an answer the client no longer wants. Direct (non-service)
    /// backends ignore the knob, like any other unknown-to-a-backend
    /// option.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a sampled pipeline [`TraceId`] (see `panda_obs::trace`).
    /// Backends that honor it record per-stage spans for this batch;
    /// the default [`TraceId::NONE`] records nothing.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = trace;
        self
    }

    /// The pipeline trace id carried by this request.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The query points.
    pub fn queries(&self) -> &'a PointSet {
        self.queries
    }

    /// Number of neighbors requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Optional radius limit.
    pub fn radius(&self) -> Option<f32> {
        self.radius
    }

    /// The radius limit as a squared bound (`∞` when unbounded) — what
    /// traversal heaps consume.
    pub fn radius_sq(&self) -> f32 {
        self.radius.map_or(f32::INFINITY, |r| r * r)
    }

    /// Requested execution order.
    pub fn order(&self) -> QueryOrder {
        self.order
    }

    /// Requested parallelism override, if any.
    pub fn parallel(&self) -> Option<bool> {
        self.parallel
    }

    /// Optional deadline, relative to submission time.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Validate the request: `k ≥ 1` ([`PandaError::ZeroK`]), a radius —
    /// when given — positive and finite ([`PandaError::BadRadius`]), and
    /// finite query coordinates.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(PandaError::ZeroK);
        }
        if let Some(r) = self.radius {
            if !r.is_finite() || r <= 0.0 {
                return Err(PandaError::BadRadius { radius: r });
            }
        }
        self.queries.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs() -> PointSet {
        PointSet::from_coords(2, vec![0.0, 0.0, 1.0, 1.0]).unwrap()
    }

    #[test]
    fn builder_composes_and_validates() {
        let queries = qs();
        let req = QueryRequest::knn(&queries, 3)
            .with_radius(2.5)
            .with_order(QueryOrder::Input)
            .with_parallel(true);
        assert!(req.validate().is_ok());
        assert_eq!(req.k(), 3);
        assert_eq!(req.radius(), Some(2.5));
        assert_eq!(req.radius_sq(), 6.25);
        assert_eq!(req.order(), QueryOrder::Input);
        assert_eq!(req.parallel(), Some(true));
        // the default is the locality order, and parallelism the engine
        // picks per batch
        let plain = QueryRequest::knn(&queries, 3);
        assert_eq!(plain.order(), QueryOrder::Morton);
        assert_eq!(plain.parallel(), None);
    }

    #[test]
    fn zero_k_rejected() {
        let queries = qs();
        assert!(matches!(
            QueryRequest::knn(&queries, 0).validate(),
            Err(PandaError::ZeroK)
        ));
    }

    #[test]
    fn bad_radii_rejected_with_dedicated_variant() {
        let queries = qs();
        for r in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0, 0.0] {
            let err = QueryRequest::knn(&queries, 3)
                .with_radius(r)
                .validate()
                .unwrap_err();
            match err {
                PandaError::BadRadius { radius } => {
                    assert!(radius.is_nan() == r.is_nan() && (r.is_nan() || radius == r));
                }
                other => panic!("expected BadRadius for {r}, got {other:?}"),
            }
            // the message names the offending value and the remedy
            let msg = PandaError::BadRadius { radius: r }.to_string();
            assert!(msg.contains("positive finite"), "{msg}");
        }
    }

    #[test]
    fn unbounded_radius_is_infinity_squared() {
        let queries = qs();
        let req = QueryRequest::knn(&queries, 1);
        assert_eq!(req.radius(), None);
        assert_eq!(req.radius_sq(), f32::INFINITY);
    }

    #[test]
    fn deadline_is_carried_and_optional() {
        let queries = qs();
        assert_eq!(QueryRequest::knn(&queries, 1).deadline(), None);
        let req = QueryRequest::knn(&queries, 1).with_deadline(Duration::from_millis(250));
        assert_eq!(req.deadline(), Some(Duration::from_millis(250)));
        assert!(req.validate().is_ok());
        // the request stays Copy with the knob set
        let copy = req;
        assert_eq!(copy.deadline(), req.deadline());
    }

    #[test]
    fn trace_id_is_carried_and_defaults_to_none() {
        let queries = qs();
        let req = QueryRequest::knn(&queries, 1);
        assert!(!req.trace().is_sampled());
        let id = TraceId::from_raw(42);
        let req = req.with_trace(id);
        assert_eq!(req.trace(), id);
    }
}
