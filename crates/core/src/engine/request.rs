//! The unified query request: one validated entry point for kNN,
//! radius-limited kNN, and the execution knobs that used to be scattered
//! across `query_batch` arguments and `QueryConfig` fields.

use std::time::Duration;

use panda_obs::TraceId;

use crate::config::{BoundMode, QueryConfig, QueryOrder};
use crate::error::{PandaError, Result};
use crate::point::PointSet;

/// A batch of nearest-neighbor queries plus every knob a backend may
/// honor, built fluently:
///
/// ```
/// use panda_core::engine::QueryRequest;
/// use panda_core::{PointSet, QueryOrder};
///
/// let queries = PointSet::from_coords(3, vec![0.1, 0.2, 0.3])?;
/// let req = QueryRequest::knn(&queries, 5)
///     .with_radius(0.25)
///     .with_order(QueryOrder::Morton);
/// assert_eq!(req.k(), 5);
/// req.validate()?;
/// # Ok::<(), panda_core::PandaError>(())
/// ```
///
/// Local backends use `k`, `radius`, `order`, `bound_mode`, and
/// `parallel`; distributed backends additionally honor `batch_size`,
/// `pipeline`, and `bbox_routing`. Unknown-to-a-backend knobs are
/// ignored, never an error — the same request can be replayed against
/// every [`crate::engine::NnBackend`].
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest<'a> {
    queries: &'a PointSet,
    k: usize,
    radius: Option<f32>,
    order: QueryOrder,
    bound_mode: BoundMode,
    parallel: Option<bool>,
    batch_size: usize,
    pipeline: bool,
    bbox_routing: bool,
    deadline: Option<Duration>,
    trace: TraceId,
}

impl<'a> QueryRequest<'a> {
    /// A plain k-nearest-neighbor request with default execution knobs.
    pub fn knn(queries: &'a PointSet, k: usize) -> Self {
        let defaults = QueryConfig::default();
        Self {
            queries,
            k,
            radius: None,
            order: defaults.order,
            bound_mode: BoundMode::default(),
            parallel: None,
            batch_size: defaults.batch_size,
            pipeline: defaults.pipeline,
            bbox_routing: defaults.bbox_routing,
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

    /// Override the traversal bound computation.
    #[must_use]
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        self.bound_mode = mode;
        self
    }

    /// Override thread-parallel batch execution (local backends;
    /// default: whatever the index was built with).
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// Queries per pipeline step (distributed backends).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Model software pipelining in reported times (distributed
    /// backends).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Refine remote-rank selection with per-rank bounding boxes
    /// (distributed backends).
    #[must_use]
    pub fn with_bbox_routing(mut self, bbox: bool) -> Self {
        self.bbox_routing = bbox;
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

    /// Traversal bound computation.
    pub fn bound_mode(&self) -> BoundMode {
        self.bound_mode
    }

    /// Requested parallelism override, if any.
    pub fn parallel(&self) -> Option<bool> {
        self.parallel
    }

    /// Distributed pipeline step size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Whether reported distributed times model software pipelining.
    pub fn pipeline(&self) -> bool {
        self.pipeline
    }

    /// Whether distributed routing refines with per-rank bounding boxes.
    pub fn bbox_routing(&self) -> bool {
        self.bbox_routing
    }

    /// Optional deadline, relative to submission time.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Validate the request: `k ≥ 1` ([`PandaError::ZeroK`]), a radius —
    /// when given — positive and finite ([`PandaError::BadRadius`]),
    /// `batch_size ≥ 1`, and finite query coordinates.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(PandaError::ZeroK);
        }
        if let Some(r) = self.radius {
            if !r.is_finite() || r <= 0.0 {
                return Err(PandaError::BadRadius { radius: r });
            }
        }
        if self.batch_size == 0 {
            return Err(PandaError::BadConfig("batch_size must be ≥ 1".into()));
        }
        self.queries.validate()
    }

    /// Lift a distributed-engine [`QueryConfig`] into a request over
    /// `queries` (the inverse of [`Self::to_query_config`]; used by
    /// config-driven harnesses).
    pub fn from_config(queries: &'a PointSet, cfg: &QueryConfig) -> Self {
        let mut req = Self::knn(queries, cfg.k)
            .with_order(cfg.order)
            .with_bound_mode(cfg.bound_mode)
            .with_batch_size(cfg.batch_size)
            .with_pipeline(cfg.pipeline)
            .with_bbox_routing(cfg.bbox_routing);
        // `+inf` is the config's "no limit" sentinel and maps to no radius;
        // every other value (including NaN / -inf / ≤ 0) is carried over so
        // `validate` rejects exactly what `QueryConfig::validate` rejects.
        if cfg.initial_radius != f32::INFINITY {
            req = req.with_radius(cfg.initial_radius);
        }
        req
    }

    /// Lower the request into the distributed engine's [`QueryConfig`].
    pub fn to_query_config(&self) -> QueryConfig {
        QueryConfig {
            k: self.k,
            batch_size: self.batch_size,
            pipeline: self.pipeline,
            bbox_routing: self.bbox_routing,
            bound_mode: self.bound_mode,
            initial_radius: self.radius.unwrap_or(f32::INFINITY),
            order: self.order,
        }
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
            .with_order(QueryOrder::Morton)
            .with_bound_mode(BoundMode::PaperScalar)
            .with_parallel(true)
            .with_batch_size(64)
            .with_pipeline(false)
            .with_bbox_routing(false);
        assert!(req.validate().is_ok());
        assert_eq!(req.k(), 3);
        assert_eq!(req.radius(), Some(2.5));
        assert_eq!(req.radius_sq(), 6.25);
        assert_eq!(req.order(), QueryOrder::Morton);
        assert_eq!(req.bound_mode(), BoundMode::PaperScalar);
        assert_eq!(req.parallel(), Some(true));
        let cfg = req.to_query_config();
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.batch_size, 64);
        assert!(!cfg.pipeline);
        assert!(!cfg.bbox_routing);
        assert_eq!(cfg.initial_radius, 2.5);
        assert_eq!(cfg.order, QueryOrder::Morton);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn order_round_trips_through_query_config() {
        let queries = qs();
        // both variants survive the round trip — an explicit `Input` too
        for order in [QueryOrder::Input, QueryOrder::Morton] {
            let cfg = QueryConfig {
                order,
                ..QueryConfig::with_k(2)
            };
            let req = QueryRequest::from_config(&queries, &cfg);
            assert_eq!(req.order(), order);
            assert_eq!(req.to_query_config(), cfg);
        }
        // the default is the locality order, on both sides
        assert_eq!(QueryRequest::knn(&queries, 2).order(), QueryOrder::Morton);
        let req = QueryRequest::from_config(&queries, &QueryConfig::with_k(2));
        assert_eq!(req.order(), QueryOrder::Morton);
        assert_eq!(req.to_query_config(), QueryConfig::with_k(2));
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
        assert_eq!(req.to_query_config().initial_radius, f32::INFINITY);
    }

    #[test]
    fn from_config_round_trips_and_preserves_invalid_radii() {
        let queries = qs();
        // valid finite radius round-trips
        let cfg = QueryConfig {
            initial_radius: 2.5,
            ..QueryConfig::with_k(3)
        };
        let req = QueryRequest::from_config(&queries, &cfg);
        assert_eq!(req.radius(), Some(2.5));
        assert_eq!(req.to_query_config(), cfg);
        // +inf sentinel means "no radius"
        let unbounded = QueryConfig::with_k(3);
        let req = QueryRequest::from_config(&queries, &unbounded);
        assert_eq!(req.radius(), None);
        assert!(req.validate().is_ok());
        // a config that QueryConfig::validate rejects must also be
        // rejected after lifting — never silently made unbounded
        for r in [f32::NAN, f32::NEG_INFINITY, -1.0, 0.0] {
            let bad = QueryConfig {
                initial_radius: r,
                ..QueryConfig::with_k(3)
            };
            assert!(bad.validate().is_err());
            assert!(matches!(
                QueryRequest::from_config(&queries, &bad).validate(),
                Err(PandaError::BadRadius { .. })
            ));
        }
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
        // trace does not leak into the engine config
        assert_eq!(req.to_query_config(), QueryConfig::with_k(1));
    }

    #[test]
    fn zero_batch_size_rejected() {
        let queries = qs();
        assert!(matches!(
            QueryRequest::knn(&queries, 1).with_batch_size(0).validate(),
            Err(PandaError::BadConfig(_))
        ));
    }
}
