//! Service tuning knobs: batch cap, queue bounds, overflow policy.

use panda_core::{PandaError, Result};

/// What `submit` does when the bounded queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the submitting thread until queue space frees up — natural
    /// backpressure for in-process clients that can afford to wait.
    #[default]
    Block,
    /// Fail fast with [`PandaError::Overloaded`] so the caller can shed
    /// load, retry with backoff, or divert traffic.
    Reject,
}

/// Builder-style configuration for a [`crate::QueryService`].
///
/// Micro-batching is work-conserving and needs no tuning: the scheduler
/// sleeps only while the queue is empty, and each batch is whatever
/// queued while the previous batch ran, capped at `max_batch`. An idle
/// service therefore runs a lone submission at once, and batch size
/// grows with load by itself; `max_batch` bounds memory and keeps heavy
/// load flowing in locality-friendly chunks.
///
/// ```
/// use panda_service::{OverflowPolicy, ServiceConfig};
///
/// let cfg = ServiceConfig::default()
///     .with_max_batch(128)
///     .with_queue_capacity(4096)
///     .with_overflow(OverflowPolicy::Reject);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Cap on the query points of one dispatched batch (a single
    /// submission larger than the cap still dispatches whole).
    pub max_batch: usize,
    /// Bounded-queue capacity in query points; `submit` applies the
    /// [`OverflowPolicy`] beyond it.
    pub queue_capacity: usize,
    /// Behavior when the queue is full.
    pub overflow: OverflowPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            queue_capacity: 8192,
            overflow: OverflowPolicy::Block,
        }
    }
}

impl ServiceConfig {
    /// Set the batch cap (query points per micro-batch).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Set the bounded-queue capacity (query points).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the overflow policy.
    #[must_use]
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }

    /// Validate: `max_batch ≥ 1`, `queue_capacity ≥ max_batch` (a full
    /// batch must be queueable).
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(PandaError::BadConfig("max_batch must be ≥ 1".into()));
        }
        if self.queue_capacity < self.max_batch {
            return Err(PandaError::BadConfig(format!(
                "queue_capacity ({}) must be at least max_batch ({})",
                self.queue_capacity, self.max_batch
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_builders_compose() {
        let cfg = ServiceConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.overflow, OverflowPolicy::Block);
        let cfg = cfg
            .with_max_batch(64)
            .with_queue_capacity(64)
            .with_overflow(OverflowPolicy::Reject);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_batch, 64);
        assert_eq!(cfg.overflow, OverflowPolicy::Reject);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ServiceConfig::default()
            .with_max_batch(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_max_batch(100)
            .with_queue_capacity(10)
            .validate()
            .is_err());
    }
}
