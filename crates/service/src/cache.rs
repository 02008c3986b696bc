//! Hot-query result cache: an LRU memo of whole submissions, keyed on
//! everything that determines a submission's answer.
//!
//! Serving workloads repeat themselves — the same probe points, health
//! checks, and popular queries arrive over and over. When the cache is
//! enabled ([`crate::ServiceConfig::with_cache_capacity`]), `submit`
//! checks it before queueing: a hit resolves the ticket immediately with
//! a zero-copy clone of the memoized reply (the `Arc`'d batch response),
//! skipping the queue, the scheduler, and the backend entirely.
//!
//! # Exactness
//!
//! The key is [`CacheKey`]: the submission's coordinate **bit patterns**
//! (not float equality — `-0.0` and `NaN` payloads are distinct keys,
//! so no float-comparison edge case can alias two submissions), `k`,
//! and the radius limit's bit pattern. Two
//! submissions with equal keys are answered identically by every
//! backend in the workspace, so serving the memo is bit-for-bit
//! indistinguishable from re-executing.
//!
//! # Invalidation
//!
//! Every probe carries the backend's current
//! [`data_epoch`](panda_core::engine::NnBackend::data_epoch), and an
//! epoch change clears the whole cache before the probe (mutable
//! backends advance their epoch on every write). Entries are inserted
//! with the epoch sampled **before** their batch executed; an insert
//! whose epoch is already stale is dropped rather than poisoning the
//! cache with a result that may predate a write. Zero staleness, but a
//! steady write trickle keeps the cache permanently empty.

use std::collections::HashMap;
use std::sync::Arc;

use panda_core::PointSet;

use crate::ticket::TicketReply;

/// Everything that determines a submission's answer, hashed bitwise.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Bit patterns of the submission's query coordinates, in order.
    coords_bits: Box<[u32]>,
    k: usize,
    radius_bits: Option<u32>,
}

impl CacheKey {
    pub(crate) fn new(queries: &PointSet, k: usize, radius_bits: Option<u32>) -> Self {
        Self {
            coords_bits: queries.coords().iter().map(|c| c.to_bits()).collect(),
            k,
            radius_bits,
        }
    }
}

const NIL: usize = usize::MAX;

/// One resident entry, intrusively linked into the recency list.
struct Slot {
    key: Arc<CacheKey>,
    reply: TicketReply,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from [`CacheKey`] to a memoized
/// [`TicketReply`]. Recency is an intrusive doubly-linked list threaded
/// through a slab of slots — hits and inserts are O(1) with no
/// per-operation allocation beyond the key itself.
pub(crate) struct ResultCache {
    capacity: usize,
    /// Backend data epoch the resident entries were computed against.
    epoch: u64,
    map: HashMap<Arc<CacheKey>, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot (`NIL` when empty) — the eviction end.
    tail: usize,
}

impl ResultCache {
    /// `capacity` must be ≥ 1 (capacity 0 means the service holds no
    /// cache at all).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        Self {
            capacity,
            epoch: 0,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Probe for `key` against the backend's current data epoch. An
    /// epoch change invalidates everything resident (the data moved
    /// under the memos) before the probe. A hit refreshes recency.
    pub(crate) fn lookup(&mut self, key: &CacheKey, now_epoch: u64) -> Option<TicketReply> {
        if now_epoch != self.epoch {
            self.clear();
            self.epoch = now_epoch;
            return None;
        }
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx].as_ref().expect("mapped slot").reply.clone())
    }

    /// Memoize `reply` for `key`. `sampled_epoch` is the backend epoch
    /// read when the submission was accepted — if the cache has since
    /// synced to a newer epoch, the result may predate a write and is
    /// dropped instead of inserted.
    pub(crate) fn insert(&mut self, key: Arc<CacheKey>, reply: TicketReply, sampled_epoch: u64) {
        if sampled_epoch != self.epoch {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            // A concurrent identical submission raced us here. Both
            // computed against the same data (same key ⇒ same answer),
            // so keep the resident entry.
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.remove(lru);
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(Slot {
            key: Arc::clone(&key),
            reply,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Unlink `idx` and return its slot to the free list.
    fn remove(&mut self, idx: usize) {
        self.unlink(idx);
        let slot = self.slots[idx].take().expect("removed slot occupied");
        self.map.remove(&slot.key);
        self.free.push(idx);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slots[idx].as_ref().expect("linked slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("prev slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("next slot").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let s = self.slots[idx].as_mut().expect("pushed slot");
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.slots[h].as_mut().expect("head slot").prev = idx,
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::engine::QueryResponse;
    use panda_core::{NeighborTable, QueryCounters};

    fn reply(tag: u32) -> TicketReply {
        let resp = Arc::new(QueryResponse::local(
            NeighborTable::new(),
            QueryCounters::default(),
            0.0,
        ));
        TicketReply::new(resp, tag, 0)
    }

    fn key(x: f32, k: usize) -> CacheKey {
        let ps = PointSet::from_coords(1, vec![x]).unwrap();
        CacheKey::new(&ps, k, None)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = ResultCache::new(2);
        assert!(c.lookup(&key(1.0, 4), 0).is_none());
        c.insert(Arc::new(key(1.0, 4)), reply(1), 0);
        c.insert(Arc::new(key(2.0, 4)), reply(2), 0);
        assert_eq!(c.len(), 2);
        // touch 1.0 so 2.0 becomes the LRU
        assert!(c.lookup(&key(1.0, 4), 0).is_some());
        c.insert(Arc::new(key(3.0, 4)), reply(3), 0);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key(2.0, 4), 0).is_none(), "LRU evicted");
        assert!(c.lookup(&key(1.0, 4), 0).is_some());
        assert!(c.lookup(&key(3.0, 4), 0).is_some());
    }

    #[test]
    fn distinct_parameters_are_distinct_keys() {
        let mut c = ResultCache::new(8);
        c.insert(Arc::new(key(1.0, 4)), reply(1), 0);
        assert!(c.lookup(&key(1.0, 5), 0).is_none(), "different k");
        let r = key(1.0, 4); // same coords+k, radius differs
        let with_radius = {
            let ps = PointSet::from_coords(1, vec![1.0]).unwrap();
            CacheKey::new(&ps, 4, Some(2.0f32.to_bits()))
        };
        assert!(c.lookup(&with_radius, 0).is_none());
        assert!(c.lookup(&r, 0).is_some());
    }

    #[test]
    fn negative_zero_is_not_positive_zero() {
        let mut c = ResultCache::new(4);
        c.insert(Arc::new(key(0.0, 4)), reply(1), 0);
        assert!(
            c.lookup(&key(-0.0, 4), 0).is_none(),
            "bitwise keying keeps -0.0 distinct"
        );
    }

    #[test]
    fn epoch_change_invalidates_everything() {
        let mut c = ResultCache::new(4);
        c.insert(Arc::new(key(1.0, 4)), reply(1), 0);
        assert!(c.lookup(&key(1.0, 4), 0).is_some());
        assert!(c.lookup(&key(1.0, 4), 7).is_none(), "epoch moved");
        assert_eq!(c.len(), 0);
        // a straggling insert sampled under the old epoch is dropped
        c.insert(Arc::new(key(2.0, 4)), reply(2), 0);
        assert_eq!(c.len(), 0);
        // current-epoch inserts land
        c.insert(Arc::new(key(2.0, 4)), reply(2), 7);
        assert!(c.lookup(&key(2.0, 4), 7).is_some());
    }

    #[test]
    fn duplicate_insert_keeps_the_resident_entry() {
        let mut c = ResultCache::new(2);
        c.insert(Arc::new(key(1.0, 4)), reply(1), 0);
        c.insert(Arc::new(key(1.0, 4)), reply(9), 0);
        assert_eq!(c.len(), 1);
        // same key ⇒ same answer: the resident reply (start row 1) wins
        let resident = c.lookup(&key(1.0, 4), 0).unwrap();
        assert_eq!(resident.rows().start, 1);
        // and the duplicate refreshed recency: 2.0 becomes the LRU
        c.insert(Arc::new(key(2.0, 4)), reply(2), 0);
        assert!(c.lookup(&key(1.0, 4), 0).is_some());
        c.insert(Arc::new(key(3.0, 4)), reply(3), 0);
        assert!(c.lookup(&key(2.0, 4), 0).is_none());
        assert!(c.lookup(&key(1.0, 4), 0).is_some());
    }
}
