//! Named metric registry and coherent [`Snapshot`]s.
//!
//! A [`Registry`] maps dotted metric names (`service.rejected`,
//! `store.wal.fsyncs`, …) to live metric handles. Registration takes a
//! short mutex; the handles themselves are lock-free, so the registry
//! is touched only at construction / wiring time, never on hot paths.

use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Shared, clonable registry of named metrics.
///
/// `counter`/`gauge`/`histogram` are get-or-register: calling twice with
/// the same name returns handles backed by the same cells, so distinct
/// components (e.g. every client of one metric) can publish into one
/// shared counter.
#[derive(Clone, Default)]
pub struct Registry(Arc<Mutex<Vec<(String, Metric)>>>);

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.0.lock().map(|v| v.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// Fresh empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, mk: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.0.lock().unwrap();
        match map.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => map[i].1.clone(),
            Err(i) => {
                let m = mk();
                map.insert(i, (name.to_string(), m.clone()));
                m
            }
        }
    }

    /// Get or register the counter called `name`.
    ///
    /// If `name` is already registered as a different metric kind this
    /// returns a fresh detached handle (debug builds assert instead).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Counter::new()
            }
        }
    }

    /// Get or register the gauge called `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Gauge::new()
            }
        }
    }

    /// Get or register the histogram called `name` with `buckets` pow2
    /// buckets (an existing histogram's bucket count wins).
    #[must_use]
    pub fn histogram(&self, name: &str, buckets: usize) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new(buckets))) {
            Metric::Histogram(h) => h,
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Histogram::new(buckets)
            }
        }
    }

    /// Attach an existing counter handle under `name` (replaces any
    /// previous registration of that name).
    pub fn register_counter(&self, name: &str, c: &Counter) {
        self.replace(name, Metric::Counter(c.clone()));
    }

    /// Attach an existing gauge handle under `name`.
    pub fn register_gauge(&self, name: &str, g: &Gauge) {
        self.replace(name, Metric::Gauge(g.clone()));
    }

    /// Attach an existing histogram handle under `name`.
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        self.replace(name, Metric::Histogram(h.clone()));
    }

    fn replace(&self, name: &str, m: Metric) {
        let mut map = self.0.lock().unwrap();
        match map.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => map[i].1 = m,
            Err(i) => map.insert(i, (name.to_string(), m)),
        }
    }

    /// Point-in-time copy of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.0.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }
}

/// One captured metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(u64),
    /// Histogram bucket counts + sum.
    Histogram(HistogramSnapshot),
}

/// Point-in-time view of a set of named metrics, sorted by name.
///
/// Snapshots from several registries (service, backend, store) merge
/// into one: counters from both sides sum, gauges last-write-win,
/// histograms merge bucket-wise.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// Add `v` to the counter called `name` (creating it at `v`).
    pub fn push_counter(&mut self, name: &str, v: u64) {
        match self.slot(name) {
            Ok(i) => {
                if let MetricValue::Counter(cur) = &mut self.entries[i].1 {
                    *cur += v;
                } else {
                    self.entries[i].1 = MetricValue::Counter(v);
                }
            }
            Err(i) => self
                .entries
                .insert(i, (name.to_string(), MetricValue::Counter(v))),
        }
    }

    /// Set the gauge called `name` to `v` (last write wins).
    pub fn push_gauge(&mut self, name: &str, v: u64) {
        match self.slot(name) {
            Ok(i) => self.entries[i].1 = MetricValue::Gauge(v),
            Err(i) => self
                .entries
                .insert(i, (name.to_string(), MetricValue::Gauge(v))),
        }
    }

    /// Merge `h` into the histogram called `name` (creating it).
    pub fn push_histogram(&mut self, name: &str, h: &HistogramSnapshot) {
        match self.slot(name) {
            Ok(i) => {
                if let MetricValue::Histogram(cur) = &mut self.entries[i].1 {
                    cur.merge(h);
                } else {
                    self.entries[i].1 = MetricValue::Histogram(h.clone());
                }
            }
            Err(i) => self
                .entries
                .insert(i, (name.to_string(), MetricValue::Histogram(h.clone()))),
        }
    }

    /// Merge every entry of `other` into this snapshot.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.entries {
            match v {
                MetricValue::Counter(c) => self.push_counter(name, *c),
                MetricValue::Gauge(g) => self.push_gauge(name, *g),
                MetricValue::Histogram(h) => self.push_histogram(name, h),
            }
        }
    }

    /// Value of the counter called `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => match &self.entries[i].1 {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            },
            Err(_) => None,
        }
    }

    /// Value of the gauge called `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => match &self.entries[i].1 {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            },
            Err(_) => None,
        }
    }

    /// Histogram snapshot called `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => match &self.entries[i].1 {
                MetricValue::Histogram(h) => Some(h),
                _ => None,
            },
            Err(_) => None,
        }
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn get_or_register_shares_cells() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x.hits"), Some(3));
    }

    #[test]
    fn snapshot_sorted_and_typed() {
        let reg = Registry::new();
        reg.counter("b.c").add(5);
        reg.gauge("a.g").set(7);
        reg.histogram("z.h", 8).record(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.g", "b.c", "z.h"]);
        assert_eq!(snap.counter("b.c"), Some(5));
        assert_eq!(snap.gauge("a.g"), Some(7));
        assert_eq!(snap.histogram("z.h").unwrap().total(), 1);
        assert_eq!(snap.counter("a.g"), None); // wrong kind
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn merge_sums_counters_overwrites_gauges() {
        let mut a = Snapshot::new();
        a.push_counter("c", 1);
        a.push_gauge("g", 10);
        let mut b = Snapshot::new();
        b.push_counter("c", 2);
        b.push_gauge("g", 20);
        b.push_histogram(
            "h",
            &HistogramSnapshot {
                counts: vec![1],
                sum: 1,
            },
        );
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(20));
        assert_eq!(a.histogram("h").unwrap().total(), 1);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(5));
        assert_eq!(a.histogram("h").unwrap().total(), 2);
    }

    #[test]
    fn concurrent_hammer_sums_coherently() {
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        let reg = Registry::new();
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = reg.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hammer.total");
                let h = reg.histogram("hammer.lat", 16);
                let own = reg.counter(&format!("hammer.t{t}"));
                for i in 0..PER {
                    c.inc();
                    own.inc();
                    h.record(i % 1000);
                }
                done.fetch_add(1, Relaxed);
            }));
        }
        // Snapshots taken mid-run must stay internally coherent.
        while done.load(Relaxed) < THREADS {
            let s = reg.snapshot();
            if let Some(v) = s.counter("hammer.total") {
                assert!(v <= THREADS as u64 * PER);
            }
        }
        for hnd in handles {
            hnd.join().unwrap();
        }
        let s = reg.snapshot();
        assert_eq!(s.counter("hammer.total"), Some(THREADS as u64 * PER));
        let per_thread: u64 = (0..THREADS)
            .map(|t| s.counter(&format!("hammer.t{t}")).unwrap())
            .sum();
        assert_eq!(per_thread, THREADS as u64 * PER);
        assert_eq!(
            s.histogram("hammer.lat").unwrap().total(),
            THREADS as u64 * PER
        );
    }
}
