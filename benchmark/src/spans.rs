//! Spans recorded from outside the program, around calls into each layer.
//!
//! The traced run keeps every span in memory and writes them out once at
//! exit. Two kinds of arithmetic turn them into per-layer time:
//!
//! * inside one call tree, a span's **self time** is its duration minus
//!   the part of that interval its child spans cover;
//! * across the ladder, where the layers nest inside the program and no
//!   child span can be placed, a layer's self time is its **rung minus
//!   the rung below** ([`ladder_self`]).

use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its [`Recorder`].
pub type SpanId = u32;

/// Parent of a top-level span.
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Recorder::names`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Shared by every span of one request; 0 outside a request.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Per-call spans beyond this many are counted, not kept: the file
    /// stays a few MB however long the run.
    cap: usize,
    kept: usize,
    dropped: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            cap,
            kept: 0,
            dropped: 0,
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span. Returns `None` once the cap is reached.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> Option<SpanId> {
        if self.kept >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.kept += 1;
        let name = self.name_id(name);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Open a phase span now; close it with [`Self::close`]. Phase spans
    /// are few and always kept.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: how many, their summed duration and their summed
    /// self time, in ms — where the traced run's own time went.
    pub fn summary(&self) -> Json {
        let selfs = self_times(&self.spans);
        let mut rows = vec![(0u64, 0u64, 0u64); self.names.len()];
        for (s, own) in self.spans.iter().zip(selfs) {
            let row = &mut rows[s.name as usize];
            row.0 += 1;
            row.1 += s.duration_ns();
            row.2 += own;
        }
        Json::Arr(
            self.names
                .iter()
                .zip(rows)
                .map(|(name, (count, total, own))| {
                    Json::obj([
                        ("name", Json::str(*name)),
                        ("spans", Json::Num(count as f64)),
                        ("total_ms", Json::Num(total as f64 / 1e6)),
                        ("self_ms", Json::Num(own as f64 / 1e6)),
                    ])
                })
                .collect(),
        )
    }

    /// One JSON document: a name table, then one row per span as
    /// `[name, start_ns, end_ns, parent, request, self_ns]` (parent −1
    /// for a top-level span).
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        let rows = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                let parent = if s.parent == ROOT {
                    -1.0
                } else {
                    f64::from(s.parent)
                };
                Json::Arr(vec![
                    Json::Num(f64::from(s.name)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(parent),
                    Json::Num(s.request as f64),
                    Json::Num(self_ns as f64),
                ])
            })
            .collect();
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request", "self_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect()),
            ),
            ("dropped", Json::Num(self.dropped as f64)),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Overlapping
/// children (two requests in flight under one phase) are not counted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Rungs listed from the bottom of the ladder up, each with the time one
/// query takes through it. A layer's own share is its rung minus the
/// rung below; the bottom rung keeps all of its time. A negative share
/// is reported as measured: it says the upper layer was *faster* (it
/// batches, or runs on more cores), which is a finding, not an error.
pub fn ladder_self(rungs: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &(name, t))| (name, if i == 0 { t } else { t - rungs[i - 1].1 }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: 0,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 1000, ROOT), // phase
            span(100, 400, 0),   // request A
            span(300, 600, 0),   // request B, overlapping A by 100
            span(150, 250, 1),   // A's submit
            span(250, 400, 1),   // A's wait
            span(900, 1200, 0),  // a child that outlives its parent
        ];
        let selfs = self_times(&spans);
        // 1000 − (100..600 = 500) − (900..1000 = 100)
        assert_eq!(selfs[0], 400);
        // 300 − (100 + 150): the 50 ns before submit is A's own
        assert_eq!(selfs[1], 50);
        assert_eq!(selfs[2], 300);
        assert_eq!(selfs[3], 100);
        assert_eq!(selfs[5], 300);
    }

    #[test]
    fn ladder_differences_attribute_each_layer() {
        let rungs = [
            ("rung.tree", 48.0),
            ("rung.direct1", 51.0),
            ("rung.service1", 640.0),
        ];
        let own = ladder_self(&rungs);
        assert_eq!(own[0], ("rung.tree", 48.0));
        assert_eq!(own[1], ("rung.direct1", 3.0));
        assert_eq!(own[2], ("rung.service1", 589.0));
        // the shares add back up to the top rung
        assert_eq!(own.iter().map(|r| r.1).sum::<f64>(), 640.0);
        // a faster upper rung shows as a negative share
        let par = ladder_self(&[("rung.knn", 50.0), ("rung.knn_par", 27.0)]);
        assert_eq!(par[1].1, -23.0);
    }

    #[test]
    fn recorder_caps_call_spans_but_keeps_phases() {
        let mut r = Recorder::new(2);
        let t = Instant::now();
        let phase = r.open("phase", ROOT);
        assert!(r.add("call", t, t, phase, 1).is_some());
        assert!(r.add("call", t, t, phase, 2).is_some());
        assert!(r.add("call", t, t, phase, 3).is_none());
        let later = r.open("phase2", ROOT);
        r.close(later);
        r.close(phase);
        assert_eq!(r.len(), 4);
        let doc = r.to_json();
        assert_eq!(doc.get("dropped").and_then(Json::as_f64), Some(1.0));
        let Json::Arr(summary) = r.summary() else {
            panic!("summary is a list")
        };
        assert_eq!(summary.len(), 3, "phase, call, phase2");
        assert_eq!(summary[1].get("spans").and_then(Json::as_f64), Some(2.0));
    }
}
