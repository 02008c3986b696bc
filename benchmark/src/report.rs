//! What a run prints and writes: a table for the reader, one JSON line
//! for the driver, one detailed record per workload under `out/`.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Measured;

/// The outcome of one workload, traced or not, ready to print.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, Measured)>,
    pub detail: Vec<(&'static str, Json)>,
    pub notes: Vec<String>,
}

fn specs(traced: bool) -> Vec<MetricSpec> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(s, _)| *s).collect()
    }
}

impl Record {
    /// Every metric the mode promises is there, under its own name.
    pub fn complete(&self) -> bool {
        let want = specs(self.traced);
        want.len() == self.metrics.len()
            && want
                .iter()
                .zip(&self.metrics)
                .all(|(s, (n, _))| s.name == *n)
    }

    /// The human-readable block: every metric by name with its unit, the
    /// quartiles behind it and how many segments and samples it rests on.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed={} seconds={} {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for (spec, (_, m)) in specs(self.traced).iter().zip(&self.metrics) {
            out.push_str(&format!(
                "  {:<34} {:>16.4} {:<10} {:<6} q1 {:>14.4}  q3 {:>14.4}  iqr {:>5.1}%  segments {:>3}  samples {:>8}\n",
                spec.name,
                m.value,
                spec.unit,
                spec.better.as_str(),
                m.q1,
                m.q3,
                m.spread() * 100.0,
                m.segments,
                m.samples
            ));
        }
        out.push_str(&format!(
            "  operations attempted {} failed {}  correct {}\n",
            self.attempted, self.failed, self.correct
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric as `{value, unit}`.
    pub fn driver_line(&self) -> Json {
        let metrics = specs(self.traced)
            .iter()
            .zip(&self.metrics)
            .map(|(spec, (_, m))| {
                (
                    spec.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(spec.unit)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The detailed record the suite collects and `--compare` reads.
    pub fn detailed(&self) -> Json {
        let metrics = specs(self.traced)
            .iter()
            .zip(&self.metrics)
            .map(|(spec, (_, m))| {
                (
                    spec.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(spec.unit)),
                        ("q1", Json::Num(m.q1)),
                        ("q3", Json::Num(m.q3)),
                        ("segments", Json::Num(m.segments as f64)),
                        ("samples", Json::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("smoke", Json::Bool(self.smoke)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
            ("detail", Json::obj(self.detail.iter().cloned())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Where a workload's detailed record goes.
pub fn record_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}.{}.json",
        if traced { "trace" } else { "e2e" }
    ))
}
