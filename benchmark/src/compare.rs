//! `--compare BASE.json [NEW.json]`: one row per metric and workload —
//! base, new, the ratio with its base, and a verdict against the bound
//! the benchmark fixed for that metric.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::suite::result_path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The medians differ by more than the bound, but so do the
    /// segments of one run among themselves: not a finding either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the base by which `new` is worse (negative: better).
fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    }
}

/// `spread` is the wider interquartile share of the two sides.
pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let w = worse_by(base, new, better);
    if w.abs() <= bound {
        Verdict::WithinBound
    } else if spread > bound {
        Verdict::Unresolved
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

struct Side {
    value: f64,
    spread: f64,
}

fn side(record: &Json, metric: &str) -> Option<Side> {
    let m = record.get("metrics")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let value = num("value")?;
    let spread = match (num("q1"), num("q3")) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1).abs() / value.abs(),
        _ => 0.0,
    };
    Some(Side { value, spread })
}

fn failed_share(record: &Json) -> f64 {
    let num = |k: &str| record.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(base: &Path, new: Option<&Path>, out_dir: &Path) -> ExitCode {
    let (base_doc, new_doc) = match (|| {
        let base_doc = load(base)?;
        let traced = base_doc
            .get("traced")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let new_doc = load(new.unwrap_or(&result_path(out_dir, traced)))?;
        Ok::<_, String>((base_doc, new_doc))
    })() {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("panda-benchmark --compare: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, doc) in [("base", &base_doc), ("new", &new_doc)] {
        if let Some(host) = doc.get("host") {
            println!("{label:<5} host {host}");
        }
    }
    let traced = base_doc
        .get("traced")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    // end-to-end metrics carry a bound; per-layer metrics explain and
    // are listed without a verdict
    let specs: Vec<_> = if traced {
        PER_LAYER.iter().map(|s| (*s, None)).collect()
    } else {
        END_TO_END.iter().map(|(s, b)| (*s, Some(*b))).collect()
    };
    println!(
        "{:<18} {:<34} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut bad = false;
    let empty = Json::Obj(Vec::new());
    let base_w = base_doc.get("workloads").unwrap_or(&empty);
    let new_w = new_doc.get("workloads").unwrap_or(&empty);
    for (workload, base_rec) in base_w.entries() {
        let Some(new_rec) = new_w.get(workload) else {
            println!("{workload:<18} missing from the new result");
            bad = true;
            continue;
        };
        for (spec, bound) in &specs {
            let (Some(b), Some(n)) = (side(base_rec, spec.name), side(new_rec, spec.name)) else {
                println!("{workload:<18} {:<34} missing on one side", spec.name);
                bad |= bound.is_some();
                continue;
            };
            let v = bound
                .map(|bound| verdict(b.value, n.value, spec.better, bound, b.spread.max(n.spread)));
            bad |= v == Some(Verdict::Worse);
            println!(
                "{workload:<18} {:<34} {:>16.4} {:>16.4} {:>9.4}  {}",
                spec.name,
                b.value,
                n.value,
                n.value / b.value,
                v.map_or("-", Verdict::as_str),
            );
        }
        let (fb, fnew) = (failed_share(base_rec), failed_share(new_rec));
        if fnew > fb {
            println!("{workload:<18} failed share rose from {fb} to {fnew}");
            bad = true;
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use super::Better::{Higher, Lower};
        use Verdict::*;
        // latency, 10% bound, tight runs
        assert_eq!(verdict(100.0, 105.0, Lower, 0.10, 0.02), WithinBound);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10, 0.02), Worse);
        assert_eq!(verdict(100.0, 85.0, Lower, 0.10, 0.02), Better);
        // throughput reads the other way round
        assert_eq!(verdict(1000.0, 880.0, Higher, 0.10, 0.02), Worse);
        assert_eq!(verdict(1000.0, 1200.0, Higher, 0.10, 0.02), Better);
        assert_eq!(verdict(1000.0, 950.0, Higher, 0.10, 0.02), WithinBound);
        // a run noisier than the bound cannot carry a verdict either way
        assert_eq!(verdict(100.0, 130.0, Lower, 0.10, 0.25), Unresolved);
        assert_eq!(verdict(100.0, 70.0, Lower, 0.10, 0.25), Unresolved);
        // ... but noise does not turn "within bound" into anything else
        assert_eq!(verdict(100.0, 104.0, Lower, 0.10, 0.25), WithinBound);
    }

    #[test]
    fn sides_read_value_and_spread_from_a_record() {
        let rec = Json::parse(
            r#"{"attempted": 200, "failed": 3,
                "metrics": {"p50_us": {"value": 100, "unit": "us", "q1": 95, "q3": 105}}}"#,
        )
        .unwrap();
        let s = side(&rec, "p50_us").unwrap();
        assert_eq!(s.value, 100.0);
        assert!((s.spread - 0.10).abs() < 1e-12);
        assert!(side(&rec, "p99_us").is_none());
        assert_eq!(failed_share(&rec), 0.015);
    }
}
