//! Exposition: render a [`Snapshot`] as Prometheus text or JSON.

use crate::metrics::bucket_upper_edge;
use crate::registry::{MetricValue, Snapshot};

/// Mangle a dotted metric name into a Prometheus-legal one:
/// `service.queue_depth_max` → `panda_service_queue_depth_max`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("panda_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render `snap` in the Prometheus text exposition format 0.0.4.
///
/// Histograms render as cumulative `_bucket{le="..."}` series with
/// `le` in the histogram's raw recorded unit (nanoseconds for the
/// duration histograms in this workspace), plus `_sum` and `_count`.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.iter() {
        let pname = prometheus_name(name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                let mut cum = 0u64;
                for (i, &c) in h.counts.iter().enumerate() {
                    cum += c;
                    out.push_str(&format!(
                        "{pname}_bucket{{le=\"{}\"}} {cum}\n",
                        bucket_upper_edge(i)
                    ));
                }
                out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {cum}\n"));
                out.push_str(&format!("{pname}_sum {}\n", h.sum));
                out.push_str(&format!("{pname}_count {cum}\n"));
            }
        }
    }
    out
}

/// Render `snap` as a JSON object keyed by the original dotted names.
///
/// Counters and gauges become `{"type": "...", "value": N}`; histograms
/// become `{"type": "histogram", "count": N, "sum": N, "mean": x,
/// "p50": N, "p99": N, "p999": N}` (values in the recorded unit).
#[must_use]
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in snap.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n  \"{name}\": "));
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{{\"type\": \"counter\", \"value\": {v}}}"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{{\"type\": \"gauge\", \"value\": {v}}}"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                    h.total(),
                    h.sum,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999),
                ));
            }
        }
    }
    out.push_str("\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn name_mangling() {
        assert_eq!(
            prometheus_name("service.queue_depth_max"),
            "panda_service_queue_depth_max"
        );
        assert_eq!(
            prometheus_name("fault.store.wal-append"),
            "panda_fault_store_wal_append"
        );
    }

    #[test]
    fn prometheus_shapes() {
        let reg = Registry::new();
        reg.counter("a.c").add(3);
        reg.gauge("a.g").set(9);
        let h = reg.histogram("a.h", 4);
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(2);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE panda_a_c counter\npanda_a_c 3\n"));
        assert!(text.contains("# TYPE panda_a_g gauge\npanda_a_g 9\n"));
        assert!(text.contains("panda_a_h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("panda_a_h_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("panda_a_h_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("panda_a_h_sum 5\n"));
        assert!(text.contains("panda_a_h_count 3\n"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.histogram("y", 4).record(2);
        let json = render_json(&reg.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"x\": {\"type\": \"counter\", \"value\": 1}"));
        assert!(json.contains("\"type\": \"histogram\", \"count\": 1"));
        assert!(json.contains("\"p50\": 3"));
    }
}
