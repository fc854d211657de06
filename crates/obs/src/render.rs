//! Exposition: Prometheus text format and JSON, rendered from a
//! [`RegistrySnapshot`] so a scrape sees one consistent point in time.

use crate::metrics::bucket_upper_bound;
use crate::registry::{CounterId, GaugeId, HistoId, RegistrySnapshot};
use std::fmt::Write;

fn fmt_f64(v: f64) -> String {
    // Prometheus accepts plain decimal; avoid exponent noise for the
    // integral values that dominate (bucket bounds, counts).
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl RegistrySnapshot {
    /// Prometheus text exposition format, version 0.0.4. Histograms are
    /// native `_bucket{le="..."}` series with cumulative counts ending in
    /// `+Inf`, plus `_sum`/`_count` — the log2 bucket boundaries published
    /// directly, so Prometheus can aggregate across instances and compute
    /// `histogram_quantile` server-side.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for &id in CounterId::ALL {
            let name = id.name();
            writeln!(out, "# HELP {name} {}", id.help()).unwrap();
            writeln!(out, "# TYPE {name} counter").unwrap();
            writeln!(out, "{name} {}", self.counter(id)).unwrap();
        }
        for &id in GaugeId::ALL {
            let name = id.name();
            writeln!(out, "# HELP {name} {}", id.help()).unwrap();
            writeln!(out, "# TYPE {name} gauge").unwrap();
            writeln!(out, "{name} {}", self.gauge(id)).unwrap();
        }
        for &id in HistoId::ALL {
            let name = id.name();
            let h = self.histogram(id);
            writeln!(out, "# HELP {name} {}", id.help()).unwrap();
            writeln!(out, "# TYPE {name} histogram").unwrap();
            // Cumulative counts over the log2 bucket bounds. Trailing
            // all-zero buckets collapse into +Inf so an idle histogram is
            // 2 lines, not 66; the bounds are exact for integer samples
            // (bucket b holds values <= 2^b - 1).
            let highest = h.buckets.iter().rposition(|&n| n != 0).map_or(0, |b| b + 1);
            let mut cum = 0u64;
            for (b, &n) in h.buckets.iter().enumerate().take(highest) {
                cum += n;
                writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cum}",
                    bucket_upper_bound(b)
                )
                .unwrap();
            }
            writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count()).unwrap();
            writeln!(out, "{name}_sum {}", h.sum).unwrap();
            writeln!(out, "{name}_count {}", h.count()).unwrap();
        }
        out
    }

    /// One JSON object: metric name -> value; histograms become
    /// `{count, sum, mean, p50, p90, p99}` sub-objects.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let mut first = true;
        let mut field = |out: &mut String, name: &str, value: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            write!(out, "  \"{name}\": {value}").unwrap();
        };
        for &id in CounterId::ALL {
            field(&mut out, id.name(), self.counter(id).to_string());
        }
        for &id in GaugeId::ALL {
            field(&mut out, id.name(), self.gauge(id).to_string());
        }
        for &id in HistoId::ALL {
            let h = self.histogram(id);
            let body = format!(
                "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count(),
                h.sum,
                fmt_f64(h.mean()),
                fmt_f64(h.quantile(0.5)),
                fmt_f64(h.quantile(0.9)),
                fmt_f64(h.quantile(0.99)),
            );
            field(&mut out, id.name(), body);
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{CounterId, HistoId, Registry};

    #[test]
    fn cumulative_bucket_style_is_cumulative_and_ends_in_inf() {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(7);
        // Samples 0, 1, 3, 3, 9: buckets 0->1, 1->1, 2->2, 4->1.
        for v in [0u64, 1, 3, 3, 9] {
            r.histogram(HistoId::QueryLatencyNs).record(v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE promips_queries_total counter"));
        assert!(text.contains("promips_queries_total 7"));
        assert!(text.contains("# TYPE promips_query_latency_ns histogram"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"3\"} 4"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"7\"} 4"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"15\"} 5"));
        assert!(text.contains("promips_query_latency_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("promips_query_latency_ns_sum 16"));
        assert!(text.contains("promips_query_latency_ns_count 5"));
        // An untouched histogram collapses to just the +Inf bucket.
        assert!(text.contains("promips_compaction_ns_bucket{le=\"+Inf\"} 0"));
        assert!(!text.contains("promips_compaction_ns_bucket{le=\"0\"}"));
        if let Err(errors) = crate::promcheck::check_exposition(&text) {
            panic!("exposition invalid: {errors:#?}");
        }
    }

    #[test]
    fn json_is_one_object_per_metric() {
        let r = Registry::new();
        r.counter(CounterId::Inserts).inc();
        let json = r.render_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"promips_inserts_total\": 1"));
        assert!(json.contains("\"promips_query_latency_ns\": {\"count\": 0"));
    }
}
