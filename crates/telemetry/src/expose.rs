//! Snapshot expositions: Prometheus-style text and fixed-key-order
//! JSON.
//!
//! Neither format embeds a timestamp or any host-dependent field, so
//! two snapshots with equal values render to identical bytes — the
//! same determinism contract the rest of the workspace holds its
//! reports to, and what lets CI diff scraped metrics directly.
//!
//! The text format follows the Prometheus exposition conventions as
//! far as this repo needs them: one `# TYPE` comment per metric
//! family, `name{label="value"} value` samples, and histograms as
//! cumulative `_bucket{le="..."}` samples (only non-empty buckets,
//! plus a final `le="+Inf"`), `_sum`, and `_count`. Gauges add a
//! `_high_water` sample in the same family. The JSON format is a
//! single-line object with keys in a fixed order (schema, counters,
//! gauges, histograms; metric keys lexicographic), parseable by the
//! in-house `diag_trace::json` reader; histogram entries carry derived
//! p50/p90/p99 alongside sparse `[lower, upper, count]` buckets.

use std::fmt::Write as _;

use diag_trace::json::escape;

use crate::registry::Snapshot;
use crate::SCHEMA;

impl Snapshot {
    /// Render the Prometheus-style text exposition.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let type_line = |out: &mut String, last: &mut String, name: &str, kind: &str| {
            if last != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last.clear();
                last.push_str(name);
            }
        };

        for (key, value) in &self.counters {
            type_line(&mut out, &mut last_family, key.name(), "counter");
            let _ = writeln!(out, "{} {value}", key.render_with("", None));
        }
        last_family.clear();
        for (key, gauge) in &self.gauges {
            type_line(&mut out, &mut last_family, key.name(), "gauge");
            let _ = writeln!(out, "{} {}", key.render_with("", None), gauge.value);
            let _ = writeln!(
                out,
                "{} {}",
                key.render_with("_high_water", None),
                gauge.high_water
            );
        }
        last_family.clear();
        for (key, hist) in &self.histograms {
            type_line(&mut out, &mut last_family, key.name(), "histogram");
            let mut cum = 0u64;
            let mut saw_inf = false;
            for (_, upper, n) in hist.nonzero_buckets() {
                cum += n;
                let le = if upper == u64::MAX {
                    saw_inf = true;
                    "+Inf".to_string()
                } else {
                    upper.to_string()
                };
                let _ = writeln!(
                    out,
                    "{} {cum}",
                    key.render_with("_bucket", Some(("le", &le)))
                );
            }
            if !saw_inf {
                // Close the family with +Inf unless the populated
                // overflow bucket already rendered it.
                let _ = writeln!(
                    out,
                    "{} {}",
                    key.render_with("_bucket", Some(("le", "+Inf"))),
                    hist.count
                );
            }
            let _ = writeln!(out, "{} {}", key.render_with("_sum", None), hist.sum);
            let _ = writeln!(out, "{} {}", key.render_with("_count", None), hist.count);
        }
        out
    }

    /// Render the fixed-key-order JSON exposition (single line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"counters\":{");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", escape(&key.to_string()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (key, gauge)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"high_water\":{}}}",
                escape(&key.to_string()),
                gauge.value,
                gauge.high_water
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                escape(&key.to_string()),
                hist.count,
                hist.sum,
                hist.max,
                hist.mean(),
                hist.p50(),
                hist.p90(),
                hist.p99()
            );
            for (j, (lower, upper, n)) in hist.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // The overflow bucket has no finite upper bound; encode
                // it as the exact tracked max so the JSON stays integer.
                let upper = if upper == u64::MAX { hist.max } else { upper };
                let _ = write!(out, "[{lower},{upper},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("req_total", &[("verb", "submit")]).add(7);
        r.counter("req_total", &[("verb", "status")]).add(2);
        let g = r.gauge("queue_depth", &[]);
        g.add(5);
        g.sub(3);
        let h = r.histogram("wait_ns", &[("scale", "tiny")]);
        for v in [0u64, 3, 9, 10, 900, 1 << 50] {
            h.record(v);
        }
        r
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample_registry().snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0], "# TYPE req_total counter",
            "families lead with a TYPE comment"
        );
        assert!(lines.contains(&"req_total{verb=\"submit\"} 7"));
        assert!(lines.contains(&"queue_depth 2"));
        assert!(lines.contains(&"queue_depth_high_water 5"));
        assert!(lines.contains(&"wait_ns_bucket{scale=\"tiny\",le=\"0\"} 1"));
        assert!(lines.contains(&"wait_ns_bucket{scale=\"tiny\",le=\"+Inf\"} 6"));
        assert!(lines.contains(&"wait_ns_count{scale=\"tiny\"} 6"));
        // Cumulative counts never decrease.
        let mut prev = 0u64;
        for l in &lines {
            if let Some(rest) = l.strip_prefix("wait_ns_bucket{") {
                let n: u64 = rest
                    .rsplit(' ')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                assert!(n >= prev, "cumulative bucket counts regressed: {l}");
                prev = n;
            }
        }
    }

    #[test]
    fn json_exposition_is_fixed_order_and_parseable() {
        let json = sample_registry().snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"diag-telemetry-v1\",\"counters\":{"));
        // Lexicographic metric order: status sorts before submit.
        let status = json.find("req_total{verb=\\\"status\\\"}").unwrap();
        let submit = json.find("req_total{verb=\\\"submit\\\"}").unwrap();
        assert!(status < submit);
        assert!(json.contains("\"high_water\":5"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"buckets\":[[0,0,1]"));
    }

    #[test]
    fn both_expositions_are_byte_deterministic() {
        // Two independently built registries with the same recorded
        // values must render identically, text and JSON.
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        // And re-rendering the same snapshot is stable.
        assert_eq!(a.to_text(), a.to_text());
        assert_eq!(a.to_json(), a.to_json());
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let r = Registry::new();
        let s = r.snapshot();
        assert_eq!(s.to_text(), "");
        assert_eq!(
            s.to_json(),
            "{\"schema\":\"diag-telemetry-v1\",\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn empty_histogram_still_closes_with_inf() {
        let r = Registry::new();
        let _ = r.histogram("idle_ns", &[]);
        let text = r.snapshot().to_text();
        assert!(text.contains("idle_ns_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("idle_ns_count 0"));
    }
}
