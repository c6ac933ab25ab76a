//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units (a unit test keeps the two in step) and adds each end-to-end
//! metric's regression bound, which `compare` applies.

use std::collections::HashMap;

/// End-to-end metrics, reported by every workload from its untraced
/// run: `(name, unit)`. Only metrics whose run-to-run spread fits a
/// regression bound are here; see `e2e.*` in [`PER_LAYER`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload from its traced run:
/// `(name, unit)`. A layer the workload does not exercise reads 0. The
/// two `e2e.*` entries are end-to-end measurements too noisy on a
/// shared host to carry a bound: reported, never gated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.goodput_rps", "1/s"),
    ("core.new_us", "us"),
    ("core.load_us", "us"),
    ("core.step_ns_per_instr", "ns"),
    ("sim.steps_per_instr", "ratio"),
    ("baseline.ooo.load_us", "us"),
    ("baseline.ooo.step_ns_per_instr", "ns"),
    ("baseline.inorder.load_us", "us"),
    ("baseline.inorder.step_ns_per_instr", "ns"),
    ("diag_ns_per_instr", "ns"),
    ("ooo_ns_per_instr", "ns"),
    ("inorder_ns_per_instr", "ns"),
    ("workloads.build_ms", "ms"),
    ("isa.lower_ms", "ms"),
    ("workloads.verify_us", "us"),
    ("pipeline.lookup_ns", "ns"),
    ("pipeline.run_memo_ns", "ns"),
    ("pipeline.hit_ratio", "ratio"),
    ("pipeline.run_builds_per_req", "ratio"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.run_us_p50", "us"),
    ("sweep.run_us_p99", "us"),
    ("power.energy_us", "us"),
    ("protocol.parse_request_ns", "ns"),
    ("queue.submit_pop_ns", "ns"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.queue_depth_hw", "count"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_us_p99", "us"),
    ("serve.first_byte_us_p50", "us"),
    ("serve.first_byte_us_p99", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.frame_bytes", "bytes"),
    ("core.reuse_share", "ratio"),
    ("core.decodes_per_kinstr", "count"),
    ("core.line_fetches_per_kinstr", "count"),
    ("core.lane_transports_per_instr", "ratio"),
    ("mem.loads_per_instr", "ratio"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.memlane_hit_share", "ratio"),
    ("trace.nullsink_overhead_pct", "%"),
    ("profile.collector_overhead_pct", "%"),
    ("loadgen.send_lag_p99_us", "us"),
    ("reconcile.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The metrics a run reports: end-to-end when untraced, per-layer when
/// traced.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase (runs or requests).
    pub attempted: u64,
    /// Operations that failed, were rejected, or got no answer.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub values: HashMap<&'static str, f64>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A run that has passed every check so far.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Marks the run incorrect with a reason.
    pub fn problem(&mut self, message: String) {
        self.correct = false;
        self.problems.push(message);
    }

    /// Renders the result line: the end-to-end metrics of an untraced
    /// run, or the per-layer metrics of a traced one. Every end-to-end
    /// metric must be measured; a per-layer metric the workload does
    /// not exercise reads 0.
    ///
    /// # Errors
    ///
    /// Names a missing or non-finite metric.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue(traced) {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if !traced => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }

    /// One `name value unit` line per reported metric, for people.
    pub fn describe(&self, traced: bool) -> String {
        catalogue(traced)
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!("  {name:<36} {v:>16.6} {unit}\n")
            })
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps (integers keep a `.0`-free form).
fn number(v: f64) -> String {
    format!("{v:?}")
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_trace::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = manifest();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 3;
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.render(false).unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_num), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));

        o.values.remove("pass_s");
        assert!(o.render(false).unwrap_err().contains("pass_s"));
        // Per-layer metrics a workload does not exercise read 0.
        let layers = Outcome::new().render(true).unwrap();
        assert!(
            layers.contains("\"serve.frame_bytes\":{\"value\":0.0"),
            "{layers}"
        );
    }
}
