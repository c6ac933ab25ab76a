//! `diag-benchmark compare A.json B.json`: is B within the bounds
//! `BENCHMARK.json` sets, relative to A?
//!
//! Each file holds a set of runs, as `diag-benchmark all --out` writes
//! it: an object mapping each workload name to a list of result
//! objects (the benchmark's last output line). Per workload and metric
//! the medians of the two sets are compared; an end-to-end metric whose
//! median got worse by more than its bound (as a share of A's median)
//! fails the comparison, as does a workload whose failed share rose or
//! whose runs were not all correct. Per-layer metrics have no bound and
//! are only listed.

use std::collections::BTreeMap;
use std::path::Path;

use diag_trace::json::{self, Value};

use crate::stats::median;

/// One metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// What `compare` needs from `BENCHMARK.json`.
#[derive(Debug)]
pub struct Manifest {
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok(MetricSpec {
                name: s("name").ok_or("BENCHMARK.json: metric without a name")?,
                unit: s("unit").unwrap_or_default(),
                lower_is_better: s("better").as_deref() != Some("higher"),
                bound: m.get("bound").and_then(Value::as_num),
            })
        })
        .collect()
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the repository root.
    ///
    /// # Errors
    ///
    /// A missing or malformed file.
    pub fn load(root: &Path) -> Result<Manifest, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Manifest {
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_num)
                .unwrap_or(20.0),
        })
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it improved), and whether that stays within `bound`.
pub fn verdict(base: f64, new: f64, lower_is_better: bool, bound: f64) -> (f64, bool) {
    let worse = if base == 0.0 {
        if new == base {
            0.0
        } else {
            f64::INFINITY
        }
    } else if lower_is_better {
        (new - base) / base.abs()
    } else {
        (base - new) / base.abs()
    };
    (worse, worse <= bound + 1e-12)
}

/// A set of runs: workload → result objects.
pub type RunSet = BTreeMap<String, Vec<Value>>;

/// Reads a run-set file.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load_runs(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| format!("{}: expected an object of workloads", path.display()))?;
    Ok(obj
        .iter()
        .map(|(w, v)| {
            let runs = match v {
                Value::Arr(list) => list.clone(),
                single => vec![single.clone()],
            };
            (w.clone(), runs)
        })
        .collect())
}

fn metric_median(runs: &[Value], name: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_num())
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

fn fail_share(runs: &[Value]) -> f64 {
    let n = |k: &str| -> f64 { runs.iter().filter_map(|r| r.get(k)?.as_num()).sum() };
    n("failed") / n("attempted").max(1.0)
}

fn all_correct(runs: &[Value]) -> bool {
    runs.iter()
        .all(|r| matches!(r.get("correct"), Some(Value::Bool(true))))
}

/// Compares run set `b` against base `a`, printing one line per
/// workload and metric. Returns whether every bound held.
pub fn compare(manifest: &Manifest, a: &RunSet, b: &RunSet) -> bool {
    let mut ok = true;
    for (workload, base_runs) in a {
        let Some(new_runs) = b.get(workload) else {
            println!("{workload}: missing from the second set");
            ok = false;
            continue;
        };
        let (fa, fb) = (fail_share(base_runs), fail_share(new_runs));
        let correct = all_correct(new_runs);
        println!(
            "{workload}: {} vs {} runs; failed share {fa:.4} -> {fb:.4}; correct {correct}",
            base_runs.len(),
            new_runs.len()
        );
        ok &= correct && fb <= fa;
        for m in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let (Some(x), Some(y)) = (
                metric_median(base_runs, &m.name),
                metric_median(new_runs, &m.name),
            ) else {
                if m.bound.is_some() {
                    println!("  {:<36} missing", m.name);
                    ok = false;
                }
                continue;
            };
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let (worse, within) = verdict(x, y, m.lower_is_better, bound);
            let tag = match m.bound {
                Some(_) if within => "ok",
                Some(_) => "REGRESSED",
                None => "(no bound)",
            };
            println!(
                "  {:<36} {x:>14.6} -> {y:>14.6} {:<6} worse by {:>+8.2}% (bound {}) {tag}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
            ok &= within;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_arithmetic_respects_direction() {
        // Lower is better: +9% is within a 10% bound, +11% is not.
        assert_eq!(verdict(100.0, 109.0, true, 0.1), (0.09, true));
        let (w, ok) = verdict(100.0, 111.0, true, 0.1);
        assert!((w - 0.11).abs() < 1e-12 && !ok);
        // Higher is better: a drop is the worsening.
        let (w, ok) = verdict(1000.0, 905.0, false, 0.1);
        assert!((w - 0.095).abs() < 1e-12 && ok);
        assert!(!verdict(1000.0, 890.0, false, 0.1).1);
        // Improvements are negative worsening and always pass.
        let (w, ok) = verdict(100.0, 50.0, true, 0.0);
        assert!(w < 0.0 && ok);
        // Exactly at the bound passes; one ladder step down (÷1.1) is
        // within a 10% bound, two are not.
        assert!(verdict(100.0, 110.0, true, 0.1).1);
        assert!(verdict(1.1, 1.0, false, 0.1).1);
        assert!(!verdict(1.21, 1.0, false, 0.1).1);
        assert!(!verdict(0.0, 1.0, true, 0.25).1);
    }

    fn result(latency: f64, failed: u64) -> String {
        format!(
            "{{\"correct\":true,\"attempted\":100,\"failed\":{failed},\"metrics\":\
             {{\"latency_ms\":{{\"value\":{latency},\"unit\":\"ms\"}}}}}}"
        )
    }

    #[test]
    fn compare_uses_medians_and_failures() {
        let manifest = Manifest {
            end_to_end: vec![MetricSpec {
                name: "latency_ms".to_string(),
                unit: "ms".to_string(),
                lower_is_better: true,
                bound: Some(0.1),
            }],
            per_layer: Vec::new(),
            run_seconds: 1.0,
        };
        let set = |vals: &[(f64, u64)]| -> RunSet {
            let list: Vec<String> = vals.iter().map(|&(l, f)| result(l, f)).collect();
            let doc = json::parse(&format!("{{\"w\":[{}]}}", list.join(","))).unwrap();
            doc.as_obj()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.as_arr().unwrap().to_vec()))
                .collect()
        };
        let a = set(&[(1.0, 0), (1.0, 0), (9.0, 0)]);
        // One outlier in B does not move its median.
        assert!(compare(
            &manifest,
            &a,
            &set(&[(1.05, 0), (1.0, 0), (50.0, 0)])
        ));
        assert!(!compare(
            &manifest,
            &a,
            &set(&[(1.2, 0), (1.2, 0), (1.0, 0)])
        ));
        assert!(!compare(
            &manifest,
            &a,
            &set(&[(1.0, 1), (1.0, 0), (1.0, 0)])
        ));
        assert!(!compare(&manifest, &a, &RunSet::new()));
    }
}
