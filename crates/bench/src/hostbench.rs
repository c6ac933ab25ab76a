//! Host-time benchmarking of the simulator itself (`harness bench`).
//!
//! Where [`crate::sweep`] measures the *modeled* machines (sim cycles,
//! IPC), this module measures the *simulator*: wall-clock nanoseconds per
//! committed instruction for every bundled workload on every machine
//! model. The results are written as `BENCH_sim.json` so hot-loop
//! regressions show up as numbers, not vibes, and CI can gate on them
//! against a checked-in seed baseline (see `results/BENCH_seed*.json`).
//!
//! Timing methodology: each `(workload, machine)` pair is run `repeat`
//! times serially (no worker threads — parallel runs would contend for
//! cores and poison the timings) and the *minimum* host time is kept,
//! which is the standard way to damp scheduler noise on a shared host.
//! Only the simulation itself ([`diag_sim::Machine::run`] /
//! [`diag_sim::Machine::run_prepared`]) is timed; workload assembly,
//! station-table lowering, and machine construction all happen through
//! the shared artifact [`Session`] before the clock starts. The session's
//! cache counters are recorded in the report's host metadata.

use std::time::Instant;

use diag_pipeline::{CacheCounters, Session};
use diag_trace::json;
use diag_workloads::{Params, Scale, WorkloadSpec};

use crate::runner::{build_machine, MachineSpec};

/// Schema identifier written into (and required from) the JSON report.
pub const BENCH_SCHEMA: &str = "diag-bench-host-v1";

/// One timed `(workload, machine)` run.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload name (e.g. `hotspot`).
    pub workload: String,
    /// Short machine key: `diag`, `ooo`, or `inorder`.
    pub machine: String,
    /// Best-of-`repeat` wall-clock time of [`diag_sim::Machine::run`], nanoseconds.
    pub host_ns: u64,
    /// Instructions the run committed.
    pub committed: u64,
    /// Modeled cycles of the run (unchanged by host speed).
    pub sim_cycles: u64,
    /// `host_ns / committed` — the simulator's hot-loop figure of merit.
    pub ns_per_instr: f64,
    /// `seed ns/instr ÷ this ns/instr` when a baseline row exists
    /// (>1 means this build is faster than the recorded seed).
    pub speedup_vs_seed: Option<f64>,
}

/// A full `harness bench` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload input scale the rows were measured at.
    pub scale: Scale,
    /// Runs per row (minimum time kept).
    pub repeat: u32,
    /// All timed rows, in (workload, machine) submission order.
    pub rows: Vec<BenchRow>,
    /// Failures as `workload on machine: message` lines.
    pub failures: Vec<String>,
    /// Artifact-cache counters of the session the sweep prepared
    /// through, when one was used (recorded into the JSON host object).
    pub cache: Option<CacheCounters>,
}

impl BenchReport {
    /// Total host nanoseconds across all rows.
    pub fn total_host_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.host_ns).sum()
    }

    /// Total committed instructions across all rows.
    pub fn total_committed(&self) -> u64 {
        self.rows.iter().map(|r| r.committed).sum()
    }

    /// Aggregate ns/instr: total host time over total committed work.
    pub fn total_ns_per_instr(&self) -> f64 {
        let committed = self.total_committed();
        if committed == 0 {
            return 0.0;
        }
        self.total_host_ns() as f64 / committed as f64
    }
}

/// A parsed seed baseline: per-row and aggregate ns/instr to compare a
/// fresh [`BenchReport`] against.
#[derive(Debug, Clone)]
pub struct BenchBaseline {
    /// Scale the baseline was recorded at (must match the fresh run).
    pub scale: String,
    /// `(workload, machine) → ns_per_instr` rows of the recorded run.
    pub rows: Vec<(String, String, f64)>,
    /// Aggregate ns/instr of the recorded run.
    pub total_ns_per_instr: f64,
}

impl BenchBaseline {
    /// Looks up the recorded ns/instr for one `(workload, machine)` row.
    pub fn row(&self, workload: &str, machine: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(w, m, _)| w == workload && m == machine)
            .map(|&(_, _, n)| n)
    }

    /// Parses a baseline from the JSON text a previous run wrote.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, carries a
    /// different schema identifier, or lacks the expected fields.
    pub fn parse(text: &str) -> Result<BenchBaseline, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "schema `{schema}` is not `{BENCH_SCHEMA}` — re-record the baseline"
            ));
        }
        let scale = doc
            .get("scale")
            .and_then(|v| v.as_str())
            .ok_or("missing `scale`")?
            .to_string();
        let total_ns_per_instr = doc
            .get("total")
            .and_then(|t| t.get("ns_per_instr"))
            .and_then(|v| v.as_num())
            .ok_or("missing `total.ns_per_instr`")?;
        let mut rows = Vec::new();
        for run in doc
            .get("runs")
            .and_then(|v| v.as_arr())
            .ok_or("missing `runs`")?
        {
            let get_str = |k: &str| run.get(k).and_then(|v| v.as_str()).map(str::to_string);
            let (Some(w), Some(m)) = (get_str("workload"), get_str("machine")) else {
                return Err("run row without workload/machine".to_string());
            };
            let n = run
                .get("ns_per_instr")
                .and_then(|v| v.as_num())
                .ok_or("run row without ns_per_instr")?;
            rows.push((w, m, n));
        }
        Ok(BenchBaseline {
            scale,
            rows,
            total_ns_per_instr,
        })
    }
}

/// The machine models a bench sweep times, with their short JSON keys.
pub fn bench_machines() -> Vec<(&'static str, MachineSpec)> {
    vec![
        ("diag", MachineSpec::Diag(diag_core::DiagConfig::f4c32())),
        ("ooo", MachineSpec::Ooo(12)),
        ("inorder", MachineSpec::InOrder),
    ]
}

/// Times one workload on one machine, best of `repeat` runs. Artifacts
/// are prepared through `session` before timing starts, so repeats (and
/// machines sharing a program) never re-assemble or re-lower.
fn time_one(
    session: &Session,
    kind: &MachineSpec,
    key: &str,
    spec: &WorkloadSpec,
    params: &Params,
    repeat: u32,
) -> Result<BenchRow, String> {
    let built = session
        .workload(spec, params)
        .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
    // The baselines adopt a prepared station table; DiAG loads its own
    // per-cluster stations at line-load time and mounts the bare image.
    let stations = match kind {
        MachineSpec::Diag(_) => None,
        MachineSpec::Ooo(_) | MachineSpec::InOrder => Some(
            session
                .stations(spec, params, None)
                .map_err(|e| format!("{}: build failed: {e}", spec.name))?,
        ),
    };
    let mut best_ns = u64::MAX;
    let mut stats = None;
    for _ in 0..repeat.max(1) {
        let mut machine = build_machine(kind);
        let t0 = Instant::now();
        let s = match &stations {
            Some(table) => machine.run_prepared(&built.program, table, params.threads),
            None => machine.run(&built.program, params.threads),
        }
        .map_err(|e| format!("{} on {key}: {e}", spec.name))?;
        let ns = t0.elapsed().as_nanos() as u64;
        (built.verify)(machine.as_ref())
            .map_err(|e| format!("{} on {key}: verification failed: {e}", spec.name))?;
        best_ns = best_ns.min(ns.max(1));
        stats = Some(s);
    }
    // lint: allow(unwrap) — the measurement loop above runs at least once
    let stats = stats.expect("repeat >= 1");
    let ns_per_instr = if stats.committed == 0 {
        0.0
    } else {
        best_ns as f64 / stats.committed as f64
    };
    Ok(BenchRow {
        workload: spec.name.to_string(),
        machine: key.to_string(),
        host_ns: best_ns,
        committed: stats.committed,
        sim_cycles: stats.cycles,
        ns_per_instr,
        speedup_vs_seed: None,
    })
}

/// Runs the host-time sweep: every workload in `specs` on every machine
/// in [`bench_machines`], serially, best of `repeat` runs each,
/// preparing artifacts through `session`. When a `baseline` is given,
/// per-row and aggregate speedups are attached.
pub fn run_bench(
    session: &Session,
    specs: &[WorkloadSpec],
    params: &Params,
    repeat: u32,
    baseline: Option<&BenchBaseline>,
) -> BenchReport {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for spec in specs {
        for (key, kind) in bench_machines() {
            match time_one(session, &kind, key, spec, params, repeat) {
                Ok(mut row) => {
                    row.speedup_vs_seed = baseline
                        .and_then(|b| b.row(&row.workload, &row.machine))
                        .filter(|_| rowable(&row))
                        .map(|seed| seed / row.ns_per_instr);
                    rows.push(row);
                }
                Err(message) => failures.push(message),
            }
        }
    }
    BenchReport {
        scale: params.scale,
        repeat,
        rows,
        failures,
        cache: Some(session.counters()),
    }
}

/// Whether a row has a meaningful ns/instr (committed > 0).
fn rowable(row: &BenchRow) -> bool {
    row.ns_per_instr > 0.0
}

/// Lowercase scale name used in the JSON report (`tiny` / `small` /
/// `full`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Renders the report as the `BENCH_sim.json` document.
pub fn to_json(report: &BenchReport, baseline: Option<&BenchBaseline>) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(report.scale)));
    out.push_str(&format!("  \"repeat\": {},\n", report.repeat));
    let mut host = crate::hostmeta::host_entries_with_repeat(report.repeat);
    if let Some(cache) = &report.cache {
        // Artifact-cache counters ride in the host object: free-form
        // provenance strings the baseline parser ignores. The keys and
        // rendering are shared with the server's `status` frame.
        host.extend(crate::hostmeta::cache_entries(cache));
    }
    out.push_str(&format!(
        "  \"host\": {},\n",
        crate::hostmeta::render_host_object(&host)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"machine\": \"{}\", \"host_ns\": {}, \
             \"committed\": {}, \"sim_cycles\": {}, \"ns_per_instr\": {:.3}{}}}{}\n",
            json::escape(&row.workload),
            json::escape(&row.machine),
            row.host_ns,
            row.committed,
            row.sim_cycles,
            row.ns_per_instr,
            match row.speedup_vs_seed {
                Some(s) => format!(", \"speedup_vs_seed\": {s:.3}"),
                None => String::new(),
            },
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let total_speedup = baseline
        .filter(|_| report.total_ns_per_instr() > 0.0)
        .map(|b| b.total_ns_per_instr / report.total_ns_per_instr());
    out.push_str(&format!(
        "  \"total\": {{\"host_ns\": {}, \"committed\": {}, \"ns_per_instr\": {:.3}{}}},\n",
        report.total_host_ns(),
        report.total_committed(),
        report.total_ns_per_instr(),
        match total_speedup {
            Some(s) => format!(", \"speedup_vs_seed\": {s:.3}"),
            None => String::new(),
        },
    ));
    out.push_str(&format!(
        "  \"failures\": [{}]\n",
        report
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("}\n");
    out
}

/// Checks the report against a baseline: returns an error message when
/// the aggregate ns/instr regressed by more than `max_regress_pct`.
///
/// The gate uses the aggregate (not per-row) figure because individual
/// rows at `--quick` scale run microseconds and jitter accordingly; the
/// aggregate over every workload × machine is stable enough to gate on.
pub fn check_regression(
    report: &BenchReport,
    baseline: &BenchBaseline,
    max_regress_pct: f64,
) -> Result<(), String> {
    if baseline.scale != scale_name(report.scale) {
        return Err(format!(
            "baseline was recorded at scale `{}`, this run is `{}` — not comparable",
            baseline.scale,
            scale_name(report.scale)
        ));
    }
    let now = report.total_ns_per_instr();
    let seed = baseline.total_ns_per_instr;
    if now <= 0.0 || seed <= 0.0 {
        return Err("no timed work to compare".to_string());
    }
    let regress_pct = (now / seed - 1.0) * 100.0;
    if regress_pct > max_regress_pct {
        return Err(format!(
            "host ns/instr regressed {regress_pct:.1}% vs seed baseline \
             ({now:.1} ns/instr vs {seed:.1}), limit {max_regress_pct:.0}%"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(rows: Vec<BenchRow>) -> BenchReport {
        BenchReport {
            scale: Scale::Tiny,
            repeat: 1,
            rows,
            failures: Vec::new(),
            cache: None,
        }
    }

    fn row(workload: &str, machine: &str, host_ns: u64, committed: u64) -> BenchRow {
        BenchRow {
            workload: workload.to_string(),
            machine: machine.to_string(),
            host_ns,
            committed,
            sim_cycles: 10,
            ns_per_instr: host_ns as f64 / committed as f64,
            speedup_vs_seed: None,
        }
    }

    #[test]
    fn json_round_trips_through_baseline_parser() {
        let report = report_with(vec![row("a", "diag", 1000, 10), row("a", "ooo", 300, 10)]);
        let text = to_json(&report, None);
        let baseline = BenchBaseline::parse(&text).expect("round-trip");
        assert_eq!(baseline.scale, "tiny");
        assert_eq!(baseline.row("a", "diag"), Some(100.0));
        assert_eq!(baseline.row("a", "ooo"), Some(30.0));
        assert!((baseline.total_ns_per_instr - 65.0).abs() < 1e-9);
    }

    #[test]
    fn regression_gate_fires_only_past_threshold() {
        let report = report_with(vec![row("a", "diag", 1300, 10)]);
        let text = to_json(&report_with(vec![row("a", "diag", 1000, 10)]), None);
        let baseline = BenchBaseline::parse(&text).expect("parses");
        assert!(check_regression(&report, &baseline, 25.0).is_err());
        assert!(check_regression(&report, &baseline, 35.0).is_ok());
    }

    #[test]
    fn mismatched_scale_is_an_error() {
        let report = report_with(vec![row("a", "diag", 1000, 10)]);
        let text = to_json(&report, None).replace("\"tiny\"", "\"small\"");
        let baseline = BenchBaseline::parse(&text).expect("parses");
        let err = check_regression(&report, &baseline, 25.0).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
    }

    #[test]
    fn baseline_rejects_wrong_schema() {
        let err = BenchBaseline::parse("{\"schema\": \"nope\"}").unwrap_err();
        assert!(err.contains("re-record"), "{err}");
    }

    #[test]
    fn failures_escape_control_characters() {
        let raw = "a\"b\\c\nd\u{1}";
        let mut report = report_with(Vec::new());
        report.failures.push(raw.to_string());
        let doc = json::parse(&to_json(&report, None)).expect("valid JSON");
        let failures = doc.get("failures").and_then(json::Value::as_arr);
        assert_eq!(failures.and_then(|f| f[0].as_str()), Some(raw));
    }
}
