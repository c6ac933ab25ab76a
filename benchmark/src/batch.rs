//! The batch workloads: `sweep-small`, `sweep-baselines` and
//! `tune-tiny`.
//!
//! `sweep-small` runs every kernel on `diag:f4c32` at small scale,
//! serially, each run on a fresh machine through `runner::run_built`
//! (the run memo is bypassed), so it measures DiAG's step loop; machine
//! set-up is ~2% of a run there. `sweep-baselines` does the same on the
//! two baselines (`ooo:12`, `inorder`). The two are separate workloads
//! so that a baseline speed-up cannot hide a DiAG slowdown inside one
//! aggregate.
//!
//! `tune-tiny` times `tune::tune` itself: the autotuner's 36-point grid
//! over every kernel at tiny scale, two workers, a fresh in-memory
//! `Session` per pass. Its latency is the same tune of one kernel at a
//! time. Runs are ~1.7k instructions, so machine construction and load
//! are a third of each, and the session, the sweep runner and the
//! energy model are on the path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use diag_bench::runner::{build_machine, run_built, MachineSpec};
use diag_bench::sweep::{Sweep, SweepMetrics, SweepRun};
use diag_bench::tune;
use diag_pipeline::{run_key, Session};
use diag_power::DiagEnergyModel;
use diag_sim::RunStats;
use diag_telemetry::Registry;
use diag_workloads::{Params, WorkloadSpec};

use crate::digest::Digest;
use crate::expected::Expected;
use crate::layers::{self, Decompose, Family, RunParts};
use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{median, Latencies};
use crate::trace::Spans;

/// Fresh set-ups timed before the first pass; one more follows every
/// timed pass, so `setup_s` is a median over the whole run.
const SETUPS: usize = 11;

/// The three batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Every kernel on diag:f4c32, small scale, serial.
    SweepSmall,
    /// Every kernel × {ooo:12, inorder}, small scale, serial.
    SweepBaselines,
    /// The tune grid × every kernel, tiny scale, two workers.
    TuneTiny,
}

impl Batch {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Batch::SweepSmall => "sweep-small",
            Batch::SweepBaselines => "sweep-baselines",
            Batch::TuneTiny => "tune-tiny",
        }
    }
}

/// Everything one batch workload runs, fixed by its seed.
pub struct Plan {
    kind: Batch,
    specs: Vec<WorkloadSpec>,
    params: Params,
    grid: Vec<MachineSpec>,
    runs: Vec<SweepRun>,
}

impl Plan {
    /// The plan for `kind` with workload inputs drawn from `seed`.
    ///
    /// # Errors
    ///
    /// A machine spec that does not parse (a bug).
    pub fn new(kind: Batch, seed: u64) -> Result<Plan, String> {
        let specs = diag_workloads::all();
        let (params, grid) = match kind {
            Batch::SweepSmall => (Params::small(), vec![MachineSpec::parse("diag:f4c32")?]),
            Batch::SweepBaselines => (
                Params::small(),
                vec![MachineSpec::parse("ooo:12")?, MachineSpec::InOrder],
            ),
            Batch::TuneTiny => (Params::tiny(), tune::default_grid()),
        };
        let params = Params { seed, ..params };
        // Kernel-major, grid-minor: the order `tune` submits in.
        let runs = specs
            .iter()
            .flat_map(|spec| {
                grid.iter().map(|m| SweepRun {
                    machine: m.clone(),
                    spec: *spec,
                    params,
                })
            })
            .collect();
        Ok(Plan {
            kind,
            specs,
            params,
            grid,
            runs,
        })
    }

    /// Prepares every kernel through `session`; returns `(assembly ns,
    /// lowering ns)`. Only the baselines mount the lowered station
    /// tables, so only `sweep-baselines` lowers.
    ///
    /// # Errors
    ///
    /// The first workload build failure.
    pub fn prepare(&self, session: &Session) -> Result<(u64, u64), String> {
        let keys: Vec<_> = self.specs.iter().map(|s| (*s, self.params)).collect();
        layers::prepare(session, &keys, self.kind == Batch::SweepBaselines)
    }
}

/// One pass's results.
pub struct Pass {
    /// Wall time of the pass (`tune-tiny`: of the full `tune::tune`).
    pub secs: f64,
    /// Host ms of each unit a user waits on: one run, in plan order
    /// (sweeps), or one kernel's tune, in kernel order (`tune-tiny`).
    pub latency_ms: Vec<f64>,
    /// Each run's statistics or failure, in plan order.
    pub results: Vec<Result<RunStats, String>>,
    /// The rendered tune report (`tune-tiny` only).
    pub report: Option<String>,
    /// The one-kernel tunes' reports, back to back (`tune-tiny` only);
    /// the full report renders kernel by kernel, so the two must match.
    pub kernel_reports: Option<String>,
    /// Failed runs in the one-kernel tunes.
    pub kernel_failures: u64,
}

impl Pass {
    /// Digest over every run's statistics, in plan order (failures fold
    /// their message).
    pub fn runs_digest(&self) -> String {
        let mut d = Digest::default();
        for r in &self.results {
            match r {
                Ok(stats) => d.run_stats(stats),
                Err(e) => d.str(e),
            }
        }
        d.hex()
    }

    /// Digest of the rendered tune report.
    pub fn report_digest(&self) -> Option<String> {
        self.report.as_ref().map(|r| {
            let mut d = Digest::default();
            d.str(r);
            d.hex()
        })
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// Runs the pass attempted, and how many of them failed.
    fn counts(&self) -> (u64, u64) {
        let (n, failed) = (self.results.len() as u64, self.failures().count() as u64);
        match self.kernel_reports {
            Some(_) => (2 * n, failed + self.kernel_failures),
            None => (n, failed),
        }
    }
}

/// Two workers, as `tune-tiny` specifies.
const TUNE_JOBS: usize = 2;

/// One untraced pass. The sweeps run on the prepared `session`;
/// `tune-tiny` prepares through fresh sessions of its own.
pub fn pass(plan: &Plan, session: &Session) -> Pass {
    match plan.kind {
        Batch::SweepSmall | Batch::SweepBaselines => sweep_pass(plan, session),
        Batch::TuneTiny => tune_pass(plan),
    }
}

fn sweep_pass(plan: &Plan, session: &Session) -> Pass {
    let t0 = Instant::now();
    let mut latency_ms = Vec::with_capacity(plan.runs.len());
    let mut results = Vec::with_capacity(plan.runs.len());
    for run in &plan.runs {
        let t = Instant::now();
        let mut machine = build_machine(&run.machine);
        let r = run_built(
            session,
            &run.machine,
            &run.spec,
            &run.params,
            machine.as_mut(),
        );
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(r.map_err(|e| e.to_string()));
    }
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        latency_ms,
        results,
        report: None,
        kernel_reports: None,
        kernel_failures: 0,
    }
}

/// `tune::tune` over the whole grid on a fresh session (timed as the
/// pass), then over one kernel at a time (each timed as one latency
/// sample). Run statistics are read back from the first session's run
/// memo, untimed.
fn tune_pass(plan: &Plan) -> Pass {
    let t0 = Instant::now();
    let session = Session::in_memory();
    let report = tune::tune(&session, &plan.specs, &plan.grid, &plan.params, TUNE_JOBS);
    let secs = t0.elapsed().as_secs_f64();
    let results = plan
        .runs
        .iter()
        .map(|r| {
            session
                .cached_run(run_key(r.spec.name, &r.params, &r.machine))
                .ok_or_else(|| format!("{} on {}: run failed", r.spec.name, r.machine.render()))
        })
        .collect();

    let mut latency_ms = Vec::with_capacity(plan.specs.len());
    let mut kernel_reports = String::new();
    let mut kernel_failures = 0;
    for spec in &plan.specs {
        let t = Instant::now();
        let one = tune::tune(
            &Session::in_memory(),
            std::slice::from_ref(spec),
            &plan.grid,
            &plan.params,
            TUNE_JOBS,
        );
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        kernel_failures += one
            .frontiers
            .iter()
            .map(|f| f.failed.len() as u64)
            .sum::<u64>();
        kernel_reports.push_str(&one.render());
    }
    Pass {
        secs,
        latency_ms,
        results,
        report: Some(report.render()),
        kernel_reports: Some(kernel_reports),
        kernel_failures,
    }
}

/// Runs `f(state, i)` for every `i < n` on `jobs` workers pulling from
/// one shared counter (the sweep runner's scheduling), returning the
/// results in index order and each worker's state. Only the traced
/// `tune-tiny` pass uses it, to decompose each run on its worker.
fn parallel<T: Send, W: Send>(
    n: usize,
    jobs: usize,
    init: impl Fn(u32) -> W + Sync,
    f: impl Fn(&mut W, usize) -> T + Sync,
) -> (Vec<T>, Vec<W>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs as u32)
            .map(|tid| {
                let (next, slots, init, f) = (&next, &slots, &init, &f);
                scope.spawn(move || {
                    let mut state = init(tid);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let value = f(&mut state, i);
                        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every index is claimed by a worker")
        })
        .collect();
    (results, states)
}

/// What one traced pass measured.
struct Traced {
    /// Each run's parts, in plan order.
    parts: Vec<RunParts>,
    /// Pass wall time.
    secs: f64,
    /// Session-wide cache hits, builds, and run-stage builds in the pass.
    hits: u64,
    builds: u64,
    run_builds: u64,
}

/// One traced pass: every run decomposed into timed layer calls, spans
/// recorded.
fn traced_pass(
    plan: &Plan,
    session: &Session,
    spans: &mut Spans,
    first_id: u64,
) -> Result<Traced, String> {
    let t0 = Instant::now();
    let before = session.counters();
    let model = DiagEnergyModel::default();
    let parts = match plan.kind {
        Batch::SweepSmall | Batch::SweepBaselines => {
            let mut parts = Vec::with_capacity(plan.runs.len());
            for (i, run) in plan.runs.iter().enumerate() {
                let id = first_id + i as u64;
                parts.push(layers::run_decomposed(
                    session,
                    run,
                    Decompose::default(),
                    Some(spans),
                    0,
                    id,
                )?);
            }
            parts
        }
        Batch::TuneTiny => {
            let opts = Decompose {
                memo: true,
                energy: Some(&model),
            };
            let origin = spans.origin();
            let (parts, workers) = parallel(
                plan.runs.len(),
                TUNE_JOBS,
                |tid| (tid, Spans::new(origin)),
                |(tid, ws), i| {
                    let id = first_id + i as u64;
                    layers::run_decomposed(session, &plan.runs[i], opts, Some(ws), *tid, id)
                },
            );
            for (_, ws) in workers {
                spans.absorb(ws);
            }
            let t = Instant::now();
            tune::tune(session, &plan.specs, &plan.grid, &plan.params, TUNE_JOBS);
            spans.record("tune.report", 0, "run", first_id, t, Instant::now());
            parts.into_iter().collect::<Result<Vec<_>, _>>()?
        }
    };
    let after = session.counters();
    Ok(Traced {
        parts,
        secs: t0.elapsed().as_secs_f64(),
        hits: after.hits() - before.hits(),
        builds: after.builds() - before.builds(),
        run_builds: after.runs.builds - before.runs.builds,
    })
}

/// Checks one pass against the warm-up pass and the pinned digests.
fn check(out: &mut Outcome, plan: &Plan, pass: &Pass, reference: &Pass) {
    let name = plan.kind.name();
    for e in pass.failures().take(3) {
        out.problem(format!("{name}: run failed: {e}"));
    }
    if pass.runs_digest() != reference.runs_digest() {
        out.problem(format!(
            "{name}: run statistics changed between passes ({} vs {})",
            pass.runs_digest(),
            reference.runs_digest()
        ));
    }
    if pass.report_digest() != reference.report_digest() {
        out.problem(format!("{name}: tune report changed between passes"));
    }
    if pass.kernel_reports.is_some() && pass.kernel_reports != pass.report {
        out.problem(format!(
            "{name}: one-kernel tunes disagree with the full tune"
        ));
    }
}

/// Set-up timings: each a fresh `Session` preparing every kernel.
#[derive(Default)]
struct SetUps {
    secs: Vec<f64>,
    build_ms: Vec<f64>,
    lower_ms: Vec<f64>,
}

impl SetUps {
    /// One timed set-up; returns its prepared session.
    fn run(&mut self, plan: &Plan) -> Result<Session, String> {
        let t = Instant::now();
        let session = Session::in_memory();
        let (build, lower) = plan.prepare(&session)?;
        self.secs.push(t.elapsed().as_secs_f64());
        self.build_ms.push(build as f64 / 1e6);
        self.lower_ms.push(lower as f64 / 1e6);
        Ok(session)
    }
}

/// Runs a batch workload for `seconds` of measurement.
///
/// Untraced (`spans: None`): [`SETUPS`] fresh set-ups, one warm-up pass,
/// then timed passes, each followed by one more set-up; reports the
/// end-to-end metrics. Traced: the same, with the untraced passes cut to
/// 40% of the time, then decomposed passes with spans, the metered
/// sweeps and the hook-overhead runs; reports the per-layer metrics.
///
/// # Errors
///
/// A failure that leaves nothing to measure (a plan or build error).
pub fn run(
    kind: Batch,
    seed: u64,
    seconds: f64,
    expected: Option<&Expected>,
    spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    let plan = Plan::new(kind, seed)?;
    let mut out = Outcome::new();

    let mut setups = SetUps::default();
    let mut session = setups.run(&plan)?;
    for _ in 1..SETUPS {
        session = setups.run(&plan)?;
    }

    let reference = pass(&plan, &session);
    check(&mut out, &plan, &reference, &reference);
    if let Some(exp) = expected {
        exp.check_batch(&mut out, plan.kind.name(), &reference);
    }

    let traced = spans.is_some();
    let untraced_budget = if traced { seconds * 0.4 } else { seconds };
    // Only the timings are kept once a pass is checked: holding every
    // pass's statistics would inflate the process's own peak RSS.
    let mut pass_secs = Vec::new();
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while pass_secs.len() < 3 || start.elapsed().as_secs_f64() < untraced_budget {
        let p = pass(&plan, &session);
        check(&mut out, &plan, &p, &reference);
        let (attempted, failed) = p.counts();
        out.attempted += attempted;
        out.failed += failed;
        pass_secs.push(p.secs);
        latency_ms.push(p.latency_ms);
        setups.run(&plan)?;
    }
    let lat = Latencies::new(latency_ms.iter().flatten().copied().collect());
    println!(
        "{}: {} passes of {} runs; pass {:.4}s median; {} latency {}; set-up {:.6}s median of {}",
        kind.name(),
        pass_secs.len(),
        plan.runs.len(),
        median(&pass_secs),
        if kind == Batch::TuneTiny {
            "one-kernel tune"
        } else {
            "run"
        },
        lat.describe("ms"),
        median(&setups.secs),
        setups.secs.len()
    );

    let Some(spans) = spans else {
        out.set("setup_s", median(&setups.secs));
        out.set("pass_s", median(&pass_secs));
        out.set("latency_p50_ms", lat.p50());
        out.set("peak_rss_mib", peak_rss_mib("self").unwrap_or(0.0));
        return Ok(out);
    };

    out.set("e2e.latency_p99_ms", lat.pct(99.0));
    out.set(
        "e2e.goodput_rps",
        (pass_secs.len() * plan.runs.len()) as f64 / pass_secs.iter().sum::<f64>(),
    );

    // Per-machine host cost of the untraced sweep runs.
    if kind != Batch::TuneTiny {
        for (family, name) in [
            (Family::Diag, "diag_ns_per_instr"),
            (Family::Ooo, "ooo_ns_per_instr"),
            (Family::InOrder, "inorder_ns_per_instr"),
        ] {
            // Every pass commits what the reference pass did (the digest
            // check above holds them equal).
            let (mut ns, mut committed) = (0.0, 0u64);
            for times in &latency_ms {
                for ((run, ms), r) in plan.runs.iter().zip(times).zip(&reference.results) {
                    if let (true, Ok(stats)) = (Family::of(&run.machine) == family, r) {
                        ns += ms * 1e6;
                        committed += stats.committed;
                    }
                }
            }
            if committed > 0 {
                out.set(name, ns / committed as f64);
            }
        }
    }
    out.set("workloads.build_ms", median(&setups.build_ms));
    if plan.kind == Batch::SweepBaselines {
        out.set("isa.lower_ms", median(&setups.lower_ms));
    }

    let mut traced_secs = Vec::new();
    let mut traced_layer_ns = Vec::new();
    let mut all_parts = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while traced_secs.len() < 3 || start.elapsed().as_secs_f64() < seconds * 0.4 {
        let fresh;
        let s = match plan.kind {
            Batch::SweepSmall | Batch::SweepBaselines => &session,
            Batch::TuneTiny => {
                fresh = Session::in_memory();
                &fresh
            }
        };
        let first_id = (traced_secs.len() * plan.runs.len()) as u64;
        let mut t = traced_pass(&plan, s, spans, first_id)?;
        let mut digest = Digest::default();
        t.parts.iter().for_each(|p| digest.run_stats(&p.stats));
        if digest.hex() != reference.runs_digest() {
            out.problem(format!(
                "{}: decomposed runs disagree with the untraced runs",
                kind.name()
            ));
        }
        traced_layer_ns.push(t.parts.iter().map(|p| p.layer_ns() as f64).sum::<f64>());
        traced_secs.push(t.secs);
        all_parts.append(&mut t.parts);
        last = Some(t);
    }
    layers::fold(&all_parts, &mut out);
    // Cache counts of one pass: identical in every pass.
    if let Some(t) = last {
        out.set(
            "pipeline.hit_ratio",
            t.hits as f64 / (t.hits + t.builds).max(1) as f64,
        );
        out.set(
            "pipeline.run_builds_per_req",
            t.run_builds as f64 / plan.runs.len() as f64,
        );
    }

    // Untraced host time the runs took in a pass: the sum of the run
    // times for the serial sweeps; the pass time across both workers
    // for `tune-tiny` (whose timed path has no per-run clock).
    let untraced_ns: Vec<f64> = match kind {
        Batch::TuneTiny => pass_secs
            .iter()
            .map(|s| s * 1e9 * TUNE_JOBS as f64)
            .collect(),
        _ => latency_ms
            .iter()
            .map(|t| t.iter().sum::<f64>() * 1e6)
            .collect(),
    };
    let u = median(&untraced_ns);
    out.set(
        "reconcile.residual_pct",
        100.0 * (u - median(&traced_layer_ns)) / u,
    );
    let up = median(&pass_secs);
    out.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_secs) - up) / up,
    );

    if plan.kind == Batch::TuneTiny {
        sweep_runner(&plan, &mut out);
    }

    let kernels = hook_kernels()?;
    let budget = Duration::from_secs_f64((seconds * 0.15).max(1.0));
    let (nullsink, profiler) = layers::hook_overhead(&session, &kernels, &plan.params, budget)?;
    out.set("trace.nullsink_overhead_pct", nullsink);
    out.set("profile.collector_overhead_pct", profiler);
    Ok(out)
}

/// The sweep runner's own accounting: `tune-tiny`'s runs through
/// `Sweep::execute_metered` on fresh sessions.
fn sweep_runner(plan: &Plan, out: &mut Outcome) {
    let registry = Registry::new();
    let metrics = SweepMetrics::new(&registry);
    for _ in 0..3 {
        let mut sweep = Sweep::new();
        for run in &plan.runs {
            sweep.add(run.machine.clone(), run.spec, run.params);
        }
        let results = sweep.execute_metered(&Session::in_memory(), TUNE_JOBS, &metrics);
        if !results.failures().is_empty() {
            out.problem("tune-tiny: metered sweep had failures".to_string());
        }
    }
    let snap = registry.snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(k, _)| k.name() == name)
            .map_or(0, |(_, v)| *v)
    };
    let (busy, idle) = (
        counter("diag_sweep_worker_busy_ns"),
        counter("diag_sweep_worker_idle_ns"),
    );
    out.set(
        "sweep.busy_ratio",
        busy as f64 / (busy + idle).max(1) as f64,
    );
    if let Some((_, h)) = snap
        .histograms
        .iter()
        .find(|(k, _)| k.name() == "diag_sweep_run_ns")
    {
        out.set("sweep.run_us_p50", h.p50() as f64 / 1e3);
        out.set("sweep.run_us_p99", h.p99() as f64 / 1e3);
    }
}

/// The two kernels the hook-overhead runs use: one compute-bound, one
/// memory-bound.
pub fn hook_kernels() -> Result<Vec<WorkloadSpec>, String> {
    ["hotspot", "bfs"]
        .iter()
        .map(|n| diag_workloads::find(n).ok_or_else(|| format!("kernel {n} is not registered")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_keep_diag_apart_from_the_baselines() {
        let families = |kind| {
            let plan = Plan::new(kind, 1).unwrap();
            let mut f: Vec<Family> = plan.runs.iter().map(|r| Family::of(&r.machine)).collect();
            f.sort_by_key(|f| *f as u8);
            f.dedup();
            (plan.runs.len(), f)
        };
        assert_eq!(families(Batch::SweepSmall), (18, vec![Family::Diag]));
        assert_eq!(
            families(Batch::SweepBaselines),
            (36, vec![Family::Ooo, Family::InOrder])
        );
        assert_eq!(families(Batch::TuneTiny), (648, vec![Family::Diag]));
    }
}
