//! Per-layer timing from outside: every simulation run broken into the
//! public calls it is made of, each one timed.
//!
//! `runner::run_built` is workload lookup → (baselines: station-table
//! lookup) → `Machine::load` / `load_prepared` → `step` until halted →
//! the workload's `verify` closure. [`run_decomposed`] makes exactly
//! those calls, one at a time, with a fresh machine from
//! `build_machine`, and optionally the run memo (`cached_run` /
//! `record_run`) and the energy model around them — so the parts add up
//! to what the untraced run costs, and the reconciliation residual
//! measures only what the timers themselves add.

use std::hint::black_box;
use std::time::{Duration, Instant};

use diag_bench::runner::{build_machine, MachineSpec};
use diag_bench::sweep::SweepRun;
use diag_pipeline::{run_key, Session};
use diag_power::DiagEnergyModel;
use diag_sim::{ProfileCollector, Profiler, RunStats, Tracer};
use diag_trace::NullSink;
use diag_workloads::{Params, WorkloadSpec};

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Spans;

/// Which simulator a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `diag-core`.
    Diag,
    /// The out-of-order baseline.
    Ooo,
    /// The in-order baseline.
    InOrder,
}

impl Family {
    /// The family of a machine spec.
    pub fn of(spec: &MachineSpec) -> Family {
        match spec {
            MachineSpec::Diag(_) => Family::Diag,
            MachineSpec::Ooo(_) => Family::Ooo,
            MachineSpec::InOrder => Family::InOrder,
        }
    }

    /// Span names for construction, load, and stepping.
    fn span_names(self) -> [&'static str; 3] {
        match self {
            Family::Diag => ["core.new", "core.load", "core.step"],
            Family::Ooo => ["baseline.ooo.new", "baseline.ooo.load", "baseline.ooo.step"],
            Family::InOrder => [
                "baseline.inorder.new",
                "baseline.inorder.load",
                "baseline.inorder.step",
            ],
        }
    }
}

/// Host time of each part of one run, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct RunParts {
    /// Simulator family.
    pub family: Family,
    /// Session lookups (workload, and station table for baselines).
    pub lookup_ns: u64,
    /// `build_machine`.
    pub new_ns: u64,
    /// `load` / `load_prepared`.
    pub load_ns: u64,
    /// The `step` loop.
    pub step_ns: u64,
    /// `step` calls made.
    pub steps: u64,
    /// The workload's `verify` closure.
    pub verify_ns: u64,
    /// `cached_run` + `record_run` (0 when the run memo is not used).
    pub memo_ns: u64,
    /// `DiagEnergyModel::energy` (0 when not computed).
    pub energy_ns: u64,
    /// The run's statistics.
    pub stats: RunStats,
}

impl RunParts {
    /// Sum of every timed part.
    pub fn layer_ns(&self) -> u64 {
        self.lookup_ns
            + self.new_ns
            + self.load_ns
            + self.step_ns
            + self.verify_ns
            + self.memo_ns
            + self.energy_ns
    }
}

/// Lap timer that also records a span per lap when tracing.
struct Laps<'a> {
    mark: Instant,
    spans: Option<&'a mut Spans>,
    tid: u32,
    id: u64,
}

impl Laps<'_> {
    fn lap(&mut self, name: &'static str) -> u64 {
        let now = Instant::now();
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.record(name, self.tid, "run", self.id, self.mark, now);
        }
        let ns = u64::try_from(now.duration_since(self.mark).as_nanos()).unwrap_or(u64::MAX);
        self.mark = now;
        ns
    }
}

/// Options of one decomposed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decompose<'a> {
    /// Consult and fill the session's run memo (as `run_one` does).
    pub memo: bool,
    /// Price the run with the energy model (as `tune` does).
    pub energy: Option<&'a DiagEnergyModel>,
}

/// Runs `run` through `session` one public call at a time, timing each
/// part, recording spans into `spans` (worker `tid`, run `id`) when
/// given.
///
/// # Errors
///
/// Describes the failing stage (build, simulate, verify) like
/// `RunError` does.
pub fn run_decomposed(
    session: &Session,
    run: &SweepRun,
    opts: Decompose<'_>,
    spans: Option<&mut Spans>,
    tid: u32,
    id: u64,
) -> Result<RunParts, String> {
    let family = Family::of(&run.machine);
    let [new_name, load_name, step_name] = family.span_names();
    let (spec, params) = (&run.spec, &run.params);
    let label = || format!("{} on {}", spec.name, run.machine.render());
    let mut laps = Laps {
        mark: Instant::now(),
        spans,
        tid,
        id,
    };
    let key = run_key(spec.name, params, &run.machine);
    let mut memo_ns = 0;
    if opts.memo {
        let hit = session.cached_run(key);
        memo_ns += laps.lap("pipeline.run_memo");
        if hit.is_some() {
            return Err(format!("{}: unexpected run-memo hit", label()));
        }
    }
    let built = session
        .workload(spec, params)
        .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
    let mut lookup_ns = laps.lap("pipeline.lookup");
    let mut machine = build_machine(&run.machine);
    let new_ns = laps.lap(new_name);
    let stations = match family {
        Family::Diag => None,
        Family::Ooo | Family::InOrder => {
            let table = session
                .stations(spec, params, None)
                .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
            lookup_ns += laps.lap("pipeline.lookup");
            Some(table)
        }
    };
    match &stations {
        Some(table) => machine.load_prepared(&built.program, table, params.threads),
        None => machine.load(&built.program, params.threads),
    }
    let load_ns = laps.lap(load_name);
    let mut steps = 0u64;
    loop {
        steps += 1;
        match machine.step() {
            Ok(outcome) if outcome.is_halted() => break,
            Ok(_) => {}
            Err(e) => return Err(format!("{}: {e}", label())),
        }
    }
    let stats = machine.stats();
    let step_ns = laps.lap(step_name);
    (built.verify)(machine.as_ref())
        .map_err(|e| format!("{}: verification failed: {e}", label()))?;
    let verify_ns = laps.lap("workloads.verify");
    if opts.memo {
        session.record_run(key, stats);
        memo_ns += laps.lap("pipeline.run_memo");
    }
    let energy_ns = match opts.energy {
        Some(model) => {
            black_box(model.energy(black_box(&stats)).total_nj());
            laps.lap("power.energy")
        }
        None => 0,
    };
    Ok(RunParts {
        family,
        lookup_ns,
        new_ns,
        load_ns,
        step_ns,
        steps,
        verify_ns,
        memo_ns,
        energy_ns,
        stats,
    })
}

/// Prepares every distinct `(workload, params)` in `keys` through
/// `session`, returning `(assembly ns, station-table lowering ns)`;
/// lowering happens only when `stations` is set (the baselines mount
/// the lowered table, DiAG loads stations per cluster instead).
///
/// # Errors
///
/// The first workload build failure.
pub fn prepare(
    session: &Session,
    keys: &[(WorkloadSpec, Params)],
    stations: bool,
) -> Result<(u64, u64), String> {
    let (mut build, mut lower) = (0u64, 0u64);
    for (spec, params) in keys {
        let t0 = Instant::now();
        session
            .workload(spec, params)
            .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
        let t1 = Instant::now();
        if stations {
            session
                .stations(spec, params, None)
                .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
        }
        build += (t1 - t0).as_nanos() as u64;
        lower += t1.elapsed().as_nanos() as u64;
    }
    Ok((build, lower))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Folds decomposed runs into the per-layer metrics they measure:
/// medians of per-call times, host ns per committed instruction for
/// the step loops, and the simulated-model counts that a pure speed
/// change must leave identical.
pub fn fold(parts: &[RunParts], out: &mut Outcome) {
    let of = |f: Family| parts.iter().filter(move |p| p.family == f);
    let med = |f: Family, get: fn(&RunParts) -> u64| -> f64 {
        median(&of(f).map(|p| get(p) as f64).collect::<Vec<_>>())
    };
    let per_instr = |f: Family, get: fn(&RunParts) -> u64| -> f64 {
        ratio(of(f).map(get).sum(), of(f).map(|p| p.stats.committed).sum())
    };
    out.set("core.new_us", us(med(Family::Diag, |p| p.new_ns)));
    out.set("core.load_us", us(med(Family::Diag, |p| p.load_ns)));
    out.set(
        "core.step_ns_per_instr",
        per_instr(Family::Diag, |p| p.step_ns),
    );
    out.set("sim.steps_per_instr", per_instr(Family::Diag, |p| p.steps));
    out.set("baseline.ooo.load_us", us(med(Family::Ooo, |p| p.load_ns)));
    out.set(
        "baseline.ooo.step_ns_per_instr",
        per_instr(Family::Ooo, |p| p.step_ns),
    );
    out.set(
        "baseline.inorder.load_us",
        us(med(Family::InOrder, |p| p.load_ns)),
    );
    out.set(
        "baseline.inorder.step_ns_per_instr",
        per_instr(Family::InOrder, |p| p.step_ns),
    );
    let all = |get: fn(&RunParts) -> u64| -> Vec<f64> {
        parts
            .iter()
            .map(|p| get(p) as f64)
            .filter(|&v| v > 0.0)
            .collect()
    };
    out.set("workloads.verify_us", us(median(&all(|p| p.verify_ns))));
    out.set("pipeline.lookup_ns", median(&all(|p| p.lookup_ns)));
    let memo = all(|p| p.memo_ns);
    if !memo.is_empty() {
        out.set("pipeline.run_memo_ns", median(&memo));
    }
    let energy = all(|p| p.energy_ns);
    if !energy.is_empty() {
        out.set("power.energy_us", us(median(&energy)));
    }
    let diag_sum =
        |get: fn(&RunStats) -> u64| -> u64 { of(Family::Diag).map(|p| get(&p.stats)).sum() };
    let committed = diag_sum(|s| s.committed);
    out.set(
        "core.reuse_share",
        ratio(diag_sum(|s| s.activity.reuse_commits), committed),
    );
    out.set(
        "core.decodes_per_kinstr",
        1e3 * ratio(diag_sum(|s| s.activity.decodes), committed),
    );
    out.set(
        "core.line_fetches_per_kinstr",
        1e3 * ratio(diag_sum(|s| s.activity.line_fetches), committed),
    );
    out.set(
        "core.lane_transports_per_instr",
        ratio(diag_sum(|s| s.activity.lane_transports), committed),
    );
    out.set(
        "mem.memlane_hit_share",
        ratio(
            diag_sum(|s| s.activity.memlane_hits),
            diag_sum(|s| s.activity.loads),
        ),
    );
    let sum = |get: fn(&RunStats) -> u64| -> u64 { parts.iter().map(|p| get(&p.stats)).sum() };
    out.set(
        "mem.loads_per_instr",
        ratio(sum(|s| s.activity.loads), sum(|s| s.committed)),
    );
    out.set(
        "mem.l1d_miss_ratio",
        ratio(
            sum(|s| s.activity.l1d_misses),
            sum(|s| s.activity.l1d_accesses),
        ),
    );
}

/// How a hook-overhead run is instrumented.
#[derive(Clone, Copy)]
enum Hooks {
    Off,
    NullTracer,
    Profiler,
}

/// Host-time overhead, in percent of the hooks-off run, of a null-sink
/// tracer and of the profile collector on DiAG (the ROADMAP's hook
/// path), over `kernels` at `params`. Modes alternate within each round
/// so host drift hits all three alike; rounds repeat until `budget`.
///
/// # Errors
///
/// A run that fails or mis-verifies.
pub fn hook_overhead(
    session: &Session,
    kernels: &[WorkloadSpec],
    params: &Params,
    budget: Duration,
) -> Result<(f64, f64), String> {
    let machine = MachineSpec::parse("diag:f4c32")?;
    let modes = [Hooks::Off, Hooks::NullTracer, Hooks::Profiler];
    let mut times: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); kernels.len()]; modes.len()];
    let start = Instant::now();
    let mut round = 0;
    while round < 3 || start.elapsed() < budget {
        for (k, spec) in kernels.iter().enumerate() {
            let built = session.workload(spec, params)?;
            for i in 0..modes.len() {
                let m = (i + round) % modes.len();
                let mut sim = build_machine(&machine);
                match modes[m] {
                    Hooks::Off => {}
                    Hooks::NullTracer => sim.set_tracer(Tracer::to_sink(NullSink)),
                    Hooks::Profiler => {
                        sim.set_profiler(Profiler::to_shared(&ProfileCollector::shared()))
                    }
                }
                let t0 = Instant::now();
                sim.run(&built.program, params.threads)
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                times[m][k].push(t0.elapsed().as_nanos() as f64);
                (built.verify)(sim.as_ref())?;
            }
        }
        round += 1;
    }
    let total = |m: usize| -> f64 { times[m].iter().map(|t| median(t)).sum() };
    let off = total(0);
    Ok((
        100.0 * (total(1) - off) / off,
        100.0 * (total(2) - off) / off,
    ))
}
