//! Probes attached together: a machine's tracer, profiler and observer
//! are fed from one retirement record, so attaching all three at once
//! must change nothing a run reports and must hand each consumer exactly
//! what it would have received alone.
//!
//! Every workload runs at tiny scale on DiAG, the out-of-order baseline
//! and the in-order reference, with 1 and 4 threads, plus 4-thread SIMT
//! for the SIMT-capable kernels.

use std::cell::RefCell;
use std::rc::Rc;

use diag_bench::runner::{build_machine, MachineSpec};
use diag_profile::{PcRecord, ProfileCollector, Profiler};
use diag_sim::{ObservationLog, Observer, PcObserved, RunStats, SharedObservations, Tracer};
use diag_trace::{Event, VecSink};
use diag_workloads::{Params, WorkloadSpec};

/// Probe bits a run attaches.
const TRACER: u8 = 1;
const PROFILER: u8 = 2;
const OBSERVER: u8 = 4;

/// What one run reported through its probes.
struct Seen {
    events: Vec<Event>,
    pcs: Vec<(u32, PcRecord)>,
    spans: Vec<(u32, u64, u64)>,
    observed: Vec<(u32, PcObserved)>,
}

fn run(kind: &MachineSpec, spec: &WorkloadSpec, params: &Params, probes: u8) -> (RunStats, Seen) {
    let built = spec.build(params).expect("workload builds");
    let sink = VecSink::shared();
    let collector = ProfileCollector::shared();
    let log: SharedObservations = Rc::new(RefCell::new(ObservationLog::new()));
    let mut machine = build_machine(kind);
    if probes & TRACER != 0 {
        machine.set_tracer(Tracer::to_shared(sink.clone()));
    }
    if probes & PROFILER != 0 {
        machine.set_profiler(Profiler::to_shared(&collector));
    }
    if probes & OBSERVER != 0 {
        machine.set_observer(Observer::to_shared(&log));
    }
    let stats = machine
        .run(&built.program, params.threads)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.name, kind.label()));
    (built.verify)(machine.as_ref())
        .unwrap_or_else(|e| panic!("{} on {}: verify: {e}", spec.name, kind.label()));
    let collector = collector.borrow();
    let seen = Seen {
        events: sink.borrow_mut().take(),
        pcs: collector.pcs().iter().map(|(&pc, &r)| (pc, r)).collect(),
        spans: collector.thread_spans().to_vec(),
        observed: log.borrow().pcs().iter().map(|(&pc, &r)| (pc, r)).collect(),
    };
    (stats, seen)
}

fn check(kind: &MachineSpec, spec: &WorkloadSpec, params: &Params) {
    let label = format!(
        "{} on {} (threads {}, simt {})",
        spec.name,
        kind.label(),
        params.threads,
        params.simt
    );
    let (bare, _) = run(kind, spec, params, 0);
    let (stats, together) = run(kind, spec, params, TRACER | PROFILER | OBSERVER);
    assert_eq!(stats, bare, "{label}: probes changed RunStats");

    let (_, traced) = run(kind, spec, params, TRACER);
    let (_, profiled) = run(kind, spec, params, PROFILER);
    let (_, observed) = run(kind, spec, params, OBSERVER);
    assert!(!traced.events.is_empty(), "{label}: no events");
    assert!(!profiled.pcs.is_empty(), "{label}: no profile");
    assert!(!observed.observed.is_empty(), "{label}: no observations");
    assert!(
        together.events == traced.events,
        "{label}: events differ from a tracer-only run"
    );
    assert_eq!(
        (together.pcs, together.spans),
        (profiled.pcs, profiled.spans),
        "{label}: profile differs from a profiler-only run"
    );
    assert_eq!(
        together.observed, observed.observed,
        "{label}: observations differ from an observer-only run"
    );
}

#[test]
fn probes_attached_together_match_each_alone() {
    let machines = [
        MachineSpec::parse("diag:f4c32").expect("spec"),
        MachineSpec::parse("ooo:12").expect("spec"),
        MachineSpec::parse("inorder").expect("spec"),
    ];
    for kind in &machines {
        for spec in diag_workloads::all() {
            check(kind, &spec, &Params::tiny());
            check(kind, &spec, &Params::tiny().with_threads(4));
            if spec.simt_capable {
                check(kind, &spec, &Params::tiny().with_threads(4).with_simt(true));
            }
        }
    }
}
