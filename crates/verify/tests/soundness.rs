//! The verifier's load-bearing guarantee, tested end-to-end: on every
//! bundled workload, on every machine model, in every threading shape,
//! the value and address ranges the simulator *observes* at each station
//! are contained in the intervals the verifier *infers* — observed ⊆
//! inferred. A single violation means the abstract semantics diverged
//! from the architectural semantics and every `Proved` verdict is
//! suspect.
//!
//! The same runs also cross-validate the derived trip counts (measured
//! iteration counts must fall inside the inferred bounds) and pin the
//! property that the stock corpus is refutation-free: a `Refuted` fact
//! on a program that completes without a `SimError` would be a verifier
//! bug by definition.

use std::cell::RefCell;
use std::rc::Rc;

use diag_asm::Program;
use diag_baseline::{InOrder, O3Config, OooCpu};
use diag_core::{Diag, DiagConfig};
use diag_sim::{Machine, ObservationLog, Observer, SharedObservations};
use diag_verify::{
    check_loop_counts, check_observations, json_report, verify, Verdict, VerifyOptions,
};
use diag_workloads::Params;

/// Runs `program` to completion on `machine` with the observer attached
/// and returns the per-PC observation log. Takes the machine by value:
/// rings/cores keep observer clones from wave launch, so the machine
/// must drop before the log can be taken out of its cell.
fn observe(
    name: &str,
    mut machine: Box<dyn Machine>,
    program: &Program,
    threads: usize,
) -> ObservationLog {
    let shared: SharedObservations = Rc::new(RefCell::new(ObservationLog::new()));
    machine.set_observer(Observer::to_shared(&shared));
    machine
        .run(program, threads)
        .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", machine.name()));
    drop(machine);
    Rc::try_unwrap(shared)
        .expect("machine retained the observation log")
        .into_inner()
}

/// The three machine models, freshly constructed per run.
fn machines() -> Vec<(&'static str, Box<dyn Machine>)> {
    vec![
        (
            "diag",
            Box::new(Diag::new(DiagConfig::f4c32())) as Box<dyn Machine>,
        ),
        (
            "ooo",
            Box::new(OooCpu::new(O3Config::aggressive_8wide(), 4)),
        ),
        ("inorder", Box::new(InOrder::new())),
    ]
}

/// The threading shapes exercised: single-thread, multi-thread, and (for
/// capable kernels) the SIMT-annotated variant.
fn shapes() -> Vec<Params> {
    vec![
        Params::tiny(),
        Params::tiny().with_threads(4),
        Params::tiny().with_threads(4).with_simt(true),
    ]
}

#[test]
fn observed_ranges_are_contained_in_inferred_intervals() {
    let mut runs = 0usize;
    for spec in diag_workloads::all() {
        for params in shapes() {
            if params.simt && !spec.simt_capable {
                continue;
            }
            let built = spec
                .build(&params)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            let opts = VerifyOptions {
                threads: params.threads,
                trap_vector: None,
            };
            let v = verify(&built.program, &opts);
            for (label, machine) in machines() {
                let log = observe(spec.name, machine, &built.program, params.threads);
                assert!(
                    !log.pcs().is_empty(),
                    "{} on {label}: observer recorded nothing",
                    spec.name
                );
                let violations = check_observations(&built.program, &v, &log);
                assert!(
                    violations.is_empty(),
                    "{} on {label} (threads={}, simt={}): observed values escape \
                     inferred intervals:\n{}",
                    spec.name,
                    params.threads,
                    params.simt,
                    violations.join("\n")
                );
                let loop_violations = check_loop_counts(&v, &log);
                assert!(
                    loop_violations.is_empty(),
                    "{} on {label} (threads={}, simt={}): measured iteration counts \
                     escape inferred trip-count bounds:\n{}",
                    spec.name,
                    params.threads,
                    params.simt,
                    loop_violations.join("\n")
                );
                runs += 1;
            }
        }
    }
    // 18 workloads × ≥2 shapes × 3 machines — a shrunk corpus would
    // silently weaken the guarantee.
    assert!(runs >= 100, "only {runs} soundness runs executed");
}

/// A program that completes without a `SimError` must not carry a single
/// `Refuted` fact: refutation claims *every* concrete execution faults,
/// and here is one that did not.
#[test]
fn completing_programs_are_never_refuted() {
    for spec in diag_workloads::all() {
        for params in shapes() {
            if params.simt && !spec.simt_capable {
                continue;
            }
            let built = spec
                .build(&params)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            let mut machine = InOrder::new();
            machine
                .run(&built.program, params.threads)
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", spec.name));
            let opts = VerifyOptions {
                threads: params.threads,
                trap_vector: None,
            };
            let v = verify(&built.program, &opts);
            let refuted: Vec<_> = v
                .facts
                .iter()
                .filter(|f| f.verdict == Verdict::Refuted)
                .collect();
            assert!(
                refuted.is_empty(),
                "{} (threads={}, simt={}) completed cleanly but carries refuted \
                 facts: {:?}",
                spec.name,
                params.threads,
                params.simt,
                refuted
            );
        }
    }
}

/// The JSON report is what the artifact cache stores and serves on warm
/// runs, so independent verifications must render it byte for byte, and
/// every line of it must parse.
#[test]
fn corpus_reports_are_byte_deterministic_and_parse() {
    for spec in diag_workloads::all() {
        for params in shapes() {
            if params.simt && !spec.simt_capable {
                continue;
            }
            let built = spec
                .build(&params)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
            let opts = VerifyOptions {
                threads: params.threads,
                trap_vector: None,
            };
            let label = format!(
                "{} (threads={}, simt={})",
                spec.name, params.threads, params.simt
            );
            let a = json_report(spec.name, &verify(&built.program, &opts));
            let b = json_report(spec.name, &verify(&built.program, &opts));
            assert_eq!(
                a, b,
                "{label}: independent verifications rendered differently"
            );
            for line in a.lines() {
                diag_trace::json::parse(line)
                    .unwrap_or_else(|e| panic!("{label}: report is not JSON: {e}"));
            }
        }
    }
}
