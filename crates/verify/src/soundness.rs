//! The soundness harness: checks that what the simulator *observed* is
//! contained in what the verifier *inferred*.
//!
//! `diag_sim`'s [`Observer`](diag_sim::Observer) hooks record, per
//! retired PC, the min/max of every destination value and effective
//! address plus the weakest alignment seen. Abstract-interpretation
//! soundness demands observed ⊆ inferred at every PC — any violation is
//! a verifier bug, and the integration tests fail loudly on one.

use diag_asm::Program;
use diag_sim::{ObservationLog, ObservedRange};

use crate::{Itv, Verification};

/// Checks one observed range against an inferred interval.
fn contained(what: &str, pc: u32, obs: &ObservedRange, inferred: &Itv, out: &mut Vec<String>) {
    if obs.min < inferred.lo || obs.max > inferred.hi {
        out.push(format!(
            "pc {pc:#x}: observed {what} range [{:#x}, {:#x}] escapes inferred \
             [{:#x}, {:#x}]",
            obs.min, obs.max, inferred.lo, inferred.hi
        ));
    }
    if obs.min_tz < inferred.tz as u32 {
        out.push(format!(
            "pc {pc:#x}: observed {what} alignment 2^{} below inferred 2^{}",
            obs.min_tz, inferred.tz
        ));
    }
}

/// Verifies observed ⊆ inferred for every PC the simulator retired.
/// Returns a list of human-readable violations — empty means sound.
///
/// Checked per retired PC:
/// - the PC appears in the verifier's reachable-station map;
/// - every observed destination value lies in the inferred destination
///   interval (range and alignment);
/// - every observed effective address lies in the inferred address
///   interval.
pub fn check_observations(
    program: &Program,
    v: &Verification,
    log: &ObservationLog,
) -> Vec<String> {
    let mut out = Vec::new();
    for (&pc, obs) in log.pcs() {
        let Some(iv) = v.pcs.get(&pc) else {
            out.push(format!(
                "pc {pc:#x} ({}) retired {} times but the verifier finds it unreachable",
                program.describe_addr(pc),
                obs.execs
            ));
            continue;
        };
        if let Some(d) = &obs.dest {
            match &iv.dest {
                Some(itv) => contained("dest", pc, d, itv, &mut out),
                None => out.push(format!(
                    "pc {pc:#x}: observed a destination write but the verifier inferred none"
                )),
            }
        }
        if let Some(a) = &obs.addr {
            match &iv.addr {
                Some(itv) => contained("addr", pc, a, itv, &mut out),
                None => out.push(format!(
                    "pc {pc:#x}: observed a memory access but the verifier inferred none"
                )),
            }
        }
    }
    out
}

/// Cross-validates derived trip-count bounds against observed execution
/// counts: for a loop whose preheader terminator executed `e` times and
/// whose derived bounds are `[lo, hi]`, the header must have executed
/// between `e*lo` and `e*hi` times. Returns violations — empty means
/// every derived bound contains the measured iteration counts.
pub fn check_loop_counts(v: &Verification, log: &ObservationLog) -> Vec<String> {
    let mut out = Vec::new();
    for t in &v.loops {
        let (Some((lo, hi)), Some(entry_pc)) = (t.iterations, t.entry_pc) else {
            continue;
        };
        let entries = log.execs(entry_pc);
        let head = log.execs(t.head_pc);
        let floor = entries.saturating_mul(lo);
        let ceil = entries.saturating_mul(hi);
        if head < floor || head > ceil {
            out.push(format!(
                "loop {:#x}: {entries} entries with derived bounds [{lo}, {hi}] allow \
                 [{floor}, {ceil}] header executions, observed {head}",
                t.head_pc
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, VerifyOptions};
    use diag_asm::assemble;
    use diag_sim::interp::{arch_step, ArchState};
    use diag_sim::Observer;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Runs `program` on the reference interpreter with an observer
    /// attached, one thread at a time.
    fn observe(program: &Program, threads: usize) -> ObservationLog {
        let shared = Rc::new(RefCell::new(ObservationLog::new()));
        let observer = Observer::to_shared(&shared);
        let mut mem = diag_mem::MainMemory::with_program(program);
        for t in 0..threads {
            let mut state = ArchState::new_thread(program.entry(), t, threads);
            for _ in 0..100_000 {
                if state.halted {
                    break;
                }
                let info = arch_step(&mut state, program, &mut mem, None).unwrap();
                observer.retire(info.pc, info.dest, info.mem.addr());
            }
            assert!(state.halted, "program did not halt");
        }
        drop(observer);
        Rc::try_unwrap(shared).unwrap().into_inner()
    }

    #[test]
    fn observed_is_contained_for_a_loop() {
        let src = "li t0, 0\nli t1, 0\nloop:\nadd t1, t1, a0\naddi t0, t0, 1\n\
                   blt t0, a1, loop\nslli t2, a0, 2\nadd t2, t2, gp\nsw t1, 256(t2)\necall\n";
        let program = assemble(src).unwrap();
        let threads = 4;
        let v = verify(
            &program,
            &VerifyOptions {
                threads,
                trap_vector: None,
            },
        );
        let log = observe(&program, threads);
        let violations = check_observations(&program, &v, &log);
        assert!(violations.is_empty(), "{violations:?}");
        let loop_violations = check_loop_counts(&v, &log);
        assert!(loop_violations.is_empty(), "{loop_violations:?}");
    }

    #[test]
    fn an_unsound_interval_is_caught() {
        let program = assemble("li t0, 7\necall\n").unwrap();
        let mut v = verify(&program, &VerifyOptions::default());
        let log = observe(&program, 1);
        // Sanity: the honest verification passes.
        assert!(check_observations(&program, &v, &log).is_empty());
        // Corrupt the inferred interval for the li and expect a report.
        let pc = program.text_base();
        v.pcs.get_mut(&pc).unwrap().dest = Some(Itv {
            lo: 6,
            hi: 6,
            tz: 0,
        });
        let violations = check_observations(&program, &v, &log);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("dest"), "{violations:?}");
    }
}
