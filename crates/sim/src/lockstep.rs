//! Lockstep differential execution of two machines.
//!
//! Steps a machine under test and a reference machine together over the
//! same program and diffs their committed-instruction streams at
//! retirement. Where plain result verification only says "the final memory
//! is wrong", the lockstep diff names the exact first retirement where the
//! two machines disagreed — the instruction address, the destination
//! register, and both values — which turns a cross-machine failure from an
//! archaeology project into a one-line report.
//!
//! Streams are compared per hardware thread in retirement order. All
//! workspace machines retire each thread's instructions in program order,
//! so two correct machines produce identical per-thread streams even when
//! their global interleavings differ.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use diag_asm::Program;
use diag_isa::StationTable;

use crate::machine::{Commit, Machine, SimError, StepOutcome};

/// Outcome of a lockstep comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum LockstepOutcome {
    /// Both machines halted with identical per-thread commit streams.
    Agree {
        /// Total retirements compared.
        commits: u64,
    },
    /// The streams diverged; execution stopped at the first mismatch.
    Diverged(Divergence),
}

/// The first point where the two machines disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Hardware thread whose streams diverged.
    pub thread: u32,
    /// Zero-based retirement index within that thread's stream.
    pub index: u64,
    /// What the machine under test retired (`None` = it halted early).
    pub left: Option<Commit>,
    /// What the reference retired (`None` = it halted early).
    pub right: Option<Commit>,
    /// Disassembly of the instruction at the diverging address, when the
    /// address decodes.
    pub disasm: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at thread {} retirement #{}: ",
            self.thread, self.index
        )?;
        match (&self.left, &self.right) {
            (Some(l), Some(r)) => write!(f, "left retired [{l}], reference retired [{r}]")?,
            (Some(l), None) => write!(f, "left retired [{l}] but the reference had halted")?,
            (None, Some(r)) => write!(f, "left halted but the reference retired [{r}]")?,
            (None, None) => write!(f, "both halted (internal error)")?,
        }
        if let Some(d) = &self.disasm {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

/// Per-machine stream state during a lockstep run.
struct Side<'m> {
    machine: &'m mut dyn Machine,
    /// Per-thread pending commits not yet matched against the other side.
    pending: Vec<VecDeque<Commit>>,
    halted: bool,
    drained: u64,
}

impl<'m> Side<'m> {
    fn new(
        machine: &'m mut dyn Machine,
        program: &Program,
        stations: &Arc<StationTable>,
        threads: usize,
    ) -> Side<'m> {
        // Probes take effect at load, so the log goes on first.
        machine.set_commit_log(true);
        machine.load_prepared(program, stations, threads);
        Side {
            machine,
            pending: vec![VecDeque::new(); threads],
            halted: false,
            drained: 0,
        }
    }

    /// Steps once and files new commits under their threads.
    fn advance(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if self.machine.step()? == StepOutcome::Halted {
            self.halted = true;
        }
        for c in self.machine.take_commits() {
            let t = c.thread as usize;
            if t < self.pending.len() {
                self.pending[t].push_back(c);
                self.drained += 1;
            }
        }
        Ok(())
    }
}

/// Runs `left` (the machine under test) and `right` (the reference) in
/// lockstep over `program` and compares their retirement streams.
///
/// Stops at the first divergence, when both machines halt in agreement,
/// or after `max_commits` matched retirements summed over all threads (a
/// safety bound against infinite programs; pass `u64::MAX` for no bound —
/// the machines' own cycle limits still apply).
///
/// # Errors
///
/// Propagates the first [`SimError`] either machine raises. A machine
/// erroring is *not* a divergence — it is a failed run.
///
/// The program's [`StationTable`] is lowered once here and shared by both
/// sides; callers that already hold a prepared table (the artifact
/// pipeline) should use [`run_lockstep_prepared`] instead.
pub fn run_lockstep(
    left: &mut dyn Machine,
    right: &mut dyn Machine,
    program: &Program,
    threads: usize,
    max_commits: u64,
) -> Result<LockstepOutcome, SimError> {
    let stations = Arc::new(StationTable::build(program.text_base(), program.text()));
    run_lockstep_prepared(left, right, program, &stations, threads, max_commits)
}

/// [`run_lockstep`] over prepared artifacts: both machines mount the
/// caller's `stations` via [`Machine::load_prepared`], so a cached
/// lowering is reused instead of rebuilt per differential run.
///
/// # Errors
///
/// Propagates the first [`SimError`] either machine raises.
pub fn run_lockstep_prepared(
    left: &mut dyn Machine,
    right: &mut dyn Machine,
    program: &Program,
    stations: &Arc<StationTable>,
    threads: usize,
    max_commits: u64,
) -> Result<LockstepOutcome, SimError> {
    let threads = threads.max(1);
    let mut l = Side::new(left, program, stations, threads);
    let mut r = Side::new(right, program, stations, threads);
    // Matched retirements in total, and per thread: a divergence's
    // index counts only its own thread's retirements.
    let mut matched = 0u64;
    let mut per_thread = vec![0u64; threads];

    loop {
        // Advance whichever side is behind on drained commits, so the
        // pending queues stay short; on ties prefer the left machine.
        if !l.halted && (r.halted || l.drained <= r.drained) {
            l.advance()?;
        } else if !r.halted {
            r.advance()?;
        }

        // Match as much of the common per-thread prefixes as possible.
        for (t, index) in per_thread.iter_mut().enumerate() {
            // Peek both before popping either: popping unconditionally
            // would discard a commit from the longer queue when the
            // other side has nothing to match it against yet.
            while let (Some(&a), Some(&b)) = (l.pending[t].front(), r.pending[t].front()) {
                l.pending[t].pop_front();
                r.pending[t].pop_front();
                if a != b {
                    return Ok(LockstepOutcome::Diverged(divergence(
                        program,
                        t as u32,
                        *index,
                        Some(a),
                        Some(b),
                    )));
                }
                *index += 1;
                matched += 1;
                if matched >= max_commits {
                    return Ok(LockstepOutcome::Agree { commits: matched });
                }
            }
        }

        if l.halted && r.halted {
            // One side retiring more than the other is also a divergence.
            for (t, &index) in per_thread.iter().enumerate() {
                match (l.pending[t].front().copied(), r.pending[t].front().copied()) {
                    (None, None) => {}
                    (a, b) => {
                        return Ok(LockstepOutcome::Diverged(divergence(
                            program, t as u32, index, a, b,
                        )))
                    }
                }
            }
            return Ok(LockstepOutcome::Agree { commits: matched });
        }
    }
}

fn divergence(
    program: &Program,
    thread: u32,
    index: u64,
    left: Option<Commit>,
    right: Option<Commit>,
) -> Divergence {
    let disasm = left
        .or(right)
        .and_then(|c| program.decode_at(c.pc))
        .map(|inst| inst.to_string());
    Divergence {
        thread,
        index,
        left,
        right,
        disasm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_report_is_readable() {
        let d = Divergence {
            thread: 0,
            index: 17,
            left: Some(Commit {
                thread: 0,
                pc: 0x1010,
                dest: Some((diag_isa::Reg::T1.into(), 5)),
            }),
            right: Some(Commit {
                thread: 0,
                pc: 0x1010,
                dest: Some((diag_isa::Reg::T1.into(), 6)),
            }),
            disasm: Some("addi t1, t1, 1".to_string()),
        };
        let text = d.to_string();
        assert!(text.contains("retirement #17"));
        assert!(text.contains("addi t1, t1, 1"));
    }
}
