//! [`Probes`]: every hook a machine reports through, in one value.
//!
//! A machine retires each instruction at one place — DiAG's PC lane
//! retires in program order (paper §4.3), the baselines' commit stage
//! likewise — but four consumers want to hear about it: the commit log
//! [`crate::lockstep`] diffs, the verifier-soundness [`Observer`], the
//! cycle-accounting [`Profiler`], and the tracer's
//! [`EventKind::PeRetire`] event. A machine holds one [`Probes`], clones
//! it into its rings or cores once per wave, and reports each sequential
//! retirement behind one [`Probes::retiring`] check with one
//! [`Probes::retire`] call, which hands one [`Retirement`] record to every
//! attached consumer.
//!
//! A pipelined SIMT region (paper §4.4) has no per-instruction timing
//! record, so its retirements go through [`Probes::retire_arch`] to the
//! two architectural consumers only, the commit log and the observer, in
//! the sequential loop's order; the profiler gets one bulk
//! [`diag_profile::RegionSample`] through [`Probes::profiler`].
//!
//! The non-retirement hooks stay with their consumer: trace events go
//! through [`Probes::emit`] (or [`Probes::tracer`] for the memory system's
//! `*_traced` calls), and stall attribution through [`Probes::stall`].

use std::cell::RefCell;
use std::rc::Rc;

use diag_isa::ArchReg;
use diag_profile::{Profiler, RetireSample};
use diag_trace::{Event, EventKind, StallCause, Tracer, Track};

use crate::machine::Commit;
use crate::observe::Observer;

/// One retired instruction, as every retirement consumer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// Hardware thread that retired the instruction.
    pub thread: u32,
    /// Instruction address.
    pub pc: u32,
    /// Destination lane written, with the value. `x0` writes are kept:
    /// the observer counts the execution, the commit log drops the write.
    pub dest: Option<(ArchReg, u32)>,
    /// Memory address accessed, if any.
    pub addr: Option<u32>,
    /// `(cluster, slot)` of the PE that executed the instruction on a
    /// machine with a PE fabric; `None` on a core, whose retirement rides
    /// the core's trace track and profiles at station `(0, 0)`.
    pub pe: Option<(u32, u32)>,
    /// Whether the execution reused the resident datapath (§4.3.2).
    pub reused: bool,
    /// Cycle execution began.
    pub start: u64,
    /// Cycle the result (or memory data) was available.
    pub finish: u64,
    /// Cycle the instruction retired.
    pub commit: u64,
    /// The thread's commit-clock delta up to `commit`, partitioned per
    /// top-down bucket ([`diag_profile::Bucket::ALL`] order).
    pub parts: [u64; 5],
}

/// The tracer, profiler, observer and commit log of one machine.
///
/// [`Probes::default`] attaches nothing, and then every hook is one
/// branch: [`Probes::retiring`] is false and [`Probes::emit`] evaluates
/// no closure. Cloning is cheap (`Rc` bumps); the clones share their
/// sinks, collectors and commit log.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    tracer: Tracer,
    profiler: Profiler,
    observer: Observer,
    commits: Option<Rc<RefCell<Vec<Commit>>>>,
    /// Whether any retirement consumer is attached; see
    /// [`Probes::retiring`].
    retiring: bool,
}

impl Probes {
    /// Installs `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.refresh();
    }

    /// Installs `profiler`.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
        self.refresh();
    }

    /// Installs `observer`.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
        self.refresh();
    }

    /// Enables or disables the commit log. Enabling an enabled log keeps
    /// it, so clones already handed out keep feeding it.
    pub fn set_commit_log(&mut self, enabled: bool) {
        match (enabled, &self.commits) {
            (true, None) => self.commits = Some(Rc::default()),
            (false, Some(_)) => self.commits = None,
            _ => {}
        }
        self.refresh();
    }

    fn refresh(&mut self) {
        self.retiring = self.tracer.enabled()
            || self.profiler.enabled()
            || self.observer.enabled()
            || self.commits.is_some();
    }

    /// The tracer, for hooks that take one directly (the memory system's
    /// `*_traced` calls).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The profiler, for thread spans and SIMT region samples.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Drains the logged retirements (empty when the log is off).
    pub fn take_commits(&self) -> Vec<Commit> {
        self.commits
            .as_ref()
            .map_or_else(Vec::new, |log| std::mem::take(&mut *log.borrow_mut()))
    }

    /// Empties the commit log, dropping what an abandoned run left in it.
    /// Machines call this when they mount a program.
    pub fn clear_commits(&self) {
        if let Some(log) = &self.commits {
            log.borrow_mut().clear();
        }
    }

    /// Emits the trace event built by `f`, which runs only when a tracer
    /// is attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        self.tracer.emit(f);
    }

    /// Attributes `cycles` of stall ending at `end` to `cause` at `pc`: a
    /// profiler stall sample and a paired `StallBegin`/`StallEnd`
    /// interval on `track`. Callers pass only non-zero stalls.
    #[inline]
    pub fn stall(
        &self,
        pc: u32,
        thread: u32,
        track: Track,
        cause: StallCause,
        end: u64,
        cycles: u64,
    ) {
        self.profiler.stall(pc, cause, cycles);
        self.tracer.emit(|| Event {
            cycle: end.saturating_sub(cycles),
            thread,
            track,
            kind: EventKind::StallBegin { cause },
        });
        self.tracer.emit(|| Event {
            cycle: end,
            thread,
            track,
            kind: EventKind::StallEnd { cause, cycles },
        });
    }

    /// Whether any retirement consumer is attached. Each retirement site
    /// builds its [`Retirement`] only when this holds: the one check it
    /// makes.
    #[inline]
    pub fn retiring(&self) -> bool {
        self.retiring
    }

    /// Hands one sequential retirement to the commit log, the observer,
    /// the profiler and the tracer's `PeRetire` event, each if attached.
    /// Always inlined, so a site's record reaches the consumers in
    /// registers rather than through a stack copy.
    #[inline(always)]
    pub fn retire(&self, r: &Retirement) {
        self.retire_arch(r.thread, r.pc, r.dest, r.addr);
        let (cluster, slot) = r.pe.unwrap_or((0, 0));
        self.profiler.retire(|| RetireSample {
            pc: r.pc,
            cluster,
            slot,
            reused: r.reused,
            parts: r.parts,
        });
        self.tracer.emit(|| Event {
            cycle: r.commit,
            thread: r.thread,
            track: match r.pe {
                Some((cluster, slot)) => Track::Pe { cluster, slot },
                None => Track::Core(r.thread),
            },
            kind: EventKind::PeRetire {
                pc: r.pc,
                start: r.start,
                finish: r.finish,
            },
        });
    }

    /// Hands one retirement to the architectural consumers only: the
    /// commit log (which drops `x0` writes) and the observer. The
    /// pipelined SIMT engine reports through this, since its instances
    /// carry no per-instruction timing for the profiler or tracer.
    #[inline(always)]
    pub fn retire_arch(
        &self,
        thread: u32,
        pc: u32,
        dest: Option<(ArchReg, u32)>,
        addr: Option<u32>,
    ) {
        if let Some(log) = &self.commits {
            log.borrow_mut().push(Commit {
                thread,
                pc,
                dest: dest.filter(|(lane, _)| !lane.is_zero()),
            });
        }
        self.observer.retire(pc, dest, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationLog;
    use diag_isa::Reg;
    use diag_profile::ProfileCollector;
    use diag_trace::VecSink;

    fn record() -> Retirement {
        Retirement {
            thread: 1,
            pc: 0x1000,
            dest: Some((Reg::T0.into(), 7)),
            addr: Some(0x40),
            pe: Some((2, 3)),
            reused: true,
            start: 4,
            finish: 6,
            commit: 9,
            parts: [5, 0, 0, 0, 0],
        }
    }

    #[test]
    fn detached_probes_report_nothing() {
        let probes = Probes::default();
        assert!(!probes.retiring());
        probes.emit(|| unreachable!("no tracer is attached"));
        probes.retire(&record());
        assert!(probes.take_commits().is_empty());
    }

    #[test]
    fn one_record_reaches_every_consumer() {
        let sink = VecSink::shared();
        let collector = ProfileCollector::shared();
        let log = Rc::new(RefCell::new(ObservationLog::new()));
        let mut probes = Probes::default();
        probes.set_tracer(Tracer::to_shared(sink.clone()));
        probes.set_profiler(Profiler::to_shared(&collector));
        probes.set_observer(Observer::to_shared(&log));
        probes.set_commit_log(true);
        assert!(probes.retiring());
        probes.clone().retire(&record());

        let commits = probes.take_commits();
        assert_eq!(commits.len(), 1, "the clone feeds the same log");
        assert_eq!(commits[0].dest, Some((Reg::T0.into(), 7)));
        assert_eq!(log.borrow().execs(0x1000), 1);
        let pcs = collector.borrow();
        let rec = pcs.pcs()[&0x1000];
        assert_eq!((rec.issues, rec.reuse, rec.cluster, rec.slot), (1, 1, 2, 3));
        let events = sink.borrow();
        assert_eq!(
            events.events(),
            [Event {
                cycle: 9,
                thread: 1,
                track: Track::Pe {
                    cluster: 2,
                    slot: 3
                },
                kind: EventKind::PeRetire {
                    pc: 0x1000,
                    start: 4,
                    finish: 6
                },
            }]
        );
    }

    #[test]
    fn commit_log_drops_x0_writes_and_survives_reenabling() {
        let mut probes = Probes::default();
        probes.set_commit_log(true);
        let shared = probes.clone();
        probes.set_commit_log(true);
        shared.retire(&Retirement {
            dest: Some((Reg::ZERO.into(), 5)),
            pe: None,
            ..record()
        });
        assert_eq!(probes.take_commits()[0].dest, None);
        probes.set_commit_log(false);
        assert!(!probes.retiring(), "the last consumer was detached");
    }
}
