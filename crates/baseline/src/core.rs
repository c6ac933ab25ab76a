//! One out-of-order core, dependence-timed over the shared architectural
//! interpreter.
//!
//! The model follows the gem5 O3 shape the paper configures (§7.1): a
//! multi-stage front end (2 cycles per stage), register renaming (modelled
//! as unlimited physical registers — false dependencies never stall),
//! a bounded reorder buffer, bandwidth-limited fetch/issue/commit, a
//! branch predictor with a full-frontend redirect penalty, per-kind
//! functional-unit pools, and an LSQ in front of a private L1 backed by
//! the shared L2.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use diag_isa::{ExecKind, StationSlot, StationTable};
use diag_mem::{CacheArray, LaneLookup, Lsu, MainMemory, MemLane, PrivateCache, SharedLevel};
use diag_sim::interp::{station_step, ArchState, MemEffect};
use diag_sim::{Bucket, Counters, Probes, Retirement, SimError, Unit};
use diag_trace::{Event, EventKind, StallCause, Track};

use crate::bpred::BranchPredictor;
use crate::config::O3Config;
use crate::fu::FuSet;
use crate::util::{Bandwidth, IssueMeter};

/// What every core of one baseline run shares: the predecoded text, the
/// core configuration, main memory and the L2 behind the private L1Ds.
#[derive(Debug)]
pub struct CoreShared {
    pub(crate) entry: u32,
    pub(crate) stations: Arc<StationTable>,
    pub(crate) cfg: Arc<O3Config>,
    /// Functional memory (all architectural data).
    pub(crate) mem: MainMemory,
    pub(crate) l2: Rc<RefCell<SharedLevel>>,
}

/// One out-of-order core running one hardware thread.
#[derive(Debug)]
pub struct O3Core {
    cfg: Arc<O3Config>,
    /// Text segment predecoded once at load, shared by every core of the
    /// wave; the step loop never touches program bytes or the decoder (the
    /// *modeled* pipeline still decodes every dynamic instruction — see
    /// the `decodes` counter).
    stations: Arc<StationTable>,
    state: ArchState,
    /// Completion time of the latest writer of each register lane.
    reg_ready: [u64; diag_isa::NUM_LANES],
    /// Commit times of in-flight instructions (ROB occupancy).
    rob: VecDeque<u64>,
    /// Issue times of recent instructions (IQ occupancy window).
    iq: VecDeque<u64>,
    fetch_bw: Bandwidth,
    issue_bw: IssueMeter,
    commit_bw: Bandwidth,
    /// Earliest time the front end may fetch the next instruction
    /// (redirected on mispredictions).
    fetch_floor: u64,
    last_commit: u64,
    bpred: BranchPredictor,
    fus: FuSet,
    l1i: CacheArray,
    l1d: PrivateCache,
    lsq: Lsu,
    store_buffer: MemLane,
    store_floor: u64,
    fence_floor: u64,
    halted: bool,
    stats: Counters,
    last_fetch_line: u32,
    thread_id: usize,
    /// The machine's probes, cloned at wave launch. Baseline events ride
    /// on [`Track::Core`].
    pub(crate) probes: Probes,
    /// PC the in-flight instruction's stalls are attributed to
    /// (`station_step` advances the architectural PC mid-step).
    prof_pc: u32,
}

/// L2 hit latency charged on an L1I miss.
const L1I_MISS_PENALTY: u64 = 18;

impl O3Core {
    /// Records `cycles` of stall attributed to `cause`, ending at `end`,
    /// both in the breakdown and — when a tracer is attached — as a
    /// paired `StallBegin`/`StallEnd` interval on this core's track. All
    /// baseline stall accounting flows through here so the trace timeline
    /// reconciles exactly with [`diag_sim::StallBreakdown`].
    fn stall(&mut self, cause: StallCause, end: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.stalls.add_cycles(cause, cycles);
        let thread = self.thread_id as u32;
        let track = Track::Core(thread);
        self.probes
            .stall(self.prof_pc, thread, track, cause, end, cycles);
    }

    fn count_cache(&mut self, l1_hit: bool, l2_hit: bool) {
        self.stats.activity.l1d_accesses += 1;
        if !l1_hit {
            self.stats.activity.l1d_misses += 1;
            self.stats.activity.l2_accesses += 1;
            if !l2_hit {
                self.stats.activity.l2_misses += 1;
            }
        }
    }
}

impl Unit for O3Core {
    type Shared = CoreShared;

    fn track(thread: u32) -> Track {
        Track::Core(thread)
    }

    /// Starts core `thread_id` of `threads`, with a private L1D backed by
    /// the shared L2.
    fn launch(
        shared: &CoreShared,
        thread_id: usize,
        threads: usize,
        start_time: u64,
        probes: Probes,
    ) -> O3Core {
        let cfg = Arc::clone(&shared.cfg);
        let entry = shared.entry;
        let state = ArchState::new_thread(entry, thread_id, threads);
        O3Core {
            state,
            reg_ready: [start_time; diag_isa::NUM_LANES],
            rob: VecDeque::with_capacity(cfg.rob_size),
            iq: VecDeque::with_capacity(cfg.iq_size),
            fetch_bw: Bandwidth::new(cfg.width),
            issue_bw: IssueMeter::new(cfg.width),
            commit_bw: Bandwidth::new(cfg.width),
            fetch_floor: start_time,
            last_commit: start_time,
            bpred: BranchPredictor::new(cfg.bpred_entries, cfg.btb_entries, cfg.ras_depth),
            fus: FuSet::new(&cfg),
            l1i: CacheArray::new(diag_mem::CacheConfig::l1i_32k()),
            l1d: PrivateCache::new(cfg.l1d, Rc::clone(&shared.l2)),
            lsq: Lsu::new(cfg.lsq_size),
            store_buffer: MemLane::new(cfg.lsq_size),
            store_floor: start_time,
            fence_floor: start_time,
            halted: false,
            stats: Counters::default(),
            last_fetch_line: u32::MAX,
            thread_id,
            probes,
            prof_pc: entry,
            cfg,
            stations: Arc::clone(&shared.stations),
        }
    }

    /// The core's current time (last retirement).
    fn clock(&self) -> u64 {
        self.last_commit
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn counters(&self) -> Counters {
        self.stats
    }

    /// Executes one dynamic instruction through the full pipeline model.
    fn step(&mut self, shared: &mut CoreShared) -> Result<(), SimError> {
        if self.halted {
            return Err(SimError::Halted);
        }
        let pc = self.state.pc;
        self.prof_pc = pc;
        let prev_clock = self.last_commit;

        // ---- fetch ----------------------------------------------------
        let mut fetch_t = self.fetch_bw.next(self.fetch_floor);
        if (pc & !63) != self.last_fetch_line {
            self.last_fetch_line = pc & !63;
            self.stats.activity.line_fetches += 1;
            if !self.l1i.access(pc, false).hit {
                fetch_t += L1I_MISS_PENALTY;
                self.fetch_floor = fetch_t;
                self.stall(StallCause::Control, fetch_t, L1I_MISS_PENALTY);
            }
        }

        // ---- decode / rename / dispatch -------------------------------
        let mut rename_t = fetch_t + self.cfg.frontend_latency();
        let rename0 = rename_t;
        // ROB occupancy: dispatch stalls until a slot frees.
        while self.rob.len() >= self.cfg.rob_size {
            let Some(freed) = self.rob.pop_front() else {
                break;
            };
            if freed > rename_t {
                self.stall(StallCause::Structural, freed, freed - rename_t);
                rename_t = freed;
            }
        }
        self.stats.activity.decodes += 1;
        self.stats.activity.renames += 1;
        self.stats.activity.dispatches += 1;
        self.stats.activity.rob_writes += 1;

        // ---- architectural execution (shared interpreter) --------------
        let before_regs_pc = pc;
        let st = match *self.stations.get(pc) {
            StationSlot::Ready(st) => st,
            StationSlot::Illegal { word } => {
                return Err(SimError::IllegalInstruction { addr: pc, word })
            }
            StationSlot::Empty => return Err(SimError::PcOutOfRange { pc }),
        };
        let is_ctl = matches!(
            st.kind,
            ExecKind::Branch { .. } | ExecKind::Jal { .. } | ExecKind::Jalr { .. }
        );
        let prediction = self.bpred.predict(pc, &st.inst);
        if is_ctl {
            self.stats.activity.bpred_lookups += 1;
        }
        let info = station_step(&mut self.state, &self.stations, &mut shared.mem, None)?;
        debug_assert_eq!(info.pc, before_regs_pc);
        // A local copy: moving `info.dest` into the retirement record
        // straight from `info` costs an unaligned copy on every step.
        let dest = info.dest;

        // ---- issue ------------------------------------------------------
        let mut ready = rename_t + 1;
        for src in st.srcs.iter() {
            ready = ready.max(self.reg_ready[src.index()]);
        }
        let src_ready = ready;
        // Bounded issue queue: this instruction occupies an IQ entry from
        // rename until issue; it cannot even enter the queue until the
        // instruction `iq_size` older has left it.
        while self.iq.len() >= self.cfg.iq_size {
            let Some(oldest) = self.iq.pop_front() else {
                break;
            };
            if oldest > ready {
                self.stall(StallCause::Structural, oldest, oldest - ready);
                ready = oldest;
            }
        }
        let latency = st.latency as u64;
        let kind = st.fu;
        let issue_t = self.fus.issue(kind, self.issue_bw.next(ready), latency);
        self.iq.push_back(issue_t);
        self.stats.activity.issues += 1;

        // ---- execute / memory ------------------------------------------
        let finish = match info.mem {
            MemEffect::Load { addr, size } => {
                self.stats.activity.loads += 1;
                // Perfect disambiguation: wait only for overlapping older
                // stores; forward from the store queue when fully covered.
                let (want, forward) = match self.store_buffer.lookup(addr, size) {
                    LaneLookup::HitFast { store_time, .. } => {
                        (issue_t.max(self.fence_floor).max(store_time), true)
                    }
                    LaneLookup::HitSlow { store_time, .. }
                    | LaneLookup::Conflict { store_time } => {
                        (issue_t.max(self.fence_floor).max(store_time + 1), false)
                    }
                    LaneLookup::Miss => (issue_t.max(self.fence_floor), false),
                };
                let tid = self.thread_id as u32;
                let (at, waited, id) =
                    self.lsq
                        .issue_blocking_traced(want, false, self.probes.tracer(), tid, tid);
                self.stall(StallCause::Memory, at, waited);
                let ready_at = if forward {
                    self.stats.activity.memlane_hits += 1;
                    at + 1
                } else {
                    let out = self
                        .l1d
                        .access_traced(addr, false, at, self.probes.tracer(), tid);
                    self.count_cache(out.l1_hit, out.l2_hit);
                    if !out.l1_hit {
                        let hit_time = at + self.cfg.l1d.hit_latency as u64;
                        self.stall(
                            StallCause::Memory,
                            out.ready_at,
                            out.ready_at.saturating_sub(hit_time),
                        );
                    }
                    out.ready_at
                };
                self.lsq
                    .complete_at_traced(ready_at, id, self.probes.tracer(), tid, tid);
                ready_at
            }
            MemEffect::Store { addr, size } => {
                self.stats.activity.stores += 1;
                let want = issue_t.max(self.store_floor);
                let tid = self.thread_id as u32;
                let (at, waited, id) =
                    self.lsq
                        .issue_blocking_traced(want, true, self.probes.tracer(), tid, tid);
                self.stall(StallCause::Memory, at, waited);
                self.store_floor = at;
                self.store_buffer.push_store(addr, size, 0, at);
                self.store_buffer.trim();
                let out = self
                    .l1d
                    .access_traced(addr, true, at, self.probes.tracer(), tid);
                self.count_cache(out.l1_hit, out.l2_hit);
                let done = at + 1;
                self.lsq
                    .complete_at_traced(done, id, self.probes.tracer(), tid, tid);
                done
            }
            MemEffect::None => {
                if matches!(st.kind, ExecKind::Fence) {
                    let done = issue_t + latency;
                    self.store_floor = self.store_floor.max(done);
                    self.fence_floor = self.fence_floor.max(done);
                    done
                } else {
                    issue_t + latency
                }
            }
        };

        // ---- writeback ---------------------------------------------------
        if let Some((lane, _)) = dest {
            if !lane.is_zero() {
                self.reg_ready[lane.index()] = finish;
                self.stats.activity.reg_writes += 1;
            }
        }
        if st.uses_fpu {
            self.stats.activity.fpu_active_cycles += latency;
            self.stats.activity.fp_ops += 1;
        } else if !st.is_mem {
            self.stats.activity.int_ops += 1;
        }
        self.stats.activity.pe_active_cycles += (finish - issue_t).max(1);

        // ---- control resolution -----------------------------------------
        if is_ctl {
            let taken = info.redirected;
            let mispredicted = self
                .bpred
                .update(pc, &st.inst, prediction, taken, info.next_pc);
            if mispredicted {
                self.stats.activity.mispredicts += 1;
                let redirect = finish + 1;
                let thread = self.thread_id as u32;
                let (from_pc, to_pc) = (pc, info.next_pc);
                self.probes.emit(|| Event {
                    cycle: redirect,
                    thread,
                    track: Track::Core(thread),
                    kind: EventKind::BranchRedirect {
                        from_pc,
                        to_pc,
                        backward: to_pc <= from_pc,
                    },
                });
                if redirect > self.fetch_floor {
                    let floor = self.fetch_floor;
                    self.stall(StallCause::Control, redirect, redirect - floor);
                    self.fetch_floor = redirect;
                }
            }
        } else if info.redirected {
            // Traps and looping simt_e markers redirect the front end too.
            let redirect = finish + 1;
            self.fetch_floor = self.fetch_floor.max(redirect);
        }

        // ---- commit -------------------------------------------------------
        let commit_t = self.commit_bw.next(finish.max(self.last_commit));
        let thread = self.thread_id as u32;
        if self.probes.retiring() {
            // Walk the pipeline-stage boundary chain, clipping each
            // boundary to the previous commit clock: frontend to
            // dispatch, ROB back-pressure, source wait, issue-side
            // queueing, execution, then commit queueing. The clipped
            // segments telescope to `commit_t - prev_clock` exactly.
            let exec_bucket = if st.is_mem {
                Bucket::MemoryBound
            } else {
                Bucket::Retiring
            };
            let chain = [
                (rename0 + 1, Bucket::LineLoadFrontend),
                (rename_t + 1, Bucket::RingTransit),
                (src_ready, Bucket::LaneWait),
                (issue_t, Bucket::RingTransit),
                (finish, exec_bucket),
                (commit_t, Bucket::Retiring),
            ];
            let mut parts = [0u64; 5];
            let mut cur = prev_clock;
            for (b, bucket) in chain {
                if b > cur {
                    parts[bucket.index()] += b - cur;
                    cur = b;
                }
            }
            self.probes.retire(&Retirement {
                thread,
                pc,
                dest,
                addr: info.mem.addr(),
                pe: None,
                reused: false,
                start: issue_t,
                finish,
                commit: commit_t,
                parts,
            });
        }
        self.last_commit = commit_t;
        self.rob.push_back(commit_t);
        self.stats.committed += 1;
        if self.stats.committed.is_multiple_of(4096) {
            // Nothing issues before the oldest possible in-flight fetch.
            let safe = self
                .rob
                .front()
                .copied()
                .unwrap_or(0)
                .saturating_sub(4 * self.cfg.rob_size as u64);
            self.issue_bw.prune_before(safe);
        }
        if self.state.halted {
            self.halted = true;
            self.probes.emit(|| Event {
                cycle: commit_t,
                thread,
                track: Track::Core(thread),
                kind: EventKind::ThreadHalt,
            });
        }
        Ok(())
    }
}
