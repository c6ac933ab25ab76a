//! The serial dataflow execution engine of one DiAG ring.
//!
//! A dataflow ring (paper §5.1) chains processing clusters circularly and
//! runs one hardware thread. Instructions are assigned to PEs in program
//! order; each begins execution as soon as its source register lanes are
//! valid (§4.1), resolving RAW hazards implicitly and WAR/WAW by
//! construction (§4.2). The PC lane retires instructions in order (§5.1.4).
//!
//! The engine is *dependence-timed*: it walks the correct dynamic
//! instruction stream (functional execution is program-ordered and exact)
//! and computes per-instruction start/finish times from the same structural
//! rules the hardware obeys — lane-buffer propagation (§6.1.2), cluster
//! residency and line fetches (§4.3, §5.1.1), per-cluster LSU queues and
//! memory lanes (§5.2), backward-branch datapath reuse (§4.3.2), and the
//! shared 512-bit bus (§5.1.3). Wrong-path execution is not simulated; a
//! taken branch charges the paper's redirect penalty instead (§7.3.2).

use std::rc::Rc;
use std::sync::Arc;

use diag_asm::Program;
use diag_isa::{decode, exec, ArchReg, ExecKind, Inst, Reg, Station, StationSlot, INST_BYTES};
use diag_mem::{LaneLookup, MemLane, REGFILE_BEATS};
use diag_sim::{Activity, Bucket, Probes, Retirement, SimError, StallBreakdown};
use diag_trace::{Event, EventKind, StallCause, Track};

use crate::cluster::Cluster;

/// Data-line granularity of the cluster line buffers (64-byte lines).
fn shared_line_mask() -> u32 {
    63
}
use crate::config::DiagConfig;
use crate::lane::{CommitTracker, LaneFile, LaneGeometry};
use crate::shared::SharedParts;

/// Per-ring statistics merged into the machine's [`diag_sim::RunStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStats {
    /// Component activity, summed into the machine's [`Activity`].
    pub activity: Activity,
    /// Stall-source cycles (§7.3.2 taxonomy).
    pub stalls: StallBreakdown,
}

/// Which cluster of a ring holds each resident I-line.
///
/// The most recent hit is remembered beside the map: consecutive
/// instructions mostly share a line, so most steps resolve residency
/// without hashing. The remembered pair is always an entry of the map —
/// every mutation below keeps it so.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    map: diag_mem::FxHashMap<u32, usize>,
    last: Option<(u32, usize)>,
}

impl Residency {
    /// The cluster holding `line`, if it is resident.
    #[inline]
    pub(crate) fn get(&mut self, line: u32) -> Option<usize> {
        match self.last {
            Some((l, c)) if l == line => Some(c),
            _ => {
                let found = self.map.get(&line).copied();
                if let Some(c) = found {
                    self.last = Some((line, c));
                }
                found
            }
        }
    }

    /// Records `line` as resident in cluster `c`.
    pub(crate) fn insert(&mut self, line: u32, c: usize) {
        self.map.insert(line, c);
        self.last = Some((line, c));
    }

    /// Forgets `line`'s residency.
    pub(crate) fn remove(&mut self, line: u32) {
        self.map.remove(&line);
        if matches!(self.last, Some((l, _)) if l == line) {
            self.last = None;
        }
    }

    /// Forgets every line.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.last = None;
    }

    /// Number of resident lines.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// One dataflow ring executing one hardware thread.
#[derive(Debug)]
pub struct RingSim {
    pub(crate) program: Arc<Program>,
    pub(crate) config: Arc<DiagConfig>,
    pub(crate) geom: LaneGeometry,
    pub(crate) clusters: Vec<Cluster>,
    pub(crate) resident: Residency,
    pub(crate) alloc_rr: usize,
    /// Last sequentially-loaded line and the time its bus transport ended,
    /// modelling the control unit's preemptive next-line fetch (§5.1.3).
    pub(crate) last_line: Option<(u32, u64)>,
    /// Lines that have been backward-branch targets: the control unit's
    /// scheduling table knows the thread loops through them and prefetches
    /// them into freed clusters (§5.1.3 "preemptively loading instruction
    /// lines"), hiding the fetch latency on re-entry.
    pub(crate) loop_lines: diag_mem::FxHashSet<u32>,
    pub(crate) lanes: LaneFile,
    pub(crate) commit: CommitTracker,
    pub(crate) memlane: MemLane,
    /// Current architectural PC (next instruction to process).
    pub pc: u32,
    /// Whether the thread has halted (`ecall`).
    pub halted: bool,
    /// Earliest time the next instruction may begin (control redirects).
    pub(crate) time_floor: u64,
    /// Whether the pending floor came from a control redirect (attributes
    /// the following line fetch to control).
    pub(crate) redirect_pending: bool,
    /// Store-ordering floor (stores issue in order among themselves).
    pub(crate) mem_floor: u64,
    /// Floor applied to every memory access after a `fence`.
    pub(crate) fence_floor: u64,
    /// Statistics for this ring.
    pub stats: RingStats,
    /// High-water mark of simultaneously resident I-lines (powered
    /// clusters), for the lane/leakage energy model (§7.3.1).
    pub(crate) max_resident: usize,
    /// Whether the configured asynchronous interrupt has been delivered.
    pub(crate) interrupt_taken: bool,
    /// In-flight lane transports per buffered segment (arrival times),
    /// maintained only while a tracer is attached to feed
    /// [`diag_trace::EventKind::SegOccupancy`] events.
    pub(crate) seg_inflight: Vec<Vec<u64>>,
    pub(crate) thread_id: usize,
    /// The machine's probes, cloned once at wave launch so the per-step
    /// hot loop performs no `Rc` refcount traffic. A commit log forces
    /// SIMT regions onto the sequential marker path, so the logged stream
    /// matches the architectural reference retirement for retirement.
    pub(crate) probes: Probes,
    /// Validated-SIMT-region cache keyed by the `simt_s` address. Region
    /// well-formedness is a static property of the program text, so each
    /// `simt_s` is scanned and its body lowered to stations exactly once;
    /// `None` records a validation fallback (sequential execution).
    pub(crate) region_cache: diag_mem::FxHashMap<u32, Option<Rc<crate::simt::CachedRegion>>>,
    /// Scratch memory lane reused across SIMT instances (cleared, not
    /// reallocated, per instance).
    pub(crate) simt_memlane: MemLane,
}

impl RingSim {
    /// Creates a ring of `clusters` processing clusters running `program`
    /// as hardware thread `thread_id` of `thread_count`.
    pub fn new(
        program: Arc<Program>,
        config: Arc<DiagConfig>,
        clusters: usize,
        thread_id: usize,
        thread_count: usize,
        start_time: u64,
    ) -> RingSim {
        let ppc = config.pes_per_cluster;
        let mut lanes = LaneFile::new();
        lanes.set_value(Reg::A0.into(), thread_id as u32);
        lanes.set_value(Reg::A1.into(), thread_count as u32);
        lanes.set_value(
            Reg::SP.into(),
            diag_asm::STACK_TOP - (thread_id as u32) * diag_asm::STACK_STRIDE,
        );
        lanes.retime_all(start_time, 0);
        let mut commit = CommitTracker::new(config.commit_width);
        commit.advance_to(start_time);
        let entry = program.entry();
        RingSim {
            geom: LaneGeometry::new(config.lane_buffer_interval, clusters * ppc),
            clusters: (0..clusters)
                .map(|_| Cluster::new(ppc, config.lsu_depth))
                .collect(),
            resident: Residency::default(),
            alloc_rr: 0,
            last_line: None,
            loop_lines: diag_mem::FxHashSet::default(),
            lanes,
            commit,
            memlane: MemLane::new(config.memlane_capacity),
            simt_memlane: MemLane::new(config.memlane_capacity),
            pc: entry,
            halted: false,
            time_floor: start_time,
            redirect_pending: false,
            mem_floor: start_time,
            fence_floor: start_time,
            stats: RingStats::default(),
            max_resident: 0,
            interrupt_taken: false,
            seg_inflight: Vec::new(),
            thread_id,
            probes: Probes::default(),
            region_cache: diag_mem::FxHashMap::default(),
            program,
            config,
        }
    }

    /// This ring's hardware-thread id.
    pub fn thread_id(&self) -> usize {
        self.thread_id
    }

    /// The ring's current notion of time (last retirement).
    pub fn clock(&self) -> u64 {
        self.commit.last_commit()
    }

    /// High-water mark of simultaneously resident (powered) clusters.
    pub fn max_resident_clusters(&self) -> usize {
        self.max_resident
    }

    /// Read an architectural register value (program-order exact).
    pub(crate) fn reg(&self, lane: ArchReg) -> u32 {
        self.lanes.value(lane)
    }

    fn line_mask(&self) -> u32 {
        !(self.config.line_bytes() - 1)
    }

    /// Records `cycles` of stall attributed to `cause`, ending at `end`,
    /// both in the §7.3.2 breakdown and — when a tracer is attached — as a
    /// paired `StallBegin`/`StallEnd` interval on `track`. Every stall the
    /// ring accounts flows through here, which is what lets the
    /// stall-attribution timeline reconcile exactly with
    /// [`StallBreakdown`].
    pub(crate) fn stall(&mut self, track: Track, cause: StallCause, end: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.stalls.add_cycles(cause, cycles);
        self.probes
            .stall(self.pc, self.thread_id as u32, track, cause, end, cycles);
    }

    /// Emits segment-buffer traffic events for one lane transport that
    /// departs the writer at `depart` and reaches the reader at `arrive`
    /// (only called with an enabled tracer).
    fn emit_transport(&mut self, lane: ArchReg, reader_slot: usize, depart: u64, arrive: u64) {
        let tracer = self.probes.tracer().clone();
        let thread = self.thread_id as u32;
        let l = lane.index() as u8;
        let from_slot = self.lanes.writer_of(lane);
        let seg_from = self.geom.segment_of(from_slot) as u32;
        let seg_to = self.geom.segment_of(reader_slot) as u32;
        let to_slot = (reader_slot % self.geom.ring_slots()) as u32;
        tracer.emit(|| Event {
            cycle: depart,
            thread,
            track: Track::Lane(l),
            kind: EventKind::LaneForward {
                lane: l,
                from_slot: from_slot as u32,
                to_slot,
                hops: (arrive - depart) as u32,
            },
        });
        tracer.emit(|| Event {
            cycle: depart,
            thread,
            track: Track::Lane(l),
            kind: EventKind::SegPush {
                lane: l,
                segment: seg_from,
            },
        });
        tracer.emit(|| Event {
            cycle: arrive,
            thread,
            track: Track::Lane(l),
            kind: EventKind::SegPop {
                lane: l,
                segment: seg_to,
            },
        });
        let segments = self.geom.segments();
        if self.seg_inflight.len() < segments {
            self.seg_inflight.resize(segments, Vec::new());
        }
        let row = &mut self.seg_inflight[seg_from as usize];
        row.retain(|&e| e > depart);
        row.push(arrive);
        let occupancy = row.len() as u32;
        tracer.emit(|| Event {
            cycle: depart,
            thread,
            track: Track::Lane(l),
            kind: EventKind::SegOccupancy {
                segment: seg_from,
                occupancy,
            },
        });
    }

    /// Loads the non-resident I-line `line` into the next cluster in
    /// allocation order; returns that cluster's index. `was_redirect`
    /// attributes any fetch wait to control.
    fn fetch_resident(&mut self, line: u32, was_redirect: bool, shared: &mut SharedParts) -> usize {
        let c = self.alloc_rr;
        self.alloc_rr = (self.alloc_rr + 1) % self.clusters.len();
        // The control unit initiates the fetch: on a sequential line
        // transition the fetch was launched when the previous line arrived
        // (preemptive loading, §5.1.3); on a redirect it starts at the
        // redirect floor.
        let initiate = match self.last_line {
            Some((prev, arrived))
                if line == prev.wrapping_add(self.config.line_bytes()) && !was_redirect =>
            {
                arrived
            }
            _ => self.time_floor,
        };
        // A known loop target was prefetched while the victim cluster was
        // draining; its transport cost was already paid in the background.
        let thread = self.thread_id as u32;
        let prefetched = was_redirect && self.loop_lines.contains(&line);
        let arrived = if prefetched {
            initiate
        } else {
            let (arrived, bus_wait) =
                shared.fetch_line(line, initiate, thread, self.probes.tracer());
            self.stall(Track::Bus, StallCause::Structural, arrived, bus_wait);
            arrived
        };
        let free = self.clusters[c].last_commit;
        if free > arrived {
            self.stall(
                Track::Cluster(c as u32),
                StallCause::Structural,
                free,
                free - arrived,
            );
        }
        let latch = arrived.max(free);
        let decode_ready = latch + self.config.line_load_cycles + 1;
        if was_redirect && decode_ready > self.time_floor {
            self.stall(
                Track::Cluster(c as u32),
                StallCause::Control,
                decode_ready,
                decode_ready - self.time_floor,
            );
        }
        if let Some(old) = self.clusters[c].line_addr {
            self.resident.remove(old);
        }
        self.clusters[c].load_line(line, decode_ready);
        self.populate_stations(c, line);
        self.resident.insert(line, c);
        self.max_resident = self.max_resident.max(self.resident.len());
        self.last_line = Some((line, arrived));
        self.stats.activity.line_fetches += 1;
        self.stats.activity.bus_beats += diag_mem::ILINE_BEATS;
        self.probes.emit(|| Event {
            cycle: arrived,
            thread,
            track: Track::Cluster(c as u32),
            kind: EventKind::LineFetch { line, prefetched },
        });
        c
    }

    /// Predecodes the just-loaded line into cluster `c`'s station arena —
    /// the per-PE `RV_DECODER` pass of a line load (§4.2, Table 3). Each
    /// slot that holds a decodable instruction counts one decode;
    /// subsequent executions from the arena are datapath reuse and touch
    /// neither the program bytes nor the decoder.
    pub(crate) fn populate_stations(&mut self, c: usize, line: u32) {
        let program = Arc::clone(&self.program);
        let ppc = self.config.pes_per_cluster;
        let mut decoded = 0u64;
        for i in 0..ppc {
            let pc = line + (i as u32) * INST_BYTES;
            self.clusters[c].stations[i] = match program.fetch(pc) {
                None => StationSlot::Empty,
                Some(word) => match decode(word) {
                    Ok(inst) => {
                        decoded += 1;
                        StationSlot::Ready(Station::lower(inst, pc, |a| program.decode_at(a)))
                    }
                    Err(_) => StationSlot::Illegal { word },
                },
            };
        }
        self.stats.activity.decodes += decoded;
    }

    /// Handles a taken control transfer resolved at `resolve` from global
    /// PE slot `from_slot`; sets the floor for the next instruction.
    fn redirect(&mut self, target: u32, resolve: u64, from_slot: usize, shared: &mut SharedParts) {
        let thread = self.thread_id as u32;
        let backward = target <= self.pc;
        let from_pc = self.pc;
        self.probes.emit(|| Event {
            cycle: resolve,
            thread,
            track: Track::Control,
            kind: EventKind::BranchRedirect {
                from_pc,
                to_pc: target,
                backward,
            },
        });
        let line = target & self.line_mask();
        match self.resident.get(line) {
            Some(c) => {
                if backward && !self.config.enable_reuse {
                    // Ablation: no datapath reuse — evict so the line
                    // reloads through the full fetch/decode path.
                    self.clusters[c].evict();
                    self.resident.remove(line);
                    self.time_floor = resolve + 1;
                } else {
                    let slot_in = ((target - line) / INST_BYTES) as usize;
                    let target_slot = c * self.config.pes_per_cluster + slot_in;
                    let walk = self.geom.delay(from_slot, target_slot).max(1);
                    let delay = if walk <= REGFILE_BEATS {
                        walk
                    } else {
                        // Partial register-file transfer over the 512-bit
                        // bus: two cycles plus arbitration (§5.1.3).
                        let granted = shared.bus.request_traced(
                            resolve,
                            REGFILE_BEATS,
                            self.probes.tracer(),
                            thread,
                        );
                        self.stats.activity.bus_beats += REGFILE_BEATS;
                        granted + REGFILE_BEATS - resolve
                    };
                    self.time_floor = resolve + delay;
                    // Backward reuse redirects are the steady-state loop
                    // mechanism, not flushes. Taken *forward* branches
                    // disable the skipped PEs — wasted slots the paper's
                    // taxonomy counts as control (§7.3.2).
                    if !backward {
                        self.stall(Track::Control, StallCause::Control, resolve + delay, delay);
                    }
                    self.redirect_pending = true;
                    return;
                }
            }
            None => {
                // Target line must be fetched; fetch_resident adds the
                // fetch latency on the next step (≥3 cycles total, §7.3.2).
                // The scheduling table records loop targets for preemptive
                // loading on future iterations.
                if backward && self.config.enable_reuse {
                    // Preemptive loop-line loading is part of the reuse
                    // machinery; the ablation disables both.
                    self.loop_lines.insert(line);
                }
                if !backward && self.config.speculative_datapaths {
                    // §7.3.2 future work: the taken-path line was being
                    // constructed speculatively in a spare cluster, so the
                    // redirect only pays the PC-lane switch.
                    self.loop_lines.insert(line);
                }
                self.time_floor = resolve + 1;
            }
        }
        let floor = self.time_floor;
        self.stall(Track::Control, StallCause::Control, floor, floor - resolve);
        self.redirect_pending = true;
    }

    /// Issues one memory access through the cluster's LSU and the memory
    /// lanes; returns `(issue_time, data_ready_time)`. Stores issue in
    /// order among themselves; loads reorder freely except around
    /// overlapping buffered stores (the memory lanes "enable access
    /// reordering", §5.2). The PE frees once the request is handed to the
    /// LSU queue (the queue depth bounds how many iterations' accesses
    /// overlap under reuse).
    fn issue_mem(
        &mut self,
        cluster: usize,
        addr: u32,
        size: u32,
        write: bool,
        start: u64,
        shared: &mut SharedParts,
    ) -> (u64, u64) {
        let thread = self.thread_id as u32;
        let unit = cluster as u32;
        if write {
            let want = start.max(self.mem_floor);
            let (issue, waited, id) = self.clusters[cluster].lsu.issue_blocking_traced(
                want,
                true,
                self.probes.tracer(),
                thread,
                unit,
            );
            self.stall(Track::Lsu(unit), StallCause::Memory, issue, waited);
            self.mem_floor = issue;
            self.memlane.push_store(addr, size, 0, issue);
            self.memlane.trim();
            let out = shared
                .l1d
                .access_traced(addr, true, issue, self.probes.tracer(), thread);
            self.count_cache(&out);
            self.clusters[cluster].line_buf_fill(addr & !(shared_line_mask()));
            let ready = issue + 1;
            self.clusters[cluster].lsu.complete_at_traced(
                ready,
                id,
                self.probes.tracer(),
                thread,
                unit,
            );
            (issue, ready)
        } else {
            let (want, forward) = match self.memlane.lookup(addr, size) {
                LaneLookup::HitFast { store_time, .. } => {
                    (start.max(self.fence_floor).max(store_time), true)
                }
                LaneLookup::HitSlow { store_time, .. } | LaneLookup::Conflict { store_time } => {
                    (start.max(self.fence_floor).max(store_time + 1), false)
                }
                LaneLookup::Miss => (start.max(self.fence_floor), false),
            };
            // Cluster-level line buffer (§5.2): a load to the previously
            // accessed line is served locally without consuming the LSU
            // queue or an L1D port.
            let line = addr & !(shared_line_mask());
            if !forward && self.clusters[cluster].line_buf_hit(line) {
                self.stats.activity.memlane_hits += 1;
                return (want, want + 1);
            }
            let (issue, waited, id) = self.clusters[cluster].lsu.issue_blocking_traced(
                want,
                false,
                self.probes.tracer(),
                thread,
                unit,
            );
            self.stall(Track::Lsu(unit), StallCause::Memory, issue, waited);
            let ready = if forward {
                self.stats.activity.memlane_hits += 1;
                issue + 1
            } else {
                let out =
                    shared
                        .l1d
                        .access_traced(addr, false, issue, self.probes.tracer(), thread);
                self.count_cache(&out);
                if !out.l1_hit {
                    let hit_time = issue + self.config.l1d.hit_latency as u64;
                    self.stall(
                        Track::Cache(1),
                        StallCause::Memory,
                        out.ready_at,
                        out.ready_at.saturating_sub(hit_time),
                    );
                }
                self.clusters[cluster].line_buf_fill(line);
                out.ready_at
            };
            self.clusters[cluster].lsu.complete_at_traced(
                ready,
                id,
                self.probes.tracer(),
                thread,
                unit,
            );
            (issue, ready)
        }
    }

    pub(crate) fn count_cache(&mut self, out: &diag_mem::MemOutcome) {
        self.stats.activity.l1d_accesses += 1;
        if !out.l1_hit {
            self.stats.activity.l1d_misses += 1;
            self.stats.activity.l2_accesses += 1;
            if !out.l2_hit {
                self.stats.activity.l2_misses += 1;
            }
        }
    }

    /// Executes one dynamic instruction (or one whole SIMT region when it
    /// begins at the current PC). Advances architectural and timing state.
    pub fn step(&mut self, shared: &mut SharedParts) -> Result<(), SimError> {
        if self.halted {
            return Err(SimError::Halted);
        }
        // Asynchronous interrupt (§5.1.4): taken at an instruction
        // boundary on thread 0 once the PC lane has passed the injection
        // cycle. All older instructions have retired (this engine is
        // program-ordered), younger PEs are disabled by the PC mismatch.
        if let Some((cycle, vector)) = self.config.interrupt_at {
            if self.thread_id == 0 && !self.interrupt_taken && self.clock() >= cycle {
                self.interrupt_taken = true;
                let resolve = self.clock() + 1;
                let slot = 0;
                let old_pc = self.pc;
                self.pc = vector;
                self.redirect(vector, resolve, slot, shared);
                // The interrupted PC is preserved for the handler in the
                // conventional scratch register (a simplified mepc).
                self.lanes
                    .write(diag_isa::Reg::GP.into(), old_pc, resolve, slot);
                self.stall(Track::Control, StallCause::Control, resolve, 1);
            }
        }
        let pc = self.pc;
        if !self.program.contains_text_addr(pc) {
            return Err(SimError::PcOutOfRange { pc });
        }
        let line = pc & self.line_mask();

        // One residency probe serves both the SIMT peek and the
        // execution below. Only a SIMT fallback probes again, so the
        // execution path never depends on how far `try_simt` got before
        // declining.
        let mut resident = self.resident.get(line);

        // Commit logging forces the sequential marker path: pipelined
        // SIMT retires whole regions in bulk, which cannot be diffed
        // retirement-for-retirement against the reference. The peek comes
        // from the resident station when available; only a cold miss on a
        // region entry consults the decoder.
        if self.config.enable_simt && !self.probes.logs_commits() {
            let peeked = match resident {
                Some(c) => {
                    let slot_in = ((pc - line) / INST_BYTES) as usize;
                    match self.clusters[c].stations[slot_in] {
                        StationSlot::Ready(st) if matches!(st.kind, ExecKind::SimtS { .. }) => {
                            Some(st.inst)
                        }
                        _ => None,
                    }
                }
                None => self
                    .program
                    .decode_at(pc)
                    .filter(|i| matches!(i, Inst::SimtS { .. })),
            };
            if let Some(inst) = peeked {
                if self.try_simt(pc, inst, shared)? {
                    return Ok(());
                }
                resident = self.resident.get(line);
            }
        }

        let was_redirect = std::mem::take(&mut self.redirect_pending);
        let cluster = match resident {
            Some(c) => c,
            None => self.fetch_resident(line, was_redirect, shared),
        };
        let slot_in = ((pc - line) / INST_BYTES) as usize;
        let slot = cluster * self.config.pes_per_cluster + slot_in;

        let st = match self.clusters[cluster].stations[slot_in] {
            StationSlot::Ready(st) => st,
            StationSlot::Illegal { word } => {
                return Err(SimError::IllegalInstruction { addr: pc, word })
            }
            StationSlot::Empty => return Err(SimError::PcOutOfRange { pc }),
        };

        let thread = self.thread_id as u32;
        let prev_clock = self.commit.last_commit();
        let reused = !self.clusters[cluster].mark_decoded(slot_in);
        if reused {
            self.stats.activity.reuse_commits += 1;
        }
        let decode_ready = self.clusters[cluster].decode_ready;

        // Source operands: value + validity time at this PE slot.
        let mut op_ready = 0u64;
        for src in st.srcs.iter() {
            let t = self.lanes.ready_at(src, slot, &self.geom);
            let raw = self.lanes.raw_ready(src);
            self.stats.activity.lane_transports += t - raw;
            if t > raw && self.probes.tracer().enabled() {
                self.emit_transport(src, slot, raw, t);
            }
            op_ready = op_ready.max(t);
        }

        let slot_free = self.clusters[cluster].slot_busy[slot_in];
        let start = op_ready
            .max(decode_ready)
            .max(self.time_floor)
            .max(slot_free);
        self.probes.emit(|| Event {
            cycle: start,
            thread,
            track: Track::Pe {
                cluster: cluster as u32,
                slot: slot_in as u32,
            },
            kind: EventKind::PeIssue { pc, reused },
        });

        let mut next_pc = pc.wrapping_add(INST_BYTES);
        let mut lane_write: Option<(ArchReg, u32)> = None;
        let mut mem_addr: Option<u32> = None;
        let mut slot_release: Option<u64> = None;
        let finish: u64;

        match st.kind {
            ExecKind::Const { value } => {
                finish = start + 1;
                lane_write = st.dest.map(|d| (d, value));
            }
            ExecKind::AluImm { op, rs1, imm } => {
                finish = start + st.latency as u64;
                let v = exec::alu(op, self.lanes.value(rs1), imm);
                lane_write = st.dest.map(|d| (d, v));
            }
            ExecKind::Alu { op, rs1, rs2 } => {
                finish = start + st.latency as u64;
                let v = exec::alu(op, self.lanes.value(rs1), self.lanes.value(rs2));
                lane_write = st.dest.map(|d| (d, v));
            }
            ExecKind::Jal { target, link } => {
                finish = start + 1;
                lane_write = st.dest.map(|d| (d, link));
                next_pc = target;
                self.redirect(next_pc, finish, slot, shared);
            }
            ExecKind::Jalr { rs1, offset, link } => {
                finish = start + 1;
                let target = self.lanes.value(rs1).wrapping_add(offset as u32) & !1;
                lane_write = st.dest.map(|d| (d, link));
                next_pc = target;
                self.redirect(next_pc, finish, slot, shared);
            }
            ExecKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                finish = start + 1;
                let taken = exec::branch_taken(op, self.lanes.value(rs1), self.lanes.value(rs2));
                if taken {
                    next_pc = target;
                    self.redirect(next_pc, finish, slot, shared);
                }
            }
            ExecKind::Load { op, rs1, offset } => {
                let addr = self.lanes.value(rs1).wrapping_add(offset as u32);
                let size = op.size();
                if !addr.is_multiple_of(size) {
                    return Err(SimError::Misaligned { addr, size });
                }
                mem_addr = Some(addr);
                let (issue, ready) = self.issue_mem(cluster, addr, size, false, start, shared);
                slot_release = Some(issue + 1);
                finish = ready;
                let raw = shared.mem.read(addr, size);
                lane_write = st.dest.map(|d| (d, exec::extend_load(op, raw)));
                self.stats.activity.loads += 1;
            }
            ExecKind::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.lanes.value(rs1).wrapping_add(offset as u32);
                let size = op.size();
                if !addr.is_multiple_of(size) {
                    return Err(SimError::Misaligned { addr, size });
                }
                mem_addr = Some(addr);
                let value = self.lanes.value(rs2);
                shared.mem.write(addr, size, value);
                let (issue, ready) = self.issue_mem(cluster, addr, size, true, start, shared);
                slot_release = Some(issue + 1);
                finish = ready;
                self.stats.activity.stores += 1;
            }
            ExecKind::LoadFp { rs1, offset } => {
                let addr = self.lanes.value(rs1).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(SimError::Misaligned { addr, size: 4 });
                }
                mem_addr = Some(addr);
                let (issue, ready) = self.issue_mem(cluster, addr, 4, false, start, shared);
                slot_release = Some(issue + 1);
                finish = ready;
                lane_write = st.dest.map(|d| (d, shared.mem.read_u32(addr)));
                self.stats.activity.loads += 1;
            }
            ExecKind::StoreFp { rs1, rs2, offset } => {
                let addr = self.lanes.value(rs1).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(SimError::Misaligned { addr, size: 4 });
                }
                mem_addr = Some(addr);
                shared.mem.write_u32(addr, self.lanes.value(rs2));
                let (issue, ready) = self.issue_mem(cluster, addr, 4, true, start, shared);
                slot_release = Some(issue + 1);
                finish = ready;
                self.stats.activity.stores += 1;
            }
            ExecKind::FpOp { op, rs1, rs2 } => {
                finish = start + st.latency as u64;
                let v = exec::fp_op(op, self.lanes.value(rs1), self.lanes.value(rs2));
                lane_write = st.dest.map(|d| (d, v));
            }
            ExecKind::FpFma { op, rs1, rs2, rs3 } => {
                finish = start + st.latency as u64;
                let v = exec::fp_fma(
                    op,
                    self.lanes.value(rs1),
                    self.lanes.value(rs2),
                    self.lanes.value(rs3),
                );
                lane_write = st.dest.map(|d| (d, v));
            }
            ExecKind::FpCmp { op, rs1, rs2 } => {
                finish = start + st.latency as u64;
                let v = exec::fp_cmp(op, self.lanes.value(rs1), self.lanes.value(rs2));
                lane_write = st.dest.map(|d| (d, v));
            }
            ExecKind::FpToInt { op, rs1 } => {
                finish = start + st.latency as u64;
                lane_write = st
                    .dest
                    .map(|d| (d, exec::fp_to_int(op, self.lanes.value(rs1))));
            }
            ExecKind::IntToFp { op, rs1 } => {
                finish = start + st.latency as u64;
                lane_write = st
                    .dest
                    .map(|d| (d, exec::int_to_fp(op, self.lanes.value(rs1))));
            }
            ExecKind::Fence => {
                // Serialize the memory stream.
                finish = start + 1;
                self.mem_floor = self.mem_floor.max(finish);
                self.fence_floor = self.fence_floor.max(finish);
            }
            ExecKind::Ecall => {
                finish = start + 1;
                self.halted = true;
            }
            ExecKind::Ebreak => {
                finish = start + 1;
                match self.config.trap_vector {
                    Some(vector) => {
                        // Precise trap (§5.1.4): older instructions have
                        // committed (program-order engine), younger PEs are
                        // disabled by the PC-lane mismatch.
                        next_pc = vector;
                        self.redirect(vector, finish, slot, shared);
                    }
                    None => self.halted = true,
                }
            }
            ExecKind::SimtS { rc } => {
                // Sequential marker semantics: rc passes through unchanged.
                finish = start + 1;
                lane_write = Some((rc, self.lanes.value(rc)));
            }
            ExecKind::SimtE {
                rc,
                r_end,
                start_pc,
                step,
            } => {
                finish = start + 1;
                let step = match step {
                    Some(r_step) => self.lanes.value(r_step),
                    None => {
                        let other = self.program.decode_at(start_pc);
                        return Err(SimError::InvalidSimtRegion {
                            reason: format!(
                                "simt_e at {pc:#x} points to {other:?} at {start_pc:#x}, not simt_s"
                            ),
                        });
                    }
                };
                let rc_new = self.lanes.value(rc).wrapping_add(step);
                lane_write = Some((rc, rc_new));
                if (rc_new as i32) < (self.lanes.value(r_end) as i32) {
                    next_pc = start_pc.wrapping_add(INST_BYTES);
                    self.redirect(next_pc, finish, slot, shared);
                }
            }
        }

        // Drive the destination lane and retire through the PC lane.
        if let Some((lane, value)) = lane_write {
            self.lanes.write(lane, value, finish, slot);
            if !lane.is_zero() {
                self.stats.activity.reg_writes += 1;
                self.probes.emit(|| Event {
                    cycle: finish,
                    thread,
                    track: Track::Lane(lane.index() as u8),
                    kind: EventKind::LaneWrite {
                        lane: lane.index() as u8,
                    },
                });
            }
        }
        let exec_cycles = finish - start;
        self.stats.activity.pe_active_cycles += exec_cycles.max(1);
        if st.uses_fpu {
            self.stats.activity.fpu_active_cycles += exec_cycles.max(1);
            self.stats.activity.fp_ops += 1;
        } else if !st.is_mem {
            self.stats.activity.int_ops += 1;
        }
        let commit_t = self.commit.commit(finish);
        if self.probes.retiring() {
            // Partition this retirement's commit-clock delta: waiting
            // before issue, executing (memory-bound for loads/stores),
            // then commit-bandwidth queueing. Each boundary is clipped
            // to the previous commit clock so the parts telescope. The
            // wait is attributed to whichever structure held the issue
            // back: line fetch/predecode first (frontend), then source
            // lanes, then everything else (redirect floors, PE
            // occupancy) as transit.
            let wait_bucket = if decode_ready == start {
                Bucket::LineLoadFrontend
            } else if op_ready == start {
                Bucket::LaneWait
            } else {
                Bucket::RingTransit
            };
            let w_end = start.max(prev_clock);
            let x_end = finish.max(prev_clock);
            let mut parts = [0u64; 5];
            parts[wait_bucket.index()] += w_end - prev_clock;
            let exec_bucket = if st.is_mem {
                Bucket::MemoryBound
            } else {
                Bucket::Retiring
            };
            parts[exec_bucket.index()] += x_end - w_end;
            parts[Bucket::Retiring.index()] += commit_t - x_end;
            self.probes.retire(&Retirement {
                thread,
                pc,
                dest: lane_write,
                addr: mem_addr,
                pe: Some((cluster as u32, slot_in as u32)),
                reused,
                start,
                finish,
                commit: commit_t,
                parts,
            });
        }
        if self.halted {
            self.probes.emit(|| Event {
                cycle: commit_t,
                thread,
                track: Track::Control,
                kind: EventKind::ThreadHalt,
            });
        }
        self.clusters[cluster].last_commit = self.clusters[cluster].last_commit.max(commit_t);
        // A PE accepts its next dynamic instance once its unit can issue
        // again: pipelined units every cycle (the buffered lane segments
        // pipeline the value flow), unpipelined dividers after their full
        // latency, memory PEs once the LSU accepted the request.
        let occupancy = match st.fu {
            diag_isa::FuKind::IntDiv | diag_isa::FuKind::FpDiv => finish,
            _ => start + 1,
        };
        self.clusters[cluster].slot_busy[slot_in] = slot_release.unwrap_or(occupancy);
        self.pc = next_pc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiagConfig;
    use diag_asm::assemble;
    use diag_mem::MainMemory;

    /// Stepping a halted ring must be a hard error in every build
    /// profile, not just a `debug_assert`: the parallel runner relies on
    /// the error to catch scheduler bugs in release mode too.
    #[test]
    fn step_after_halt_is_an_error() {
        let program = Arc::new(assemble("li t0, 1\necall\n").unwrap());
        let config = Arc::new(DiagConfig::f4c2());
        let mem = MainMemory::with_program(&program);
        let mut shared = SharedParts::new(&config, mem);
        let mut ring = RingSim::new(Arc::clone(&program), Arc::clone(&config), 2, 0, 1, 0);
        while !ring.halted {
            ring.step(&mut shared).unwrap();
        }
        assert!(matches!(ring.step(&mut shared), Err(SimError::Halted)));
        // The error is sticky: a second attempt reports the same thing.
        assert!(matches!(ring.step(&mut shared), Err(SimError::Halted)));
    }
}
