//! SIMT thread pipelining (paper §4.4 and §5.4).
//!
//! When a `simt_s`/`simt_e` region is well-formed — fits in the ring, no
//! backward branches or indirect jumps, body does not write the control
//! register — DiAG pipelines loop *instances* through the region's
//! clusters: pipeline registers sit between clusters (not between PEs,
//! Figure 7's caveat), each instance carries its own register lanes and
//! PC, forward branches nullify mismatched PEs, and a new instance is
//! initiated at most once every `interval` cycles. Ill-formed regions fall
//! back to the markers' sequential-loop semantics, as the paper prescribes
//! ("otherwise the threads are executed sequentially", §4.4.3).
//!
//! Functionally, instances execute in loop order, so memory side effects
//! are exactly those of the sequential loop; only the *timing* is
//! pipelined.

use std::rc::Rc;

use diag_isa::{exec, ArchReg, ExecKind, Inst, Reg, Station, INST_BYTES};
use diag_mem::{LaneLookup, MemLane};
use diag_sim::{RegionSample, RegionStation, SimError};
use diag_trace::{Event, EventKind, StallCause, Track};

use crate::lane::LaneFile;
use crate::ring::RingSim;
use crate::shared::SharedParts;

/// Cycles a PE's functional unit is unavailable after accepting an
/// instance: pipelined units re-issue every cycle; unpipelined dividers
/// block for their full latency (§5.1.2's FDIV concern).
fn occupancy(st: &Station) -> u64 {
    use diag_isa::FuKind;
    match st.fu {
        FuKind::IntDiv | FuKind::FpDiv => st.latency as u64,
        _ => 1,
    }
}

/// A validated SIMT region description, cached per `simt_s` address.
///
/// Region well-formedness is a static property of the program text, so the
/// scan/validate/lower pass runs once; every later entry to the same
/// region executes straight from the cached station body.
#[derive(Debug)]
pub(crate) struct CachedRegion {
    /// Address of the `simt_s`.
    pc_s: u32,
    /// Address of the matching `simt_e`.
    pc_e: u32,
    /// Body instructions (between the markers) lowered to stations, with
    /// addresses.
    body: Vec<(u32, Station)>,
    /// I-line base addresses covered by the region, in order (one pipeline
    /// stage per line/cluster).
    lines: Vec<u32>,
}

impl RingSim {
    /// Attempts pipelined execution of the SIMT region whose `simt_s` is
    /// at `pc_s`. Returns `Ok(true)` when the region was executed in
    /// pipeline mode (all architectural and timing state advanced past
    /// it), `Ok(false)` to fall back to sequential marker semantics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSimtRegion`] for malformed pairs (zero
    /// step or a non-terminating bound) — these are program bugs, not
    /// fallback cases.
    pub(crate) fn try_simt(
        &mut self,
        pc_s: u32,
        inst: Inst,
        shared: &mut SharedParts,
    ) -> Result<bool, SimError> {
        let Inst::SimtS {
            rc,
            r_step,
            r_end,
            interval,
        } = inst
        else {
            return Ok(false);
        };
        let region = match self.region_cache.get(&pc_s) {
            Some(Some(r)) => Rc::clone(r),
            Some(None) => return Ok(false),
            None => match self.find_region(pc_s, rc)? {
                Some(r) => {
                    let r = Rc::new(r);
                    self.region_cache.insert(pc_s, Some(Rc::clone(&r)));
                    r
                }
                None => {
                    self.region_cache.insert(pc_s, None);
                    return Ok(false);
                }
            },
        };
        if region.lines.len() > self.clusters.len() {
            // Region does not fit in this ring: execute sequentially
            // (paper §4.4.3).
            return Ok(false);
        }

        let rc0 = self.reg(rc.into()) as i32;
        let step = self.reg(r_step.into()) as i32;
        let end = self.reg(r_end.into()) as i32;
        if step == 0 {
            return Err(SimError::InvalidSimtRegion {
                reason: format!("simt_s at {pc_s:#x} has zero step"),
            });
        }
        if step < 0 && rc0.wrapping_add(step) < end {
            return Err(SimError::InvalidSimtRegion {
                reason: format!("simt_s at {pc_s:#x}: negative step never reaches r_end"),
            });
        }

        // Pipelined execution is now committed. The observer sees the same
        // architectural stream the sequential marker path would retire:
        // simt_s once per region entry (rc passes through unchanged) …
        self.probes
            .observer()
            .retire(pc_s, Some((rc.into(), rc0 as u32)), None);

        // Spawn time: simt_s needs its operands and a loaded first stage.
        let entry_slot = self.stage_slot(0, pc_s, &region);
        let mut t0 = self.time_floor;
        for src in [rc, r_step, r_end] {
            t0 = t0.max(self.lanes.ready_at(src.into(), entry_slot, &self.geom));
        }
        let (stage_ready, fetched) = self.load_region(&region, t0, shared);
        let t0 = (t0 + 1).max(stage_ready[0]);

        // Per-PE issue-occupancy state across instances, plus per-station
        // busy/exec accumulators for the cycle-accounting profiler (the
        // pro-rata weights the region's commit-clock span is split by).
        let stages = region.lines.len();
        let mut slot_busy = vec![0u64; region.body.len()];
        let mut busy = vec![0u64; region.body.len()];
        let mut execs = vec![0u64; region.body.len()];
        let mut total_body_commits = 0u64;
        let mut end_time = t0;
        let final_lanes: LaneFile;

        let thread = self.thread_id as u32;
        let mut i: u64 = 0;
        loop {
            let rc_i = rc0.wrapping_add((i as i32).wrapping_mul(step));
            let spawn = t0 + i * interval as u64;
            self.probes.emit(|| Event {
                cycle: spawn,
                thread,
                track: Track::Control,
                kind: EventKind::SimtSpawn {
                    instance: i,
                    rc: rc_i as u32,
                },
            });

            // Per-instance register lanes: the register file as of simt_s
            // with the control register advanced (paper §5.4).
            let mut lanes = self.lanes.clone();
            lanes.set_value(rc.into(), rc_i as u32);
            lanes.retime_all(spawn, entry_slot);

            let exit = self.run_instance(
                &region,
                &mut lanes,
                spawn,
                &stage_ready,
                &mut slot_busy,
                &mut busy,
                &mut execs,
                &mut total_body_commits,
                shared,
            )?;
            end_time = end_time.max(exit);

            let rc_next = rc_i.wrapping_add(step);
            // … and simt_e once per instance, writing the advanced rc.
            self.probes
                .observer()
                .retire(region.pc_e, Some((rc.into(), rc_next as u32)), None);
            let done = rc_next >= end;
            if done {
                lanes.set_value(rc.into(), rc_next as u32);
                final_lanes = lanes;
                break;
            }
            i += 1;
            if end_time > self.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
        }
        let instances = i + 1;

        // Only the last instance's register lanes propagate onward
        // (simt_e semantics, §5.4).
        let mut lanes = final_lanes;
        let exit_slot = self.stage_slot(stages - 1, region.pc_e, &region);
        lanes.retime_all(end_time, exit_slot);
        self.lanes = lanes;

        // Retirement: body commits plus the two markers. Decode activity
        // was already counted when the region's lines populated their
        // station arenas; commits beyond the first (fetched) pass are
        // datapath reuse.
        let commits = total_body_commits + 2;
        let prev_clock = self.commit.last_commit();
        self.commit.advance_to(end_time);
        self.commit.add_bulk(commits);
        let first_cost = if fetched {
            region.body.len() as u64 + 2
        } else {
            0
        };
        self.stats.activity.reuse_commits += commits.saturating_sub(first_cost);
        self.probes.emit(|| Event {
            cycle: end_time,
            thread,
            track: Track::Control,
            kind: EventKind::SimtRegion {
                pc_s: region.pc_s,
                pc_e: region.pc_e,
                instances,
            },
        });
        let line_bytes = self.config.line_bytes();
        self.probes.profiler().region(|| {
            let stations = region
                .body
                .iter()
                .enumerate()
                .map(|(k, &(pc, st))| {
                    let line = pc & !(line_bytes - 1);
                    RegionStation {
                        pc,
                        cluster: (line - region.lines[0]) / line_bytes,
                        slot: (pc - line) / INST_BYTES,
                        busy: busy[k],
                        execs: execs[k],
                        is_mem: st.is_mem,
                    }
                })
                .collect();
            let last = region.lines.len() - 1;
            RegionSample {
                pc_s: region.pc_s,
                pc_e: region.pc_e,
                s_station: (0, (region.pc_s - region.lines[0]) / INST_BYTES),
                e_station: (last as u32, (region.pc_e - region.lines[last]) / INST_BYTES),
                span: end_time.saturating_sub(prev_clock),
                fetched,
                stations,
            }
        });

        self.pc = region.pc_e.wrapping_add(INST_BYTES);
        self.time_floor = end_time;
        self.mem_floor = self.mem_floor.max(end_time);
        debug_assert!(instances >= 1);
        Ok(true)
    }

    /// Locates and validates the region, lowering its body to stations.
    /// `Ok(None)` means "fall back to sequential execution". Both outcomes
    /// are cached in [`RingSim::region_cache`] by the caller; errors are
    /// program bugs and propagate uncached.
    fn find_region(&self, pc_s: u32, rc: Reg) -> Result<Option<CachedRegion>, SimError> {
        let mut body: Vec<(u32, Inst)> = Vec::new();
        let mut pc = pc_s.wrapping_add(INST_BYTES);
        let pc_e = loop {
            let Some(inst) = self.program.decode_at(pc) else {
                // Ran off the text segment without a matching simt_e.
                return Err(SimError::InvalidSimtRegion {
                    reason: format!("simt_s at {pc_s:#x} has no matching simt_e"),
                });
            };
            match inst {
                Inst::SimtE { l_offset, .. } => {
                    if pc.wrapping_add(l_offset as u32) == pc_s {
                        break pc;
                    }
                    // A simt_e for some other region: malformed nesting.
                    return Ok(None);
                }
                Inst::SimtS { .. } => return Ok(None), // nested region
                Inst::Jalr { .. } | Inst::Ecall | Inst::Ebreak | Inst::Fence => return Ok(None),
                Inst::Jal { offset, .. } | Inst::Branch { offset, .. } if offset < 0 => {
                    // Backward control flow inside the region (§4.4.3).
                    return Ok(None);
                }
                Inst::Jal { offset, .. } | Inst::Branch { offset, .. } => {
                    // Forward targets must stay inside the region.
                    let target = pc.wrapping_add(offset as u32);
                    if target <= pc_s {
                        return Ok(None);
                    }
                    body.push((pc, inst));
                }
                other => {
                    // The body must not write the control register — the
                    // hardware owns rc during pipelining (§5.4).
                    if other.dest() == Some(ArchReg::from(rc)) {
                        return Ok(None);
                    }
                    body.push((pc, inst));
                }
            }
            pc = pc.wrapping_add(INST_BYTES);
            if pc.wrapping_sub(pc_s) > 64 * INST_BYTES * 8 {
                return Err(SimError::InvalidSimtRegion {
                    reason: format!("simt_s at {pc_s:#x}: region exceeds scan limit"),
                });
            }
        };
        // Re-check forward branch targets now that pc_e is known.
        for &(bpc, binst) in &body {
            if let Some(target) = binst.static_target(bpc) {
                if target > pc_e {
                    return Ok(None);
                }
            }
        }
        let line_bytes = self.config.line_bytes();
        let first_line = pc_s & !(line_bytes - 1);
        let last_line = pc_e & !(line_bytes - 1);
        let lines = (first_line..=last_line)
            .step_by(line_bytes as usize)
            .collect();
        let body = body
            .into_iter()
            .map(|(pc, inst)| (pc, Station::lower(inst, pc, |a| self.program.decode_at(a))))
            .collect();
        Ok(Some(CachedRegion {
            pc_s,
            pc_e,
            body,
            lines,
        }))
    }

    /// Global PE slot of address `pc` within stage `stage`.
    fn stage_slot(&self, stage: usize, pc: u32, region: &CachedRegion) -> usize {
        let line = region.lines[stage.min(region.lines.len() - 1)];
        let ppc = self.config.pes_per_cluster;
        // Stages occupy clusters 0..stages for the duration of the region.
        stage * ppc + ((pc - line) / INST_BYTES) as usize
    }

    /// Makes all region lines resident in consecutive clusters; returns
    /// per-stage decode-ready times and whether any fetching happened.
    fn load_region(
        &mut self,
        region: &CachedRegion,
        now: u64,
        shared: &mut SharedParts,
    ) -> (Vec<u64>, bool) {
        let already = region
            .lines
            .iter()
            .enumerate()
            .all(|(i, &l)| self.resident.get(l) == Some(i));
        if already {
            return (
                (0..region.lines.len())
                    .map(|i| self.clusters[i].decode_ready)
                    .collect(),
                false,
            );
        }
        self.resident.clear();
        let thread = self.thread_id as u32;
        let mut ready = Vec::with_capacity(region.lines.len());
        for (i, &line) in region.lines.iter().enumerate() {
            let free = self.clusters[i].last_commit;
            let (arrived, bus_wait) = shared.fetch_line(line, now, thread, self.probes.tracer());
            self.stall(Track::Bus, StallCause::Structural, arrived, bus_wait);
            let decode_ready = arrived.max(free) + self.config.line_load_cycles + 1;
            self.clusters[i].load_line(line, decode_ready);
            self.populate_stations(i, line);
            self.resident.insert(line, i);
            self.max_resident = self.max_resident.max(self.resident.len());
            self.stats.activity.line_fetches += 1;
            self.stats.activity.bus_beats += diag_mem::ILINE_BEATS;
            self.probes.emit(|| Event {
                cycle: arrived,
                thread,
                track: Track::Cluster(i as u32),
                kind: EventKind::LineFetch {
                    line,
                    prefetched: false,
                },
            });
            ready.push(decode_ready);
        }
        self.alloc_rr = region.lines.len() % self.clusters.len();
        self.last_line = None;
        (ready, true)
    }

    /// Runs one loop instance through the pipeline; returns its exit time
    /// (latest finish among its executed instructions).
    ///
    /// Instances overlap freely: a PE accepts the next instance as soon as
    /// its functional unit can issue again (pipelined units every cycle,
    /// unpipelined dividers after their full latency; memory PEs after the
    /// cluster LSU accepts the request). This realizes the paper's
    /// initiation model — "threads are only initiated once every
    /// `interval` cycles" (§5.4) with CPI → 1 per thread when nothing
    /// stalls (§4.4.1) — while cache misses back-pressure the pipeline
    /// through the bounded LSU queues (§7.2.1 "load congestion").
    #[allow(clippy::too_many_arguments)]
    fn run_instance(
        &mut self,
        region: &CachedRegion,
        lanes: &mut LaneFile,
        spawn: u64,
        stage_ready: &[u64],
        slot_busy: &mut [u64],
        busy: &mut [u64],
        execs: &mut [u64],
        commits: &mut u64,
        shared: &mut SharedParts,
    ) -> Result<u64, SimError> {
        let line_bytes = self.config.line_bytes();
        // Per-instance store-forwarding state, on the reused scratch lane
        // (cleared, not reallocated, between instances).
        let mut memlane = std::mem::replace(&mut self.simt_memlane, MemLane::new(0));
        let mut store_floor = spawn;
        let mut exit = spawn;
        // The instance's private PC starts after simt_s; forward branches
        // move it, nullifying skipped PEs (§4.4.3).
        let mut inst_pc = region.pc_s.wrapping_add(INST_BYTES);

        for (k, &(pc, st)) in region.body.iter().enumerate() {
            if pc != inst_pc {
                // Nullified by a taken forward branch: PE disabled.
                continue;
            }
            inst_pc = inst_pc.wrapping_add(INST_BYTES);
            let stage = (((pc & !(line_bytes - 1)) - region.lines[0]) / line_bytes) as usize;
            let slot = self.stage_slot(stage, pc, region);
            let mut start = spawn.max(stage_ready[stage]).max(slot_busy[k]);
            for src in st.srcs.iter() {
                start = start.max(lanes.ready_at(src, slot, &self.geom));
            }
            let result = self.eval_body_station(
                &st,
                pc,
                start,
                stage,
                slot,
                lanes,
                &mut inst_pc,
                &mut memlane,
                &mut store_floor,
                shared,
            );
            let (finish, write) = match result {
                Ok(out) => out,
                Err(e) => {
                    memlane.clear();
                    self.simt_memlane = memlane;
                    return Err(e);
                }
            };
            slot_busy[k] = start + occupancy(&st);
            if let Some((lane, value)) = write {
                lanes.write(lane, value, finish, slot);
                self.stats.activity.reg_writes += 1;
            }
            let cycles = (finish - start).max(1);
            self.stats.activity.pe_active_cycles += cycles;
            if st.uses_fpu {
                self.stats.activity.fpu_active_cycles += cycles;
                self.stats.activity.fp_ops += 1;
            } else if !st.is_mem {
                self.stats.activity.int_ops += 1;
            }
            *commits += 1;
            busy[k] += cycles;
            execs[k] += 1;
            exit = exit.max(finish);
        }
        memlane.clear();
        self.simt_memlane = memlane;
        Ok(exit)
    }

    /// Evaluates one body station of a SIMT instance. Returns
    /// `(finish_time, lane_write)`.
    #[allow(clippy::too_many_arguments)]
    fn eval_body_station(
        &mut self,
        st: &Station,
        pc: u32,
        start: u64,
        stage: usize,
        _slot: usize,
        lanes: &LaneFile,
        inst_pc: &mut u32,
        memlane: &mut MemLane,
        store_floor: &mut u64,
        shared: &mut SharedParts,
    ) -> Result<(u64, Option<(diag_isa::ArchReg, u32)>), SimError> {
        let latency = st.latency as u64;
        let dst = |value: u32| st.dest.map(|d| (d, value));
        let mut mem_addr: Option<u32> = None;
        let out = match st.kind {
            ExecKind::Const { value } => (start + 1, dst(value)),
            ExecKind::AluImm { op, rs1, imm } => {
                (start + latency, dst(exec::alu(op, lanes.value(rs1), imm)))
            }
            ExecKind::Alu { op, rs1, rs2 } => (
                start + latency,
                dst(exec::alu(op, lanes.value(rs1), lanes.value(rs2))),
            ),
            ExecKind::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                if exec::branch_taken(op, lanes.value(rs1), lanes.value(rs2)) {
                    *inst_pc = target;
                }
                (start + 1, None)
            }
            ExecKind::Jal { target, link } => {
                *inst_pc = target;
                (start + 1, dst(link))
            }
            ExecKind::Load { op, rs1, offset } => {
                let addr = lanes.value(rs1).wrapping_add(offset as u32);
                let size = op.size();
                if !addr.is_multiple_of(size) {
                    return Err(SimError::Misaligned { addr, size });
                }
                mem_addr = Some(addr);
                let ready = self.simt_mem(
                    stage,
                    addr,
                    size,
                    false,
                    start,
                    memlane,
                    store_floor,
                    shared,
                );
                self.stats.activity.loads += 1;
                let raw = shared.mem.read(addr, size);
                (ready, dst(exec::extend_load(op, raw)))
            }
            ExecKind::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = lanes.value(rs1).wrapping_add(offset as u32);
                let size = op.size();
                if !addr.is_multiple_of(size) {
                    return Err(SimError::Misaligned { addr, size });
                }
                mem_addr = Some(addr);
                shared.mem.write(addr, size, lanes.value(rs2));
                let ready =
                    self.simt_mem(stage, addr, size, true, start, memlane, store_floor, shared);
                self.stats.activity.stores += 1;
                (ready, None)
            }
            ExecKind::LoadFp { rs1, offset } => {
                let addr = lanes.value(rs1).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(SimError::Misaligned { addr, size: 4 });
                }
                mem_addr = Some(addr);
                let ready =
                    self.simt_mem(stage, addr, 4, false, start, memlane, store_floor, shared);
                self.stats.activity.loads += 1;
                (ready, dst(shared.mem.read_u32(addr)))
            }
            ExecKind::StoreFp { rs1, rs2, offset } => {
                let addr = lanes.value(rs1).wrapping_add(offset as u32);
                if !addr.is_multiple_of(4) {
                    return Err(SimError::Misaligned { addr, size: 4 });
                }
                mem_addr = Some(addr);
                shared.mem.write_u32(addr, lanes.value(rs2));
                let ready =
                    self.simt_mem(stage, addr, 4, true, start, memlane, store_floor, shared);
                self.stats.activity.stores += 1;
                (ready, None)
            }
            ExecKind::FpOp { op, rs1, rs2 } => (
                start + latency,
                dst(exec::fp_op(op, lanes.value(rs1), lanes.value(rs2))),
            ),
            ExecKind::FpFma { op, rs1, rs2, rs3 } => (
                start + latency,
                dst(exec::fp_fma(
                    op,
                    lanes.value(rs1),
                    lanes.value(rs2),
                    lanes.value(rs3),
                )),
            ),
            ExecKind::FpCmp { op, rs1, rs2 } => (
                start + latency,
                dst(exec::fp_cmp(op, lanes.value(rs1), lanes.value(rs2))),
            ),
            ExecKind::FpToInt { op, rs1 } => {
                (start + latency, dst(exec::fp_to_int(op, lanes.value(rs1))))
            }
            ExecKind::IntToFp { op, rs1 } => {
                (start + latency, dst(exec::int_to_fp(op, lanes.value(rs1))))
            }
            // find_region filtered everything else out.
            _ => {
                let other = st.inst;
                return Err(SimError::InvalidSimtRegion {
                    reason: format!("unexpected instruction {other:?} in validated SIMT body"),
                });
            }
        };
        self.probes.observer().retire(pc, out.1, mem_addr);
        Ok(out)
    }

    /// Memory access for a SIMT instance through its stage cluster's LSU.
    #[allow(clippy::too_many_arguments)]
    fn simt_mem(
        &mut self,
        stage: usize,
        addr: u32,
        size: u32,
        write: bool,
        start: u64,
        memlane: &mut MemLane,
        store_floor: &mut u64,
        shared: &mut SharedParts,
    ) -> u64 {
        let thread = self.thread_id as u32;
        let unit = stage as u32;
        if write {
            let want = start.max(*store_floor);
            let (issue, waited, id) = self.clusters[stage].lsu.issue_blocking_traced(
                want,
                true,
                self.probes.tracer(),
                thread,
                unit,
            );
            self.stall(Track::Lsu(unit), StallCause::Memory, issue, waited);
            *store_floor = issue;
            memlane.push_store(addr, size, 0, issue);
            memlane.trim();
            let out = shared
                .l1d
                .access_traced(addr, true, issue, self.probes.tracer(), thread);
            self.count_cache(&out);
            self.clusters[stage].line_buf_fill(addr & !63);
            let ready = issue + 1;
            self.clusters[stage].lsu.complete_at_traced(
                ready,
                id,
                self.probes.tracer(),
                thread,
                unit,
            );
            ready
        } else {
            let (want, forward) = match memlane.lookup(addr, size) {
                LaneLookup::HitFast { store_time, .. } => (start.max(store_time), true),
                LaneLookup::HitSlow { store_time, .. } | LaneLookup::Conflict { store_time } => {
                    (start.max(store_time + 1), false)
                }
                LaneLookup::Miss => (start, false),
            };
            let line = addr & !63;
            if !forward && self.clusters[stage].line_buf_hit(line) {
                self.stats.activity.memlane_hits += 1;
                return want + 1;
            }
            let (issue, waited, id) = self.clusters[stage].lsu.issue_blocking_traced(
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
                self.clusters[stage].line_buf_fill(line);
                out.ready_at
            };
            self.clusters[stage].lsu.complete_at_traced(
                ready,
                id,
                self.probes.tracer(),
                thread,
                unit,
            );
            ready
        }
    }
}
