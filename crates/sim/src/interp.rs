//! A pure architectural interpreter for RV32IMF + the DiAG SIMT markers.
//!
//! Every machine layers its timing model over [`evaluate`], which fires
//! one predecoded station: the out-of-order baseline and the in-order
//! reference through [`station_step`], DiAG's rings and pipelined SIMT
//! instances directly. So they agree architecturally with each other by
//! construction; [`arch_step`], which decodes every step, is the
//! independently written reference they are diffed against. The SIMT
//! markers execute with their sequential-loop semantics: `simt_s` is a
//! no-op and `simt_e` advances the control register by the paired
//! `simt_s`'s step register and loops while the bound holds — exactly the
//! behaviour DiAG's pipelined mode reproduces.

use diag_asm::Program;
use diag_isa::{
    exec, ArchReg, ExecKind, Inst, Reg, Station, StationSlot, StationTable, INST_BYTES, NUM_LANES,
};
use diag_mem::MainMemory;

use crate::machine::SimError;

/// Architectural register + PC state of one hardware thread.
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Unified register file (lanes 0..32 integer, 32..64 FP).
    pub regs: [u32; NUM_LANES],
    /// Current program counter.
    pub pc: u32,
    /// Whether the thread has halted (`ecall`, or `ebreak` without a trap
    /// vector).
    pub halted: bool,
}

impl ArchState {
    /// Creates thread `tid` of `threads` at `entry`, with the workspace's
    /// bare-metal convention: `a0` = thread id, `a1` = thread count, `sp`
    /// = private stack top.
    pub fn new_thread(entry: u32, tid: usize, threads: usize) -> ArchState {
        let mut regs = [0u32; NUM_LANES];
        regs[ArchReg::from(Reg::A0).index()] = tid as u32;
        regs[ArchReg::from(Reg::A1).index()] = threads as u32;
        regs[ArchReg::from(Reg::SP).index()] =
            diag_asm::STACK_TOP - (tid as u32) * diag_asm::STACK_STRIDE;
        ArchState {
            regs,
            pc: entry,
            halted: false,
        }
    }

    /// Reads a register lane (the `x0` lane always reads zero).
    pub fn reg(&self, lane: ArchReg) -> u32 {
        if lane.is_zero() {
            0
        } else {
            self.regs[lane.index()]
        }
    }

    fn set(&mut self, lane: ArchReg, value: u32) {
        if !lane.is_zero() {
            self.regs[lane.index()] = value;
        }
    }
}

/// Memory side effect of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// No memory access.
    None,
    /// A load of `size` bytes from `addr`.
    Load {
        /// Accessed address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// A store of `size` bytes to `addr`.
    Store {
        /// Accessed address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
}

impl MemEffect {
    /// The accessed address, if any.
    pub fn addr(self) -> Option<u32> {
        match self {
            MemEffect::Load { addr, .. } | MemEffect::Store { addr, .. } => Some(addr),
            MemEffect::None => None,
        }
    }
}

/// Everything a timing model needs to know about one executed instruction.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// The decoded instruction.
    pub inst: Inst,
    /// Its address.
    pub pc: u32,
    /// The architecturally-correct next PC.
    pub next_pc: u32,
    /// Whether this instruction redirected control flow (taken branch,
    /// jump, trap, or looping `simt_e`).
    pub redirected: bool,
    /// The destination lane written, with the value.
    pub dest: Option<(ArchReg, u32)>,
    /// Memory effect.
    pub mem: MemEffect,
}

/// Executes one instruction architecturally.
///
/// # Errors
///
/// Returns the same [`SimError`] conditions as the machines: illegal
/// instruction, PC out of range, misaligned access, or a malformed
/// `simt_e` pairing.
pub fn arch_step(
    state: &mut ArchState,
    program: &Program,
    mem: &mut MainMemory,
    trap_vector: Option<u32>,
) -> Result<StepInfo, SimError> {
    let pc = state.pc;
    let word = program.fetch(pc).ok_or(SimError::PcOutOfRange { pc })?;
    let inst =
        diag_isa::decode(word).map_err(|_| SimError::IllegalInstruction { addr: pc, word })?;
    let mut next_pc = pc.wrapping_add(INST_BYTES);
    let mut redirected = false;
    let mut dest: Option<(ArchReg, u32)> = None;
    let mut mem_effect = MemEffect::None;

    let v = |r: Reg, s: &ArchState| s.reg(r.into());

    match inst {
        Inst::Lui { rd, imm } => dest = Some((rd.into(), imm as u32)),
        Inst::Auipc { rd, imm } => dest = Some((rd.into(), pc.wrapping_add(imm as u32))),
        Inst::OpImm { op, rd, rs1, imm } => {
            dest = Some((rd.into(), exec::alu(op, v(rs1, state), imm as u32)))
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            dest = Some((rd.into(), exec::alu(op, v(rs1, state), v(rs2, state))))
        }
        Inst::Jal { rd, offset } => {
            dest = Some((rd.into(), pc.wrapping_add(INST_BYTES)));
            next_pc = pc.wrapping_add(offset as u32);
            redirected = true;
        }
        Inst::Jalr { rd, rs1, offset } => {
            let target = v(rs1, state).wrapping_add(offset as u32) & !1;
            dest = Some((rd.into(), pc.wrapping_add(INST_BYTES)));
            next_pc = target;
            redirected = true;
        }
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            if exec::branch_taken(op, v(rs1, state), v(rs2, state)) {
                next_pc = pc.wrapping_add(offset as u32);
                redirected = true;
            }
        }
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let addr = v(rs1, state).wrapping_add(offset as u32);
            let size = op.size();
            if addr % size != 0 {
                return Err(SimError::Misaligned { addr, size });
            }
            let raw = mem.read(addr, size);
            dest = Some((rd.into(), exec::extend_load(op, raw)));
            mem_effect = MemEffect::Load { addr, size };
        }
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let addr = v(rs1, state).wrapping_add(offset as u32);
            let size = op.size();
            if addr % size != 0 {
                return Err(SimError::Misaligned { addr, size });
            }
            mem.write(addr, size, v(rs2, state));
            mem_effect = MemEffect::Store { addr, size };
        }
        Inst::Flw { rd, rs1, offset } => {
            let addr = v(rs1, state).wrapping_add(offset as u32);
            if addr % 4 != 0 {
                return Err(SimError::Misaligned { addr, size: 4 });
            }
            dest = Some((rd.into(), mem.read_u32(addr)));
            mem_effect = MemEffect::Load { addr, size: 4 };
        }
        Inst::Fsw { rs1, rs2, offset } => {
            let addr = v(rs1, state).wrapping_add(offset as u32);
            if addr % 4 != 0 {
                return Err(SimError::Misaligned { addr, size: 4 });
            }
            mem.write_u32(addr, state.reg(rs2.into()));
            mem_effect = MemEffect::Store { addr, size: 4 };
        }
        Inst::FpOp { op, rd, rs1, rs2 } => {
            dest = Some((
                rd.into(),
                exec::fp_op(op, state.reg(rs1.into()), state.reg(rs2.into())),
            ))
        }
        Inst::FpFma {
            op,
            rd,
            rs1,
            rs2,
            rs3,
        } => {
            dest = Some((
                rd.into(),
                exec::fp_fma(
                    op,
                    state.reg(rs1.into()),
                    state.reg(rs2.into()),
                    state.reg(rs3.into()),
                ),
            ))
        }
        Inst::FpCmp { op, rd, rs1, rs2 } => {
            dest = Some((
                rd.into(),
                exec::fp_cmp(op, state.reg(rs1.into()), state.reg(rs2.into())),
            ))
        }
        Inst::FpToInt { op, rd, rs1 } => {
            dest = Some((rd.into(), exec::fp_to_int(op, state.reg(rs1.into()))))
        }
        Inst::IntToFp { op, rd, rs1 } => {
            dest = Some((rd.into(), exec::int_to_fp(op, v(rs1, state))))
        }
        Inst::Fence => {}
        Inst::Ecall => state.halted = true,
        Inst::Ebreak => match trap_vector {
            Some(vector) => {
                next_pc = vector;
                redirected = true;
            }
            None => state.halted = true,
        },
        Inst::SimtS { rc, .. } => {
            // Sequential marker semantics: rc passes through.
            dest = Some((rc.into(), v(rc, state)));
        }
        Inst::SimtE {
            rc,
            r_end,
            l_offset,
        } => {
            let start_pc = pc.wrapping_add(l_offset as u32);
            let step = match program.decode_at(start_pc) {
                Some(Inst::SimtS { r_step, .. }) => v(r_step, state),
                other => {
                    return Err(SimError::InvalidSimtRegion {
                        reason: format!(
                            "simt_e at {pc:#x} points to {other:?} at {start_pc:#x}, not simt_s"
                        ),
                    })
                }
            };
            let rc_new = v(rc, state).wrapping_add(step);
            dest = Some((rc.into(), rc_new));
            if (rc_new as i32) < (v(r_end, state) as i32) {
                next_pc = start_pc.wrapping_add(INST_BYTES);
                redirected = true;
            }
        }
    }

    if let Some((lane, value)) = dest {
        state.set(lane, value);
    }
    state.pc = next_pc;
    Ok(StepInfo {
        inst,
        pc,
        next_pc,
        redirected,
        dest,
        mem: mem_effect,
    })
}

/// What firing one station did, with no timing: the architectural half of
/// an instruction, which every engine shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    /// The destination lane written, with the value. A station carries no
    /// `x0` writeback, so only a SIMT marker's control register can name
    /// the zero lane here.
    pub dest: Option<(ArchReg, u32)>,
    /// The architecturally-correct next PC.
    pub next_pc: u32,
    /// Whether control flow was redirected (taken branch, jump, trap, or
    /// looping `simt_e`).
    pub redirected: bool,
    /// The memory access, already applied to main memory.
    pub mem: MemEffect,
    /// Whether the thread halted (`ecall`, or `ebreak` without a trap
    /// vector).
    pub halted: bool,
}

impl Effect {
    fn jump(&mut self, target: u32) {
        self.next_pc = target;
        self.redirected = true;
    }
}

/// Fires the predecoded station `st` at `pc`: reads its source lanes
/// through `reg` (which must read `x0` as zero), performs its load or store
/// on `mem`, and reports what it did. This is the one firing rule of the
/// workspace, as the paper's PE is one station plus a functional unit
/// (§4.1–4.2): the baselines call it through [`station_step`], DiAG's ring
/// and its pipelined SIMT instances call it directly, and each engine adds
/// only its own timing. [`arch_step`] stays the independently written
/// reference it is diffed against.
///
/// `peek` resolves the instruction at another text address; it is only
/// consulted to name what a `simt_e` points at when that is not a `simt_s`.
/// Always inlined, so each engine's hot loop reads its register lanes in
/// place.
///
/// # Errors
///
/// [`SimError::Misaligned`] for a misaligned load or store, and
/// [`SimError::InvalidSimtRegion`] for a `simt_e` whose pair is not a
/// `simt_s`.
#[inline(always)]
pub fn evaluate(
    st: &Station,
    pc: u32,
    reg: impl Fn(ArchReg) -> u32,
    mem: &mut MainMemory,
    trap_vector: Option<u32>,
    peek: impl FnOnce(u32) -> Option<Inst>,
) -> Result<Effect, SimError> {
    let aligned = |addr: u32, size: u32| {
        if addr.is_multiple_of(size) {
            Ok(addr)
        } else {
            Err(SimError::Misaligned { addr, size })
        }
    };
    let dst = |value: u32| st.dest.map(|d| (d, value));
    let mut eff = Effect {
        dest: None,
        next_pc: pc.wrapping_add(INST_BYTES),
        redirected: false,
        mem: MemEffect::None,
        halted: false,
    };
    match st.kind {
        ExecKind::Const { value } => eff.dest = dst(value),
        ExecKind::AluImm { op, rs1, imm } => eff.dest = dst(exec::alu(op, reg(rs1), imm)),
        ExecKind::Alu { op, rs1, rs2 } => eff.dest = dst(exec::alu(op, reg(rs1), reg(rs2))),
        ExecKind::Jal { target, link } => {
            eff.dest = dst(link);
            eff.jump(target);
        }
        ExecKind::Jalr { rs1, offset, link } => {
            eff.dest = dst(link);
            eff.jump(reg(rs1).wrapping_add(offset as u32) & !1);
        }
        ExecKind::Branch {
            op,
            rs1,
            rs2,
            target,
        } => {
            if exec::branch_taken(op, reg(rs1), reg(rs2)) {
                eff.jump(target);
            }
        }
        ExecKind::Load { op, rs1, offset } => {
            let size = op.size();
            let addr = aligned(reg(rs1).wrapping_add(offset as u32), size)?;
            eff.dest = dst(exec::extend_load(op, mem.read(addr, size)));
            eff.mem = MemEffect::Load { addr, size };
        }
        ExecKind::Store {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let size = op.size();
            let addr = aligned(reg(rs1).wrapping_add(offset as u32), size)?;
            mem.write(addr, size, reg(rs2));
            eff.mem = MemEffect::Store { addr, size };
        }
        ExecKind::LoadFp { rs1, offset } => {
            let addr = aligned(reg(rs1).wrapping_add(offset as u32), 4)?;
            eff.dest = dst(mem.read_u32(addr));
            eff.mem = MemEffect::Load { addr, size: 4 };
        }
        ExecKind::StoreFp { rs1, rs2, offset } => {
            let addr = aligned(reg(rs1).wrapping_add(offset as u32), 4)?;
            mem.write_u32(addr, reg(rs2));
            eff.mem = MemEffect::Store { addr, size: 4 };
        }
        ExecKind::FpOp { op, rs1, rs2 } => eff.dest = dst(exec::fp_op(op, reg(rs1), reg(rs2))),
        ExecKind::FpFma { op, rs1, rs2, rs3 } => {
            eff.dest = dst(exec::fp_fma(op, reg(rs1), reg(rs2), reg(rs3)))
        }
        ExecKind::FpCmp { op, rs1, rs2 } => eff.dest = dst(exec::fp_cmp(op, reg(rs1), reg(rs2))),
        ExecKind::FpToInt { op, rs1 } => eff.dest = dst(exec::fp_to_int(op, reg(rs1))),
        ExecKind::IntToFp { op, rs1 } => eff.dest = dst(exec::int_to_fp(op, reg(rs1))),
        ExecKind::Fence => {}
        ExecKind::Ecall => eff.halted = true,
        ExecKind::Ebreak => match trap_vector {
            Some(vector) => eff.jump(vector),
            None => eff.halted = true,
        },
        // Sequential marker semantics: rc passes through.
        ExecKind::SimtS { rc } => eff.dest = Some((rc, reg(rc))),
        ExecKind::SimtE {
            rc,
            r_end,
            start_pc,
            step,
        } => {
            let Some(r_step) = step else {
                let other = peek(start_pc);
                return Err(SimError::InvalidSimtRegion {
                    reason: format!(
                        "simt_e at {pc:#x} points to {other:?} at {start_pc:#x}, not simt_s"
                    ),
                });
            };
            let rc_new = reg(rc).wrapping_add(reg(r_step));
            eff.dest = Some((rc, rc_new));
            if (rc_new as i32) < (reg(r_end) as i32) {
                eff.jump(start_pc.wrapping_add(INST_BYTES));
            }
        }
    }
    Ok(eff)
}

/// Executes one instruction architecturally from a predecoded
/// [`StationTable`] — the allocation- and decode-free counterpart of
/// [`arch_step`], used by the baseline machines' hot loops: a station
/// lookup, [`evaluate`], and the [`ArchState`] update.
///
/// The reported [`StepInfo::dest`] filters `x0` destinations (a station
/// carries no `x0` writeback); every consumer of `dest` filters the zero
/// lane anyway, so the two step functions are observably identical.
///
/// # Errors
///
/// Returns the same [`SimError`] conditions as [`arch_step`].
pub fn station_step(
    state: &mut ArchState,
    stations: &StationTable,
    mem: &mut MainMemory,
    trap_vector: Option<u32>,
) -> Result<StepInfo, SimError> {
    let pc = state.pc;
    let st = match *stations.get(pc) {
        StationSlot::Ready(st) => st,
        StationSlot::Illegal { word } => {
            return Err(SimError::IllegalInstruction { addr: pc, word })
        }
        StationSlot::Empty => return Err(SimError::PcOutOfRange { pc }),
    };
    let eff = evaluate(
        &st,
        pc,
        |lane| state.reg(lane),
        mem,
        trap_vector,
        |a| match stations.get(a) {
            StationSlot::Ready(s) => Some(s.inst),
            _ => None,
        },
    )?;
    if let Some((lane, value)) = eff.dest {
        state.set(lane, value);
    }
    state.pc = eff.next_pc;
    state.halted |= eff.halted;
    Ok(StepInfo {
        inst: st.inst,
        pc,
        next_pc: eff.next_pc,
        redirected: eff.redirected,
        dest: eff.dest,
        mem: eff.mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_asm::assemble;

    fn run(src: &str) -> (ArchState, MainMemory, u64) {
        let program = assemble(src).unwrap();
        let mut mem = MainMemory::with_program(&program);
        let mut state = ArchState::new_thread(program.entry(), 0, 1);
        let mut steps = 0u64;
        while !state.halted {
            arch_step(&mut state, &program, &mut mem, None).unwrap();
            steps += 1;
            assert!(steps < 1_000_000, "runaway program");
        }
        (state, mem, steps)
    }

    #[test]
    fn fibonacci() {
        let (_, mem, _) = run(r#"
                li t0, 0
                li t1, 1
                li t2, 10
            loop:
                add t3, t0, t1
                mv t0, t1
                mv t1, t3
                addi t2, t2, -1
                bnez t2, loop
                sw t1, 0(zero)
                ecall
            "#);
        assert_eq!(mem.read_u32(0), 89);
    }

    #[test]
    fn function_call_and_return() {
        let (_, mem, _) = run(r#"
                li a0, 20
                call double
                sw a0, 0(zero)
                ecall
            double:
                add a0, a0, a0
                ret
            "#);
        assert_eq!(mem.read_u32(0), 40);
    }

    #[test]
    fn simt_markers_as_sequential_loop() {
        let (state, mem, _) = run(r#"
                li   t0, 0
                li   t1, 2
                li   t2, 10
                li   a2, 0
            head:
                simt_s t0, t1, t2, 1
                slli  t3, t0, 2
                sw    t0, 0(t3)
                simt_e t0, t2, head
                ecall
            "#);
        // Body executes for t0 = 0, 2, 4, 6, 8.
        for i in [0u32, 2, 4, 6, 8] {
            assert_eq!(mem.read_u32(4 * i), i);
        }
        assert_eq!(state.reg(Reg::T0.into()), 10);
    }

    #[test]
    fn thread_state_initialization() {
        let s = ArchState::new_thread(0x1000, 3, 8);
        assert_eq!(s.reg(Reg::A0.into()), 3);
        assert_eq!(s.reg(Reg::A1.into()), 8);
        assert_eq!(
            s.reg(Reg::SP.into()),
            diag_asm::STACK_TOP - 3 * diag_asm::STACK_STRIDE
        );
        assert_eq!(s.pc, 0x1000);
    }

    #[test]
    fn x0_writes_discarded() {
        let (state, _, _) = run("li t0, 5\nadd zero, t0, t0\necall\n");
        assert_eq!(state.reg(Reg::ZERO.into()), 0);
    }
}
