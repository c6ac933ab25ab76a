//! The worklist fixpoint engine: abstract execution of a guest program
//! over the interval domain, one [`AbsState`] per basic-block entry.
//!
//! The engine reuses [`diag_analyze`]'s CFG (blocks, natural loops, trap
//! edges) and ascends to a fixpoint by joining successor-entry states,
//! widening at natural-loop heads once a head keeps changing. The
//! per-instruction transfer function mirrors the architectural
//! interpreter in `diag_sim::interp` — same wrapping adds, same SIMT
//! marker semantics, same branch comparisons — but over sets of values.

use diag_analyze::Cfg;
use diag_asm::Program;
use diag_isa::{ArchReg, BranchOp, ControlFlow, Inst, LoadOp, Reg, INST_BYTES, NUM_LANES};

use crate::domain::{self, Itv};

/// Joins at a natural-loop head after which further growth widens.
const WIDEN_AFTER: u32 = 3;
/// Joins at *any* block after which growth widens — a termination
/// backstop for irreducible flow the natural-loop detector misses.
const WIDEN_ALWAYS_AFTER: u32 = 24;

/// One abstract machine state: an interval per architectural lane
/// (32 integer + 32 FP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    lanes: Box<[Itv; NUM_LANES]>,
}

impl AbsState {
    /// All lanes unconstrained (except the hardwired zero lane).
    pub fn top() -> AbsState {
        let mut s = AbsState {
            lanes: Box::new([Itv::top(); NUM_LANES]),
        };
        s.lanes[0] = Itv::exact(0);
        s
    }

    /// The wave-entry state all machines establish for a thread: zeroed
    /// lanes except the thread id in `a0`, the thread count in `a1`, and
    /// a 64 KiB-strided stack pointer in `sp`.
    pub fn entry(threads: usize) -> AbsState {
        let threads = threads.max(1) as u32;
        let mut s = AbsState {
            lanes: Box::new([Itv::exact(0); NUM_LANES]),
        };
        s.set(Reg::A0.into(), Itv::range(0, threads - 1));
        s.set(Reg::A1.into(), Itv::exact(threads));
        let sp_lo = diag_asm::STACK_TOP - (threads - 1) * diag_asm::STACK_STRIDE;
        s.set(
            Reg::SP.into(),
            Itv {
                lo: sp_lo,
                hi: diag_asm::STACK_TOP,
                tz: 16,
            },
        );
        s
    }

    /// Reads a lane's interval.
    pub fn get(&self, r: ArchReg) -> Itv {
        self.lanes[r.index()]
    }

    /// Writes a lane's interval; the zero lane is hardwired.
    pub fn set(&mut self, r: ArchReg, v: Itv) {
        if !r.is_zero() {
            self.lanes[r.index()] = v;
        }
    }

    /// Lane-wise join.
    pub(crate) fn join(&self, other: &AbsState) -> AbsState {
        let mut out = self.clone();
        for i in 0..NUM_LANES {
            out.lanes[i] = out.lanes[i].join(&other.lanes[i]);
        }
        out
    }

    /// Lane-wise widening of `self` (old) against `next` (new join).
    fn widen(&self, next: &AbsState) -> AbsState {
        let mut out = self.clone();
        for i in 0..NUM_LANES {
            out.lanes[i] = out.lanes[i].widen(&next.lanes[i]);
        }
        out
    }
}

/// The abstract effect of one instruction: the interval written to its
/// destination lane (if any) and the interval of the memory address it
/// touches (if any).
#[derive(Debug, Clone, Copy)]
pub struct InstEffect {
    /// Destination lane and the interval of values written to it.
    pub dest: Option<(ArchReg, Itv)>,
    /// Effective-address interval for loads, stores, and FP memory ops.
    pub addr: Option<Itv>,
}

/// Applies one instruction to `st`, returning its [`InstEffect`]. The
/// branch decision itself is handled by the block-edge code (with operand
/// refinement); this function only models the dataflow.
pub fn transfer_inst(program: &Program, pc: u32, inst: &Inst, st: &mut AbsState) -> InstEffect {
    let mut addr: Option<Itv> = None;
    let dest: Option<(ArchReg, Itv)> = match *inst {
        Inst::Lui { rd, imm } => Some((rd.into(), Itv::exact(imm as u32))),
        Inst::Auipc { rd, imm } => Some((rd.into(), Itv::exact(pc.wrapping_add(imm as u32)))),
        Inst::OpImm { op, rd, rs1, imm } => {
            let a = st.get(rs1.into());
            let b = Itv::exact(imm as u32);
            Some((rd.into(), alu_itv(op, &a, &b)))
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            let a = st.get(rs1.into());
            let b = st.get(rs2.into());
            Some((rd.into(), alu_itv(op, &a, &b)))
        }
        Inst::Jal { rd, .. } => Some((rd.into(), Itv::exact(pc.wrapping_add(INST_BYTES)))),
        Inst::Jalr { rd, .. } => Some((rd.into(), Itv::exact(pc.wrapping_add(INST_BYTES)))),
        Inst::Branch { .. } | Inst::Fence | Inst::Ecall | Inst::Ebreak => None,
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
            ..
        } => {
            addr = Some(st.get(rs1.into()).add(&Itv::exact(offset as u32)));
            let loaded = match op {
                LoadOp::Lbu => Itv::range(0, 0xFF),
                LoadOp::Lhu => Itv::range(0, 0xFFFF),
                LoadOp::Lb | LoadOp::Lh | LoadOp::Lw => Itv::top(),
            };
            Some((rd.into(), loaded))
        }
        Inst::Store { rs1, offset, .. } => {
            addr = Some(st.get(rs1.into()).add(&Itv::exact(offset as u32)));
            None
        }
        Inst::Flw { rd, rs1, offset } => {
            addr = Some(st.get(rs1.into()).add(&Itv::exact(offset as u32)));
            Some((rd.into(), Itv::top()))
        }
        Inst::Fsw { rs1, offset, .. } => {
            addr = Some(st.get(rs1.into()).add(&Itv::exact(offset as u32)));
            None
        }
        Inst::FpOp { rd, .. } => Some((rd.into(), Itv::top())),
        Inst::FpFma { rd, .. } => Some((rd.into(), Itv::top())),
        Inst::FpCmp { rd, .. } => Some((rd.into(), Itv::range(0, 1))),
        Inst::FpToInt { rd, .. } => Some((rd.into(), Itv::top())),
        Inst::IntToFp { rd, .. } => Some((rd.into(), Itv::top())),
        Inst::SimtS { rc, .. } => {
            // Sequential marker semantics: rc passes through unchanged.
            Some((rc.into(), st.get(rc.into())))
        }
        Inst::SimtE { rc, l_offset, .. } => {
            let rc_new = simt_e_next(program, pc, l_offset, rc, st);
            Some((rc.into(), rc_new))
        }
    };
    if let Some((lane, v)) = dest {
        st.set(lane, v);
    }
    InstEffect {
        dest: dest.filter(|(lane, _)| !lane.is_zero()),
        addr,
    }
}

/// The interval `rc` takes after a `simt_e` at `pc` executes once: the
/// paired `simt_s`'s step lane added to the current counter. An unpaired
/// `simt_e` (a runtime error) degrades to top.
fn simt_e_next(program: &Program, pc: u32, l_offset: i32, rc: Reg, st: &AbsState) -> Itv {
    match program.decode_at(pc.wrapping_add(l_offset as u32)) {
        Some(Inst::SimtS { r_step, .. }) => st.get(rc.into()).add(&st.get(r_step.into())),
        _ => Itv::top(),
    }
}

/// Interval counterpart of [`diag_isa::exec::alu`].
fn alu_itv(op: diag_isa::AluOp, a: &Itv, b: &Itv) -> Itv {
    use diag_isa::AluOp;
    match op {
        AluOp::Add => a.add(b),
        AluOp::Sub => a.sub(b),
        AluOp::Sll => match b.is_singleton() {
            Some(s) => a.sll_by(s & 0x1F),
            // Left shift by an unknown amount can only add low zeros.
            None => Itv {
                lo: 0,
                hi: u32::MAX,
                tz: a.tz,
            },
        },
        AluOp::Srl => match b.is_singleton() {
            Some(s) => a.srl_by(s & 0x1F),
            None => Itv::top(),
        },
        AluOp::Sra => match b.is_singleton() {
            Some(s) => a.sra_by(s & 0x1F),
            None => Itv::top(),
        },
        AluOp::Slt => a.slt(b),
        AluOp::Sltu => a.sltu(b),
        AluOp::Xor => a.xor(b),
        AluOp::Or => a.or(b),
        AluOp::And => a.and(b),
        AluOp::Mul => a.mul(b),
        AluOp::Mulh | AluOp::Mulhsu => Itv::top(),
        AluOp::Mulhu => a.mulhu(b),
        AluOp::Div => a.div_signed(b),
        AluOp::Divu => a.divu(b),
        AluOp::Rem => a.rem_signed(b),
        AluOp::Remu => a.remu(b),
    }
}

/// The fixpoint result: per-block entry states plus engine statistics.
#[derive(Debug)]
pub struct Fixpoint {
    /// Entry state per CFG block; `None` means abstractly unreachable.
    pub entries: Vec<Option<AbsState>>,
    /// Total block transfers performed by the worklist.
    pub iterations: u64,
    /// Lane widenings applied at loop heads (and backstop joins).
    pub widenings: u64,
}

/// Runs the worklist to a fixpoint over `cfg`.
///
/// `trap_vector` mirrors the machine configuration: when set and inside
/// the text segment, the handler block is seeded with a conservative top
/// state (an asynchronous interrupt can arrive in any machine state, not
/// just via the `ebreak` edges the CFG records).
pub fn fixpoint(
    program: &Program,
    cfg: &Cfg,
    threads: usize,
    trap_vector: Option<u32>,
) -> Fixpoint {
    let n = cfg.blocks.len();
    let mut entries: Vec<Option<AbsState>> = vec![None; n];
    let mut joins = vec![0u32; n];
    let mut iterations = 0u64;
    let mut widenings = 0u64;
    if n == 0 {
        return Fixpoint {
            entries,
            iterations,
            widenings,
        };
    }

    let loop_heads: Vec<bool> = {
        let mut heads = vec![false; n];
        for l in cfg.natural_loops() {
            heads[l.head] = true;
        }
        heads
    };

    entries[cfg.entry] = Some(AbsState::entry(threads));
    let mut worklist = std::collections::VecDeque::from([cfg.entry]);
    let mut queued = vec![false; n];
    queued[cfg.entry] = true;
    if let Some(vector) = trap_vector {
        if let Some(tb) = cfg.block_at(vector) {
            entries[tb] = Some(AbsState::top());
            worklist.push_back(tb);
            queued[tb] = true;
        }
    }

    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        iterations += 1;
        let Some(state) = entries[b].clone() else {
            continue;
        };
        for (succ, out) in block_out_states(program, cfg, b, state) {
            let merged = match &entries[succ] {
                None => out,
                Some(old) => {
                    let joined = old.join(&out);
                    if joined == *old {
                        continue;
                    }
                    joins[succ] += 1;
                    if (loop_heads[succ] && joins[succ] >= WIDEN_AFTER)
                        || joins[succ] >= WIDEN_ALWAYS_AFTER
                    {
                        widenings += 1;
                        old.widen(&joined)
                    } else {
                        joined
                    }
                }
            };
            if entries[succ].as_ref() != Some(&merged) {
                entries[succ] = Some(merged);
                if !queued[succ] {
                    queued[succ] = true;
                    worklist.push_back(succ);
                }
            }
        }
    }

    Fixpoint {
        entries,
        iterations,
        widenings,
    }
}

/// Abstractly executes block `b` from `state` and returns the out-state
/// flowing along each CFG successor edge, with branch-operand refinement
/// applied per edge. Infeasible edges (refinement proves the predicate
/// can't hold) are dropped.
pub fn block_out_states(
    program: &Program,
    cfg: &Cfg,
    b: usize,
    mut state: AbsState,
) -> Vec<(usize, AbsState)> {
    let block = &cfg.blocks[b];
    let Some((&(last_pc, ref last), body)) = block.insts.split_last() else {
        return Vec::new();
    };
    for &(pc, ref inst) in body {
        transfer_inst(program, pc, inst, &mut state);
    }

    let mut out: Vec<(usize, AbsState)> = Vec::new();
    let push = |target: u32, st: AbsState, out: &mut Vec<(usize, AbsState)>| {
        if let Some(idx) = cfg.block_at(target) {
            out.push((idx, st));
        }
    };

    match last.control_flow() {
        ControlFlow::Branch { offset } => {
            let Inst::Branch { op, rs1, rs2, .. } = *last else {
                unreachable!("Branch control flow from a non-branch");
            };
            let a = state.get(rs1.into());
            let bi = state.get(rs2.into());
            let taken_target = last_pc.wrapping_add(offset as u32);
            let fall = last_pc.wrapping_add(INST_BYTES);
            // Branches write no lane; refine each edge independently.
            if let Some((ra, rb)) = refine(op, true, &a, &bi) {
                let mut st = state.clone();
                st.set(rs1.into(), ra);
                st.set(rs2.into(), rb);
                push(taken_target, st, &mut out);
            }
            if let Some((ra, rb)) = refine(op, false, &a, &bi) {
                let mut st = state.clone();
                st.set(rs1.into(), ra);
                st.set(rs2.into(), rb);
                push(fall, st, &mut out);
            }
        }
        ControlFlow::SimtLoop { l_offset } => {
            let Inst::SimtE { rc, .. } = *last else {
                unreachable!("SimtLoop control flow from a non-simt_e");
            };
            // The rc update happened in transfer below; model it here
            // since simt_e is the terminator.
            transfer_inst(program, last_pc, last, &mut state);
            let _ = rc;
            let back = last_pc
                .wrapping_add(l_offset as u32)
                .wrapping_add(INST_BYTES);
            push(back, state.clone(), &mut out);
            push(last_pc.wrapping_add(INST_BYTES), state, &mut out);
        }
        ControlFlow::Jump { .. } | ControlFlow::Next => {
            transfer_inst(program, last_pc, last, &mut state);
            let (fall, taken) = last.static_successors(last_pc);
            if let Some(t) = taken {
                push(t, state.clone(), &mut out);
            } else if let Some(f) = fall {
                push(f, state, &mut out);
            }
        }
        ControlFlow::Trap => {
            // `ebreak`: the CFG records an edge to the trap vector when
            // one is configured; lanes are preserved across the trap.
            transfer_inst(program, last_pc, last, &mut state);
            for &s in &block.succs {
                out.push((s, state.clone()));
            }
        }
        ControlFlow::Halt | ControlFlow::Indirect { .. } => {
            // Halt ends the thread; indirect flow is handled by the
            // degraded top-state mode in `lib.rs`, never here.
        }
    }
    out
}

/// Refines branch operands given the branch `op` resolved to `taken`.
/// `None` means the edge is infeasible.
fn refine(op: BranchOp, taken: bool, a: &Itv, b: &Itv) -> Option<(Itv, Itv)> {
    match (op, taken) {
        (BranchOp::Beq, true) | (BranchOp::Bne, false) => domain::refine_eq(a, b),
        (BranchOp::Beq, false) | (BranchOp::Bne, true) => domain::refine_ne(a, b),
        (BranchOp::Bltu, true) | (BranchOp::Bgeu, false) => domain::refine_ltu(a, b),
        (BranchOp::Bltu, false) | (BranchOp::Bgeu, true) => domain::refine_geu(a, b),
        (BranchOp::Blt, true) | (BranchOp::Bge, false) => domain::refine_lt(a, b),
        (BranchOp::Blt, false) | (BranchOp::Bge, true) => domain::refine_ge(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_asm::assemble;

    fn run(src: &str, threads: usize) -> (Program, Cfg, Fixpoint) {
        let program = assemble(src).unwrap();
        let cfg = Cfg::build(&program, None);
        let fix = fixpoint(&program, &cfg, threads, None);
        (program, cfg, fix)
    }

    #[test]
    fn straight_line_constants_are_exact() {
        let (program, cfg, fix) = run("li t0, 40\naddi t1, t0, 2\necall\n", 1);
        let entry = fix.entries[cfg.entry].clone().unwrap();
        let mut st = entry;
        for &(pc, ref inst) in &cfg.blocks[cfg.entry].insts {
            transfer_inst(&program, pc, inst, &mut st);
        }
        assert_eq!(st.get(Reg::T1.into()).is_singleton(), Some(42));
    }

    #[test]
    fn loop_counter_is_bounded_by_refinement() {
        // for (t0 = 0; t0 != 10; t0++) — at the loop exit t0 == 10.
        let (program, cfg, fix) = run(
            "li t0, 0\nloop:\naddi t0, t0, 1\nbne t0, a1, loop\nsw t0, 0(gp)\necall\n",
            10,
        );
        // Find the exit block (the one containing the store).
        let store_block = cfg
            .blocks
            .iter()
            .position(|b| b.insts.iter().any(|(_, i)| i.is_store()))
            .unwrap();
        let st = fix.entries[store_block].clone().unwrap();
        assert_eq!(st.get(Reg::T0.into()).is_singleton(), Some(10));
        let _ = program;
    }

    #[test]
    fn infeasible_edge_is_dropped() {
        // t0 is provably 3, so `beq t0, zero, dead` never goes to dead.
        let (_, cfg, fix) = run(
            "li t0, 3\nbeq t0, zero, dead\necall\ndead:\nli t1, 1\necall\n",
            1,
        );
        let dead: Vec<usize> = (0..cfg.blocks.len())
            .filter(|&i| fix.entries[i].is_none())
            .collect();
        assert_eq!(dead.len(), 1, "exactly the dead block lacks a state");
        assert_eq!(cfg.blocks[dead[0]].start, diag_asm::TEXT_BASE + 12);
    }

    #[test]
    fn entry_state_models_thread_parameters() {
        let st = AbsState::entry(4);
        assert_eq!(st.get(Reg::A0.into()).lo, 0);
        assert_eq!(st.get(Reg::A0.into()).hi, 3);
        assert_eq!(st.get(Reg::A1.into()).is_singleton(), Some(4));
        let sp = st.get(Reg::SP.into());
        assert!(sp.tz >= 4, "stack pointers are at least 16-byte aligned");
        assert_eq!(sp.hi, diag_asm::STACK_TOP);
    }
}
