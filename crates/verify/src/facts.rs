//! Per-PC facts derived from the fixpoint, and loop trip-count bounds.
//!
//! Each fact carries a three-valued verdict: `Proved` (holds on every
//! execution), `Refuted` (fails on every execution that reaches the PC),
//! or `Unknown` (the abstraction is too coarse to decide). A `Refuted`
//! memory fact is the static mirror of a simulator trap — the
//! `verify_oob` example demonstrates the two agreeing on the same PC.

use diag_analyze::Cfg;
use diag_asm::{Program, DATA_BASE, STACK_TOP};
use diag_isa::{ArchReg, BranchOp, Inst, INST_BYTES};

use crate::absint::{block_out_states, AbsState, Fixpoint, InstEffect};
use crate::domain::Itv;

/// Three-valued outcome of a verification query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds on every execution reaching the PC.
    Proved,
    /// The property fails on every execution reaching the PC.
    Refuted,
    /// The interval abstraction cannot decide the property.
    Unknown,
}

impl Verdict {
    /// Lower-case label used by both report formats.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Refuted => "refuted",
            Verdict::Unknown => "unknown",
        }
    }
}

/// The property a [`Fact`] speaks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// Every address this access can compute stays inside the data
    /// window `[DATA_BASE, STACK_TOP)`.
    MemBounds,
    /// Every address this access can compute is naturally aligned for
    /// its size.
    MemAlign,
    /// The static control-transfer target lands inside the text segment.
    BranchTarget,
    /// The natural loop headed here has derivable trip-count bounds.
    TripCount,
    /// The station computes the same value on every execution.
    ConstFold,
    /// The block starting here is never entered.
    Unreachable,
}

impl FactKind {
    /// Stable label used by both report formats.
    pub fn name(&self) -> &'static str {
        match self {
            FactKind::MemBounds => "mem-bounds",
            FactKind::MemAlign => "mem-align",
            FactKind::BranchTarget => "branch-target",
            FactKind::TripCount => "trip-count",
            FactKind::ConstFold => "const-fold",
            FactKind::Unreachable => "unreachable",
        }
    }

    /// Ordering code for the deterministic (pc, kind) fact sort.
    pub fn code(&self) -> u8 {
        match self {
            FactKind::MemBounds => 0,
            FactKind::MemAlign => 1,
            FactKind::BranchTarget => 2,
            FactKind::TripCount => 3,
            FactKind::ConstFold => 4,
            FactKind::Unreachable => 5,
        }
    }
}

/// One verification result, anchored to a program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// The station's address.
    pub pc: u32,
    /// Which property the verdict speaks about.
    pub kind: FactKind,
    /// The three-valued outcome.
    pub verdict: Verdict,
    /// The witness interval backing the verdict (the address interval
    /// for memory facts, the value for const-fold, the trip bounds for
    /// loops).
    pub witness: Option<Itv>,
    /// Human-readable elaboration.
    pub detail: String,
}

/// Trip-count bounds for one natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopTrip {
    /// Address of the loop-header block.
    pub head_pc: u32,
    /// Address of the back-edge terminator.
    pub latch_pc: u32,
    /// Terminator of the unique loop preheader, when the loop has one
    /// with a single out-edge — its execution count equals the number of
    /// times the loop is entered, which the soundness harness uses to
    /// cross-check `iterations` against observed execution counts.
    pub entry_pc: Option<u32>,
    /// Inclusive bounds on body executions per loop entry, when
    /// derivable.
    pub iterations: Option<(u64, u64)>,
}

/// Appends the memory / branch-target / const-fold facts for one
/// instruction, given its abstract effect.
pub(crate) fn inst_facts(
    program: &Program,
    pc: u32,
    inst: &Inst,
    effect: &InstEffect,
    out: &mut Vec<Fact>,
) {
    if let (Some(size), Some(addr)) = (inst.mem_size(), effect.addr) {
        out.push(mem_bounds_fact(pc, size, &addr));
        out.push(mem_align_fact(pc, size, &addr));
    }

    match inst {
        Inst::Branch { offset, .. } | Inst::Jal { offset, .. } => {
            let target = pc.wrapping_add(*offset as u32);
            let (verdict, detail) = if program.contains_text_addr(target) {
                (Verdict::Proved, format!("target {target:#x} is in text"))
            } else {
                (
                    Verdict::Refuted,
                    format!("target {target:#x} is outside text"),
                )
            };
            out.push(Fact {
                pc,
                kind: FactKind::BranchTarget,
                verdict,
                witness: Some(Itv::exact(target)),
                detail,
            });
        }
        Inst::Jalr { .. } => out.push(Fact {
            pc,
            kind: FactKind::BranchTarget,
            verdict: Verdict::Unknown,
            witness: None,
            detail: "indirect target".to_string(),
        }),
        Inst::SimtE { l_offset, .. } => {
            let target = pc.wrapping_add(*l_offset as u32).wrapping_add(INST_BYTES);
            let (verdict, detail) = if program.contains_text_addr(target) {
                (
                    Verdict::Proved,
                    format!("loop-back target {target:#x} is in text"),
                )
            } else {
                (
                    Verdict::Refuted,
                    format!("loop-back target {target:#x} is outside text"),
                )
            };
            out.push(Fact {
                pc,
                kind: FactKind::BranchTarget,
                verdict,
                witness: Some(Itv::exact(target)),
                detail,
            });
        }
        _ => {}
    }

    // Constant-foldable: the destination is pinned to a single value
    // even though the station reads at least one live register. (Pure
    // immediate producers like `lui` are constant by construction and
    // not worth reporting.)
    if !matches!(inst, Inst::SimtS { .. } | Inst::SimtE { .. }) {
        if let Some((_, itv)) = effect.dest {
            if let Some(v) = itv.is_singleton() {
                let reads_reg = inst.sources().iter().any(|r: ArchReg| !r.is_zero());
                if reads_reg {
                    out.push(Fact {
                        pc,
                        kind: FactKind::ConstFold,
                        verdict: Verdict::Proved,
                        witness: Some(Itv::exact(v)),
                        detail: format!("always computes {v:#x}"),
                    });
                }
            }
        }
    }
}

/// The in-bounds fact for a `size`-byte access at abstract address
/// `addr`: the access window `[a, a+size)` must stay inside
/// `[DATA_BASE, STACK_TOP)`.
fn mem_bounds_fact(pc: u32, size: u32, addr: &Itv) -> Fact {
    let last_ok = STACK_TOP - size;
    let verdict = if addr.lo >= DATA_BASE && addr.hi <= last_ok {
        Verdict::Proved
    } else if addr.hi < DATA_BASE || addr.lo > last_ok {
        Verdict::Refuted
    } else {
        Verdict::Unknown
    };
    Fact {
        pc,
        kind: FactKind::MemBounds,
        verdict,
        witness: Some(*addr),
        detail: format!(
            "{size}-byte access, addr in [{:#x}, {:#x}], window [{DATA_BASE:#x}, {STACK_TOP:#x})",
            addr.lo, addr.hi
        ),
    }
}

/// The natural-alignment fact for a `size`-byte access.
fn mem_align_fact(pc: u32, size: u32, addr: &Itv) -> Fact {
    let log2 = size.trailing_zeros() as u8;
    // No multiple of `size` lies in [lo, hi] when rounding lo up
    // overshoots hi.
    let first_aligned = (addr.lo as u64).div_ceil(size as u64) * size as u64;
    let verdict = if addr.tz >= log2 {
        Verdict::Proved
    } else if first_aligned > addr.hi as u64 {
        Verdict::Refuted
    } else {
        Verdict::Unknown
    };
    Fact {
        pc,
        kind: FactKind::MemAlign,
        verdict,
        witness: Some(*addr),
        detail: format!(
            "{size}-byte access, addr in [{:#x}, {:#x}] with 2^{} alignment known",
            addr.lo, addr.hi, addr.tz
        ),
    }
}

/// `taken(op, a, b)` can hold for some members (over-approximate).
fn cmp_possible(op: BranchOp, a: &Itv, b: &Itv) -> bool {
    match op {
        BranchOp::Beq => a.lo <= b.hi && b.lo <= a.hi,
        BranchOp::Bne => {
            !(a.is_singleton().is_some() && a.lo == b.lo && b.is_singleton().is_some())
        }
        BranchOp::Bltu => a.lo < b.hi,
        BranchOp::Bgeu => a.hi >= b.lo,
        BranchOp::Blt | BranchOp::Bge => match (a.bias(), b.bias()) {
            (Some(ab), Some(bb)) => cmp_possible(unsigned_of(op), &ab, &bb),
            _ => true,
        },
    }
}

/// `taken(op, a, b)` holds for every member (under-approximate).
fn cmp_certain(op: BranchOp, a: &Itv, b: &Itv) -> bool {
    match op {
        BranchOp::Beq => a.is_singleton().is_some() && b.is_singleton().is_some() && a.lo == b.lo,
        BranchOp::Bne => a.hi < b.lo || b.hi < a.lo,
        BranchOp::Bltu => a.hi < b.lo,
        BranchOp::Bgeu => a.lo >= b.hi,
        BranchOp::Blt | BranchOp::Bge => match (a.bias(), b.bias()) {
            (Some(ab), Some(bb)) => cmp_certain(unsigned_of(op), &ab, &bb),
            _ => false,
        },
    }
}

/// The unsigned comparison equivalent to a signed one after the
/// sign-bias transform.
fn unsigned_of(op: BranchOp) -> BranchOp {
    match op {
        BranchOp::Blt => BranchOp::Bltu,
        BranchOp::Bge => BranchOp::Bgeu,
        other => other,
    }
}

/// Complement comparison: `!taken(op, a, b) == taken(negate(op), a, b)`.
fn negate(op: BranchOp) -> BranchOp {
    match op {
        BranchOp::Beq => BranchOp::Bne,
        BranchOp::Bne => BranchOp::Beq,
        BranchOp::Blt => BranchOp::Bge,
        BranchOp::Bge => BranchOp::Blt,
        BranchOp::Bltu => BranchOp::Bgeu,
        BranchOp::Bgeu => BranchOp::Bltu,
    }
}

/// Derivation cap: loops whose bounds are not pinned within this many
/// abstract unrollings are reported as underivable.
const TRIP_CAP: u64 = 1 << 20;

/// The continue predicate of a bottom-tested loop in canonical form:
/// after the induction lane steps by `c`, the loop re-enters while
/// `op(X, B)` (or `op(B, X)` when the induction lane is the right
/// operand) holds.
struct Canon {
    x: ArchReg,
    b_itv: Itv,
    c: u32,
    op: BranchOp,
    x_left: bool,
}

/// Derives trip-count bounds for every natural loop of `cfg`. Loops that
/// don't fit the canonical shape get `iterations: None`.
pub(crate) fn derive_loops(program: &Program, cfg: &Cfg, fix: &Fixpoint) -> Vec<LoopTrip> {
    cfg.natural_loops()
        .iter()
        .map(|l| {
            let head_pc = cfg.blocks[l.head].start;
            let latch = l.back_edges[0];
            let latch_pc = cfg.blocks[latch]
                .insts
                .last()
                .map(|&(pc, _)| pc)
                .unwrap_or(head_pc);
            let (entry_state, entry_pc) = loop_entry(program, cfg, fix, l.head, &l.body);
            let iterations = if l.back_edges.len() == 1 {
                entry_state
                    .as_ref()
                    .and_then(|st| derive_one(program, cfg, l.head, latch, &l.body, st))
            } else {
                None
            };
            LoopTrip {
                head_pc,
                latch_pc,
                entry_pc,
                iterations,
            }
        })
        .collect()
}

/// Joins the states flowing into the loop head from outside the body,
/// and identifies the unique single-exit preheader terminator when there
/// is one.
fn loop_entry(
    program: &Program,
    cfg: &Cfg,
    fix: &Fixpoint,
    head: usize,
    body: &[usize],
) -> (Option<AbsState>, Option<u32>) {
    let mut state: Option<AbsState> = None;
    let mut outside: Vec<usize> = Vec::new();
    for &p in &cfg.blocks[head].preds {
        if body.contains(&p) {
            continue;
        }
        outside.push(p);
        let Some(ps) = fix.entries[p].clone() else {
            continue;
        };
        for (succ, out) in block_out_states(program, cfg, p, ps) {
            if succ == head {
                state = Some(match state {
                    None => out,
                    Some(s) => s.join(&out),
                });
            }
        }
    }
    let entry_pc = match outside.as_slice() {
        [p] if cfg.blocks[*p].succs.len() == 1 => cfg.blocks[*p].insts.last().map(|&(pc, _)| pc),
        _ => None,
    };
    (state, entry_pc)
}

/// Attempts the canonical trip-count derivation for one loop.
fn derive_one(
    program: &Program,
    cfg: &Cfg,
    head: usize,
    latch: usize,
    body: &[usize],
    entry: &AbsState,
) -> Option<(u64, u64)> {
    // Structural: the body is a single path head -> ... -> latch, so
    // every body block (and in particular the induction step) executes
    // exactly once per iteration.
    let mut chain = vec![head];
    let mut cur = head;
    while cur != latch {
        let succs = &cfg.blocks[cur].succs;
        if succs.len() != 1 {
            return None;
        }
        cur = succs[0];
        if !body.contains(&cur) || chain.contains(&cur) {
            return None;
        }
        chain.push(cur);
    }
    if chain.len() != body.len() {
        return None;
    }

    let head_pc = cfg.blocks[head].start;
    let &(latch_pc, ref term) = cfg.blocks[latch].insts.last()?;
    let writes = |lane: ArchReg| -> usize {
        body.iter()
            .flat_map(|&bb| cfg.blocks[bb].insts.iter())
            .filter(|(_, i)| written_lane(i) == Some(lane))
            .count()
    };
    // Finds the unique `addi X, X, c` when X is stepped exactly once.
    let step_of = |lane: ArchReg| -> Option<u32> {
        if writes(lane) != 1 {
            return None;
        }
        body.iter()
            .flat_map(|&bb| cfg.blocks[bb].insts.iter())
            .find_map(|(_, i)| match *i {
                Inst::OpImm {
                    op: diag_isa::AluOp::Add,
                    rd,
                    rs1,
                    imm,
                } if ArchReg::from(rd) == lane && rs1 == rd && imm != 0 => Some(imm as u32),
                _ => None,
            })
    };

    let canon = match *term {
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let taken = latch_pc.wrapping_add(offset as u32);
            let fall = latch_pc.wrapping_add(INST_BYTES);
            // Continue predicate: the condition under which the latch
            // re-enters the head.
            let cont_op = if taken == head_pc {
                op
            } else if fall == head_pc {
                negate(op)
            } else {
                return None;
            };
            let (a, b) = (ArchReg::from(rs1), ArchReg::from(rs2));
            if let Some(c) = step_of(a) {
                if writes(b) == 0 {
                    Canon {
                        x: a,
                        b_itv: entry.get(b),
                        c,
                        op: cont_op,
                        x_left: true,
                    }
                } else {
                    return None;
                }
            } else if let Some(c) = step_of(b) {
                if writes(a) == 0 {
                    Canon {
                        x: b,
                        b_itv: entry.get(a),
                        c,
                        op: cont_op,
                        x_left: false,
                    }
                } else {
                    return None;
                }
            } else {
                return None;
            }
        }
        Inst::SimtE {
            rc,
            r_end,
            l_offset,
        } => {
            if latch_pc
                .wrapping_add(l_offset as u32)
                .wrapping_add(INST_BYTES)
                != head_pc
            {
                return None;
            }
            let step = match program.decode_at(latch_pc.wrapping_add(l_offset as u32)) {
                Some(Inst::SimtS { r_step, .. }) => {
                    if writes(ArchReg::from(r_step)) != 0 {
                        return None;
                    }
                    entry.get(r_step.into()).is_singleton()?
                }
                _ => return None,
            };
            let rc_lane = ArchReg::from(rc);
            // rc must be stepped only by the simt_e itself.
            if writes(rc_lane) != 1 || step == 0 || writes(ArchReg::from(r_end)) != 0 {
                return None;
            }
            Canon {
                x: rc_lane,
                b_itv: entry.get(r_end.into()),
                c: step,
                op: BranchOp::Blt,
                x_left: true,
            }
        }
        _ => return None,
    };

    // Abstractly unroll: X_k = X_0 + k*c (interval add is sound across
    // wrap), stopping when the continue predicate *certainly* fails (an
    // upper bound: every concrete instance has stopped by then) and
    // recording the first k where it *possibly* fails (a lower bound: no
    // instance can stop earlier).
    let stop_op = negate(canon.op);
    let step = Itv::exact(canon.c);
    let mut x = entry.get(canon.x);
    let mut n_lo: Option<u64> = None;
    for k in 1..=TRIP_CAP {
        x = x.add(&step);
        let (a, b) = if canon.x_left {
            (x, canon.b_itv)
        } else {
            (canon.b_itv, x)
        };
        if n_lo.is_none() && cmp_possible(stop_op, &a, &b) {
            n_lo = Some(k);
        }
        if cmp_certain(stop_op, &a, &b) {
            return Some((n_lo.unwrap_or(k), k));
        }
    }
    None
}

/// The lane an instruction writes, including the implicit `simt_e`
/// counter update that [`Inst::dest`] does not report.
fn written_lane(inst: &Inst) -> Option<ArchReg> {
    match *inst {
        Inst::SimtE { rc, .. } => {
            let lane = ArchReg::from(rc);
            (!lane.is_zero()).then_some(lane)
        }
        _ => inst.dest(),
    }
}
