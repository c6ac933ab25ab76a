//! Register-lane dataflow: def-use sets, liveness, use-before-def, and the
//! lane-occupancy estimates the cluster geometry cares about.
//!
//! DiAG carries each architectural register as a physical *lane* through
//! the PE array, so classic bit-vector dataflow over the 64-lane space
//! directly estimates hardware occupancy: a lane that is live across a
//! program point must be driven through every cluster that point's
//! instructions occupy (paper §4.1, §6.1.2).

use crate::cfg::Cfg;
use diag_isa::{ArchReg, Inst, Reg, NUM_LANES};

/// A set of register lanes as a 64-bit mask (bit *i* = [`ArchReg`] index
/// *i*). The `x0` lane is never a member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSet(pub u64);

impl LaneSet {
    /// The empty set.
    pub const EMPTY: LaneSet = LaneSet(0);
    /// Every lane except `x0`.
    pub const ALL: LaneSet = LaneSet(!1u64);

    /// Inserts a lane (ignores `x0`).
    pub fn insert(&mut self, r: ArchReg) {
        if !r.is_zero() {
            self.0 |= 1u64 << r.index();
        }
    }

    /// Removes a lane.
    pub fn remove(&mut self, r: ArchReg) {
        self.0 &= !(1u64 << r.index());
    }

    /// Whether `r` is in the set.
    pub fn contains(self, r: ArchReg) -> bool {
        self.0 & (1u64 << r.index()) != 0
    }

    /// Number of lanes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: LaneSet) -> LaneSet {
        LaneSet(self.0 | other.0)
    }

    /// Set difference.
    pub fn minus(self, other: LaneSet) -> LaneSet {
        LaneSet(self.0 & !other.0)
    }

    /// Iterates over members in lane order.
    pub fn iter(self) -> impl Iterator<Item = ArchReg> {
        (0..NUM_LANES as u8)
            .map(ArchReg::new)
            .filter(move |r| self.contains(*r))
    }

    /// Renders the members as a comma-separated ABI-name list.
    pub fn names(self) -> String {
        let mut out = String::new();
        for r in self.iter() {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&r.to_string());
        }
        out
    }
}

/// The lanes `inst` reads (never includes `x0`).
pub fn uses_of(inst: &Inst) -> LaneSet {
    let mut set = LaneSet::EMPTY;
    for r in inst.sources() {
        set.insert(r);
    }
    set
}

/// The lane `inst` writes, if any. Unlike [`Inst::dest`], this reports
/// `simt_e`'s write of its control register (the marker advances `rc` by
/// the region step when it loops).
pub fn def_of(inst: &Inst) -> Option<ArchReg> {
    match *inst {
        Inst::SimtE { rc, .. } => {
            let lane: ArchReg = rc.into();
            (!lane.is_zero()).then_some(lane)
        }
        _ => inst.dest(),
    }
}

/// Lanes the ABI initializes before the first instruction: `x0`, the
/// argument registers `a0` (thread id) and `a1` (thread count), and `sp`.
pub fn abi_initialized() -> LaneSet {
    let mut set = LaneSet::EMPTY;
    set.insert(Reg::A0.into());
    set.insert(Reg::A1.into());
    set.insert(Reg::SP.into());
    set
}

/// Per-block and per-point liveness over the CFG.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Lanes live at each block's entry.
    pub live_in: Vec<LaneSet>,
    /// Lanes live at each block's exit.
    pub live_out: Vec<LaneSet>,
}

/// How a block's exit treats lanes when the continuation is not another
/// block in the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExitKind {
    /// Falls through to successors only.
    Internal,
    /// Halts or traps: the final architectural state is the outcome.
    Halt,
    /// Indirect jump, wild target, or fall-off: unknowable continuation.
    Unknown,
}

fn exit_kind(cfg: &Cfg, b: usize) -> ExitKind {
    let block = &cfg.blocks[b];
    if block.falls_off_text {
        return ExitKind::Unknown;
    }
    let Some(&(_, last)) = block.insts.last() else {
        return ExitKind::Unknown;
    };
    use diag_isa::ControlFlow;
    match last.control_flow() {
        // A trap with no in-text vector also ends the thread; when a
        // vector exists the edge carries liveness, but the halting outcome
        // remains possible, so `Halt` is the join either way.
        ControlFlow::Halt | ControlFlow::Trap => ExitKind::Halt,
        ControlFlow::Indirect { .. } => ExitKind::Unknown,
        // A branch/jump whose taken edge was wild (outside text): the
        // continuation is unknowable.
        ControlFlow::Branch { .. } | ControlFlow::Jump { .. } | ControlFlow::SimtLoop { .. } => {
            if cfg.wild_targets.iter().any(|&(pc, _)| pc + 4 == block.end) {
                ExitKind::Unknown
            } else {
                ExitKind::Internal
            }
        }
        ControlFlow::Next => ExitKind::Internal,
    }
}

/// Computes *observable* lane liveness: a halt exposes the whole final
/// register state, so every lane is live at it. This is the conservative
/// view the dead-write lint needs — a write is flagged only when it is
/// overwritten on **every** continuation before anything (including the
/// final state) can see it.
pub fn liveness(cfg: &Cfg) -> Liveness {
    liveness_with(cfg, LaneSet::ALL)
}

/// Computes *traffic* lane liveness: a halt reads nothing, so a lane is
/// live only between a write (or the entry) and an actual read. This is
/// the view the lane-occupancy and segment-buffer estimates use — it
/// counts lanes that must physically flow through the PE array.
pub fn traffic_liveness(cfg: &Cfg) -> Liveness {
    liveness_with(cfg, LaneSet::EMPTY)
}

fn liveness_with(cfg: &Cfg, halt_out: LaneSet) -> Liveness {
    let n = cfg.blocks.len();
    // Upward-exposed uses and defs per block.
    let mut block_use = vec![LaneSet::EMPTY; n];
    let mut block_def = vec![LaneSet::EMPTY; n];
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut used = LaneSet::EMPTY;
        let mut defined = LaneSet::EMPTY;
        for (_, inst) in &block.insts {
            used = used.union(uses_of(inst).minus(defined));
            if let Some(d) = def_of(inst) {
                defined.insert(d);
            }
        }
        block_use[b] = used;
        block_def[b] = defined;
    }

    let mut live_in = vec![LaneSet::EMPTY; n];
    let mut live_out = vec![LaneSet::EMPTY; n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out = match exit_kind(cfg, b) {
                ExitKind::Internal => LaneSet::EMPTY,
                ExitKind::Halt => halt_out,
                ExitKind::Unknown => LaneSet::ALL,
            };
            for &s in &cfg.blocks[b].succs {
                out = out.union(live_in[s]);
            }
            let inn = block_use[b].union(out.minus(block_def[b]));
            if out != live_out[b] || inn != live_in[b] {
                live_out[b] = out;
                live_in[b] = inn;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

impl Liveness {
    /// Walks block `b` backward and reports, for each instruction, the
    /// lanes live immediately *after* it (in address order).
    pub fn live_after_each(&self, cfg: &Cfg, b: usize) -> Vec<LaneSet> {
        let block = &cfg.blocks[b];
        let mut after = vec![LaneSet::EMPTY; block.insts.len()];
        let mut live = self.live_out[b];
        for (i, (_, inst)) in block.insts.iter().enumerate().rev() {
            after[i] = live;
            if let Some(d) = def_of(inst) {
                live.remove(d);
            }
            live = live.union(uses_of(inst));
        }
        after
    }

    /// The maximum number of simultaneously-live lanes at any program
    /// point in any reachable block.
    pub fn max_live(&self, cfg: &Cfg) -> usize {
        let mut max = 0;
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !block.reachable {
                continue;
            }
            max = max.max(self.live_in[b].len());
            for set in self.live_after_each(cfg, b) {
                max = max.max(set.len());
            }
        }
        max
    }
}

/// A use of a lane that some path reaches before any write to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseBeforeDef {
    /// Address of the reading instruction.
    pub pc: u32,
    /// The lane read while possibly uninitialized.
    pub lane: ArchReg,
}

/// Forward maybe-uninitialized analysis: finds reads that some direct path
/// from the entry reaches before any write. Lanes in `initialized` (the
/// ABI set) are never reported. Blocks reachable only through indirect
/// jumps are not analyzed (their entry state is unknowable).
pub fn use_before_def(cfg: &Cfg, initialized: LaneSet) -> Vec<UseBeforeDef> {
    let n = cfg.blocks.len();
    // maybe_undef[b]: lanes possibly uninitialized at block entry.
    let mut maybe_undef = vec![LaneSet::EMPTY; n];
    let mut visited = vec![false; n];
    maybe_undef[cfg.entry] = LaneSet::ALL.minus(initialized);
    visited[cfg.entry] = true;

    let transfer = |b: usize, mut undef: LaneSet| -> LaneSet {
        for (_, inst) in &cfg.blocks[b].insts {
            if let Some(d) = def_of(inst) {
                undef.remove(d);
            }
        }
        undef
    };

    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if !visited[b] {
                continue;
            }
            let out = transfer(b, maybe_undef[b]);
            for &s in &cfg.blocks[b].succs {
                let merged = maybe_undef[s].union(out);
                if !visited[s] || merged != maybe_undef[s] {
                    visited[s] = true;
                    maybe_undef[s] = merged;
                    changed = true;
                }
            }
        }
    }

    let mut findings = Vec::new();
    for b in 0..n {
        if !visited[b] {
            continue;
        }
        let mut undef = maybe_undef[b];
        for (pc, inst) in &cfg.blocks[b].insts {
            for lane in uses_of(inst).iter() {
                if undef.contains(lane) {
                    findings.push(UseBeforeDef { pc: *pc, lane });
                }
            }
            if let Some(d) = def_of(inst) {
                undef.remove(d);
            }
        }
    }
    findings.sort_by_key(|f| (f.pc, f.lane.index()));
    findings.dedup();
    findings
}
