//! Static performance model: dataflow critical paths, loop recurrence
//! bounds, and IPC upper bounds.
//!
//! The model mirrors how a DiAG ring executes a resident loop: every
//! instruction is pre-assigned to a PE, operands flow through register
//! lanes, and the only fundamental rate limits are (a) loop-carried
//! register recurrences and (b) retirement bandwidth (`commit_width` per
//! ring). Everything else — cache misses, line loads, control penalties —
//! only slows execution further, so the bounds computed here *dominate*
//! the simulator's measured IPC by construction. The cross-check is
//! enforced by an integration test over every bundled workload.
//!
//! Soundness of the recurrence bound is the delicate part. For a lane `r`
//! we count only *distance-1 self-circuits*: the longest latency chain
//! from an upward-exposed (loop-carried) use of `r` to a write of `r`,
//! restricted to blocks that execute on **every** iteration (blocks
//! dominating all back-edge sources) and to chains through lanes whose
//! in-loop writes all live in those guaranteed blocks. Multi-lane circuits
//! and conditionally-executed writes are deliberately ignored — dropping a
//! constraint can only *loosen* an upper bound, never break it.

use crate::cfg::{Cfg, NaturalLoop};
use crate::dataflow::{def_of, uses_of, LaneSet};
use diag_core::DiagConfig;
use diag_isa::{ArchReg, Inst, NUM_LANES};

/// Static facts about one natural loop.
#[derive(Debug, Clone)]
pub struct LoopBound {
    /// Address of the loop header's first instruction.
    pub head: u32,
    /// Total instructions in the loop body (including conditional blocks
    /// and nested loops).
    pub body_insts: usize,
    /// Instructions guaranteed to execute on every iteration.
    pub guaranteed_insts: usize,
    /// Distinct I-lines the body spans (line size from the config).
    pub lines: usize,
    /// Whether the body fits in one ring's resident-line capacity, making
    /// backward-branch datapath reuse possible (§4.3.2).
    pub reuse_eligible: bool,
    /// Longest single-iteration dependence chain in cycles (all carried
    /// inputs available at time 0).
    pub critical_path: u64,
    /// Initiation-interval lower bound from loop-carried register
    /// recurrences (≥ 1).
    pub recurrence_ii: u64,
    /// The lane whose self-circuit sets `recurrence_ii`, if any.
    pub recurrence_lane: Option<ArchReg>,
    /// Upper bound on sustainable IPC while iterating this loop on one
    /// ring: `body_insts / max(recurrence_ii, guaranteed_insts /
    /// commit_width)`, capped at `commit_width`.
    pub ipc_bound: f64,
}

/// Program-level performance bounds.
#[derive(Debug, Clone)]
pub struct PerfBounds {
    /// Per-loop facts, in header address order.
    pub loops: Vec<LoopBound>,
    /// Sound whole-program IPC upper bound: retirement bandwidth across
    /// the rings the thread count activates.
    pub ipc_bound: f64,
    /// Steady-state bound: the largest per-loop bound (scaled by ring
    /// count). Meaningful when execution time is dominated by loops —
    /// `None` for loop-free programs.
    pub steady_state_ipc_bound: Option<f64>,
}

/// Computes the performance bounds for `cfg` under `config` / `threads`.
pub fn perf_bounds(cfg: &Cfg, config: &DiagConfig, threads: usize) -> PerfBounds {
    let rings = config.rings_for(threads.max(1)) as f64;
    let commit_width = config.commit_width as f64;
    let idom = cfg.dominators();
    let loops = cfg
        .natural_loops()
        .into_iter()
        .map(|l| loop_bound(cfg, &idom, &l, config, threads))
        .collect::<Vec<_>>();
    let steady = loops
        .iter()
        .map(|l| l.ipc_bound * rings)
        .max_by(|a, b| a.total_cmp(b))
        .map(|b| b.min(commit_width * rings));
    PerfBounds {
        ipc_bound: commit_width * rings,
        steady_state_ipc_bound: steady,
        loops,
    }
}

fn loop_bound(
    cfg: &Cfg,
    idom: &[Option<usize>],
    l: &NaturalLoop,
    config: &DiagConfig,
    threads: usize,
) -> LoopBound {
    let body_insts: usize = l.body.iter().map(|&b| cfg.blocks[b].len()).sum();

    // Distinct I-lines the body occupies.
    let line_bytes = config.line_bytes();
    let mut lines: Vec<u32> = l
        .body
        .iter()
        .flat_map(|&b| cfg.blocks[b].insts.iter().map(|&(pc, _)| pc / line_bytes))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let line_count = lines.len();
    let reuse_eligible = line_count <= config.reuse_line_capacity(threads.max(1));

    // Blocks that execute on every trip around every back edge.
    let mut guaranteed: Vec<usize> = l
        .body
        .iter()
        .copied()
        .filter(|&b| l.back_edges.iter().all(|&t| Cfg::dominates(idom, b, t)))
        .collect();
    // Guaranteed blocks form a chain in the dominator tree; dominance depth
    // orders them by execution order within an iteration.
    guaranteed.sort_by_key(|&b| dom_depth(idom, b));
    let seq: Vec<(u32, Inst)> = guaranteed
        .iter()
        .flat_map(|&b| cfg.blocks[b].insts.iter().copied())
        .collect();
    let guaranteed_insts = seq.len();

    // Lanes with writes in conditionally-executed body blocks: chains
    // through them are unreliable in the linearized sequence, so they
    // neither carry recurrences nor extend chains.
    let mut tainted = LaneSet::EMPTY;
    for &b in &l.body {
        if guaranteed.contains(&b) {
            continue;
        }
        for (_, inst) in &cfg.blocks[b].insts {
            if let Some(d) = def_of(inst) {
                tainted.insert(d);
            }
        }
    }

    // Loop-carried lanes: upward-exposed uses in the sequence that the
    // sequence also writes.
    let mut written = LaneSet::EMPTY;
    let mut carried = LaneSet::EMPTY;
    for (_, inst) in &seq {
        for lane in uses_of(inst).iter() {
            if !written.contains(lane) {
                carried.insert(lane);
            }
        }
        if let Some(d) = def_of(inst) {
            written.insert(d);
        }
    }
    carried = carried.minus(tainted);
    let mut carried_and_written = LaneSet::EMPTY;
    for lane in carried.iter() {
        if written.contains(lane) {
            carried_and_written.insert(lane);
        }
    }

    // Critical path of one iteration (carried inputs at time 0): longest
    // latency chain through the guaranteed sequence.
    let critical_path = {
        let mut finish = vec![0u64; seq.len()];
        let mut last_def: [Option<usize>; NUM_LANES] = [None; NUM_LANES];
        let mut max = 0u64;
        for (i, (_, inst)) in seq.iter().enumerate() {
            let mut start = 0u64;
            for lane in uses_of(inst).iter() {
                if let Some(j) = last_def[lane.index()] {
                    start = start.max(finish[j]);
                }
            }
            finish[i] = start + u64::from(inst.exec_latency());
            max = max.max(finish[i]);
            if let Some(d) = def_of(inst) {
                last_def[d.index()] = Some(i);
            }
        }
        max
    };

    // Recurrence II: per carried lane r, the longest latency chain from a
    // carried use of r to the *final* write of r in the sequence — only
    // the last write's value reaches the next iteration, so a chain ending
    // at an overwritten intermediate def does not close a circuit.
    let mut recurrence_ii = 1u64;
    let mut recurrence_lane = None;
    for r in carried_and_written.iter() {
        let mut chain: Vec<Option<u64>> = vec![None; seq.len()];
        let mut last_def: [Option<usize>; NUM_LANES] = [None; NUM_LANES];
        for (i, (_, inst)) in seq.iter().enumerate() {
            let mut base: Option<u64> = None;
            for lane in uses_of(inst).iter() {
                if lane == r && last_def[r.index()].is_none() {
                    // The carried use itself anchors the chain.
                    base = Some(base.unwrap_or(0));
                } else if !tainted.contains(lane) {
                    if let Some(j) = last_def[lane.index()] {
                        if let Some(c) = chain[j] {
                            base = Some(base.map_or(c, |b| b.max(c)));
                        }
                    }
                }
            }
            chain[i] = base.map(|b| b + u64::from(inst.exec_latency()));
            if let Some(d) = def_of(inst) {
                last_def[d.index()] = Some(i);
            }
        }
        let closing = last_def[r.index()].and_then(|i| chain[i]);
        if let Some(ii) = closing {
            if ii > recurrence_ii {
                recurrence_ii = ii;
                recurrence_lane = Some(r);
            }
        }
    }

    // One iteration takes at least the recurrence II and at least the
    // cycles needed to retire the guaranteed instructions.
    let commit_width = config.commit_width.max(1);
    let retire_floor = guaranteed_insts.div_ceil(commit_width) as u64;
    let iteration_floor = recurrence_ii.max(retire_floor).max(1);
    let ipc_bound = (body_insts as f64 / iteration_floor as f64).min(commit_width as f64);

    LoopBound {
        head: cfg.blocks[l.head].start,
        body_insts,
        guaranteed_insts,
        lines: line_count,
        reuse_eligible,
        critical_path,
        recurrence_ii,
        recurrence_lane,
        ipc_bound,
    }
}

fn dom_depth(idom: &[Option<usize>], mut b: usize) -> usize {
    let mut depth = 0;
    while let Some(p) = idom[b] {
        if p == b {
            break;
        }
        depth += 1;
        b = p;
    }
    depth
}
