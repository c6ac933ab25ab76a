//! Control-flow graph recovery from an assembled program's text segment.
//!
//! DiAG constructs its hardware datapath directly from the program-order
//! instruction stream, so the same static walk that the control unit
//! performs (leader discovery at branch targets, fall-through chaining,
//! §4.2) recovers the CFG here. Indirect jumps (`jalr`) have no static
//! target; their presence is recorded and every conservative consumer
//! (reachability lints, use-before-def) degrades gracefully.

use diag_asm::Program;
use diag_isa::{ControlFlow, Inst, INST_BYTES};
use std::collections::BTreeSet;

/// One basic block: a maximal straight-line run of decoded instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// One past the address of the last instruction.
    pub end: u32,
    /// The decoded instructions with their addresses.
    pub insts: Vec<(u32, Inst)>,
    /// Successor block indices (statically-known edges only).
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
    /// Whether direct control flow from the entry can reach this block.
    pub reachable: bool,
    /// Whether execution can fall through past `end` out of the text
    /// segment (no halt, no unconditional transfer).
    pub falls_off_text: bool,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block holds no instructions (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The recovered control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in address order.
    pub blocks: Vec<Block>,
    /// Index of the entry block.
    pub entry: usize,
    /// Whether the program contains any indirect jump (`jalr`). When true,
    /// unreachable-code conclusions are unsound and are suppressed.
    pub has_indirect: bool,
    /// Addresses (and raw words) in text that do not decode.
    pub illegal: Vec<(u32, u32)>,
    /// Control transfers whose static target is outside text or
    /// misaligned: `(pc, target)`.
    pub wild_targets: Vec<(u32, u32)>,
}

impl Cfg {
    /// Recovers the CFG from `program`'s text segment. `trap_vector`, when
    /// configured and inside text, is treated as an additional entry root
    /// (an `ebreak` may transfer there).
    pub fn build(program: &Program, trap_vector: Option<u32>) -> Cfg {
        let base = program.text_base();
        let end = program.text_end();
        let n = program.text_len();

        let mut decoded: Vec<Option<Inst>> = Vec::with_capacity(n);
        let mut illegal = Vec::new();
        for (i, &word) in program.text().iter().enumerate() {
            let addr = base + (i as u32) * INST_BYTES;
            match program.decode_at(addr) {
                Some(inst) => decoded.push(Some(inst)),
                None => {
                    decoded.push(None);
                    illegal.push((addr, word));
                }
            }
        }

        // Leader discovery: entry, every static target, and everything
        // after a control transfer or undecodable word.
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        let mut wild_targets = Vec::new();
        let mut has_indirect = false;
        if program.contains_text_addr(program.entry()) {
            leaders.insert(program.entry());
        } else if n > 0 {
            leaders.insert(base);
        }
        if let Some(v) = trap_vector {
            if program.contains_text_addr(v) {
                leaders.insert(v);
            }
        }
        for (i, inst) in decoded.iter().enumerate() {
            let pc = base + (i as u32) * INST_BYTES;
            let Some(inst) = inst else {
                // The word after an illegal word starts a new block.
                leaders.insert(pc + INST_BYTES);
                continue;
            };
            let flow = inst.control_flow();
            if matches!(flow, ControlFlow::Indirect { .. }) {
                has_indirect = true;
            }
            if matches!(flow, ControlFlow::Next) {
                continue;
            }
            let (fall, taken) = inst.static_successors(pc);
            if let Some(t) = taken {
                if program.contains_text_addr(t) {
                    leaders.insert(t);
                } else {
                    wild_targets.push((pc, t));
                }
            }
            // Whatever follows a control transfer begins a new block, even
            // when the transfer never falls through.
            let _ = fall;
            leaders.insert(pc + INST_BYTES);
        }
        leaders.retain(|&a| a >= base && a < end);

        // Carve blocks: from each leader to the next leader or control
        // transfer (inclusive) or illegal word (exclusive).
        let mut blocks: Vec<Block> = Vec::new();
        let leader_list: Vec<u32> = leaders.iter().copied().collect();
        for (k, &start) in leader_list.iter().enumerate() {
            let hard_end = leader_list.get(k + 1).copied().unwrap_or(end);
            let mut insts = Vec::new();
            let mut at = start;
            let mut falls_off_text = false;
            while at < hard_end {
                let idx = ((at - base) / INST_BYTES) as usize;
                match decoded[idx] {
                    Some(inst) => insts.push((at, inst)),
                    // The illegal word terminates the block; execution
                    // faults there, so nothing follows.
                    None => break,
                }
                at += INST_BYTES;
            }
            // A leader pointing directly at an illegal word holds nothing:
            // skip it — the illegal word is already reported.
            let Some(&(last_pc, last)) = insts.last() else {
                continue;
            };
            // Fall-through past the end of text without a halt.
            if last_pc + INST_BYTES == end
                && matches!(
                    last.control_flow(),
                    ControlFlow::Next | ControlFlow::Branch { .. } | ControlFlow::SimtLoop { .. }
                )
            {
                falls_off_text = true;
            }
            blocks.push(Block {
                start,
                end: last_pc + INST_BYTES,
                insts,
                succs: Vec::new(),
                preds: Vec::new(),
                reachable: false,
                falls_off_text,
            });
        }

        // Edges.
        let index_of = |addr: u32| blocks.binary_search_by_key(&addr, |b| b.start).ok();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (bi, block) in blocks.iter().enumerate() {
            let Some(&(last_pc, last)) = block.insts.last() else {
                continue;
            };
            let ended_by_control = !matches!(last.control_flow(), ControlFlow::Next);
            let (fall, taken) = if ended_by_control {
                last.static_successors(last_pc)
            } else {
                // Block was cut short by the next leader: plain fall-through.
                (Some(last_pc + INST_BYTES), None)
            };
            for target in [fall, taken].into_iter().flatten() {
                if let Some(ti) = index_of(target) {
                    edges.push((bi, ti));
                }
            }
            // `ebreak` with a configured in-text trap vector can transfer
            // there.
            if matches!(last.control_flow(), ControlFlow::Trap) {
                if let Some(ti) = trap_vector.and_then(index_of) {
                    edges.push((bi, ti));
                }
            }
        }
        for (from, to) in edges {
            if !blocks[from].succs.contains(&to) {
                blocks[from].succs.push(to);
            }
            if !blocks[to].preds.contains(&from) {
                blocks[to].preds.push(from);
            }
        }

        // Reachability from the entry roots along static edges.
        let entry_addr = if program.contains_text_addr(program.entry()) {
            program.entry()
        } else {
            base
        };
        let entry = blocks
            .binary_search_by_key(&entry_addr, |b| b.start)
            .ok()
            .unwrap_or(0);
        let mut cfg = Cfg {
            blocks,
            entry,
            has_indirect,
            illegal,
            wild_targets,
        };
        let mut stack = vec![entry];
        if let Some(v) = trap_vector {
            if let Some(ti) = cfg.block_at(v) {
                stack.push(ti);
            }
        }
        while let Some(b) = stack.pop() {
            if cfg.blocks[b].reachable {
                continue;
            }
            cfg.blocks[b].reachable = true;
            stack.extend(cfg.blocks[b].succs.iter().copied());
        }
        cfg
    }

    /// The index of the block starting at `addr`, if any.
    pub fn block_at(&self, addr: u32) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.start).ok()
    }

    /// Immediate dominators of every reachable block (entry maps to
    /// itself), computed with the Cooper–Harvey–Kennedy iteration.
    /// Unreachable blocks have no entry (`None`).
    pub fn dominators(&self) -> Vec<Option<usize>> {
        let n = self.blocks.len();
        // Reverse postorder over reachable blocks.
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut stack = vec![(self.entry, 0usize)];
        state[self.entry] = 1;
        while let Some(top) = stack.last_mut() {
            let (b, next) = *top;
            if next < self.blocks[b].succs.len() {
                top.1 += 1;
                let s = self.blocks[b].succs[next];
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        let mut rpo_number = vec![usize::MAX; n];
        for (i, &b) in order.iter().enumerate() {
            rpo_number[b] = i;
        }

        let mut idom: Vec<Option<usize>> = vec![None; n];
        idom[self.entry] = Some(self.entry);
        // Both walks stay on processed blocks, whose idom is set.
        let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_number[a] > rpo_number[b] {
                    a = idom[a]?;
                }
                while rpo_number[b] > rpo_number[a] {
                    b = idom[b]?;
                }
            }
            Some(a)
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &self.blocks[b].preds {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = match new_idom {
                        None => Some(p),
                        Some(cur) => intersect(&idom, cur, p),
                    };
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Whether block `a` dominates block `b`, given `dominators()` output.
    pub fn dominates(idom: &[Option<usize>], a: usize, b: usize) -> bool {
        let mut at = b;
        loop {
            if at == a {
                return true;
            }
            match idom[at] {
                Some(parent) if parent != at => at = parent,
                _ => return false,
            }
        }
    }

    /// Natural loops: back edges `source → head` where the head dominates
    /// the source, merged per head, with the body found by the usual
    /// reverse walk from the back-edge sources.
    pub fn natural_loops(&self) -> Vec<NaturalLoop> {
        let idom = self.dominators();
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            if !block.reachable {
                continue;
            }
            for &s in &block.succs {
                if Cfg::dominates(&idom, s, b) {
                    match loops.iter_mut().find(|l| l.head == s) {
                        Some(l) => l.back_edges.push(b),
                        None => loops.push(NaturalLoop {
                            head: s,
                            back_edges: vec![b],
                            body: Vec::new(),
                        }),
                    }
                }
            }
        }
        for l in &mut loops {
            let mut body: BTreeSet<usize> = BTreeSet::new();
            body.insert(l.head);
            let mut stack: Vec<usize> = l.back_edges.clone();
            while let Some(b) = stack.pop() {
                if b == l.head || !body.insert(b) {
                    continue;
                }
                stack.extend(self.blocks[b].preds.iter().copied());
            }
            l.body = body.into_iter().collect();
        }
        loops.sort_by_key(|l| self.blocks[l.head].start);
        loops
    }
}

/// A natural loop discovered from the dominator tree.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop-header block (dominates every block in `body`).
    pub head: usize,
    /// Blocks with a back edge to `head`.
    pub back_edges: Vec<usize>,
    /// All blocks in the loop, sorted by index (includes `head`).
    pub body: Vec<usize>,
}
