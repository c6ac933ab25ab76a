//! Per-processing-cluster state for the serial dataflow engine.
//!
//! A processing cluster (paper §4.3, §5.1) holds one I-cache line's worth
//! of instructions — 16 PEs in every evaluated configuration — along with
//! the cluster-level load/store unit. The [`Cluster`] here tracks the
//! resident line, when its instructions became usable (fetch + decode),
//! which PE slots have been decoded (for reuse accounting), and when each
//! slot's last dynamic instance finished (a PE holds one instruction
//! instance at a time).

use diag_isa::StationSlot;
use diag_mem::Lsu;

/// Data lines a cluster's line buffer holds.
const LINE_BUF_LINES: usize = 8;

/// Timing and residency state of one processing cluster.
#[derive(Debug)]
pub struct Cluster {
    /// Base address of the resident I-line, if any.
    pub line_addr: Option<u32>,
    /// Predecoded PE stations for the resident line, one per slot (paper
    /// §4.2: the line is decoded once into the PEs' latched control
    /// signals; re-executions skip fetch/decode). The arena is sized at
    /// construction and overwritten in place on every line load — the hot
    /// path never allocates.
    pub stations: Vec<StationSlot>,
    /// Cycle at which the resident instructions finished decoding and may
    /// begin execution (§5.1.1: one cycle after assignment).
    pub decode_ready: u64,
    /// Bitmask of PE slots that have decoded their instruction since the
    /// line was loaded; subsequent executions are datapath reuse.
    pub decoded_slots: u32,
    /// Finish time of the most recent dynamic instance at each PE slot.
    pub slot_busy: Vec<u64>,
    /// Latest commit time among instructions executed since the line was
    /// loaded — the cluster may only be reloaded after this (§4.3: "a
    /// cluster is freed if all its functional units have completed").
    pub last_commit: u64,
    /// The cluster's load/store unit (§5.1: loads and stores are queued at
    /// the level of the processing cluster).
    pub lsu: Lsu,
    /// Recently-accessed data lines held at the cluster LSU and memory
    /// lanes (§5.2: "a load store unit at the cluster level, where the
    /// previously accessed line is stored" + set-associative memory lanes
    /// passing data "for immediate access"). Timing-only: hits bypass the
    /// L1D entirely.
    line_buf: Vec<u32>,
}

impl Cluster {
    /// Creates an empty cluster with `pes` PE slots and an LSU of the
    /// given depth.
    pub fn new(pes: usize, lsu_depth: usize) -> Cluster {
        let mut cluster = Cluster {
            line_addr: None,
            stations: Vec::new(),
            decode_ready: 0,
            decoded_slots: 0,
            slot_busy: Vec::new(),
            last_commit: 0,
            lsu: Lsu::new(lsu_depth),
            line_buf: Vec::new(),
        };
        cluster.renew(pes, lsu_depth);
        cluster
    }

    /// Turns this cluster into [`Cluster::new`]`(pes, lsu_depth)`,
    /// keeping its station, slot, LSU and line-buffer storage.
    pub fn renew(&mut self, pes: usize, lsu_depth: usize) {
        self.line_addr = None;
        self.stations.clear();
        self.stations.resize(pes, StationSlot::Empty);
        self.decode_ready = 0;
        self.decoded_slots = 0;
        self.slot_busy.clear();
        self.slot_busy.resize(pes, 0);
        self.last_commit = 0;
        self.lsu.renew(lsu_depth);
        self.line_buf.clear();
        self.line_buf.reserve(LINE_BUF_LINES);
    }

    /// Whether `line` is held in the cluster's line buffer; a hit promotes
    /// it to most-recently-used.
    pub fn line_buf_hit(&mut self, line: u32) -> bool {
        if let Some(pos) = self.line_buf.iter().position(|&l| l == line) {
            let l = self.line_buf.remove(pos);
            self.line_buf.push(l);
            true
        } else {
            false
        }
    }

    /// Installs `line` as the most-recently-accessed data line.
    pub fn line_buf_fill(&mut self, line: u32) {
        if !self.line_buf_hit(line) {
            if self.line_buf.len() == LINE_BUF_LINES {
                self.line_buf.remove(0);
            }
            self.line_buf.push(line);
        }
    }

    /// Loads a new I-line, resetting per-residency state. `decode_ready`
    /// is when the instructions become executable.
    pub fn load_line(&mut self, line_addr: u32, decode_ready: u64) {
        self.line_addr = Some(line_addr);
        self.decode_ready = decode_ready;
        self.decoded_slots = 0;
        for slot in &mut self.slot_busy {
            *slot = decode_ready;
        }
        self.last_commit = self.last_commit.max(decode_ready);
        self.lsu.reset();
    }

    /// Marks a PE slot decoded; returns `true` if this was the first
    /// execution since the line loaded (i.e. a real decode, not reuse).
    pub fn mark_decoded(&mut self, slot: usize) -> bool {
        let bit = 1u32 << slot;
        let first = self.decoded_slots & bit == 0;
        self.decoded_slots |= bit;
        first
    }

    /// Invalidates the resident line (reuse-ablation support).
    pub fn evict(&mut self) {
        self.line_addr = None;
        self.decoded_slots = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_line_resets_state() {
        let mut c = Cluster::new(16, 4);
        c.mark_decoded(3);
        c.slot_busy[5] = 99;
        c.last_commit = 80;
        c.load_line(0x1000, 120);
        assert_eq!(c.line_addr, Some(0x1000));
        assert_eq!(c.decoded_slots, 0);
        assert_eq!(c.slot_busy[5], 120);
        assert_eq!(c.last_commit, 120);
        assert_eq!(c.decode_ready, 120);
    }

    #[test]
    fn decode_then_reuse() {
        let mut c = Cluster::new(16, 4);
        c.load_line(0x1000, 0);
        assert!(c.mark_decoded(7), "first execution decodes");
        assert!(!c.mark_decoded(7), "second execution reuses");
        assert!(c.mark_decoded(8), "other slots decode independently");
    }

    #[test]
    fn evict_clears_residency() {
        let mut c = Cluster::new(16, 4);
        c.load_line(0x40, 0);
        c.mark_decoded(0);
        c.evict();
        assert_eq!(c.line_addr, None);
        assert!(c.mark_decoded(0), "decode required after eviction");
    }
}
