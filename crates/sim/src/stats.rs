//! Run statistics shared by every machine model.
//!
//! The DiAG core and the out-of-order baseline populate the same
//! [`RunStats`] structure so that the benchmark harness and the power model
//! (`diag-power`) can treat machines uniformly. The stall-cause taxonomy
//! follows the paper's §7.3.2 breakdown (memory / control / other), and the
//! activity counters follow the component granularity of Table 3 and
//! Figure 11 (PEs, FPUs, register lanes, memory, control).

use std::fmt;
use std::ops::{Add, AddAssign};

// The stall-cause taxonomy is shared with the trace subsystem's
// stall-begin/end events (it lives in `diag-trace`, the bottom of the
// workspace dependency graph); re-exported here so existing
// `diag_sim::StallCause` users are unaffected.
pub use diag_trace::StallCause;

/// Stall-cycle counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles attributed to memory (cache misses, LSU queue, bus).
    pub memory: u64,
    /// Cycles attributed to control-flow changes.
    pub control: u64,
    /// Cycles attributed to structural hazards.
    pub structural: u64,
}

impl StallBreakdown {
    /// Total stall-source cycles.
    pub fn total(&self) -> u64 {
        self.memory + self.control + self.structural
    }

    /// Adds one stall event of the given cause.
    pub fn record(&mut self, cause: StallCause) {
        self.add_cycles(cause, 1);
    }

    /// Adds `cycles` stall cycles of the given cause.
    ///
    /// Machines route every stall-accounting site through this (paired
    /// with a trace stall-end event of the same length), which is what
    /// makes the trace subsystem's stall-attribution timeline reconcile
    /// exactly with this breakdown.
    pub fn add_cycles(&mut self, cause: StallCause, cycles: u64) {
        match cause {
            StallCause::Memory => self.memory += cycles,
            StallCause::Control => self.control += cycles,
            StallCause::Structural => self.structural += cycles,
        }
    }

    /// The count attributed to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::Memory => self.memory,
            StallCause::Control => self.control,
            StallCause::Structural => self.structural,
        }
    }

    /// Percentage share of each cause `(memory, control, structural)`;
    /// all zeros when no stalls were recorded.
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.total();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.memory as f64 / t * 100.0,
            self.control as f64 / t * 100.0,
            self.structural as f64 / t * 100.0,
        )
    }
}

impl Add for StallBreakdown {
    type Output = StallBreakdown;

    fn add(self, rhs: StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            memory: self.memory + rhs.memory,
            control: self.control + rhs.control,
            structural: self.structural + rhs.structural,
        }
    }
}

impl AddAssign for StallBreakdown {
    fn add_assign(&mut self, rhs: StallBreakdown) {
        *self = *self + rhs;
    }
}

/// Per-component activity counters consumed by the energy model.
///
/// DiAG populates the PE/lane/cluster counters; the baseline populates the
/// frontend counters. Cache counters are populated by both from the shared
/// memory subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Cycles in which at least one PE (or FU) was executing.
    pub busy_cycles: u64,
    /// Sum over cycles of the number of actively-executing PEs (DiAG) or
    /// occupied functional units (baseline).
    pub pe_active_cycles: u64,
    /// Sum over cycles of PEs holding a loaded instruction (powered
    /// register-lane segments in DiAG).
    pub pe_resident_cycles: u64,
    /// FPU-active cycles (clock-gated otherwise, paper §6.1.3).
    pub fpu_active_cycles: u64,
    /// Integer ALU operations executed.
    pub int_ops: u64,
    /// Floating-point operations executed.
    pub fp_ops: u64,
    /// Loads issued to the memory subsystem.
    pub loads: u64,
    /// Stores issued to the memory subsystem.
    pub stores: u64,
    /// Register-lane write events (DiAG) / register-file writes (baseline).
    pub reg_writes: u64,
    /// Register-lane segment traversals (DiAG only): value transported
    /// across one buffered lane segment.
    pub lane_transports: u64,
    /// Memory-lane (store-forwarding) hits (DiAG only).
    pub memlane_hits: u64,
    /// Shared 512-bit bus beats (I-line loads + register-file transfers).
    pub bus_beats: u64,
    /// Instruction cache-line fetches.
    pub line_fetches: u64,
    /// Individual instruction decodes.
    pub decodes: u64,
    /// Instructions that executed from an already-loaded datapath (DiAG
    /// reuse, paper §4.3.2) — no fetch or decode was needed.
    pub reuse_commits: u64,
    /// Rename operations (baseline only).
    pub renames: u64,
    /// Issue-queue dispatches (baseline only).
    pub dispatches: u64,
    /// Issue events (baseline only).
    pub issues: u64,
    /// Reorder-buffer writes (baseline only).
    pub rob_writes: u64,
    /// Branch-predictor lookups (baseline only).
    pub bpred_lookups: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
}

macro_rules! sum_fields {
    ($a:expr, $b:expr; $($f:ident),* $(,)?) => {
        Activity { $($f: $a.$f + $b.$f),* }
    };
}

impl Add for Activity {
    type Output = Activity;

    fn add(self, rhs: Activity) -> Activity {
        sum_fields!(self, rhs;
            busy_cycles, pe_active_cycles, pe_resident_cycles, fpu_active_cycles,
            int_ops, fp_ops, loads, stores, reg_writes, lane_transports,
            memlane_hits, bus_beats, line_fetches, decodes, reuse_commits,
            renames, dispatches, issues, rob_writes, bpred_lookups, mispredicts,
            l1d_accesses, l1d_misses, l2_accesses, l2_misses,
        )
    }
}

impl AddAssign for Activity {
    fn add_assign(&mut self, rhs: Activity) {
        *self = *self + rhs;
    }
}

/// What one execution unit — a DiAG ring or an out-of-order core — adds
/// to its run's [`RunStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Component activity.
    pub activity: Activity,
    /// Stall-source cycles (§7.3.2 taxonomy).
    pub stalls: StallBreakdown,
    /// Retired instructions.
    pub committed: u64,
}

/// Complete statistics for one program run on one machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Architecturally committed instructions (all threads).
    pub committed: u64,
    /// Hardware threads that ran.
    pub threads: u64,
    /// Stall-source cycle attribution (paper §7.3.2).
    pub stalls: StallBreakdown,
    /// Component activity for the energy model.
    pub activity: Activity,
    /// Clock frequency in GHz the run is modelled at (paper Table 2).
    pub freq_ghz: f64,
}

impl RunStats {
    /// Committed instructions per cycle across all threads.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Wall-clock execution time in nanoseconds at the modelled frequency.
    pub fn time_ns(&self) -> f64 {
        if self.freq_ghz == 0.0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.freq_ghz
        }
    }

    /// Fraction of committed instructions that needed no fetch/decode
    /// (DiAG datapath reuse).
    pub fn reuse_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.activity.reuse_commits as f64 / self.committed as f64
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles: {}  committed: {}  IPC: {:.3}  threads: {}",
            self.cycles,
            self.committed,
            self.ipc(),
            self.threads
        )?;
        let (m, c, s) = self.stalls.shares();
        writeln!(
            f,
            "stalls: {} (memory {m:.1}%, control {c:.1}%, other {s:.1}%)",
            self.stalls.total()
        )?;
        write!(
            f,
            "fetch lines: {}  decodes: {}  reuse commits: {} ({:.1}%)",
            self.activity.line_fetches,
            self.activity.decodes,
            self.activity.reuse_commits,
            self.reuse_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_shares_sum_to_hundred() {
        let mut s = StallBreakdown::default();
        for _ in 0..60 {
            s.record(StallCause::Memory);
        }
        for _ in 0..30 {
            s.record(StallCause::Control);
        }
        for _ in 0..10 {
            s.record(StallCause::Structural);
        }
        let (m, c, o) = s.shares();
        assert!((m - 60.0).abs() < 1e-9);
        assert!((c - 30.0).abs() < 1e-9);
        assert!((o - 10.0).abs() < 1e-9);
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn empty_shares_are_zero() {
        let s = StallBreakdown::default();
        assert_eq!(s.shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn activity_addition() {
        let a = Activity {
            int_ops: 3,
            fp_ops: 1,
            ..Activity::default()
        };
        let b = Activity {
            int_ops: 4,
            l2_misses: 2,
            ..Activity::default()
        };
        let c = a + b;
        assert_eq!(c.int_ops, 7);
        assert_eq!(c.fp_ops, 1);
        assert_eq!(c.l2_misses, 2);
    }

    #[test]
    fn ipc_and_time() {
        let stats = RunStats {
            cycles: 1000,
            committed: 2500,
            freq_ghz: 2.0,
            ..RunStats::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert!((stats.time_ns() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_ipc_is_zero() {
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    #[test]
    fn reuse_fraction() {
        let stats = RunStats {
            committed: 200,
            activity: Activity {
                reuse_commits: 150,
                ..Activity::default()
            },
            ..RunStats::default()
        };
        assert!((stats.reuse_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let text = RunStats::default().to_string();
        assert!(text.contains("cycles"));
    }

    #[test]
    fn stall_breakdown_add_is_associative_and_commutative() {
        let a = StallBreakdown {
            memory: 3,
            control: 1,
            structural: 0,
        };
        let b = StallBreakdown {
            memory: 10,
            control: 0,
            structural: 7,
        };
        let c = StallBreakdown {
            memory: 0,
            control: 5,
            structural: 2,
        };
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + b, b + a);
        let mut acc = StallBreakdown::default();
        acc += a;
        acc += b;
        acc += c;
        assert_eq!(acc, a + b + c);
        assert_eq!(acc.total(), 28);
    }

    #[test]
    fn activity_add_is_associative() {
        let a = Activity {
            int_ops: 1,
            loads: 2,
            ..Activity::default()
        };
        let b = Activity {
            int_ops: 10,
            bus_beats: 4,
            ..Activity::default()
        };
        let c = Activity {
            decodes: 9,
            int_ops: 100,
            ..Activity::default()
        };
        assert_eq!((a + b) + c, a + (b + c));
        let mut acc = a;
        acc += b;
        assert_eq!(acc, a + b);
    }

    #[test]
    fn add_cycles_matches_repeated_record() {
        let mut bulk = StallBreakdown::default();
        bulk.add_cycles(StallCause::Memory, 7);
        bulk.add_cycles(StallCause::Structural, 2);
        let mut unit = StallBreakdown::default();
        for _ in 0..7 {
            unit.record(StallCause::Memory);
        }
        for _ in 0..2 {
            unit.record(StallCause::Structural);
        }
        assert_eq!(bulk, unit);
        for cause in StallCause::ALL {
            assert_eq!(bulk.get(cause), unit.get(cause));
        }
    }

    #[test]
    fn nonzero_shares_sum_to_hundred() {
        // Awkward totals (prime counts) must still sum to ~100%.
        let s = StallBreakdown {
            memory: 13,
            control: 7,
            structural: 29,
        };
        let (m, c, o) = s.shares();
        assert!((m + c + o - 100.0).abs() < 1e-9);
        assert!(m > 0.0 && c > 0.0 && o > 0.0);
    }

    #[test]
    fn run_stats_display_golden_snapshot() {
        let stats = RunStats {
            cycles: 1000,
            committed: 1500,
            threads: 2,
            stalls: StallBreakdown {
                memory: 60,
                control: 30,
                structural: 10,
            },
            activity: Activity {
                line_fetches: 12,
                decodes: 48,
                reuse_commits: 750,
                ..Activity::default()
            },
            freq_ghz: 2.0,
        };
        let expected = "cycles: 1000  committed: 1500  IPC: 1.500  threads: 2\n\
                        stalls: 100 (memory 60.0%, control 30.0%, other 10.0%)\n\
                        fetch lines: 12  decodes: 48  reuse commits: 750 (50.0%)";
        assert_eq!(stats.to_string(), expected);
    }
}
