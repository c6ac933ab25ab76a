//! Functional-unit pools with issue-time arbitration.
//!
//! Pools must grant *out of order*: an old instruction stalled on a cache
//! miss reserves its unit late, and independent younger instructions must
//! not be pushed behind it. Pipelined pools are therefore per-cycle
//! capacity meters; unpipelined pools (dividers) search for a unit free at
//! the requested time.

use diag_isa::FuKind;
use diag_mem::PortMeter;

/// A pool of identical functional units.
#[derive(Debug, Clone)]
pub enum FuPool {
    /// Units accepting one operation per cycle each (fully pipelined).
    Pipelined(PortMeter),
    /// Units blocking for the operation's full latency (dividers).
    Unpipelined {
        /// Next-free time per unit.
        next_free: Vec<u64>,
    },
}

impl FuPool {
    /// Creates a pool of `count` units.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize, pipelined: bool) -> FuPool {
        let mut pool = if pipelined {
            FuPool::Pipelined(PortMeter::new(1))
        } else {
            FuPool::Unpipelined {
                next_free: Vec::new(),
            }
        };
        pool.renew(count);
        pool
    }

    /// Turns this pool into [`FuPool::new`]`(count, ..)` of its kind,
    /// keeping its storage.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn renew(&mut self, count: usize) {
        assert!(count > 0, "a functional-unit pool needs at least one unit");
        match self {
            FuPool::Pipelined(meter) => meter.renew(count),
            FuPool::Unpipelined { next_free } => {
                next_free.clear();
                next_free.resize(count, 0);
            }
        }
    }

    /// Reserves a unit at or after `ready`; returns the issue time.
    pub fn issue(&mut self, ready: u64, latency: u64) -> u64 {
        match self {
            FuPool::Pipelined(meter) => meter.next(ready),
            FuPool::Unpipelined { next_free } => {
                // Prefer a unit already free at `ready`; otherwise take the
                // earliest-free unit.
                let idx = next_free
                    .iter()
                    .position(|&t| t <= ready)
                    .unwrap_or_else(|| {
                        next_free
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &t)| t)
                            .map(|(i, _)| i)
                            // lint: allow(unwrap) — `FuPool::new` asserts at least one unit.
                            .expect("pool is non-empty")
                    });
                let start = ready.max(next_free[idx]);
                next_free[idx] = start + latency;
                start
            }
        }
    }
}

/// All functional units of one out-of-order core.
#[derive(Debug, Clone)]
pub struct FuSet {
    int_alu: FuPool,
    int_mul: FuPool,
    int_div: FuPool,
    fp_alu: FuPool,
    fp_mul: FuPool,
    fp_div: FuPool,
    mem: FuPool,
}

impl FuSet {
    /// Builds the FU set from the baseline configuration.
    pub fn new(cfg: &crate::config::O3Config) -> FuSet {
        FuSet {
            int_alu: FuPool::new(cfg.int_alus, true),
            int_mul: FuPool::new(cfg.int_muls, true),
            int_div: FuPool::new(cfg.int_divs, false),
            fp_alu: FuPool::new(cfg.fp_alus, true),
            fp_mul: FuPool::new(cfg.fp_muls, true),
            fp_div: FuPool::new(cfg.fp_divs, false),
            mem: FuPool::new(cfg.mem_ports, true),
        }
    }

    /// Turns this set into [`FuSet::new`]`(cfg)`, keeping its storage.
    pub fn renew(&mut self, cfg: &crate::config::O3Config) {
        self.int_alu.renew(cfg.int_alus);
        self.int_mul.renew(cfg.int_muls);
        self.int_div.renew(cfg.int_divs);
        self.fp_alu.renew(cfg.fp_alus);
        self.fp_mul.renew(cfg.fp_muls);
        self.fp_div.renew(cfg.fp_divs);
        self.mem.renew(cfg.mem_ports);
    }

    /// Reserves a unit of the right kind at or after `ready`.
    pub fn issue(&mut self, kind: FuKind, ready: u64, latency: u64) -> u64 {
        match kind {
            FuKind::IntAlu | FuKind::None => self.int_alu.issue(ready, latency),
            FuKind::IntMul => self.int_mul.issue(ready, latency),
            FuKind::IntDiv => self.int_div.issue(ready, latency),
            FuKind::FpAlu => self.fp_alu.issue(ready, latency),
            FuKind::FpMul => self.fp_mul.issue(ready, latency),
            FuKind::FpDiv => self.fp_div.issue(ready, latency),
            FuKind::Mem => self.mem.issue(ready, latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_pool_issues_every_cycle() {
        let mut p = FuPool::new(2, true);
        assert_eq!(p.issue(0, 4), 0);
        assert_eq!(p.issue(0, 4), 0); // second unit
        assert_eq!(p.issue(0, 4), 1); // first unit again, next cycle
        assert_eq!(p.issue(0, 4), 1);
        assert_eq!(p.issue(0, 4), 2);
    }

    #[test]
    fn pipelined_pool_grants_out_of_order() {
        let mut p = FuPool::new(1, true);
        assert_eq!(p.issue(100, 4), 100);
        // A younger independent op with early operands is not delayed.
        assert_eq!(p.issue(3, 4), 3);
        assert_eq!(p.issue(3, 4), 4);
    }

    #[test]
    fn unpipelined_pool_blocks_for_latency() {
        let mut p = FuPool::new(1, false);
        assert_eq!(p.issue(0, 20), 0);
        assert_eq!(p.issue(0, 20), 20);
        assert_eq!(p.issue(100, 20), 100);
    }

    #[test]
    fn fu_set_routes_kinds() {
        use diag_isa::FuKind;
        let cfg = crate::config::O3Config::aggressive_8wide();
        let mut fus = FuSet::new(&cfg);
        // The single divider serializes.
        let a = fus.issue(FuKind::IntDiv, 0, 20);
        let b = fus.issue(FuKind::IntDiv, 0, 20);
        assert_eq!(a, 0);
        assert_eq!(b, 20);
        // ALUs are plentiful.
        for _ in 0..cfg.int_alus {
            assert_eq!(fus.issue(FuKind::IntAlu, 5, 1), 5);
        }
        assert_eq!(fus.issue(FuKind::IntAlu, 5, 1), 6);
    }
}
