//! Resources shared by every dataflow ring in a DiAG processor: the
//! program and configuration, main memory, the instruction cache, the
//! banked L1 data cache, the unified L2, and the on-chip 512-bit bus
//! (paper §5.1.3, §5.2).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diag_asm::Program;
use diag_mem::{Bus, CacheArray, CacheConfig, MainMemory, PrivateCache, SharedLevel};
use diag_trace::Tracer;

use crate::config::DiagConfig;

/// L2 hit latency charged to an I-cache miss (instruction lines refill
/// from the unified L2).
const L1I_MISS_PENALTY: u64 = 18;

/// What every ring of one DiAG run shares: the program, the
/// configuration and the memory side.
#[derive(Debug)]
pub struct SharedParts {
    /// The program every ring runs.
    pub program: Arc<Program>,
    /// The processor configuration.
    pub config: Arc<DiagConfig>,
    /// Functional memory (all architectural data).
    pub mem: MainMemory,
    /// Direct-mapped L1 instruction cache (§5.1.1).
    pub l1i: CacheArray,
    /// Banked L1 data cache shared by all rings through per-cluster LSUs
    /// (§5.2; "technically a second level cache").
    pub l1d: PrivateCache,
    /// Unified last-level cache + DRAM.
    pub l2: Rc<RefCell<SharedLevel>>,
    /// Shared 512-bit bus for I-lines and register-file transfers.
    pub bus: Bus,
}

impl SharedParts {
    /// Builds the shared memory system for `config`, with `program`
    /// loaded into main memory.
    pub fn new(config: &Arc<DiagConfig>, program: Arc<Program>) -> SharedParts {
        let l2 = SharedLevel::new(l2_config(config)).into_shared();
        let l1d = PrivateCache::new(config.l1d, Rc::clone(&l2));
        SharedParts {
            mem: MainMemory::with_program(&program),
            program,
            config: Arc::clone(config),
            l1i: CacheArray::new(config.l1i),
            l1d,
            l2,
            bus: Bus::new(),
        }
    }

    /// Turns this memory side into [`SharedParts::new`]`(config,
    /// program)` in place: memory is renewed page by page and every cache
    /// in O(1). `config` must have the caches this side was built with
    /// (see [`Diag::same_caches`](crate::Diag::same_caches)); the program
    /// is cloned only if it differs from the one held.
    pub fn reload(&mut self, config: &Arc<DiagConfig>, program: &Program) {
        debug_assert!(
            *self.l1i.config() == config.l1i
                && *self.l1d.config() == config.l1d
                && *self.l2.borrow().config() == l2_config(config),
            "reload needs the caches the memory side was built with"
        );
        if *self.program != *program {
            self.program = Arc::new(program.clone());
        }
        self.config = Arc::clone(config);
        self.mem.renew();
        self.mem.load_program(&self.program);
        self.l1i.renew();
        self.l2.borrow_mut().renew();
        self.l1d.renew();
        self.bus = Bus::new();
    }

    /// Fetches the I-line containing `line_addr` at `now` on behalf of
    /// hardware thread `thread`; returns the cycle at which the line has
    /// been transported to a cluster over the shared bus (before
    /// per-cluster latch and decode), and the cycles spent waiting for the
    /// bus (a structural stall, §7.3.2). Bus arbitration is reported on
    /// `tracer`.
    pub fn fetch_line(
        &mut self,
        line_addr: u32,
        now: u64,
        thread: u32,
        tracer: &Tracer,
    ) -> (u64, u64) {
        let hit = self.l1i.access(line_addr, false).hit;
        let after_icache = now + 1 + if hit { 0 } else { L1I_MISS_PENALTY };
        let granted = self
            .bus
            .request_traced(after_icache, diag_mem::ILINE_BEATS, tracer, thread);
        (granted + diag_mem::ILINE_BEATS, granted - after_icache)
    }
}

/// The L2 geometry of `config`. A configuration without an L2 (I4C2)
/// backs the L1D directly with DRAM: a degenerate one-line "L2" whose
/// hits are impossible in practice models that without a second code
/// path.
fn l2_config(config: &DiagConfig) -> CacheConfig {
    config.l2.unwrap_or(CacheConfig {
        size_bytes: 64,
        line_bytes: 64,
        ways: 1,
        hit_latency: 0,
        banks: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiagConfig;

    fn parts(config: DiagConfig) -> SharedParts {
        let program = diag_asm::assemble("ecall\n").unwrap();
        SharedParts::new(&Arc::new(config), Arc::new(program))
    }

    #[test]
    fn iline_hit_is_fast() {
        let mut shared = parts(DiagConfig::f4c2());
        let off = Tracer::off();
        let (cold, wait) = shared.fetch_line(0x1000, 0, 0, &off);
        assert_eq!(cold, 1 + L1I_MISS_PENALTY + 1);
        assert_eq!(wait, 0);
        let (warm, _) = shared.fetch_line(0x1000, 100, 0, &off);
        assert_eq!(warm, 102);
    }

    #[test]
    fn bus_shared_between_fetches() {
        let mut shared = parts(DiagConfig::f4c2());
        shared.fetch_line(0x1000, 0, 0, &Tracer::off());
        shared.fetch_line(0x1040, 0, 1, &Tracer::off());
        // Two transfers, at least one contended.
        assert_eq!(shared.bus.transfers(), 2);
    }

    #[test]
    fn no_l2_config_still_builds() {
        let shared = parts(DiagConfig::i4c2());
        assert_eq!(shared.l2.borrow().stats().accesses, 0);
    }
}
