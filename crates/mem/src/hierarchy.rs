//! Two-level cache hierarchy timing with banked contention.
//!
//! The paper's memory subsystem (§5.2) routes cluster-level requests
//! through a banked L1 D-cache (with an arbiter) backed by a large unified
//! L2. [`SharedLevel`] models the L2 + DRAM; [`PrivateCache`] models one
//! L1 front-end (per DiAG dataflow ring, or per baseline core). All state
//! is timing-only; data lives in [`crate::MainMemory`].

use std::cell::RefCell;
use std::rc::Rc;

use diag_trace::{Event, EventKind, Tracer, Track};

use crate::cache::{CacheArray, CacheConfig, CacheStats};
use crate::meter::PortMeter;

/// An out-of-order pool of units each occupied for a fixed time per grant
/// (DRAM channels). A request at a late time never delays an independent
/// earlier request.
#[derive(Debug, Clone)]
struct OccupancyPool {
    next_free: Vec<u64>,
}

impl OccupancyPool {
    fn new(units: usize) -> OccupancyPool {
        OccupancyPool {
            next_free: vec![0; units],
        }
    }

    /// Occupies the first unit free at `ready`, or else the first of the
    /// earliest-freeing units; returns the cycle the grant starts.
    fn issue(&mut self, ready: u64, occupancy: u64) -> u64 {
        let free = &self.next_free;
        let idx = free.iter().position(|&t| t <= ready).unwrap_or_else(|| {
            (1..free.len()).fold(0, |best, i| if free[i] < free[best] { i } else { best })
        });
        let start = ready.max(self.next_free[idx]);
        self.next_free[idx] = start + occupancy;
        start
    }

    /// Frees every unit, as at construction.
    fn renew(&mut self) {
        self.next_free.fill(0);
    }
}

/// DRAM access latency in cycles used when the L2 misses (at the paper's
/// 2 GHz simulation clock; ~50 ns).
pub const DRAM_LATENCY: u32 = 100;
/// Cycles a DRAM channel stays occupied per line transfer.
const DRAM_OCCUPANCY: u64 = 8;
/// Independent DRAM channels.
const DRAM_CHANNELS: usize = 2;

/// The shared last-level cache plus DRAM behind it.
#[derive(Debug)]
pub struct SharedLevel {
    cache: CacheArray,
    banks: Vec<PortMeter>,
    dram: OccupancyPool,
    dram_latency: u32,
    dram_accesses: u64,
}

/// Completion information for one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOutcome {
    /// Cycle at which the data is available (loads) or the access is
    /// globally performed (stores).
    pub ready_at: u64,
    /// Whether the first-level cache hit.
    pub l1_hit: bool,
    /// Whether the shared level hit (only meaningful when `l1_hit` is
    /// false).
    pub l2_hit: bool,
}

impl SharedLevel {
    /// Creates a shared level with the given L2 geometry and default DRAM
    /// latency.
    pub fn new(config: CacheConfig) -> SharedLevel {
        SharedLevel::with_dram_latency(config, DRAM_LATENCY)
    }

    /// Creates a shared level with an explicit DRAM latency.
    pub fn with_dram_latency(config: CacheConfig, dram_latency: u32) -> SharedLevel {
        SharedLevel {
            banks: (0..config.banks).map(|_| PortMeter::new(1)).collect(),
            cache: CacheArray::new(config),
            dram: OccupancyPool::new(DRAM_CHANNELS),
            dram_latency,
            dram_accesses: 0,
        }
    }

    /// Returns the level to the state of a fresh one of its geometry —
    /// every line invalid, every bank and DRAM channel idle, counts zero
    /// — keeping its storage (see [`CacheArray::renew`]).
    pub fn renew(&mut self) {
        self.cache.renew();
        for bank in &mut self.banks {
            bank.renew(1);
        }
        self.dram.renew();
        self.dram_accesses = 0;
    }

    /// The L2 geometry.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Wraps this level for sharing between multiple private caches.
    pub fn into_shared(self) -> Rc<RefCell<SharedLevel>> {
        Rc::new(RefCell::new(self))
    }

    /// Services an access arriving at cycle `now`; returns `(ready_at, hit)`.
    pub fn access(&mut self, addr: u32, write: bool, now: u64) -> (u64, bool) {
        let bank = self.cache.bank_of(addr) as usize;
        let start = self.banks[bank].next(now);
        let result = self.cache.access(addr, write);
        let after_tags = start + self.cache.config().hit_latency as u64;
        if result.hit {
            (after_tags, true)
        } else {
            self.dram_accesses += 1;
            let dram_start = self.dram.issue(after_tags, DRAM_OCCUPANCY);
            (dram_start + self.dram_latency as u64, false)
        }
    }

    /// L2 statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of line transfers that went all the way to DRAM.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }
}

/// One private first-level data cache in front of the shared level.
#[derive(Debug)]
pub struct PrivateCache {
    cache: CacheArray,
    banks: Vec<PortMeter>,
    next: Rc<RefCell<SharedLevel>>,
}

impl PrivateCache {
    /// Creates an L1 backed by `next`.
    pub fn new(config: CacheConfig, next: Rc<RefCell<SharedLevel>>) -> PrivateCache {
        PrivateCache {
            banks: (0..config.banks).map(|_| PortMeter::new(1)).collect(),
            cache: CacheArray::new(config),
            next,
        }
    }

    /// Returns the cache to the state of a fresh one of its geometry in
    /// front of the same shared level, keeping its storage (see
    /// [`CacheArray::renew`]).
    pub fn renew(&mut self) {
        self.cache.renew();
        for bank in &mut self.banks {
            bank.renew(1);
        }
    }

    /// The L1 geometry.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Services an access arriving at cycle `now`.
    pub fn access(&mut self, addr: u32, write: bool, now: u64) -> MemOutcome {
        let bank = self.cache.bank_of(addr) as usize;
        let start = self.banks[bank].next(now);
        let result = self.cache.access(addr, write);
        let after_tags = start + self.cache.config().hit_latency as u64;
        if result.hit {
            MemOutcome {
                ready_at: after_tags,
                l1_hit: true,
                l2_hit: false,
            }
        } else {
            let (ready_at, l2_hit) = self.next.borrow_mut().access(addr, write, after_tags);
            MemOutcome {
                ready_at,
                l1_hit: false,
                l2_hit,
            }
        }
    }

    /// [`PrivateCache::access`] with trace instrumentation: emits a
    /// level-1 [`EventKind::CacheAccess`] at the access cycle and, on an
    /// L1 miss, a level-2 one recording whether the shared level hit.
    /// With a disabled tracer this is exactly `access`.
    pub fn access_traced(
        &mut self,
        addr: u32,
        write: bool,
        now: u64,
        tracer: &Tracer,
        thread: u32,
    ) -> MemOutcome {
        let out = self.access(addr, write, now);
        tracer.emit(|| Event {
            cycle: now,
            thread,
            track: Track::Cache(1),
            kind: EventKind::CacheAccess {
                level: 1,
                write,
                hit: out.l1_hit,
            },
        });
        if !out.l1_hit {
            tracer.emit(|| Event {
                cycle: now,
                thread,
                track: Track::Cache(2),
                kind: EventKind::CacheAccess {
                    level: 2,
                    write,
                    hit: out.l2_hit,
                },
            });
        }
        out
    }

    /// L1 statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u32) -> bool {
        self.cache.probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> (PrivateCache, Rc<RefCell<SharedLevel>>) {
        let l2 = SharedLevel::new(CacheConfig {
            size_bytes: 4 << 10,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
            banks: 2,
        })
        .into_shared();
        let l1 = PrivateCache::new(
            CacheConfig {
                size_bytes: 256,
                line_bytes: 64,
                ways: 2,
                hit_latency: 2,
                banks: 2,
            },
            Rc::clone(&l2),
        );
        (l1, l2)
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let (mut l1, _l2) = hierarchy();
        let out = l1.access(0x1000, false, 0);
        assert!(!out.l1_hit);
        assert!(!out.l2_hit);
        // tags(2) + l2 tags(10) + dram(100)
        assert_eq!(out.ready_at, 2 + 10 + DRAM_LATENCY as u64);
    }

    #[test]
    fn l1_hit_is_fast() {
        let (mut l1, _l2) = hierarchy();
        l1.access(0x1000, false, 0);
        let out = l1.access(0x1000, false, 200);
        assert!(out.l1_hit);
        assert_eq!(out.ready_at, 202);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let (mut l1, _l2) = hierarchy();
        // L1: 256 B / 64 B / 2 ways = 2 sets. Lines 0x0000, 0x0080, 0x0100
        // all map to set 0; the third fill evicts 0x0000 from L1 but L2
        // still holds it.
        l1.access(0x0000, false, 0);
        l1.access(0x0080, false, 500);
        l1.access(0x0100, false, 1000);
        let out = l1.access(0x0000, false, 2000);
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert_eq!(out.ready_at, 2000 + 2 + 10);
    }

    #[test]
    fn bank_contention_serializes() {
        let (mut l1, _l2) = hierarchy();
        // Warm two lines in the same L1 bank (banks=2, so line addresses
        // with the same parity share a bank).
        l1.access(0x0000, false, 0);
        l1.access(0x0080, false, 500);
        let a = l1.access(0x0000, false, 1000);
        let b = l1.access(0x0080, false, 1000);
        assert!(a.l1_hit && b.l1_hit);
        // Same bank: second access starts one cycle later.
        assert_eq!(b.ready_at, a.ready_at + 1);
        // Different bank proceeds in parallel.
        l1.access(0x0040, false, 2000);
        let c = l1.access(0x0040, false, 3000);
        let d = l1.access(0x0000, false, 3000);
        assert_eq!(c.ready_at, 3002);
        assert_eq!(d.ready_at, 3002);
    }

    #[test]
    fn shared_l2_sees_both_l1s() {
        let l2 = SharedLevel::new(CacheConfig {
            size_bytes: 4 << 10,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
            banks: 2,
        })
        .into_shared();
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            hit_latency: 2,
            banks: 2,
        };
        let mut a = PrivateCache::new(cfg, Rc::clone(&l2));
        let mut b = PrivateCache::new(cfg, Rc::clone(&l2));
        a.access(0x4000, false, 0); // fills L2
        let out = b.access(0x4000, false, 1000);
        assert!(!out.l1_hit);
        assert!(out.l2_hit, "second core should hit in shared L2");
        assert_eq!(l2.borrow().dram_accesses(), 1);
    }

    #[test]
    fn traced_access_emits_per_level_events() {
        use diag_trace::{Tracer, VecSink};

        let (mut l1, _l2) = hierarchy();
        let sink = VecSink::shared();
        let tracer = Tracer::to_shared(sink.clone());
        // Cold miss: L1 miss + L2 miss events.
        let cold = l1.access_traced(0x1000, false, 0, &tracer, 0);
        assert!(!cold.l1_hit);
        // Warm hit: one L1 event only.
        let warm = l1.access_traced(0x1000, false, 500, &tracer, 0);
        assert!(warm.l1_hit);
        let events = sink.borrow().events().to_vec();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].kind,
            EventKind::CacheAccess {
                level: 1,
                hit: false,
                ..
            }
        ));
        assert_eq!(events[1].track, Track::Cache(2));
        assert!(matches!(
            events[2].kind,
            EventKind::CacheAccess {
                level: 1,
                hit: true,
                ..
            }
        ));
        // Timing identical to the untraced path on a fresh hierarchy.
        let (mut plain, _l2b) = hierarchy();
        assert_eq!(plain.access(0x1000, false, 0), cold);
        assert_eq!(plain.access(0x1000, false, 500), warm);
    }

    #[test]
    fn renewed_hierarchy_times_like_a_fresh_one() {
        let trace = [(0x0000, false, 0), (0x0040, true, 0), (0x0080, false, 0)];
        let (mut l1, l2) = hierarchy();
        for &(addr, write, now) in &trace {
            l1.access(addr, write, now);
        }
        l2.borrow_mut().renew();
        l1.renew();
        let (mut fresh, fresh_l2) = hierarchy();
        for &(addr, write, now) in &trace {
            assert_eq!(l1.access(addr, write, now), fresh.access(addr, write, now));
        }
        assert_eq!(l1.stats(), fresh.stats());
        assert_eq!(l2.borrow().stats(), fresh_l2.borrow().stats());
        assert_eq!(l2.borrow().dram_accesses(), 3);
    }

    #[test]
    fn dram_channel_contention() {
        let (mut l1, l2) = hierarchy();
        // Three cold misses at once: the first two take the two DRAM
        // channels, the third waits for an occupancy slot.
        let x = l1.access(0x0000, false, 0);
        let y = l1.access(0x0040, false, 0);
        let z = l1.access(0x0080, false, 0);
        assert_eq!(l2.borrow().dram_accesses(), 3);
        assert_eq!(y.ready_at, x.ready_at, "parallel DRAM channels");
        assert!(z.ready_at > x.ready_at, "third miss waits for a channel");
    }
}
