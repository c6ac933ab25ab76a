//! Timing-only set-associative cache arrays.
//!
//! A [`CacheArray`] holds tags, LRU state, and dirty bits — no data. The
//! functional value of every location lives in
//! [`MainMemory`](crate::MainMemory); caches determine *when* an access
//! completes, matching the paper's functional-with-delays cache modelling
//! (§7.1).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (the paper uses 64-byte lines throughout).
    pub line_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Access latency in cycles on a hit.
    pub hit_latency: u32,
    /// Number of independently-addressed banks (paper §5.2: banked L1
    /// D-cache with an arbiter for processing-cluster requests).
    pub banks: u32,
}

impl CacheConfig {
    /// A direct-mapped 32 KiB instruction cache with 64-byte lines
    /// (paper §5.1.1 and Table 2).
    pub fn l1i_32k() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 << 10,
            line_bytes: 64,
            ways: 1,
            hit_latency: 1,
            banks: 1,
        }
    }

    /// A banked L1 data cache of the given capacity (paper: 32–128 KiB
    /// depending on configuration, Table 2).
    pub fn l1d(size_kib: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: size_kib << 10,
            line_bytes: 64,
            ways: 4,
            hit_latency: 3,
            banks: 8,
        }
    }

    /// A unified L2 of the given capacity (paper: 4 MiB, Table 2).
    pub fn l2(size_mib: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: size_mib << 20,
            line_bytes: 64,
            ways: 8,
            hit_latency: 18,
            banks: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; zero when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, LRU, write-back (timing-only) cache array.
///
/// Line state lives in parallel primitive vectors allocated zeroed, so a
/// fresh array costs no per-line initialisation and sets that are never
/// touched are never written. A line is valid exactly when its LRU stamp
/// is non-zero: stamps come from a tick that is incremented before every
/// access, and invalidation zeroes them.
#[derive(Debug, Clone)]
pub struct CacheArray {
    config: CacheConfig,
    /// Byte address → line address shift (log2 of the line size).
    line_shift: u32,
    /// Line address → set shift (log2 of the set count).
    set_shift: u32,
    /// Line address → set mask (sets − 1).
    set_mask: u32,
    /// Line address → bank mask (banks − 1).
    bank_mask: u32,
    tags: Vec<u32>,
    /// Last-use tick per line; larger = more recently used, 0 = invalid.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    stats: CacheStats,
}

/// Result of a cache lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room (miss only).
    pub writeback: bool,
}

impl CacheArray {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero ways, or a line size,
    /// set count, or bank count that is not a power of two (every
    /// address is mapped with shifts and masks).
    pub fn new(config: CacheConfig) -> CacheArray {
        assert!(config.ways > 0, "cache must have at least one way");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        let lines = (sets * config.ways) as usize;
        CacheArray {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            bank_mask: config.banks - 1,
            tags: vec![0; lines],
            lru: vec![0; lines],
            dirty: vec![false; lines],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The `(set, tag)` an address maps to.
    #[inline]
    pub fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line_addr = addr >> self.line_shift;
        (line_addr & self.set_mask, line_addr >> self.set_shift)
    }

    /// The bank an address maps to.
    #[inline]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & self.bank_mask
    }

    /// Line slots `base..base + ways` of `addr`'s set, and its tag.
    #[inline]
    fn slots_of(&self, addr: u32) -> (std::ops::Range<usize>, u32) {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.config.ways as usize;
        let base = set as usize * ways;
        (base..base + ways, tag)
    }

    /// Looks up `addr`; on a miss, fills the line (evicting LRU). `write`
    /// marks the line dirty. Returns whether it hit and whether a dirty
    /// eviction occurred.
    #[inline]
    pub fn access(&mut self, addr: u32, write: bool) -> LookupResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let (slots, tag) = self.slots_of(addr);
        let tags = &mut self.tags[slots.clone()];
        let lru = &mut self.lru[slots.clone()];
        let dirty = &mut self.dirty[slots];
        // Hit path.
        if let Some(way) = (0..tags.len()).find(|&w| tags[w] == tag && lru[w] != 0) {
            lru[way] = self.tick;
            dirty[way] |= write;
            self.stats.hits += 1;
            return LookupResult {
                hit: true,
                writeback: false,
            };
        }
        // Miss: fill the least recently used way. Invalid ways (stamp 0)
        // are always preferred; among equals the first wins.
        self.stats.misses += 1;
        let mut victim = 0;
        for w in 1..lru.len() {
            if lru[w] < lru[victim] {
                victim = w;
            }
        }
        let writeback = lru[victim] != 0 && dirty[victim];
        if writeback {
            self.stats.writebacks += 1;
        }
        tags[victim] = tag;
        lru[victim] = self.tick;
        dirty[victim] = write;
        LookupResult {
            hit: false,
            writeback,
        }
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn probe(&self, addr: u32) -> bool {
        let (slots, tag) = self.slots_of(addr);
        slots
            .into_iter()
            .any(|i| self.tags[i] == tag && self.lru[i] != 0)
    }

    /// Invalidates the whole cache (keeps statistics).
    pub fn flush(&mut self) {
        self.lru.fill(0);
        self.dirty.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets, 2 ways, 16-byte lines = 64 bytes.
        CacheArray::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
            hit_latency: 1,
            banks: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10C, false).hit); // same line
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr even): 0x00, 0x40, 0x80.
        c.access(0x00, false);
        c.access(0x40, false);
        c.access(0x00, false); // touch 0x00, making 0x40 LRU
        c.access(0x80, false); // evicts 0x40
        assert!(c.probe(0x00));
        assert!(!c.probe(0x40));
        assert!(c.probe(0x80));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0x00, true); // dirty
        c.access(0x40, false);
        c.access(0x80, false); // evicts dirty 0x00
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x00, true); // now dirty via hit
        c.access(0x40, false);
        c.access(0x80, false); // evicts 0x00 → writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sets_and_banks() {
        let cfg = CacheConfig::l1d(64);
        assert_eq!(cfg.sets(), 64 * 1024 / (64 * 4));
        let c = CacheArray::new(cfg);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(64), 1);
        assert_eq!(c.bank_of(64 * 8), 0);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = CacheArray::new(CacheConfig {
            size_bytes: 32,
            line_bytes: 16,
            ways: 1,
            hit_latency: 1,
            banks: 1,
        });
        // Two lines mapping to the same set ping-pong.
        assert!(!c.access(0x00, false).hit);
        assert!(!c.access(0x20, false).hit);
        assert!(!c.access(0x00, false).hit);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x00, false);
        assert!(c.probe(0x00));
        c.flush();
        assert!(!c.probe(0x00));
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheArray::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 0,
            hit_latency: 1,
            banks: 1,
        });
    }
}
