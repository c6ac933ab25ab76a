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

/// Sets per storage block of a [`CacheArray`] (or every set, in a
/// smaller cache).
const BLOCK_SETS: u32 = 64;

/// The state of one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// Last-use tick; larger = more recently used, at or below the
    /// array's epoch base = invalid.
    lru: u64,
    tag: u32,
    dirty: bool,
}

/// A set-associative, LRU, write-back (timing-only) cache array.
///
/// Line state lives in blocks of 64 sets, each allocated on
/// the first access to one of its sets, so an array costs memory only
/// for the sets its runs touch: a tiny run leaves most of a 4 MiB L2's
/// 65,536 lines unallocated. A line is valid exactly when its LRU stamp
/// is above the epoch base: stamps come from a tick that is incremented
/// before every access, and invalidating every line (a [`flush`] or a
/// [`renew`]) only moves the base up to the current tick, in O(1). Victim
/// choice reads stale stamps as 0, so a renewed array fills and evicts
/// exactly like a fresh one.
///
/// [`flush`]: CacheArray::flush
/// [`renew`]: CacheArray::renew
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
    /// Set → block shift (log2 of the sets per block).
    block_shift: u32,
    /// Line state, `ways` lines per set, set-major, one block of sets
    /// per entry; `None` until a set of the block is first accessed.
    blocks: Vec<Option<Box<[Line]>>>,
    tick: u64,
    /// The tick of the last whole-array invalidation (the epoch base).
    base: u64,
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
        let block_sets = sets.min(BLOCK_SETS);
        CacheArray {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            bank_mask: config.banks - 1,
            block_shift: block_sets.trailing_zeros(),
            blocks: vec![None; (sets / block_sets) as usize],
            tick: 0,
            base: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the array to the state of a fresh [`CacheArray::new`] of
    /// its configuration — every line invalid, statistics zero — in O(1),
    /// keeping its storage.
    pub fn renew(&mut self) {
        self.flush();
        self.stats = CacheStats::default();
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

    /// `set`'s block index and the range of its lines within the block.
    #[inline]
    fn locate(&self, set: u32) -> (usize, std::ops::Range<usize>) {
        let ways = self.config.ways as usize;
        let first = (set & ((1 << self.block_shift) - 1)) as usize * ways;
        ((set >> self.block_shift) as usize, first..first + ways)
    }

    /// Looks up `addr`; on a miss, fills the line (evicting LRU). `write`
    /// marks the line dirty. Returns whether it hit and whether a dirty
    /// eviction occurred.
    #[inline]
    pub fn access(&mut self, addr: u32, write: bool) -> LookupResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let (block, range) = self.locate(set);
        let block_lines = (self.config.ways << self.block_shift) as usize;
        let lines = self.blocks[block]
            .get_or_insert_with(|| vec![Line::default(); block_lines].into_boxed_slice());
        let lines = &mut lines[range];
        let (base, tick) = (self.base, self.tick);
        // Hit path.
        if let Some(line) = lines.iter_mut().find(|l| l.tag == tag && l.lru > base) {
            line.lru = tick;
            line.dirty |= write;
            self.stats.hits += 1;
            return LookupResult {
                hit: true,
                writeback: false,
            };
        }
        // Miss: fill the least recently used way. Invalid ways (stale
        // stamps, read as 0) are always preferred; among equals the first
        // wins.
        self.stats.misses += 1;
        let age = |l: &Line| l.lru.saturating_sub(base);
        let mut victim = 0;
        for w in 1..lines.len() {
            if age(&lines[w]) < age(&lines[victim]) {
                victim = w;
            }
        }
        let line = &mut lines[victim];
        let writeback = line.lru > base && line.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *line = Line {
            lru: tick,
            tag,
            dirty: write,
        };
        LookupResult {
            hit: false,
            writeback,
        }
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let (block, range) = self.locate(set);
        self.blocks[block].as_ref().is_some_and(|lines| {
            lines[range]
                .iter()
                .any(|l| l.tag == tag && l.lru > self.base)
        })
    }

    /// Invalidates the whole cache in O(1) (keeps statistics): every
    /// stamp given so far falls at or below the new epoch base.
    pub fn flush(&mut self) {
        self.base = self.tick;
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
    fn renewed_array_behaves_like_a_fresh_one() {
        // Random traffic on a used array, renewed, must hit, miss, evict
        // and write back exactly like a fresh array: stale lines never
        // hit, and stale ways tie as invalid ones do (first way wins).
        let mut rng = diag_isa::prng::SplitMix64::seed_from_u64(0xCAC4E);
        let mut used = tiny();
        for round in 0..20 {
            let mut fresh = tiny();
            for step in 0..200 {
                let addr = rng.gen_range(0u32..16) * 16;
                let write = rng.gen_range(0u32..3) == 0;
                let (a, b) = (used.access(addr, write), fresh.access(addr, write));
                assert_eq!(a, b, "round {round}, step {step}, addr {addr:#x}");
                assert_eq!(used.probe(addr), fresh.probe(addr));
            }
            assert_eq!(used.stats(), fresh.stats());
            used.renew();
            assert_eq!(used.stats(), CacheStats::default());
        }
    }

    #[test]
    fn blocks_are_allocated_on_first_touch() {
        // 4 MiB, 8 ways: 8192 sets in 128 blocks of 64 sets.
        let mut c = CacheArray::new(CacheConfig::l2(4));
        let allocated = |c: &CacheArray| c.blocks.iter().filter(|b| b.is_some()).count();
        assert_eq!((c.blocks.len(), allocated(&c)), (128, 0));
        assert!(!c.probe(0x1000), "probing allocates nothing");
        assert_eq!(allocated(&c), 0);
        // Two sets in one block, then a set in another block.
        assert!(!c.access(0x1000, false).hit);
        assert!(!c.access(0x1040, true).hit);
        assert!(!c.access(0x1000 + 64 * 64, false).hit);
        assert_eq!(allocated(&c), 2);
        assert!(c.access(0x1000, false).hit && c.access(0x1040, false).hit);
        // Nine lines of one set: the ninth evicts the least recent, the
        // dirty 0x1040 touched first.
        let stride = 8192 * 64;
        for i in 1..=8u32 {
            c.access(0x1040 + i * stride, false);
        }
        assert!(!c.probe(0x1040));
        assert_eq!(c.stats().writebacks, 1);
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
