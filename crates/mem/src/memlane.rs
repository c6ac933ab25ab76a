//! Memory lanes: DiAG's cluster-level store-forwarding structure.
//!
//! The paper (§5.2) describes memory lanes as "essentially set-associative
//! register lanes that transport memory data from PE to PE and enable
//! access reordering. Data written by stores are temporarily stored in
//! memory lanes that are passed to succeeding clusters and PEs for
//! immediate access."
//!
//! Functionally, [`MemLane`] is an exact store buffer with timestamps:
//! every pending store is recorded with its issue time, and loads query it
//! for both *disambiguation* (a load may not execute before an older
//! overlapping store has issued) and *forwarding* (a fully-covered load
//! receives the value in one cycle). The timing benefit is granted only
//! within the configured capacity window — older entries still constrain
//! ordering but pay the cache latency — modelling a bounded hardware
//! structure without coupling capacity to correctness.
//!
//! Lookups are serviced from a per-word index while every buffered store
//! is a word-aligned full word (the overwhelmingly common case), so a
//! load costs one hash probe instead of a scan of the whole buffer; any
//! buffered sub-word or unaligned store falls the structure back to the
//! exact linear scan.

use std::collections::VecDeque;

use crate::fxmap::FxHashMap;

/// One buffered store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreEntry {
    addr: u32,
    size: u32,
    value: u32,
    time: u64,
}

impl StoreEntry {
    /// Whether this entry is an aligned full-word store (indexable).
    fn is_word(&self) -> bool {
        self.size == 4 && self.addr & 3 == 0
    }
}

/// Result of a memory-lane load lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneLookup {
    /// Fully covered by a buffered store within the capacity window —
    /// the value forwards in one cycle once the store has issued.
    HitFast {
        /// Forwarded value (low `size` bytes).
        value: u32,
        /// Issue time of the forwarding store.
        store_time: u64,
    },
    /// Fully covered, but by an entry beyond the capacity window — the
    /// value is correct but the access pays the cache latency, after the
    /// store has issued.
    HitSlow {
        /// Forwarded value.
        value: u32,
        /// Issue time of the forwarding store.
        store_time: u64,
    },
    /// Partially overlapped by a younger store: the load must wait for
    /// that store to issue, then access the cache.
    Conflict {
        /// Issue time of the conflicting store.
        store_time: u64,
    },
    /// No overlapping buffered store — access the cache freely.
    Miss,
}

/// A cluster-level store-forwarding and disambiguation buffer (paper §5.2).
///
/// The default lane is empty, with a fast window of 0 entries.
#[derive(Debug, Clone, Default)]
pub struct MemLane {
    /// Buffered stores, oldest first; trimming pops the front.
    entries: VecDeque<StoreEntry>,
    capacity: usize,
    /// Sequence number of `entries[0]` (sequence numbers are assigned per
    /// push and survive front-drains, so the word index below can refer
    /// to entries stably).
    base_seq: u64,
    /// Youngest buffered store per word address (`addr >> 2`), by
    /// sequence number. Entries whose sequence has been drained are
    /// stale and mean "no buffered store to this word" — drains remove
    /// oldest-first, so if the *youngest* store to a word is gone, every
    /// other store to it is gone too.
    word_index: FxHashMap<u32, u64>,
    /// Number of buffered stores that are not aligned full words. While
    /// zero, the word index answers every within-word load exactly.
    irregular: usize,
}

impl MemLane {
    /// Creates a memory lane with `capacity` fast-forwarding entries.
    pub fn new(capacity: usize) -> MemLane {
        let mut lane = MemLane::default();
        lane.renew(capacity);
        lane
    }

    /// Returns the lane to the state of [`MemLane::new`]`(capacity)`,
    /// keeping its buffer and index storage.
    pub fn renew(&mut self, capacity: usize) {
        self.clear();
        self.capacity = capacity;
        self.base_seq = 0;
    }

    /// Fast-window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a store issued at `time` (call in program order).
    #[inline]
    pub fn push_store(&mut self, addr: u32, size: u32, value: u32, time: u64) {
        let entry = StoreEntry {
            addr,
            size,
            value,
            time,
        };
        if entry.is_word() {
            let seq = self.base_seq + self.entries.len() as u64;
            self.word_index.insert(addr >> 2, seq);
        } else {
            self.irregular += 1;
        }
        self.entries.push_back(entry);
    }

    /// Classifies a covering entry at buffer position `pos` as fast or
    /// slow forwarding and extracts the loaded bytes.
    fn hit(&self, e: &StoreEntry, pos: usize, addr: u32, size: u32) -> LaneLookup {
        let shift = (addr - e.addr) * 8;
        let mask = if size == 4 {
            u32::MAX
        } else {
            (1u32 << (size * 8)) - 1
        };
        let value = (e.value >> shift) & mask;
        let fast_floor = self.entries.len().saturating_sub(self.capacity);
        if pos >= fast_floor {
            LaneLookup::HitFast {
                value,
                store_time: e.time,
            }
        } else {
            LaneLookup::HitSlow {
                value,
                store_time: e.time,
            }
        }
    }

    /// Queries the youngest overlapping store for a load of `size` bytes
    /// at `addr`.
    #[inline]
    pub fn lookup(&self, addr: u32, size: u32) -> LaneLookup {
        // Fast path: every buffered store is an aligned word, and the
        // load does not cross a word boundary, so the only stores that
        // can overlap it are stores to its word — all of which cover it.
        // One index probe replaces the scan.
        if self.irregular == 0 && (addr & 3) + size <= 4 {
            return match self.word_index.get(&(addr >> 2)) {
                Some(&seq) if seq >= self.base_seq => {
                    let pos = (seq - self.base_seq) as usize;
                    let e = self.entries[pos];
                    self.hit(&e, pos, addr, size)
                }
                _ => LaneLookup::Miss,
            };
        }
        let fast_floor = self.entries.len().saturating_sub(self.capacity);
        for (idx, e) in self.entries.iter().enumerate().rev() {
            let covers = e.addr <= addr && addr + size <= e.addr + e.size;
            if covers {
                let shift = (addr - e.addr) * 8;
                let mask = if size == 4 {
                    u32::MAX
                } else {
                    (1u32 << (size * 8)) - 1
                };
                let value = (e.value >> shift) & mask;
                return if idx >= fast_floor {
                    LaneLookup::HitFast {
                        value,
                        store_time: e.time,
                    }
                } else {
                    LaneLookup::HitSlow {
                        value,
                        store_time: e.time,
                    }
                };
            }
            let overlaps = e.addr < addr + size && addr < e.addr + e.size;
            if overlaps {
                return LaneLookup::Conflict { store_time: e.time };
            }
        }
        LaneLookup::Miss
    }

    /// Clears buffered stores (on cluster free / thread completion).
    pub fn clear(&mut self) {
        self.base_seq += self.entries.len() as u64;
        self.entries.clear();
        self.word_index.clear();
        self.irregular = 0;
    }

    /// Drops the oldest entries down to a bounded multiple of the fast
    /// window (periodic trim to bound memory in very long runs).
    pub fn trim(&mut self) {
        let excess = self.entries.len().saturating_sub(self.capacity * 4);
        for _ in 0..excess {
            if let Some(e) = self.entries.pop_front() {
                self.irregular -= usize::from(!e.is_word());
            }
        }
        self.base_seq += excess as u64;
        // Stale index entries are answered lazily (seq below base_seq);
        // sweep them out only once the index has grown to a small multiple
        // of the live set, which keeps the sweep O(1) amortized per store
        // while holding the map cache-resident for lookups.
        if self.word_index.len() > (self.capacity * 8).max(256) {
            let floor = self.base_seq;
            self.word_index.retain(|_, &mut seq| seq >= floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_matching_word() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 0xAABB_CCDD, 17);
        assert_eq!(
            lane.lookup(0x100, 4),
            LaneLookup::HitFast {
                value: 0xAABB_CCDD,
                store_time: 17
            }
        );
    }

    #[test]
    fn forwards_subword() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 0xAABB_CCDD, 0);
        match lane.lookup(0x100, 1) {
            LaneLookup::HitFast { value, .. } => assert_eq!(value, 0xDD),
            other => panic!("{other:?}"),
        }
        match lane.lookup(0x102, 2) {
            LaneLookup::HitFast { value, .. } => assert_eq!(value, 0xAABB),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn youngest_store_wins() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 1, 10);
        lane.push_store(0x100, 4, 2, 20);
        assert_eq!(
            lane.lookup(0x100, 4),
            LaneLookup::HitFast {
                value: 2,
                store_time: 20
            }
        );
    }

    #[test]
    fn partial_overlap_conflicts() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 7, 5);
        lane.push_store(0x102, 2, 9, 6);
        assert_eq!(
            lane.lookup(0x100, 4),
            LaneLookup::Conflict { store_time: 6 }
        );
        assert_eq!(
            lane.lookup(0x102, 2),
            LaneLookup::HitFast {
                value: 9,
                store_time: 6
            }
        );
    }

    #[test]
    fn miss_on_disjoint() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 7, 0);
        assert_eq!(lane.lookup(0x200, 4), LaneLookup::Miss);
        assert_eq!(lane.lookup(0x104, 4), LaneLookup::Miss);
    }

    #[test]
    fn old_entries_hit_slow() {
        let mut lane = MemLane::new(2);
        lane.push_store(0x100, 4, 1, 1);
        lane.push_store(0x200, 4, 2, 2);
        lane.push_store(0x300, 4, 3, 3);
        assert!(matches!(
            lane.lookup(0x100, 4),
            LaneLookup::HitSlow { value: 1, .. }
        ));
        assert!(matches!(
            lane.lookup(0x300, 4),
            LaneLookup::HitFast { value: 3, .. }
        ));
    }

    #[test]
    fn clear_and_trim() {
        let mut lane = MemLane::new(2);
        for i in 0..100 {
            lane.push_store(i * 4, 4, i, i as u64);
        }
        lane.trim();
        assert!(lane.len() <= 8);
        lane.clear();
        assert!(lane.is_empty());
        assert_eq!(lane.lookup(0, 4), LaneLookup::Miss);
    }

    #[test]
    fn renewed_lane_is_empty_with_its_new_capacity() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 1, 7, 3);
        lane.renew(1);
        assert!(lane.is_empty());
        assert_eq!(lane.capacity(), 1);
        assert_eq!(lane.lookup(0x100, 1), LaneLookup::Miss);
        lane.push_store(0x200, 4, 1, 1);
        lane.push_store(0x204, 4, 2, 2);
        assert!(matches!(lane.lookup(0x200, 4), LaneLookup::HitSlow { .. }));
        assert!(matches!(lane.lookup(0x204, 4), LaneLookup::HitFast { .. }));
    }

    #[test]
    fn trim_keeps_the_youngest_stores_in_order() {
        // Sub-word stores force the linear scan; after trimming, every
        // surviving store still answers, the youngest per address wins,
        // and the trimmed ones are gone.
        let mut lane = MemLane::new(2);
        for i in 0..20u32 {
            lane.push_store(0x100 + (i % 4), 1, i, u64::from(i));
            lane.trim();
        }
        assert_eq!(lane.len(), 8);
        for a in 0..4u32 {
            let youngest = 16 + a;
            match lane.lookup(0x100 + a, 1) {
                LaneLookup::HitFast { value, .. } | LaneLookup::HitSlow { value, .. } => {
                    assert_eq!(value, youngest)
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn drained_word_index_entries_are_misses() {
        let mut lane = MemLane::new(2);
        for i in 0..100u32 {
            lane.push_store(i * 4, 4, i, i as u64);
            lane.trim();
        }
        // Early stores have been trimmed away: their words must miss even
        // though the index once knew them.
        assert_eq!(lane.lookup(0, 4), LaneLookup::Miss);
        assert_eq!(lane.lookup(4, 4), LaneLookup::Miss);
        // The youngest survivors still forward.
        assert!(matches!(
            lane.lookup(99 * 4, 4),
            LaneLookup::HitFast { value: 99, .. }
        ));
    }

    #[test]
    fn irregular_store_disables_fast_path_exactly() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 0x1111_1111, 1);
        lane.push_store(0x101, 1, 0x22, 2); // unaligned byte store
                                            // The byte store partially overlaps a word load → conflict from
                                            // the youngest overlapping entry.
        assert_eq!(
            lane.lookup(0x100, 4),
            LaneLookup::Conflict { store_time: 2 }
        );
        // The byte itself forwards.
        assert!(matches!(
            lane.lookup(0x101, 1),
            LaneLookup::HitFast { value: 0x22, .. }
        ));
    }

    #[test]
    fn word_crossing_load_scans() {
        let mut lane = MemLane::new(8);
        lane.push_store(0x100, 4, 7, 5);
        // A halfword load crossing the word boundary cannot be covered by
        // the word store → conflict.
        assert_eq!(
            lane.lookup(0x103, 2),
            LaneLookup::Conflict { store_time: 5 }
        );
    }
}
