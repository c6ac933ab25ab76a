//! Per-cycle capacity metering without program-order coupling.

/// Cycles of bookkeeping kept live at once. Matches the retention bound
/// of the original hash-map implementation: requests are effectively
/// monotone within a window this large, and grants for cycles that have
/// fallen out of the window behave as if the cycle were empty (exactly
/// what pruning the old map did).
const WINDOW: usize = 1 << 14;

/// Grants at most `width` events per cycle, in any time order — a stalled
/// old request must not delay an independent young one (out-of-order
/// issue ports, LSU ports, cache ports).
///
/// Implemented as a circular per-cycle count window rather than a map
/// keyed by cycle: `next` on the hot path is an array index, never a
/// hash or a heap allocation. The window is allocated on the first grant
/// (most meters of a large machine never grant), and the meter tracks the
/// span of cycles holding grants so sliding and resetting zero only that
/// span, never the whole window.
#[derive(Debug, Clone)]
pub struct PortMeter {
    width: u8,
    /// Per-cycle grant counts for cycles `[base, base + WINDOW)`; the
    /// slot of cycle `t` is `t % WINDOW`. Empty until the first grant.
    counts: Vec<u8>,
    base: u64,
    /// Every non-zero count lies in cycles `[lo, hi]` (empty when
    /// `lo > hi`).
    lo: u64,
    hi: u64,
    horizon: u64,
    granted: u64,
}

impl PortMeter {
    /// Creates a meter of `width` grants per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 255.
    pub fn new(width: usize) -> PortMeter {
        let mut meter = PortMeter {
            width: 1,
            counts: Vec::new(),
            base: 0,
            lo: u64::MAX,
            hi: 0,
            horizon: 0,
            granted: 0,
        };
        meter.renew(width);
        meter
    }

    /// Zeroes the counts of the granted cycles up to `to` and shrinks the
    /// grant span to the cycles after `to`.
    fn clear_through(&mut self, to: u64) {
        let (from, last) = (self.lo, self.hi.min(to));
        if from <= last {
            if last - from >= WINDOW as u64 - 1 {
                self.counts.fill(0);
            } else {
                // The span's slots, as one slice or two where it wraps.
                let a = (from % WINDOW as u64) as usize;
                let b = (last % WINDOW as u64) as usize;
                if a <= b {
                    self.counts[a..=b].fill(0);
                } else {
                    self.counts[a..].fill(0);
                    self.counts[..=b].fill(0);
                }
            }
        }
        if to >= self.hi {
            (self.lo, self.hi) = (u64::MAX, 0);
        } else {
            self.lo = self.lo.max(to + 1);
        }
    }

    /// Slides the window forward so cycle `t` is addressable, zeroing the
    /// slots whose cycles fall out of the past edge.
    fn cover(&mut self, t: u64) {
        let limit = self.base + WINDOW as u64;
        if t < limit {
            return;
        }
        let new_base = t + 1 - WINDOW as u64;
        self.clear_through(new_base - 1);
        self.base = new_base;
    }

    /// Reserves a slot at the earliest cycle ≥ `at` with spare capacity.
    #[inline]
    pub fn next(&mut self, at: u64) -> u64 {
        let mut t = at.max(self.horizon);
        self.granted += 1;
        if t < self.base {
            // The cycle has aged out of the window; its bookkeeping is
            // gone, so the grant is free (same as the pruned map).
            return t;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; WINDOW];
        }
        loop {
            self.cover(t);
            let slot = &mut self.counts[(t % WINDOW as u64) as usize];
            if *slot < self.width {
                *slot += 1;
                self.lo = self.lo.min(t);
                self.hi = self.hi.max(t);
                return t;
            }
            t += 1;
        }
    }

    /// Raises the lower bound for future grants and drops old bookkeeping.
    pub fn prune_before(&mut self, time: u64) {
        if time > self.horizon {
            self.horizon = time;
        }
    }

    /// Total grants made.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Resets timing state, keeping statistics.
    pub fn reset(&mut self) {
        self.clear_through(u64::MAX);
        self.base = 0;
        self.horizon = 0;
    }

    /// Returns the meter to the state of [`PortMeter::new`]`(width)`,
    /// keeping its window if it granted since it was created or last
    /// renewed: zeroes only the span of cycles holding grants. A meter
    /// that went unused gives its window back, so storage reused run
    /// after run holds windows only where the last run granted, as a
    /// fresh machine would.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 255.
    pub fn renew(&mut self, width: usize) {
        assert!((1..=255).contains(&width), "port width out of range");
        if self.granted == 0 {
            self.counts = Vec::new();
        }
        self.reset();
        self.width = width as u8;
        self.granted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_grants() {
        let mut m = PortMeter::new(2);
        assert_eq!(m.next(100), 100);
        assert_eq!(m.next(5), 5);
        assert_eq!(m.next(5), 5);
        assert_eq!(m.next(5), 6);
        assert_eq!(m.next(100), 100);
        assert_eq!(m.next(100), 101);
        assert_eq!(m.granted(), 6);
    }

    #[test]
    fn width_one_serializes_same_cycle() {
        let mut m = PortMeter::new(1);
        assert_eq!(m.next(7), 7);
        assert_eq!(m.next(7), 8);
        assert_eq!(m.next(7), 9);
    }

    #[test]
    fn prune_raises_floor() {
        let mut m = PortMeter::new(1);
        m.next(0);
        m.prune_before(50);
        assert_eq!(m.next(0), 50);
    }

    #[test]
    fn window_slide_keeps_capacity_exact() {
        let mut m = PortMeter::new(1);
        // Fill a cycle far ahead, then come back inside the live window:
        // per-cycle counts are exact there.
        assert_eq!(m.next(1_000_000), 1_000_000);
        assert_eq!(m.next(1_000_000), 1_000_001);
        let t = 1_000_000 + 100;
        assert_eq!(m.next(t), t);
        assert_eq!(m.next(t), t + 1);
    }

    #[test]
    fn requests_behind_the_window_still_grant() {
        let mut m = PortMeter::new(1);
        assert_eq!(m.next(10_000_000), 10_000_000);
        // Bookkeeping for the distant past is gone; the grant costs
        // nothing (the old map pruned those entries the same way).
        assert_eq!(m.next(3), 3);
    }

    /// Reference: a meter whose window is allocated up front, and which
    /// zeroes every slot it slides past and the whole window on reset.
    /// The lazy, span-bounded meter must grant exactly like it.
    struct EagerMeter {
        width: u8,
        counts: Vec<u8>,
        base: u64,
        horizon: u64,
    }

    impl EagerMeter {
        fn next(&mut self, at: u64) -> u64 {
            let mut t = at.max(self.horizon);
            if t < self.base {
                return t;
            }
            loop {
                if t >= self.base + WINDOW as u64 {
                    let new_base = t + 1 - WINDOW as u64;
                    if new_base - self.base >= WINDOW as u64 {
                        self.counts.fill(0);
                    } else {
                        for old in self.base..new_base {
                            self.counts[(old % WINDOW as u64) as usize] = 0;
                        }
                    }
                    self.base = new_base;
                }
                let slot = &mut self.counts[(t % WINDOW as u64) as usize];
                if *slot < self.width {
                    *slot += 1;
                    return t;
                }
                t += 1;
            }
        }
    }

    #[test]
    fn lazy_window_grants_like_an_eager_one() {
        let mut rng = diag_isa::prng::SplitMix64::seed_from_u64(0x3E7E);
        for width in [1usize, 2, 3] {
            let mut lazy = PortMeter::new(width);
            let mut eager = EagerMeter {
                width: width as u8,
                counts: vec![0; WINDOW],
                base: 0,
                horizon: 0,
            };
            let mut now = 0u64;
            for step in 0..20_000 {
                // Mostly near-monotone requests with occasional jumps far
                // ahead, reaches back, prunes, and resets.
                match rng.gen_range(0u32..100) {
                    0 => {
                        lazy.reset();
                        eager.counts.fill(0);
                        eager.base = 0;
                        eager.horizon = 0;
                        now = 0;
                    }
                    1 => now += rng.gen_range(0u64..3 * WINDOW as u64),
                    2 => {
                        let floor = now.saturating_sub(rng.gen_range(0u64..64));
                        lazy.prune_before(floor);
                        eager.horizon = eager.horizon.max(floor);
                    }
                    _ => now += rng.gen_range(0u64..4),
                }
                let at = now.saturating_sub(rng.gen_range(0u64..2 * WINDOW as u64 / 3));
                assert_eq!(lazy.next(at), eager.next(at), "width {width}, step {step}");
            }
        }
    }

    #[test]
    fn renewed_meter_grants_like_a_fresh_one() {
        let mut used = PortMeter::new(1);
        for t in [5, 5, 9, 20_000, 3] {
            used.next(t);
        }
        used.prune_before(40);
        used.renew(2);
        let mut fresh = PortMeter::new(2);
        for t in [0, 0, 0, 7, 7, 7, 30_000, 1] {
            assert_eq!(used.next(t), fresh.next(t), "at {t}");
        }
        assert_eq!(used.granted(), fresh.granted());
        // Used since the last renew: the window stays; unused: it goes.
        used.renew(2);
        assert_eq!(used.counts.len(), WINDOW);
        used.renew(2);
        assert!(used.counts.is_empty());
    }

    #[test]
    fn unused_meter_allocates_no_window() {
        let mut m = PortMeter::new(1);
        m.reset();
        m.prune_before(10);
        assert!(m.counts.is_empty());
        m.next(3);
        assert_eq!(m.counts.len(), WINDOW);
    }

    #[test]
    #[should_panic(expected = "port width")]
    fn zero_width_rejected() {
        let _ = PortMeter::new(0);
    }
}
