//! Small timing utilities for the baseline pipeline model.

/// A per-cycle bandwidth limiter: at most `width` events per cycle, in
/// monotone time order (models fetch, issue, and commit widths).
#[derive(Debug, Clone)]
pub struct Bandwidth {
    width: usize,
    last: u64,
    count: usize,
}

impl Bandwidth {
    /// Creates a limiter of `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Bandwidth {
        assert!(width > 0, "bandwidth must be positive");
        Bandwidth {
            width,
            last: 0,
            count: 0,
        }
    }

    /// Reserves a slot at or after `at`; returns the granted cycle.
    pub fn next(&mut self, at: u64) -> u64 {
        let mut t = at.max(self.last);
        if t == self.last && self.count >= self.width {
            t += 1;
        }
        if t > self.last {
            self.last = t;
            self.count = 0;
        }
        self.count += 1;
        t
    }

    /// The most recently granted cycle.
    pub fn last(&self) -> u64 {
        self.last
    }
}

/// An out-of-order per-cycle capacity meter: at most `width` events per
/// cycle, but grants need not be in time order (models the issue stage of
/// an out-of-order core, where a stalled instruction must not delay
/// independent younger instructions). Backed by the sliding count window
/// of [`diag_mem::PortMeter`], so `next` never hashes or allocates on the
/// per-instruction hot path.
#[derive(Debug, Clone)]
pub struct IssueMeter {
    port: diag_mem::PortMeter,
}

impl IssueMeter {
    /// Creates a meter of `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 255.
    pub fn new(width: usize) -> IssueMeter {
        IssueMeter {
            port: diag_mem::PortMeter::new(width),
        }
    }

    /// Turns this meter into [`IssueMeter::new`]`(width)`, keeping its
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 255.
    pub fn renew(&mut self, width: usize) {
        self.port.renew(width);
    }

    /// Reserves a slot at the earliest cycle ≥ `at` with spare capacity.
    pub fn next(&mut self, at: u64) -> u64 {
        self.port.next(at)
    }

    /// Discards bookkeeping for cycles before `time` (no new grant will be
    /// requested before it). Call periodically with a safe lower bound
    /// (e.g. the oldest in-flight instruction's fetch time).
    pub fn prune_before(&mut self, time: u64) {
        self.port.prune_before(time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_meter_allows_out_of_order_grants() {
        let mut m = IssueMeter::new(2);
        assert_eq!(m.next(100), 100);
        // An older slow instruction does not hold back a younger one.
        assert_eq!(m.next(5), 5);
        assert_eq!(m.next(5), 5);
        assert_eq!(m.next(5), 6);
        assert_eq!(m.next(100), 100);
        assert_eq!(m.next(100), 101);
    }

    #[test]
    fn issue_meter_prunes() {
        let mut m = IssueMeter::new(1);
        for t in 0..100 {
            m.next(t);
        }
        m.prune_before(90);
        // Grants below the horizon are clamped up to it.
        assert!(m.next(0) >= 90);
    }

    #[test]
    fn spills_to_next_cycle() {
        let mut b = Bandwidth::new(2);
        assert_eq!(b.next(5), 5);
        assert_eq!(b.next(5), 5);
        assert_eq!(b.next(5), 6);
        assert_eq!(b.next(5), 6);
        assert_eq!(b.next(5), 7);
    }

    #[test]
    fn monotone() {
        let mut b = Bandwidth::new(4);
        assert_eq!(b.next(10), 10);
        assert_eq!(b.next(3), 10);
        assert_eq!(b.next(11), 11);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = Bandwidth::new(0);
    }
}
