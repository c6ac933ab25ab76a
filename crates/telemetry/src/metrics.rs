//! Counters, gauges, and the scoped span timer.
//!
//! All handles are `Clone` and share their cell through an `Arc`, so a
//! service registers once at startup and hands cheap copies to worker
//! threads; recording is a single relaxed atomic op (two for the
//! gauge's high-water mark) with no lock anywhere on the path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::hist::Histogram;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
    high: AtomicU64,
}

/// A level gauge that also tracks its all-time high-water mark.
///
/// `sub` saturates at zero rather than wrapping: a transient
/// over-decrement (e.g. a cancel racing a drain) must not turn the
/// gauge into a ~2^64 reading.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the level, bumping the high-water mark if needed.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`, bumping the high-water mark.
    pub fn add(&self, n: u64) {
        let new = self.0.value.fetch_add(n, Ordering::Relaxed) + n;
        self.0.high.fetch_max(new, Ordering::Relaxed);
    }

    /// Raise the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lower the level by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        // fetch_update never fails with a total closure; discard the
        // Ok(previous) it returns.
        let _ = self
            .0
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Lower the level by one, saturating at zero.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// All-time high-water mark.
    pub fn high_water(&self) -> u64 {
        self.0.high.load(Ordering::Relaxed)
    }

    /// Read level and high-water mark together.
    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            value: self.get(),
            high_water: self.high_water(),
        }
    }
}

/// Point-in-time view of a [`Gauge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Current level.
    pub value: u64,
    /// All-time high-water mark.
    pub high_water: u64,
}

/// A scoped host-time span.
///
/// The timer only consults the clock when telemetry is enabled, so a
/// disabled span costs two branches and no syscall-adjacent work —
/// cheap enough to leave in simulator-facing hot paths unconditionally.
/// Finishing is explicit (not `Drop`-based) so call sites choose the
/// destination histogram and can thread the elapsed time onward.
#[derive(Debug)]
pub struct SpanTimer {
    start: Option<Instant>,
}

impl SpanTimer {
    /// Start a span. When `enabled` is false the span is inert and
    /// [`SpanTimer::finish`] returns `None` without touching the clock.
    pub fn start(enabled: bool) -> SpanTimer {
        SpanTimer {
            start: enabled.then(Instant::now),
        }
    }

    /// Nanoseconds elapsed so far, if the span is live.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX) // lint: allow(unwrap)
        })
    }

    /// End the span, recording the elapsed nanoseconds into `hist`.
    /// Returns the recorded value, or `None` if the span was inert.
    pub fn finish(self, hist: &Histogram) -> Option<u64> {
        let ns = self.elapsed_ns()?;
        hist.record(ns);
        Some(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43, "clones share the cell");
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        g.sub(5);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 7);
        g.set(1);
        assert_eq!(g.high_water(), 7, "set below high water keeps it");
    }

    #[test]
    fn gauge_sub_saturates_at_zero() {
        let g = Gauge::new();
        g.inc();
        g.sub(10);
        assert_eq!(g.get(), 0);
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let h = Histogram::new();
        let t = SpanTimer::start(false);
        assert!(t.elapsed_ns().is_none());
        assert_eq!(t.finish(&h), None);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn live_span_records_once() {
        let h = Histogram::new();
        let t = SpanTimer::start(true);
        let ns = t.finish(&h);
        assert!(ns.is_some());
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, ns.unwrap_or(0));
    }
}
