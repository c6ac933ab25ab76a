//! The named metric directory and its deterministic snapshot.
//!
//! Registration is get-or-insert keyed by `(name, sorted labels)`:
//! two callers registering the same key receive handles over the same
//! cell, which is what lets `diag-load` connections and FairQueue
//! lanes register lazily without coordinating. The registry mutex is
//! only held during registration and snapshotting — never while
//! recording — and the maps are `BTreeMap`s so a snapshot always lists
//! metrics in the same lexicographic order, which in turn makes both
//! expositions byte-deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge, GaugeSnapshot, SpanTimer};

/// A metric identity: base name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so `{a,b}` and `{b,a}` are the
    /// same metric.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Base metric name (no labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sorted label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Render as `name` or `name{k="v",k2="v2"}` with the given extra
    /// label appended last (used for histogram `le` samples).
    pub(crate) fn render_with(&self, suffix: &str, extra: Option<(&str, &str)>) -> String {
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(&self.name);
        out.push_str(suffix);
        if self.labels.is_empty() && extra.is_none() {
            return out;
        }
        out.push('{');
        let mut first = true;
        for (k, v) in &self.labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&diag_trace::json::escape(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&diag_trace::json::escape(v));
            out.push('"');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_with("", None))
    }
}

#[derive(Debug)]
struct RegistryInner {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    gauges: Mutex<BTreeMap<MetricKey, Gauge>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
}

/// A shareable directory of named metrics.
///
/// `Registry` is itself `Clone` (an `Arc` over the directory), so
/// subsystems that create metrics lazily — FairQueue lanes, load
/// generator connections — can hold their own copy.
#[derive(Debug, Clone)]
pub struct Registry(Arc<RegistryInner>);

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metric maps hold no invariants a panicking registrant could
    // break mid-flight; recover from poisoning instead of propagating.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Create an empty, enabled registry.
    pub fn new() -> Registry {
        Registry(Arc::new(RegistryInner {
            enabled: AtomicBool::new(true),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }))
    }

    /// Turn recording spans on or off. Pre-registered counter/gauge
    /// handles keep working either way; the flag gates the clock reads
    /// in [`Registry::span`].
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether span timers started through this registry are live.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Start a span timer gated on this registry's enabled flag.
    pub fn span(&self) -> SpanTimer {
        SpanTimer::start(self.is_enabled())
    }

    /// Get or create the counter for `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        lock(&self.0.counters).entry(key).or_default().clone()
    }

    /// Get or create the gauge for `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        lock(&self.0.gauges).entry(key).or_default().clone()
    }

    /// Get or create the histogram for `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        lock(&self.0.histograms).entry(key).or_default().clone()
    }

    /// Read every metric into a deterministic, lexicographically
    /// ordered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.0.counters)
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: lock(&self.0.gauges)
                .iter()
                .map(|(k, g)| (k.clone(), g.snapshot()))
                .collect(),
            histograms: lock(&self.0.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time view of a whole [`Registry`], ordered by metric
/// key. Renders to text and JSON via [`Snapshot::to_text`] and
/// [`Snapshot::to_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauges with high-water marks, sorted by key.
    pub gauges: Vec<(MetricKey, GaugeSnapshot)>,
    /// Histograms, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_insert() {
        let r = Registry::new();
        let a = r.counter("hits", &[("stage", "run")]);
        let b = r.counter("hits", &[("stage", "run")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same key shares the cell");
        let other = r.counter("hits", &[("stage", "asm")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_split_metrics() {
        let r = Registry::new();
        let a = r.gauge("depth", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("depth", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn snapshot_orders_lexicographically() {
        let r = Registry::new();
        r.counter("zeta", &[]).inc();
        r.counter("alpha", &[("k", "2")]).inc();
        r.counter("alpha", &[("k", "10")]).inc();
        let s = r.snapshot();
        let names: Vec<String> = s.counters.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "alpha{k=\"10\"}".to_string(),
                "alpha{k=\"2\"}".to_string(),
                "zeta".to_string()
            ]
        );
    }

    #[test]
    fn registry_clones_share_the_directory() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.counter("shared", &[]).add(5);
        assert_eq!(r.counter("shared", &[]).get(), 5);
        r2.set_enabled(false);
        assert!(!r.is_enabled());
        assert!(r.span().elapsed_ns().is_none());
    }

    #[test]
    fn enabled_registry_spans_are_live() {
        let r = Registry::new();
        assert!(r.is_enabled());
        let h = r.histogram("span_ns", &[]);
        assert!(r.span().finish(&h).is_some());
        assert_eq!(h.snapshot().count, 1);
    }
}
