//! `diag-telemetry`: host-side service telemetry for the DiAG
//! reproduction.
//!
//! The workspace already observes two of its three clocks exhaustively:
//! `diag-trace` records *simulated hardware cycles* (typed per-cycle
//! events), and `diag-profile` accounts *guest cycles* top-down (the
//! paper's line-load/station model). This crate is the third and final
//! layer: **host time and service behaviour** — where the wall-clock
//! nanoseconds go in `diag-serve`, the pipeline `Session`, and the
//! sweep workers, measured with the same discipline as the other two
//! layers (dependency-free, cheap when disabled, byte-deterministic
//! output given the same inputs).
//!
//! Three primitives, all lock-free to *record*:
//!
//! - [`Counter`] — a monotonic `AtomicU64` (requests served, rejects by
//!   code, cache builds).
//! - [`Gauge`] — a level with a high-water mark (queue depth, running
//!   jobs, per-client scheduler deficit).
//! - [`Histogram`] — a fixed-bucket log-scale latency histogram with
//!   exact bucket counts, a saturating overflow bucket, and derived
//!   p50/p90/p99 (request lifecycle latencies, per-run host ns/instr).
//!
//! Handles are `Clone` (an `Arc` around the cell), so the hot path
//! holds pre-registered handles and never touches the registry lock.
//! The [`Registry`] is the named directory over those cells: metrics
//! are registered once by `(name, sorted labels)`, and
//! [`Registry::snapshot`] reads everything in deterministic
//! (lexicographic) order. A [`Snapshot`] renders to two byte-stable
//! expositions — Prometheus-style text ([`Snapshot::to_text`]) and a
//! fixed-key-order JSON object ([`Snapshot::to_json`]); neither embeds
//! a timestamp, so two snapshots of identical values are identical
//! bytes.
//!
//! Host-time attribution uses [`SpanTimer`], a scoped timer that only
//! calls `Instant::now` when telemetry is enabled — the disabled path
//! is two branch instructions, which is what keeps the simulator-facing
//! hot paths unaffected when nobody is scraping.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expose;
pub mod hist;
pub mod metrics;
pub mod registry;

pub use hist::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use metrics::{Counter, Gauge, GaugeSnapshot, SpanTimer};
pub use registry::{MetricKey, Registry, Snapshot};

/// Schema identifier stamped into the JSON exposition.
pub const SCHEMA: &str = "diag-telemetry-v1";
