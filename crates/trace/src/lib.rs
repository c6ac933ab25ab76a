//! # diag-trace — cycle-level observability for the DiAG reproduction
//!
//! The evaluation of the paper (§7.3) hinges on *attribution*: knowing
//! which cycles went to PE compute, lane transport, memory, or control.
//! End-of-run aggregates (`diag_sim::RunStats`) answer
//! "how much"; this crate additionally answers "when and where" with a
//! structured, cycle-level event stream that every machine model in the
//! workspace emits through the same plumbing:
//!
//! * a typed event vocabulary ([`Event`] / [`EventKind`] / [`Track`]) —
//!   PE issue/retire, lane writes and forwards, segment-buffer traffic,
//!   LSU enqueue/complete, cache hits/misses, bus grants, branch
//!   redirects, SIMT instance spawns, and stall begin/end intervals
//!   carrying a [`StallCause`];
//! * cheap-when-off call sites: machines hold a [`Tracer`] handle whose
//!   [`Tracer::emit`] takes a closure, so a disabled tracer costs one
//!   branch and never constructs the event ([`NullSink`] call sites
//!   compile to no-ops);
//! * pluggable sinks ([`TraceSink`]): [`VecSink`] (unbounded
//!   collection for the exporters and the line-oriented JSON writer,
//!   [`Event::write_jsonl`]) and [`NullSink`] (connected but discarding,
//!   for overhead tests);
//! * exporters: Chrome/Perfetto trace-event JSON ([`perfetto`]), a
//!   windowed text utilization heatmap ([`heatmap`]), and a
//!   stall-attribution timeline ([`timeline`]) whose per-cause totals
//!   reconcile *exactly* with the `StallBreakdown` a run reports.
//!
//! The crate is dependency-free and sits below `diag-sim` in the
//! workspace graph, so every layer (memory system, DiAG core, baselines,
//! bench harness) can emit events without cycles.
//!
//! # Examples
//!
//! ```
//! use diag_trace::{Event, EventKind, Track, Tracer, VecSink};
//!
//! let sink = VecSink::shared();
//! let tracer = Tracer::to_shared(sink.clone());
//! tracer.emit(|| Event {
//!     cycle: 42,
//!     thread: 0,
//!     track: Track::Pe { cluster: 0, slot: 3 },
//!     kind: EventKind::PeIssue { pc: 0x1000, reused: false },
//! });
//! assert_eq!(sink.borrow().events().len(), 1);
//!
//! let off = Tracer::off();
//! off.emit(|| unreachable!("disabled tracers never build events"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod heatmap;
pub mod json;
pub mod perfetto;
mod sink;
pub mod timeline;

pub use event::{Event, EventKind, StallCause, Track};
pub use sink::{NullSink, SharedSink, TraceSink, Tracer, VecSink};
