//! In-memory host spans and their Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written once at the end
//! of a traced run as a `traceEvents` document (complete `X` slices, one
//! row per worker thread) that `ui.perfetto.dev` and `chrome://tracing`
//! open. Every span carries the id of the run or request it belongs to.

use std::fmt::Write;
use std::time::Instant;

/// Spans kept per run; later spans are counted, not stored, so a long
/// traced run cannot grow without bound.
const MAX_SPANS: usize = 200_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    /// `"run"` or `"request"`.
    id_kind: &'static str,
    id: u64,
}

/// A span buffer sharing one time origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Spans {
    /// An empty buffer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records the call `name` on worker `tid` for run or request `id`.
    pub fn record(
        &mut self,
        name: &'static str,
        tid: u32,
        id_kind: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            tid,
            start_ns: ns_between(self.origin, start),
            dur_ns: ns_between(start, end),
            id_kind,
            id,
        });
    }

    /// Moves `other`'s spans into this buffer (same origin assumed).
    pub fn absorb(&mut self, other: Spans) {
        for s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
            } else {
                self.spans.push(s);
            }
        }
        self.dropped += other.dropped;
    }

    /// Spans stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans counted but not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The Chrome trace-event JSON document. `ts` is whole microseconds
    /// (the format's unit); `dur` keeps nanosecond resolution as a
    /// fractional microsecond count.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{}.{:03},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"{}\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns / 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.tid,
                s.id_kind,
                s.id,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn export_is_a_valid_chrome_trace_with_ids() {
        let origin = Instant::now();
        let mut spans = Spans::new(origin);
        let a = origin + Duration::from_nanos(1_500);
        spans.record("core.load", 1, "run", 7, a, a + Duration::from_nanos(2_345));
        let mut other = Spans::new(origin);
        other.record(
            "serve.request",
            2,
            "request",
            9,
            a,
            a + Duration::from_micros(40),
        );
        spans.absorb(other);
        let text = spans.to_chrome_json("test");
        let summary = diag_trace::perfetto::validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.slices, 2);
        assert_eq!(summary.metadata, 1);
        assert!(text.contains("\"dur\":2.345"), "{text}");
        assert!(text.contains("\"args\":{\"run\":7}"), "{text}");
        assert!(text.contains("\"args\":{\"request\":9}"), "{text}");
    }
}
