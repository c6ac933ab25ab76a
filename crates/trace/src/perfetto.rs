//! Chrome/Perfetto trace-event JSON export.
//!
//! [`export`] turns a recorded event stream into the JSON object format
//! understood by `ui.perfetto.dev` and `chrome://tracing`: one named
//! track per `(thread, component)` pair, complete slices (`ph:"X"`) for
//! PE execution intervals and stall intervals, async slices (`ph:"b"` /
//! `ph:"e"`) for in-flight LSU requests, counter samples (`ph:"C"`) for
//! segment-buffer occupancy, and instants for everything else.
//!
//! [`validate_chrome_trace`] re-parses an export with the in-crate JSON
//! parser and checks it structurally — the CI smoke job runs it against
//! every trace the harness writes.
//!
//! Timestamps are simulation cycles written in the `ts` field (nominally
//! microseconds); the viewer's absolute unit does not matter for relative
//! inspection, and integral cycle values keep the export
//! byte-deterministic.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::{Event, EventKind, Track};
use crate::json::{self, Value};

/// Stable track identity within the export: process = hardware thread,
/// thread row = component track.
fn track_ids(events: &[Event]) -> BTreeMap<(u32, Track), u64> {
    let mut set: BTreeMap<(u32, Track), u64> = BTreeMap::new();
    for e in events {
        set.entry((e.thread, e.track)).or_insert(0);
    }
    // tids assigned in sorted order so the export is deterministic and
    // the viewer lists components in a stable order.
    for (i, v) in set.values_mut().enumerate() {
        *v = i as u64 + 1;
    }
    set
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
        }
    }

    /// Starts one trace-event object with the common fields; the caller
    /// appends extra fields and must call `close`.
    fn open(&mut self, name: &str, ph: char, ts: u64, pid: u32, tid: u64) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str("{\"name\":\"");
        self.out.push_str(&json::escape(name));
        let _ = write!(
            self.out,
            "\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
        );
    }

    fn close(&mut self) {
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Exports `events` as a Chrome trace-event JSON document.
pub fn export(events: &[Event]) -> String {
    let ids = track_ids(events);
    let mut em = Emitter::new();

    // Metadata: name every track row and every process (hardware thread).
    let mut seen_threads: Vec<u32> = Vec::new();
    for (&(thread, track), &tid) in &ids {
        if !seen_threads.contains(&thread) {
            seen_threads.push(thread);
            em.open("process_name", 'M', 0, thread, 0);
            let _ = write!(em.out, ",\"args\":{{\"name\":\"hw thread {thread}\"}}");
            em.close();
        }
        em.open("thread_name", 'M', 0, thread, tid);
        em.out.push_str(",\"args\":{\"name\":\"");
        em.out.push_str(&json::escape(&track.to_string()));
        em.out.push_str("\"}}");
        // `close` would double the brace; we closed args + object above.
        em.first = false;
    }

    for e in events {
        let tid = ids[&(e.thread, e.track)];
        let pid = e.thread;
        match e.kind {
            EventKind::PeRetire { pc, start, finish } => {
                let name = format!("pc {pc:#x}");
                em.open(&name, 'X', start, pid, tid);
                let dur = finish.saturating_sub(start).max(1);
                let _ = write!(
                    em.out,
                    ",\"dur\":{dur},\"args\":{{\"commit\":{},\"pc\":{pc}}}",
                    e.cycle
                );
                em.close();
            }
            EventKind::StallEnd { cause, cycles } => {
                if cycles == 0 {
                    continue;
                }
                let name = format!("stall:{cause}");
                em.open(&name, 'X', e.cycle.saturating_sub(cycles), pid, tid);
                let _ = write!(em.out, ",\"dur\":{cycles},\"cname\":\"terrible\"");
                em.close();
            }
            // Begin markers carry no information the matching End lacks.
            EventKind::StallBegin { .. } => {}
            EventKind::LsuEnqueue { id, write, .. } => {
                let name = if write { "store" } else { "load" };
                em.open(name, 'b', e.cycle, pid, tid);
                let _ = write!(em.out, ",\"cat\":\"mem\",\"id\":{id}");
                em.close();
            }
            EventKind::LsuComplete { id } => {
                em.open("load", 'e', e.cycle, pid, tid);
                let _ = write!(em.out, ",\"cat\":\"mem\",\"id\":{id}");
                em.close();
            }
            EventKind::SegOccupancy { segment, occupancy } => {
                let name = format!("seg{segment} occupancy");
                em.open(&name, 'C', e.cycle, pid, tid);
                let _ = write!(em.out, ",\"args\":{{\"in_flight\":{occupancy}}}");
                em.close();
            }
            _ => {
                em.open(e.kind.name(), 'i', e.cycle, pid, tid);
                em.out.push_str(",\"s\":\"t\"");
                em.close();
            }
        }
    }
    em.finish()
}

/// Summary statistics returned by a successful
/// [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total trace-event records.
    pub events: usize,
    /// Complete (`ph:"X"`) slices.
    pub slices: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Counter (`ph:"C"`) samples.
    pub counters: usize,
    /// Async begin/end (`ph:"b"`/`ph:"e"`) pairs seen (begins).
    pub async_begins: usize,
    /// Metadata (`ph:"M"`) records.
    pub metadata: usize,
}

/// Structurally validates a Chrome trace-event JSON document: a
/// `traceEvents` array whose members carry the mandatory `name`/`ph`/
/// `ts`/`pid`/`tid` fields with the right types, `dur` on complete
/// slices, and `id` on async events. Returns counts per phase type.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing ph"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing name"))?;
        if name.is_empty() {
            return Err(format!("traceEvents[{i}] has an empty name"));
        }
        for key in ["ts", "pid", "tid"] {
            let n = obj
                .get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("traceEvents[{i}] missing numeric {key}"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "traceEvents[{i}].{key} is not a non-negative integer"
                ));
            }
        }
        match ph {
            "X" => {
                summary.slices += 1;
                let dur = obj
                    .get("dur")
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("traceEvents[{i}] X slice missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{i}] negative dur"));
                }
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "b" | "e" => {
                if ph == "b" {
                    summary.async_begins += 1;
                }
                obj.get("id")
                    .ok_or_else(|| format!("traceEvents[{i}] async event missing id"))?;
            }
            "M" => summary.metadata += 1,
            other => return Err(format!("traceEvents[{i}] unknown ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallCause;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 12,
                thread: 0,
                track: Track::Pe {
                    cluster: 0,
                    slot: 1,
                },
                kind: EventKind::PeRetire {
                    pc: 0x10,
                    start: 4,
                    finish: 9,
                },
            },
            Event {
                cycle: 5,
                thread: 0,
                track: Track::Lsu(0),
                kind: EventKind::LsuEnqueue {
                    id: 1,
                    write: false,
                    wait: 0,
                    occupancy: 1,
                },
            },
            Event {
                cycle: 30,
                thread: 0,
                track: Track::Lsu(0),
                kind: EventKind::LsuComplete { id: 1 },
            },
            Event {
                cycle: 30,
                thread: 0,
                track: Track::Control,
                kind: EventKind::StallEnd {
                    cause: StallCause::Memory,
                    cycles: 25,
                },
            },
            Event {
                cycle: 8,
                thread: 1,
                track: Track::Lane(3),
                kind: EventKind::SegOccupancy {
                    segment: 1,
                    occupancy: 2,
                },
            },
            Event {
                cycle: 2,
                thread: 0,
                track: Track::Control,
                kind: EventKind::BranchRedirect {
                    from_pc: 0x20,
                    to_pc: 0x0,
                    backward: true,
                },
            },
        ]
    }

    #[test]
    fn export_validates() {
        let text = export(&sample_events());
        let summary = validate_chrome_trace(&text).expect("export must be valid");
        assert_eq!(summary.slices, 2); // retire slice + stall slice
        assert_eq!(summary.async_begins, 1);
        assert_eq!(summary.counters, 1);
        assert!(summary.metadata >= 4); // ≥2 processes + ≥4 tracks named
        assert!(summary.instants >= 1);
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        assert_eq!(export(&events), export(&events));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = export(&[]);
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Z\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err()); // X without dur
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err()); // empty name
    }
}
