//! The `diag-serve` wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object per line; every response is one JSON
//! *frame* per line. Frames are rendered with a fixed key order by the
//! functions in this module, so a request script replayed against a
//! fresh server produces byte-identical response bodies once the one
//! timing field (`host_ns`) is stripped — the same determinism
//! discipline the harness CLI holds to (cold and warm cache runs diff
//! clean).
//!
//! # Request verbs
//!
//! ```text
//! {"verb":"submit","seq":1,"workload":"hotspot","machine":"diag",
//!  "scale":"tiny","threads":1,"simt":false}       queue one experiment
//! {"verb":"status"}                               server + cache counters
//! {"verb":"metrics"}                              full telemetry registry
//! {"verb":"cancel","seq":1}                       drop a still-queued job
//! {"verb":"shutdown"}                             graceful drain + exit
//! ```
//!
//! `seq` is a client-chosen identifier echoed on the job's frames.
//! `machine` is any spec in the canonical machine grammar — the same
//! strings `harness --machine` accepts: `diag[:preset][+key=value,...]`,
//! `ooo[:cores]`, `inorder` (see `diag_core::MachineSpec`); `scale` is
//! `tiny` | `small` | `full`; `threads` defaults to 1 and `simt` to
//! false. `client` optionally names the fairness bucket the job bills to
//! (default: one bucket per connection). `config` (diag only) is an
//! object of configuration overrides applied on top of the parsed
//! machine spec — the same key catalogue as the grammar's `+key=value`
//! form (`{"config":{"clusters":16,"lsu_depth":8}}`); a malformed key,
//! value, or resulting configuration is rejected with a `400` frame,
//! never a dropped connection. The cycle limit is `config.max_cycles`; a
//! top-level `max_cycles` field is a `400` error naming it. Overriding
//! the cycle limit remains the supported way to provoke a `sim`-kind
//! error frame on demand.
//!
//! # Response frames
//!
//! - `hello` — sent once on connect: protocol version + connection id.
//! - `result` — one per accepted submission, streamed **in per-client
//!   submission order** as jobs complete. `ok:true` carries the
//!   `RunStats`; `ok:false` carries the [`RunError`] taxonomy
//!   (`build`/`sim`/`verify`/`panicked`). Both echo the canonical
//!   machine spec (`spec`, the fully-resolved
//!   `diag_core::MachineSpec::render` of machine + config), the
//!   per-request artifact-cache attribution (`cache.hits` /
//!   `cache.builds`, plus `cache.run_hits` / `cache.run_builds` for the
//!   run-memoization stage alone — a warm resubmission shows
//!   `run_hits:1, builds:0`), and the host-side service time (`host_ns`,
//!   the one nondeterministic field).
//! - `reject` — immediate admission failure: `429` queue full, `503`
//!   draining, `400` malformed parameters, `404` unknown workload.
//!   Rejected submissions never occupy a result slot.
//! - `error` — protocol-level failure (unparsable line, unknown verb).
//! - `cancelled` — answer to `cancel`; an `ok:true` cancellation is
//!   delivered through the job's result slot to keep ordering exact.
//! - `status`, `shutdown` — control answers, written immediately.
//! - `metrics` — the server's full telemetry registry in both
//!   exposition formats: `text` (Prometheus-style, JSON-escaped) and
//!   `json` (the `diag-telemetry-v1` object, embedded verbatim). Both
//!   are byte-deterministic renderings of the same snapshot.

use diag_bench::runner::RunError;
use diag_sim::RunStats;
use diag_trace::json::{self, Value};
use diag_workloads::Scale;

/// Protocol identifier sent in the `hello` frame and `status` frames.
pub const PROTO: &str = "diag-serve-v1";

/// Admission-failure codes (HTTP-flavored, carried in `reject` frames).
pub mod code {
    /// Malformed or unsupported request parameters.
    pub const BAD_REQUEST: u16 = 400;
    /// Unknown workload name.
    pub const NOT_FOUND: u16 = 404;
    /// The bounded job queue is at capacity.
    pub const QUEUE_FULL: u16 = 429;
    /// The server is draining for shutdown.
    pub const DRAINING: u16 = 503;
}

/// One parsed `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen identifier echoed on every frame about this job.
    pub seq: u64,
    /// Fairness bucket override (default: the connection's own bucket).
    pub client: Option<String>,
    /// Workload name (`diag_workloads::find`).
    pub workload: String,
    /// Machine spec in the canonical grammar (`diag[:preset][+k=v,...]`,
    /// `ooo[:cores]`, `inorder`).
    pub machine: String,
    /// Input scale.
    pub scale: Scale,
    /// Hardware threads.
    pub threads: usize,
    /// SIMT-annotated variant.
    pub simt: bool,
    /// Configuration overrides applied on top of the parsed machine spec
    /// (diag only), in key order. Values arrive as JSON numbers, bools,
    /// or strings and funnel through `diag_core::apply_override` —
    /// exactly the grammar's `+key=value` catalogue.
    pub config: Vec<(String, String)>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue one experiment.
    Submit(SubmitRequest),
    /// Report queue depth, counters, and host metadata.
    Status,
    /// Report the full telemetry registry (text + JSON expositions).
    Metrics,
    /// Drop a still-queued job by its `seq`.
    Cancel {
        /// The `seq` of the submission to drop.
        seq: u64,
    },
    /// Stop admitting, drain the queue, exit.
    Shutdown,
}

fn req_u64(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key).and_then(Value::as_num).map(|n| n as u64)
}

fn req_bool(doc: &Value, key: &str) -> Option<bool> {
    match doc.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Renders one `config` entry's value as the textual form
/// `diag_core::apply_override` expects: integers without a fraction,
/// bools as `true`/`false`, strings verbatim.
fn config_value(key: &str, value: &Value) -> Result<String, String> {
    match value {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(format!("{}", *n as u64)),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!(
            "config entry `{key}` needs an unsigned integer, boolean, or string"
        )),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a one-line message on invalid JSON, a missing/unknown verb,
/// or missing required fields — the server answers with a `400` frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let verb = doc
        .get("verb")
        .and_then(Value::as_str)
        .ok_or("missing `verb`")?;
    match verb {
        "submit" => {
            let seq = req_u64(&doc, "seq").ok_or("submit needs a numeric `seq`")?;
            let workload = doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("submit needs a `workload`")?
                .to_string();
            let scale = Scale::parse(doc.get("scale").and_then(Value::as_str).unwrap_or("tiny"))?;
            let config = match doc.get("config") {
                None => Vec::new(),
                Some(Value::Obj(entries)) => {
                    let mut out = Vec::with_capacity(entries.len());
                    for (key, value) in entries {
                        out.push((key.clone(), config_value(key, value)?));
                    }
                    out
                }
                Some(_) => return Err("`config` must be an object".to_string()),
            };
            if doc.get("max_cycles").is_some() {
                return Err(
                    "top-level `max_cycles` is not a submit field: send `config.max_cycles`"
                        .to_string(),
                );
            }
            Ok(Request::Submit(SubmitRequest {
                seq,
                client: doc
                    .get("client")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                workload,
                machine: doc
                    .get("machine")
                    .and_then(Value::as_str)
                    .unwrap_or("diag")
                    .to_string(),
                scale,
                threads: req_u64(&doc, "threads").unwrap_or(1).max(1) as usize,
                simt: req_bool(&doc, "simt").unwrap_or(false),
                config,
            }))
        }
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "cancel" => Ok(Request::Cancel {
            seq: req_u64(&doc, "seq").ok_or("cancel needs a numeric `seq`")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb `{other}`")),
    }
}

/// The once-per-connection greeting frame.
pub fn hello_frame(conn: u64) -> String {
    format!("{{\"frame\":\"hello\",\"proto\":\"{PROTO}\",\"conn\":{conn}}}")
}

/// Per-request cache attribution carried on every result frame: the
/// whole-session hit/build delta observed around the run, plus the
/// run-memoization stage's own delta (a warm resubmission of an
/// identical request shows `run_hits >= 1` and `builds == 0` — the
/// simulation never executed).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelta {
    /// All-stage cache hits attributed to this request.
    pub hits: u64,
    /// All-stage cache builds attributed to this request.
    pub builds: u64,
    /// Run-stage memo hits attributed to this request.
    pub run_hits: u64,
    /// Run-stage memo builds (simulations actually executed).
    pub run_builds: u64,
}

impl CacheDelta {
    fn render(&self) -> String {
        format!(
            "{{\"hits\":{},\"builds\":{},\"run_hits\":{},\"run_builds\":{}}}",
            self.hits, self.builds, self.run_hits, self.run_builds
        )
    }
}

/// A successful result frame: the run's [`RunStats`] plus the canonical
/// machine spec, per-request cache attribution, and service time.
pub fn result_frame(
    seq: u64,
    workload: &str,
    machine: &str,
    spec: &str,
    stats: &RunStats,
    cache: CacheDelta,
    host_ns: u64,
) -> String {
    format!(
        "{{\"frame\":\"result\",\"seq\":{seq},\"ok\":true,\
         \"workload\":\"{}\",\"machine\":\"{}\",\"spec\":\"{}\",\
         \"stats\":{{\"cycles\":{},\"committed\":{},\"threads\":{},\"ipc\":{:.4},\
         \"stalls\":{{\"memory\":{},\"control\":{},\"structural\":{}}}}},\
         \"cache\":{},\
         \"host_ns\":{host_ns}}}",
        json::escape(workload),
        json::escape(machine),
        json::escape(spec),
        stats.cycles,
        stats.committed,
        stats.threads,
        stats.ipc(),
        stats.stalls.memory,
        stats.stalls.control,
        stats.stalls.structural,
        cache.render(),
    )
}

/// The `RunError` taxonomy key a failed run reports over the wire.
pub fn error_kind(e: &RunError) -> &'static str {
    match e {
        RunError::Build { .. } => "build",
        RunError::Sim { .. } => "sim",
        RunError::Verify { .. } => "verify",
        RunError::Panicked { .. } => "panicked",
    }
}

/// A failed result frame: the [`RunError`] taxonomy over the wire.
pub fn error_frame(
    seq: u64,
    workload: &str,
    machine: &str,
    spec: &str,
    err: &RunError,
    cache: CacheDelta,
    host_ns: u64,
) -> String {
    format!(
        "{{\"frame\":\"result\",\"seq\":{seq},\"ok\":false,\
         \"workload\":\"{}\",\"machine\":\"{}\",\"spec\":\"{}\",\
         \"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}},\
         \"cache\":{},\
         \"host_ns\":{host_ns}}}",
        json::escape(workload),
        json::escape(machine),
        json::escape(spec),
        error_kind(err),
        json::escape(&err.to_string()),
        cache.render(),
    )
}

/// An immediate admission rejection (`seq` present when the request
/// carried one).
pub fn reject_frame(seq: Option<u64>, code: u16, message: &str) -> String {
    match seq {
        Some(seq) => format!(
            "{{\"frame\":\"reject\",\"seq\":{seq},\"code\":{code},\"message\":\"{}\"}}",
            json::escape(message)
        ),
        None => format!(
            "{{\"frame\":\"reject\",\"code\":{code},\"message\":\"{}\"}}",
            json::escape(message)
        ),
    }
}

/// A protocol-level error frame (unparsable line, unknown verb).
pub fn protocol_error_frame(message: &str) -> String {
    format!(
        "{{\"frame\":\"error\",\"code\":{},\"message\":\"{}\"}}",
        code::BAD_REQUEST,
        json::escape(message)
    )
}

/// The answer to a `cancel` request.
pub fn cancelled_frame(seq: u64, ok: bool) -> String {
    format!("{{\"frame\":\"cancelled\",\"seq\":{seq},\"ok\":{ok}}}")
}

/// The acknowledgement of a `shutdown` request.
pub fn shutdown_frame(queued: usize) -> String {
    format!("{{\"frame\":\"shutdown\",\"queued\":{queued}}}")
}

/// A `metrics` frame carrying both expositions of one registry
/// snapshot: `text` is the Prometheus-style rendering (JSON-escaped),
/// `json` the `diag-telemetry-v1` object embedded verbatim (it is
/// already fixed-key-order JSON).
pub fn metrics_frame(text: &str, json: &str) -> String {
    format!(
        "{{\"frame\":\"metrics\",\"proto\":\"{PROTO}\",\"text\":\"{}\",\"json\":{json}}}",
        json::escape(text)
    )
}

/// A point-in-time server snapshot for `status` frames.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing on workers.
    pub running: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Queue admission capacity.
    pub capacity: usize,
    /// Accepted submissions since start.
    pub submitted: u64,
    /// Jobs completed with `ok:true`.
    pub completed: u64,
    /// Jobs completed with `ok:false`.
    pub errors: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Pre-rendered host-metadata JSON object (see
    /// [`diag_bench::hostmeta::render_host_object`]) — the build keys
    /// profile JSON carries, plus the session's cache counters.
    pub host: String,
}

/// A `status` frame.
pub fn status_frame(s: &StatusSnapshot) -> String {
    format!(
        "{{\"frame\":\"status\",\"proto\":\"{PROTO}\",\
         \"workers\":{},\"capacity\":{},\"queued\":{},\"running\":{},\
         \"submitted\":{},\"completed\":{},\"errors\":{},\"rejected\":{},\
         \"cancelled\":{},\"host\":{}}}",
        s.workers,
        s.capacity,
        s.queued,
        s.running,
        s.submitted,
        s.completed,
        s.errors,
        s.rejected,
        s.cancelled,
        if s.host.is_empty() { "{}" } else { &s.host },
    )
}

/// Replaces every `"host_ns":<digits>` with `"host_ns":0` — the one
/// per-request timing field — so protocol transcripts can be compared
/// byte-for-byte across runs.
pub fn strip_timing(frames: &str) -> String {
    const FIELD: &str = "\"host_ns\":";
    let mut out = String::with_capacity(frames.len());
    let mut rest = frames;
    while let Some(i) = rest.find(FIELD) {
        let after = i + FIELD.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_with_defaults() {
        let req = parse_request(r#"{"verb":"submit","seq":7,"workload":"hotspot"}"#).unwrap();
        let Request::Submit(s) = req else {
            panic!("not a submit")
        };
        assert_eq!(s.seq, 7);
        assert_eq!(s.workload, "hotspot");
        assert_eq!(s.machine, "diag");
        assert_eq!(s.scale, Scale::Tiny);
        assert_eq!(s.threads, 1);
        assert!(!s.simt);
        assert!(s.config.is_empty());
        assert_eq!(s.client, None);
    }

    #[test]
    fn config_object_parses_in_key_order() {
        let line = concat!(
            r#"{"verb":"submit","seq":2,"workload":"bfs","machine":"diag:f4c2","#,
            r#""config":{"lsu_depth":4,"clusters":8,"reuse":false,"max_cycles":"5000"}}"#,
        );
        let Request::Submit(s) = parse_request(line).unwrap() else {
            panic!("not a submit")
        };
        // BTreeMap ordering: deterministic regardless of wire order.
        assert_eq!(
            s.config,
            vec![
                ("clusters".to_string(), "8".to_string()),
                ("lsu_depth".to_string(), "4".to_string()),
                ("max_cycles".to_string(), "5000".to_string()),
                ("reuse".to_string(), "false".to_string()),
            ]
        );
    }

    #[test]
    fn malformed_config_is_a_parse_error() {
        let err =
            parse_request(r#"{"verb":"submit","seq":1,"workload":"bfs","config":3}"#).unwrap_err();
        assert!(err.contains("object"), "{err}");
        let err = parse_request(
            r#"{"verb":"submit","seq":1,"workload":"bfs","config":{"clusters":[1]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("clusters"), "{err}");
        let err = parse_request(
            r#"{"verb":"submit","seq":1,"workload":"bfs","config":{"clusters":1.5}}"#,
        )
        .unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn submit_parses_every_field() {
        let line = concat!(
            r#"{"verb":"submit","seq":1,"client":"alice","workload":"bfs","#,
            r#""machine":"ooo","scale":"small","threads":4,"simt":true,"#,
            r#""config":{"max_cycles":10}}"#,
        );
        let req = parse_request(line).unwrap();
        let Request::Submit(s) = req else {
            panic!("not a submit")
        };
        assert_eq!(s.client.as_deref(), Some("alice"));
        assert_eq!(s.machine, "ooo");
        assert_eq!(s.scale, Scale::Small);
        assert_eq!(s.threads, 4);
        assert!(s.simt);
        assert_eq!(s.config, vec![("max_cycles".to_string(), "10".to_string())]);
    }

    #[test]
    fn top_level_max_cycles_is_rejected() {
        let err = parse_request(r#"{"verb":"submit","seq":1,"workload":"bfs","max_cycles":10}"#)
            .unwrap_err();
        assert!(err.contains("`config.max_cycles`"), "{err}");
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(
            parse_request(r#"{"verb":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"verb":"cancel","seq":3}"#).unwrap(),
            Request::Cancel { seq: 3 }
        );
        assert_eq!(
            parse_request(r#"{"verb":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"verb":"metrics"}"#).unwrap(),
            Request::Metrics
        );
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_request("{}").unwrap_err().contains("verb"));
        assert!(parse_request(r#"{"verb":"dance"}"#)
            .unwrap_err()
            .contains("unknown verb"));
        assert!(parse_request(r#"{"verb":"submit","workload":"bfs"}"#)
            .unwrap_err()
            .contains("seq"));
        assert!(
            parse_request(r#"{"verb":"submit","seq":1,"workload":"x","scale":"huge"}"#)
                .unwrap_err()
                .contains("unknown scale")
        );
    }

    #[test]
    fn frames_are_valid_json_with_fixed_keys() {
        let stats = RunStats {
            cycles: 100,
            committed: 50,
            threads: 1,
            ..RunStats::default()
        };
        let delta = CacheDelta {
            hits: 2,
            builds: 1,
            run_hits: 1,
            run_builds: 0,
        };
        for frame in [
            hello_frame(1),
            result_frame(1, "bfs", "diag", "diag:f4c32", &stats, delta, 12345),
            error_frame(
                2,
                "bfs",
                "diag",
                "diag:f4c32",
                &RunError::Build {
                    workload: "bfs".to_string(),
                    message: "quote \" and slash \\".to_string(),
                },
                CacheDelta::default(),
                1,
            ),
            reject_frame(Some(3), code::QUEUE_FULL, "queue full"),
            reject_frame(None, code::BAD_REQUEST, "nope"),
            protocol_error_frame("bad"),
            cancelled_frame(4, true),
            shutdown_frame(0),
            status_frame(&StatusSnapshot::default()),
            metrics_frame(
                "# TYPE x counter\nx{v=\"a\"} 1\n",
                "{\"schema\":\"diag-telemetry-v1\",\"counters\":{},\"gauges\":{},\"histograms\":{}}",
            ),
        ] {
            json::parse(&frame).unwrap_or_else(|e| panic!("{frame}: {e}"));
        }
        let ok = result_frame(1, "bfs", "diag", "diag:f4c32", &stats, delta, 1);
        assert!(ok.contains("\"spec\":\"diag:f4c32\""), "{ok}");
        assert!(ok.contains("\"run_hits\":1"), "{ok}");
        assert!(ok.contains("\"run_builds\":0"), "{ok}");
    }

    #[test]
    fn strip_timing_zeroes_only_the_timing_field() {
        let a = "{\"seq\":1,\"host_ns\":123456}\n{\"seq\":2,\"host_ns\":9}\n";
        let b = "{\"seq\":1,\"host_ns\":777}\n{\"seq\":2,\"host_ns\":13}\n";
        assert_eq!(strip_timing(a), strip_timing(b));
        assert!(strip_timing(a).contains("\"host_ns\":0"));
        assert!(strip_timing(a).contains("\"seq\":1"));
    }

    #[test]
    fn error_kinds_cover_the_taxonomy() {
        let w = "w".to_string();
        let m = "m".to_string();
        assert_eq!(
            error_kind(&RunError::Build {
                workload: w.clone(),
                message: m.clone()
            }),
            "build"
        );
        assert_eq!(
            error_kind(&RunError::Verify {
                workload: w.clone(),
                machine: m.clone(),
                message: "x".to_string()
            }),
            "verify"
        );
        assert_eq!(
            error_kind(&RunError::Panicked {
                workload: w,
                machine: m,
                message: "x".to_string()
            }),
            "panicked"
        );
    }
}
