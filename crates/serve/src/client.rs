//! A small blocking client for the `diag-serve` protocol.
//!
//! Used by the `diag-load` load generator and the integration tests;
//! anything that can open a TCP socket and read lines can speak the
//! protocol without it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use diag_trace::json::{self, Value};

/// Builder for one `submit` request line.
#[derive(Debug, Clone)]
pub struct Submit {
    /// Client-chosen sequence id echoed on the result.
    pub seq: u64,
    /// Workload name.
    pub workload: String,
    /// Machine spec in the canonical grammar (`diag[:preset][+k=v,...]`,
    /// `ooo[:cores]`, `inorder`).
    pub machine: String,
    /// Scale name: `tiny` | `small` | `full`.
    pub scale: String,
    /// Hardware threads.
    pub threads: usize,
    /// SIMT-annotated variant.
    pub simt: bool,
    /// Diag-only configuration overrides, sent as the `config` object
    /// (the grammar's `+key=value` catalogue).
    pub config: Vec<(String, String)>,
    /// Fairness-bucket override.
    pub client: Option<String>,
}

impl Submit {
    /// A tiny-scale single-thread submission.
    pub fn new(seq: u64, workload: &str, machine: &str) -> Submit {
        Submit {
            seq,
            workload: workload.to_string(),
            machine: machine.to_string(),
            scale: "tiny".to_string(),
            threads: 1,
            simt: false,
            config: Vec::new(),
            client: None,
        }
    }

    /// Renders the request line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"verb\":\"submit\",\"seq\":{},\"workload\":\"{}\",\"machine\":\"{}\",\
             \"scale\":\"{}\",\"threads\":{},\"simt\":{}",
            self.seq,
            diag_trace::json::escape(&self.workload),
            diag_trace::json::escape(&self.machine),
            diag_trace::json::escape(&self.scale),
            self.threads,
            self.simt,
        );
        if !self.config.is_empty() {
            let entries: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{}\":\"{}\"",
                        diag_trace::json::escape(k),
                        diag_trace::json::escape(v)
                    )
                })
                .collect();
            line.push_str(&format!(",\"config\":{{{}}}", entries.join(",")));
        }
        if let Some(client) = &self.client {
            line.push_str(&format!(
                ",\"client\":\"{}\"",
                diag_trace::json::escape(client)
            ));
        }
        line.push('}');
        line
    }
}

/// A parsed response frame: the raw line plus its JSON document.
#[derive(Debug)]
pub struct Frame {
    /// The frame line as received (no newline).
    pub raw: String,
    /// The parsed document.
    pub doc: Value,
}

impl Frame {
    fn parse(raw: String) -> io::Result<Frame> {
        let doc = json::parse(&raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{raw}: {e}")))?;
        Ok(Frame { raw, doc })
    }

    /// The frame kind (`hello`, `result`, `reject`, …).
    pub fn kind(&self) -> &str {
        self.doc.get("frame").and_then(Value::as_str).unwrap_or("")
    }

    /// The echoed submission id, when present.
    pub fn seq(&self) -> Option<u64> {
        self.doc
            .get("seq")
            .and_then(Value::as_num)
            .map(|n| n as u64)
    }

    /// `result` frames: whether the run succeeded.
    pub fn ok(&self) -> Option<bool> {
        match self.doc.get("ok") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// `result` frames: per-request artifact-cache hits.
    pub fn cache_hits(&self) -> Option<u64> {
        self.cache_field("hits")
    }

    /// `result` frames: per-request artifact-cache builds.
    pub fn cache_builds(&self) -> Option<u64> {
        self.cache_field("builds")
    }

    /// `result` frames: run-memoization-stage hits for this request.
    pub fn run_hits(&self) -> Option<u64> {
        self.cache_field("run_hits")
    }

    /// `result` frames: run-memoization-stage builds (simulations that
    /// actually executed) for this request.
    pub fn run_builds(&self) -> Option<u64> {
        self.cache_field("run_builds")
    }

    /// `result` frames: the canonical machine spec the run executed.
    pub fn spec(&self) -> Option<&str> {
        self.doc.get("spec").and_then(Value::as_str)
    }

    fn cache_field(&self, key: &str) -> Option<u64> {
        self.doc
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Value::as_num)
            .map(|n| n as u64)
    }

    /// `result` frames with `ok:false`: the error kind
    /// (`build`/`sim`/`verify`/`panicked`).
    pub fn error_kind(&self) -> Option<&str> {
        self.doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
    }

    /// `reject`/`error` frames: the admission/protocol failure code.
    pub fn code(&self) -> Option<u16> {
        self.doc
            .get("code")
            .and_then(Value::as_num)
            .map(|n| n as u16)
    }

    /// `metrics` frames: the Prometheus-style text exposition (the
    /// parser has already unescaped it).
    pub fn metrics_text(&self) -> Option<&str> {
        self.doc.get("text").and_then(Value::as_str)
    }

    /// `metrics` frames: the embedded `diag-telemetry-v1` JSON
    /// exposition object.
    pub fn metrics_json(&self) -> Option<&Value> {
        self.doc.get("json")
    }

    /// `metrics` frames: one counter's value by its rendered key, e.g.
    /// `diag_serve_requests_total{verb="submit"}`.
    pub fn metric_counter(&self, key: &str) -> Option<u64> {
        self.metrics_json()?
            .get("counters")?
            .get(key)
            .and_then(Value::as_num)
            .map(|n| n as u64)
    }

    /// `metrics` frames: one field of a gauge or histogram entry by
    /// section (`"gauges"` / `"histograms"`), rendered metric key, and
    /// field name (`"value"`, `"high_water"`, `"count"`, `"p50"`, …).
    pub fn metric_field(&self, section: &str, key: &str, field: &str) -> Option<u64> {
        self.metrics_json()?
            .get(section)?
            .get(key)?
            .get(field)
            .and_then(Value::as_num)
            .map(|n| n as u64)
    }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    hello: Frame,
}

impl Client {
    /// Connects and consumes the `hello` frame.
    ///
    /// # Errors
    ///
    /// Propagates connect/read failures; fails if the greeting is not a
    /// `hello` frame.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request lines are small; Nagle would hold each behind the
        // server's delayed ACK and turn every submit into a ~40ms stall.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let hello = Frame::parse(line.trim_end().to_string())?;
        if hello.kind() != "hello" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello frame, got: {}", hello.raw),
            ));
        }
        Ok(Client {
            reader,
            writer,
            hello,
        })
    }

    /// The `hello` frame the server greeted with.
    pub fn hello(&self) -> &Frame {
        &self.hello
    }

    /// Sends one raw request line.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.writer.flush()
    }

    /// Sends one submission.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn submit(&mut self, submit: &Submit) -> io::Result<()> {
        self.send_line(&submit.to_line())
    }

    /// Sends a control verb (`status`, `shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_verb(&mut self, verb: &str) -> io::Result<()> {
        self.send_line(&format!("{{\"verb\":\"{verb}\"}}"))
    }

    /// Sends a `cancel` for `seq`.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn cancel(&mut self, seq: u64) -> io::Result<()> {
        self.send_line(&format!("{{\"verb\":\"cancel\",\"seq\":{seq}}}"))
    }

    /// Reads the next raw frame line; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Propagates socket read failures.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Ok(Some(line.trim_end().to_string()))
    }

    /// Reads and parses the next frame; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Propagates socket read failures and frame parse failures.
    pub fn recv(&mut self) -> io::Result<Option<Frame>> {
        match self.recv_line()? {
            Some(line) => Ok(Some(Frame::parse(line)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_lines_parse_as_requests() {
        let mut s = Submit::new(9, "hotspot", "diag");
        s.config.push(("max_cycles".to_string(), "50".to_string()));
        s.client = Some("alice".to_string());
        let parsed = crate::protocol::parse_request(&s.to_line()).expect("valid");
        let crate::protocol::Request::Submit(req) = parsed else {
            panic!("not a submit");
        };
        assert_eq!(req.seq, 9);
        assert_eq!(req.workload, "hotspot");
        assert_eq!(
            req.config,
            vec![("max_cycles".to_string(), "50".to_string())]
        );
        assert_eq!(req.client.as_deref(), Some("alice"));
    }

    #[test]
    fn frame_accessors_read_result_fields() {
        let f = Frame::parse(
            "{\"frame\":\"result\",\"seq\":3,\"ok\":true,\
             \"cache\":{\"hits\":2,\"builds\":1},\"host_ns\":5}"
                .to_string(),
        )
        .expect("parses");
        assert_eq!(f.kind(), "result");
        assert_eq!(f.seq(), Some(3));
        assert_eq!(f.ok(), Some(true));
        assert_eq!(f.cache_hits(), Some(2));
        assert_eq!(f.cache_builds(), Some(1));
        assert_eq!(f.error_kind(), None);
        assert_eq!(f.code(), None);
    }

    #[test]
    fn frame_accessors_read_metrics_fields() {
        let f = Frame::parse(
            "{\"frame\":\"metrics\",\"proto\":\"diag-serve/1\",\
             \"text\":\"# TYPE a counter\\na 1\\n\",\
             \"json\":{\"schema\":\"diag-telemetry-v1\",\
             \"counters\":{\"a\":1},\
             \"gauges\":{\"g\":{\"value\":2,\"high_water\":7}},\
             \"histograms\":{\"h\":{\"count\":3,\"p50\":40}}}}"
                .to_string(),
        )
        .expect("parses");
        assert_eq!(f.kind(), "metrics");
        assert_eq!(f.metrics_text(), Some("# TYPE a counter\na 1\n"));
        assert_eq!(f.metric_counter("a"), Some(1));
        assert_eq!(f.metric_counter("missing"), None);
        assert_eq!(f.metric_field("gauges", "g", "high_water"), Some(7));
        assert_eq!(f.metric_field("histograms", "h", "p50"), Some(40));
        assert_eq!(f.metric_field("histograms", "h", "p99"), None);
    }
}
