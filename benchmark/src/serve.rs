//! The serve workloads: `serve-cold` and `serve-warm`.
//!
//! `diag-serve` runs as a separate child process (this binary's
//! `serve-child` mode: `Server::bind(..).run()` with one worker and an
//! in-memory session, exactly what `diag-serve --workers 1 --no-cache`
//! does), so simulation has a core of its own while the load generator
//! — one connection, a sender thread and a receiver thread — drives it
//! open-loop from seeded Poisson arrivals. Latency is timed from each
//! request's *due* time to reading its result frame, so a stalled
//! server also charges the requests queued behind the stall. The
//! receiver only timestamps the frame lines; they are parsed with
//! `diag_serve::Frame` and checked after the pass.
//!
//! `serve-cold` submits the 1296 distinct keys of the tune grid × every
//! kernel × {1, 2} threads to a fresh server per pass, so every request
//! simulates (the run memo is written, never read). `serve-warm`
//! pre-warms the 12 `diag-load` keys once and then replays them at a
//! high rate, so every request is a run-memo hit and the request path
//! (parse, admission, queue, lookup, render, write) is what is timed.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use diag_bench::runner::MachineSpec;
use diag_bench::sweep::SweepRun;
use diag_bench::tune;
use diag_isa::prng::SplitMix64;
use diag_pipeline::{run_key, Session};
use diag_serve::protocol::{parse_request, Request};
use diag_serve::{Client, FairQueue, Frame, ServeConfig, Server, Submit};
use diag_trace::json::{self, Value};
use diag_workloads::{Params, Scale, WorkloadSpec};

use crate::digest::Digest;
use crate::expected::Expected;
use crate::layers::{self, Decompose};
use crate::report::{peak_rss_mib, Outcome};
use crate::schedule::{self, Step};
use crate::stats::{median, tail_supported, Latencies};
use crate::trace::Spans;

/// Fresh set-ups timed before the first pass; every fixed-rate pass
/// adds one more (`serve-cold`'s own fresh server, or a spare
/// `serve-warm` set-up), so `setup_s` is a median over the whole run.
const SETUPS: usize = 11;

/// How long to wait on the server before declaring it stuck.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// Every request a run-stage build on a fresh server.
    Cold,
    /// Every request a run-memo hit on a pre-warmed server.
    Warm,
}

/// What a workload's traffic looks like. The ladder start rates were
/// calibrated once so the goodput of the commit that introduced the
/// benchmark lands a few steps up the ladder, then frozen: later
/// commits are measured on the same rates.
struct Shape {
    name: &'static str,
    /// Fixed measurement rate, requests per second.
    rate: f64,
    /// Requests per fixed-rate pass.
    per_pass: usize,
    /// p99 limit for a ladder step, ms.
    limit_ms: f64,
    /// First ladder rate.
    ladder_start: f64,
    /// Latency percentiles are taken per window of this many seconds
    /// (by due time) and reported as the median over windows.
    window_s: f64,
}

/// Length of one `serve-warm` ladder step (a `serve-cold` step sends
/// every key once).
const WARM_STEP_SECS: f64 = 2.0;

/// Most ladder steps (retries included) one run makes.
const MAX_LADDER_STEPS: usize = 12;

impl Serve {
    fn shape(self) -> Shape {
        match self {
            Serve::Cold => Shape {
                name: "serve-cold",
                // ~30% of one worker: at twice this rate queueing turned
                // host-speed drift into p50 swings of 25-50% between runs.
                rate: 450.0,
                per_pass: 1296,
                limit_ms: 20.0,
                ladder_start: 1150.0,
                // One window per pass: each pass sends every key once.
                window_s: f64::INFINITY,
            },
            Serve::Warm => Shape {
                name: "serve-warm",
                rate: 10_000.0,
                per_pass: 30_000,
                limit_ms: 2.0,
                ladder_start: 62_000.0,
                window_s: 0.25,
            },
        }
    }
}

/// One request key and what its result frame must echo.
#[derive(Debug, Clone)]
pub struct Key {
    workload: &'static str,
    machine: String,
    spec: String,
    threads: usize,
}

impl Key {
    fn new(workload: &'static str, machine: &str, threads: usize) -> Result<Key, String> {
        Ok(Key {
            workload,
            machine: machine.to_string(),
            spec: MachineSpec::parse(machine)?.render(),
            threads,
        })
    }

    fn line(&self, seq: u64) -> String {
        let mut submit = Submit::new(seq, self.workload, &self.machine);
        submit.threads = self.threads;
        submit.to_line()
    }

    fn label(&self) -> String {
        format!("{}|{}|{}", self.workload, self.spec, self.threads)
    }

    /// The simulation the server runs for this key (its fixed input
    /// seed, tiny scale).
    fn sweep_run(&self) -> Result<SweepRun, String> {
        Ok(SweepRun {
            machine: MachineSpec::parse(&self.machine)?,
            spec: diag_workloads::find(self.workload)
                .ok_or_else(|| format!("kernel {} is not registered", self.workload))?,
            params: Params::small()
                .with_scale(Scale::Tiny)
                .with_threads(self.threads),
        })
    }
}

/// The workload's distinct keys, in canonical order.
///
/// # Errors
///
/// A grid spec that does not parse (a bug).
pub fn keys(kind: Serve) -> Result<Vec<Key>, String> {
    let mut keys = Vec::new();
    match kind {
        Serve::Cold => {
            for spec in diag_workloads::all() {
                for m in tune::default_grid() {
                    for threads in [1, 2] {
                        keys.push(Key::new(spec.name, &m.render(), threads)?);
                    }
                }
            }
        }
        Serve::Warm => {
            for w in ["bfs", "hotspot", "nn", "mcf"] {
                let spec: WorkloadSpec = diag_workloads::find(w)
                    .ok_or_else(|| format!("kernel {w} is not registered"))?;
                for m in ["diag", "ooo", "inorder"] {
                    keys.push(Key::new(spec.name, m, 1)?);
                }
            }
        }
    }
    Ok(keys)
}

/// Folds one key's wire statistics into a serve digest.
fn fold_stats(d: &mut Digest, key: &Key, stats: [u64; 6]) {
    d.str(&key.label());
    stats.iter().for_each(|&v| d.u64(v));
}

/// The digest `expected/serve.json` pins for a workload, from direct
/// in-process runs (what `harness` computes for the same keys).
///
/// # Errors
///
/// A key whose run fails.
pub fn direct_digest(kind: Serve) -> Result<String, String> {
    let session = Session::in_memory();
    let mut d = Digest::default();
    for key in keys(kind)? {
        let run = key.sweep_run()?;
        let s =
            diag_bench::runner::run_verified_with(&session, &run.machine, &run.spec, &run.params)
                .map_err(|e| e.to_string())?;
        let st = &s.stalls;
        fold_stats(
            &mut d,
            &key,
            [
                s.cycles,
                s.committed,
                s.threads,
                st.memory,
                st.control,
                st.structural,
            ],
        );
    }
    Ok(d.hex())
}

/// Reads the digest fields from the `stats` object of a result frame.
fn wire_stats(v: &Value) -> Option<[u64; 6]> {
    let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).map(|x| x as u64);
    let s = v.get("stalls")?;
    Some([
        n(v, "cycles")?,
        n(v, "committed")?,
        n(v, "threads")?,
        n(s, "memory")?,
        n(s, "control")?,
        n(s, "structural")?,
    ])
}

/// The `serve-child` mode: a `diag-serve --workers 1 --no-cache`
/// equivalent that prints its port on stdout and serves until shutdown.
///
/// # Errors
///
/// Bind or serve failures.
pub fn child_main() -> Result<(), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, Session::in_memory()).map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", server.local_addr().port()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// A `diag-serve` child process; killed and reaped on drop.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    /// Spawns the server and waits until it greets a connection.
    fn spawn() -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let port: Option<u16> = line.trim().parse().ok();
        let server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port.unwrap_or(0))),
        };
        match (read, port) {
            (Some(Ok(_)), Some(_)) => {
                Client::connect(server.addr).map_err(|e| format!("server hello: {e}"))?;
                Ok(server)
            }
            _ => Err("server child did not report its port".to_string()),
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Scrapes the `metrics` verb.
    fn scrape(&self) -> Result<Frame, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client.send_verb("metrics").map_err(|e| e.to_string())?;
        match client.recv() {
            Ok(Some(f)) if f.kind() == "metrics" => Ok(f),
            other => Err(format!("metrics scrape failed: {other:?}")),
        }
    }

    /// Graceful drain: `shutdown`, then wait for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client.send_verb("shutdown").map_err(|e| e.to_string())?;
        while let Ok(Some(frame)) = client.recv() {
            if frame.kind() == "shutdown" {
                break;
            }
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not exit after shutdown".to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The fields of one result or reject frame the checks need.
#[derive(Debug, Clone, Default)]
struct Reply {
    ok: bool,
    spec: String,
    /// The `stats` object of a successful result.
    stats: Option<Value>,
    hits: u64,
    builds: u64,
    run_builds: u64,
    host_ns: u64,
    committed: u64,
    /// Frame size on the wire, newline included.
    bytes: u64,
}

impl Reply {
    /// `(seq, reply)` of a result or reject frame; `None` for anything
    /// else.
    fn of(frame: &Frame) -> Option<(u64, Reply)> {
        if !matches!(frame.kind(), "result" | "reject") {
            return None;
        }
        let ok = frame.ok() == Some(true);
        let stats = frame.doc.get("stats").filter(|_| ok).cloned();
        let num = |v: Option<&Value>| v.and_then(Value::as_num).map_or(0, |n| n as u64);
        let reply = Reply {
            ok,
            spec: frame.spec().unwrap_or_default().to_string(),
            committed: num(stats.as_ref().and_then(|s| s.get("committed"))),
            stats,
            hits: frame.cache_hits().unwrap_or(0),
            builds: frame.cache_builds().unwrap_or(0),
            run_builds: frame.run_builds().unwrap_or(0),
            host_ns: num(frame.doc.get("host_ns")),
            bytes: frame.raw.len() as u64 + 1,
        };
        Some((frame.seq()?, reply))
    }
}

/// A frame line as read off the socket, parsed.
fn frame(raw: String) -> Option<Frame> {
    let doc = json::parse(&raw).ok()?;
    Some(Frame { raw, doc })
}

/// Sums over a pass's successful replies.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    ok: u64,
    bytes: u64,
    hits: u64,
    builds: u64,
    run_builds: u64,
    host_ns: u64,
    committed: u64,
}

impl Totals {
    fn add(&mut self, r: &Reply) {
        self.ok += 1;
        self.bytes += r.bytes;
        self.hits += r.hits;
        self.builds += r.builds;
        self.run_builds += r.run_builds;
        self.host_ns += r.host_ns;
        self.committed += r.committed;
    }

    fn merge(&mut self, o: &Totals) {
        self.ok += o.ok;
        self.bytes += o.bytes;
        self.hits += o.hits;
        self.builds += o.builds;
        self.run_builds += o.run_builds;
        self.host_ns += o.host_ns;
        self.committed += o.committed;
    }
}

/// What one open-loop pass observed.
#[derive(Debug, Default)]
struct PassData {
    /// Due time → result read, ms, for every successful request.
    latency_ms: Vec<f64>,
    /// Due time (s after the pass start) of each `latency_ms` entry.
    ok_due: Vec<f64>,
    /// Send time − due time, µs, for every request sent.
    lag_us: Vec<f64>,
    /// Requests sent.
    attempted: u64,
    /// Failed, rejected, or unanswered requests.
    failed: u64,
    /// Last result − last send, ms.
    drain_ms: f64,
    /// Pass start → last result, s.
    secs: f64,
    /// Sums over the successful replies.
    totals: Totals,
}

impl PassData {
    /// Latencies grouped into windows of `secs` by due time.
    fn windows(&self, secs: f64) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::new();
        for (&lat, &due) in self.latency_ms.iter().zip(&self.ok_due) {
            let w = (due / secs) as usize;
            if out.len() <= w {
                out.resize(w + 1, Vec::new());
            }
            out[w].push(lat);
        }
        out
    }

    fn step(&self, rate: f64, window_s: f64) -> Step {
        let lag = Latencies::new(self.lag_us.clone());
        let windows = windowed(&[self], window_s);
        Step {
            rate,
            p99_ms: if windows.is_empty() {
                f64::INFINITY
            } else {
                window_median(&windows, 99.0)
            },
            failed: self.failed,
            drain_ms: self.drain_ms,
            send_lag_p99_us: lag.pct(99.0),
        }
    }
}

/// Latencies of `passes` in windows of `window_s` seconds (by due
/// time), keeping the windows with enough samples for a p99.
fn windowed(passes: &[&PassData], window_s: f64) -> Vec<Latencies> {
    passes
        .iter()
        .flat_map(|p| p.windows(window_s))
        .filter(|w| tail_supported(w.len(), 99.0))
        .map(Latencies::new)
        .collect()
}

/// The median over windows of each window's percentile `pct`: a host
/// stall spoils the windows it falls in, not the whole measurement.
fn window_median(windows: &[Latencies], pct: f64) -> f64 {
    median(&windows.iter().map(|w| w.pct(pct)).collect::<Vec<_>>())
}

fn secs_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// What [`drive`] saw on the connection.
struct Wire {
    /// The instant due times count from.
    start: Instant,
    /// When each request was written.
    sent: Vec<Instant>,
    /// Every frame line read, with when it was read. The receiver only
    /// timestamps and keeps lines; they are parsed after the pass, so
    /// parsing cannot delay the timestamps of frames queued behind.
    frames: Vec<(Instant, String)>,
}

/// Sends `lines[i]` at `due[i]` seconds after the start over one
/// connection (a sender thread) while this thread reads one frame per
/// request.
fn drive(addr: SocketAddr, lines: &[String], due: &[f64]) -> Result<Wire, String> {
    let n = lines.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("hello: {e}"))?;
    if frame(line.trim_end().to_string()).is_none_or(|f| f.kind() != "hello") {
        return Err(format!("expected a hello frame, got {line:?}"));
    }
    let start = Instant::now() + Duration::from_millis(2);
    let due_at = |i: usize| start + Duration::from_secs_f64(due[i]);

    let mut frames = Vec::with_capacity(n);
    let (sent, recv_err) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(n);
            let mut batch = String::new();
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                let next = due_at(i);
                if next > now {
                    std::thread::sleep(next - now);
                }
                let now = Instant::now();
                batch.clear();
                let first = i;
                while i < n && due_at(i) <= now {
                    batch.push_str(&lines[i]);
                    batch.push('\n');
                    i += 1;
                }
                writer
                    .write_all(batch.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                let t = Instant::now();
                sent.extend(std::iter::repeat_n(t, i - first));
            }
            Ok(sent)
        });
        let mut err = None;
        while frames.len() < n {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    err = Some("server closed the connection".to_string());
                    break;
                }
                Ok(_) => {
                    line.truncate(line.trim_end().len());
                    frames.push((Instant::now(), line));
                }
                Err(e) => {
                    err = Some(format!("receive: {e}"));
                    break;
                }
            }
        }
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err("sender panicked".to_string()));
        (sent, err)
    });
    let sent = sent?;
    if let Some(e) = recv_err {
        return Err(e);
    }
    Ok(Wire {
        start,
        sent,
        frames,
    })
}

/// One pass's request lines and due times.
struct Traffic {
    lines: Vec<String>,
    /// Index into the key table per request.
    keys: Vec<usize>,
    due: Vec<f64>,
}

fn traffic(kind: Serve, keys: &[Key], n: usize, rate: f64, seed: u64, tag: u64) -> Traffic {
    let order: Vec<usize> = match kind {
        // Distinct keys, in seeded order.
        Serve::Cold => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            schedule::shuffle(schedule::substream(seed, tag), &mut order);
            order.truncate(n);
            order
        }
        // Keys drawn uniformly.
        Serve::Warm => {
            let mut rng = SplitMix64::seed_from_u64(schedule::substream(seed, tag));
            (0..n).map(|_| rng.gen_range(0..keys.len())).collect()
        }
    };
    let lines = order
        .iter()
        .enumerate()
        .map(|(seq, &k)| keys[k].line(seq as u64))
        .collect();
    Traffic {
        lines,
        due: schedule::poisson(schedule::substream(seed, tag + 1), rate, order.len()),
        keys: order,
    }
}

/// Server-side view from a `metrics` scrape, µs.
#[derive(Debug, Clone, Copy, Default)]
struct ServerView {
    queue_wait_p50: f64,
    queue_wait_p99: f64,
    execute_p50: f64,
    execute_p99: f64,
    first_byte_p50: f64,
    first_byte_p99: f64,
    first_byte_mean: f64,
    depth_hw: f64,
}

impl ServerView {
    fn of(frame: &Frame) -> ServerView {
        let h = |name: &str, field: &str| -> f64 {
            let key = format!("diag_serve_{name}_ns{{scale=\"tiny\"}}");
            frame.metric_field("histograms", &key, field).unwrap_or(0) as f64 / 1e3
        };
        ServerView {
            queue_wait_p50: h("queue_wait", "p50"),
            queue_wait_p99: h("queue_wait", "p99"),
            execute_p50: h("execute", "p50"),
            execute_p99: h("execute", "p99"),
            first_byte_p50: h("first_byte", "p50"),
            first_byte_p99: h("first_byte", "p99"),
            first_byte_mean: h("first_byte", "mean"),
            depth_hw: frame
                .metric_field("gauges", "diag_serve_queue_depth", "high_water")
                .unwrap_or(0) as f64,
        }
    }

    /// Field-wise median of several scrapes.
    fn median_of(views: &[ServerView]) -> ServerView {
        let m = |f: fn(&ServerView) -> f64| median(&views.iter().map(f).collect::<Vec<_>>());
        ServerView {
            queue_wait_p50: m(|v| v.queue_wait_p50),
            queue_wait_p99: m(|v| v.queue_wait_p99),
            execute_p50: m(|v| v.execute_p50),
            execute_p99: m(|v| v.execute_p99),
            first_byte_p50: m(|v| v.first_byte_p50),
            first_byte_p99: m(|v| v.first_byte_p99),
            first_byte_mean: m(|v| v.first_byte_mean),
            depth_hw: m(|v| v.depth_hw),
        }
    }
}

/// One serve workload run in progress.
struct Bench {
    kind: Serve,
    shape: Shape,
    keys: Vec<Key>,
    seed: u64,
    out: Outcome,
    /// Each key's `stats` object as first answered; every later answer
    /// for the key, from any server, must be identical.
    known: Vec<Option<Value>>,
    /// Set-up times, s: the timed set-ups, plus every fresh server a
    /// `serve-cold` pass spawns.
    setups: Vec<f64>,
    /// Scrapes taken at the end of fixed-rate passes.
    views: Vec<ServerView>,
    /// Server `VmHWM` at the end of fixed-rate passes, MiB.
    rss: Vec<f64>,
    /// The long-lived pre-warmed server (`serve-warm`).
    warm: Option<ServerChild>,
    /// Traffic streams drawn so far (each gets its own seed tags).
    streams: u64,
    /// Request ids handed out so far (span ids are unique per run).
    next_id: u64,
}

/// One fixed-rate pass or ladder step.
struct Observed {
    data: PassData,
    traffic: Traffic,
}

impl Bench {
    fn new(kind: Serve, seed: u64) -> Result<Bench, String> {
        let keys = keys(kind)?;
        Ok(Bench {
            kind,
            shape: kind.shape(),
            known: vec![None; keys.len()],
            keys,
            seed,
            out: Outcome::new(),
            setups: Vec::new(),
            views: Vec::new(),
            rss: Vec::new(),
            warm: None,
            streams: 0,
            next_id: 0,
        })
    }

    fn name(&self) -> &'static str {
        self.shape.name
    }

    /// Per-request checks of a successful reply for key `k`: the
    /// canonical spec is echoed, the request ran `want_builds`
    /// simulations (a key's first request on a server simulates once, a
    /// repeat never does), and the key's statistics never change.
    fn check(&mut self, k: usize, r: &Reply, want_builds: u64) -> Result<(), String> {
        let key = &self.keys[k];
        if r.spec != key.spec {
            return Err(format!("spec {:?} echoed for {}", r.spec, key.label()));
        }
        if r.run_builds != want_builds {
            return Err(format!(
                "{} run-stage builds for {}",
                r.run_builds,
                key.label()
            ));
        }
        match &self.known[k] {
            Some(s) if Some(s) != r.stats.as_ref() => {
                Err(format!("statistics changed for {}", key.label()))
            }
            Some(_) => Ok(()),
            None => {
                self.known[k] = r.stats.clone();
                Ok(())
            }
        }
    }

    /// Records the first of `count` bad replies as a problem.
    fn bad_replies(&mut self, count: usize, first: Option<String>) {
        if let Some(first) = first {
            let name = self.name();
            self.out
                .problem(format!("{name}: {count} bad replies, first: {first}"));
        }
    }

    /// Spawns a server and, for `serve-warm`, submits every key once
    /// and waits for the answers. Records the set-up time.
    fn set_up(&mut self) -> Result<ServerChild, String> {
        let t = Instant::now();
        let server = ServerChild::spawn()?;
        if self.kind == Serve::Warm {
            let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
            for (i, k) in self.keys.iter().enumerate() {
                client
                    .send_line(&k.line(i as u64))
                    .map_err(|e| e.to_string())?;
            }
            let mut replies = vec![None; self.keys.len()];
            for _ in 0..self.keys.len() {
                let frame = client.recv().map_err(|e| e.to_string())?;
                match frame.as_ref().and_then(Reply::of) {
                    Some((seq, r)) if (seq as usize) < replies.len() => {
                        replies[seq as usize] = Some(r)
                    }
                    _ => return Err(format!("{}: pre-warm got {frame:?}", self.name())),
                }
            }
            self.setups.push(t.elapsed().as_secs_f64());
            let (mut count, mut first) = (0, None);
            for (k, reply) in replies.iter().enumerate() {
                let result = match reply {
                    Some(r) if r.ok => self.check(k, r, 1),
                    _ => Err(format!("pre-warm of {} failed", self.keys[k].label())),
                };
                if let Err(e) = result {
                    count += 1;
                    first.get_or_insert(e);
                }
            }
            self.bad_replies(count, first);
            return Ok(server);
        }
        self.setups.push(t.elapsed().as_secs_f64());
        Ok(server)
    }

    /// Drives `n` requests at `rate` (cold: a fresh server per pass),
    /// checking every reply. Fixed-rate passes also scrape the server
    /// and read its peak RSS. When tracing, records a `loadgen.send`
    /// (due → sent) and a `serve.request` (sent → result) span per
    /// request.
    fn pass(
        &mut self,
        n: usize,
        rate: f64,
        fixed: bool,
        spans: Option<&mut Spans>,
    ) -> Result<Observed, String> {
        let tag = 100 + 2 * self.streams;
        self.streams += 1;
        let traffic = traffic(self.kind, &self.keys, n, rate, self.seed, tag);
        let fresh = match self.kind {
            Serve::Cold => Some(self.set_up()?),
            Serve::Warm => None,
        };
        let server = fresh.as_ref().or(self.warm.as_ref()).ok_or("no server")?;
        let wire = drive(server.addr, &traffic.lines, &traffic.due)?;
        if fixed && fresh.is_some() {
            self.views.push(ServerView::of(&server.scrape()?));
            self.rss.push(server.peak_rss_mib());
        }
        if let Some(s) = fresh {
            s.shutdown()?;
        }
        let data = self.observe(&traffic, wire, spans);
        Ok(Observed { data, traffic })
    }

    /// Parses and checks a pass's frames, and times every request.
    fn observe(
        &mut self,
        traffic: &Traffic,
        wire: Wire,
        mut spans: Option<&mut Spans>,
    ) -> PassData {
        let want_builds = match self.kind {
            Serve::Cold => 1,
            Serve::Warm => 0,
        };
        let n = traffic.lines.len();
        let due_at = |i: usize| wire.start + Duration::from_secs_f64(traffic.due[i]);
        let mut data = PassData {
            attempted: n as u64,
            lag_us: (0..n)
                .map(|i| secs_between(due_at(i), wire.sent[i]) * 1e6)
                .collect(),
            ..PassData::default()
        };
        let mut answered = vec![false; n];
        let (mut stray, mut bad, mut first_bad) = (0, 0, None);
        let mut last_recv = wire.start;
        for (t, raw) in wire.frames {
            let Some((seq, reply)) = frame(raw).as_ref().and_then(Reply::of) else {
                stray += 1;
                continue;
            };
            let i = seq as usize;
            if i >= n || answered[i] {
                stray += 1;
                continue;
            }
            answered[i] = true;
            last_recv = last_recv.max(t);
            if let Some(s) = spans.as_deref_mut() {
                let id = self.next_id + seq;
                s.record("loadgen.send", 1, "request", id, due_at(i), wire.sent[i]);
                s.record("serve.request", 2, "request", id, wire.sent[i], t);
            }
            if !reply.ok {
                data.failed += 1;
                continue;
            }
            data.latency_ms.push(secs_between(due_at(i), t) * 1e3);
            data.ok_due.push(traffic.due[i]);
            data.totals.add(&reply);
            if let Err(e) = self.check(traffic.keys[i], &reply, want_builds) {
                bad += 1;
                first_bad.get_or_insert(e);
            }
        }
        self.next_id += n as u64;
        data.failed += answered.iter().filter(|a| !**a).count() as u64;
        if stray > 0 {
            first_bad.get_or_insert(format!("{stray} frames answered no request"));
        }
        self.bad_replies(bad + stray, first_bad);
        let last_sent = wire.sent.last().copied().unwrap_or(wire.start);
        data.drain_ms = secs_between(last_sent, last_recv) * 1e3;
        data.secs = secs_between(wire.start, last_recv);
        data
    }

    /// The serve digest over every key's statistics, checked against
    /// `expected/serve.json`.
    fn check_digest(&mut self, expected: &Expected) {
        let mut d = Digest::default();
        for (key, stats) in self.keys.iter().zip(&self.known) {
            match stats.as_ref().and_then(wire_stats) {
                Some(fields) => fold_stats(&mut d, key, fields),
                None => {
                    let name = self.name();
                    self.out
                        .problem(format!("{name}: {} was never answered", key.label()));
                    return;
                }
            }
        }
        let name = self.name();
        expected.check_serve(&mut self.out, name, &d.hex());
    }
}

fn merged<F: Fn(&PassData) -> &Vec<f64>>(passes: &[Observed], f: F) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| f(&p.data).iter().copied())
        .collect()
}

/// Runs a serve workload for `seconds` of measurement.
///
/// Untraced: [`SETUPS`] timed set-ups, a warm-up, then fixed-rate passes
/// for `seconds`; reports the end-to-end metrics. Traced: the same
/// set-up and warm-up, untraced fixed-rate passes for ~30% of the time,
/// traced ones for ~20%, the goodput ladder for up to ~40%, then the
/// offline layer measurements; reports the per-layer metrics.
///
/// # Errors
///
/// A server that cannot be started, driven, or stopped.
pub fn run(
    kind: Serve,
    seed: u64,
    seconds: f64,
    expected: &Expected,
    spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    let mut b = Bench::new(kind, seed)?;
    for _ in 0..SETUPS {
        let server = b.set_up()?;
        match kind {
            Serve::Warm => {
                if let Some(old) = b.warm.replace(server) {
                    old.shutdown()?;
                }
            }
            Serve::Cold => server.shutdown()?,
        }
    }

    // Untimed warm-up: a short burst at the fixed rate.
    b.pass((b.shape.rate * 0.3) as usize, b.shape.rate, false, None)?;

    let traced = spans.is_some();
    let (rate, per_pass) = (b.shape.rate, b.shape.per_pass);
    let start = Instant::now();
    let budget = if traced { 0.3 * seconds } else { seconds };
    let mut untraced = Vec::new();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < budget {
        untraced.push(b.pass(per_pass, rate, true, None)?);
        // A cold pass set up a server of its own; a warm one gets a
        // set-up sample from a spare server.
        if kind == Serve::Warm {
            b.set_up()?.shutdown()?;
        }
    }
    if let Some(s) = &b.warm {
        b.views.push(ServerView::of(&s.scrape()?));
        b.rss.push(s.peak_rss_mib());
    }
    b.check_digest(expected);

    b.out.attempted = untraced.iter().map(|p| p.data.attempted).sum();
    b.out.failed = untraced.iter().map(|p| p.data.failed).sum();
    let lat = Latencies::new(merged(&untraced, |d| &d.latency_ms));
    let lag = Latencies::new(merged(&untraced, |d| &d.lag_us));
    // Every timing is a median: per-window percentiles (each window
    // holds enough samples for its p99), then their median, so a host
    // stall spoils the windows it falls in rather than the run.
    let windows = windowed(
        &untraced.iter().map(|p| &p.data).collect::<Vec<_>>(),
        b.shape.window_s,
    );
    let (p50, p99) = (window_median(&windows, 50.0), window_median(&windows, 99.0));
    println!(
        "{}: {} fixed-rate passes at {rate} req/s; over {} windows: median p50 {p50:.4}ms, \
         median p99 {p99:.4}ms; pooled {}; send lag p99 {:.1}us; set-up {:.6}s median of {}",
        b.name(),
        untraced.len(),
        windows.len(),
        lat.describe("ms"),
        lag.pct(99.0),
        median(&b.setups),
        b.setups.len()
    );

    let Some(spans) = spans else {
        if let Some(s) = b.warm.take() {
            s.shutdown()?;
        }
        let pass_secs: Vec<f64> = untraced.iter().map(|p| p.data.secs).collect();
        let mut out = b.out;
        out.set("setup_s", median(&b.setups));
        out.set("pass_s", median(&pass_secs));
        out.set("latency_p50_ms", p50);
        out.set("peak_rss_mib", median(&b.rss));
        return Ok(out);
    };

    let traced_start = Instant::now();
    let mut traced_passes = Vec::new();
    while traced_passes.len() < 2 || traced_start.elapsed().as_secs_f64() < 0.2 * seconds {
        traced_passes.push(b.pass(per_pass, rate, false, Some(&mut *spans))?);
    }
    let steps = ladder(&mut b, start, 0.9 * seconds)?;
    b.out.set("e2e.latency_p99_ms", p99);
    b.out.set(
        "e2e.goodput_rps",
        schedule::goodput(&steps, b.shape.limit_ms),
    );
    let traced_lat = Latencies::new(merged(&traced_passes, |d| &d.latency_ms));
    let view = ServerView::median_of(&b.views);
    let out = &mut b.out;
    out.set("serve.queue_wait_us_p50", view.queue_wait_p50);
    out.set("serve.queue_wait_us_p99", view.queue_wait_p99);
    out.set("serve.execute_us_p50", view.execute_p50);
    out.set("serve.execute_us_p99", view.execute_p99);
    out.set("serve.first_byte_us_p50", view.first_byte_p50);
    out.set("serve.first_byte_us_p99", view.first_byte_p99);
    out.set("serve.queue_depth_hw", view.depth_hw);
    out.set("serve.wire_us_p50", lat.p50() * 1e3 - view.first_byte_p50);
    out.set("loadgen.send_lag_p99_us", lag.pct(99.0));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_lat.p50() - lat.p50()) / lat.p50(),
    );

    let mut t = Totals::default();
    untraced.iter().for_each(|p| t.merge(&p.data.totals));
    let count = t.ok.max(1) as f64;
    out.set("serve.frame_bytes", t.bytes as f64 / count);
    out.set(
        "pipeline.hit_ratio",
        t.hits as f64 / (t.hits + t.builds).max(1) as f64,
    );
    out.set("pipeline.run_builds_per_req", t.run_builds as f64 / count);
    if kind == Serve::Cold {
        out.set(
            "diag_ns_per_instr",
            t.host_ns as f64 / t.committed.max(1) as f64,
        );
    }
    // Client time outside the generator's lag and the server's
    // admission → first-byte span: wire, socket reads, and parsing.
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let client_us = mean(merged(&untraced, |d| &d.latency_ms)) * 1e3;
    let lag_us = mean(merged(&untraced, |d| &d.lag_us));
    out.set(
        "reconcile.residual_pct",
        100.0 * (client_us - lag_us - view.first_byte_mean) / client_us,
    );

    let lines = &untraced.last().ok_or("no untraced pass")?.traffic.lines;
    request_path(lines, out)?;
    simulations(kind, &b.keys, spans, out)?;
    let hook_budget = Duration::from_secs_f64((seconds * 0.1).max(1.0));
    let kernels = crate::batch::hook_kernels()?;
    let (nullsink, profiler) = layers::hook_overhead(
        &Session::in_memory(),
        &kernels,
        &Params::tiny(),
        hook_budget,
    )?;
    out.set("trace.nullsink_overhead_pct", nullsink);
    out.set("profile.collector_overhead_pct", profiler);
    if let Some(s) = b.warm.take() {
        s.shutdown()?;
    }
    Ok(b.out)
}

/// The goodput ladder: fixed-rate steps from the frozen start rate,
/// climbing while they pass and descending while they fail, until the
/// goodput is bracketed or the measurement time is spent. A failing
/// step is retried once.
fn ladder(b: &mut Bench, start: Instant, seconds: f64) -> Result<Vec<Step>, String> {
    let mut steps: Vec<Step> = Vec::new();
    let limit = b.shape.limit_ms;
    let mut attempts = 0;
    while let Some(rate) =
        schedule::next_rate(b.shape.ladder_start, &steps, limit, MAX_LADDER_STEPS)
    {
        if attempts >= MAX_LADDER_STEPS
            || (steps.len() >= 2 && start.elapsed().as_secs_f64() >= seconds)
        {
            break;
        }
        let n = match b.kind {
            Serve::Cold => b.keys.len(),
            Serve::Warm => (rate * WARM_STEP_SECS) as usize,
        };
        let window = b.shape.window_s;
        let mut step = b.pass(n, rate, false, None)?.data.step(rate, window);
        attempts += 1;
        if !step.passes(limit) {
            let retry = b.pass(n, rate, false, None)?.data.step(rate, window);
            attempts += 1;
            step = schedule::better(step, retry, limit);
        }
        println!(
            "{}: ladder {rate:.0} req/s: p99 {:.3}ms, {} failed, drain {:.1}ms, \
             send lag p99 {:.0}us: {}",
            b.name(),
            step.p99_ms,
            step.failed,
            step.drain_ms,
            step.send_lag_p99_us,
            if step.passes(limit) { "pass" } else { "fail" }
        );
        steps.push(step);
    }
    Ok(steps)
}

/// Offline: the request path's parse and admission queue, on a pass's
/// exact request lines.
fn request_path(lines: &[String], out: &mut Outcome) -> Result<(), String> {
    let mut parse_ns = Vec::new();
    let mut queue_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let parsed: Vec<Request> = lines
            .iter()
            .map(|l| parse_request(l))
            .collect::<Result<_, _>>()?;
        parse_ns.push(t.elapsed().as_nanos() as f64 / lines.len() as f64);
        let queue = FairQueue::new(1024, 1);
        let t = Instant::now();
        for (i, req) in parsed.iter().enumerate() {
            let client = match req {
                Request::Submit(s) => s.client.as_deref().unwrap_or("conn1"),
                _ => "conn1",
            };
            queue
                .submit(client, 1, i)
                .map_err(|e| format!("offline queue: {e:?}"))?;
            std::hint::black_box(queue.pop());
        }
        queue_ns.push(t.elapsed().as_nanos() as f64 / lines.len() as f64);
    }
    out.set("protocol.parse_request_ns", median(&parse_ns));
    out.set("queue.submit_pop_ns", median(&queue_ns));
    Ok(())
}

/// Offline: the simulations the workload's keys name, decomposed into
/// layer calls through a fresh session (cold: each key once; warm: the
/// twelve keys repeatedly), plus the run-memo cost a request of this
/// workload pays (cold: miss + record; warm: hit).
fn simulations(
    kind: Serve,
    keys: &[Key],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let runs: Vec<SweepRun> = keys.iter().map(Key::sweep_run).collect::<Result<_, _>>()?;
    let mut prep: Vec<(WorkloadSpec, Params)> = Vec::new();
    for r in &runs {
        if !prep
            .iter()
            .any(|(s, p)| s.name == r.spec.name && *p == r.params)
        {
            prep.push((r.spec, r.params));
        }
    }
    let lowers = kind == Serve::Warm;
    let mut build_ms = Vec::new();
    let mut lower_ms = Vec::new();
    for _ in 0..3 {
        let (b, l) = layers::prepare(&Session::in_memory(), &prep, lowers)?;
        build_ms.push(b as f64 / 1e6);
        lower_ms.push(l as f64 / 1e6);
    }
    out.set("workloads.build_ms", median(&build_ms));
    if lowers {
        out.set("isa.lower_ms", median(&lower_ms));
    }

    let reps = match kind {
        Serve::Cold => 1,
        Serve::Warm => 20,
    };
    let opts = Decompose {
        memo: true,
        energy: None,
    };
    let mut parts = Vec::new();
    let mut hit_ns = Vec::new();
    for rep in 0..reps {
        let session = Session::in_memory();
        for (i, run) in runs.iter().enumerate() {
            let id = (rep * runs.len() + i) as u64;
            parts.push(layers::run_decomposed(
                &session,
                run,
                opts,
                Some(spans),
                3,
                id,
            )?);
        }
        for run in &runs {
            let key = run_key(run.spec.name, &run.params, &run.machine);
            let t = Instant::now();
            let hit = session.cached_run(key);
            hit_ns.push(t.elapsed().as_nanos() as f64);
            if hit.is_none() {
                return Err("the run memo lost a recorded run".to_string());
            }
        }
    }
    layers::fold(&parts, out);
    if kind == Serve::Warm {
        out.set("pipeline.run_memo_ns", median(&hit_ns));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_read_result_and_reject_frames() {
        let stats = diag_sim::RunStats {
            cycles: 10,
            committed: 7,
            threads: 1,
            ..diag_sim::RunStats::default()
        };
        let cache = diag_serve::protocol::CacheDelta {
            hits: 3,
            builds: 1,
            run_hits: 0,
            run_builds: 1,
        };
        let line =
            diag_serve::protocol::result_frame(42, "bfs", "diag", "diag:f4c32", &stats, cache, 999);
        let reply = |line: String| frame(line).as_ref().and_then(Reply::of);
        let (seq, r) = reply(line.clone()).unwrap();
        assert_eq!(seq, 42);
        assert!(r.ok);
        assert_eq!(r.spec, "diag:f4c32");
        assert_eq!(
            (r.hits, r.builds, r.run_builds, r.host_ns, r.committed),
            (3, 1, 1, 999, 7)
        );
        assert_eq!(r.bytes, line.len() as u64 + 1);
        assert_eq!(
            r.stats.as_ref().and_then(wire_stats),
            Some([10, 7, 1, 0, 0, 0])
        );
        let (seq, r) = reply(diag_serve::protocol::reject_frame(
            Some(5),
            429,
            "queue full",
        ))
        .unwrap();
        assert_eq!(seq, 5);
        assert!(!r.ok && r.stats.is_none());
        assert!(reply(diag_serve::protocol::hello_frame(1)).is_none());
    }

    #[test]
    fn key_tables_have_the_documented_sizes() {
        assert_eq!(keys(Serve::Cold).unwrap().len(), 1296);
        let warm = keys(Serve::Warm).unwrap();
        assert_eq!(warm.len(), 12);
        let line = warm[0].line(3);
        assert!(
            matches!(parse_request(&line), Ok(Request::Submit(_))),
            "{line}"
        );
    }

    #[test]
    fn traffic_is_seeded() {
        let keys = keys(Serve::Warm).unwrap();
        let a = traffic(Serve::Warm, &keys, 100, 1000.0, 9, 4);
        let b = traffic(Serve::Warm, &keys, 100, 1000.0, 9, 4);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.due, b.due);
        let c = traffic(Serve::Warm, &keys, 100, 1000.0, 10, 4);
        assert_ne!(a.lines, c.lines);
    }
}
