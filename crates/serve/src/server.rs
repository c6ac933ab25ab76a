//! The `diag-serve` server: admission, scheduling, execution, streaming.
//!
//! ```text
//!                 ┌───────────── Server ─────────────────────────┐
//!  conn 1 ──────► │ reader thread ─┐                             │
//!  conn 2 ──────► │ reader thread ─┼─► FairQueue (bounded, DRR)  │
//!  conn N ──────► │ reader thread ─┘        │ pop                │
//!                 │                ┌────────┴─────────┐          │
//!                 │                │ worker pool      │          │
//!                 │                │ sweep::run_one_in│          │
//!                 │                │ (shared Session) │          │
//!                 │                └────────┬─────────┘          │
//!                 │      per-conn ordered flush (BTreeMap)       │
//!                 └───────────────────│─────────────────────────-┘
//!  conn K ◄── JSONL frames, per-client submission order ◄────────┘
//! ```
//!
//! One [`Session`] is shared by every worker, so concurrent requests
//! for the same `(workload, params, machine)` coalesce onto a single
//! preparation through the store's `Arc<OnceLock>` layer — the second
//! request blocks briefly and reports a cache *hit* instead of
//! duplicating an assembly. Each result frame carries the hit/build
//! delta observed around its own run. Each worker keeps one machine in a
//! [`MachineSlot`] and runs every job it can on it, re-shaped in place;
//! `diag_serve_machine_builds_total` counts the machines built.
//!
//! Results are written back **in per-client submission order**: each
//! accepted submission takes the connection's next order slot, and a
//! completed (or cancelled) job's frame is buffered until every earlier
//! slot has flushed. Control frames (`reject`, `status`, …) bypass the
//! ordering and are written immediately.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use diag_bench::runner::{MachineSlot, MachineSpec};
use diag_bench::sweep::{self, SweepRun};
use diag_core::apply_override;
use diag_pipeline::Session;
use diag_telemetry::{Counter, Gauge, Histogram, Registry};
use diag_workloads::{find, Params, Scale};

use crate::protocol::{
    self, code, parse_request, CacheDelta, Request, StatusSnapshot, SubmitRequest,
};
use crate::queue::{FairQueue, SubmitError, Ticket};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size. `0` is allowed (nothing executes — jobs queue
    /// until capacity and further submissions get deterministic `429`s;
    /// used by admission tests).
    pub workers: usize,
    /// Queue admission capacity.
    pub capacity: usize,
    /// Deficit-round-robin quantum (scheduling credit added per visit;
    /// see [`crate::queue`]).
    pub quantum: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: sweep::default_jobs(),
            capacity: 1024,
            quantum: 1,
        }
    }
}

/// Scheduling cost of one submission: larger scales consume more
/// deficit, so a client flooding `full`-scale jobs yields proportionally
/// more service to `tiny`-scale neighbours.
pub fn job_cost(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 1,
        Scale::Small => 8,
        Scale::Full => 64,
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Elapsed nanoseconds since `t`, saturating (never panics, never 0ns
/// wraps).
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX) // lint: allow(unwrap)
}

/// Defers the admission→first-byte measurement of one accepted
/// submission to the moment its frame is actually written: results can
/// wait in the per-connection order buffer behind earlier slots, and
/// that queueing delay is part of what the client experiences.
struct FirstByte {
    admitted: Instant,
    hist: Histogram,
}

impl FirstByte {
    fn observe(self) {
        self.hist.record(ns_since(self.admitted));
    }
}

/// Per-connection write side: the socket plus the in-order result
/// buffer.
struct ConnOut {
    stream: Mutex<TcpStream>,
    pending: Mutex<Pending>,
}

struct Pending {
    /// Next order slot to flush.
    next: u64,
    /// Completed frames waiting on earlier slots, each with its
    /// deferred first-byte measurement (if telemetry wants one).
    ready: BTreeMap<u64, (String, Option<FirstByte>)>,
}

impl ConnOut {
    fn new(stream: TcpStream) -> ConnOut {
        ConnOut {
            stream: Mutex::new(stream),
            pending: Mutex::new(Pending {
                next: 0,
                ready: BTreeMap::new(),
            }),
        }
    }

    /// Writes one frame immediately (control frames). Write errors are
    /// ignored: the client hung up, and its jobs finish harmlessly.
    /// Frame and newline go out in a single write — a split write ends
    /// the line in its own small segment, which Nagle holds back behind
    /// the peer's delayed ACK (~40ms per frame each way).
    fn write_line(&self, frame: &str) {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        let mut s = lock(&self.stream);
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }

    /// Delivers the frame for order slot `order`, flushing every
    /// consecutively-complete slot.
    fn complete(&self, order: u64, frame: String, first_byte: Option<FirstByte>) {
        let mut p = lock(&self.pending);
        p.ready.insert(order, (frame, first_byte));
        while let Some((f, fb)) = {
            let next = p.next;
            p.ready.remove(&next)
        } {
            self.write_line(&f);
            if let Some(fb) = fb {
                fb.observe();
            }
            p.next += 1;
        }
    }
}

/// One admitted job.
struct Job {
    out: Arc<ConnOut>,
    seq: u64,
    order: u64,
    run: SweepRun,
    /// The request's machine string, echoed verbatim on the frame.
    machine_key: String,
    /// The canonical rendering of the fully-resolved spec (machine +
    /// config overrides), also echoed on the frame.
    spec_render: String,
    /// When admission succeeded — the zero point of the request's
    /// queue-wait and first-byte latency spans.
    admitted: Instant,
}

/// The request verbs, in wire order, labelling the per-verb counter and
/// latency families.
const VERBS: [&str; 5] = ["submit", "status", "metrics", "cancel", "shutdown"];

/// Index into the per-verb telemetry arrays.
fn verb_idx(req: &Request) -> usize {
    match req {
        Request::Submit(_) => 0,
        Request::Status => 1,
        Request::Metrics => 2,
        Request::Cancel { .. } => 3,
        Request::Shutdown => 4,
    }
}

/// The input scales, in ascending cost order, labelling the per-scale
/// lifecycle histograms.
const SCALES: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Full];

/// Index into the per-scale telemetry arrays.
fn scale_idx(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
    }
}

/// Pre-registered telemetry handles for every serve-side fact. The hot
/// paths (admission, worker loop, flush) index straight into these
/// arrays and never touch the registry mutex.
struct ServeMetrics {
    submitted: Counter,
    completed: Counter,
    errors: Counter,
    cancelled: Counter,
    /// Admission rejections by code, in `400`/`404`/`429`/`503` order
    /// (see [`reject_idx`]); the status frame reports their sum.
    rejected: [Counter; 4],
    running: Gauge,
    verb_requests: [Counter; 5],
    verb_ns: [Histogram; 5],
    queue_wait_ns: [Histogram; 3],
    execute_ns: [Histogram; 3],
    first_byte_ns: [Histogram; 3],
    run_ns_per_instr: Histogram,
    /// Machines the workers built (a worker re-shapes the one it holds
    /// when it can; see `diag_bench::runner::MachineSlot`).
    machine_builds: Counter,
}

/// Index into [`ServeMetrics::rejected`] for an admission-failure code.
fn reject_idx(code: u16) -> usize {
    match code {
        code::BAD_REQUEST => 0,
        code::NOT_FOUND => 1,
        code::QUEUE_FULL => 2,
        _ => 3,
    }
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        let per_scale =
            |name: &str| SCALES.map(|s| registry.histogram(name, &[("scale", s.name())]));
        ServeMetrics {
            submitted: registry.counter("diag_serve_submitted_total", &[]),
            completed: registry.counter("diag_serve_completed_total", &[]),
            errors: registry.counter("diag_serve_errors_total", &[]),
            cancelled: registry.counter("diag_serve_cancelled_total", &[]),
            rejected: ["400", "404", "429", "503"]
                .map(|c| registry.counter("diag_serve_rejected_total", &[("code", c)])),
            running: registry.gauge("diag_serve_running", &[]),
            verb_requests: VERBS
                .map(|v| registry.counter("diag_serve_requests_total", &[("verb", v)])),
            verb_ns: VERBS.map(|v| registry.histogram("diag_serve_verb_ns", &[("verb", v)])),
            queue_wait_ns: per_scale("diag_serve_queue_wait_ns"),
            execute_ns: per_scale("diag_serve_execute_ns"),
            first_byte_ns: per_scale("diag_serve_first_byte_ns"),
            run_ns_per_instr: registry.histogram("diag_serve_run_ns_per_instr", &[]),
            machine_builds: registry.counter("diag_serve_machine_builds_total", &[]),
        }
    }

    fn reject(&self, code: u16) {
        self.rejected[reject_idx(code)].inc();
    }

    fn rejected_total(&self) -> u64 {
        self.rejected.iter().map(Counter::get).sum()
    }
}

struct Shared {
    session: Session,
    queue: FairQueue<Job>,
    addr: SocketAddr,
    workers: usize,
    capacity: usize,
    registry: Registry,
    metrics: ServeMetrics,
    conn_seq: AtomicU64,
}

impl Shared {
    fn snapshot(&self) -> StatusSnapshot {
        let m = &self.metrics;
        let mut host = diag_bench::hostmeta::host_entries().to_vec();
        host.extend(diag_bench::hostmeta::cache_entries(
            &self.session.counters(),
        ));
        StatusSnapshot {
            queued: self.queue.len(),
            running: m.running.get(),
            workers: self.workers,
            capacity: self.capacity,
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            errors: m.errors.get(),
            rejected: m.rejected_total(),
            cancelled: m.cancelled.get(),
            host: diag_bench::hostmeta::render_host_object(&host),
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `config.addr` and prepares the shared state. `session` is
    /// the artifact store every worker executes through — pass a
    /// disk-backed one for cross-restart warm starts.
    ///
    /// # Errors
    ///
    /// Propagates the socket bind failure.
    pub fn bind(config: &ServeConfig, session: Session) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let metrics = ServeMetrics::new(&registry);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                session,
                queue: FairQueue::new(config.capacity.max(1), config.quantum)
                    .with_metrics(&registry),
                addr,
                workers: config.workers,
                capacity: config.capacity.max(1),
                registry,
                metrics,
                conn_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a client sends `shutdown`, then drains: no new
    /// admissions, queued jobs finish, workers join, and `run` returns.
    ///
    /// # Errors
    ///
    /// Propagates worker-thread spawn failures; per-connection I/O
    /// errors only terminate their connection.
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::new();
        for i in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("diag-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        for stream in self.listener.incoming() {
            if self.shared.queue.is_draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_conn(&shared, stream));
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread — the in-process harness
    /// tests use this; the binary calls [`Server::run`] directly.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        ServerHandle {
            addr,
            thread: std::thread::spawn(move || self.run()),
        }
    }
}

/// Handle to a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns the server's I/O error, or an `Other` error if the
    /// server thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Worker loop: pop, execute through the shared session on the worker's
/// one machine slot, deliver. The cache delta around the run attributes
/// hits/builds to this request (exact at one worker; under concurrency a
/// neighbour's counter bumps can land in the window, which is why the
/// warm-burst CI assertion is `builds == 0`, not an exact hit count).
fn worker_loop(shared: &Shared) {
    let mut slot = MachineSlot::new();
    while let Some(job) = shared.queue.pop() {
        let m = &shared.metrics;
        let si = scale_idx(job.run.params.scale);
        m.queue_wait_ns[si].record(ns_since(job.admitted));
        m.running.inc();
        let before = shared.session.counters();
        let builds = slot.builds();
        let t0 = Instant::now();
        let result = sweep::run_one_in(&mut slot, &shared.session, &job.run);
        let host_ns = ns_since(t0).max(1);
        m.machine_builds.add(slot.builds() - builds);
        m.execute_ns[si].record(host_ns);
        let after = shared.session.counters();
        let cache = CacheDelta {
            hits: after.hits().saturating_sub(before.hits()),
            builds: after.builds().saturating_sub(before.builds()),
            run_hits: after.runs.hits.saturating_sub(before.runs.hits),
            run_builds: after.runs.builds.saturating_sub(before.runs.builds),
        };
        let workload = job.run.spec.name;
        let frame = match &result {
            Ok(stats) => {
                m.completed.inc();
                // Guest work bought per host nanosecond — the ROADMAP
                // item-1 gap (host ns/instr) measured per request.
                m.run_ns_per_instr.record(host_ns / stats.committed.max(1));
                protocol::result_frame(
                    job.seq,
                    workload,
                    &job.machine_key,
                    &job.spec_render,
                    stats,
                    cache,
                    host_ns,
                )
            }
            Err(e) => {
                m.errors.inc();
                protocol::error_frame(
                    job.seq,
                    workload,
                    &job.machine_key,
                    &job.spec_render,
                    e,
                    cache,
                    host_ns,
                )
            }
        };
        let first_byte = FirstByte {
            admitted: job.admitted,
            hist: m.first_byte_ns[si].clone(),
        };
        job.out.complete(job.order, frame, Some(first_byte));
        m.running.dec();
    }
}

/// Validates a submission and builds its [`SweepRun`] plus the two
/// strings the result frame echoes (request machine text, canonical
/// spec). Every failure is a typed `4xx` reject — a malformed machine
/// spec or configuration override never panics a worker or drops the
/// connection.
fn plan_submit(req: &SubmitRequest) -> Result<(SweepRun, String, String), (u16, String)> {
    let Some(spec) = find(&req.workload) else {
        return Err((
            code::NOT_FOUND,
            format!("unknown workload `{}`", req.workload),
        ));
    };
    let mut machine = MachineSpec::parse(&req.machine)
        .map_err(|e| (code::BAD_REQUEST, format!("machine `{}`: {e}", req.machine)))?;
    if !req.config.is_empty() {
        let MachineSpec::Diag(cfg) = &mut machine else {
            return Err((
                code::BAD_REQUEST,
                "config overrides only apply to machine `diag`".to_string(),
            ));
        };
        for (key, value) in &req.config {
            apply_override(cfg, key, value)
                .map_err(|e| (code::BAD_REQUEST, format!("config: {e}")))?;
        }
        cfg.validate()
            .map_err(|e| (code::BAD_REQUEST, format!("config: {e}")))?;
    }
    let spec_render = machine.render();
    // Same construction as the harness CLI: the seed is fixed, so a
    // wire request and a `harness` invocation of the same spec run the
    // identical simulation.
    let params = Params::small()
        .with_scale(req.scale)
        .with_threads(req.threads)
        .with_simt(req.simt);
    Ok((
        SweepRun {
            machine,
            spec,
            params,
        },
        req.machine.clone(),
        spec_render,
    ))
}

/// One connection's reader loop: parse, admit, answer control verbs.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
    // Frames are single sub-MSS writes; without NODELAY, Nagle queues
    // each one behind the client's delayed ACK and every round trip
    // costs tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(ConnOut::new(write_half));
    out.write_line(&protocol::hello_frame(conn));
    let default_client = format!("conn{conn}");
    // Order slots are allocated only on successful admission, so
    // rejects never leave a hole in the result stream.
    let mut next_order: u64 = 0;
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(&line) {
            Err(message) => {
                out.write_line(&protocol::protocol_error_frame(&message));
                continue;
            }
            Ok(req) => req,
        };
        let vi = verb_idx(&req);
        shared.metrics.verb_requests[vi].inc();
        let timer = shared.registry.span();
        let stop = matches!(req, Request::Shutdown);
        match req {
            Request::Submit(req) => match plan_submit(&req) {
                Ok((run, machine_key, spec_render)) => {
                    let cost = job_cost(req.scale);
                    let client = req.client.as_deref().unwrap_or(&default_client);
                    let job = Job {
                        out: Arc::clone(&out),
                        seq: req.seq,
                        order: next_order,
                        run,
                        machine_key,
                        spec_render,
                        admitted: Instant::now(),
                    };
                    match shared.queue.submit(client, cost, job) {
                        Ok(ticket) => {
                            next_order += 1;
                            tickets.insert(req.seq, ticket);
                            shared.metrics.submitted.inc();
                        }
                        Err(SubmitError::Full) => {
                            shared.metrics.reject(code::QUEUE_FULL);
                            out.write_line(&protocol::reject_frame(
                                Some(req.seq),
                                code::QUEUE_FULL,
                                "queue full",
                            ));
                        }
                        Err(SubmitError::Draining) => {
                            shared.metrics.reject(code::DRAINING);
                            out.write_line(&protocol::reject_frame(
                                Some(req.seq),
                                code::DRAINING,
                                "server is draining",
                            ));
                        }
                    }
                }
                Err((code, message)) => {
                    shared.metrics.reject(code);
                    out.write_line(&protocol::reject_frame(Some(req.seq), code, &message));
                }
            },
            Request::Cancel { seq } => {
                let hit = tickets
                    .remove(&seq)
                    .and_then(|ticket| shared.queue.cancel(ticket));
                match hit {
                    Some(job) => {
                        shared.metrics.cancelled.inc();
                        // The cancelled frame takes the job's order slot
                        // so later results still flush in order.
                        job.out
                            .complete(job.order, protocol::cancelled_frame(seq, true), None);
                    }
                    None => out.write_line(&protocol::cancelled_frame(seq, false)),
                }
            }
            Request::Status => out.write_line(&protocol::status_frame(&shared.snapshot())),
            Request::Metrics => {
                // Pull-model export: refresh the session's cache gauges
                // into the registry, then snapshot everything at once so
                // both expositions describe the same instant.
                shared.session.export_telemetry(&shared.registry);
                let snap = shared.registry.snapshot();
                out.write_line(&protocol::metrics_frame(&snap.to_text(), &snap.to_json()));
            }
            Request::Shutdown => {
                shared.queue.drain();
                out.write_line(&protocol::shutdown_frame(shared.queue.len()));
                // Unblock the accept loop so `run` can notice the drain.
                let _ = TcpStream::connect(shared.addr);
            }
        }
        timer.finish(&shared.metrics.verb_ns[vi]);
        if stop {
            break;
        }
    }
}
