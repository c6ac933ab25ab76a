//! Server behaviour: cache coalescing on warm submissions, bounded
//! admission with deterministic rejects, cancellation, drain-time
//! refusals, deficit-round-robin fairness under a flooding client, and
//! `diag-load` bursts whose metrics expositions stay self-consistent.

use std::collections::BTreeMap;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diag_pipeline::Session;
use diag_serve::{Client, Frame, ServeConfig, Server, ServerHandle, Submit};
use diag_trace::json::Value;

fn spawn(workers: usize, capacity: usize) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        capacity,
        quantum: 1,
    };
    Server::bind(&config, Session::in_memory())
        .expect("bind ephemeral port")
        .spawn()
}

fn field(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing {key}")) as u64
}

#[test]
fn warm_resubmission_reports_hits_and_zero_builds() {
    let handle = spawn(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .submit(&Submit::new(1, "hotspot", "diag"))
        .expect("submit");
    client
        .submit(&Submit::new(2, "hotspot", "diag"))
        .expect("submit");

    let cold = client.recv().expect("read").expect("cold result");
    assert_eq!(cold.seq(), Some(1), "{}", cold.raw);
    assert_eq!(cold.ok(), Some(true), "{}", cold.raw);
    assert!(
        cold.cache_builds().expect("cache.builds") >= 1,
        "cold run must build: {}",
        cold.raw
    );

    assert_eq!(
        cold.run_builds(),
        Some(1),
        "cold run must simulate exactly once: {}",
        cold.raw
    );
    assert_eq!(cold.spec(), Some("diag:f4c32"), "{}", cold.raw);

    // Same spec again: the run-stage memo answers before any artifact
    // is touched, so the warm result reports a run hit, zero builds of
    // any kind — the simulator never stepped for this request.
    let warm = client.recv().expect("read").expect("warm result");
    assert_eq!(warm.seq(), Some(2), "{}", warm.raw);
    assert_eq!(warm.ok(), Some(true), "{}", warm.raw);
    assert_eq!(
        warm.cache_builds(),
        Some(0),
        "warm run rebuilt something: {}",
        warm.raw
    );
    assert!(
        warm.cache_hits().expect("cache.hits") >= 1,
        "warm run saw no cache: {}",
        warm.raw
    );
    assert_eq!(
        warm.run_builds(),
        Some(0),
        "warm run re-simulated: {}",
        warm.raw
    );
    assert!(
        warm.run_hits().expect("cache.run_hits") >= 1,
        "warm run missed the run memo: {}",
        warm.raw
    );
    assert_eq!(warm.spec(), Some("diag:f4c32"), "{}", warm.raw);

    client.send_verb("shutdown").expect("shutdown");
    let _ = client.recv().expect("read");
    handle.join().expect("clean server exit");
}

#[test]
fn config_overrides_reshape_the_run_and_malformed_ones_reject() {
    let handle = spawn(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // An override on top of a preset: the result echoes the canonical
    // spec, not the submitted machine text.
    let mut shaped = Submit::new(1, "hotspot", "diag:f4c2");
    shaped
        .config
        .push(("lsu_depth".to_string(), "4".to_string()));
    client.submit(&shaped).expect("submit");
    let frame = client.recv().expect("read").expect("result");
    assert_eq!(frame.kind(), "result", "{}", frame.raw);
    assert_eq!(frame.ok(), Some(true), "{}", frame.raw);
    assert_eq!(frame.spec(), Some("diag:f4c2+lsu_depth=4"), "{}", frame.raw);

    // A cycle-limit override: the run fails with the sim taxonomy and
    // the spec shows the fold.
    let mut limited = Submit::new(2, "hotspot", "diag");
    limited
        .config
        .push(("max_cycles".to_string(), "10".to_string()));
    client.submit(&limited).expect("submit");
    let frame = client.recv().expect("read").expect("result");
    assert_eq!(frame.ok(), Some(false), "{}", frame.raw);
    assert_eq!(frame.error_kind(), Some("sim"), "{}", frame.raw);
    assert_eq!(
        frame.spec(),
        Some("diag:f4c32+max_cycles=10"),
        "{}",
        frame.raw
    );

    // The removed top-level `max_cycles` field is a typed 400 naming its
    // replacement, not a silent run at the default limit.
    client
        .send_line(r#"{"verb":"submit","seq":6,"workload":"hotspot","max_cycles":10}"#)
        .expect("send");
    let frame = client.recv().expect("read").expect("error frame");
    assert_eq!(frame.kind(), "error", "{}", frame.raw);
    assert_eq!(frame.code(), Some(400), "{}", frame.raw);
    assert!(frame.raw.contains("`config.max_cycles`"), "{}", frame.raw);

    // Malformed overrides are typed 400 rejects, never panics: an
    // unknown key, an unparsable value, and overrides on a machine
    // that has no configuration.
    let mut unknown = Submit::new(3, "hotspot", "diag");
    unknown
        .config
        .push(("warp_drive".to_string(), "9".to_string()));
    let mut bad_value = Submit::new(4, "hotspot", "diag");
    bad_value
        .config
        .push(("clusters".to_string(), "zero".to_string()));
    let mut wrong_machine = Submit::new(5, "hotspot", "ooo");
    wrong_machine
        .config
        .push(("clusters".to_string(), "8".to_string()));
    for submit in [&unknown, &bad_value, &wrong_machine] {
        client.submit(submit).expect("submit");
        let reject = client.recv().expect("read").expect("reject");
        assert_eq!(reject.kind(), "reject", "{}", reject.raw);
        assert_eq!(reject.seq(), Some(submit.seq), "{}", reject.raw);
        assert_eq!(reject.code(), Some(400), "{}", reject.raw);
    }

    client.send_verb("shutdown").expect("shutdown");
    let _ = client.recv().expect("read");
    handle.join().expect("clean server exit");
}

#[test]
fn metrics_verb_reports_both_expositions_and_reconciles_caches() {
    let handle = spawn(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .submit(&Submit::new(1, "hotspot", "diag"))
        .expect("submit");
    client
        .submit(&Submit::new(2, "hotspot", "diag"))
        .expect("submit");
    let cold = client.recv().expect("read").expect("cold result");
    let warm = client.recv().expect("read").expect("warm result");

    client.send_verb("metrics").expect("metrics");
    let m = client.recv().expect("read").expect("metrics frame");
    assert_eq!(m.kind(), "metrics", "{}", m.raw);

    // The text exposition carries the same families as the JSON one.
    let text = m.metrics_text().expect("text exposition");
    assert!(
        text.contains("# TYPE diag_serve_requests_total counter"),
        "text exposition missing TYPE line:\n{text}"
    );
    assert!(
        text.contains("diag_serve_queue_depth_high_water"),
        "text exposition missing gauge high-water:\n{text}"
    );

    // Request lifecycle counters: two submits, both completed, the
    // metrics request itself already counted before the snapshot.
    assert_eq!(
        m.metric_counter("diag_serve_requests_total{verb=\"submit\"}"),
        Some(2),
        "{}",
        m.raw
    );
    assert_eq!(
        m.metric_counter("diag_serve_requests_total{verb=\"metrics\"}"),
        Some(1),
        "{}",
        m.raw
    );
    assert_eq!(
        m.metric_counter("diag_serve_submitted_total"),
        Some(2),
        "{}",
        m.raw
    );
    assert_eq!(
        m.metric_counter("diag_serve_completed_total"),
        Some(2),
        "{}",
        m.raw
    );

    // Latency histograms saw both executions; queue gauges are drained
    // but remember their high water.
    assert_eq!(
        m.metric_field(
            "histograms",
            "diag_serve_execute_ns{scale=\"tiny\"}",
            "count"
        ),
        Some(2),
        "{}",
        m.raw
    );
    assert_eq!(
        m.metric_field("gauges", "diag_serve_queue_depth", "value"),
        Some(0),
        "{}",
        m.raw
    );
    assert!(
        m.metric_field("gauges", "diag_serve_queue_depth", "high_water") >= Some(1),
        "{}",
        m.raw
    );

    // Run-stage cache gauges reconcile exactly with the per-frame
    // counters summed over the cold and warm results.
    let hits = cold.run_hits().expect("hits") + warm.run_hits().expect("hits");
    let builds = cold.run_builds().expect("builds") + warm.run_builds().expect("builds");
    assert_eq!(
        m.metric_field("gauges", "diag_cache_stage_hits{stage=\"runs\"}", "value"),
        Some(hits),
        "{}",
        m.raw
    );
    assert_eq!(
        m.metric_field("gauges", "diag_cache_stage_builds{stage=\"runs\"}", "value"),
        Some(builds),
        "{}",
        m.raw
    );

    client.send_verb("shutdown").expect("shutdown");
    let _ = client.recv().expect("read");
    handle.join().expect("clean server exit");
}

#[test]
fn admission_rejects_cancel_and_drain_are_deterministic() {
    // Zero workers: nothing ever executes, so the queue state is fully
    // deterministic — two submissions fill capacity, the third bounces.
    let handle = spawn(0, 2);
    let mut a = Client::connect(handle.addr()).expect("connect a");
    for seq in 0..3 {
        a.submit(&Submit::new(seq, "hotspot", "diag"))
            .expect("submit");
    }
    let reject = a.recv().expect("read").expect("reject frame");
    assert_eq!(reject.kind(), "reject", "{}", reject.raw);
    assert_eq!(reject.seq(), Some(2), "{}", reject.raw);
    assert_eq!(reject.code(), Some(429), "{}", reject.raw);

    a.send_verb("status").expect("status");
    let status = a.recv().expect("read").expect("status frame");
    assert_eq!(status.kind(), "status", "{}", status.raw);
    assert_eq!(field(&status.doc, "queued"), 2, "{}", status.raw);
    assert_eq!(field(&status.doc, "rejected"), 1, "{}", status.raw);
    assert_eq!(field(&status.doc, "workers"), 0, "{}", status.raw);
    assert_eq!(field(&status.doc, "submitted"), 2, "{}", status.raw);
    assert!(
        status
            .doc
            .get("host")
            .and_then(|h| h.get("rustc"))
            .is_some(),
        "status carries host metadata: {}",
        status.raw
    );

    // Cancel both queued jobs: each takes its order slot, so the frames
    // flush immediately and in order.
    for seq in 0..2 {
        a.cancel(seq).expect("cancel");
        let frame = a.recv().expect("read").expect("cancelled frame");
        assert_eq!(frame.kind(), "cancelled", "{}", frame.raw);
        assert_eq!(frame.seq(), Some(seq), "{}", frame.raw);
        assert_eq!(frame.ok(), Some(true), "{}", frame.raw);
    }
    // A second cancel of the same seq finds nothing.
    a.cancel(0).expect("cancel");
    let miss = a.recv().expect("read").expect("cancelled frame");
    assert_eq!(miss.ok(), Some(false), "{}", miss.raw);

    // A second connection opened before the drain still gets answered —
    // with a 503 — after the first connection shuts the server down.
    let mut b = Client::connect(handle.addr()).expect("connect b");
    a.send_verb("shutdown").expect("shutdown");
    let bye = a.recv().expect("read").expect("shutdown ack");
    assert_eq!(bye.kind(), "shutdown", "{}", bye.raw);
    assert_eq!(field(&bye.doc, "queued"), 0, "{}", bye.raw);

    b.submit(&Submit::new(9, "hotspot", "diag"))
        .expect("submit");
    let refused = b.recv().expect("read").expect("draining reject");
    assert_eq!(refused.code(), Some(503), "{}", refused.raw);

    handle.join().expect("clean server exit");
}

#[test]
fn flooding_client_cannot_starve_a_small_one() {
    let handle = spawn(1, 1024);
    let mut flood = Client::connect(handle.addr()).expect("connect flood");
    let mut small = Client::connect(handle.addr()).expect("connect small");

    // The flood's first job is a long small-scale run (mcf on the
    // out-of-order baseline): it occupies the single worker long enough
    // for the rest of the queue to fill, making the scheduling order
    // under test independent of socket timing.
    let mut first = Submit::new(0, "mcf", "ooo");
    first.scale = "small".to_string();
    flood.submit(&first).expect("submit");
    const FLOOD: u64 = 200;
    for seq in 1..=FLOOD {
        flood
            .submit(&Submit::new(seq, "bfs", "inorder"))
            .expect("submit");
    }
    const SMALL: u64 = 4;
    for seq in 0..SMALL {
        small
            .submit(&Submit::new(seq, "hotspot", "inorder"))
            .expect("submit");
    }

    // Count the flood's completions on a side thread while the main
    // thread waits for the small client's last result.
    let flood_done = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&flood_done);
    let reader = std::thread::spawn(move || {
        for _ in 0..=FLOOD {
            let frame = flood.recv().expect("read").expect("flood result");
            assert_eq!(frame.kind(), "result", "{}", frame.raw);
            counter.fetch_add(1, Ordering::Relaxed);
        }
        flood
    });
    for seq in 0..SMALL {
        let frame = small.recv().expect("read").expect("small result");
        assert_eq!(frame.seq(), Some(seq), "{}", frame.raw);
        assert_eq!(frame.ok(), Some(true), "{}", frame.raw);
    }
    let flood_at_finish = flood_done.load(Ordering::Relaxed);
    // FIFO would drain (essentially) all 201 flood jobs before the
    // small client's four; deficit round-robin alternates lanes, so the
    // small client finishes after only a handful of flood completions.
    assert!(
        flood_at_finish <= 100,
        "small client waited behind {flood_at_finish} flood jobs"
    );

    let _ = reader.join().expect("flood reader");
    small.send_verb("shutdown").expect("shutdown");
    let _ = small.recv().expect("read");
    handle.join().expect("clean server exit");
}

#[test]
fn one_worker_reuses_one_machine_across_cache_sharing_specs() {
    // Eight distinct runs (no memo hits) on DiAG shapes that differ in
    // clusters, ring segmentation, LSU depth and threads but share the
    // F4C32 caches: the worker re-shapes its one machine for all eight.
    let handle = spawn(1, 16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let shapes = [("clusters", "16"), ("lsu_depth", "4")];
    let mut seq = 0;
    for workload in ["bfs", "hotspot"] {
        for (key, value) in shapes {
            for threads in [1, 2] {
                let mut submit = Submit::new(seq, workload, "diag");
                submit.threads = threads;
                submit.config.push((key.to_string(), value.to_string()));
                client.submit(&submit).expect("submit");
                seq += 1;
            }
        }
    }
    for seq in 0..8 {
        let frame = client.recv().expect("read").expect("result");
        assert_eq!(frame.seq(), Some(seq), "{}", frame.raw);
        assert_eq!(frame.ok(), Some(true), "{}", frame.raw);
        assert_eq!(frame.run_builds(), Some(1), "{}", frame.raw);
    }
    let metrics = scrape(&handle.addr().to_string());
    assert_eq!(
        metrics.metric_counter("diag_serve_machine_builds_total"),
        Some(1),
        "{}",
        metrics.raw
    );

    client.send_verb("shutdown").expect("shutdown");
    let _ = client.recv().expect("read");
    handle.join().expect("clean server exit");
}

/// Runs `diag-load` against `addr` with `args`.
fn diag_load(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diag-load"))
        .args(["--addr", addr])
        .args(args)
        .output()
        .expect("run diag-load")
}

/// Scrapes one `metrics` frame on a fresh connection.
fn scrape(addr: &str) -> Frame {
    let mut client = Client::connect(addr).expect("connect");
    client.send_verb("metrics").expect("metrics");
    let frame = client.recv().expect("read").expect("metrics frame");
    assert_eq!(frame.kind(), "metrics", "{}", frame.raw);
    frame
}

/// Reads a metrics frame the way a Prometheus scraper would, and holds
/// its text exposition to its JSON twin: every `# TYPE` line is well
/// formed, cumulative buckets never decrease, each histogram closes
/// with an `le="+Inf"` bucket equal to its `_count` and its JSON count,
/// and the text counters equal the JSON counters.
fn check_exposition(frame: &Frame) {
    let text = frame.metrics_text().expect("text exposition");
    let doc = frame.metrics_json().expect("JSON exposition");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("diag-telemetry-v1")
    );
    let is_name = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let mut kind = "";
    let mut counters = BTreeMap::new();
    let mut samples = BTreeMap::new();
    let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
    let mut infs = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            let parts: Vec<&str> = line.split(' ').collect();
            match parts[..] {
                ["#", "TYPE", name, k @ ("counter" | "gauge" | "histogram")] if is_name(name) => {
                    kind = k
                }
                _ => panic!("bad TYPE line: {line:?}"),
            }
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparsable sample line: {line:?}"));
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-integer sample: {line:?}"));
        let (name, labels) = match key.split_once('{') {
            Some((name, rest)) => (
                name,
                rest.strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed labels: {line:?}")),
            ),
            None => (key, ""),
        };
        assert!(is_name(name), "bad metric name: {line:?}");
        if let Some(family) = name.strip_suffix("_bucket") {
            let (rest, le) = labels
                .rsplit_once("le=\"")
                .unwrap_or_else(|| panic!("bucket without le: {line:?}"));
            let rest = rest.trim_end_matches(',');
            let series = if rest.is_empty() {
                family.to_string()
            } else {
                format!("{family}{{{rest}}}")
            };
            let before = cumulative.insert(series.clone(), value).unwrap_or(0);
            assert!(value >= before, "non-monotone bucket: {line:?}");
            if le == "+Inf\"" {
                infs.insert(series, value);
            }
        } else {
            if kind == "counter" {
                counters.insert(key.to_string(), value);
            }
            samples.insert(key.to_string(), value);
        }
    }
    let section = |name: &str| doc.get(name).and_then(Value::as_obj).expect(name);
    let num = |v: Option<&Value>| v.and_then(Value::as_num).expect("number") as u64;
    let json_counters: BTreeMap<String, u64> = section("counters")
        .iter()
        .map(|(k, v)| (k.clone(), num(Some(v))))
        .collect();
    assert_eq!(counters, json_counters, "text and JSON counters disagree");
    let json_counts: BTreeMap<String, u64> = section("histograms")
        .iter()
        .map(|(k, h)| (k.clone(), num(h.get("count"))))
        .collect();
    assert_eq!(infs, json_counts, "+Inf buckets disagree with JSON counts");
    for (key, count) in &json_counts {
        let count_key = match key.split_once('{') {
            Some((name, labels)) => format!("{name}_count{{{labels}"),
            None => format!("{key}_count"),
        };
        assert_eq!(samples.get(&count_key), Some(count), "{count_key}");
    }
}

/// A fixed-seed closed-loop `diag-load` burst.
const BURST: [&str; 8] = [
    "--conns",
    "4",
    "--inflight",
    "8",
    "--requests",
    "32",
    "--seed",
    "7",
];

/// Asks the server at `addr` to drain through `diag-load --shutdown`
/// and waits for it to exit.
fn shutdown_with_diag_load(addr: &str, handle: ServerHandle) {
    let out = diag_load(addr, &["--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    handle.join().expect("clean server exit");
}

#[test]
fn load_bursts_turn_warm_and_keep_expositions_consistent() {
    let handle = spawn(4, 1024);
    let addr = handle.addr().to_string();
    for warm in [false, true] {
        let mut args = BURST.to_vec();
        if warm {
            // The identical burst again: every run must now come from
            // the shared session's run memo, with zero builds.
            args.push("--expect-warm");
        }
        let out = diag_load(&addr, &args);
        assert!(
            out.status.success(),
            "diag-load {args:?}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        check_exposition(&scrape(&addr));
    }
    shutdown_with_diag_load(&addr, handle);
}

#[test]
fn expect_warm_fails_on_a_cold_server() {
    let handle = spawn(4, 1024);
    let addr = handle.addr().to_string();
    let mut args = BURST.to_vec();
    args.push("--expect-warm");
    let out = diag_load(&addr, &args);
    assert!(
        !out.status.success(),
        "--expect-warm on a server that simulated nothing must fail: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    shutdown_with_diag_load(&addr, handle);
}
