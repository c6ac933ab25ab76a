//! Server behaviour: cache coalescing on warm submissions, bounded
//! admission with deterministic rejects, cancellation, drain-time
//! refusals, and deficit-round-robin fairness under a flooding client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diag_pipeline::Session;
use diag_serve::{Client, ServeConfig, Server, ServerHandle, Submit};
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

    // The flood's first job is small-scale: it occupies the single
    // worker long enough for the rest of the queue to fill, making the
    // scheduling order under test independent of socket timing.
    let mut first = Submit::new(0, "nn", "inorder");
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
