//! Protocol determinism: the same request script against two fresh
//! servers produces byte-identical transcripts once the only
//! intentionally non-deterministic field (`host_ns` service time) is
//! stripped.

use diag_pipeline::Session;
use diag_serve::protocol::strip_timing;
use diag_serve::{Client, ServeConfig, Server, Submit};

/// Runs the canonical lock-step script against a fresh single-worker
/// server and returns every frame received (including the greeting),
/// newline-joined.
fn transcript() -> String {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        capacity: 16,
        quantum: 1,
    };
    let handle = Server::bind(&config, Session::in_memory())
        .expect("bind ephemeral port")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut frames = vec![client.hello().raw.clone()];
    let mut step = |line: &str, frames: &mut Vec<String>| {
        client.send_line(line).expect("send");
        let frame = client
            .recv_line()
            .expect("read")
            .expect("stream open until shutdown");
        frames.push(frame);
    };

    // Cold then warm submission of the same spec: the second run's
    // cache counters are deterministic at one worker.
    step(&Submit::new(1, "hotspot", "diag").to_line(), &mut frames);
    step(&Submit::new(2, "hotspot", "diag").to_line(), &mut frames);
    // Admission rejections: unknown workload (404), unknown machine
    // (400).
    step(&Submit::new(3, "nosuch", "diag").to_line(), &mut frames);
    step(&Submit::new(4, "hotspot", "z80").to_line(), &mut frames);
    // Protocol errors: not JSON, and an unknown verb.
    step("not json at all", &mut frames);
    step("{\"verb\":\"dance\"}", &mut frames);
    // A failing run: the sim-error taxonomy over the wire.
    let mut limited = Submit::new(7, "hotspot", "diag");
    limited
        .config
        .push(("max_cycles".to_string(), "10".to_string()));
    step(&limited.to_line(), &mut frames);
    // Cancelling an unknown seq answers immediately with ok:false.
    step("{\"verb\":\"cancel\",\"seq\":99}", &mut frames);
    // Graceful drain: the queue is empty, so zero jobs are reported.
    step("{\"verb\":\"shutdown\"}", &mut frames);

    handle.join().expect("clean server exit");
    frames.join("\n")
}

#[test]
fn identical_scripts_produce_identical_transcripts() {
    let a = transcript();
    let b = transcript();
    assert_eq!(
        strip_timing(&a),
        strip_timing(&b),
        "transcripts diverge beyond host_ns"
    );
    // The stripped transcript still contains real timing markers — the
    // strip must have found (and zeroed) them, not missed the field.
    assert!(strip_timing(&a).contains("\"host_ns\":0"));
    assert!(a.contains("\"frame\":\"shutdown\""));
}
