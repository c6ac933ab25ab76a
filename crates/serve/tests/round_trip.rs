//! Server round-trip equivalence: every workload × machine submitted
//! over the wire must report the exact `RunStats` a direct
//! `sweep::run_one` of the same spec produces, and failed runs must
//! carry the same `RunError` taxonomy and message.

use diag_bench::runner::MachineSpec;
use diag_bench::sweep::{self, SweepRun};
use diag_pipeline::Session;
use diag_serve::{Client, ServeConfig, Server, Submit};
use diag_trace::json::Value;
use diag_workloads::{all, find, Params};

fn spawn_server(workers: usize) -> diag_serve::ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        capacity: 4096,
        quantum: 1,
    };
    Server::bind(&config, Session::in_memory())
        .expect("bind ephemeral port")
        .spawn()
}

fn num(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    v.as_num()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

#[test]
fn every_workload_and_machine_matches_a_direct_run() {
    let handle = spawn_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Pipeline every (workload, machine) pair, then read the results
    // back — the server guarantees per-client submission order.
    let machines = ["diag", "ooo", "inorder"];
    let mut expected = Vec::new();
    let mut seq = 0u64;
    for spec in all() {
        for machine in machines {
            client
                .submit(&Submit::new(seq, spec.name, machine))
                .expect("submit");
            expected.push((seq, spec.name, machine));
            seq += 1;
        }
    }

    // The same specs, executed directly through the library path the
    // harness CLI uses.
    let direct_session = Session::in_memory();
    for (want_seq, workload, machine) in expected {
        let frame = client
            .recv()
            .expect("read result")
            .expect("stream open until shutdown");
        assert_eq!(frame.kind(), "result", "{}", frame.raw);
        assert_eq!(frame.seq(), Some(want_seq), "{}", frame.raw);
        assert_eq!(frame.ok(), Some(true), "{}", frame.raw);

        let run = SweepRun {
            machine: MachineSpec::parse(machine).expect("known machine"),
            spec: find(workload).expect("registered workload"),
            params: Params::tiny(),
        };
        let direct = sweep::run_one(&direct_session, &run)
            .unwrap_or_else(|e| panic!("{workload} on {machine} failed directly: {e}"));

        let stats = frame.doc.get("stats").expect("stats object");
        assert_eq!(
            num(&frame.doc, &["stats", "cycles"]) as u64,
            direct.cycles,
            "{workload} on {machine}: cycles diverge: {}",
            frame.raw
        );
        assert_eq!(
            num(&frame.doc, &["stats", "committed"]) as u64,
            direct.committed,
            "{workload} on {machine}: committed diverge"
        );
        assert_eq!(
            num(&frame.doc, &["stats", "threads"]) as u64,
            direct.threads as u64,
            "{workload} on {machine}: threads diverge"
        );
        for (field, want) in [
            ("memory", direct.stalls.memory),
            ("control", direct.stalls.control),
            ("structural", direct.stalls.structural),
        ] {
            assert_eq!(
                num(stats, &["stalls", field]) as u64,
                want,
                "{workload} on {machine}: {field} stalls diverge"
            );
        }
        // The frame renders ipc with four decimals; re-render the
        // direct value the same way rather than comparing floats.
        let want_ipc: f64 = format!("{:.4}", direct.ipc()).parse().expect("ipc");
        let got_ipc = num(&frame.doc, &["stats", "ipc"]);
        assert!(
            (got_ipc - want_ipc).abs() < 1e-9,
            "{workload} on {machine}: ipc {got_ipc} != {want_ipc}"
        );
    }

    client.send_verb("shutdown").expect("shutdown");
    let bye = client.recv().expect("read").expect("shutdown ack");
    assert_eq!(bye.kind(), "shutdown", "{}", bye.raw);
    handle.join().expect("clean server exit");
}

#[test]
fn failed_runs_carry_the_direct_error_taxonomy_and_message() {
    let handle = spawn_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A cycle limit far below hotspot's runtime: the run fails with a
    // Sim error, exactly as the sweep path reports it.
    let mut submit = Submit::new(1, "hotspot", "diag");
    submit
        .config
        .push(("max_cycles".to_string(), "10".to_string()));
    client.submit(&submit).expect("submit");
    let frame = client.recv().expect("read").expect("result");
    assert_eq!(frame.kind(), "result", "{}", frame.raw);
    assert_eq!(frame.ok(), Some(false), "{}", frame.raw);
    assert_eq!(frame.error_kind(), Some("sim"), "{}", frame.raw);

    let mut kind = MachineSpec::parse("diag").expect("diag");
    let MachineSpec::Diag(ref mut cfg) = kind else {
        panic!("diag kind");
    };
    cfg.max_cycles = 10;
    let direct = sweep::run_one(
        &Session::in_memory(),
        &SweepRun {
            machine: kind,
            spec: find("hotspot").expect("registered"),
            params: Params::tiny(),
        },
    )
    .expect_err("limit of 10 cycles must fail");
    let message = frame
        .doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("error message");
    assert_eq!(message, direct.to_string(), "{}", frame.raw);

    // Unknown workloads are rejected before admission with a 404 code.
    client
        .submit(&Submit::new(2, "nosuchworkload", "diag"))
        .expect("submit");
    let reject = client.recv().expect("read").expect("reject");
    assert_eq!(reject.kind(), "reject", "{}", reject.raw);
    assert_eq!(reject.seq(), Some(2), "{}", reject.raw);
    assert_eq!(reject.code(), Some(404), "{}", reject.raw);

    client.send_verb("shutdown").expect("shutdown");
    let _ = client.recv().expect("read");
    handle.join().expect("clean server exit");
}
