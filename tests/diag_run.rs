//! CLI tests for the `diag-run` binary: the machine spec's `simt` and
//! `reuse` overrides reach the simulated machine, and there are no
//! separate flags for them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A 64-instance SIMT loop (§4.4): DiAG pipelines it by default and runs
/// it as a sequential loop with `simt=0`.
const SIMT_LOOP: &str = "
    li   t0, 0
    li   t1, 1
    li   t2, 64
head:
    simt_s t0, t1, t2, 1
    slli  t3, t0, 2
    addi  t4, t3, 1024
    sw    t0, 0(t4)
    simt_e t0, t2, head
    ecall
";

/// Writes [`SIMT_LOOP`] to a file unique to `test` (tests run in
/// parallel).
fn source(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diag-run-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("simt_loop.s");
    std::fs::write(&path, SIMT_LOOP).unwrap();
    path
}

fn diag_run(path: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diag-run"))
        .arg(path)
        .args(args)
        .output()
        .unwrap()
}

/// The `cycles:` figure of a successful run on `machine`.
fn cycles(path: &Path, machine: &str) -> u64 {
    let out = diag_run(path, &["--machine", machine]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{machine}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("cycles:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{machine}: no cycles line in {stdout}"))
}

#[test]
fn spec_overrides_change_the_run() {
    let path = source("overrides");
    let pipelined = cycles(&path, "diag");
    let sequential = cycles(&path, "diag+simt=0");
    let no_reuse = cycles(&path, "diag+simt=0,reuse=0");
    assert!(
        pipelined < sequential,
        "simt=0 must run the loop sequentially: {pipelined} vs {sequential} cycles"
    );
    assert!(
        sequential < no_reuse,
        "reuse=0 must reload the loop's line: {sequential} vs {no_reuse} cycles"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn simt_and_reuse_flags_are_unknown_arguments() {
    let path = source("flags");
    for flag in ["--no-simt", "--no-reuse"] {
        let out = diag_run(&path, &[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown argument `{flag}`")), "{err}");
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
