//! Workspace automation (`cargo xtask` pattern). Dependency-free on
//! purpose. `cargo test` runs the lint over the workspace as well
//! (`lint::tests::workspace_is_clean`).
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lint;

const USAGE: &str = "usage: cargo run -p xtask -- <task>

tasks:
  lint    forbid unwrap()/expect() in non-test code of every crate
          (escape hatch: `// lint: allow(unwrap)` on the same or the
          preceding line, with a justification)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(&workspace_root()),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: xtask always lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}
