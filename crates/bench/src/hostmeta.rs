//! Host build metadata stamped into profile reports and `diag-serve`
//! status frames.
//!
//! A saved profile from three months ago is only comparable to
//! today's if you know what produced it: the compiler version, the
//! commit, and whether the build used the workspace's thin-LTO release
//! profile. This module collects those facts once per process (the
//! compiler and git probes shell out) and hands them to the exporters as
//! ordered `(key, value)` pairs. Every probe degrades to `"unknown"` —
//! reports must render identically on hosts without `git` or `rustc` on
//! the `PATH`.

use std::process::Command;
use std::sync::OnceLock;

use diag_pipeline::CacheCounters;
use diag_trace::json::escape;

/// Runs `cmd args...` and returns its first line of stdout, trimmed,
/// when the command exists and exits successfully.
fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

/// Host metadata as ordered `(key, value)` pairs:
///
/// - `rustc` — `rustc --version` of the toolchain on the `PATH` (the
///   toolchain that built this binary, under the usual cargo workflow);
/// - `git_rev` — `git rev-parse --short HEAD` of the working directory;
/// - `thin_lto` — whether this binary was built with the workspace's
///   release profile (`lto = "thin"`); debug builds report `false`.
///
/// Probed once per process; missing tools yield `"unknown"`.
pub fn host_entries() -> &'static [(String, String)] {
    static ENTRIES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let unknown = || "unknown".to_string();
        vec![
            (
                "rustc".to_string(),
                probe("rustc", &["--version"]).unwrap_or_else(unknown),
            ),
            (
                "git_rev".to_string(),
                probe("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
            (
                "thin_lto".to_string(),
                (!cfg!(debug_assertions)).to_string(),
            ),
        ]
    })
}

/// [`host_entries`] plus the run's `repeat` count, for report headers
/// that record how many timing repetitions produced each row.
pub fn host_entries_with_repeat(repeat: u32) -> Vec<(String, String)> {
    let mut entries = host_entries().to_vec();
    entries.push(("repeat".to_string(), repeat.to_string()));
    entries
}

/// Artifact-cache counters as ordered `(key, value)` pairs, appended to
/// the host block of the `diag-serve` `status` frame — one source of
/// truth for the keys and their order.
pub fn cache_entries(cache: &CacheCounters) -> Vec<(String, String)> {
    vec![
        ("cache_hits".to_string(), cache.hits().to_string()),
        ("cache_builds".to_string(), cache.builds().to_string()),
        ("cache_disk_hits".to_string(), cache.disk_hits.to_string()),
        (
            "cache_disk_writes".to_string(),
            cache.disk_writes.to_string(),
        ),
        (
            "cache_disk_evictions".to_string(),
            cache.disk_evictions.to_string(),
        ),
    ]
}

/// Renders ordered `(key, value)` pairs as a single-line JSON object
/// with string values — the `"host": {...}` block every report embeds.
pub fn render_host_object(entries: &[(String, String)]) -> String {
    format!(
        "{{{}}}",
        entries
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_stable_and_complete() {
        let a = host_entries();
        let b = host_entries();
        assert_eq!(a, b, "probes must run once and cache");
        let keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["rustc", "git_rev", "thin_lto"]);
        assert!(a.iter().all(|(_, v)| !v.is_empty()));
    }

    #[test]
    fn repeat_count_is_appended() {
        let entries = host_entries_with_repeat(7);
        assert_eq!(
            entries.last(),
            Some(&("repeat".to_string(), "7".to_string()))
        );
    }

    #[test]
    fn cache_entries_have_fixed_keys() {
        let keys: Vec<String> = cache_entries(&CacheCounters::default())
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys,
            [
                "cache_hits",
                "cache_builds",
                "cache_disk_hits",
                "cache_disk_writes",
                "cache_disk_evictions"
            ]
        );
    }

    #[test]
    fn host_object_renders_escaped_json() {
        let entries = vec![
            ("rustc".to_string(), "rustc 1.0".to_string()),
            ("note".to_string(), "a \"quoted\" \\ thing".to_string()),
        ];
        let obj = render_host_object(&entries);
        assert_eq!(
            obj,
            "{\"rustc\": \"rustc 1.0\", \"note\": \"a \\\"quoted\\\" \\\\ thing\"}"
        );
        diag_trace::json::parse(&obj).expect("valid JSON");
    }

    #[test]
    fn host_object_escapes_control_characters() {
        let raw = "a\"b\\c\nd\u{1}";
        let obj = render_host_object(&[("note".to_string(), raw.to_string())]);
        let doc = diag_trace::json::parse(&obj).expect("valid JSON");
        assert_eq!(
            doc.get("note").and_then(diag_trace::json::Value::as_str),
            Some(raw)
        );
    }
}
