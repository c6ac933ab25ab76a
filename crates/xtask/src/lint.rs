//! A source lint the toolchain cannot express: `unwrap()` / `expect()`
//! are forbidden in the simulator's non-test code.
//!
//! The machines (`crates/core`, `crates/sim`) are library code driven by
//! arbitrary guest programs — a panic there takes down a whole sweep and
//! masks the `SimError` that should have been reported. The artifact
//! store (`crates/pipeline`) and the server (`crates/serve`) are shared
//! by many concurrent requests — a panic there poisons locks or drops a
//! connection instead of producing an error frame. The harness
//! (`crates/bench`) and energy models (`crates/power`) back every
//! figure and the autotuner — a panic there aborts a sweep that the
//! runner's error taxonomy should have survived. The observability
//! stack (`crates/trace`, `crates/profile`, `crates/telemetry`) is
//! attached to live runs precisely to explain them — a panic inside a
//! tracer, profiler, or metrics hook destroys the run it was observing.
//! The memory system (`crates/mem`) sits on every simulated load and
//! store of all three machines — a panic there aborts the run instead
//! of reporting it. The baselines (`crates/baseline`) are machines like
//! DiAG, held to the same rule.
//! Clippy's `unwrap_used` lint cannot be adopted piecemeal without
//! attribute noise at every test module, so this is a small,
//! dependency-free scanner with the policy hard-coded:
//!
//! - only `crates/core/src`, `crates/sim/src`, `crates/mem/src`,
//!   `crates/pipeline/src`, `crates/serve/src`, `crates/bench/src`,
//!   `crates/power/src`, `crates/trace/src`, `crates/profile/src`,
//!   `crates/telemetry/src`, and `crates/baseline/src` are in scope;
//! - `#[cfg(test)]` items (and everything nested inside them) are
//!   exempt;
//! - a deliberate use is allowed by writing `// lint: allow(unwrap)` on
//!   the same line or the line above, where the reviewer expects a
//!   justification.

use std::path::Path;
use std::process::ExitCode;

/// Directories scanned, relative to the workspace root.
const SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/mem/src",
    "crates/pipeline/src",
    "crates/serve/src",
    "crates/bench/src",
    "crates/power/src",
    "crates/trace/src",
    "crates/profile/src",
    "crates/telemetry/src",
    "crates/baseline/src",
];

/// The escape-hatch marker.
const ALLOW: &str = "lint: allow(unwrap)";

/// One forbidden call site.
struct Offense {
    path: String,
    line: usize,
    what: &'static str,
}

/// Runs the lint over `root`. Prints every offense; empty output and a
/// success exit mean the tree is clean.
pub fn run(root: &Path) -> ExitCode {
    let mut offenses = Vec::new();
    let mut files = 0usize;
    for dir in SCOPE {
        let dir = root.join(dir);
        let mut paths = Vec::new();
        collect_rs_files(&dir, &mut paths);
        paths.sort();
        for path in paths {
            files += 1;
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xtask lint: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            scan_file(&rel, &text, &mut offenses);
        }
    }
    if files == 0 {
        eprintln!("xtask lint: found no source files under {SCOPE:?} — wrong root?");
        return ExitCode::FAILURE;
    }
    for o in &offenses {
        println!(
            "{}:{}: `{}` in non-test simulator code (return a SimError or \
             justify with `// {ALLOW}`)",
            o.path, o.line, o.what
        );
    }
    if offenses.is_empty() {
        println!("xtask lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} offense(s)", offenses.len());
        ExitCode::FAILURE
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scans one file, appending offenses. Test code is excluded by brace
/// tracking: a `#[cfg(test)]` attribute exempts the next item's whole
/// block.
fn scan_file(path: &str, text: &str, out: &mut Vec<Offense>) {
    let mut depth: i64 = 0;
    // Depth *outside* the current `#[cfg(test)]` block, when inside one.
    let mut test_until: Option<i64> = None;
    // A `#[cfg(test)]` was seen and its item's opening brace is pending.
    let mut pending_cfg_test = false;
    let mut prev_line_allows = false;

    for (idx, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        let allows = raw.contains(ALLOW);
        // Comment-only lines contribute neither braces nor calls (doc
        // comments routinely show `.unwrap()` in examples — those are
        // compiled by rustdoc as test code anyway).
        if trimmed.starts_with("//") {
            prev_line_allows = allows;
            continue;
        }
        let code = match trimmed.find("//") {
            Some(i) => &trimmed[..i],
            None => trimmed,
        };

        if test_until.is_none() {
            if code.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            }
            let in_test_item = pending_cfg_test;
            if !in_test_item
                && (code.contains(".unwrap()") || code.contains(".expect("))
                && !allows
                && !prev_line_allows
            {
                let what = if code.contains(".unwrap()") {
                    "unwrap()"
                } else {
                    "expect()"
                };
                out.push(Offense {
                    path: path.to_string(),
                    line: idx + 1,
                    what,
                });
            }
            let before = depth;
            depth += brace_delta(code);
            if pending_cfg_test && depth > before {
                // The attribute's item opened its block on this line.
                test_until = Some(before);
                pending_cfg_test = false;
            }
        } else {
            depth += brace_delta(code);
            if test_until.is_some_and(|d| depth <= d) {
                test_until = None;
            }
        }
        prev_line_allows = allows;
    }
}

/// Net brace nesting change of `code`, ignoring braces inside string,
/// raw-string, and char literals (format-string braces are balanced and
/// cancel out; the literal cases that are not, like `'{'` or
/// `r#"{"k":1}"#`, must not skew the count).
fn brace_delta(code: &str) -> i64 {
    let chars: Vec<char> = code.chars().collect();
    let mut delta = 0i64;
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '"' => {
                // Ordinary string: skip to the closing quote, honoring
                // escapes.
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => break,
                        _ => i += 1,
                    }
                }
            }
            'r' if i == 0 || (!chars[i - 1].is_alphanumeric() && chars[i - 1] != '_') => {
                // Possible raw string `r#*"…"#*`: skip to the closing
                // quote followed by the same number of hashes.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < chars.len() && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < chars.len() && chars[j] == '"' {
                    j += 1;
                    while j < chars.len() {
                        if chars[j] == '"'
                            && chars[j + 1..].iter().take_while(|c| **c == '#').count() >= hashes
                        {
                            j += hashes;
                            break;
                        }
                        j += 1;
                    }
                    i = j;
                }
            }
            // A lifetime tick (`&'a`) is followed by an identifier and
            // no closing quote; only treat `'` as a char literal when
            // the quote closes within two characters (`'x'`, `'\\n'`).
            '\'' => {
                let (skip, is_char) = match chars.get(i + 1) {
                    Some('\\') => (3, true),
                    Some(_) => (2, chars.get(i + 2) == Some(&'\'')),
                    None => (0, false),
                };
                if is_char {
                    i += skip;
                }
            }
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offenses(text: &str) -> Vec<usize> {
        let mut out = Vec::new();
        scan_file("f.rs", text, &mut out);
        out.iter().map(|o| o.line).collect()
    }

    #[test]
    fn flags_unwrap_and_expect_in_library_code() {
        let text = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n}\n";
        assert_eq!(offenses(text), vec![2, 3]);
    }

    #[test]
    fn exempts_cfg_test_modules_entirely() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        x.unwrap();\n    }\n}\nfn h() { y.unwrap(); }\n";
        assert_eq!(offenses(text), vec![8]);
    }

    #[test]
    fn honors_the_allow_marker_on_either_line() {
        let same = "fn f() { x.unwrap(); } // lint: allow(unwrap) — infallible here\n";
        assert_eq!(offenses(same), Vec::<usize>::new());
        let above = "// lint: allow(unwrap) — infallible here\nfn f() { x.unwrap(); }\n";
        assert_eq!(offenses(above), Vec::<usize>::new());
    }

    #[test]
    fn ignores_comments_and_doc_examples() {
        let text = "/// x.unwrap();\n// x.unwrap();\nfn f() {}\n";
        assert_eq!(offenses(text), Vec::<usize>::new());
    }

    #[test]
    fn string_braces_do_not_derail_block_tracking() {
        let text = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn g() { x.unwrap(); }\n}\nfn h() { y.unwrap(); }\n";
        assert_eq!(offenses(text), vec![6]);
    }

    #[test]
    fn raw_string_braces_do_not_derail_block_tracking() {
        // JSON-heavy tests write raw strings like r#"{"verb":"x"}"# —
        // their unbalanced-looking braces must not end the cfg(test)
        // exemption early.
        let text = "#[cfg(test)]\nmod tests {\n    fn g() {\n        let s = r#\"{\"verb\":\"dance\"}}}\"#;\n        parse(s).unwrap();\n    }\n}\nfn h() { y.unwrap(); }\n";
        assert_eq!(offenses(text), vec![8]);
    }

    #[test]
    fn brace_delta_handles_literals() {
        assert_eq!(brace_delta("fn f() {"), 1);
        assert_eq!(brace_delta("}"), -1);
        assert_eq!(brace_delta("let s = r#\"}}}\"#;"), 0);
        assert_eq!(brace_delta("let s = r\"}\";"), 0);
        assert_eq!(brace_delta("let c = '{';"), 0);
        assert_eq!(brace_delta("let c = '\\n'; {"), 1);
        assert_eq!(brace_delta("write(\"{\\\"k\\\": 1}}\")"), 0);
        // An identifier ending in `r` before a string is not a raw
        // string prefix.
        assert_eq!(brace_delta("var\"}\""), 0);
    }
}
