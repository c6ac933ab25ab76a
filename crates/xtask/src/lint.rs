//! A source lint the toolchain cannot express: `unwrap()` / `expect()`
//! are forbidden in the workspace's non-test code.
//!
//! Every crate is library code driven by inputs it does not control:
//! guest programs (the machines and the memory system), concurrent
//! requests (the artifact store and the server), arbitrary assembly
//! (the assembler, the analyzer and the verifier), and live runs (the
//! tracer, profiler and metrics hooks). A panic there takes down a
//! whole sweep, poisons a lock, drops a connection or destroys the run
//! it was observing, and masks the typed error that should have been
//! reported.
//! Clippy's `unwrap_used` lint cannot be adopted piecemeal without
//! attribute noise at every test module, so this is a small,
//! dependency-free scanner with the policy hard-coded:
//!
//! - every `crates/*/src` directory and the root package's `src/` are in
//!   scope;
//! - `#[cfg(test)]` items (and everything nested inside them) are
//!   exempt, and so are comments and string and char literals;
//! - a deliberate use is allowed by writing `// lint: allow(unwrap)` on
//!   the same line or the line above, where the reviewer expects a
//!   justification.
//!
//! The `workspace_is_clean` test runs the lint over this workspace, so
//! `cargo test` fails on any offense.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
    let (files, offenses) = match scan_tree(root) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for o in &offenses {
        println!(
            "{}:{}: `{}` in non-test code (return a typed error or \
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

/// The source directories in scope: the root package's `src/` and every
/// `crates/*/src`, sorted.
fn scope(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path().join("src")).collect();
        crates.sort();
        dirs.extend(crates.into_iter().filter(|d| d.is_dir()));
    }
    dirs
}

/// Scans every `.rs` file in [`scope`], returning the number of files
/// read and the offenses found in them.
fn scan_tree(root: &Path) -> Result<(usize, Vec<Offense>), String> {
    let mut offenses = Vec::new();
    let mut files = 0usize;
    for dir in scope(root) {
        let mut paths = Vec::new();
        collect_rs_files(&dir, &mut paths);
        paths.sort();
        for path in paths {
            files += 1;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            scan_file(&rel, &text, &mut offenses);
        }
    }
    if files == 0 {
        return Err(format!(
            "found no source files under {} — wrong root?",
            root.display()
        ));
    }
    Ok((files, offenses))
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
        let allows = raw.contains(ALLOW);
        // Comments contribute neither braces nor calls (doc comments
        // routinely show `.unwrap()` in examples — those are compiled by
        // rustdoc as test code anyway). Literals are emptied first, so a
        // `//` inside a string does not start a comment.
        let stripped = strip_literals(raw);
        let code = match stripped.find("//") {
            Some(i) => &stripped[..i],
            None => &stripped,
        }
        .trim_start();

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
    strip_literals(code)
        .chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

/// `code` with the contents of its string, raw-string and char literals
/// removed (the quotes stay), so that neither braces nor call text
/// inside a literal (`'{'`, `r#"{"k":1}"#`, `".unwrap()"`) reads as
/// code. A literal left open at the end of the line runs to its end.
fn strip_literals(code: &str) -> String {
    let chars: Vec<char> = code.chars().collect();
    let mut out = String::with_capacity(code.len());
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
                out.push_str("\"\"");
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
                    out.push_str("r\"\"");
                } else {
                    out.push('r');
                }
            }
            // A lifetime tick (`&'a`) is followed by an identifier and
            // no closing quote. A quote opens a char literal when it
            // closes right after one character (`'x'`) or after an
            // escape (`'\\n'`, `'\\u{7b}'`).
            '\'' => {
                let close = match chars.get(i + 1) {
                    Some('\\') => (i + 3..chars.len()).find(|&k| chars[k] == '\''),
                    Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
                    _ => None,
                };
                match close {
                    Some(k) => {
                        i = k;
                        out.push_str("''");
                    }
                    None => out.push('\''),
                }
            }
            c => out.push(c),
        }
        i += 1;
    }
    out
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
    fn call_text_inside_literals_is_not_flagged() {
        let text = "fn f() {\n    if code.contains(\".unwrap()\") {}\n    let s = r#\"x.expect(\"#;\n    let u = \"http://h\"; y.unwrap();\n}\n";
        assert_eq!(offenses(text), vec![4]);
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
        assert_eq!(brace_delta("let c = '\\u{7b}'; {"), 1);
        assert_eq!(brace_delta("fn f<'a>(x: &'a str) {"), 1);
    }

    #[test]
    fn workspace_is_clean() {
        let (files, offenses) =
            scan_tree(&crate::workspace_root()).expect("workspace sources are readable");
        let report: Vec<String> = offenses
            .iter()
            .map(|o| format!("{}:{}: `{}`", o.path, o.line, o.what))
            .collect();
        assert!(
            report.is_empty(),
            "{} offense(s) in {files} files:\n{}",
            report.len(),
            report.join("\n")
        );
    }
}
