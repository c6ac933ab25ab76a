//! Pinned result digests under `benchmark/expected/`.
//!
//! - `<seed>.json` pins the batch workloads at one input seed: the
//!   digest over every run's `RunStats` (and, for `tune-tiny`, over the
//!   rendered `TuneReport`). The default and the hold-out seed are
//!   pinned; any other seed is checked across passes only.
//! - `serve.json` pins the per-key statistics the serve workloads'
//!   keys must return. Serve requests always use the server's fixed
//!   input seed (the benchmark seed only drives arrivals and key
//!   order), so these hold for every seed. They are computed by direct
//!   in-process runs, so the check also holds the server to the
//!   harness's results.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use diag_trace::json::{self, Value};

use crate::batch::Pass;
use crate::report::Outcome;

/// The pinned digests available for one seed.
#[derive(Debug, Default)]
pub struct Expected {
    seed: u64,
    /// workload → field (`runs` / `report`) → hex digest.
    batch: BTreeMap<String, BTreeMap<String, String>>,
    /// serve workload → hex digest of its keys' statistics.
    serve: BTreeMap<String, String>,
}

fn read_object(path: &Path) -> Result<Option<Value>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(None),
    }
}

fn strings(v: &Value) -> BTreeMap<String, String> {
    v.as_obj()
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default()
}

/// The directory holding the pinned files.
pub fn dir(root: &Path) -> PathBuf {
    root.join("benchmark").join("expected")
}

impl Expected {
    /// Loads whatever is pinned for `seed` (nothing pinned is not an
    /// error; a file that does not parse is).
    ///
    /// # Errors
    ///
    /// A pinned file that is not valid JSON.
    pub fn load(root: &Path, seed: u64) -> Result<Expected, String> {
        let dir = dir(root);
        let mut exp = Expected {
            seed,
            ..Expected::default()
        };
        if let Some(doc) = read_object(&dir.join(format!("{seed}.json")))? {
            if let Some(o) = doc.as_obj() {
                exp.batch = o.iter().map(|(k, v)| (k.clone(), strings(v))).collect();
            }
        }
        if let Some(doc) = read_object(&dir.join("serve.json"))? {
            exp.serve = strings(&doc);
        }
        Ok(exp)
    }

    /// Checks a batch pass against the pinned digests for this seed.
    pub fn check_batch(&self, out: &mut Outcome, workload: &str, pass: &Pass) {
        let Some(pinned) = self.batch.get(workload) else {
            println!(
                "{workload}: no pinned digests for seed {}; checking across passes only",
                self.seed
            );
            return;
        };
        let got = [
            ("runs", Some(pass.runs_digest())),
            ("report", pass.report_digest()),
        ];
        for (field, value) in got {
            let Some(value) = value else { continue };
            match pinned.get(field) {
                Some(want) if *want == value => {}
                Some(want) => out.problem(format!(
                    "{workload}: {field} digest {value} does not match pinned {want} (seed {})",
                    self.seed
                )),
                None => out.problem(format!("{workload}: no pinned `{field}` digest")),
            }
        }
    }

    /// Checks a serve workload's per-key statistics digest.
    pub fn check_serve(&self, out: &mut Outcome, workload: &str, digest: &str) {
        match self.serve.get(workload) {
            Some(want) if want == digest => {}
            Some(want) => out.problem(format!(
                "{workload}: per-key stats digest {digest} does not match pinned {want}"
            )),
            None => out.problem(format!("{workload}: nothing pinned in expected/serve.json")),
        }
    }
}

/// Renders a flat or one-level-nested string map as stable JSON.
pub fn render(entries: &[(String, Vec<(String, String)>)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, fields)| {
            let inner: Vec<String> = fields
                .iter()
                .map(|(f, v)| format!("\"{f}\": \"{v}\""))
                .collect();
            format!("  \"{k}\": {{{}}}", inner.join(", "))
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Renders a flat string map as stable JSON.
pub fn render_flat(entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_pins_load_back() {
        let dir = std::env::temp_dir().join(format!("diag-benchmark-pins-{}", std::process::id()));
        let root = dir.join("root");
        std::fs::create_dir_all(super::dir(&root)).unwrap();
        let batch = render(&[(
            "tune-tiny".to_string(),
            vec![
                ("runs".to_string(), "00ff".to_string()),
                ("report".to_string(), "0a0b".to_string()),
            ],
        )]);
        std::fs::write(super::dir(&root).join("5.json"), batch).unwrap();
        let serve = render_flat(&[("serve-warm".to_string(), "beef".to_string())]);
        std::fs::write(super::dir(&root).join("serve.json"), serve).unwrap();

        let exp = Expected::load(&root, 5).unwrap();
        assert_eq!(exp.batch["tune-tiny"]["report"], "0a0b");
        let mut out = Outcome::new();
        exp.check_serve(&mut out, "serve-warm", "beef");
        assert!(out.correct);
        exp.check_serve(&mut out, "serve-warm", "dead");
        assert!(!out.correct);
        assert!(Expected::load(&root, 6).unwrap().batch.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
