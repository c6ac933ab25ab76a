//! Rendering a [`Verification`] as human-readable text or
//! machine-readable JSON.
//!
//! Both emitters are byte-deterministic for a given verification: facts
//! arrive pre-sorted by (pc, kind) and the per-PC map iterates in
//! address order. The JSON emitter is hand-rolled, matching the
//! workspace's no-dependency policy (same approach as
//! `diag_analyze::report`).

use std::fmt::Write as _;

use diag_trace::json::escape;

use crate::{Fact, Itv, Verdict, Verification};

/// Formats a witness interval compactly: a singleton prints as one
/// value, a range as `[lo, hi]`, with a `/2^tz` alignment suffix when
/// one is known.
fn witness(w: &Itv) -> String {
    let mut out = match w.is_singleton() {
        Some(v) => format!("{v:#x}"),
        None => format!("[{:#x}, {:#x}]", w.lo, w.hi),
    };
    if w.tz > 0 && w.is_singleton().is_none() {
        let _ = write!(out, "/2^{}", w.tz);
    }
    out
}

/// Renders the verification as an indented text report. Proved facts are
/// summarized in aggregate; refuted and unknown facts are listed
/// individually (they are what a reader acts on).
pub fn text_report(name: &str, program: &diag_asm::Program, v: &Verification) -> String {
    let mut out = String::new();
    let (proved, refuted, unknown) = v.verdict_counts();
    let _ = writeln!(
        out,
        "{name}: {} stations verified, {} facts ({proved} proved, {refuted} refuted, \
         {unknown} unknown), {} fixpoint transfers, {} widenings{}",
        v.pcs.len(),
        v.facts.len(),
        v.iterations,
        v.widenings,
        if v.imprecise_indirect {
            ", imprecise (indirect jumps)"
        } else {
            ""
        },
    );
    for t in &v.loops {
        let _ = writeln!(
            out,
            "  loop {}: {}",
            program.describe_addr(t.head_pc),
            match t.iterations {
                Some((lo, hi)) if lo == hi => format!("{lo} iterations per entry"),
                Some((lo, hi)) => format!("{lo}..={hi} iterations per entry"),
                None => "trip count underivable".to_string(),
            },
        );
    }
    for f in &v.facts {
        if f.verdict == Verdict::Proved {
            continue;
        }
        let _ = writeln!(
            out,
            "  [{}] {} {}: {}{}",
            f.verdict.name(),
            program.describe_addr(f.pc),
            f.kind.name(),
            f.detail,
            match &f.witness {
                Some(w) => format!(" (witness {})", witness(w)),
                None => String::new(),
            },
        );
    }
    out
}

fn json_fact(out: &mut String, f: &Fact) {
    let _ = write!(
        out,
        "{{\"pc\":{},\"kind\":\"{}\",\"verdict\":\"{}\",",
        f.pc,
        f.kind.name(),
        f.verdict.name(),
    );
    match &f.witness {
        Some(w) => {
            let _ = write!(
                out,
                "\"witness\":{{\"lo\":{},\"hi\":{},\"tz\":{}}},",
                w.lo, w.hi, w.tz
            );
        }
        None => out.push_str("\"witness\":null,"),
    }
    let _ = write!(out, "\"detail\":\"{}\"}}", escape(&f.detail));
}

/// Renders the verification as a single-line JSON object (facts, loops,
/// and per-station intervals included).
pub fn json_report(name: &str, v: &Verification) -> String {
    let mut out = String::from("{");
    let (proved, refuted, unknown) = v.verdict_counts();
    let _ = write!(
        out,
        "\"name\":\"{}\",\"threads\":{},\"imprecise_indirect\":{},\"iterations\":{},\
         \"widenings\":{},\"stations\":{},\"summary\":{{\"proved\":{proved},\
         \"refuted\":{refuted},\"unknown\":{unknown}}},",
        escape(name),
        v.threads,
        v.imprecise_indirect,
        v.iterations,
        v.widenings,
        v.pcs.len(),
    );
    out.push_str("\"facts\":[");
    for (i, f) in v.facts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_fact(&mut out, f);
    }
    out.push_str("],\"loops\":[");
    for (i, t) in v.loops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"head\":{},\"latch\":{},", t.head_pc, t.latch_pc);
        match t.entry_pc {
            Some(pc) => {
                let _ = write!(out, "\"entry\":{pc},");
            }
            None => out.push_str("\"entry\":null,"),
        }
        match t.iterations {
            Some((lo, hi)) => {
                let _ = write!(out, "\"min\":{lo},\"max\":{hi}}}");
            }
            None => out.push_str("\"min\":null,\"max\":null}"),
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, VerifyOptions};
    use diag_asm::assemble;

    #[test]
    fn reports_are_deterministic() {
        let program =
            assemble("li t0, 0\nloop:\naddi t0, t0, 1\nblt t0, a1, loop\nsw t0, 0(gp)\necall\n")
                .unwrap();
        let v1 = verify(&program, &VerifyOptions::default());
        let v2 = verify(&program, &VerifyOptions::default());
        assert_eq!(json_report("p", &v1), json_report("p", &v2));
        assert_eq!(
            text_report("p", &program, &v1),
            text_report("p", &program, &v2)
        );
        assert!(json_report("p", &v1).contains("\"facts\":["));
    }

    #[test]
    fn witness_formats() {
        assert_eq!(witness(&Itv::exact(16)), "0x10");
        assert_eq!(
            witness(&Itv {
                lo: 0,
                hi: 64,
                tz: 2
            }),
            "[0x0, 0x40]/2^2"
        );
    }
}
