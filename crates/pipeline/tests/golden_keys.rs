//! Golden tests pinning artifact-key stability.
//!
//! The on-disk cache is only sound if the same typed inputs hash to the
//! same 64-bit key in every process, on every host, forever (within one
//! `SCHEMA_VERSION`). These literals were recorded once and must never
//! change silently: if a key scheme change is intentional, bump
//! [`diag_pipeline::SCHEMA_VERSION`] and re-record — old blobs are then
//! rejected by their embedded schema field instead of being misread.

use diag_analyze::AnalyzeOptions;
use diag_core::{DiagConfig, MachineSpec};
use diag_pipeline::{
    analysis_key, program_key, report_key, run_key, stations_key, verification_key, ReportFormat,
    Stage,
};
use diag_verify::VerifyOptions;
use diag_workloads::Params;

#[test]
fn keys_are_stable_across_processes() {
    let program = program_key("hotspot", &Params::tiny());
    let stations_bare = stations_key(program, None);
    let stations_diag = stations_key(program, Some(&DiagConfig::f4c32()));
    let analysis = analysis_key(program, &AnalyzeOptions::default());
    let report = report_key(analysis, ReportFormat::Text);

    // Recorded goldens. A mismatch means the key schema changed: every
    // cached blob in the wild is now unreachable (or worse, aliased).
    assert_eq!(program.hash, 0x9b90dcaa0e3aff5f, "program key drifted");
    assert_eq!(
        stations_bare.hash, 0x711e824d9ba9a21c,
        "stations key drifted"
    );
    assert_eq!(
        stations_diag.hash, 0xd288f846418cecc8,
        "stations+config key drifted"
    );
    assert_eq!(analysis.hash, 0x5d7c6b00d981aaa9, "analysis key drifted");
    assert_eq!(report.hash, 0xde31365c58413404, "report key drifted");

    let verification = verification_key(program, &VerifyOptions::default());
    assert_eq!(
        verification.hash, 0xdb7965301b4215dd,
        "verification key drifted"
    );

    let params = Params::tiny();
    assert_eq!(
        run_key("hotspot", &params, &MachineSpec::Diag(DiagConfig::f4c32())).hash,
        0x902b523a351e9ac8,
        "diag run key drifted"
    );
    assert_eq!(
        run_key("hotspot", &params, &MachineSpec::Ooo(12)).hash,
        0x5bef766d8e063d4e,
        "ooo run key drifted"
    );
    assert_eq!(
        run_key("hotspot", &params, &MachineSpec::InOrder).hash,
        0x4095a358ca6d4135,
        "inorder run key drifted"
    );
}

#[test]
fn stage_tags_partition_the_key_space() {
    let program = program_key("hotspot", &Params::tiny());
    assert_eq!(program.stage, Stage::Program);
    assert_eq!(stations_key(program, None).stage, Stage::Stations);
    let analysis = analysis_key(program, &AnalyzeOptions::default());
    assert_eq!(analysis.stage, Stage::Analysis);
    assert_eq!(
        report_key(analysis, ReportFormat::Json).stage,
        Stage::Report
    );
    let verification = verification_key(program, &VerifyOptions::default());
    assert_eq!(verification.stage, Stage::Verification);
    assert_eq!(
        run_key("hotspot", &Params::tiny(), &MachineSpec::InOrder).stage,
        Stage::Run
    );
    assert_ne!(
        verification.hash, analysis.hash,
        "verification and analysis stages must not alias"
    );
}

/// Every `Params` field must contribute to the program key — a field
/// that does not hash is a field whose change silently serves stale
/// artifacts. (The `StableKey` impls destructure exhaustively, so *new*
/// fields are compile errors until they are hashed; this test guards the
/// hashing of the fields that exist today.)
#[test]
fn every_params_field_changes_the_key() {
    let base = Params::tiny();
    let baseline = program_key("hotspot", &base);

    let variants = [
        Params {
            scale: diag_workloads::Scale::Small,
            ..base
        },
        base.with_threads(2),
        base.with_simt(true),
        Params { seed: 1, ..base },
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(
            program_key("hotspot", v).hash,
            baseline.hash,
            "Params variant #{i} did not change the key"
        );
    }
    assert_ne!(
        program_key("nn", &base).hash,
        baseline.hash,
        "workload name did not change the key"
    );
}

#[test]
fn config_and_options_fields_change_their_keys() {
    let program = program_key("hotspot", &Params::tiny());

    let base_cfg = DiagConfig::f4c32();
    let mut cfg = base_cfg.clone();
    cfg.enable_reuse = !cfg.enable_reuse;
    assert_ne!(
        stations_key(program, Some(&cfg)).hash,
        stations_key(program, Some(&base_cfg)).hash,
        "DiagConfig change did not change the stations key"
    );
    assert_ne!(
        stations_key(program, None).hash,
        stations_key(program, Some(&base_cfg)).hash,
        "None config must not alias Some(config)"
    );

    let base_opts = AnalyzeOptions::default();
    let mut opts = AnalyzeOptions::default();
    opts.threads += 1;
    assert_ne!(
        analysis_key(program, &opts).hash,
        analysis_key(program, &base_opts).hash,
        "AnalyzeOptions change did not change the analysis key"
    );

    let analysis = analysis_key(program, &base_opts);
    assert_ne!(
        report_key(analysis, ReportFormat::Text).hash,
        report_key(analysis, ReportFormat::Json).hash,
        "report format did not change the report key"
    );

    let base_vopts = VerifyOptions::default();
    let threads_vopts = VerifyOptions {
        threads: base_vopts.threads + 1,
        ..base_vopts
    };
    let trap_vopts = VerifyOptions {
        trap_vector: Some(0x200),
        ..base_vopts
    };
    let base_vkey = verification_key(program, &base_vopts);
    assert_ne!(
        verification_key(program, &threads_vopts).hash,
        base_vkey.hash,
        "VerifyOptions::threads did not change the verification key"
    );
    assert_ne!(
        verification_key(program, &trap_vopts).hash,
        base_vkey.hash,
        "VerifyOptions::trap_vector did not change the verification key"
    );
}

/// Flipping any single `DiagConfig` field must change `run_key` — a
/// field that does not hash is a field whose change silently serves a
/// stale run. One mutation per field, applied to the F4C32 base.
#[test]
fn every_diag_config_field_changes_the_run_key() {
    let params = Params::tiny();
    let key_of = |cfg: DiagConfig| run_key("hotspot", &params, &MachineSpec::Diag(cfg)).hash;
    let base = DiagConfig::f4c32();
    let baseline = key_of(base.clone());

    type Mutation = Box<dyn Fn(&mut DiagConfig)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("name", Box::new(|c| c.name.push('X'))),
        ("pes_per_cluster", Box::new(|c| c.pes_per_cluster += 8)),
        ("clusters", Box::new(|c| c.clusters /= 2)),
        ("ring_clusters", Box::new(|c| c.ring_clusters += 2)),
        (
            "lane_buffer_interval",
            Box::new(|c| c.lane_buffer_interval /= 2),
        ),
        ("fp_enabled", Box::new(|c| c.fp_enabled = !c.fp_enabled)),
        ("freq_ghz", Box::new(|c| c.freq_ghz += 0.5)),
        ("l1i", Box::new(|c| c.l1i.ways += 1)),
        ("l1d", Box::new(|c| c.l1d.size_bytes *= 2)),
        ("l2", Box::new(|c| c.l2 = None)),
        ("lsu_depth", Box::new(|c| c.lsu_depth /= 2)),
        ("memlane_capacity", Box::new(|c| c.memlane_capacity *= 2)),
        ("line_load_cycles", Box::new(|c| c.line_load_cycles += 1)),
        ("max_cycles", Box::new(|c| c.max_cycles /= 2)),
        (
            "enable_reuse",
            Box::new(|c| c.enable_reuse = !c.enable_reuse),
        ),
        ("enable_simt", Box::new(|c| c.enable_simt = !c.enable_simt)),
        ("trap_vector", Box::new(|c| c.trap_vector = Some(0x100))),
        (
            "interrupt_at",
            Box::new(|c| c.interrupt_at = Some((50, 0x100))),
        ),
        ("commit_width", Box::new(|c| c.commit_width /= 2)),
        (
            "speculative_datapaths",
            Box::new(|c| c.speculative_datapaths = !c.speculative_datapaths),
        ),
    ];
    for (field, mutate) in mutations {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        assert_ne!(
            key_of(cfg),
            baseline,
            "DiagConfig::{field} did not change the run key"
        );
    }
}

/// Machine kinds (and the baseline core count) partition the run-key
/// space: the kind discriminant is folded before the fields.
#[test]
fn machine_kinds_partition_the_run_key_space() {
    let params = Params::tiny();
    let diag = run_key("hotspot", &params, &MachineSpec::Diag(DiagConfig::f4c32()));
    let ooo = run_key("hotspot", &params, &MachineSpec::Ooo(12));
    let ooo1 = run_key("hotspot", &params, &MachineSpec::Ooo(1));
    let inorder = run_key("hotspot", &params, &MachineSpec::InOrder);
    assert_ne!(diag.hash, ooo.hash);
    assert_ne!(diag.hash, inorder.hash);
    assert_ne!(ooo.hash, inorder.hash);
    assert_ne!(ooo.hash, ooo1.hash, "core count must change the key");
    assert_ne!(
        run_key("nn", &params, &MachineSpec::InOrder).hash,
        inorder.hash,
        "workload name must change the key"
    );
    assert_ne!(
        run_key(
            "hotspot",
            &Params::tiny().with_threads(2),
            &MachineSpec::InOrder
        )
        .hash,
        inorder.hash,
        "params must change the key"
    );
}
