//! The experiment table and its runner: the gated experiments and the
//! configuration registry are pinned (names, order and every
//! configuration's content hash), because committed baselines, memo keys
//! and `wsrs-serve` clients all depend on them; and a table entry run
//! through the runner must produce exactly the grid and manifest the
//! plain harness does.

use wsrs_bench::manifest::grid_manifest;
use wsrs_bench::{
    config_registry, experiment, gate_experiments, run_grid_with_threads, RunParams, Scope,
};
use wsrs_workloads::Workload;

/// The Figure 4 columns and their canonical content hashes.
const FIGURE4: [(&str, u64); 6] = [
    ("RR 256", 0x3785_6395_cdef_2b97),
    ("WSRR 384", 0x3acc_5829_891e_ee96),
    ("WSRR 512", 0x2ee2_f6f3_e033_6580),
    ("WSRS RC S 384", 0xed4f_456f_3707_42c1),
    ("WSRS RC S 512", 0x63d7_8d0e_2026_b06b),
    ("WSRS RM S 512", 0x8176_1dae_8541_d9f2),
];

const FIGURE5: [(&str, u64); 2] = [
    ("WSRS RC", 0x63d7_8d0e_2026_b06b),
    ("WSRS RM", 0x8176_1dae_8541_d9f2),
];

fn hashes(configs: &[(impl AsRef<str>, wsrs_core::SimConfig)]) -> Vec<(String, u64)> {
    configs
        .iter()
        .map(|(n, c)| (n.as_ref().to_string(), c.content_hash()))
        .collect()
}

fn pinned(entries: &[(&str, u64)]) -> Vec<(String, u64)> {
    entries.iter().map(|&(n, h)| (n.to_string(), h)).collect()
}

#[test]
fn gate_experiments_are_pinned() {
    let gated = gate_experiments();
    let names: Vec<&str> = gated.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, ["figure4", "figure5"]);
    assert_eq!(hashes(&gated[0].1), pinned(&FIGURE4));
    assert_eq!(hashes(&gated[1].1), pinned(&FIGURE5));
    for (name, _, workloads) in &gated {
        assert_eq!(workloads, &Workload::all(), "{name} rows");
    }
}

#[test]
fn config_registry_is_pinned() {
    let mut want = pinned(&FIGURE4);
    want.extend(pinned(&FIGURE5));
    want.push(("RR 512".to_string(), 0x5326_defa_262b_76fd));
    assert_eq!(hashes(&config_registry()), want);
}

/// The runner adds nothing to the simulation: a table entry run through
/// [`wsrs_bench::Experiment::run`] yields the reports and (normalized)
/// manifest of the same rows and columns run through the harness
/// directly. A sampled run carries the `-sampled` manifest name.
#[test]
fn experiment_run_matches_the_plain_harness() {
    let dir = std::env::temp_dir().join(format!("wsrs-experiments-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(wsrs_trace::TRACE_DIR_ENV, &dir);
    let params = RunParams {
        warmup: 2_000,
        measure: 4_000,
    };

    let exp = experiment("seven_cluster").unwrap();
    assert_eq!(exp.scope, Scope::Grid);
    let (rows, configs) = ((exp.workloads)(), exp.configs.clone());
    let run = exp.run(params, None);
    assert_eq!(run.workloads, rows);
    assert_eq!(run.manifest.experiment, "seven_cluster");
    assert_eq!(run.manifest.cells.len(), rows.len() * configs.len());

    let plain = run_grid_with_threads(&rows, &configs, params, 1, &|_, _, _, _| {});
    assert_eq!(
        format!("{:?}", run.grid.reports),
        format!("{:?}", plain.reports)
    );
    let plain_manifest = grid_manifest(
        "seven_cluster",
        &rows,
        &configs,
        params,
        run.manifest.workers as usize,
        0.0,
        &plain.reports,
        &plain.batched,
        &plain.samples,
        Some(&run.grid.provenance),
    );
    assert_eq!(
        run.manifest.normalized_json_string(),
        plain_manifest.normalized_json_string()
    );
    let ipc: Vec<Vec<f64>> = run.rows().into_iter().map(|(_, v)| v).collect();
    assert_eq!(ipc[0][0], plain.reports[0][0].ipc());

    let spec = wsrs_core::SampleSpec {
        intervals: 4,
        interval_uops: 500,
        detail_warmup: 1_000,
    };
    let sampled = experiment("seven_cluster").unwrap().run(params, Some(spec));
    assert_eq!(sampled.manifest.experiment, "seven_cluster-sampled");
    assert!(sampled.manifest.cells.iter().all(|c| c.sampled.is_some()));
    let _ = std::fs::remove_dir_all(&dir);
}
