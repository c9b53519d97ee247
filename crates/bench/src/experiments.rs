//! The experiment table: every grid the repository runs — the paper's
//! figures and the studies built on them — declared once as data, plus
//! the one runner that runs any of them.
//!
//! An [`Experiment`] names its workloads and its named configurations,
//! every one with cycle-attribution telemetry on so each manifest
//! carries a full stall breakdown. The grid binaries, `report`
//! (baselines, the gate and sample-error), [`gate_experiments`],
//! [`config_registry`] and `wsrs-serve`'s `{"experiment": …}`
//! submissions all read [`experiments`]; [`Experiment::run`] is the only
//! code that turns an entry into a grid run, a progress log and a
//! manifest, and [`run_experiment`] adds the CSV and the manifest file
//! for the grid binaries.

use std::time::Instant;
use wsrs_core::{
    AllocPolicy, FastForward, RegCache, Report, SampleSpec, SimConfig, SimConfigBuilder,
};
use wsrs_frontend::PredictorKind;
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::RunManifest;
use wsrs_workloads::Workload;

use crate::manifest::{artifacts_dir, grid_manifest, write_manifest};
use crate::{
    default_trace_store, grid_threads, maybe_write_csv, render_csv, run_grid_full, GridRun,
    RunParams,
};

/// An experiment's columns: named configurations.
pub type NamedConfigs = Vec<(&'static str, SimConfig)>;

/// One labelled row of a rendered grid: workload name, value per column.
pub type Row = (String, Vec<f64>);

/// How far an experiment reaches beyond its own binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Run by its binary and by whole-grid `wsrs-serve` submissions.
    Grid,
    /// Also resolvable by configuration name in explicit `wsrs-serve`
    /// cell submissions ([`config_registry`]).
    Registered,
    /// Registered, and gated: `report` keeps a committed
    /// `BENCH_<name>.json` baseline and compares fresh runs against it
    /// ([`gate_experiments`]).
    Gated,
}

/// One grid experiment: workloads × named configurations.
pub struct Experiment {
    /// Experiment name: the binary's manifest and CSV name.
    pub name: &'static str,
    pub scope: Scope,
    /// The grid rows. A function rather than a list because the
    /// `workgen` rows register generated workloads process-wide, which
    /// only a run of that experiment should do.
    pub workloads: fn() -> Vec<Workload>,
    /// The grid columns: named configurations, telemetry on.
    pub configs: NamedConfigs,
    /// The per-cell quantity the experiment's figure plots: the values
    /// of [`ExperimentRun::rows`] and of the CSV.
    pub metric: fn(&Report) -> f64,
}

const RC: AllocPolicy = AllocPolicy::RandomCommutative;
const RM: AllocPolicy = AllocPolicy::RandomMonadic;

/// Write specialization, round-robin allocation. The paper displays
/// renaming strategy 2 results (§5.2.1), so every specialized
/// configuration of the table uses [`RenameStrategy::ExactCount`] unless
/// it studies the strategy itself.
fn ws(regs: usize) -> SimConfig {
    SimConfig::write_specialized_rr(regs, RenameStrategy::ExactCount)
}

/// Write and read specialization under allocation policy `policy`.
fn wsrs(regs: usize, policy: AllocPolicy) -> SimConfig {
    SimConfig::wsrs(regs, policy, RenameStrategy::ExactCount)
}

fn kernels() -> Vec<Workload> {
    Workload::all().to_vec()
}

/// The `workgen` rows: the 12 kernels, then the standard generated
/// scenario family, registered so its `gen:` names resolve process-wide.
fn kernels_and_generated_family() -> Vec<Workload> {
    let family = wsrs_workgen::presets::standard_family();
    kernels()
        .into_iter()
        .chain(
            family
                .iter()
                .map(|s| wsrs_workgen::register(&s.profile, s.seed)),
        )
        .collect()
}

/// Ablation rows: a representative subset keeps runtime moderate.
fn ablation_subset() -> Vec<Workload> {
    use Workload::{Crafty, Facerec, Gzip, Mcf, Wupwise};
    vec![Gzip, Crafty, Mcf, Wupwise, Facerec]
}

fn seven_cluster_subset() -> Vec<Workload> {
    vec![Workload::Gzip, Workload::Mcf, Workload::Wupwise]
}

fn virtual_physical_subset() -> Vec<Workload> {
    use Workload::{Crafty, Facerec, Gzip, Wupwise};
    vec![Gzip, Crafty, Wupwise, Facerec]
}

fn unbalance(r: &Report) -> f64 {
    r.unbalance_percent
}

/// The ablation columns. Names carry the study tag (`a1/` … `a7/`) the
/// `ablation` binary splits its seven tables on.
fn ablation_configs() -> NamedConfigs {
    let ff = |base: SimConfig, scope| SimConfig {
        fast_forward: scope,
        ..base
    };
    let pred = |kind| SimConfig {
        predictor: kind,
        ..wsrs(512, RC)
    };
    let win = |per, rob| {
        SimConfigBuilder::from(wsrs(512, RC))
            .window(per, rob)
            .build()
    };
    let conv = SimConfig::conventional_rr(256);
    vec![
        // 1. Allocation policy, with the load-balancing extension (§5.4).
        ("a1/RM", wsrs(512, RM)),
        ("a1/RC", wsrs(512, RC)),
        ("a1/LB", wsrs(512, AllocPolicy::LoadBalance)),
        // 2. Physical register count (the paper shows only 384 and 512).
        ("a2/320", wsrs(320, RC)),
        ("a2/384", wsrs(384, RC)),
        ("a2/448", wsrs(448, RC)),
        ("a2/512", wsrs(512, RC)),
        ("a2/640", wsrs(640, RC)),
        // 3. Renaming strategy 1 (recycling) vs 2 (exact count).
        (
            "a3/WS strat1",
            SimConfig::write_specialized_rr(512, RenameStrategy::Recycling),
        ),
        ("a3/WS strat2", ws(512)),
        (
            "a3/WSRS strat1",
            SimConfig::wsrs(512, RC, RenameStrategy::Recycling),
        ),
        ("a3/WSRS strat2", wsrs(512, RC)),
        // 4. Fast-forwarding scope (§4.3.1).
        ("a4/conv intra", ff(conv, FastForward::IntraCluster)),
        ("a4/conv full", ff(conv, FastForward::Complete)),
        (
            "a4/wsrs intra",
            ff(wsrs(512, RC), FastForward::IntraCluster),
        ),
        ("a4/wsrs pair", ff(wsrs(512, RC), FastForward::AdjacentPair)),
        ("a4/wsrs full", ff(wsrs(512, RC), FastForward::Complete)),
        // 5. Branch predictor quality under the deep pipeline.
        ("a5/2bcgskew", pred(PredictorKind::TwoBcGskew512K)),
        ("a5/gshare", pred(PredictorKind::Gshare64K)),
        ("a5/bimodal", pred(PredictorKind::Bimodal64K)),
        ("a5/taken", pred(PredictorKind::AlwaysTaken)),
        ("a5/perfect", pred(PredictorKind::Perfect)),
        // 6. In-flight window around the paper's 224-µop point.
        ("a6/28/112", win(28, 112)),
        ("a6/56/224", win(56, 224)),
        ("a6/112/448", win(112, 448)),
        // 7. Related work (§6): the register-file cache [4].
        ("a7/conv", conv),
        (
            "a7/conv+RFcache",
            SimConfig::conventional_reg_cache(
                256,
                RegCache {
                    retention_cycles: 24,
                    slow_read_penalty: 2,
                },
            ),
        ),
        ("a7/WS 512", ws(512)),
        ("a7/WSRS RC 512", wsrs(512, RC)),
    ]
}

/// The virtual-physical columns (§6 [13]): plain write specialization at
/// the paper's register count, then VP machines by physical registers
/// per subset.
fn virtual_physical_configs() -> NamedConfigs {
    let vp = |cap| {
        SimConfigBuilder::from(ws(512))
            .virtual_physical(cap)
            .build()
    };
    vec![
        ("WS 512", ws(512)),
        ("VP 36/sub", vp(36)),
        ("VP 40/sub", vp(40)),
        ("VP 48/sub", vp(48)),
        ("VP 64/sub", vp(64)),
        ("VP 96/sub", vp(96)),
    ]
}

/// Every grid experiment, in table order.
#[must_use]
pub fn experiments() -> Vec<Experiment> {
    let mut table = vec![
        Experiment {
            // Figure 4: the six configurations in the paper's legend order.
            name: "figure4",
            scope: Scope::Gated,
            workloads: kernels,
            configs: vec![
                ("RR 256", SimConfig::conventional_rr(256)),
                ("WSRR 384", ws(384)),
                ("WSRR 512", ws(512)),
                ("WSRS RC S 384", wsrs(384, RC)),
                ("WSRS RC S 512", wsrs(512, RC)),
                ("WSRS RM S 512", wsrs(512, RM)),
            ],
            metric: Report::ipc,
        },
        Experiment {
            // Figure 5: unbalancing degree of the two allocation policies.
            name: "figure5",
            scope: Scope::Gated,
            workloads: kernels,
            configs: vec![("WSRS RC", wsrs(512, RC)), ("WSRS RM", wsrs(512, RM))],
            metric: unbalance,
        },
        Experiment {
            // Figure 2b: write specialization over functional-unit pools.
            name: "pools",
            scope: Scope::Grid,
            workloads: kernels,
            configs: vec![
                ("mono 256", SimConfig::monolithic(256)),
                (
                    "pool-WS 384",
                    SimConfig::pooled_write_specialized(384, RenameStrategy::ExactCount),
                ),
                (
                    "pool-WS 512",
                    SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount),
                ),
            ],
            metric: Report::ipc,
        },
        Experiment {
            // The machines whose IPC `efficiency` joins with Table 1 cost.
            name: "efficiency",
            scope: Scope::Grid,
            workloads: kernels,
            configs: vec![
                ("conv 4-cluster (noWS-D)", SimConfig::conventional_rr(256)),
                ("WS RR 512", ws(512)),
                ("WSRS RC 512", wsrs(512, RC)),
            ],
            metric: Report::ipc,
        },
        Experiment {
            name: "ablation",
            scope: Scope::Grid,
            workloads: ablation_subset,
            configs: ablation_configs(),
            metric: Report::ipc,
        },
        Experiment {
            // §7: the 7-cluster register budget (896 = 7 × 128) on the
            // 4-cluster timing model, next to the paper's 512.
            name: "seven_cluster",
            scope: Scope::Grid,
            workloads: seven_cluster_subset,
            configs: vec![("WSRS 512", wsrs(512, RC)), ("WSRS 896", wsrs(896, RC))],
            metric: Report::ipc,
        },
        Experiment {
            name: "virtual_physical",
            scope: Scope::Grid,
            workloads: virtual_physical_subset,
            configs: virtual_physical_configs(),
            metric: Report::ipc,
        },
        Experiment {
            // An equally-sized unconstrained baseline and the two WSRS
            // flavours Figure 4 separates: at a fixed 512 registers a WSRS
            // IPC delta is a pure specialization penalty, not capacity.
            name: "workgen",
            scope: Scope::Registered,
            workloads: kernels_and_generated_family,
            configs: vec![
                ("RR 512", SimConfig::conventional_rr(512)),
                ("WSRS RC S 512", wsrs(512, RC)),
                ("WSRS RM S 512", wsrs(512, RM)),
            ],
            metric: Report::ipc,
        },
    ];
    for e in &mut table {
        for (_, cfg) in &mut e.configs {
            cfg.telemetry = true;
        }
    }
    table
}

/// The table entry named `name`.
#[must_use]
pub fn experiment(name: &str) -> Option<Experiment> {
    experiments().into_iter().find(|e| e.name == name)
}

/// The gated experiments as (name, configurations, workloads) — the
/// Figure 4 and Figure 5 grids `report` baselines and gates.
#[must_use]
pub fn gate_experiments() -> Vec<(&'static str, NamedConfigs, Vec<Workload>)> {
    experiments()
        .into_iter()
        .filter(|e| e.scope == Scope::Gated)
        .map(|e| (e.name, e.configs, (e.workloads)()))
        .collect()
}

/// Name → configuration registry over every registered experiment, in
/// table order — the namespace [`CellJob`](crate::CellJob) wire forms
/// resolve against. First binding of a name wins (the `workgen` columns
/// repeat two Figure 4 configurations).
#[must_use]
pub fn config_registry() -> Vec<(String, SimConfig)> {
    let mut out: Vec<(String, SimConfig)> = Vec::new();
    for e in experiments().into_iter().filter(|e| e.scope != Scope::Grid) {
        for (name, cfg) in e.configs {
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name.to_string(), cfg));
            }
        }
    }
    out
}

/// One finished experiment run.
pub struct ExperimentRun {
    pub experiment: Experiment,
    /// The rows the grid ran, in order.
    pub workloads: Vec<Workload>,
    pub grid: GridRun,
    /// The run's manifest (not yet written anywhere).
    pub manifest: RunManifest,
}

impl ExperimentRun {
    /// Column names, in configuration order.
    #[must_use]
    pub fn config_names(&self) -> Vec<&'static str> {
        self.experiment.configs.iter().map(|(n, _)| *n).collect()
    }

    /// One `(workload name, metric per configuration)` row per workload,
    /// in grid order.
    #[must_use]
    pub fn rows(&self) -> Vec<Row> {
        self.workloads
            .iter()
            .zip(&self.grid.reports)
            .map(|(w, row)| {
                let values = row.iter().map(self.experiment.metric).collect();
                (w.name().to_string(), values)
            })
            .collect()
    }

    /// [`rows`](Self::rows) split into (integer, floating-point)
    /// workloads, each in grid order — the two panels of Figures 4 and 5.
    #[must_use]
    pub fn rows_by_class(&self) -> (Vec<Row>, Vec<Row>) {
        let (mut int, mut fp) = (Vec::new(), Vec::new());
        for (row, w) in self.rows().into_iter().zip(&self.workloads) {
            if w.is_fp() {
                fp.push(row);
            } else {
                int.push(row);
            }
        }
        (int, fp)
    }
}

impl Experiment {
    /// Runs the grid at `params` on [`grid_threads`] workers over the
    /// [`default_trace_store`] — interval-sampled when `sample` is set —
    /// logging progress and the execution path to stderr and the
    /// `sampled:` checkpoint-traffic summary, when sampled, to stdout.
    #[must_use]
    pub fn run(self, params: RunParams, sample: Option<SampleSpec>) -> ExperimentRun {
        let workloads = (self.workloads)();
        let threads = grid_threads();
        let name = self.name;
        eprintln!(
            "{name}: {} cells, {}+{} µops, {threads} worker(s)",
            workloads.len() * self.configs.len(),
            params.warmup,
            params.measure,
        );
        let width = workloads.iter().map(|w| w.name().len()).max().unwrap_or(0);
        let t0 = Instant::now();
        let grid = run_grid_full(
            &workloads,
            &self.configs,
            params,
            threads,
            default_trace_store(),
            sample,
            &|w, config, r, elapsed| {
                eprintln!(
                    "  {:<width$} {config:<14} ipc {:>6.3}  ({elapsed:.1?})",
                    w.name(),
                    r.ipc()
                );
            },
        );
        let lanes = grid.batched.iter().filter(|&&b| b).count();
        if lanes > 0 {
            eprintln!(
                "{name}: path: lockstep batch ({lanes} lane(s)/workload, {} scalar cell(s))",
                self.configs.len() - lanes
            );
        } else {
            eprintln!("{name}: path: scalar (batching off or incompatible configs)");
        }
        if wsrs_core::skip_enabled() {
            eprintln!("{name}: path: event-horizon cycle skipping on");
        } else {
            eprintln!(
                "{name}: path: cycle-by-cycle ({} set)",
                wsrs_core::NO_SKIP_ENV
            );
        }
        if let Some(summary) = grid.sample_summary() {
            // Stdout on purpose: CI's sample-smoke step greps this line to
            // assert a warm store replays with zero fast-forwarded µops.
            println!("{summary}");
        }
        let manifest = grid_manifest(
            name,
            &workloads,
            &self.configs,
            params,
            threads,
            t0.elapsed().as_secs_f64(),
            &grid.reports,
            &grid.batched,
            &grid.samples,
            Some(&grid.provenance),
        );
        ExperimentRun {
            experiment: self,
            workloads,
            grid,
            manifest,
        }
    }
}

/// The grid binaries' entry point: runs the experiment `name` at the
/// environment's window ([`RunParams::from_env`]) and sampling spec
/// ([`SampleSpec::from_env`]), writes `<name>.csv` of the experiment's
/// metric when `WSRS_CSV_DIR` is set, and writes the manifest under
/// `artifacts/`. The caller prints its own tables from the result.
///
/// # Panics
///
/// Panics if the table has no experiment `name`.
#[must_use]
pub fn run_experiment(name: &str) -> ExperimentRun {
    let exp = experiment(name).unwrap_or_else(|| panic!("no experiment named '{name}'"));
    let run = exp.run(RunParams::from_env(), SampleSpec::from_env());
    let csv = render_csv(&run.config_names(), &run.rows());
    if let Some(path) = maybe_write_csv(name, &csv) {
        eprintln!("wrote {}", path.display());
    }
    match write_manifest(&run.manifest, &artifacts_dir()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("manifest not written: {e}"),
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_well_formed() {
        let table = experiments();
        for (i, e) in table.iter().enumerate() {
            assert!(
                table[..i].iter().all(|f| f.name != e.name),
                "duplicate experiment {}",
                e.name
            );
            assert!(!e.configs.is_empty(), "{} has no configurations", e.name);
            for (j, (name, cfg)) in e.configs.iter().enumerate() {
                assert!(cfg.telemetry, "{}/{name}: telemetry off", e.name);
                assert!(
                    e.configs[..j].iter().all(|(n, _)| n != name),
                    "{}: duplicate column {name}",
                    e.name
                );
                cfg.validate();
            }
            assert_eq!(experiment(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(experiment("nonesuch").is_none());
        let figure4 = experiment("figure4").unwrap();
        assert_eq!(figure4.configs.len(), 6);
        assert_eq!(figure4.configs[0].0, "RR 256");
    }
}
