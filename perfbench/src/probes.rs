//! Layer probes for the traced run. The traced workload measures the
//! layers it exercises; the probes here measure the rest on fixed inputs,
//! so every traced run reports every per-layer metric:
//!
//! * set-up costs of the `isa` and `trace` layers (emulation, trace
//!   encode and decode);
//! * the `core` engine on one integer and one floating-point kernel:
//!   scalar rate, telemetry share, cycle-skipping and lockstep speed-ups,
//!   exact cycle and µop counts; the `frontend` predictor rate;
//! * an exact traced grid over the kernels the workload did not run, for
//!   per-kernel unit times;
//! * the interval-sampled figure4 grid, cold then warm;
//! * a short serve session, when the workload is not `serve`.

use std::time::Instant;

use wsrs_bench::manifest::telemetry_on;
use wsrs_bench::RunParams;
use wsrs_core::{run_lockstep, SimConfig, Simulator};
use wsrs_telemetry::RunManifest;
use wsrs_workloads::Workload;

use crate::checks::Check;
use crate::grid::{grid_layers, grid_pass, record_traces, trace_key, Recorded, Runner};
use crate::spans::Tracer;
use crate::{figure4_gate_configs, secs, serve, Opts, Outcome};

/// Kernels the engine probes run: a stall-heavy integer kernel, where
/// cycle skipping pays, and a steady floating-point one, where it does
/// not.
pub const ENGINE_KERNELS: [(&str, Workload); 2] =
    [("int", Workload::Mcf), ("fp", Workload::Galgel)];

/// The kernel the serve probe runs.
pub const PROBE_KERNEL: Workload = Workload::Galgel;

/// `isa` and `trace` metrics of a set-up: emulation rate, trace encode
/// and decode rates, and encoded size per µop.
pub fn setup_layers(out: &mut Outcome, rec: &Recorded, kernels: &[Workload], window: RunParams) {
    out.layer(
        "isa.emulate_muops_per_s",
        "Muop/s",
        rec.uops as f64 / secs(rec.emulate) / 1e6,
    );
    out.layer(
        "trace.save_mb_per_s",
        "MB/s",
        rec.bytes as f64 / 1e6 / secs(rec.save),
    );
    out.layer(
        "trace.bytes_per_uop",
        "B/uop",
        rec.bytes as f64 / rec.uops as f64,
    );
    let t = Instant::now();
    let mut bytes = 0;
    for &w in kernels {
        if let Ok(loaded) = rec.store.load(&trace_key(w, window)) {
            bytes += loaded.bytes;
        }
    }
    out.layer(
        "trace.load_mb_per_s",
        "MB/s",
        bytes as f64 / 1e6 / secs(t.elapsed()),
    );
}

/// Copies into `out` every metric of `probe` that `out` lacks, and the
/// probe's output checks.
fn merge_absent(out: &mut Outcome, probe: Outcome) {
    for (k, m) in probe.per_layer {
        out.per_layer.entry(k).or_insert(m);
    }
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    out.failures.extend(probe.failures);
}

/// Times `f` `reps` times; returns the shortest time, in seconds (the
/// one least disturbed by other load on the machine), and the last
/// result.
fn timed<T>(reps: usize, f: impl Fn() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        best = best.min(secs(t.elapsed()));
    }
    (best, last.expect("ran"))
}

/// `core` and `frontend` metrics from the engine probes.
fn engine_layers(out: &mut Outcome, window: RunParams) {
    let (w, m) = (window.warmup, window.measure);
    let base = SimConfig::conventional_rr(256);
    let family: Vec<SimConfig> = figure4_gate_configs().into_iter().map(|(_, c)| c).collect();
    let (mut cycles, mut uops) = (0u64, 0u64);
    let mut check = Check::default();
    let (mut branches, mut predict_s) = (0u64, 0.0);
    for (class, kernel) in ENGINE_KERNELS {
        let trace: Vec<_> = kernel.trace().take((w + m) as usize).collect();
        let sim = |cfg: SimConfig| Simulator::new(cfg).run_measured(trace.iter().copied(), w, m);
        // Single cells are short, so each is the best of three; the
        // six-configuration comparison is long enough to time once.
        let (off_s, r) = timed(3, || sim(base));
        let (on_s, _) = timed(3, || sim(telemetry_on(&base)));
        let (no_skip_s, r_no_skip) = timed(3, || {
            Simulator::new(base).run_measured_no_skip(trace.iter().copied(), w, m)
        });
        let (lock_s, lanes) = timed(1, || run_lockstep(&family, &trace, w, m));
        let (scalar_s, scalar) = timed(1, || family.iter().map(|&c| sim(c)).collect::<Vec<_>>());
        for (what, same) in [
            ("no-skip", r_no_skip.cycles == r.cycles),
            (
                "lockstep",
                lanes
                    .iter()
                    .zip(&scalar)
                    .all(|(a, b)| a.cycles == b.cycles && a.uops == b.uops),
            ),
        ] {
            if same {
                check.pass();
            } else {
                check.fail(format!(
                    "{kernel}: {what} engine disagrees with the scalar engine"
                ));
            }
        }
        cycles += r.cycles;
        uops += r.uops;
        out.layer(
            &format!("core.scalar_muops_per_s.{class}"),
            "Muop/s",
            trace.len() as f64 / off_s / 1e6,
        );
        out.layer(
            &format!("core.attribution_share.{class}"),
            "fraction",
            (on_s - off_s) / on_s,
        );
        out.layer(
            &format!("core.skip_speedup.{class}"),
            "x",
            no_skip_s / off_s,
        );
        out.layer(
            &format!("core.lockstep_speedup.{class}"),
            "x",
            scalar_s / lock_s,
        );

        if let Some(mut p) = base.predictor.build() {
            let t = Instant::now();
            for u in trace.iter().filter(|u| u.is_cond_branch()) {
                std::hint::black_box(p.predict(u.pc));
                p.update(u.pc, u.taken);
                branches += 1;
            }
            predict_s += secs(t.elapsed());
        }
    }
    out.layer("core.sim_cycles", "count", cycles as f64);
    out.layer("core.sim_uops", "count", uops as f64);
    out.layer(
        "frontend.predict_mbranch_per_s",
        "Mbranch/s",
        branches as f64 / predict_s / 1e6,
    );
    out.absorb(check);
}

/// Fills every per-layer metric the traced workload did not measure.
/// `covered` lists the kernels whose exact grid units the workload
/// already timed.
///
/// # Errors
///
/// Fails when a probe cannot set up.
pub fn fill(
    out: &mut Outcome,
    opts: &Opts,
    covered: &[Workload],
    tracer: &Tracer,
) -> Result<(), String> {
    engine_layers(out, opts.window);
    let expected_text = opts.expected_text()?;
    let expected =
        RunManifest::parse(&expected_text).ok_or("the expected manifest does not parse")?;
    let configs = figure4_gate_configs();

    let rest: Vec<Workload> = Workload::all()
        .into_iter()
        .filter(|w| !covered.contains(w))
        .collect();
    if !rest.is_empty() {
        let rec = record_traces(&rest, opts.window)?;
        let mut probe = Outcome::new(out.workload);
        let (pass, root) = tracer.span("probe.grid", None, &|| "probe".into(), |root| {
            let pass = grid_pass(
                &rest,
                &configs,
                opts,
                &rec.store,
                &expected_text,
                &expected,
                Runner::Bench,
                tracer,
                root,
            );
            (pass, root)
        });
        grid_layers(&mut probe, &tracer.spans(), root, &pass.stats);
        probe.absorb(pass.check);
        merge_absent(out, probe);
    }

    crate::sampled::probe(out, opts, &expected, tracer)?;

    if !out.per_layer.contains_key("serve.request_floor_ms") {
        let cells = serve::cells(&[PROBE_KERNEL]);
        let probe_opts = Opts {
            replays: cells.len(),
            ..opts.clone()
        };
        let mut probe = Outcome::new(out.workload);
        tracer.span("probe.serve", None, &|| "probe".into(), |root| {
            serve::traced(&mut probe, &cells, &probe_opts, tracer, root)
        })?;
        merge_absent(out, probe);
    }
    Ok(())
}

/// Ends a traced run: records each span name's self time in `out` and
/// writes the spans to `.bench_spans/<workload>-seed<seed>.jsonl`.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, seed: u64) {
    out.self_ms = crate::spans::self_ms_by_name(&tracer.spans());
    let path =
        std::path::PathBuf::from(".bench_spans").join(format!("{}-seed{seed}.jsonl", out.workload));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
