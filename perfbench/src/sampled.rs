//! The interval-sampled path, measured in the traced run: the figure4
//! grid over all twelve kernels with the default `SampleSpec`, from an
//! empty checkpoint store. A cold pass fast-forwards, writes checkpoints
//! and reads them; a warm pass over the checkpoints it left only reads.
//! The engine does little here, so checkpoint I/O dominates. (Its
//! end-to-end timings spread too widely on the reference machine to hold
//! a bound, so it is not an untraced workload.)

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wsrs_bench::manifest::grid_manifest;
use wsrs_bench::{
    batching_enabled, CellQueue, SampleOutcome, TraceCache, TraceSampleStore, WorkUnit,
};
use wsrs_core::{
    run_sampled, warm_state_key, Report, SampleCheckpoint, SampleSpec, SampleStore, SimConfig,
};
use wsrs_telemetry::RunManifest;
use wsrs_trace::TraceStore;
use wsrs_workloads::Workload;

use crate::checks::{check_sampled, sample_errors};
use crate::grid::{drive, first_units, grid_cells, record_traces, unit_workload, QueueStats};
use crate::spans::{self_times, total_ms, Tracer};
use crate::{figure4_gate_configs, Opts, Outcome, POISONED};

/// Checkpoint traffic counted at the `SampleStore` boundary.
#[derive(Default)]
pub struct CkptStats {
    loads: AtomicU64,
    saves: AtomicU64,
    bytes_saved: AtomicU64,
    /// (trace checksum, warm-state key, interval) of every save.
    distinct: Mutex<HashSet<(u64, u64, u32)>>,
}

/// A [`SampleStore`] that times each checkpoint load and save as a span
/// and counts the traffic, around the program's own
/// [`TraceSampleStore`].
struct TimedStore<'a> {
    inner: TraceSampleStore<'a>,
    key: (u64, u64),
    tracer: &'a Tracer,
    parent: Option<u64>,
    owner: String,
    stats: &'a CkptStats,
}

impl SampleStore for TimedStore<'_> {
    fn load(&self, interval: u32) -> Option<SampleCheckpoint> {
        let cp = self.tracer.span(
            "trace.ckpt_load",
            self.parent,
            &|| self.owner.clone(),
            |_| self.inner.load(interval),
        );
        if cp.is_some() {
            self.stats.loads.fetch_add(1, Ordering::Relaxed);
        }
        cp
    }

    fn save(&self, cp: &SampleCheckpoint) -> bool {
        let ok = self.tracer.span(
            "trace.ckpt_save",
            self.parent,
            &|| self.owner.clone(),
            |_| self.inner.save(cp),
        );
        if ok {
            let bytes = cp.predictor.len() + cp.hierarchy.len() + cp.rename.len();
            self.stats.saves.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_saved
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.stats.distinct.lock().expect(POISONED).insert((
                self.key.0,
                self.key.1,
                cp.interval,
            ));
        }
        ok
    }
}

type Cell = (Report, Option<SampleOutcome>);

/// A sampled grid run by the benchmark's own workers, with spans around
/// the trace checkout, each cell's `run_sampled` and each checkpoint
/// load and save. Produces the same results as `run_grid_full` with a
/// sample spec.
fn traced_pass(
    kernels: &[Workload],
    configs: &[(&str, SimConfig)],
    opts: &Opts,
    store: &TraceStore,
    tracer: &Tracer,
    parent: Option<u64>,
    ckpt: &CkptStats,
) -> (Vec<Vec<Cell>>, QueueStats) {
    let mut cells = grid_cells(kernels, configs, opts.window);
    for c in &mut cells {
        c.sample = Some(SampleSpec::default());
    }
    let queue = CellQueue::plan(cells, batching_enabled());
    let cache = TraceCache::evicting_per_workload(opts.window, queue.uses_per_workload())
        .with_store(Some(store.clone()));
    let first = first_units(&queue);
    let slots: Vec<Mutex<Option<Cell>>> = queue.cells().iter().map(|_| Mutex::new(None)).collect();
    let exec = |u: usize, id: Option<u64>| {
        let WorkUnit::Scalar(i) = queue.units()[u] else {
            unreachable!("sampled cells never batch");
        };
        let cell = &queue.cells()[i];
        let w = unit_workload(&queue, u);
        let owner = || format!("{}/{}", w.name(), cell.config_name);
        let name = if first[&w] == u {
            "trace.checkout"
        } else {
            "bench.checkout_wait"
        };
        let trace = tracer.span(name, id, &owner, |_| cache.checkout(w));
        let checksum = cache
            .trace_checksum(w)
            .expect("a stored trace has a checksum");
        let spec = SampleSpec::default();
        let sr = tracer.span("core.sampled", id, &owner, |sid| {
            let timed = TimedStore {
                inner: TraceSampleStore::new(store, checksum, &cell.config, &spec),
                key: (checksum, warm_state_key(&cell.config)),
                tracer,
                parent: sid,
                owner: owner(),
                stats: ckpt,
            };
            run_sampled(
                &cell.config,
                &trace,
                opts.window.warmup,
                opts.window.measure,
                &spec,
                &timed,
            )
        });
        drop(trace);
        cache.release(w);
        let outcome = SampleOutcome {
            ipc_estimate: sr.ipc_estimate,
            error_bound: sr.error_bound,
            cv: sr.cv,
            intervals: sr.per_interval_ipcs.len() as u64,
            ff_uops: sr.ff_uops,
            checkpoints_loaded: sr.checkpoints_loaded,
            checkpoints_saved: sr.checkpoints_saved,
            uops_detailed: sr.uops_detailed,
        };
        *slots[i].lock().expect(POISONED) = Some((sr.aggregate, Some(outcome)));
    };
    let stats = drive(&queue, opts.workers, tracer, parent, &exec);
    let mut flat = slots
        .into_iter()
        .map(|s| s.into_inner().expect(POISONED).expect("cell ran"));
    let grid = kernels
        .iter()
        .map(|_| flat.by_ref().take(configs.len()).collect())
        .collect();
    (grid, stats)
}

fn manifest(
    kernels: &[Workload],
    configs: &[(&str, SimConfig)],
    opts: &Opts,
    grid: Vec<Vec<Cell>>,
) -> RunManifest {
    let (reports, samples): (Vec<Vec<Report>>, Vec<Vec<Option<SampleOutcome>>>) =
        grid.into_iter().map(|row| row.into_iter().unzip()).unzip();
    grid_manifest(
        "figure4",
        kernels,
        configs,
        opts.window,
        opts.workers,
        0.0,
        &reports,
        &[],
        &samples,
        None,
    )
}

/// Runs the sampled grid traced, cold then warm, checks it against the
/// exact manifest `exact`, and records its per-layer metrics: checkpoint
/// traffic, fast-forward and detail work, and sampling accuracy.
///
/// # Errors
///
/// Fails when the traces cannot be recorded.
pub fn probe(
    out: &mut Outcome,
    opts: &Opts,
    exact: &RunManifest,
    tracer: &Tracer,
) -> Result<(), String> {
    let kernels = Workload::all().to_vec();
    let configs = figure4_gate_configs();
    let rec = record_traces(&kernels, opts.window)?;
    let ckpt = CkptStats::default();
    let (cold, warm) = tracer.span("probe.sampled", None, &|| "sampled".into(), |root| {
        let pass = |label: &'static str| {
            tracer.span(label, root, &|| label.into(), |id| {
                traced_pass(&kernels, &configs, opts, &rec.store, tracer, id, &ckpt).0
            })
        };
        (pass("sampled.cold"), pass("sampled.warm"))
    });
    let cells = || cold.iter().flatten().filter_map(|(_, s)| s.as_ref());
    let ff_uops: u64 = cells().map(|s| s.ff_uops).sum();
    let detail_uops: u64 = cells().map(|s| s.uops_detailed).sum();
    let cold_m = manifest(&kernels, &configs, opts, cold);
    let warm_m = manifest(&kernels, &configs, opts, warm);
    out.absorb(check_sampled(&cold_m, &warm_m, exact));

    let spans = tracer.spans();
    let saves = ckpt.saves.load(Ordering::Relaxed);
    out.layer(
        "trace.ckpt_load_ms",
        "ms",
        total_ms(&spans, "trace.ckpt_load"),
    );
    out.layer(
        "trace.ckpt_save_ms",
        "ms",
        total_ms(&spans, "trace.ckpt_save"),
    );
    out.layer(
        "trace.ckpt_loads",
        "count",
        ckpt.loads.load(Ordering::Relaxed) as f64,
    );
    out.layer("trace.ckpt_saves", "count", saves as f64);
    out.layer(
        "trace.ckpt_mb",
        "MB",
        ckpt.bytes_saved.load(Ordering::Relaxed) as f64 / 1e6,
    );
    out.layer(
        "trace.ckpt_save_useful_frac",
        "fraction",
        ckpt.distinct.lock().expect(POISONED).len() as f64 / saves.max(1) as f64,
    );
    out.layer("core.ff_uops", "count", ff_uops as f64);
    out.layer("core.detail_uops", "count", detail_uops as f64);
    // Engine time per cell: the cell's span minus its checkpoint I/O.
    let cell_self: Vec<f64> = self_times(&spans)
        .into_iter()
        .filter(|(s, _)| s.name == "core.sampled")
        .map(|(_, t)| t as f64 / 1e6)
        .collect();
    out.layer(
        "core.sampled_cell_ms",
        "ms",
        cell_self.iter().sum::<f64>() / cell_self.len().max(1) as f64,
    );
    let errors = sample_errors(&cold_m, exact);
    let n = errors.len().max(1) as f64;
    out.layer(
        "core.sample_err_pct",
        "%",
        100.0 * errors.iter().sum::<f64>() / n,
    );
    out.layer(
        "core.sample_err_max_pct",
        "%",
        100.0 * errors.iter().copied().fold(0.0, f64::max),
    );
    Ok(())
}
