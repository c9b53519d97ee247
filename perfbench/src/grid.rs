//! The `grid-int` and `grid-fp` workloads: the figure4 gate grid over one
//! kernel class, replaying traces recorded during set-up, then its
//! manifest and the gate comparison with the committed baseline — what
//! `report gate` makes a user wait for. Also the pieces the other
//! workloads share: trace recording and the traced unit runner.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsrs_bench::manifest::grid_manifest;
use wsrs_bench::{
    batching_enabled, run_grid_full, CellJob, CellQueue, RunParams, TraceCache, WorkUnit,
};
use wsrs_core::{Report, SimConfig};
use wsrs_telemetry::{RunManifest, Tolerances};
use wsrs_trace::{TraceKey, TraceStore};
use wsrs_workloads::Workload;

use crate::checks::{check_grid, restrict, Check};
use crate::hermetic::TempDir;
use crate::spans::{total_ms, Span, Tracer};
use crate::{
    figure4_gate_configs, ms, probes, repeat_for, secs, EndToEnd, Opts, Outcome, POISONED,
};

/// A kernel class of the figure4 grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Int,
    Fp,
}

impl Class {
    #[must_use]
    pub fn kernels(self) -> Vec<Workload> {
        match self {
            Class::Int => Workload::integer().to_vec(),
            Class::Fp => Workload::floating_point().to_vec(),
        }
    }

    #[must_use]
    pub fn workload(self) -> &'static str {
        match self {
            Class::Int => "grid-int",
            Class::Fp => "grid-fp",
        }
    }
}

/// The store key the grid harness looks a trace up under.
#[must_use]
pub fn trace_key(w: Workload, window: RunParams) -> TraceKey {
    TraceKey {
        workload: w.name().to_string(),
        warmup: window.warmup,
        measure: window.measure,
        rev: w.trace_fingerprint(),
    }
}

/// Traces recorded into a scratch store during set-up, with what
/// recording them cost.
pub struct Recorded {
    pub store: TraceStore,
    pub emulate: Duration,
    pub save: Duration,
    pub uops: u64,
    pub bytes: u64,
    /// The store's scratch directory, removed when this is dropped.
    _dir: TempDir,
}

/// Emulates each kernel over `window` and records its trace into a fresh
/// scratch store.
///
/// # Errors
///
/// Fails when a trace cannot be written.
pub fn record_traces(kernels: &[Workload], window: RunParams) -> Result<Recorded, String> {
    let dir = TempDir::new("traces");
    let store = TraceStore::at(dir.path());
    let (mut emulate, mut save, mut uops, mut bytes) = (Duration::ZERO, Duration::ZERO, 0, 0);
    let n = (window.warmup + window.measure) as usize;
    for &w in kernels {
        let t = Instant::now();
        let mut trace = Vec::with_capacity(n);
        trace.extend(w.trace().take(n));
        emulate += t.elapsed();
        let t = Instant::now();
        let saved = store
            .save(&trace_key(w, window), &trace)
            .map_err(|e| format!("cannot record the {w} trace: {e}"))?;
        save += t.elapsed();
        uops += trace.len() as u64;
        bytes += saved.bytes;
    }
    Ok(Recorded {
        store,
        emulate,
        save,
        uops,
        bytes,
        _dir: dir,
    })
}

/// Repeats `record` `setups` times into fresh stores, timing each into
/// `setup_s`, and keeps the last.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn setup<T>(
    setups: usize,
    e2e: &mut EndToEnd,
    mut record: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..setups.max(1) {
        let t = Instant::now();
        let r = record()?;
        e2e.setup_s.push(secs(t.elapsed()));
        // The previous set-up is torn down here, outside the timing.
        kept = Some(r);
    }
    Ok(kept.expect("at least one set-up"))
}

/// Busy and idle time of the benchmark's own workers over one queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    pub wall: Duration,
    pub busy: Duration,
    /// Summed over workers: time between a worker's last unit and the end
    /// of the pass.
    pub tail_idle: Duration,
    pub workers: usize,
}

impl QueueStats {
    #[must_use]
    pub fn busy_frac(&self) -> f64 {
        secs(self.busy) / (secs(self.wall) * self.workers.max(1) as f64)
    }
}

/// The workload a unit's cells simulate.
#[must_use]
pub fn unit_workload(queue: &CellQueue, unit: usize) -> Workload {
    let lead = match &queue.units()[unit] {
        WorkUnit::Batch(g) => g[0],
        WorkUnit::Scalar(i) => *i,
    };
    queue.cells()[lead].workload
}

/// Claims every unit of `queue` on `workers` threads of the benchmark's
/// own, running `exec(unit, span)` inside a `bench.unit` span for each.
pub fn drive(
    queue: &CellQueue,
    workers: usize,
    tracer: &Tracer,
    parent: Option<u64>,
    exec: &(dyn Fn(usize, Option<u64>) + Sync),
) -> QueueStats {
    let t0 = Instant::now();
    let n = workers.clamp(1, queue.units().len().max(1));
    let per_worker: Vec<(Duration, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    let (mut busy, mut last) = (Duration::ZERO, Instant::now());
                    while let Some(u) = queue.claim() {
                        let a = Instant::now();
                        let owner = || unit_workload(queue, u).name().to_string();
                        tracer.span("bench.unit", parent, &owner, |id| exec(u, id));
                        busy += a.elapsed();
                        last = Instant::now();
                    }
                    (busy, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let end = Instant::now();
    QueueStats {
        wall: end - t0,
        busy: per_worker.iter().map(|(b, _)| *b).sum(),
        tail_idle: per_worker
            .iter()
            .map(|(_, last)| end.saturating_duration_since(*last))
            .sum(),
        workers: n,
    }
}

/// The first unit of each workload in claim order: its checkout builds
/// the trace, while later units of the same workload only wait for it.
#[must_use]
pub fn first_units(queue: &CellQueue) -> HashMap<Workload, usize> {
    let mut first = HashMap::new();
    for u in 0..queue.units().len() {
        first.entry(unit_workload(queue, u)).or_insert(u);
    }
    first
}

/// Workload-major cells of a grid.
#[must_use]
pub fn grid_cells(
    kernels: &[Workload],
    configs: &[(&str, SimConfig)],
    window: RunParams,
) -> Vec<CellJob> {
    kernels
        .iter()
        .flat_map(|&w| {
            configs
                .iter()
                .map(move |(n, c)| CellJob::new(w, n, *c, window))
        })
        .collect()
}

/// An exact grid run by the benchmark's own workers, with a span around
/// each layer call: the trace checkout and the simulation of each unit.
/// Produces the same reports as [`run_grid_full`].
fn traced_grid(
    kernels: &[Workload],
    configs: &[(&str, SimConfig)],
    window: RunParams,
    workers: usize,
    store: &TraceStore,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (
    Vec<Vec<Report>>,
    Vec<bool>,
    wsrs_bench::TraceProvenance,
    QueueStats,
) {
    let queue = CellQueue::plan(grid_cells(kernels, configs, window), batching_enabled());
    // Each unit checks its trace out twice: once here, timed on its own,
    // and once inside `run_unit`.
    let uses = queue
        .uses_per_workload()
        .into_iter()
        .map(|(w, n)| (w, 2 * n))
        .collect();
    let cache = TraceCache::evicting_per_workload(window, uses).with_store(Some(store.clone()));
    let first = first_units(&queue);
    let slots: Vec<Mutex<Option<Report>>> =
        queue.cells().iter().map(|_| Mutex::new(None)).collect();
    let exec = |u: usize, id: Option<u64>| {
        let w = unit_workload(&queue, u);
        let owner = || w.name().to_string();
        let name = if first[&w] == u {
            "trace.checkout"
        } else {
            "bench.checkout_wait"
        };
        let trace = tracer.span(name, id, &owner, |_| cache.checkout(w));
        tracer.span("core.unit", id, &owner, |_| {
            queue.run_unit(u, &cache, &|r| {
                *slots[r.cell].lock().expect(POISONED) = Some(r.report)
            });
        });
        drop(trace);
        cache.release(w);
    };
    let stats = drive(&queue, workers, tracer, parent, &exec);
    let mut flat = slots
        .into_iter()
        .map(|s| s.into_inner().expect(POISONED).expect("cell ran"));
    let reports = kernels
        .iter()
        .map(|_| flat.by_ref().take(configs.len()).collect())
        .collect();
    let batched = queue.batched_cells()[..configs.len().min(queue.cells().len())].to_vec();
    (reports, batched, cache.provenance(), stats)
}

/// Who claims a grid's units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// The program's `run_grid_full`, as a user runs the grid.
    Program,
    /// The benchmark's own workers, with a span around each layer call
    /// when the tracer is on.
    Bench,
}

/// One timed grid pass.
pub struct GridPass {
    pub wall: Duration,
    /// Each kernel row's latency, from the start of the pass to the
    /// row's last cell, in ms.
    pub rows_ms: Vec<f64>,
    pub check: Check,
    pub stats: QueueStats,
}

/// Runs the grid, builds its manifest and compares it with the expected
/// one — the timed phase — then checks every cell.
#[allow(clippy::too_many_arguments)]
pub fn grid_pass(
    kernels: &[Workload],
    configs: &[(&str, SimConfig)],
    opts: &Opts,
    store: &TraceStore,
    expected_text: &str,
    expected: &RunManifest,
    runner: Runner,
    tracer: &Tracer,
    parent: Option<u64>,
) -> GridPass {
    let window = opts.window;
    let t0 = Instant::now();
    let rows: Mutex<HashMap<Workload, Duration>> = Mutex::new(HashMap::new());
    let (reports, batched, provenance, stats) = if runner == Runner::Bench {
        traced_grid(
            kernels,
            configs,
            window,
            opts.workers,
            store,
            tracer,
            parent,
        )
    } else {
        let run = run_grid_full(
            kernels,
            configs,
            window,
            opts.workers,
            Some(store.clone()),
            None,
            &|w, _, _, _| {
                let done = t0.elapsed();
                let mut rows = rows.lock().expect(POISONED);
                let row = rows.entry(w).or_default();
                *row = (*row).max(done);
            },
        );
        (
            run.reports,
            run.batched,
            run.provenance,
            QueueStats::default(),
        )
    };
    let owner = || "grid".to_string();
    let manifest = tracer.span("telemetry.manifest", parent, &owner, |_| {
        let m = grid_manifest(
            "figure4",
            kernels,
            configs,
            window,
            opts.workers,
            secs(t0.elapsed()),
            &reports,
            &batched,
            &[],
            Some(&provenance),
        );
        // Serialized as `report gate` writes it; the text is not needed.
        std::hint::black_box(m.to_json_string());
        m
    });
    let gate = tracer.span("telemetry.gate_compare", parent, &owner, |_| {
        RunManifest::parse(expected_text)
            .map(|base| restrict(&base, &manifest).compare(&manifest, &Tolerances::default()))
    });
    let wall = t0.elapsed();

    let mut check = match gate {
        Some(gate) => check_grid(&manifest, expected, &gate),
        None => {
            let mut c = Check::default();
            for cell in &manifest.cells {
                c.fail(format!(
                    "{}/{}: expected manifest does not parse",
                    cell.workload, cell.config
                ));
            }
            c
        }
    };
    if !provenance.all_replayed() {
        check
            .reasons
            .push("set-up did not warm every trace: the timed grid emulated some".to_string());
        check.failed = check.attempted;
    }
    // A row's latency runs from the start of the pass to its last cell,
    // as the harness's per-cell hook delivers it: what a user of the grid
    // waits for that kernel. The benchmark's own runner times rows as
    // spans instead.
    let rows_ms = rows
        .into_inner()
        .expect(POISONED)
        .values()
        .map(|d| ms(*d))
        .collect();
    GridPass {
        wall,
        rows_ms,
        check,
        stats,
    }
}

/// The ids of the spans directly under `parent` named `name`.
fn ids_under(spans: &[Span], parent: Option<u64>, name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.parent == parent && s.name == name)
        .map(|s| s.id)
        .collect()
}

/// Per-kernel unit times (`core.unit_ms.<kernel>`) of the traced exact
/// grid pass under span `root`.
pub fn unit_layers(out: &mut Outcome, spans: &[Span], root: Option<u64>) {
    let units = ids_under(spans, root, "bench.unit");
    for s in spans
        .iter()
        .filter(|s| s.name == "core.unit" && s.parent.is_some_and(|p| units.contains(&p)))
    {
        let name = format!("core.unit_ms.{}", s.owner);
        let prev = out.per_layer.get(&name).map_or(0.0, |m| m.value);
        out.layer(&name, "ms", prev + s.dur_ns() as f64 / 1e6);
    }
}

/// Per-layer metrics of the traced grid pass under span `root`: unit
/// times, the benchmark's own workers, manifest and gate comparison.
pub fn grid_layers(out: &mut Outcome, spans: &[Span], root: Option<u64>, stats: &QueueStats) {
    unit_layers(out, spans, root);
    let units = ids_under(spans, root, "bench.unit");
    let waits: Vec<Span> = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| units.contains(&p)))
        .cloned()
        .collect();
    let top: Vec<Span> = spans.iter().filter(|s| s.parent == root).cloned().collect();
    out.layer(
        "bench.checkout_wait_ms",
        "ms",
        total_ms(&waits, "bench.checkout_wait"),
    );
    out.layer("bench.worker_busy_frac", "fraction", stats.busy_frac());
    out.layer("bench.tail_idle_ms", "ms", ms(stats.tail_idle));
    out.layer(
        "telemetry.manifest_ms",
        "ms",
        total_ms(&top, "telemetry.manifest"),
    );
    out.layer(
        "telemetry.gate_compare_ms",
        "ms",
        total_ms(&top, "telemetry.gate_compare"),
    );
}

/// Runs the `grid-int` or `grid-fp` workload.
///
/// # Errors
///
/// Fails when set-up cannot complete.
pub fn run(class: Class, opts: &Opts) -> Result<Outcome, String> {
    let kernels = class.kernels();
    let configs = figure4_gate_configs();
    let expected_text = opts.expected_text()?;
    let expected =
        RunManifest::parse(&expected_text).ok_or("the expected manifest does not parse")?;
    let mut out = Outcome::new(class.workload());
    let mut e2e = EndToEnd::default();
    let rec = setup(opts.setups, &mut e2e, || {
        record_traces(&kernels, opts.window)
    })?;
    let off = Tracer::new(false);
    let pass = |runner, tracer: &Tracer, parent| {
        grid_pass(
            &kernels,
            &configs,
            opts,
            &rec.store,
            &expected_text,
            &expected,
            runner,
            tracer,
            parent,
        )
    };

    if !opts.traced {
        out.iterations = repeat_for(opts.seconds, |_| {
            let a = pass(Runner::Program, &off, None);
            e2e.wall_s.push(secs(a.wall));
            a.rows_ms.iter().for_each(|&r| e2e.fresh_ms.push(r));
            out.absorb(a.check);
            let b = pass(Runner::Program, &off, None);
            e2e.warm_s.push(secs(b.wall));
            b.rows_ms.iter().for_each(|&r| e2e.replay_ms.push(r));
            out.absorb(b.check);
        });
        out.end_to_end = e2e.metrics();
        return Ok(out);
    }

    // The overhead compares the same runner with the tracer off and on,
    // so it holds the spans' cost alone, from one pass each.
    let untraced = pass(Runner::Bench, &off, None);
    out.absorb(untraced.check);
    let tracer = Tracer::new(true);
    let traced = tracer.span("workload", None, &|| class.workload().into(), |root| {
        pass(Runner::Bench, &tracer, root)
    });
    let spans = tracer.spans();
    let root = spans.iter().find(|s| s.name == "workload").map(|s| s.id);
    grid_layers(&mut out, &spans, root, &traced.stats);
    out.layer(
        "bench.trace_overhead_s",
        "s",
        secs(traced.wall) - secs(untraced.wall),
    );
    out.absorb(traced.check);
    out.iterations = 1;
    probes::setup_layers(&mut out, &rec, &kernels, opts.window);
    probes::fill(&mut out, opts, &kernels, &tracer)?;
    probes::finish_trace(&mut out, &tracer, opts.seed);
    Ok(out)
}
