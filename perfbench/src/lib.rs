//! # wsrs-perfbench — the repository benchmark
//!
//! Times what a user of the WSRS reproduction waits for, end to end, and
//! splits it by layer in a separate traced run. Three workloads:
//!
//! | workload   | timed phase |
//! |------------|-------------|
//! | `grid-int` | the figure4 gate grid over the 5 integer kernels, its manifest and the gate comparison |
//! | `grid-fp`  | the same over the 7 floating-point kernels |
//! | `serve`    | an in-process `wsrs-serve` driven by one closed-loop client: every distinct cell once as a fresh job, interleaved with memo replays |
//!
//! The benchmark calls the program only through its public Rust API,
//! with at most [`hermetic::MAX_WORKERS`] worker threads. Every simulated
//! statistic is checked against the committed `BENCH_figure4.json` (or,
//! for the service, against the cell's own fresh result); a mismatch
//! counts as a failed cell or job, never as an abort. The interval-sampled
//! path is measured in every traced run (see [`sampled`]).

pub mod checks;
pub mod grid;
pub mod hermetic;
pub mod probes;
pub mod sampled;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::Samples;
use wsrs_bench::windows::{GATE_MEASURE, GATE_WARMUP};
use wsrs_bench::RunParams;
use wsrs_core::SimConfig;

/// `expect` message for a lock whose holder panicked: a benchmark worker
/// died mid-update, so the run cannot be trusted.
pub(crate) const POISONED: &str = "lock poisoned by a panicked benchmark thread";

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["grid-int", "grid-fp", "serve"];

/// Everything a workload run needs to know.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Sets serve's job order and replay draws. Grid rows are queued in
    /// the canonical kernel order `report gate` uses: with few large
    /// units on two workers, a seeded order moved the timings by more
    /// than any bound could absorb.
    pub seed: u64,
    /// How long the timed phase repeats for (at least once).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Worker threads for grids and the server.
    pub workers: usize,
    /// Window of every simulated cell, grid or service job (the gate
    /// window, the service's default request, by default).
    pub window: RunParams,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Replay jobs interleaved with the fresh jobs of `serve`.
    pub replays: usize,
    /// Expected exact figure4 manifest text; `None` reads the committed
    /// `BENCH_figure4.json`.
    pub expected: Option<String>,
}

impl Opts {
    /// The benchmark's standard settings.
    #[must_use]
    pub fn standard(seed: u64, seconds: f64, traced: bool) -> Opts {
        Opts {
            seed,
            seconds,
            traced,
            workers: hermetic::workers(),
            window: RunParams {
                warmup: GATE_WARMUP,
                measure: GATE_MEASURE,
            },
            // `setup_s` is an end-to-end metric; the traced run does not
            // report it and sets up once.
            setups: if traced { 1 } else { 5 },
            // With the warm pass's replay of each of the 84 cells, 200
            // replays: ten samples beyond `replay_job_ms_p95`.
            replays: 116,
            expected: None,
        }
    }

    /// The expected exact manifest text.
    ///
    /// # Errors
    ///
    /// Fails when the committed baseline cannot be read.
    pub fn expected_text(&self) -> Result<String, String> {
        match &self.expected {
            Some(t) => Ok(t.clone()),
            None => {
                let path = wsrs_bench::manifest::baseline_path("figure4");
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
            }
        }
    }
}

/// The figure4 gate configurations: the six Figure 4 machines with
/// telemetry on, exactly as `report gate` runs them.
#[must_use]
pub fn figure4_gate_configs() -> Vec<(&'static str, SimConfig)> {
    wsrs_bench::gate_experiments()
        .into_iter()
        .find(|(name, _, _)| *name == "figure4")
        .expect("figure4 is a gated experiment")
        .1
}

/// One reported metric with the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A single measurement.
    #[must_use]
    pub fn one(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The median of `s`, with its quartiles.
    #[must_use]
    pub fn median(name: &str, unit: &'static str, s: &Samples) -> Metric {
        Metric::percentile(name, unit, s, 50.0)
    }

    /// The `p`-th percentile of `s`, with the quartiles of `s`.
    #[must_use]
    pub fn percentile(name: &str, unit: &'static str, s: &Samples, p: f64) -> Metric {
        let (q1, q3) = s.quartiles();
        Metric {
            name: name.into(),
            unit,
            value: s.percentile(p),
            n: s.len(),
            q1,
            q3,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// Cells, jobs or checks whose output was verified.
    pub attempted: u64,
    /// Those whose output was wrong or missing.
    pub failed: u64,
    /// Why (first few reasons).
    pub failures: Vec<String>,
    /// Timed-phase repetitions.
    pub iterations: usize,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run), by name.
    pub per_layer: BTreeMap<String, Metric>,
    /// Self time per span name, in ms (traced run).
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    #[must_use]
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    /// Folds a verification result in.
    pub fn absorb(&mut self, c: checks::Check) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        for r in c.reasons {
            if self.failures.len() < 20 {
                self.failures.push(r);
            }
        }
    }

    /// Records a per-layer metric, replacing any earlier value.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
        self.per_layer
            .insert(name.to_string(), Metric::one(name, unit, value + 0.0));
    }

    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The end-to-end samples every workload collects.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Samples,
    pub wall_s: Samples,
    pub warm_s: Samples,
    /// Latency of each job of the timed phase, in ms.
    pub fresh_ms: Samples,
    /// Latency of each job served from warm state, in ms.
    pub replay_ms: Samples,
}

impl EndToEnd {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::median("setup_s", "s", &self.setup_s),
            Metric::median("wall_s", "s", &self.wall_s),
            Metric::median("warm_s", "s", &self.warm_s),
            Metric::percentile("fresh_job_ms_p50", "ms", &self.fresh_ms, 50.0),
            Metric::percentile("fresh_job_ms_p90", "ms", &self.fresh_ms, 90.0),
            Metric::percentile("replay_job_ms_p50", "ms", &self.replay_ms, 50.0),
            Metric::percentile("replay_job_ms_p95", "ms", &self.replay_ms, 95.0),
            Metric::one("peak_rss_mb", "MB", hermetic::peak_rss_mb()),
        ]
    }
}

/// Repeats `iteration` until `seconds` have passed: at least once, and
/// again only while the previous iteration's length still fits before
/// the deadline. Returns the number of iterations.
pub fn repeat_for(seconds: f64, mut iteration: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds.max(0.0));
    let mut n = 0;
    loop {
        let t = Instant::now();
        iteration(n);
        n += 1;
        if start.elapsed() + t.elapsed() > deadline {
            return n;
        }
    }
}

/// Seconds as `f64`.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload by name.
///
/// # Errors
///
/// Fails on an unknown workload or when set-up cannot complete (no
/// committed baseline, no socket); output mismatches are not errors but
/// failed cells in the returned [`Outcome`].
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "grid-int" => grid::run(grid::Class::Int, opts),
        "grid-fp" => grid::run(grid::Class::Fp, opts),
        "serve" => serve::run(opts),
        other => Err(format!(
            "unknown workload '{other}' (have: {}, all)",
            WORKLOADS.join(", ")
        )),
    }
}
