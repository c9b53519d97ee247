//! Criterion benches for the shared trace cache: what one grid "column" of
//! cells costs when every cell re-runs the functional emulator versus when
//! the workload is emulated once and the cells replay the cached trace.
//!
//! This is the trade [`wsrs_bench::TraceCache`] makes for the experiment
//! binaries: one up-front materialization (sized `warmup + measure`)
//! against per-cell re-emulation, with the cached slice also being what
//! makes the parallel grid possible without redundant emulator work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wsrs_bench::{run_cell_cached, RunParams, TraceCache};
use wsrs_core::Simulator;
use wsrs_workloads::Workload;

const PARAMS: RunParams = RunParams {
    warmup: 20_000,
    measure: 40_000,
};
const CONFIGS_PER_WORKLOAD: u64 = 6;

/// Emulation cost alone: generating (and discarding) a bounded trace
/// versus checking one out of a fresh cache (generate + materialize).
fn trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_cache/generate");
    g.throughput(Throughput::Elements(PARAMS.warmup + PARAMS.measure));
    g.sample_size(10);
    let w = Workload::Gzip;
    g.bench_function("emulate_discard", |b| {
        b.iter(|| {
            w.trace()
                .take((PARAMS.warmup + PARAMS.measure) as usize)
                .count()
        })
    });
    g.bench_function("cache_checkout", |b| {
        b.iter(|| {
            TraceCache::evicting_per_workload(PARAMS, [(w, 1)].into())
                .checkout(w)
                .len()
        })
    });
    g.finish();
}

/// One Figure-4-style column: six cells of the same workload, per-cell
/// emulation versus one shared cached trace.
fn column_of_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_cache/column");
    g.throughput(Throughput::Elements(
        (PARAMS.warmup + PARAMS.measure) * CONFIGS_PER_WORKLOAD,
    ));
    g.sample_size(10);
    let w = Workload::Gzip;
    let cfg = wsrs_core::SimConfig::conventional_rr(256);

    g.bench_with_input(
        BenchmarkId::from_parameter("per_cell_emulation"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                (0..CONFIGS_PER_WORKLOAD)
                    .map(|_| {
                        Simulator::new(*cfg)
                            .run_measured(w.trace(), PARAMS.warmup, PARAMS.measure)
                            .cycles
                    })
                    .sum::<u64>()
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("shared_cache"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let uses = [(w, CONFIGS_PER_WORKLOAD as usize)].into();
                let cache = TraceCache::evicting_per_workload(PARAMS, uses);
                (0..CONFIGS_PER_WORKLOAD)
                    .map(|_| {
                        let trace = cache.checkout(w);
                        let cycles = run_cell_cached(&trace, cfg, PARAMS).cycles;
                        cache.release(w);
                        cycles
                    })
                    .sum::<u64>()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, trace_generation, column_of_cells);
criterion_main!(benches);
