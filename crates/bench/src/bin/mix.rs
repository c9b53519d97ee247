//! Dynamic instruction-mix table for the twelve kernels — the §3.3
//! quantities behind WSRS's allocation freedom: how many µops are noadic /
//! monadic / dyadic, how many dyadic ops commute, and the branch / memory /
//! FP densities.
//!
//! The paper asserts "a large fraction of the instructions are either
//! monadic or noadic"; this binary measures it for our kernels, drawing
//! each workload's µop stream from the shared [`TraceCache`] (one bounded
//! emulation per workload, same harness as the grid experiments).

use wsrs_bench::TraceCache;
use wsrs_workloads::stats::TraceStats;
use wsrs_workloads::Workload;

fn main() {
    // Skip initialization loops, then a window long enough for stable
    // fractions (see `wsrs_bench::windows`).
    let params = wsrs_bench::windows::mix_params();
    let uses = Workload::all().into_iter().map(|w| (w, 1)).collect();
    let cache = TraceCache::evicting_per_workload(params, uses);

    println!(
        "{:<10}{:>9}{:>9}{:>9}{:>11}{:>9}{:>9}{:>7}",
        "kernel", "noadic%", "monadic%", "dyadic%", "commut.d%", "branch%", "memory%", "fp%"
    );
    for w in Workload::all() {
        let trace = cache.checkout(w);
        let s = TraceStats::measure(
            trace
                .iter()
                .copied()
                .skip(params.warmup as usize)
                .take(params.measure as usize),
        );
        drop(trace);
        cache.release(w);
        let pct = |n: u64| 100.0 * n as f64 / s.total as f64;
        println!(
            "{:<10}{:>9.1}{:>9.1}{:>9.1}{:>11.1}{:>9.1}{:>9.1}{:>7.1}",
            w.name(),
            pct(s.arity[0]),
            pct(s.arity[1]),
            pct(s.arity[2]),
            if s.arity[2] == 0 {
                0.0
            } else {
                100.0 * s.commutative_dyadic as f64 / s.arity[2] as f64
            },
            100.0 * s.branch_fraction(),
            100.0 * s.memory_fraction(),
            100.0 * s.fp_fraction(),
        );
    }
    println!(
        "\n(commut.d% = share of dyadic µops whose opcode commutes; under the\n\
         paper's 'commutative clusters' assumption, ALL dyadic µops may swap)"
    );
}
