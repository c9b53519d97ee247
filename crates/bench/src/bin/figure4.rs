//! Regenerates the paper's **Figure 4**: IPC of the six configurations
//! (RR 256, WSRR 384/512, WSRS RC 384/512, WSRS RM 512) over the twelve
//! benchmarks.
//!
//! Window sizes come from `WSRS_WARMUP` / `WSRS_MEASURE` (defaults: 1 M +
//! 2 M µops — the paper used 20 M + 10 M; see `EXPERIMENTS.md`). Cells are
//! fanned across `WSRS_THREADS` workers (default: all cores), each
//! workload's trace emulated once and shared across configurations.

use wsrs_bench::{render_bars, render_grid, run_experiment};

fn main() {
    let run = run_experiment("figure4");
    let names = run.config_names();
    let (int_rows, fp_rows) = run.rows_by_class();

    println!(
        "{}",
        render_grid("Figure 4 — IPC, integer benchmarks", &names, &int_rows, 3)
    );
    println!(
        "{}",
        render_grid(
            "Figure 4 — IPC, floating-point benchmarks",
            &names,
            &fp_rows,
            3
        )
    );

    // Bar rendering, matching the paper's chart form.
    let max = int_rows
        .iter()
        .chain(&fp_rows)
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.1f64, f64::max);
    println!(
        "{}",
        render_bars("Figure 4 (bars), integer", &names, &int_rows, max)
    );
    println!(
        "{}",
        render_bars("Figure 4 (bars), floating point", &names, &fp_rows, max)
    );
}
