//! The paper's **Figure 2b** organization: register write specialization
//! over pools of identical functional units (load/store pool, simple-ALU
//! pool, FP/complex pool, branch pool), compared against the monolithic
//! 8-way machine it specializes.
//!
//! Demonstrates §2's claim for the pool organization: write specialization
//! with a static (opcode-determined, predecoded) allocation does not impair
//! performance, while each register keeps only one pool's write ports.

use wsrs_bench::{render_grid, run_experiment};

fn main() {
    let run = run_experiment("pools");
    println!(
        "{}",
        render_grid(
            "Figure 2b — pooled write specialization (IPC)",
            &run.config_names(),
            &run.rows(),
            3
        )
    );
}
