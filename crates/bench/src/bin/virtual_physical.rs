//! Virtual-physical registers (the paper's §6 \[13\], Monreal et al.)
//! combined with write specialization — the paper notes these techniques
//! "are orthogonal with WSRS and can be applied at cluster level".
//!
//! Sweeps the per-subset *physical* capacity of a VP machine and compares
//! against plain write specialization at the paper's register counts. VP
//! occupies a register only from issue to superseding-commit, so far fewer
//! physical registers sustain the same 224-µop window.

use wsrs_bench::{render_grid, run_experiment};

fn main() {
    let run = run_experiment("virtual_physical");
    println!(
        "{}",
        render_grid(
            "Virtual-physical registers over WS (IPC; physical regs per subset)",
            &run.config_names(),
            &run.rows(),
            3
        )
    );
    println!(
        "WS 512 holds 128 physical registers per subset; VP sustains the same\n\
         window with a fraction of that — the [13] effect, composed with WS."
    );
}
