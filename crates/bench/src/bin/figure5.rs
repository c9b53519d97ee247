//! Regenerates the paper's **Figure 5**: unbalancing degrees of the WSRS
//! `RC` and `RM` allocation policies over the twelve benchmarks (groups of
//! 128 µops; a group is unbalanced when any cluster receives fewer than 24
//! or more than 40 of them).

use wsrs_bench::{render_grid, run_experiment};

fn main() {
    let run = run_experiment("figure5");
    let names = run.config_names();
    let (int_rows, fp_rows) = run.rows_by_class();

    println!(
        "{}",
        render_grid(
            "Figure 5 — unbalancing degree (%), integer benchmarks",
            &names,
            &int_rows,
            1
        )
    );
    println!(
        "{}",
        render_grid(
            "Figure 5 — unbalancing degree (%), floating-point benchmarks",
            &names,
            &fp_rows,
            1
        )
    );
    println!("(round-robin on the conventional architecture is 0% by construction)");
}
