//! Ablation studies beyond the paper's figures, for the design choices
//! `DESIGN.md` calls out:
//!
//! 1. **allocation policy** on WSRS: `RM` vs `RC` vs our load-balancing
//!    extension (`LB`, the §5.4 "future research" direction);
//! 2. **physical register count** sweep on WSRS-RC (the paper only shows
//!    384 vs 512);
//! 3. **renaming strategy** 1 (recycling, 1 extra stage) vs 2 (exact
//!    count, 3 extra stages) on WS and WSRS;
//! 4. **fast-forwarding scope** (§4.3.1): intra-cluster vs adjacent-pair
//!    vs complete bypass;
//! 5. **branch predictor** quality under the deep-pipeline penalties that
//!    motivate the paper's choice of an EV8-class predictor;
//! 6. **window size** around the paper's 224-µop point;
//! 7. **related work** (§6): the register-file cache \[4\] as the
//!    alternative route to a shorter register-read pipeline, next to WS
//!    and WSRS.
//!
//! All seven studies run as one grid over a representative subset of
//! benchmarks; each study's columns carry its tag (`a1/` … `a7/`), and
//! each study prints as its own table.

use wsrs_bench::{render_grid, run_experiment};

/// (column tag, table title), one per study.
const STUDIES: [(&str, &str); 7] = [
    ("a1", "Ablation 1 — WSRS allocation policy (IPC)"),
    ("a2", "Ablation 2 — WSRS-RC physical register count (IPC)"),
    ("a3", "Ablation 3 — renaming strategy (IPC)"),
    ("a4", "Ablation 4 — fast-forwarding scope (IPC)"),
    ("a5", "Ablation 5 — branch predictor on WSRS-RC (IPC)"),
    ("a6", "Ablation 6 — in-flight window size on WSRS-RC (IPC)"),
    (
        "a7",
        "Ablation 7 — related work: register-file cache [4] vs specialization (IPC)",
    ),
];

fn main() {
    let run = run_experiment("ablation");
    let rows = run.rows();
    let names = run.config_names();
    for (tag, title) in STUDIES {
        // The study's columns, labelled by the name field after the tag
        // (the window study's "28/112" shows its per-cluster "28").
        let (cols, short): (Vec<usize>, Vec<&str>) = names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.split('/').next() == Some(tag))
            .map(|(i, n)| (i, n.split('/').nth(1).unwrap_or(n)))
            .unzip();
        let study_rows: Vec<(String, Vec<f64>)> = rows
            .iter()
            .map(|(w, vals)| (w.clone(), cols.iter().map(|&i| vals[i]).collect()))
            .collect();
        println!("{}", render_grid(title, &short, &study_rows, 3));
    }
}
