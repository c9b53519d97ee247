//! Complexity-effectiveness synthesis: the paper's titular argument,
//! quantified by joining Figure 4 (performance) with Table 1 (hardware
//! cost).
//!
//! For each machine, geometric-mean IPC across the twelve kernels is
//! divided by its register file's peak power and silicon area. The paper
//! never prints this table, but it *is* the paper's thesis: WSRS gives up
//! little or no IPC while dividing register-file power by ~2.3 and area by
//! more than 6 — so IPC-per-nJ and IPC-per-area jump accordingly.

use wsrs_bench::run_experiment;
use wsrs_complexity::{total_area_w2, CactiModel, RegFileOrg};

fn main() {
    let model = CactiModel::paper();
    // One grid over all machines: each workload's trace is emulated once
    // and shared, and the geometric mean is taken down each column.
    let run = run_experiment("efficiency");
    // The register-file organization of each machine, in column order.
    let orgs = [
        RegFileOrg::nows_distributed(256),
        RegFileOrg::write_specialized(512),
        RegFileOrg::wsrs(512),
    ];
    assert_eq!(orgs.len(), run.config_names().len(), "one org per machine");
    let grid = &run.grid.reports;
    let geomean = |col: usize| {
        let log_sum: f64 = grid.iter().map(|row| row[col].ipc().ln()).sum();
        (log_sum / grid.len() as f64).exp()
    };

    println!(
        "{:<26}{:>10}{:>12}{:>12}{:>14}{:>14}",
        "machine", "gm IPC", "nJ/cycle", "rel. area", "IPC/nJ", "IPC/area"
    );
    let base_area = total_area_w2(&orgs[0], 64) as f64;
    for (col, (name, org)) in run.config_names().iter().zip(&orgs).enumerate() {
        let ipc = geomean(col);
        let energy = model.org_energy_nj(org);
        let area = total_area_w2(org, 64) as f64 / base_area;
        println!(
            "{name:<26}{ipc:>10.3}{energy:>12.2}{area:>12.3}{:>14.3}{:>14.3}",
            ipc / energy,
            ipc / area
        );
    }
    println!(
        "\n(gm IPC = geometric mean over the 12 kernels; area relative to the\n\
         conventional distributed file; energy/area from the Table 1 models)"
    );
}
