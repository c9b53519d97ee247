//! `workgen` — the statistical-workload CLI and grid experiment.
//!
//! Turns the 12-kernel menu into a sweepable workload space (see
//! `wsrs-workgen`): profiles are extracted from kernel traces, synthesized
//! back into runnable programs as `gen:<profile-hash>:<seed>` workloads,
//! and swept through the same grid harness as the paper figures.
//!
//! ```text
//! workgen extract <kernel>                 print the kernel's canonical JSON profile
//! workgen synth <profile> --seed N         materialize a generated workload and
//!                                          record its trace into the trace store
//! workgen check <profile> --seed N         re-measure a generated trace against its
//!                                          source profile; exit 1 on tolerance breach
//! workgen grid                             sweep the standard scenario family plus
//!                                          the 12 kernels over RR/WSRS configurations
//! ```
//!
//! `<profile>` is a kernel name (committed anchor), `adv_readspec` /
//! `adv_writespec` (the adversarial presets), or a path to a profile JSON
//! file (e.g. the output of `extract`).

use std::process::ExitCode;
use wsrs_bench::{default_trace_store, render_grid, run_experiment, RunParams, TraceCache};
use wsrs_workgen::presets::{adversarial_readspec, adversarial_writespec, anchor, standard_family};
use wsrs_workgen::{gen_name, register, remeasure, Tolerances, WorkloadProfile};
use wsrs_workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: workgen <command>\n\
         \n\
         commands:\n\
         \x20 extract <kernel>           print the kernel's canonical JSON profile\n\
         \x20 synth <profile> --seed N   register gen:<hash>:<seed> and record its trace\n\
         \x20 check <profile> --seed N   re-measure a generated trace against its target\n\
         \x20 grid                       sweep the standard family + kernels (manifest:\n\
         \x20                            workgen)\n\
         \n\
         <profile> = kernel name | adv_readspec | adv_writespec | path to profile JSON"
    );
    ExitCode::from(2)
}

fn kernel_by_name(name: &str) -> Option<Workload> {
    Workload::all().into_iter().find(|w| w.name() == name)
}

/// Resolves a `<profile>` argument: kernel anchor, adversarial preset, or
/// profile-JSON file path.
fn resolve_profile(arg: &str) -> Option<WorkloadProfile> {
    if let Some(w) = kernel_by_name(arg) {
        return Some(anchor(w));
    }
    match arg {
        "adv_readspec" => Some(adversarial_readspec()),
        "adv_writespec" => Some(adversarial_writespec()),
        path => WorkloadProfile::parse(&std::fs::read_to_string(path).ok()?),
    }
}

/// Parses `--seed N` (default 1) from the tail of the argument list.
fn parse_seed(args: &[String]) -> Option<u64> {
    match args {
        [] => Some(1),
        [flag, n] if flag == "--seed" => n.parse().ok(),
        _ => None,
    }
}

fn extract(kernel: &str) -> ExitCode {
    let Some(w) = kernel_by_name(kernel) else {
        eprintln!("extract: unknown kernel '{kernel}' (want one of the 12 named kernels)");
        return ExitCode::from(2);
    };
    println!("{}", WorkloadProfile::extract_kernel(w).to_json_string());
    ExitCode::SUCCESS
}

fn synth(profile: &WorkloadProfile, seed: u64) -> ExitCode {
    let w = register(profile, seed);
    let params = RunParams::from_env();
    // Checking the workload out of a store-backed cache records its trace
    // (or verifies the existing recording replays).
    let cache = TraceCache::evicting_per_workload(params, [(w, 1)].into())
        .with_store(default_trace_store());
    let trace = cache.checkout(w);
    let uops = trace.len();
    drop(trace);
    cache.release(w);
    let p = cache.provenance();
    let origin = p.sources.iter().find(|s| s.workload == w).map(|s| s.origin);
    println!(
        "{}  fingerprint {:016x}  {} µops  origin {:?}",
        w.name(),
        w.trace_fingerprint(),
        uops,
        origin
    );
    if cache.disk_store().is_none() {
        eprintln!("note: trace store disabled (WSRS_TRACE_STORE=0) — nothing recorded");
    }
    ExitCode::SUCCESS
}

fn check(profile: &WorkloadProfile, seed: u64) -> ExitCode {
    let measured = remeasure(profile, seed);
    let out = profile.check(&measured, &Tolerances::default());
    if out.passed() {
        println!("{}: within tolerance", gen_name(profile, seed));
        return ExitCode::SUCCESS;
    }
    eprintln!("{}: tolerance breach", gen_name(profile, seed));
    for f in &out.failures {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}

/// The WSRS IPC delta of one row: how much IPC the worse WSRS column
/// gives up against the conventional baseline, in percent.
fn wsrs_delta_pct(row: &[wsrs_core::Report]) -> f64 {
    let base = row[0].ipc();
    let worst = row[1..]
        .iter()
        .map(wsrs_core::Report::ipc)
        .fold(f64::MAX, f64::min);
    100.0 * (base - worst) / base
}

/// `workgen grid`: the `workgen` experiment (the 12 kernels, then the
/// standard scenario family) with a WSRS IPC-delta column, rows labelled
/// by scenario.
fn grid() -> ExitCode {
    let run = run_experiment("workgen");
    let labels: Vec<String> = Workload::all()
        .iter()
        .map(|w| w.name().to_string())
        .chain(standard_family().into_iter().map(|s| s.label))
        .collect();
    let reports = &run.grid.reports;

    let mut rows = Vec::new();
    for (label, row) in labels.iter().zip(reports) {
        let mut vals: Vec<f64> = row.iter().map(wsrs_core::Report::ipc).collect();
        vals.push(wsrs_delta_pct(row));
        rows.push((label.clone(), vals));
    }
    let mut col_names = run.config_names();
    col_names.push("Δwsrs%");
    println!(
        "{}",
        render_grid(
            "workgen grid — IPC over kernels + generated scenarios",
            &col_names,
            &rows,
            3
        )
    );

    // Acceptance: the adversarial corners should cost WSRS more IPC than
    // any SPEC-derived kernel does.
    let kernel_max = reports[..12]
        .iter()
        .map(|r| wsrs_delta_pct(r))
        .fold(f64::MIN, f64::max);
    println!("max WSRS IPC delta over the 12 kernels: {kernel_max:.2}%");
    let mut adversarial_exceeds = true;
    for (label, row) in labels.iter().zip(reports).skip(12) {
        if label.starts_with("adv_") {
            let d = wsrs_delta_pct(row);
            let verdict = if d > kernel_max { "exceeds" } else { "BELOW" };
            println!("  {label:<14} {d:.2}%  ({verdict} every kernel)");
            adversarial_exceeds &= d > kernel_max;
        }
    }

    if adversarial_exceeds {
        ExitCode::SUCCESS
    } else {
        eprintln!("warning: an adversarial preset did not exceed the kernel WSRS delta");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(c, rest)| (c.as_str(), rest)) {
        Some(("extract", [kernel])) => extract(kernel),
        Some(("synth" | "check", rest @ [profile, ..])) => {
            let Some(p) = resolve_profile(profile) else {
                eprintln!("cannot resolve profile '{profile}'");
                return ExitCode::from(2);
            };
            let Some(seed) = parse_seed(&rest[1..]) else {
                return usage();
            };
            if args[0] == "synth" {
                synth(&p, seed)
            } else {
                check(&p, seed)
            }
        }
        Some(("grid", [])) => grid(),
        _ => usage(),
    }
}
