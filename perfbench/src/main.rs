//! `wsrs-perfbench`: runs one workload (or all of them) and prints every
//! metric by name with its unit and sample count, the run's provenance,
//! and, as the last line, one JSON object with the verified output counts
//! and the metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-int --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs untraced and reports the end-to-end metrics;
//! `--trace 1` runs traced and reports the per-layer metrics and the
//! tracing overhead. `--workload all` runs every workload in turn.

use std::fmt::Write as _;

use wsrs_perfbench::hermetic::{provenance, remove_scratch_root, reset_peak_rss, scrub_env};
use wsrs_perfbench::{run_workload, Metric, Opts, Outcome, WORKLOADS};

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`, the
/// length every bound there was measured at.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (have: {}, all)",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A metric value for the JSON line; non-finite values (which no correct
/// run produces) print as 0 and make the run incorrect.
fn number(v: f64, ok: &mut bool) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        *ok = false;
        "0".into()
    }
}

fn metrics_of(o: &Outcome, traced: bool) -> Vec<Metric> {
    if traced {
        o.per_layer.values().cloned().collect()
    } else {
        o.end_to_end.clone()
    }
}

fn print_table(o: &Outcome, seed: u64, traced: bool) {
    let kind = if traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "== {} — {kind}, seed {seed}, {} timed iteration(s) ==",
        o.workload, o.iterations
    );
    for m in metrics_of(o, traced) {
        println!(
            "  {:<34} {:>14.4} {:<9} n={:<4} q1={:.4} q3={:.4}",
            m.name, m.value, m.unit, m.n, m.q1, m.q3
        );
    }
    if !o.self_ms.is_empty() {
        println!("  self time by span (ms, children excluded):");
        for (name, ms) in &o.self_ms {
            println!("    {name:<32} {ms:>14.3}");
        }
    }
    println!(
        "  {:<34} {:>14.4} {:<9} ({} of {} outputs wrong)",
        "failed_frac",
        o.failed_frac(),
        "fraction",
        o.failed,
        o.attempted
    );
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

fn main() {
    // Before anything reads the environment: the program sees only what
    // the benchmark passes it.
    scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let opts = Opts::standard(args.seed, args.seconds, args.trace);
    let mut outcomes = Vec::new();
    for name in &names {
        if names.len() > 1 {
            reset_peak_rss();
        }
        match run_workload(name, &opts) {
            Ok(o) => {
                print_table(&o, args.seed, args.trace);
                outcomes.push(o);
            }
            Err(e) => {
                remove_scratch_root();
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    remove_scratch_root();

    let mut ok = outcomes.iter().all(|o| o.failed == 0 && o.attempted > 0);
    let mut prov = String::new();
    for (k, v) in provenance() {
        let _ = write!(prov, "{}:{},", json_str(k), json_str(&v));
    }
    let _ = write!(
        prov,
        "\"seed\":{},\"seconds\":{},\"trace\":{}",
        args.seed, args.seconds, args.trace
    );
    let mut metrics = Vec::new();
    let mut runs = Vec::new();
    for o in &outcomes {
        let prefix = if outcomes.len() > 1 {
            format!("{}/", o.workload)
        } else {
            String::new()
        };
        let mut stats = Vec::new();
        for m in metrics_of(o, args.trace) {
            let name = json_str(&format!("{prefix}{}", m.name));
            metrics.push(format!(
                "{name}:{{\"value\":{},\"unit\":{}}}",
                number(m.value, &mut ok),
                json_str(m.unit)
            ));
            stats.push(format!(
                "{name}:{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                number(m.value, &mut ok),
                number(m.q1, &mut ok),
                number(m.q3, &mut ok),
                m.n
            ));
        }
        runs.push(format!(
            "{}:{{\"iterations\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            json_str(o.workload),
            o.iterations,
            o.attempted,
            o.failed,
            stats.join(",")
        ));
    }
    println!(
        "{{\"provenance\":{{{prov},\"runs\":{{{}}}}}}}",
        runs.join(",")
    );
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(",")
    );
}
