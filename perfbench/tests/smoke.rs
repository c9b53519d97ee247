//! Tiny-window smoke runs of every workload, the negative tests of the
//! output checks, and the agreement of the printed metrics with
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsrs_bench::manifest::grid_manifest;
use wsrs_bench::{run_grid_with_threads, RunParams};
use wsrs_perfbench::serve::{sequence, serve_pass, Job};
use wsrs_perfbench::spans::Tracer;
use wsrs_perfbench::{figure4_gate_configs, run_workload, Opts, WORKLOADS};
use wsrs_serve::stream_header;
use wsrs_telemetry::{Json, RunManifest};
use wsrs_workloads::Workload;

const TINY: RunParams = RunParams {
    warmup: 8_000,
    measure: 16_000,
};

/// The exact figure4 manifest at the tiny window, from a serial run of
/// the program's own grid harness: what the workloads must reproduce.
fn expected() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let kernels = Workload::all();
        let configs = figure4_gate_configs();
        let run = run_grid_with_threads(&kernels, &configs, TINY, 1, &|_, _, _, _| {});
        grid_manifest(
            "figure4",
            &kernels,
            &configs,
            TINY,
            1,
            0.0,
            &run.reports,
            &run.batched,
            &[],
            None,
        )
        .to_json_string()
    })
}

fn tiny_opts(traced: bool) -> Opts {
    Opts {
        window: TINY,
        setups: 2,
        replays: 6,
        expected: Some(expected().to_string()),
        ..Opts::standard(7, 0.0, traced)
    }
}

fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    Json::parse(&text)
        .expect("BENCHMARK.json parses")
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// The standard windows against the committed baseline, with short set-up
/// — for the traced run, whose sampled probe has an accuracy budget that
/// holds at the gate window only (at a tiny window most kernels are still
/// initializing).
fn gate_opts(traced: bool) -> Opts {
    Opts {
        setups: 1,
        ..Opts::standard(7, 0.0, traced)
    }
}

#[test]
fn every_workload_runs_clean_at_a_tiny_window() {
    let want = benchmark_names("end_to_end");
    for name in WORKLOADS {
        let opts = tiny_opts(false);
        let o = run_workload(name, &opts).expect(name);
        assert!(o.attempted > 0, "{name}: nothing verified");
        assert_eq!(o.failed, 0, "{name}: {:?}", o.failures);
        let got: Vec<String> = o.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            got, want,
            "{name}: end-to-end metrics differ from BENCHMARK.json"
        );
        for m in &o.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let want: BTreeSet<String> = benchmark_names("per_layer").into_iter().collect();
    let o = run_workload("grid-int", &gate_opts(true)).expect("traced grid-int");
    assert_eq!(o.failed, 0, "{:?}", o.failures);
    let got: BTreeSet<String> = o.per_layer.keys().cloned().collect();
    assert_eq!(got, want, "per-layer metrics differ from BENCHMARK.json");
    for m in o.per_layer.values() {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert!(
        o.per_layer["serve.request_floor_ms"].value > 0.0,
        "the request floor is measured apart from memo time"
    );
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json");
    let map = Json::parse(&std::fs::read_to_string(path).expect("metrics.json")).expect("parses");
    let moves = map.get("per_layer").expect("per_layer map");
    for name in benchmark_names("per_layer") {
        let entry = moves
            .get(&name)
            .unwrap_or_else(|| panic!("{name} has no entry"));
        assert!(
            entry.get("moves").and_then(Json::as_str).is_some(),
            "{name}"
        );
    }
}

#[test]
fn a_perturbed_expected_ipc_counts_as_a_failed_cell() {
    let mut m = RunManifest::parse(expected()).unwrap();
    let cell = m.cells.iter_mut().find(|c| c.workload == "gzip").unwrap();
    cell.ipc *= 1.05;
    let opts = Opts {
        expected: Some(m.to_json_string()),
        ..tiny_opts(false)
    };
    let o = run_workload("grid-int", &opts).expect("runs to the end");
    assert!(o.failed >= 1, "the perturbed cell must fail");
    assert!(o.failed < o.attempted, "only the perturbed cell fails");
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Every result stream stops before its cell line ends.
    Truncate,
    /// The first stream is right; every later one carries other bytes.
    Mismatch,
}

/// A stand-in service answering the job API with the given fault; serves
/// until the `/v1/stats` request that ends a pass.
fn fake_server(fault: Fault, window: RunParams) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut streams = 0;
        for conn in listener.incoming() {
            let mut conn = conn.unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let (mut request_line, mut len) = (String::new(), 0usize);
            reader.read_line(&mut request_line).unwrap();
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0; len];
            reader.read_exact(&mut body).unwrap();
            let fixed = |s: &str| {
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{s}",
                    s.len()
                )
            };
            if request_line.starts_with("POST /v1/jobs") {
                conn.write_all(fixed("{\"job\":1,\"cells\":1}").as_bytes())
                    .unwrap();
            } else if request_line.starts_with("GET /v1/stats") {
                conn.write_all(fixed("{}").as_bytes()).unwrap();
                return;
            } else {
                streams += 1;
                let ipc = if fault == Fault::Mismatch && streams > 1 {
                    2
                } else {
                    1
                };
                let payload = format!(
                    "{}\n{{\"workload\":\"gzip\",\"config\":\"RR 256\",\"ipc\":{ipc}}}\n",
                    stream_header(window, 1)
                );
                let mut out = format!(
                    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n{:x}\r\n",
                    payload.len()
                );
                if fault == Fault::Truncate {
                    // Close mid-chunk: the stream never completes.
                    out.push_str(&payload[..payload.len() / 2]);
                } else {
                    out.push_str(&format!("{payload}\r\n0\r\n\r\n"));
                }
                conn.write_all(out.as_bytes()).unwrap();
            }
        }
    });
    (addr, handle)
}

#[test]
fn truncated_streams_and_mismatched_replays_count_as_failed_jobs() {
    let cells = [(Workload::Gzip, "RR 256".to_string())];
    let opts = Opts {
        replays: 3,
        ..tiny_opts(false)
    };
    let off = Tracer::new(false);

    let (addr, server) = fake_server(Fault::Truncate, opts.window);
    let pass = serve_pass(&addr, &cells, &opts, &off, None);
    server.join().unwrap();
    assert!(pass.check.attempted > 1);
    assert_eq!(
        pass.check.failed, pass.check.attempted,
        "{:?}",
        pass.check.reasons
    );

    let (addr, server) = fake_server(Fault::Mismatch, opts.window);
    let pass = serve_pass(&addr, &cells, &opts, &off, None);
    server.join().unwrap();
    // The fresh job passes; every replay (3 mixed in, 1 in the warm pass)
    // and the counter check fail.
    assert_eq!(pass.check.attempted, 6, "{:?}", pass.check.reasons);
    assert_eq!(pass.check.failed, 5, "{:?}", pass.check.reasons);
}

#[test]
fn job_sequences_are_seeded_and_replay_only_finished_cells() {
    let draw = |seed| sequence(20, 30, &mut StdRng::seed_from_u64(seed));
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
    let seq = draw(3);
    assert_eq!(
        seq.iter().filter(|j| matches!(j, Job::Fresh(_))).count(),
        20
    );
    assert_eq!(seq.len(), 50);
    let mut done = BTreeSet::new();
    for j in seq {
        match j {
            Job::Fresh(i) => assert!(done.insert(i), "cell {i} submitted fresh twice"),
            Job::Replay(i) => assert!(done.contains(&i), "replay of unfinished cell {i}"),
        }
    }
}
