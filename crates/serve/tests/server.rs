//! End-to-end test of the job service on a live ephemeral-port server:
//! concurrent identical submissions dedupe onto one simulation per
//! distinct cell, every client streams byte-identical manifests,
//! resubmission is pure memo replay, and graceful shutdown leaves no
//! partial memo entries behind. Requests and memo replays answer at
//! once, and shutdown is prompt even with an idle client connected.

use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wsrs_bench::client;
use wsrs_serve::{MemoKey, Server, ServerOptions, READ_TIMEOUT};
use wsrs_telemetry::Json;

/// A tiny two-cell grid (distinct workloads, so two scalar units).
const GRID: &str = "{\"warmup\": 2000, \"measure\": 4000, \"cells\": [\
    {\"workload\": \"gzip\", \"config\": \"RR 256\"},\
    {\"workload\": \"mcf\", \"config\": \"WSRS RC S 512\"}]}";

/// A one-cell grid: one POST and one stream per job.
const ONE_CELL: &str = "{\"warmup\": 2000, \"measure\": 4000, \"cells\": [\
    {\"workload\": \"gzip\", \"config\": \"RR 256\"}]}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsrs-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(addr: &str, body: &str) -> u64 {
    let resp = client::post(addr, "/v1/jobs", body).expect("submit");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    Json::parse(&resp.body_str())
        .unwrap()
        .get("job")
        .and_then(Json::as_u64)
        .expect("job id")
}

fn status(addr: &str, job: u64) -> Json {
    let resp = client::get(addr, &format!("/v1/jobs/{job}")).expect("status");
    assert_eq!(resp.status, 200);
    Json::parse(&resp.body_str()).unwrap()
}

fn status_field(addr: &str, job: u64, field: &str) -> u64 {
    status(addr, job).get(field).and_then(Json::as_u64).unwrap()
}

fn stream(addr: &str, job: u64) -> String {
    let resp = client::get(addr, &format!("/v1/jobs/{job}/stream")).expect("stream");
    assert_eq!(resp.status, 200);
    resp.body_str()
}

fn wait_done(addr: &str, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = status(addr, job);
        if s.get("done").and_then(Json::as_bool) == Some(true) {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} never finished: {s:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn concurrent_clients_dedup_memoize_and_shut_down_cleanly() {
    let memo_dir = temp_dir("memo");
    let trace_dir = temp_dir("traces");
    let opts = ServerOptions {
        workers: 2,
        paused: true, // hold the pool so all four jobs land before any cell runs
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run(2));

    // Four identical grids while the workers are paused: the first
    // submission owns both cells, the other three attach to its
    // in-flight simulations.
    let jobs: Vec<u64> = (0..4).map(|_| submit(&addr, GRID)).collect();
    assert_eq!(status_field(&addr, jobs[0], "simulated"), 2);
    assert_eq!(status_field(&addr, jobs[0], "attached"), 0);
    for &job in &jobs[1..] {
        assert_eq!(status_field(&addr, job, "simulated"), 0);
        assert_eq!(status_field(&addr, job, "attached"), 2);
        assert_eq!(status_field(&addr, job, "memoized"), 0);
    }

    let resume = client::post(&addr, "/v1/control/resume", "").unwrap();
    assert_eq!(resume.status, 200);

    // All four clients stream concurrently; every manifest must be
    // byte-identical regardless of which job owned the simulations.
    let manifests: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&job| {
                let addr = addr.clone();
                s.spawn(move || stream(&addr, job))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for m in &manifests[1..] {
        assert_eq!(m, &manifests[0], "streams diverged between clients");
    }
    // Header + one line per cell, all complete JSON.
    let lines: Vec<&str> = manifests[0].lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(
        Json::parse(lines[0])
            .unwrap()
            .get("cells")
            .and_then(Json::as_u64),
        Some(2)
    );
    for line in &lines[1..] {
        let v = Json::parse(line).expect("complete JSON line");
        assert!(v.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            v.get("sim_rev").and_then(Json::as_str).unwrap(),
            format!("{:016x}", wsrs_core::sim_revision())
        );
        assert_eq!(
            v.get("config_content_hash")
                .and_then(Json::as_str)
                .unwrap()
                .len(),
            16
        );
        assert_eq!(
            v.get("trace_checksum")
                .and_then(Json::as_str)
                .unwrap()
                .len(),
            16,
            "cells must carry their memo-key trace checksum"
        );
    }

    // Exactly two simulations ran across all four jobs (one unit per
    // distinct cell), and both results were flushed to the memo store.
    let stats = Json::parse(&client::get(&addr, "/v1/stats").unwrap().body_str()).unwrap();
    assert_eq!(stats.get("units_run").and_then(Json::as_u64), Some(2));
    assert_eq!(
        stats
            .get("memo")
            .unwrap()
            .get("writes")
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(stats.get("inflight").and_then(Json::as_u64), Some(0));

    // Resubmission replays purely from the memo store — no new
    // simulation, byte-identical stream.
    let rerun = submit(&addr, GRID);
    assert_eq!(status_field(&addr, rerun, "memoized"), 2);
    assert_eq!(status_field(&addr, rerun, "simulated"), 0);
    wait_done(&addr, rerun);
    assert_eq!(stream(&addr, rerun), manifests[0]);
    let stats = Json::parse(&client::get(&addr, "/v1/stats").unwrap().body_str()).unwrap();
    assert_eq!(stats.get("units_run").and_then(Json::as_u64), Some(2));

    // Graceful shutdown: the run loop exits and the memo directory holds
    // exactly the two complete entries — no temp files, no partials.
    shutdown();
    server_thread.join().expect("server thread");
    let entries: Vec<String> = std::fs::read_dir(&memo_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries.len(), 2, "{entries:?}");
    for name in &entries {
        assert!(
            MemoKey::parse_file_name(name).is_some(),
            "stray file in memo dir: {name}"
        );
    }

    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn bad_submissions_and_unknown_jobs_are_rejected() {
    let memo_dir = temp_dir("memo-errs");
    let trace_dir = temp_dir("traces-errs");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run(1));

    for bad in [
        "{}",
        "{\"experiment\": \"nonesuch\"}",
        "{\"cells\": []}",
        "{\"cells\": [{\"workload\": \"gzip\", \"config\": \"nonesuch\"}]}",
    ] {
        let resp = client::post(&addr, "/v1/jobs", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}");
    }
    assert_eq!(client::get(&addr, "/v1/jobs/999").unwrap().status, 404);
    assert_eq!(
        client::get(&addr, "/v1/jobs/999/stream").unwrap().status,
        404
    );
    assert_eq!(client::get(&addr, "/v1/nonesuch").unwrap().status, 404);

    shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn requests_and_memo_replays_answer_without_polling_delay() {
    let memo_dir = temp_dir("memo-floor");
    let trace_dir = temp_dir("traces-floor");
    let opts = ServerOptions {
        workers: 1,
        paused: false,
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run(1));

    // The request floor of an idle server: each connection is accepted
    // the moment it arrives, not on the next tick of a polling loop.
    let floor = median(
        (0..21)
            .map(|_| {
                let t = Instant::now();
                assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);
                t.elapsed()
            })
            .collect(),
    );
    assert!(
        floor < Duration::from_millis(5),
        "stats round trip {floor:?}"
    );

    // Simulate the cell once, then time memo replays end to end: POST,
    // then the stream to its last line.
    let fresh = submit(&addr, ONE_CELL);
    let expected = stream(&addr, fresh);
    assert_eq!(expected.lines().count(), 2, "{expected}");
    let mut last = fresh;
    let replay = median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                last = submit(&addr, ONE_CELL);
                assert_eq!(stream(&addr, last), expected);
                t.elapsed()
            })
            .collect(),
    );
    assert_eq!(status_field(&addr, last, "memoized"), 1);
    assert!(
        replay < Duration::from_millis(5),
        "memo replay job {replay:?}"
    );

    shutdown();
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn shutdown_is_prompt_with_a_waiting_stream_and_an_idle_client() {
    let memo_dir = temp_dir("memo-stop");
    let trace_dir = temp_dir("traces-stop");
    let opts = ServerOptions {
        workers: 1,
        paused: true, // the job's cell is never claimed
        memo_dir: memo_dir.clone(),
        trace_dir: trace_dir.clone(),
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr().to_string();
    let shutdown = server.shutdown_handle();
    let (returned_tx, returned_rx) = mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        server.run(1);
        let _ = returned_tx.send(());
    });

    // A stream that has sent its header and now waits on the unclaimed
    // cell.
    let job = submit(&addr, ONE_CELL);
    let (header_tx, header_rx) = mpsc::channel();
    let streamer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::get_streaming(&addr, &format!("/v1/jobs/{job}/stream"), &mut |_| {
                let _ = header_tx.send(());
            })
        })
    };
    header_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stream header");

    // A client that connects and never sends. Accepts are sequential, so
    // once the next request is answered the idle one has a handler.
    let mut idle = TcpStream::connect(&addr).expect("idle connect");
    assert_eq!(client::get(&addr, "/v1/stats").unwrap().status, 200);

    shutdown();
    returned_rx
        .recv_timeout(READ_TIMEOUT + Duration::from_secs(2))
        .expect("run did not return within the read timeout plus 2 s");
    server_thread.join().expect("server thread");

    // The waiting stream ended early with complete lines only: the
    // header, and no line for the cell that never ran.
    let resp = streamer.join().unwrap().expect("stream ends cleanly");
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(body.ends_with('\n'), "partial line: {body:?}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 1, "{body}");
    assert!(Json::parse(lines[0]).is_ok(), "{body}");

    // The idle client was closed, not left hanging.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(idle.read(&mut buf).expect("closed, not timed out"), 0);

    // Nothing ran, so nothing may have been written, partial or not.
    let memo_files = std::fs::read_dir(&memo_dir).map_or(0, Iterator::count);
    assert_eq!(memo_files, 0);
    let _ = std::fs::remove_dir_all(&memo_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}
