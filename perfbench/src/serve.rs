//! The `serve` workload: an in-process `wsrs-serve` with a fresh memo
//! store, driven by one closed-loop client through
//! `wsrs_bench::client`. Every distinct cell is submitted once as a fresh
//! one-cell job (simulate, then write the memo), interleaved with seeded
//! replays of finished cells (memo reads only). A warm pass then replays
//! every cell once more. This is the only workload that goes through the
//! HTTP, protocol and memo layers.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsrs_bench::{client, config_registry, RunParams};
use wsrs_serve::{stream_header, MemoKey, MemoStore, Server, ServerOptions};
use wsrs_telemetry::Json;
use wsrs_workloads::Workload;

use crate::checks::{check_stream, Check};
use crate::grid::{record_traces, setup, Recorded};
use crate::hermetic::TempDir;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{ms, probes, secs, EndToEnd, Opts, Outcome};

/// The cells the client submits: every kernel under each distinct
/// registry configuration (names bound to the same configuration content
/// are one cell: the server memoizes by content).
#[must_use]
pub fn cells(kernels: &[Workload]) -> Vec<(Workload, String)> {
    let mut seen = HashSet::new();
    let configs: Vec<String> = config_registry()
        .into_iter()
        .filter(|(_, c)| seen.insert(c.content_hash()))
        .map(|(n, _)| n)
        .collect();
    kernels
        .iter()
        .flat_map(|&w| configs.iter().map(move |c| (w, c.clone())))
        .collect()
}

/// A running in-process server over freshly recorded traces and an empty
/// memo store; stopped and joined on drop.
pub struct Running {
    pub addr: String,
    pub rec: Recorded,
    pub memo: TempDir,
    stop: Box<dyn Fn() + Send + Sync>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        (self.stop)();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Records the traces of `workloads` and starts a server over them.
///
/// # Errors
///
/// Fails when a trace cannot be recorded or the socket cannot be bound.
pub fn start(workloads: &[Workload], opts: &Opts) -> Result<Running, String> {
    let rec = record_traces(workloads, opts.window)?;
    let memo = TempDir::new("memo");
    let server_opts = ServerOptions {
        workers: opts.workers,
        paused: false,
        memo_dir: memo.path().to_path_buf(),
        trace_dir: rec.store.dir().to_path_buf(),
    };
    let server = Server::bind("127.0.0.1:0", &server_opts)
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    let addr = server.addr().to_string();
    let stop = Box::new(server.shutdown_handle());
    let workers = opts.workers;
    let handle = std::thread::spawn(move || server.run(workers));
    Ok(Running {
        addr,
        rec,
        memo,
        stop,
        handle: Some(handle),
    })
}

/// One job of the client's sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Job {
    /// The first submission of cell `i`: the server simulates it.
    Fresh(usize),
    /// A resubmission of finished cell `i`: the server replays its memo.
    Replay(usize),
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// The seeded closed-loop sequence: every cell once as a fresh job, in a
/// seeded order, with `replays` replays of already finished cells mixed
/// in at seeded positions.
#[must_use]
pub fn sequence(cells: usize, replays: usize, rng: &mut StdRng) -> Vec<Job> {
    let mut order: Vec<usize> = (0..cells).collect();
    shuffle(&mut order, rng);
    let (mut done, mut replays_left) = (0, replays);
    let mut out = Vec::with_capacity(cells + replays);
    while done < cells || (replays_left > 0 && done > 0) {
        let fresh_left = cells - done;
        if done == 0 || rng.random_range(0..fresh_left + replays_left) < fresh_left {
            out.push(Job::Fresh(order[done]));
            done += 1;
        } else {
            out.push(Job::Replay(order[rng.random_range(0..done)]));
            replays_left -= 1;
        }
    }
    out
}

/// Timings of one job.
struct Timed {
    total: Duration,
    post: Duration,
    stream: Duration,
}

/// Submits one one-cell job and reads its stream to the end.
fn submit(
    addr: &str,
    window: RunParams,
    cell: &(Workload, String),
    fresh_line: Option<&str>,
    tracer: &Tracer,
    parent: Option<u64>,
    owner: &dyn Fn() -> String,
) -> (Timed, Result<String, String>) {
    let body = format!(
        "{{\"warmup\":{},\"measure\":{},\"cells\":[{{\"workload\":\"{}\",\"config\":\"{}\"}}]}}",
        window.warmup,
        window.measure,
        cell.0.name(),
        cell.1
    );
    let t0 = Instant::now();
    let job = tracer.span("serve.post", parent, owner, |_| {
        let resp = client::post(addr, "/v1/jobs", &body).map_err(|e| format!("submit: {e}"))?;
        if resp.status != 200 {
            return Err(format!("submit: HTTP {}: {}", resp.status, resp.body_str()));
        }
        Json::parse(&resp.body_str())
            .ok()
            .and_then(|v| v.get("job").and_then(Json::as_u64))
            .ok_or_else(|| "submit: no job id".to_string())
    });
    let t1 = Instant::now();
    let result = job.and_then(|id| {
        tracer.span("serve.stream", parent, owner, |_| {
            let resp = client::get(addr, &format!("/v1/jobs/{id}/stream"))
                .map_err(|e| format!("stream: {e}"))?;
            if resp.status != 200 {
                return Err(format!("stream: HTTP {}", resp.status));
            }
            let header = stream_header(window, 1);
            check_stream(
                &resp.body_str(),
                &header,
                cell.0.name(),
                &cell.1,
                fresh_line,
            )
        })
    });
    let t2 = Instant::now();
    (
        Timed {
            total: t2 - t0,
            post: t1 - t0,
            stream: t2 - t1,
        },
        result,
    )
}

/// The `/v1/stats` counters the checks read.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounts {
    pub units_run: u64,
    pub memo_hits: u64,
    pub memo_writes: u64,
}

fn server_counts(addr: &str) -> Option<ServerCounts> {
    let v = Json::parse(&client::get(addr, "/v1/stats").ok()?.body_str()).ok()?;
    let memo = v.get("memo")?;
    Some(ServerCounts {
        units_run: v.get("units_run")?.as_u64()?,
        memo_hits: memo.get("hits")?.as_u64()?,
        memo_writes: memo.get("writes")?.as_u64()?,
    })
}

/// What one job sequence and its warm pass produced.
pub struct ServePass {
    /// The mixed sequence, submit of the first job to the last line of
    /// the last.
    pub wall: Duration,
    /// The warm pass: every cell replayed once more.
    pub warm: Duration,
    pub fresh_ms: Samples,
    pub replay_ms: Samples,
    pub post_ms: [Samples; 2],
    pub stream_ms: [Samples; 2],
    pub counts: ServerCounts,
    pub check: Check,
}

/// Runs the seeded job sequence and the warm pass against the server at
/// `addr`, then checks every stream and the server's counters.
pub fn serve_pass(
    addr: &str,
    cells: &[(Workload, String)],
    opts: &Opts,
    tracer: &Tracer,
    parent: Option<u64>,
) -> ServePass {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let jobs = sequence(cells.len(), opts.replays, &mut rng);
    let mut warm_order: Vec<usize> = (0..cells.len()).collect();
    shuffle(&mut warm_order, &mut rng);
    let mut fresh_lines: Vec<Option<String>> = vec![None; cells.len()];
    let mut p = ServePass {
        wall: Duration::ZERO,
        warm: Duration::ZERO,
        fresh_ms: Samples::default(),
        replay_ms: Samples::default(),
        post_ms: Default::default(),
        stream_ms: Default::default(),
        counts: ServerCounts::default(),
        check: Check::default(),
    };
    let mut run = |job: Job, p: &mut ServePass| {
        let (i, replay) = match job {
            Job::Fresh(i) => (i, false),
            Job::Replay(i) => (i, true),
        };
        let cell = &cells[i];
        let owner = || {
            let class = if replay { "replay" } else { "fresh" };
            format!("{class} {}/{}", cell.0.name(), cell.1)
        };
        let fresh = fresh_lines[i].clone();
        if replay && fresh.is_none() {
            // Its fresh job failed; there is nothing to replay against.
            p.check
                .fail(format!("{}: replay of a failed cell", owner()));
            return;
        }
        let (t, result) = tracer.span("serve.job", parent, &owner, |id| {
            submit(
                addr,
                opts.window,
                cell,
                fresh.as_deref(),
                tracer,
                id,
                &owner,
            )
        });
        let class = usize::from(replay);
        [&mut p.fresh_ms, &mut p.replay_ms][class].push(ms(t.total));
        p.post_ms[class].push(ms(t.post));
        p.stream_ms[class].push(ms(t.stream));
        match result {
            Ok(line) => {
                p.check.pass();
                if !replay {
                    fresh_lines[i] = Some(line);
                }
            }
            Err(why) => p.check.fail(format!("{}: {why}", owner())),
        }
    };
    let t0 = Instant::now();
    for &job in &jobs {
        run(job, &mut p);
    }
    p.wall = t0.elapsed();
    let t0 = Instant::now();
    for &i in &warm_order {
        run(Job::Replay(i), &mut p);
    }
    p.warm = t0.elapsed();

    let fresh = jobs.iter().filter(|j| matches!(j, Job::Fresh(_))).count() as u64;
    let replays = (jobs.len() + warm_order.len()) as u64 - fresh;
    let counts = server_counts(addr);
    p.counts = counts.unwrap_or_default();
    match counts {
        Some(c) if c.units_run == fresh && c.memo_hits == replays && c.memo_writes == fresh => {
            p.check.pass();
        }
        other => p.check.fail(format!(
            "/v1/stats shows {other:?}, expected {fresh} units run and memo writes, {replays} memo hits"
        )),
    }
    p
}

/// Per-layer metrics of a traced [`serve_pass`]: request and memo costs
/// measured apart from each other, and the server's own counters.
///
/// # Errors
///
/// Fails when the memo store cannot be read back.
pub fn serve_layers(out: &mut Outcome, server: &Running, pass: &ServePass) -> Result<(), String> {
    for (class, label) in [(0, "fresh"), (1, "replay")] {
        out.layer(
            &format!("serve.post_ms.{label}"),
            "ms",
            pass.post_ms[class].median(),
        );
        out.layer(
            &format!("serve.stream_ms.{label}"),
            "ms",
            pass.stream_ms[class].median(),
        );
    }
    out.layer("serve.units_run", "count", pass.counts.units_run as f64);
    out.layer("serve.memo_hits", "count", pass.counts.memo_hits as f64);
    out.layer("serve.memo_writes", "count", pass.counts.memo_writes as f64);

    // The per-request floor: round trips that do no work at all.
    let mut floor = Samples::default();
    for _ in 0..20 {
        let t = Instant::now();
        client::get(&server.addr, "/v1/stats").map_err(|e| format!("stats: {e}"))?;
        floor.push(ms(t.elapsed()));
    }
    out.layer("serve.request_floor_ms", "ms", floor.median());

    // Memo time on its own: read back every entry the pass wrote, then
    // write the same lines into a scratch store.
    let memo = MemoStore::at(server.memo.path());
    let scratch_dir = TempDir::new("memo-probe");
    let scratch = MemoStore::at(scratch_dir.path());
    let (mut load_us, mut store_us) = (Samples::default(), Samples::default());
    let entries = std::fs::read_dir(server.memo.path()).map_err(|e| format!("memo dir: {e}"))?;
    for entry in entries.flatten() {
        let Some(key) = entry
            .file_name()
            .to_str()
            .and_then(MemoKey::parse_file_name)
        else {
            continue;
        };
        let t = Instant::now();
        let line = memo.load(key).ok_or("memo entry vanished")?;
        load_us.push(secs(t.elapsed()) * 1e6);
        let t = Instant::now();
        scratch
            .store(key, &line)
            .map_err(|e| format!("memo store: {e}"))?;
        store_us.push(secs(t.elapsed()) * 1e6);
    }
    out.layer("serve.memo_load_us", "us", load_us.median());
    out.layer("serve.memo_store_us", "us", store_us.median());
    Ok(())
}

/// The workloads whose traces the server needs for `cells`.
fn workloads_of(cells: &[(Workload, String)]) -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    for (w, _) in cells {
        if !out.contains(w) {
            out.push(*w);
        }
    }
    out
}

/// A traced serve pass over `cells`, recording its per-layer metrics;
/// returns the pass's wall time.
///
/// # Errors
///
/// Fails when the server cannot be started or its memo read back.
pub fn traced(
    out: &mut Outcome,
    cells: &[(Workload, String)],
    opts: &Opts,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Duration, String> {
    let server = start(&workloads_of(cells), opts)?;
    let pass = serve_pass(&server.addr, cells, opts, tracer, parent);
    serve_layers(out, &server, &pass)?;
    out.absorb(pass.check);
    Ok(pass.wall)
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Fails when set-up cannot complete.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut cells = cells(&Workload::all());
    let half;
    let opts = if opts.traced {
        // The traced run makes two passes (tracer off, then on) besides
        // its probes; over every cell they would not end within the run's
        // time limit, so it takes every other cell (all 12 kernels still
        // appear) and half the replays.
        cells = cells.into_iter().step_by(2).collect();
        half = Opts {
            replays: opts.replays / 2,
            ..opts.clone()
        };
        &half
    } else {
        opts
    };
    let workloads = workloads_of(&cells);
    let mut out = Outcome::new("serve");
    let mut e2e = EndToEnd::default();
    let off = Tracer::new(false);
    let server = setup(opts.setups, &mut e2e, || start(&workloads, opts))?;
    let pass = serve_pass(&server.addr, &cells, opts, &off, None);
    out.iterations = 1;
    out.absorb(pass.check);

    if !opts.traced {
        e2e.wall_s.push(secs(pass.wall));
        e2e.warm_s.push(secs(pass.warm));
        e2e.fresh_ms = pass.fresh_ms;
        e2e.replay_ms = pass.replay_ms;
        out.end_to_end = e2e.metrics();
        return Ok(out);
    }

    let untraced_wall = pass.wall;
    probes::setup_layers(&mut out, &server.rec, &workloads, opts.window);
    drop(server);
    let tracer = Tracer::new(true);
    let wall = tracer.span("workload", None, &|| "serve".into(), |root| {
        traced(&mut out, &cells, opts, &tracer, root)
    })?;
    out.layer(
        "bench.trace_overhead_s",
        "s",
        secs(wall) - secs(untraced_wall),
    );
    probes::fill(&mut out, opts, &[], &tracer)?;
    probes::finish_trace(&mut out, &tracer, opts.seed);
    Ok(out)
}
