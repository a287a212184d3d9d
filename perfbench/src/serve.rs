//! `serve-closed-loop`: the check service end to end.
//!
//! An in-process `CheckServer` (2 workers, checkpoint cadence 16, one
//! kernel thread per request) listens on a unix socket in the run's work
//! directory. Two client connections run a closed loop, as callers of
//! `slx_client` do: each waits for its verdict before submitting the
//! next request. Requests are a seeded shuffle of a fixed mix of
//! `of-consensus-safety` at depths 14, 22 and 30 and `grid` at a small
//! bound, so the seed changes the order but never the composition.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use slx_core::engine::{Checker, CheckpointStore, ExploreStats, SpillCodec, Stopwatch};
use slx_server::wire::write_frame;
use slx_server::{
    connect, CheckRequest, CheckServer, Connection, Frame, ProgressFrame, ScenarioRegistry,
    ServerConfig, ServerHandle, ServiceOutcome, VerdictFrame,
};

use crate::explore::stray_checkpoint_files;
use crate::report::{peak_rss_mb, Outcome, StealMark};
use crate::stats::{median, min_samples_for, percentile, SplitMix64};
use crate::trace::Tracer;

/// Server worker threads (and client connections).
pub const WORKERS: usize = 2;
/// Server checkpoint cadence, BFS levels. Each request of depth 16 or
/// more commits one image (an fdatasync) on its blocking path. The
/// server's default of 2 makes every other level an fdatasync, and raw
/// fdatasync latency on a shared VM drifts by ±15% between 5-second
/// windows; at cadence 2 that drift set the run-to-run spread (0.14 on
/// the request p50, 0.23 on requests/s), at 16 it is a minor term.
pub const CKPT_EVERY: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// `peak_rss_mb` is read when this many requests have been answered:
/// the server's footprint grows with the requests a connection has
/// carried, so a fixed count keeps throughput out of the figure.
const RSS_AT_REQUESTS: usize = 1000;

/// One request shape: scenario and depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Registered scenario name.
    pub scenario: &'static str,
    /// Depth bound (grid bound for `grid`).
    pub depth: u64,
}

/// The mix, one block: a small grid, then 1 shallow, 2 medium and 1 deep
/// consensus check. The two short shapes fill the lowest 40% of the
/// latencies, so the weights put the median inside the depth-22 mode and
/// the 95th percentile inside the depth-30 mode; neither sits on the
/// edge between two modes, where it would jump from run to run.
pub const BLOCK: [Shape; 5] = [
    Shape {
        scenario: "grid",
        depth: 10,
    },
    Shape {
        scenario: "of-consensus-safety",
        depth: 14,
    },
    Shape {
        scenario: "of-consensus-safety",
        depth: 22,
    },
    Shape {
        scenario: "of-consensus-safety",
        depth: 22,
    },
    Shape {
        scenario: "of-consensus-safety",
        depth: 30,
    },
];

/// The shape whose counters stand for the engine layer in the trace.
const REFERENCE: Shape = BLOCK[4];

/// The size of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Client connections, one closed loop each.
    pub clients: usize,
    /// Requests that must complete before the run may stop.
    pub min_requests: usize,
    /// The mix.
    pub block: Vec<Shape>,
}

impl Params {
    /// The full-size run: enough requests that the 95th percentile has
    /// at least ten samples beyond it.
    #[must_use]
    pub fn full(clients: usize) -> Self {
        Params {
            clients,
            min_requests: min_samples_for(95.0),
            block: BLOCK.to_vec(),
        }
    }
}

/// The seeded request order of one client: an endless sequence of
/// shuffled blocks.
struct Mix {
    rng: SplitMix64,
    block: Vec<Shape>,
    pending: Vec<Shape>,
}

impl Mix {
    fn new(p: &Params, seed: u64, client: usize) -> Self {
        Mix {
            rng: SplitMix64::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            block: p.block.clone(),
            pending: Vec::new(),
        }
    }
}

impl Iterator for Mix {
    type Item = Shape;

    fn next(&mut self) -> Option<Shape> {
        if self.pending.is_empty() {
            self.pending.clone_from(&self.block);
            self.rng.shuffle(&mut self.pending);
        }
        self.pending.pop()
    }
}

fn request(shape: Shape, id: String) -> CheckRequest {
    CheckRequest {
        request_id: id,
        scenario: shape.scenario.to_string(),
        depth: shape.depth,
        config_budget: None,
        mem_budget: None,
        progress_every: 1,
    }
}

/// The verdict counters the service must reproduce, as the server's
/// workers pin them (one kernel thread, 8 shards, symmetry off, delta
/// codec, no memory budget), run directly in process without the
/// service or its checkpoints.
fn direct_verdict(shape: Shape) -> VerdictFrame {
    let req = request(shape, "direct".to_string());
    let checker = Checker::parallel_bfs(1)
        .with_shards(8)
        .with_symmetry(false)
        .with_spill_codec(SpillCodec::Delta)
        .with_mem_budget(0);
    let scenario = ScenarioRegistry::builtin()
        .get(shape.scenario)
        .expect("built-in scenario");
    let run = scenario.run(&req, checker, &mut |_: usize, _: &ExploreStats| true);
    VerdictFrame {
        request_id: req.request_id,
        holds: run.holds,
        findings: run.findings as u64,
        configs: run.stats.configs as u64,
        transitions: run.stats.transitions as u64,
        dedup_hits: run.stats.dedup_hits as u64,
        peak_frontier: run.stats.peak_frontier as u64,
        truncated: run.stats.truncated,
        elapsed_micros: 0,
        resumed_from_depth: None,
    }
}

/// Compares a verdict with the direct run's; wall-clock and id excluded.
#[must_use]
pub fn check_verdict(got: &VerdictFrame, want: &VerdictFrame) -> Vec<String> {
    let key = |v: &VerdictFrame| {
        (
            v.holds,
            v.findings,
            v.configs,
            v.transitions,
            v.dedup_hits,
            v.peak_frontier,
            v.truncated,
            v.resumed_from_depth,
        )
    };
    if key(got) == key(want) {
        Vec::new()
    } else {
        vec![format!(
            "verdict {} differs from the direct run: got {:?}, expected {:?}",
            got.request_id,
            key(got),
            key(want)
        )]
    }
}

/// A started server with its clients.
struct Running {
    server: ServerHandle,
    clients: Vec<Connection>,
    connect_ms: Vec<f64>,
}

fn start(work: &Path, rep: usize, clients: usize) -> std::io::Result<Running> {
    let mut config = ServerConfig::new(work.join("checkpoints"));
    config.workers = WORKERS;
    config.checkpoint_every = CKPT_EVERY;
    config.threads = 1;
    config.stall_after = None;
    config.fault_plan = None;
    let addr = format!("unix:{}", work.join(format!("s{rep}.sock")).display());
    let server = CheckServer::start(&addr, config, ScenarioRegistry::builtin())?;
    let mut connect_ms = Vec::new();
    let mut conns = Vec::new();
    for _ in 0..clients {
        let clock = Stopwatch::start();
        conns.push(connect(server.local_addr()).map_err(std::io::Error::other)?);
        connect_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Running {
        server,
        clients: conns,
        connect_ms,
    })
}

/// One answered (or refused) request. Untraced requests keep no more
/// than this, so the client's own memory stays out of `peak_rss_mb`.
#[derive(Debug, Clone)]
struct Answer {
    shape: Shape,
    latency_ms: f64,
    error: bool,
    traced: Option<TracedAnswer>,
}

/// What a traced request measured besides its latency.
#[derive(Debug, Clone)]
struct TracedAnswer {
    /// Server-side run time from the verdict frame.
    run_ms: f64,
    progress_frames: usize,
    /// Wire bytes of every frame the request received.
    frame_bytes: usize,
    /// Server-side BFS level times, each flagged when a checkpoint was
    /// committed in it, from consecutive progress frames.
    levels: Vec<(f64, bool)>,
    /// Checkpoint images the run committed.
    ckpt_images: u64,
    /// Size of the request's committed image on disk, bytes.
    image_bytes: u64,
}

impl TracedAnswer {
    fn new(run_ms: f64, progress: &[ProgressFrame], terminal: &Frame, image_bytes: u64) -> Self {
        let frame_bytes = encoded_len(terminal)
            + progress
                .iter()
                .map(|p| encoded_len(&Frame::Progress(p.clone())))
                .sum::<usize>();
        let mut last = (0u64, 0u64);
        let levels = progress
            .iter()
            .map(|f| {
                let ms = f.elapsed_micros.saturating_sub(last.0) as f64 / 1e3;
                let checkpointed = f.checkpoints_written > last.1;
                last = (f.elapsed_micros, f.checkpoints_written);
                (ms, checkpointed)
            })
            .collect();
        TracedAnswer {
            run_ms,
            progress_frames: progress.len(),
            frame_bytes,
            levels,
            ckpt_images: last.1,
            image_bytes,
        }
    }
}

fn encoded_len(frame: &Frame) -> usize {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).map_or(0, |()| buf.len())
}

/// What one client's closed loop brings back.
struct ClientRun {
    answers: Vec<Answer>,
    /// The failed checks of each request (empty when it passed).
    checks: Vec<Vec<String>>,
    /// The spans this client recorded, traced runs only.
    lane: Option<Tracer>,
}

/// A run-wide request number shared by all spans of one request.
fn request_number(client: usize, i: usize) -> u64 {
    ((client as u64) << 32) | i as u64
}

/// What every client's closed loop shares.
struct LoopCtx<'a> {
    expected: &'a [(Shape, VerdictFrame)],
    seconds: f64,
    min_per_client: usize,
    work: &'a Path,
    window: Stopwatch,
    /// Requests answered so far, all clients together.
    answered: &'a AtomicUsize,
    /// `peak_rss_mb` (as `f64` bits) at [`RSS_AT_REQUESTS`]; 0 until then.
    rss_bits: &'a AtomicU64,
}

/// One client's closed loop: submit, wait for the verdict, check it,
/// repeat until the deadline has passed and the run has its minimum
/// request count.
fn client_loop(
    conn: &mut Connection,
    client: usize,
    mix: Mix,
    ctx: &LoopCtx<'_>,
    mut lane: Option<Tracer>,
) -> ClientRun {
    let mut answers = Vec::new();
    let mut checks = Vec::new();
    for (i, shape) in mix.enumerate() {
        if i >= ctx.min_per_client && ctx.window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let id = format!("c{client}-r{i}");
        let req = request(shape, id.clone());
        let traced = i % 2 == 1 && lane.is_some();
        let span = lane
            .as_mut()
            .filter(|_| traced)
            .map(|t| t.open("client.request", None, request_number(client, i)));
        let mut progress = Vec::new();
        let clock = Stopwatch::start();
        let result = conn.run_to_verdict(&req, |p| {
            if traced {
                progress.push(p.clone());
            }
        });
        let latency_ms = clock.elapsed().as_secs_f64() * 1e3;
        let want = &ctx
            .expected
            .iter()
            .find(|(s, _)| *s == shape)
            .expect("every shape has a direct verdict")
            .1;
        let (failures, run_ms, error, terminal) = match result {
            Ok(ServiceOutcome::Verdict(v)) => (
                check_verdict(&v, want),
                v.elapsed_micros as f64 / 1e3,
                false,
                Frame::Verdict(v),
            ),
            Ok(ServiceOutcome::Error {
                request_id,
                message,
            }) => (
                vec![format!("error frame for {request_id}: {message}")],
                0.0,
                true,
                Frame::Error {
                    request_id,
                    message,
                },
            ),
            Err(e) => {
                checks.push(vec![format!("request {id}: {e}")]);
                break;
            }
        };
        // The request's checkpoint directory is finished with once its
        // terminal frame has arrived; removing it keeps thousands of
        // requests from filling the disk.
        let dir = ctx.work.join("checkpoints").join(&id);
        let traced_answer = traced.then(|| {
            let image = CheckpointStore::file_path(&dir);
            let image_bytes = std::fs::metadata(image).map_or(0, |m| m.len());
            TracedAnswer::new(run_ms, &progress, &terminal, image_bytes)
        });
        if let (Some(t), Some(span), Some(a)) = (lane.as_mut(), span, &traced_answer) {
            t.close(
                span,
                vec![
                    ("depth", shape.depth as f64),
                    ("latency_ms", latency_ms),
                    ("server_run_ms", run_ms),
                    ("progress_frames", a.progress_frames as f64),
                    ("frame_bytes", a.frame_bytes as f64),
                    ("error", f64::from(u8::from(error))),
                ],
            );
        }
        let mut failures = failures;
        let stray = stray_checkpoint_files(&dir);
        if !stray.is_empty() {
            failures.push(format!("files left beside the checkpoint image: {stray:?}"));
        }
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            failures.push(format!("cannot remove {}: {e}", dir.display()));
        }
        checks.push(failures);
        if ctx.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
            ctx.rss_bits
                .store(peak_rss_mb().to_bits(), Ordering::Relaxed);
        }
        answers.push(Answer {
            shape,
            latency_ms,
            error,
            traced: traced_answer,
        });
    }
    ClientRun {
        answers,
        checks,
        lane,
    }
}

/// Runs the workload. With a tracer, every other request of each client
/// is traced and the per-layer metrics come from those.
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    work: &Path,
) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.notes.push(format!(
        "config: workers={WORKERS} clients={} checkpoint_every={CKPT_EVERY} kernel_threads=1 \
         request pins: shards=8 symmetry=off codec=Delta mem_budget=off; mix per block: {}",
        p.clients,
        p.block
            .iter()
            .map(|s| format!("{}@{}", s.scenario, s.depth))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut distinct: Vec<Shape> = Vec::new();
    for s in &p.block {
        if !distinct.contains(s) {
            distinct.push(*s);
        }
    }
    let expected: Vec<(Shape, VerdictFrame)> =
        distinct.iter().map(|&s| (s, direct_verdict(s))).collect();

    // Set-up: the server and its connections.
    let min_per_client = p.min_requests.div_ceil(p.clients.max(1));
    let mut running: Option<Running> = None;
    let mut connect_ms = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(previous) = running.take() {
            drop(previous.clients);
            previous.server.shutdown();
        }
        let clock = Stopwatch::start();
        match start(work, rep, p.clients) {
            Ok(r) => {
                outcome.setup_secs.push(clock.elapsed().as_secs_f64());
                connect_ms.extend(r.connect_ms.iter().copied());
                running = Some(r);
            }
            Err(e) => {
                outcome.check(vec![format!("server set-up failed: {e}")]);
                return outcome;
            }
        }
    }
    let Running {
        server,
        mut clients,
        ..
    } = running.expect("at least one set-up repetition");

    let answered = AtomicUsize::new(0);
    let rss_bits = AtomicU64::new(0);
    let ctx = LoopCtx {
        expected: &expected,
        seconds,
        min_per_client,
        work,
        window: Stopwatch::start(),
        answered: &answered,
        rss_bits: &rss_bits,
    };
    let steal = StealMark::now();
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mix = Mix::new(p, seed, c);
                let lane = tracer.as_deref().map(|t| t.lane(c as u64));
                let ctx = &ctx;
                scope.spawn(move || client_loop(conn, c, mix, ctx, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_secs = ctx.window.elapsed().as_secs_f64();
    let stolen = steal.share_since();
    outcome.peak_rss_mb = match f64::from_bits(rss_bits.load(Ordering::Relaxed)) {
        rss if rss > 0.0 => rss,
        _ => peak_rss_mb(),
    };
    drop(clients);
    server.shutdown();

    let mut answers = Vec::new();
    for run in results {
        answers.extend(run.answers);
        for failures in run.checks {
            outcome.check(failures);
        }
        if let (Some(t), Some(lane)) = (tracer.as_deref_mut(), run.lane) {
            t.adopt(lane);
        }
    }
    let latencies: Vec<f64> = answers
        .iter()
        .filter(|a| a.traced.is_none())
        .map(|a| a.latency_ms / 1e3)
        .collect();
    outcome.wall_secs = median(&latencies) * (1.0 - stolen);
    let n = latencies.len();
    outcome.notes.push(format!(
        "requests: {} answered in {window_secs:.3} s ({:.1} req/s); untraced latency over {n} \
         samples: p50 {:.3} ms, p95 {:.3} ms{}; error frames: {}; steal share {stolen:.3}",
        answers.len(),
        answers.len() as f64 / window_secs,
        percentile(&latencies, 50.0) * 1e3,
        percentile(&latencies, 95.0) * 1e3,
        if crate::stats::supports_percentile(n, 95.0) {
            ""
        } else {
            " (p95 has fewer than 10 samples beyond it)"
        },
        answers.iter().filter(|a| a.error).count()
    ));
    if tracer.is_some() {
        layers(&mut outcome, &answers, &connect_ms, &expected, window_secs);
    }
    outcome
}

/// The per-layer metrics of the traced requests.
fn layers(
    outcome: &mut Outcome,
    answers: &[Answer],
    connect_ms: &[f64],
    expected: &[(Shape, VerdictFrame)],
    window_secs: f64,
) {
    let traced: Vec<(Shape, f64, &TracedAnswer)> = answers
        .iter()
        .filter_map(|a| Some((a.shape, a.latency_ms, a.traced.as_ref()?)))
        .collect();
    let untraced: Vec<f64> = answers
        .iter()
        .filter(|a| a.traced.is_none())
        .map(|a| a.latency_ms)
        .collect();
    let latency: Vec<f64> = traced.iter().map(|t| t.1).collect();
    let run: Vec<f64> = traced.iter().map(|t| t.2.run_ms).collect();
    let overhead: Vec<f64> = traced.iter().map(|t| t.1 - t.2.run_ms).collect();
    let per_request = |total: usize| total as f64 / traced.len().max(1) as f64;

    // Engine levels as the server saw them, consensus requests only.
    let consensus = || traced.iter().filter(|t| t.0.scenario != "grid");
    let level_ms = |keep: fn(bool) -> bool| {
        let ms: Vec<f64> = consensus()
            .flat_map(|t| t.2.levels.iter().filter(|l| keep(l.1)).map(|l| l.0))
            .collect();
        percentile(&ms, 50.0)
    };
    let level_max: Vec<f64> = consensus()
        .map(|t| t.2.levels.iter().map(|l| l.0).fold(0.0, f64::max))
        .collect();
    let reference = expected
        .iter()
        .find(|(s, _)| *s == REFERENCE)
        .map(|(_, v)| v);
    let reference_run = traced.iter().find(|t| t.0 == REFERENCE).map(|t| t.2);

    outcome.layer("engine.level_ms_p50", "ms", level_ms(|_| true));
    outcome.layer("engine.level_ms_max", "ms", median(&level_max));
    outcome.layer(
        "engine.levels",
        "count",
        reference_run.map_or(0.0, |r| r.levels.len() as f64),
    );
    if let Some(v) = reference {
        outcome.layer("engine.configs", "count", v.configs as f64);
        outcome.layer("engine.transitions", "count", v.transitions as f64);
        outcome.layer("engine.dedup_hits", "count", v.dedup_hits as f64);
        outcome.layer(
            "engine.fresh_ratio",
            "ratio",
            v.configs as f64 / v.transitions.max(1) as f64,
        );
        outcome.layer("engine.peak_frontier", "count", v.peak_frontier as f64);
    }
    outcome.layer("engine.threads", "count", 1.0);
    outcome.layer("engine.shards", "count", 8.0);
    outcome.layer(
        "engine.ckpt_images",
        "count",
        reference_run.map_or(0.0, |r| r.ckpt_images as f64),
    );
    outcome.layer(
        "engine.ckpt_image_bytes",
        "B",
        reference_run.map_or(0.0, |r| r.image_bytes as f64),
    );
    outcome.layer("engine.ckpt_level_ms_p50", "ms", level_ms(|c| c));
    outcome.layer("engine.plain_level_ms_p50", "ms", level_ms(|c| !c));
    outcome.layer("server.connect_ms", "ms", median(connect_ms));
    outcome.layer("server.run_ms_p50", "ms", percentile(&run, 50.0));
    outcome.layer("server.overhead_ms_p50", "ms", percentile(&overhead, 50.0));
    outcome.layer("server.overhead_ms_p95", "ms", percentile(&overhead, 95.0));
    outcome.layer(
        "server.progress_frames",
        "count",
        per_request(traced.iter().map(|t| t.2.progress_frames).sum()),
    );
    outcome.layer(
        "server.frame_bytes",
        "B",
        per_request(traced.iter().map(|t| t.2.frame_bytes).sum()),
    );
    outcome.layer(
        "server.error_frames",
        "count",
        answers.iter().filter(|a| a.error).count() as f64,
    );
    outcome.layer("server.req_p50_ms", "ms", percentile(&latency, 50.0));
    outcome.layer("server.req_p95_ms", "ms", percentile(&latency, 95.0));
    outcome.layer("server.req_samples", "count", latency.len() as f64);
    outcome.layer(
        "server.req_per_s",
        "1/s",
        answers.len() as f64 / window_secs.max(f64::MIN_POSITIVE),
    );
    outcome.layer(
        "trace.overhead_x",
        "ratio",
        median(&latency) / median(&untraced).max(f64::MIN_POSITIVE),
    );
}

/// The run's work directory holds nothing but what `run` removes itself.
#[must_use]
pub fn leftovers(work: &Path) -> Vec<PathBuf> {
    let root = work.join("checkpoints");
    std::fs::read_dir(&root)
        .map(|entries| entries.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_work_dir as work_dir;

    fn small() -> Params {
        Params {
            clients: 2,
            min_requests: 10,
            block: vec![
                Shape {
                    scenario: "grid",
                    depth: 6,
                },
                Shape {
                    scenario: "of-consensus-safety",
                    depth: 10,
                },
            ],
        }
    }

    #[test]
    fn the_mix_is_a_seeded_shuffle_of_whole_blocks() {
        let p = Params::full(2);
        let a: Vec<Shape> = Mix::new(&p, 4, 0).take(50).collect();
        assert_eq!(a, Mix::new(&p, 4, 0).take(50).collect::<Vec<_>>());
        assert_ne!(a, Mix::new(&p, 5, 0).take(50).collect::<Vec<_>>());
        assert_ne!(a, Mix::new(&p, 4, 1).take(50).collect::<Vec<_>>());
        let deep = a.iter().filter(|s| s.depth == 30).count();
        assert_eq!(deep, 10);
        assert_eq!(p.min_requests, 200);
    }

    #[test]
    fn reduced_run_checks_clean_and_traces() {
        let work = work_dir("serve");
        let mut tracer = Tracer::new();
        let out = run(&small(), 1, 0.0, Some(&mut tracer), &work);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted >= 10);
        assert!(leftovers(&work).is_empty());
        let names: Vec<&str> = out.layers.iter().map(|m| m.name).collect();
        assert!(names.contains(&"server.overhead_ms_p95"));
        let value = |name: &str| {
            out.layers
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(value("server.error_frames"), 0.0);
        assert!(value("server.frame_bytes") > 0.0);
        assert!(tracer.spans().iter().any(|s| s.name == "client.request"));
        std::fs::remove_dir_all(&work).expect("clean test dir");
    }

    #[test]
    fn a_wrong_verdict_fails_the_check() {
        let shape = Shape {
            scenario: "grid",
            depth: 5,
        };
        let want = direct_verdict(shape);
        assert!(!want.holds);
        assert_eq!(want.configs, 36);
        assert!(check_verdict(&want, &want).is_empty());
        let mut got = want.clone();
        got.elapsed_micros = 99;
        assert!(check_verdict(&got, &want).is_empty());
        got.configs += 1;
        assert_eq!(check_verdict(&got, &want).len(), 1);
        got = want.clone();
        got.holds = true;
        assert_eq!(check_verdict(&got, &want).len(), 1);
    }
}
