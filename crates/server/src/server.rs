//! The check service: accept connections, queue requests, run them on
//! the kernel, stream progress and verdicts back.
//!
//! # Shape
//!
//! - one **accept thread** polls the listener (non-blocking + 10ms
//!   sleep) so it can observe shutdown. Transient accept errors (EINTR,
//!   a peer resetting before its accept) are retried; only a persistent
//!   hard-error streak stops the service;
//! - one **connection thread** per client reads frames under a
//!   per-connection read timeout: `Submit` is validated, checked
//!   against the in-flight id set (resubmitting an id that is still
//!   queued or running is refused with a structured `Error` frame —
//!   resubmit-to-resume only works on ids that have reached a terminal
//!   frame), and queued; `Cancel` flips the request's cancel flag. Idle
//!   timeout ticks re-send each in-flight request's freshest progress
//!   frame as a heartbeat, so a client waiting out a slow level still
//!   observes liveness. A worker retires its request from the
//!   connection's in-flight map before writing the terminal frame, under
//!   the connection's writer lock, so no heartbeat follows a terminal
//!   frame and a long-lived connection holds only its live requests.
//!   Client hangup cancels everything the connection still has in
//!   flight — a disconnected client's runs stop at their next level
//!   boundary (their checkpoints survive, so reconnecting and
//!   resubmitting resumes them);
//! - a bounded pool of **worker threads** drains a FIFO queue. Each
//!   request runs with checkpointing into its own directory under the
//!   server's checkpoint root, named by the request id.
//!
//! # Determinism and resume
//!
//! Workers pin every verdict-relevant checker knob explicitly
//! (threads, shards, symmetry off, delta spill codec, request-supplied
//! budgets), so the `SLX_ENGINE_*` environment never reaches a
//! server-run check and the engine's checkpoint header validation holds
//! across restarts under different environments. If a request's
//! directory already holds a committed image — the server was killed
//! mid-run, or the request was cancelled — resubmitting the same id
//! **resumes** from it, and the resume contract makes the final verdict
//! frame's counters bit-identical to an uninterrupted run's.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use slx_engine::{
    Checker, CheckpointStore, DetHashMap, FaultKind, FaultOp, FaultPlan, FaultPlane, SpillCodec,
};

use crate::net::{Addr, Listener, Stream};
use crate::scenario::{ScenarioRegistry, ScenarioRun};
use crate::wire::{
    read_frame, read_hello, validate_request_id, write_frame, write_hello, CheckRequest, Frame,
    ProgressFrame, VerdictFrame, WireError,
};

/// How long a connection read may block before an idle tick: long
/// enough that a chatty client never hits it, short enough that
/// heartbeats flow and a wedged peer cannot park the thread forever.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Consecutive hard accept errors (not `WouldBlock`, not transient)
/// before the accept loop gives up on the listener.
const MAX_ACCEPT_ERRORS: u32 = 64;

/// Tuning for [`CheckServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-request checkpoint directories live under here (created on
    /// start). Survives restarts — it *is* the resume state.
    pub checkpoint_root: PathBuf,
    /// Worker threads draining the request queue (min 1).
    pub workers: usize,
    /// Checkpoint cadence in BFS levels (min 1).
    pub checkpoint_every: usize,
    /// Kernel threads per request. Kept at 1 by default: request-level
    /// parallelism comes from the worker pool.
    pub threads: usize,
    /// Crash-probe hook: park the worker (sleep forever) once a run has
    /// passed this many BFS levels, leaving a deterministic window for a
    /// harness to `kill -9` the server between two commits. `None` in
    /// normal operation.
    pub stall_after: Option<usize>,
    /// Fault-injection plan for the service's socket paths (accepts,
    /// per-connection reads and writes). `None` — every seam a no-op —
    /// in normal operation; the robustness suites arm it.
    pub fault_plan: Option<FaultPlan>,
}

impl ServerConfig {
    /// A config with the given root and defaults elsewhere (2 workers,
    /// cadence 2, 1 kernel thread, no stall).
    #[must_use]
    pub fn new(checkpoint_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            checkpoint_root: checkpoint_root.into(),
            workers: 2,
            checkpoint_every: 2,
            threads: 1,
            stall_after: None,
            fault_plan: None,
        }
    }
}

/// One submitted request's state, shared by its connection thread and
/// the worker that runs it.
#[derive(Default)]
struct RequestSlot {
    /// Set by an explicit `Cancel` or by the connection's hangup; the
    /// run observes it at its next level boundary.
    cancel: AtomicBool,
    /// The freshest progress frame the run has produced, re-sent by the
    /// connection thread as an idle-tick heartbeat.
    last_progress: Mutex<Option<ProgressFrame>>,
}

/// The requests one connection has queued or running, by id. The
/// connection thread inserts a slot on submit; the worker removes it
/// when it retires the request, so the map never outgrows the in-flight
/// set and idle ticks walk only live runs.
type Inflight = Arc<Mutex<DetHashMap<String, Arc<RequestSlot>>>>;

/// One queued request: what to run and where to stream results.
struct Job {
    req: CheckRequest,
    out: Arc<Mutex<Stream>>,
    slot: Arc<RequestSlot>,
    /// The submitting connection's in-flight map.
    inflight: Inflight,
}

impl Job {
    /// Retires the request and writes its terminal frame. Both happen
    /// under the writer lock, retirement first, so an idle-tick heartbeat
    /// (which holds the same lock while it walks the in-flight map) can
    /// never slip a `Progress` frame in after the terminal one.
    fn finish(&self, frame: &Frame) {
        let mut out = self.out.lock().expect("writer lock");
        self.inflight
            .lock()
            .expect("inflight lock")
            .remove(&self.req.request_id);
        // A client gone by now loses nothing: the checkpoint directory
        // is the durable result.
        let _ = write_frame(&mut *out, frame);
    }
}

/// FIFO queue + shutdown flag, shared by connection and worker threads.
struct JobQueue {
    jobs: Mutex<std::collections::VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Request ids queued or running right now — the duplicate-submit
    /// guard. A `Vec`, not a set: a handful of in-flight ids at most.
    active: Mutex<Vec<String>>,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            jobs: Mutex::new(std::collections::VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(Vec::new()),
        }
    }

    /// Claims `id` for one queued-or-running request. `false` means the
    /// id is already in flight: the caller must refuse the submission
    /// (two concurrent runs would race on one checkpoint directory).
    fn try_admit(&self, id: &str) -> bool {
        let mut active = self.active.lock().expect("active lock");
        if active.iter().any(|a| a == id) {
            return false;
        }
        active.push(id.to_string());
        true
    }

    /// Frees `id` after its terminal frame: a resubmit now resumes from
    /// the request's checkpoint directory.
    fn release(&self, id: &str) {
        let mut active = self.active.lock().expect("active lock");
        active.retain(|a| a != id);
    }

    fn push(&self, job: Job) {
        self.jobs.lock().expect("queue lock").push_back(job);
        self.ready.notify_one();
    }

    /// Pops the oldest job, blocking until one arrives or shutdown.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("queue lock");
            jobs = guard;
        }
    }

    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// The check service. Construct with [`CheckServer::start`].
pub struct CheckServer;

/// A running server: its resolved address and its shutdown handle.
pub struct ServerHandle {
    local_addr: String,
    queue: Arc<JobQueue>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl CheckServer {
    /// Binds `addr` (`unix:<path>` or `tcp:<host:port>`), spawns the
    /// accept loop and `config.workers` workers, and returns
    /// immediately.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        registry: ScenarioRegistry,
    ) -> std::io::Result<ServerHandle> {
        let addr = Addr::parse(addr).map_err(std::io::Error::other)?;
        std::fs::create_dir_all(&config.checkpoint_root)?;
        let listener = Listener::bind(&addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let queue = Arc::new(JobQueue::new());
        let registry = Arc::new(registry);
        let config = Arc::new(config);

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let config = Arc::clone(&config);
                std::thread::spawn(move || worker_loop(&queue, &registry, &config))
            })
            .collect();

        let plane = match &config.fault_plan {
            Some(plan) => FaultPlane::armed(plan.clone()),
            None => FaultPlane::disabled(),
        };
        let accept_queue = Arc::clone(&queue);
        let accept_thread = std::thread::spawn(move || {
            // Transient accept failures (EINTR, a peer that reset before
            // we reached its connection, kernel resource blips) must not
            // kill the service; only a persistent hard-error streak does.
            let mut hard_errors = 0u32;
            while !accept_queue.shutdown.load(Ordering::SeqCst) {
                if let Some(kind) = plane.inject(FaultOp::Accept) {
                    // Injected accept fault: exercise the retry path
                    // without needing a real socket error.
                    std::thread::sleep(Duration::from_millis(match kind {
                        FaultKind::Stall => 50,
                        _ => 1,
                    }));
                    continue;
                }
                match listener.accept() {
                    Ok(mut stream) => {
                        hard_errors = 0;
                        stream.set_fault_plane(plane.clone());
                        let queue = Arc::clone(&accept_queue);
                        std::thread::spawn(move || {
                            // A misbehaving client only poisons its own
                            // connection thread.
                            let _ = serve_connection(
                                stream,
                                &queue,
                                &Inflight::default(),
                                READ_TIMEOUT,
                            );
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::Interrupted
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::ConnectionAborted
                        ) =>
                    {
                        hard_errors = 0;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => {
                        hard_errors += 1;
                        if hard_errors >= MAX_ACCEPT_ERRORS {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        });

        Ok(ServerHandle {
            local_addr,
            queue,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address in connectable form (`tcp:127.0.0.1:<port>`
    /// with the OS-assigned port resolved).
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Stops accepting, drains nothing further (queued jobs are
    /// dropped), and joins the accept and worker threads. In-flight
    /// runs finish their current job first.
    pub fn shutdown(mut self) {
        self.queue.initiate_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Blocks until the accept thread exits (i.e. forever in normal
    /// operation — the server binary's main thread parks here).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One client connection: hello exchange, then a read loop dispatching
/// `Submit`/`Cancel`, with an idle tick (a read timing out after `tick`)
/// heartbeating the runs in `inflight`. Returns on hangup or protocol
/// error, cancelling everything this connection still has in flight.
fn serve_connection(
    stream: Stream,
    queue: &Arc<JobQueue>,
    inflight: &Inflight,
    tick: Duration,
) -> Result<(), WireError> {
    let mut reader = stream;
    let writer = Arc::new(Mutex::new(reader.try_clone()?));
    write_hello(&mut *writer.lock().expect("writer lock"))?;
    read_hello(&mut reader)?;
    // After the hello, bound every read: a silent peer cannot park this
    // thread forever, and the timeout ticks drive the heartbeats below.
    let _ = reader.set_read_timeout(Some(tick));

    let result = loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Submit(req))) => {
                if let Err(e) = validate_request_id(&req.request_id) {
                    let _ = write_frame(
                        &mut *writer.lock().expect("writer lock"),
                        &Frame::Error {
                            request_id: req.request_id.clone(),
                            message: e.to_string(),
                        },
                    );
                    continue;
                }
                if !queue.try_admit(&req.request_id) {
                    // Two concurrent runs of one id would race on one
                    // checkpoint directory; refuse with a structured
                    // terminal frame. Resubmit-to-resume stays available
                    // the moment the in-flight run reaches its terminal
                    // frame.
                    let _ = write_frame(
                        &mut *writer.lock().expect("writer lock"),
                        &Frame::Error {
                            request_id: req.request_id.clone(),
                            message: format!(
                                "duplicate request id {:?}: that request is still \
                                 running (or queued); cancel it or wait for its \
                                 terminal frame before resubmitting",
                                req.request_id
                            ),
                        },
                    );
                    continue;
                }
                let slot = Arc::new(RequestSlot::default());
                inflight
                    .lock()
                    .expect("inflight lock")
                    .insert(req.request_id.clone(), Arc::clone(&slot));
                queue.push(Job {
                    req,
                    out: Arc::clone(&writer),
                    slot,
                    inflight: Arc::clone(inflight),
                });
            }
            Ok(Some(Frame::Cancel { request_id })) => {
                if let Some(slot) = inflight.lock().expect("inflight lock").get(&request_id) {
                    slot.cancel.store(true, Ordering::SeqCst);
                }
            }
            // Server-to-client frames arriving here mean a confused
            // peer; drop the connection.
            Ok(Some(_)) => break Err(WireError::Malformed("client sent a server-side frame")),
            Ok(None) => break Ok(()),
            // An idle tick, not a failure: the frame reader issues the
            // first byte of a frame as its own read, so a timeout
            // between frames leaves the stream aligned and retryable.
            // Heartbeat the in-flight runs and keep listening.
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let mut hung_up = false;
                {
                    // Lock order: writer, then the in-flight map — the
                    // order `Job::finish` retires a request in.
                    let mut w = writer.lock().expect("writer lock");
                    let live = inflight.lock().expect("inflight lock");
                    for slot in live.values() {
                        let frame = slot.last_progress.lock().expect("progress lock").clone();
                        if let Some(p) = frame {
                            if write_frame(&mut *w, &Frame::Progress(p)).is_err() {
                                hung_up = true;
                                break;
                            }
                        }
                    }
                }
                if hung_up {
                    break Ok(());
                }
            }
            Err(e) => break Err(e),
        }
    };
    // Hangup (clean or not) cancels this connection's in-flight runs:
    // nobody is listening, and their checkpoints let a resubmit resume.
    for slot in inflight.lock().expect("inflight lock").values() {
        slot.cancel.store(true, Ordering::SeqCst);
    }
    result
}

/// The per-request checker, every verdict-relevant knob pinned (no
/// `SLX_ENGINE_*` influence) so checkpoint headers validate across
/// restarts under different environments.
fn request_checker(config: &ServerConfig, req: &CheckRequest, dir: &std::path::Path) -> Checker {
    let mut checker = Checker::parallel_bfs(config.threads.max(1))
        .with_shards(8)
        .with_symmetry(false)
        .with_spill_codec(SpillCodec::Delta)
        .with_mem_budget(usize::try_from(req.mem_budget.unwrap_or(0)).unwrap_or(0))
        .with_checkpoint(dir, config.checkpoint_every.max(1));
    if let Some(budget) = req.config_budget {
        checker = checker.with_budget(usize::try_from(budget).unwrap_or(usize::MAX));
    }
    if CheckpointStore::exists(dir) {
        checker = checker.resume(dir);
    }
    checker
}

/// Drains the queue until shutdown.
fn worker_loop(queue: &Arc<JobQueue>, registry: &ScenarioRegistry, config: &ServerConfig) {
    while let Some(job) = queue.pop() {
        run_job(&job, registry, config);
        // The request is retired and its terminal frame written: free
        // the id for resubmission (which resumes from its checkpoint).
        queue.release(&job.req.request_id);
    }
}

/// Runs one request end to end, retires it and writes its terminal
/// frame (every return path goes through [`Job::finish`] exactly once).
fn run_job(job: &Job, registry: &ScenarioRegistry, config: &ServerConfig) {
    let req = &job.req;

    let Some(scenario) = registry.get(&req.scenario) else {
        job.finish(&Frame::Error {
            request_id: req.request_id.clone(),
            message: format!(
                "unknown scenario {:?} (available: {})",
                req.scenario,
                registry.names().join(", ")
            ),
        });
        return;
    };

    let dir = config.checkpoint_root.join(&req.request_id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        job.finish(&Frame::Error {
            request_id: req.request_id.clone(),
            message: format!("cannot create checkpoint dir: {e}"),
        });
        return;
    }
    let checker = request_checker(config, req, &dir);

    let slot = Arc::clone(&job.slot);
    let every = req.progress_every.max(1);
    let stall_after = config.stall_after;
    let out = Arc::clone(&job.out);
    let request_id = req.request_id.clone();
    let mut writable = true;
    let mut progress = move |depth: usize, stats: &slx_engine::ExploreStats| -> bool {
        // The hook runs right after the level's checkpoint commit, so a
        // cancellation observed here never outruns durable state.
        if slot.cancel.load(Ordering::SeqCst) {
            return false;
        }
        if let Some(stall) = stall_after {
            if depth >= stall {
                // CI crash window: at least `stall / every` images are
                // committed; the harness's SIGKILL lands while we sleep.
                eprintln!(
                    "slx-server: request {request_id} parked at depth {depth} — awaiting SIGKILL"
                );
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        if (depth as u64).is_multiple_of(every) {
            let snapshot = ProgressFrame {
                request_id: request_id.clone(),
                depth: depth as u64,
                configs: stats.configs as u64,
                transitions: stats.transitions as u64,
                dedup_hits: stats.dedup_hits as u64,
                peak_frontier: stats.peak_frontier as u64,
                elapsed_micros: u64::try_from(stats.elapsed.as_micros()).unwrap_or(u64::MAX),
                checkpoints_written: stats.checkpoints_written as u64,
                resumed_from_depth: stats.resumed_from_depth.map(|d| d as u64),
            };
            // Published for the connection thread's idle-tick heartbeat
            // before the live send, so even a send that blocks never
            // starves the heartbeat of a fresh frame.
            *slot.last_progress.lock().expect("progress lock") = Some(snapshot.clone());
            let frame = Frame::Progress(snapshot);
            if writable {
                let mut w = out.lock().expect("writer lock");
                if write_frame(&mut *w, &frame).is_err() {
                    // The client is gone; keep running (the checkpoint
                    // directory is the deliverable) but stop writing.
                    writable = false;
                }
            }
        }
        true
    };

    // A panicking scenario (header mismatch on resume, malformed env,
    // space bug) must kill neither the worker nor the connection — it
    // becomes the request's terminal Error frame.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario.run(req, checker, &mut progress)
    }));

    match outcome {
        Ok(run) if job.slot.cancel.load(Ordering::SeqCst) => {
            job.finish(&Frame::Error {
                request_id: req.request_id.clone(),
                message: format!(
                    "cancelled at a level boundary after {} configs; \
                     resubmit the id to resume from the last committed checkpoint",
                    run.stats.configs
                ),
            });
        }
        Ok(run) => {
            job.finish(&Frame::Verdict(verdict_frame(req, &run)));
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            job.finish(&Frame::Error {
                request_id: req.request_id.clone(),
                message,
            });
        }
    }
    let _ = std::io::stderr().flush();
}

/// Renders a completed run as its terminal frame.
fn verdict_frame(req: &CheckRequest, run: &ScenarioRun) -> VerdictFrame {
    VerdictFrame {
        request_id: req.request_id.clone(),
        holds: run.holds,
        findings: run.findings as u64,
        configs: run.stats.configs as u64,
        transitions: run.stats.transitions as u64,
        dedup_hits: run.stats.dedup_hits as u64,
        peak_frontier: run.stats.peak_frontier as u64,
        truncated: run.stats.truncated,
        elapsed_micros: u64::try_from(run.stats.elapsed.as_micros()).unwrap_or(u64::MAX),
        resumed_from_depth: run.stats.resumed_from_depth.map(|d| d as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::connect;
    use crate::net::Addr;

    /// Shuts the queue down when dropped, so a failing assertion stops
    /// the worker instead of leaving the thread scope waiting on it.
    struct ShutdownOnDrop<'a>(&'a JobQueue);

    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.initiate_shutdown();
        }
    }

    #[test]
    fn finished_requests_leave_the_connection_and_never_heartbeat_afterwards() {
        let dir = std::env::temp_dir().join(format!("slx-srv-inflight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let addr = format!("unix:{}", dir.join("s.sock").display());
        let listener = Listener::bind(&Addr::parse(&addr).expect("addr")).expect("bind");

        let queue = Arc::new(JobQueue::new());
        let config = ServerConfig::new(dir.join("ckpt"));
        let registry = ScenarioRegistry::builtin();
        let inflight = Inflight::default();
        std::thread::scope(|s| {
            let worker = s.spawn(|| worker_loop(&queue, &registry, &config));
            // A 1 ms idle tick: heartbeats fire constantly, so a progress
            // frame racing a terminal frame would have every chance to.
            let conn = s.spawn(|| {
                let stream = listener.accept().expect("accept");
                serve_connection(stream, &queue, &inflight, Duration::from_millis(1))
            });

            let shutdown = ShutdownOnDrop(&queue);
            let mut client = connect(&addr).expect("connect");
            let mut finished: Vec<String> = Vec::new();
            for i in 0..40 {
                let id = format!("seq-{i}");
                client
                    .submit(&CheckRequest {
                        request_id: id.clone(),
                        scenario: "grid".into(),
                        depth: 12,
                        config_budget: None,
                        mem_budget: None,
                        progress_every: 1,
                    })
                    .expect("submit");
                loop {
                    match client.next_event().expect("read").expect("server up") {
                        Frame::Progress(p) => assert!(
                            !finished.contains(&p.request_id),
                            "progress for {} after its terminal frame",
                            p.request_id
                        ),
                        Frame::Verdict(v) if v.request_id == id => break,
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                // Retirement precedes the terminal frame, so the entry is
                // gone by the time the client holds the verdict.
                assert!(
                    inflight.lock().expect("inflight lock").is_empty(),
                    "entries left after {id}"
                );
                finished.push(id);
            }
            drop(client);
            conn.join()
                .expect("connection thread")
                .expect("clean hangup");
            drop(shutdown);
            worker.join().expect("worker thread");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
