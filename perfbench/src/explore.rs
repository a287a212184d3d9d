//! `explore-resident` and `explore-durable`: exhaustive consensus-safety
//! exploration of obstruction-free consensus at n = 3 (the Figure 1a
//! anchor), run through `explore_safety_observed` on the parallel BFS
//! kernel.
//!
//! Both workloads explore the same space to the same depth. The resident
//! one keeps the whole frontier in memory with checkpointing and symmetry
//! off, so its time is expand / digest / visited-merge and threading.
//! The durable one spills the frontier under a 16 KiB budget (delta
//! codec), commits a checkpoint image every 4 levels into a fresh
//! directory, and turns symmetry reduction on, so spill, checkpoint and
//! canonicalization do real work beside the same kernel.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use slx_core::consensus::{ConsWord, ObstructionFreeConsensus};
use slx_core::engine::{Checker, CheckpointStore, ExploreStats, SpillCodec, Stopwatch};
use slx_core::explorer::{explore_safety_observed, history_digest, ExploreOutcome};
use slx_core::history::{History, Operation, ProcessId, Value};
use slx_core::memory::{Memory, System};
use slx_core::safety::{ConsensusSafety, SafetyProperty};

use crate::report::{peak_rss_mb, throughput_note, Outcome, StealMark};
use crate::stats::{median, percentile, SplitMix64};
use crate::trace::Tracer;

/// Exploration depth of the full-size workloads (≈3 s on 2 cores).
pub const DEPTH: usize = 44;
/// Frontier memory budget of `explore-durable`, bytes.
pub const SPILL_BUDGET: usize = 16 * 1024;
/// Checkpoint cadence of `explore-durable`, BFS levels.
pub const CKPT_EVERY: usize = 4;
/// Set-up repetitions before each pass; `setup_s` is the median of all
/// of them. One set-up takes microseconds, so the repetitions are spread
/// over the run's passes instead of sampling one instant of the host.
const SETUP_REPS: usize = 20;

/// Which of the two explore workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Resident frontier, no checkpoint, symmetry off.
    Resident,
    /// Spilled frontier, checkpoint every [`CKPT_EVERY`] levels, symmetry on.
    Durable,
}

/// The size of one exploration.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Resident or durable.
    pub mode: Mode,
    /// Schedule-step depth bound.
    pub depth: usize,
    /// Kernel threads.
    pub threads: usize,
}

/// Counts an exploration must reproduce exactly, whatever the thread
/// count, pass or tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Consensus safety held everywhere explored.
    pub holds: bool,
    /// Distinct states expanded.
    pub configs: usize,
    /// Successors generated.
    pub transitions: usize,
    /// Successors dropped as already visited.
    pub dedup_hits: usize,
    /// Successors dropped only by symmetry reduction.
    pub orbit_hits: usize,
    /// Largest BFS level.
    pub peak_frontier: usize,
    /// Whether the depth bound cut a branch.
    pub truncated: bool,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Chunks written to spill files.
    pub spill_chunks: usize,
    /// Checkpoint images committed.
    pub ckpt_images: usize,
}

impl Expected {
    /// The counts of a finished exploration.
    #[must_use]
    pub fn of(out: &ExploreOutcome) -> Self {
        Expected {
            holds: out.holds(),
            configs: out.stats.configs,
            transitions: out.stats.transitions,
            dedup_hits: out.stats.dedup_hits,
            orbit_hits: out.stats.orbit_hits,
            peak_frontier: out.stats.peak_frontier,
            truncated: out.truncated,
            spill_bytes: out.stats.spilled_bytes,
            spill_chunks: out.stats.spilled_chunks,
            ckpt_images: out.stats.checkpoints_written,
        }
    }
}

/// The known answer at [`DEPTH`], measured once on a single kernel
/// thread. Every input vector of [`inputs_for_seed`] gives these counts.
#[must_use]
pub fn known_answer(mode: Mode) -> Expected {
    match mode {
        Mode::Resident => Expected {
            holds: true,
            configs: 151_960,
            transitions: 389_728,
            dedup_hits: 237_769,
            orbit_hits: 0,
            peak_frontier: 16_547,
            truncated: true,
            spill_bytes: 0,
            spill_chunks: 0,
            ckpt_images: 0,
        },
        Mode::Durable => Expected {
            holds: true,
            configs: 108_349,
            transitions: 284_990,
            dedup_hits: 176_642,
            orbit_hits: 13_197,
            peak_frontier: 9_605,
            truncated: true,
            spill_bytes: 6_638_253,
            spill_chunks: 807,
            ckpt_images: 11,
        },
    }
}

/// The seed's input vector `(a, b, b)`: process 0 proposes a value
/// distinct from the other two. Seed 0 gives the default (1, 2, 2);
/// other seeds draw `1 <= a < b <= 63`.
///
/// The seed varies the values only, never their order or the distinct
/// proposer's index: those change the size of the space (the algorithm
/// is not symmetric in them), while an order-preserving relabelling
/// keeps every count, and values below 64 keep every encoded byte count.
#[must_use]
pub fn inputs_for_seed(seed: u64) -> [i64; 3] {
    if seed == 0 {
        return [1, 2, 2];
    }
    let mut rng = SplitMix64::new(seed);
    let a = 1 + (rng.next_u64() % 62) as i64;
    let b = a + 1 + (rng.next_u64() % (63 - a) as u64) as i64;
    [a, b, b]
}

/// Obstruction-free consensus with one proposer per input, each already
/// invoked.
#[must_use]
pub fn of_system(inputs: &[i64]) -> System<ConsWord, ObstructionFreeConsensus> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, 16);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout.clone(), ProcessId::new(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
            .expect("a fresh process accepts its proposal");
    }
    sys
}

/// The checker of one pass, every knob pinned by a builder method so no
/// `SLX_ENGINE_*` variable reaches it (checkpointing has no "off" pin;
/// the caller refuses to run when its variable is set).
#[must_use]
pub fn checker(p: &Params, spill_dir: &Path, ckpt_dir: Option<&Path>) -> Checker {
    let base = Checker::parallel_bfs(p.threads)
        .with_shards(4 * p.threads)
        .with_spill_codec(SpillCodec::Delta)
        .with_spill_dir(spill_dir);
    match (p.mode, ckpt_dir) {
        (Mode::Resident, _) => base.with_mem_budget(0).with_symmetry(false),
        (Mode::Durable, Some(dir)) => base
            .with_mem_budget(SPILL_BUDGET)
            .with_symmetry(true)
            .with_checkpoint(dir, CKPT_EVERY),
        (Mode::Durable, None) => panic!("the durable workload needs a checkpoint directory"),
    }
}

/// The resolved configuration of `checker`, for the log.
#[must_use]
pub fn describe(p: &Params, checker: &Checker) -> String {
    format!(
        "depth={} threads={} shards={} mem_budget={:?} codec={:?} symmetry={} checkpoint_every={}",
        p.depth,
        p.threads,
        checker.resolve_shards(p.threads),
        checker.resolve_mem_budget(),
        checker.resolve_spill_codec(),
        checker.resolve_symmetry(),
        match p.mode {
            Mode::Resident => "off".to_string(),
            Mode::Durable => CKPT_EVERY.to_string(),
        }
    )
}

/// Runs one exploration with the level hook `progress`.
fn explore(
    p: &Params,
    checker: &Checker,
    sys: &System<ConsWord, ObstructionFreeConsensus>,
    progress: impl FnMut(usize, &ExploreStats) -> bool,
) -> ExploreOutcome {
    let active: Vec<ProcessId> = (0..sys.n()).map(ProcessId::new).collect();
    explore_safety_observed(
        checker,
        sys,
        &active,
        p.depth,
        &ConsensusSafety::new(),
        history_digest,
        progress,
    )
}

/// Call count and summed duration of one wrapped function.
#[derive(Debug, Default)]
struct CallTimer {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallTimer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let clock = Stopwatch::start();
        let result = f();
        let nanos = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Calls and milliseconds since the last take.
    fn take(&self) -> (u64, f64) {
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (calls, nanos as f64 / 1e6)
    }
}

/// A safety property that times every call into the one it wraps.
struct TimedSafety<'a, S> {
    inner: S,
    timer: &'a CallTimer,
}

impl<S: SafetyProperty> SafetyProperty for TimedSafety<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allows(&self, h: &History) -> bool {
        self.timer.time(|| self.inner.allows(h))
    }
}

/// One BFS level as seen from the level hook.
#[derive(Debug, Clone, Copy)]
struct Level {
    ms: f64,
    checkpointed: bool,
}

/// What a traced exploration measured.
#[derive(Debug, Clone, Default)]
struct TracedPass {
    secs: f64,
    stats: ExploreStats,
    image_bytes: u64,
    levels: Vec<Level>,
    /// Calls and milliseconds in the safety property.
    safety: (u64, f64),
    /// Calls and milliseconds in the history digest.
    digest: (u64, f64),
}

/// Runs one exploration with the safety property and history digest
/// wrapped in call timers, recording a span per level (folding the
/// per-call timers into per-level counters) under one span for the call.
fn explore_traced(
    p: &Params,
    checker: &Checker,
    sys: &System<ConsWord, ObstructionFreeConsensus>,
    tracer: &mut Tracer,
    pass: u64,
) -> (ExploreOutcome, TracedPass) {
    let safety_timer = CallTimer::default();
    let digest_timer = CallTimer::default();
    let safety = TimedSafety {
        inner: ConsensusSafety::new(),
        timer: &safety_timer,
    };
    let dt = &digest_timer;
    let digest = move |h: &History| dt.time(|| history_digest(h));
    let active: Vec<ProcessId> = (0..sys.n()).map(ProcessId::new).collect();

    let call = tracer.open("explorer.explore_safety", None, pass);
    let call_id = call.id();
    let mut levels = Vec::new();
    let mut totals = TracedPass::default();
    let mut level_start = tracer.now_us();
    let mut last = ExploreStats::default();
    let out = explore_safety_observed(
        checker,
        sys,
        &active,
        p.depth,
        &safety,
        digest,
        |depth, stats| {
            let now = tracer.now_us();
            let (safety_calls, safety_ms) = safety_timer.take();
            let (digest_calls, digest_ms) = digest_timer.take();
            totals.safety.0 += safety_calls;
            totals.safety.1 += safety_ms;
            totals.digest.0 += digest_calls;
            totals.digest.1 += digest_ms;
            let checkpointed = stats.checkpoints_written > last.checkpoints_written;
            tracer.record(
                "engine.level",
                Some(call_id),
                pass,
                (level_start, now),
                vec![
                    ("depth", depth as f64),
                    ("configs", (stats.configs - last.configs) as f64),
                    ("transitions", (stats.transitions - last.transitions) as f64),
                    (
                        "spill_bytes",
                        (stats.spilled_bytes - last.spilled_bytes) as f64,
                    ),
                    ("checkpointed", f64::from(u8::from(checkpointed))),
                    ("safety_calls", safety_calls as f64),
                    ("safety_ms", safety_ms),
                    ("digest_calls", digest_calls as f64),
                    ("digest_ms", digest_ms),
                ],
            );
            levels.push(Level {
                ms: (now - level_start) / 1e3,
                checkpointed,
            });
            level_start = now;
            last = stats.clone();
            true
        },
    );
    // Calls after the last level boundary (the horizon level) belong to
    // the call as a whole.
    let (safety_calls, safety_ms) = safety_timer.take();
    let (digest_calls, digest_ms) = digest_timer.take();
    totals.safety.0 += safety_calls;
    totals.safety.1 += safety_ms;
    totals.digest.0 += digest_calls;
    totals.digest.1 += digest_ms;
    tracer.close(
        call,
        vec![
            ("configs", out.stats.configs as f64),
            ("safety_calls", totals.safety.0 as f64),
            ("digest_calls", totals.digest.0 as f64),
        ],
    );
    totals.levels = levels;
    (out, totals)
}

/// Compares a pass against the known answer; one line per mismatch.
#[must_use]
pub fn check(p: &Params, out: &ExploreOutcome, expected: &Expected) -> Vec<String> {
    let mut failures = Vec::new();
    let got = Expected::of(out);
    if got != *expected {
        failures.push(format!("counts differ: got {got:?}, expected {expected:?}"));
    }
    let s = &out.stats;
    if s.faults_injected != 0 || s.io_retries != 0 || s.degraded_levels != 0 {
        failures.push(format!(
            "I/O was not clean: faults_injected={} io_retries={} degraded_levels={}",
            s.faults_injected, s.io_retries, s.degraded_levels
        ));
    }
    if s.symmetry != (p.mode == Mode::Durable) {
        failures.push(format!("symmetry was {} for {:?}", s.symmetry, p.mode));
    }
    if s.threads != p.threads {
        failures.push(format!(
            "ran on {} threads, pinned {}",
            s.threads, p.threads
        ));
    }
    failures
}

/// Directory holding nothing, or absent.
fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).map_or(true, |mut entries| entries.next().is_none())
}

/// Files in a finished run's checkpoint directory other than its
/// committed image, such as a staging file a commit left behind.
#[must_use]
pub fn stray_checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let image = CheckpointStore::file_path(dir);
    std::fs::read_dir(dir).map_or_else(
        |_| Vec::new(),
        |entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| *p != image)
                .collect()
        },
    )
}

/// Runs the workload: timed passes, each after its set-up repetitions,
/// until `seconds` have been measured (at least `min_passes`). With a tracer,
/// passes alternate between untraced and traced, and the per-layer
/// metrics come from the traced ones.
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    mut tracer: Option<&mut Tracer>,
    work: &Path,
    expected: &Expected,
) -> Outcome {
    let mut outcome = Outcome::default();
    let spill_dir = work.join("spill");
    let ckpt_dir = |pass: usize| -> PathBuf { work.join(format!("ckpt-{pass}")) };
    let inputs = inputs_for_seed(seed);

    let setup = |outcome: &mut Outcome, dir: &Path| {
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let clock = Stopwatch::start();
            let sys = of_system(&inputs);
            let c = checker(p, &spill_dir, Some(dir));
            outcome.setup_secs.push(clock.elapsed().as_secs_f64());
            built = Some((sys, c));
        }
        built.expect("at least one set-up repetition")
    };
    outcome.notes.push(format!(
        "config: {}",
        describe(p, &checker(p, &spill_dir, Some(&ckpt_dir(0))))
    ));
    outcome.notes.push(format!("inputs: {inputs:?}"));

    let mut untraced: Vec<f64> = Vec::new();
    let mut unstolen: Vec<f64> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let (mut timed_secs, mut states) = (0.0, 0usize);
    let mut pass = 0usize;
    while pass < min_passes || timed_secs < seconds {
        let dir = ckpt_dir(pass);
        let (sys, c) = setup(&mut outcome, &dir);
        let traced_pass = if pass % 2 == 1 {
            tracer.as_deref_mut()
        } else {
            None
        };
        let steal = StealMark::now();
        let clock = Stopwatch::start();
        let (out, extra) = match traced_pass {
            Some(t) => {
                let (out, extra) = explore_traced(p, &c, &sys, t, pass as u64);
                (out, Some(extra))
            }
            None => (explore(p, &c, &sys, |_, _| true), None),
        };
        let secs = clock.elapsed().as_secs_f64();
        let stolen = steal.share_since();
        timed_secs += secs;

        let mut failures = check(p, &out, expected);
        let image = CheckpointStore::file_path(&dir);
        let image_bytes = std::fs::metadata(&image).map_or(0, |m| m.len());
        if (p.mode == Mode::Durable) != (image_bytes > 0) {
            failures.push(format!(
                "checkpoint image {} has {image_bytes} bytes",
                image.display()
            ));
        }
        let stray = stray_checkpoint_files(&dir);
        if !stray.is_empty() {
            failures.push(format!("files left beside the checkpoint image: {stray:?}"));
        }
        if dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                failures.push(format!("cannot remove {}: {e}", dir.display()));
            }
        }
        outcome.check(failures);
        if pass == 0 {
            outcome.peak_rss_mb = peak_rss_mb();
        }
        match extra {
            Some(extra) => traced.push(TracedPass {
                secs,
                stats: out.stats,
                image_bytes,
                ..extra
            }),
            None => {
                untraced.push(secs);
                unstolen.push(secs * (1.0 - stolen));
                states += out.stats.configs;
            }
        }
        pass += 1;
    }
    outcome.wall_secs = median(&unstolen);
    outcome.notes.push(format!(
        "timed passes (s): {untraced:.3?}; less steal: {unstolen:.3?}"
    ));
    outcome.notes.push(throughput_note(
        states as f64,
        untraced.iter().sum(),
        "states/s",
    ));
    if !is_empty_dir(&spill_dir) {
        outcome.check(vec![format!("spill files left in {}", spill_dir.display())]);
    }
    if tracer.is_some() {
        layers(p, &mut outcome, &untraced, &traced);
    }
    outcome
}

/// The per-layer metrics of the traced passes.
fn layers(p: &Params, outcome: &mut Outcome, untraced: &[f64], traced: &[TracedPass]) {
    let Some(first) = traced.first() else {
        return;
    };
    let s = &first.stats;
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let all_levels: Vec<&Level> = traced.iter().flat_map(|t| &t.levels).collect();
    let level_ms = |keep: &dyn Fn(&Level) -> bool| {
        percentile(
            &all_levels
                .iter()
                .filter(|l| keep(l))
                .map(|l| l.ms)
                .collect::<Vec<_>>(),
            50.0,
        )
    };
    let untraced_wall = median(untraced);
    let traced_wall = med(&|t| t.secs);
    let safety_ms = med(&|t| t.safety.1);
    let digest_ms = med(&|t| t.digest.1);
    outcome.layer("engine.level_ms_p50", "ms", level_ms(&|_| true));
    outcome.layer(
        "engine.level_ms_max",
        "ms",
        med(&|t| t.levels.iter().map(|l| l.ms).fold(0.0, f64::max)),
    );
    outcome.layer("engine.levels", "count", first.levels.len() as f64);
    outcome.layer("engine.configs", "count", s.configs as f64);
    outcome.layer("engine.transitions", "count", s.transitions as f64);
    outcome.layer("engine.dedup_hits", "count", s.dedup_hits as f64);
    outcome.layer("engine.orbit_hits", "count", s.orbit_hits as f64);
    outcome.layer(
        "engine.fresh_ratio",
        "ratio",
        s.configs as f64 / s.transitions.max(1) as f64,
    );
    outcome.layer("engine.peak_frontier", "count", s.peak_frontier as f64);
    outcome.layer("engine.threads", "count", s.threads as f64);
    outcome.layer("engine.shards", "count", s.shards as f64);
    outcome.layer("engine.spill_bytes", "B", s.spilled_bytes as f64);
    outcome.layer("engine.spill_chunks", "count", s.spilled_chunks as f64);
    outcome.layer(
        "engine.peak_resident_bytes",
        "B",
        s.peak_resident_bytes as f64,
    );
    outcome.layer("engine.degraded_levels", "count", s.degraded_levels as f64);
    outcome.layer("engine.ckpt_images", "count", s.checkpoints_written as f64);
    outcome.layer("engine.ckpt_image_bytes", "B", first.image_bytes as f64);
    outcome.layer(
        "engine.ckpt_level_ms_p50",
        "ms",
        level_ms(&|l| l.checkpointed),
    );
    outcome.layer(
        "engine.plain_level_ms_p50",
        "ms",
        level_ms(&|l| !l.checkpointed),
    );
    outcome.layer("engine.io_retries", "count", s.io_retries as f64);
    outcome.layer("engine.faults_injected", "count", s.faults_injected as f64);
    outcome.layer("explorer.safety_calls", "count", first.safety.0 as f64);
    outcome.layer("explorer.safety_ms", "ms", safety_ms);
    outcome.layer("explorer.digest_calls", "count", first.digest.0 as f64);
    outcome.layer("explorer.digest_ms", "ms", digest_ms);
    // Thread time (wall × kernel threads) not spent in the two wrapped
    // calls: the engine, the substrate and any idle kernel thread.
    outcome.layer(
        "explorer.outside_ms",
        "ms",
        (traced_wall * 1e3 * p.threads as f64 - safety_ms - digest_ms).max(0.0),
    );
    outcome.layer(
        "trace.overhead_x",
        "ratio",
        traced_wall / untraced_wall.max(f64::MIN_POSITIVE),
    );
    outcome.notes.push(format!(
        "traced passes: {} (wall {traced_wall:.3} s median), untraced: {} (wall \
         {untraced_wall:.3} s median)",
        traced.len(),
        untraced.len(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_work_dir as work_dir;
    use slx_core::explorer::baseline::explore_safety_retained;

    const SMALL: usize = 16;

    fn reference(mode: Mode, depth: usize, work: &Path) -> Expected {
        let p = Params {
            mode,
            depth,
            threads: 1,
        };
        let dir = work.join("reference-ckpt");
        let c = checker(&p, &work.join("spill"), Some(&dir));
        let out = explore(&p, &c, &of_system(&inputs_for_seed(0)), |_, _| true);
        let _ = std::fs::remove_dir_all(&dir);
        Expected::of(&out)
    }

    #[test]
    fn seeds_pick_one_smaller_distinct_proposal() {
        assert_eq!(inputs_for_seed(0), [1, 2, 2]);
        assert_eq!(inputs_for_seed(9), inputs_for_seed(9));
        for seed in 0..1000 {
            let [a, b, c] = inputs_for_seed(seed);
            assert!(
                1 <= a && a < b && b == c && c <= 63,
                "seed {seed}: {a} {b} {c}"
            );
        }
    }

    #[test]
    fn engine_counts_match_the_retained_baseline() {
        let work = work_dir("baseline");
        let p = Params {
            mode: Mode::Resident,
            depth: SMALL,
            threads: 2,
        };
        let sys = of_system(&inputs_for_seed(0));
        let c = checker(&p, &work.join("spill"), None);
        let engine = explore(&p, &c, &sys, |_, _| true);
        let active: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let retained = explore_safety_retained(
            &sys,
            &active,
            SMALL,
            &ConsensusSafety::new(),
            history_digest,
        );
        assert_eq!(engine.configs, retained.configs);
        assert_eq!(engine.holds(), retained.holds());
        assert_eq!(engine.truncated, retained.truncated);
        std::fs::remove_dir_all(&work).expect("clean test dir");
    }

    #[test]
    fn every_seed_gives_the_same_counts() {
        let work = work_dir("seeds");
        for mode in [Mode::Resident, Mode::Durable] {
            let expected = reference(mode, SMALL, &work);
            let p = Params {
                mode,
                depth: SMALL,
                threads: 2,
            };
            for seed in 0..6 {
                let dir = work.join(format!("ckpt-{seed}"));
                let c = checker(&p, &work.join("spill"), Some(&dir));
                let out = explore(&p, &c, &of_system(&inputs_for_seed(seed)), |_, _| true);
                assert_eq!(Expected::of(&out), expected, "{mode:?} seed {seed}");
            }
        }
        std::fs::remove_dir_all(&work).expect("clean test dir");
    }

    #[test]
    fn reduced_passes_check_clean_and_trace() {
        for mode in [Mode::Resident, Mode::Durable] {
            let work = work_dir(&format!("{mode:?}"));
            let expected = reference(mode, SMALL, &work);
            let p = Params {
                mode,
                depth: SMALL,
                threads: 2,
            };
            let mut tracer = Tracer::new();
            let out = run(&p, 3, 0.0, 2, Some(&mut tracer), &work, &expected);
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            assert_eq!(out.attempted, 2);
            let names: Vec<&str> = out.layers.iter().map(|m| m.name).collect();
            assert!(names.contains(&"engine.level_ms_p50"));
            assert!(names.contains(&"trace.overhead_x"));
            let spans = tracer.spans();
            assert!(spans.iter().any(|s| s.name == "engine.level"));
            assert!(spans
                .iter()
                .filter(|s| s.name == "engine.level")
                .all(|s| s.parent.is_some()));
            let value = |name: &str| {
                out.layers
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .unwrap_or(f64::NAN)
            };
            assert_eq!(value("engine.configs"), expected.configs as f64);
            if mode == Mode::Resident {
                assert_eq!(value("engine.spill_bytes"), 0.0);
                assert_eq!(value("engine.ckpt_images"), 0.0);
            } else {
                assert!(value("engine.ckpt_image_bytes") > 0.0);
            }
            assert!(is_empty_dir(&work.join("spill")));
            std::fs::remove_dir_all(&work).expect("clean test dir");
        }
    }

    #[test]
    fn a_leftover_staging_file_is_reported() {
        let work = work_dir("stray");
        std::fs::write(CheckpointStore::file_path(&work), b"image").expect("image");
        assert!(stray_checkpoint_files(&work).is_empty());
        let staging = work.join("slx-checkpoint.bin.tmp");
        std::fs::write(&staging, b"torn").expect("staging file");
        assert_eq!(stray_checkpoint_files(&work), vec![staging]);
        std::fs::remove_dir_all(&work).expect("clean test dir");
    }

    #[test]
    fn a_wrong_expected_count_fails_the_check() {
        let work = work_dir("negative");
        let mut expected = reference(Mode::Resident, SMALL, &work);
        expected.configs += 1;
        let p = Params {
            mode: Mode::Resident,
            depth: SMALL,
            threads: 1,
        };
        let out = run(&p, 0, 0.0, 1, None, &work, &expected);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.failures[0].contains("counts differ"));
        std::fs::remove_dir_all(&work).expect("clean test dir");
    }
}
