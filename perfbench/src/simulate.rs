//! `simulate-tm`: the `fig_ablation` matrix on the simulation substrate.
//!
//! Four transactional memories (global-version, I(1,2) over a snapshot
//! object, I(1,2) over a double collect, the lock baseline) crossed with
//! n ∈ {1, 2, 3, 4, 8}, each driven for 10,000 scheduler events by
//! `System::run` under the contended `RepeatTxn` workload with a
//! `FairRandom` scheduler seeded from `--seed`. The engine never runs;
//! nearly all the time is in the scheduler and the TM processes.

use slx_bench::{agp_system, contended_scheduler, gv_system, lock_system};
use slx_core::engine::Stopwatch;
use slx_core::history::{History, ProcessId, Value};
use slx_core::memory::{
    Decision, FairRandom, Memory, Process, RepeatTxn, RunStats, Scheduler, System,
    WorkloadScheduler,
};
use slx_core::safety::certify_unique_writes;
use slx_core::tm::{AgpTmDc, TmWord};

use crate::report::{peak_rss_mb, throughput_note, Outcome, StealMark};
use crate::stats::median;
use crate::trace::Tracer;

/// Scheduler events per system in the full-size workload.
pub const EVENTS: u64 = 10_000;
/// Process counts of the matrix.
pub const NS: [usize; 5] = [1, 2, 3, 4, 8];
/// The `FairRandom` seed of the `fig_ablation` table.
pub const TABLE_SEED: u64 = 11;
/// Set-up repetitions before each pass; `setup_s` is the median of all
/// of them. One set-up takes microseconds, so the repetitions are spread
/// over the run's passes instead of sampling one instant of the host.
const SETUP_REPS: usize = 10;

/// The transactional memories of the matrix, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tm {
    /// Global-version TM, timestamp rule off.
    GlobalVersion,
    /// Algorithm I(1,2) over a snapshot object.
    Snapshot,
    /// Algorithm I(1,2) over a double collect.
    DoubleCollect,
    /// The lock-based baseline.
    Lock,
}

/// Table order within each process count.
pub const TMS: [Tm; 4] = [Tm::GlobalVersion, Tm::Snapshot, Tm::DoubleCollect, Tm::Lock];

/// `(commits, aborts)` per cell of `fig_ablation` at 10,000 events with
/// seed 11, in matrix order (n outer, TM inner).
pub const TABLE: [(u64, u64); 20] = [
    (1250, 0),
    (1000, 0),
    (909, 0),
    (1000, 0),
    (739, 510),
    (594, 405),
    (415, 327),
    (665, 0),
    (542, 707),
    (331, 725),
    (216, 392),
    (499, 0),
    (445, 803),
    (214, 863),
    (132, 348),
    (394, 0),
    (268, 978),
    (81, 1015),
    (33, 188),
    (219, 0),
];

type Sched = WorkloadScheduler<RepeatTxn, FairRandom>;

/// One system of the matrix with its scheduler, ready to run.
enum Sim {
    GlobalVersion(System<TmWord, slx_core::tm::GlobalVersionTm>, Sched),
    Snapshot(System<TmWord, slx_core::tm::AgpTm>, Sched),
    DoubleCollect(System<TmWord, AgpTmDc>, Sched),
    Lock(System<TmWord, slx_core::tm::LockTm>, Sched),
}

/// The double-collect system, built as `fig_ablation` builds it.
fn agp_dc_system(n: usize) -> System<TmWord, AgpTmDc> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (c, r) = AgpTmDc::alloc(&mut mem, n, 1);
    let procs = (0..n)
        .map(|i| AgpTmDc::new(c, r.clone(), ProcessId::new(i), 1))
        .collect();
    System::new(mem, procs)
}

impl Sim {
    fn new(tm: Tm, n: usize, seed: u64) -> Sim {
        let sched = contended_scheduler(n, seed);
        match tm {
            Tm::GlobalVersion => Sim::GlobalVersion(gv_system(n), sched),
            Tm::Snapshot => Sim::Snapshot(agp_system(n), sched),
            Tm::DoubleCollect => Sim::DoubleCollect(agp_dc_system(n), sched),
            Tm::Lock => Sim::Lock(lock_system(n), sched),
        }
    }

    /// Runs `events` scheduler events; with `timed`, through the timing
    /// adapter.
    fn run(&mut self, events: u64, timed: Option<&mut DecideTimer>) -> RunStats {
        fn go<P: Process<TmWord>>(
            sys: &mut System<TmWord, P>,
            sched: &mut Sched,
            events: u64,
            timed: Option<&mut DecideTimer>,
        ) -> RunStats {
            match timed {
                Some(timer) => sys.run(
                    &mut TimedScheduler {
                        inner: sched,
                        timer,
                    },
                    events,
                ),
                None => sys.run(sched, events),
            }
        }
        match self {
            Sim::GlobalVersion(sys, s) => go(sys, s, events, timed),
            Sim::Snapshot(sys, s) => go(sys, s, events, timed),
            Sim::DoubleCollect(sys, s) => go(sys, s, events, timed),
            Sim::Lock(sys, s) => go(sys, s, events, timed),
        }
    }

    fn history(&self) -> &History {
        match self {
            Sim::GlobalVersion(sys, _) => sys.history(),
            Sim::Snapshot(sys, _) => sys.history(),
            Sim::DoubleCollect(sys, _) => sys.history(),
            Sim::Lock(sys, _) => sys.history(),
        }
    }
}

/// Decide-call timings of one run: the total, and the sums over the
/// first and the last tenth of the calls.
#[derive(Debug, Clone, Default)]
struct DecideTimer {
    events: u64,
    calls: u64,
    total_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

/// A scheduler adapter that times every `decide` of the one it wraps.
struct TimedScheduler<'a, S> {
    inner: &'a mut S,
    timer: &'a mut DecideTimer,
}

impl<W, P, S> Scheduler<W, P> for TimedScheduler<'_, S>
where
    W: slx_core::memory::Word,
    P: Process<W>,
    S: Scheduler<W, P>,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        let clock = Stopwatch::start();
        let decision = self.inner.decide(sys);
        let ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t = &mut *self.timer;
        let tenth = (t.events / 10).max(1);
        if t.calls < tenth {
            t.first_ns += ns;
        } else if t.calls >= t.events.saturating_sub(tenth) {
            t.last_ns += ns;
        }
        t.total_ns += ns;
        t.calls += 1;
        decision
    }
}

/// Commit and abort responses in a history.
#[must_use]
pub fn commits_aborts(h: &History) -> (u64, u64) {
    h.iter()
        .filter_map(|a| a.as_respond())
        .fold((0, 0), |(c, a), r| {
            (c + u64::from(r.is_commit()), a + u64::from(r.is_abort()))
        })
}

/// What one cell of a pass produced.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Wall-clock of the cell's `System::run`, seconds, less the host's
    /// steal share over its pass.
    pub secs: f64,
    /// Commit responses.
    pub commits: u64,
    /// Abort responses.
    pub aborts: u64,
    /// Scheduler events executed.
    pub events: u64,
    /// History length, actions.
    pub actions: usize,
}

/// Checks one history: well-formed and certified opaque.
fn check_history(h: &History, label: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if !h.is_well_formed() {
        failures.push(format!("{label}: history is not well-formed"));
    }
    if !certify_unique_writes(h, Value::new(0)) {
        failures.push(format!(
            "{label}: certify_unique_writes rejected the history"
        ));
    }
    failures
}

/// Compares a pass's counts against `expected`; one line per mismatch.
#[must_use]
pub fn check_counts(cells: &[Cell], expected: &[(u64, u64)]) -> Vec<String> {
    let mut failures = Vec::new();
    if cells.len() != expected.len() {
        failures.push(format!(
            "{} cells, expected {}",
            cells.len(),
            expected.len()
        ));
    }
    for (i, (cell, &(commits, aborts))) in cells.iter().zip(expected).enumerate() {
        if (cell.commits, cell.aborts) != (commits, aborts) {
            failures.push(format!(
                "cell {i}: {} commits / {} aborts, expected {commits} / {aborts}",
                cell.commits, cell.aborts
            ));
        }
    }
    failures
}

/// The size of one pass.
#[derive(Debug, Clone)]
pub struct Params {
    /// Scheduler events per system.
    pub events: u64,
    /// Process counts.
    pub ns: Vec<usize>,
}

impl Params {
    /// The full-size matrix.
    #[must_use]
    pub fn full() -> Self {
        Params {
            events: EVENTS,
            ns: NS.to_vec(),
        }
    }
}

/// Per-pass timings of a traced pass.
#[derive(Debug, Clone, Default)]
struct TracedPass {
    run_ms: f64,
    decide_ms: f64,
    first_ns: u64,
    last_ns: u64,
    certify_ms: f64,
}

/// Every system of the matrix with its scheduler, in matrix order.
fn build(p: &Params, seed: u64) -> Vec<(Tm, usize, Sim)> {
    p.ns.iter()
        .flat_map(|&n| TMS.iter().map(move |&tm| (tm, n, Sim::new(tm, n, seed))))
        .collect()
}

/// Builds the matrix [`SETUP_REPS`] times, timing each build into
/// `setup_s`, and returns the last.
fn setup(p: &Params, seed: u64, outcome: &mut Outcome) -> Vec<(Tm, usize, Sim)> {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let clock = Stopwatch::start();
        let sims = build(p, seed);
        outcome.setup_secs.push(clock.elapsed().as_secs_f64());
        built = Some(sims);
    }
    built.expect("at least one set-up repetition")
}

/// One pass: runs every system of `sims` for `p.events` events (timed),
/// then checks every history. Returns the cells and the wall-clock
/// seconds of the runs.
fn pass(
    p: &Params,
    mut sims: Vec<(Tm, usize, Sim)>,
    seed: u64,
    index: u64,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
    traced: &mut TracedPass,
) -> (Vec<Cell>, f64) {
    let mut cells = Vec::with_capacity(sims.len());

    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("simulate.pass", None, index));
    let steal = StealMark::now();
    let clock = Stopwatch::start();
    let mut stats = Vec::with_capacity(sims.len());
    for (tm, n, sim) in &mut sims {
        match (tracer.as_deref_mut(), &span) {
            (Some(t), Some(parent)) => {
                let mut timer = DecideTimer {
                    events: p.events,
                    ..DecideTimer::default()
                };
                let run = t.open("memory.run", Some(parent.id()), index);
                let run_clock = Stopwatch::start();
                let s = sim.run(p.events, Some(&mut timer));
                let secs = run_clock.elapsed().as_secs_f64();
                let run_ms = secs * 1e3;
                let decide_ms = timer.total_ns as f64 / 1e6;
                t.close(
                    run,
                    vec![
                        ("tm", tm_index(*tm)),
                        ("n", *n as f64),
                        ("events", (s.steps + s.invocations + s.crashes) as f64),
                        ("decide_ms", decide_ms),
                        ("step_ms", run_ms - decide_ms),
                    ],
                );
                traced.run_ms += run_ms;
                traced.decide_ms += decide_ms;
                traced.first_ns += timer.first_ns;
                traced.last_ns += timer.last_ns;
                stats.push((s, secs));
            }
            _ => {
                let run_clock = Stopwatch::start();
                let s = sim.run(p.events, None);
                stats.push((s, run_clock.elapsed().as_secs_f64()));
            }
        }
    }
    let timed = clock.elapsed().as_secs_f64();
    let unstolen = 1.0 - steal.share_since();
    let pass_id = span.as_ref().map(|s| s.id());
    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
        t.close(span, vec![("cells", sims.len() as f64)]);
    }

    for ((tm, n, sim), (s, secs)) in sims.iter().zip(&stats) {
        let h = sim.history();
        let (commits, aborts) = commits_aborts(h);
        cells.push(Cell {
            secs: secs * unstolen,
            commits,
            aborts,
            events: s.steps + s.invocations + s.crashes,
            actions: h.len(),
        });
        let label = format!("{tm:?} n={n} seed={seed}");
        let failures = match tracer.as_deref_mut() {
            Some(t) => {
                let span = t.open("safety.certify", pass_id, index);
                let clock = Stopwatch::start();
                let failures = check_history(h, &label);
                traced.certify_ms += clock.elapsed().as_secs_f64() * 1e3;
                t.close(span, vec![("actions", h.len() as f64)]);
                failures
            }
            None => check_history(h, &label),
        };
        outcome.check(failures);
    }
    (cells, timed)
}

fn tm_index(tm: Tm) -> f64 {
    TMS.iter().position(|&t| t == tm).unwrap_or(0) as f64
}

/// Runs the workload: a warm-up pass at the table seed checked against
/// the `fig_ablation` table, then passes at `seed` until `seconds` have
/// been measured (at least `min_passes`). Every pass must repeat the
/// first pass's counts exactly. With a tracer, passes alternate between
/// untraced and traced.
///
/// `wall_s` is the sum over cells of each cell's median run time: a
/// burst of interference then costs only the cells it hit, not a whole
/// matrix.
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    mut tracer: Option<&mut Tracer>,
    table: Option<&[(u64, u64)]>,
) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.notes.push(format!(
        "config: events={} ns={:?} tms={TMS:?} scheduler=FairRandom({seed}) workload=RepeatTxn(x1)",
        p.events, p.ns
    ));
    if let Some(table) = table {
        let (cells, _) = pass(
            p,
            build(p, TABLE_SEED),
            TABLE_SEED,
            0,
            None,
            &mut outcome,
            &mut TracedPass::default(),
        );
        outcome.check(check_counts(&cells, table));
    }
    let mut peak_rss = None;

    let mut first: Option<Vec<Cell>> = None;
    let mut untraced: Vec<Vec<Cell>> = Vec::new();
    let mut traced: Vec<(f64, TracedPass)> = Vec::new();
    let mut pass_secs: Vec<f64> = Vec::new();
    let (mut timed_secs, mut events) = (0.0, 0u64);
    let mut index = 0u64;
    while (index as usize) < min_passes || timed_secs < seconds {
        let t = if index % 2 == 1 {
            tracer.as_deref_mut()
        } else {
            None
        };
        let is_traced = t.is_some();
        let mut tp = TracedPass::default();
        let sims = setup(p, seed, &mut outcome);
        let (cells, secs) = pass(p, sims, seed, index + 1, t, &mut outcome, &mut tp);
        timed_secs += secs;
        peak_rss.get_or_insert_with(peak_rss_mb);
        match &first {
            None => first = Some(cells.clone()),
            Some(first) => {
                let expected: Vec<(u64, u64)> =
                    first.iter().map(|c| (c.commits, c.aborts)).collect();
                outcome.check(check_counts(&cells, &expected));
            }
        }
        if is_traced {
            traced.push((secs, tp));
        } else {
            events += cells.iter().map(|c| c.events).sum::<u64>();
            pass_secs.push(secs);
            untraced.push(cells);
        }
        index += 1;
    }
    outcome.peak_rss_mb = peak_rss.unwrap_or_default();
    let cell_count = untraced.first().map_or(0, Vec::len);
    outcome.wall_secs = (0..cell_count)
        .map(|i| median(&untraced.iter().map(|pass| pass[i].secs).collect::<Vec<_>>()))
        .sum();
    outcome
        .notes
        .push(format!("timed passes (s): {pass_secs:.3?}"));
    outcome.notes.push(throughput_note(
        events as f64,
        pass_secs.iter().sum(),
        "events/s",
    ));
    if let (Some(first), false) = (&first, traced.is_empty()) {
        layers(&mut outcome, first, &pass_secs, &traced);
    }
    outcome
}

/// The per-layer metrics of the traced passes.
fn layers(outcome: &mut Outcome, cells: &[Cell], untraced: &[f64], traced: &[(f64, TracedPass)]) {
    let med =
        |f: &dyn Fn(&(f64, TracedPass)) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let commits: u64 = cells.iter().map(|c| c.commits).sum();
    let aborts: u64 = cells.iter().map(|c| c.aborts).sum();
    outcome.layer(
        "memory.events",
        "count",
        cells.iter().map(|c| c.events).sum::<u64>() as f64,
    );
    outcome.layer("memory.decide_ms", "ms", med(&|t| t.1.decide_ms));
    outcome.layer("memory.step_ms", "ms", med(&|t| t.1.run_ms - t.1.decide_ms));
    outcome.layer(
        "memory.decide_growth",
        "ratio",
        med(&|t| t.1.last_ns as f64 / t.1.first_ns.max(1) as f64),
    );
    outcome.layer("memory.commits", "count", commits as f64);
    outcome.layer("memory.aborts", "count", aborts as f64);
    outcome.layer(
        "memory.commit_ratio",
        "ratio",
        commits as f64 / (commits + aborts).max(1) as f64,
    );
    outcome.layer("safety.certify_ms", "ms", med(&|t| t.1.certify_ms));
    outcome.layer(
        "safety.history_actions",
        "count",
        cells.iter().map(|c| c.actions).sum::<usize>() as f64,
    );
    let traced_wall = med(&|t| t.0);
    let untraced_wall = median(untraced);
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

    fn small() -> Params {
        Params {
            events: 400,
            ns: vec![1, 2, 3],
        }
    }

    #[test]
    fn reduced_passes_check_clean_and_trace() {
        let mut tracer = Tracer::new();
        let out = run(&small(), 5, 0.0, 2, Some(&mut tracer), None);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // 12 histories per pass, plus one repeat-count check.
        assert_eq!(out.attempted, 25);
        let names: Vec<&str> = out.layers.iter().map(|m| m.name).collect();
        assert!(names.contains(&"memory.decide_growth"));
        assert!(names.contains(&"safety.certify_ms"));
        let spans = tracer.spans();
        let runs = spans.iter().filter(|s| s.name == "memory.run").count();
        assert_eq!(runs, 12);
        assert!(spans
            .iter()
            .filter(|s| s.name == "memory.run")
            .all(|s| s.parent.is_some()));
    }

    #[test]
    fn table_seed_reproduces_the_first_row_at_full_size() {
        let p = Params {
            events: EVENTS,
            ns: vec![1],
        };
        let out = run(&p, 1, 0.0, 1, None, Some(&TABLE[..4]));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
    }

    #[test]
    fn a_wrong_expected_count_fails_the_check() {
        let p = small();
        let mut outcome = Outcome::default();
        let (cells, _) = pass(
            &p,
            build(&p, 3),
            3,
            0,
            None,
            &mut outcome,
            &mut TracedPass::default(),
        );
        let mut expected: Vec<(u64, u64)> = cells.iter().map(|c| (c.commits, c.aborts)).collect();
        assert!(check_counts(&cells, &expected).is_empty());
        expected[2].0 += 1;
        let failures = check_counts(&cells, &expected);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("cell 2:"));
    }

    #[test]
    fn a_history_with_a_duplicate_invocation_fails_the_check() {
        use slx_core::history::{Action, Operation};
        let p0 = ProcessId::new(0);
        let h = History::from_actions([
            Action::invoke(p0, Operation::TxStart),
            Action::invoke(p0, Operation::TxStart),
        ]);
        let failures = check_history(&h, "bad");
        assert!(failures.iter().any(|f| f.contains("not well-formed")));
    }
}
