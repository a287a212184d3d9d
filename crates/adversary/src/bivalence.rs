//! The valence-computing adversary against register-based consensus.
//!
//! The adversary's inner loop is thousands of valence model-checking
//! queries; since the `slx-engine` refactor they run on the shared
//! fingerprint-based exploration kernel (one [`slx_engine::Checker`] is
//! reused across the whole run).

use std::hash::Hash;

use slx_consensus::{ConsWord, ObstructionFreeConsensus, OfNormalizedState};
use slx_engine::{Checker, DeltaCodec};
use slx_explorer::decidable_values_with;
use slx_history::{Action, History, ProcessId, Value};
use slx_memory::{Decision, Process, Scheduler, StepEffect, System, Word};

/// Report of a [`run_bivalence_adversary`] run.
#[derive(Debug, Clone)]
pub struct BivalenceReport {
    /// Steps the adversary scheduled.
    pub steps: u64,
    /// Per-process step counts (both must grow for the (1,2)-freedom
    /// violation to be about two *steppers*).
    pub step_counts: Vec<u64>,
    /// Whether any process decided (the adversary *loses* if so).
    pub decided: bool,
    /// Whether every configuration along the path had two witnessed
    /// decidable values (the Chor–Israeli–Li invariant).
    pub bivalent_throughout: bool,
    /// The driven history.
    pub history: History,
    /// Total configurations model-checked across all valence queries — the
    /// work the exploration kernel discharged for this run.
    pub valence_configs: u64,
}

impl BivalenceReport {
    /// Whether the adversary succeeded: it kept the implementation from
    /// deciding for the whole budget while both processes kept stepping
    /// and every configuration remained (witnessed) bivalent.
    pub fn adversary_won(&self) -> bool {
        !self.decided && self.bivalent_throughout && self.step_counts.iter().all(|&c| c > 0)
    }
}

/// Runs the **Chor–Israeli–Li adversary** against an arbitrary
/// deterministic consensus implementation (provided as a configured
/// [`System`] whose two `active` processes have already proposed two
/// *different* values).
///
/// At every turn the adversary model-checks each candidate step (via
/// [`decidable_values`]) and schedules a process whose step keeps the
/// configuration bivalent, preferring the process with fewer steps so far
/// so both step infinitely often. The CIL theorem guarantees such a step
/// exists for implementations from registers; if none is found within the
/// valence budget the run reports `bivalent_throughout = false` (which
/// would falsify the experiment loudly rather than silently).
///
/// A successful run of `budget` steps is the finite prefix of an infinite
/// execution in which both processes take infinitely many steps and
/// neither ever decides — the (1,2)-freedom violation of Theorem 5.2, and
/// the mechanical core of Corollaries 4.5/4.10.
pub fn run_bivalence_adversary<W, P>(
    sys: &mut System<W, P>,
    active: &[ProcessId],
    budget: u64,
    valence_budget: usize,
) -> BivalenceReport
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    run_bivalence_adversary_with(&Checker::auto(), sys, active, budget, valence_budget)
}

/// [`run_bivalence_adversary`] on an explicit exploration-kernel checker
/// for the inner valence queries — so the adversary's thousands of
/// model-checking runs can be pinned to a thread/shard configuration or
/// to a frontier memory budget (any spill codec, including replay
/// recompute-from-parent; the replay differential test drives exactly
/// that).
pub fn run_bivalence_adversary_with<W, P>(
    checker: &Checker,
    sys: &mut System<W, P>,
    active: &[ProcessId],
    budget: u64,
    valence_budget: usize,
) -> BivalenceReport
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    let mut report = BivalenceReport {
        steps: 0,
        step_counts: vec![0; sys.n()],
        decided: false,
        bivalent_throughout: true,
        history: History::new(),
        valence_configs: 0,
    };

    for _ in 0..budget {
        // Candidates ordered fairest-first.
        let mut candidates: Vec<ProcessId> = active
            .iter()
            .copied()
            .filter(|&p| sys.can_step(p))
            .collect();
        candidates.sort_by_key(|p| report.step_counts[p.index()]);
        let mut moved = false;
        for p in candidates {
            let mut next = sys.clone();
            let effect = next.step(p).expect("steppable");
            if matches!(effect, StepEffect::Responded(_)) {
                // Stepping p would decide now; a bivalence-preserving
                // adversary never takes that edge.
                continue;
            }
            let d = decidable_values_with(checker, &next, active, valence_budget);
            report.valence_configs += d.configs as u64;
            if d.bivalent() {
                *sys = next;
                report.steps += 1;
                report.step_counts[p.index()] += 1;
                moved = true;
                break;
            }
        }
        if !moved {
            // No bivalence-preserving step found within budget.
            report.bivalent_throughout = false;
            break;
        }
    }
    report.decided = sys
        .history()
        .iter()
        .any(|a| matches!(a, slx_history::Action::Respond { .. }));
    report.history = sys.history().clone();
    report
}

/// The Chor–Israeli–Li adversary as a deterministic [`Scheduler`]: it
/// first issues each configured proposal, then at every decision clones
/// the system, model-checks each candidate step with
/// [`decidable_values_with`], and steps the least-stepped process whose
/// step keeps the configuration bivalent (halting if none exists — which,
/// against register-based consensus, the CIL theorem rules out — or if
/// any process ever decides, which means the adversary lost).
/// Issuing the invocations from inside the scheduler puts them *in the
/// detected lasso's stem*, so liveness evaluation on the cycle sees the
/// processes as pending-and-denied rather than inactive.
///
/// [`run_bivalence_adversary`] drives the same strategy imperatively and
/// reports a *finite prefix*; this scheduler form plugs into the keyed
/// cycle detector (`slx_explorer::run_until_cycle_keyed`) instead, which
/// upgrades the finite prefix to a **lasso**: an infinite execution in
/// which both processes step forever and nobody ever decides — the
/// (1,2)-freedom violation of Theorem 5.2 with no finite-run
/// approximation left, matching the TM starvation lasso of Section 4.1.
///
/// Its decisions depend on its step counters only through their relative
/// order, so [`BivalenceScheduler::normalized_counts`] (counters rebased
/// to their minimum) is the right cycle-detection key component.
///
/// One scheduler drives one system: it keeps a cursor into that system's
/// append-only history and reads only the actions appended since its
/// previous consultation.
#[derive(Debug, Clone)]
pub struct BivalenceScheduler {
    proposals: Vec<(ProcessId, Value)>,
    active: Vec<ProcessId>,
    step_counts: Vec<u64>,
    checker: Checker,
    valence_budget: usize,
    /// How many history actions earlier consultations have read.
    seen: usize,
    /// Whether an active process has responded (decided) so far.
    decided: bool,
}

impl BivalenceScheduler {
    /// Creates the scheduler: it will invoke `Propose(v)` for each
    /// `(process, v)` pair (the values should differ, or there is nothing
    /// to keep bivalent), then schedule bivalence-preserving steps, with
    /// a per-query valence budget.
    #[must_use]
    pub fn new(proposals: Vec<(ProcessId, Value)>, valence_budget: usize) -> Self {
        let active: Vec<ProcessId> = proposals.iter().map(|&(p, _)| p).collect();
        let slots = active.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        BivalenceScheduler {
            proposals,
            step_counts: vec![0; slots],
            active,
            checker: Checker::auto(),
            valence_budget,
            seen: 0,
            decided: false,
        }
    }

    /// Steps scheduled per process so far.
    #[must_use]
    pub fn step_counts(&self) -> &[u64] {
        &self.step_counts
    }

    /// The **active** processes' step counters (in proposal order),
    /// rebased to their minimum. The scheduler's behaviour depends on the
    /// counters only through their order, which the rebase preserves — so
    /// this is the shift-free key component for cycle detection, exactly
    /// like `slx_tm::normalize`'s timestamp rebase. Only active slots
    /// participate: the backing vector is indexed by raw process id, and
    /// an inactive id below the highest active one would otherwise pin
    /// the minimum at a phantom zero, leaving the rebased counters
    /// growing forever and the cycle key never repeating.
    #[must_use]
    pub fn normalized_counts(&self) -> Vec<u64> {
        let min = self
            .active
            .iter()
            .map(|p| self.step_counts[p.index()])
            .min()
            .unwrap_or(0);
        self.active
            .iter()
            .map(|p| self.step_counts[p.index()] - min)
            .collect()
    }
}

impl<W, P> Scheduler<W, P> for BivalenceScheduler
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        // The adversary lost the moment anyone decided. Only the actions
        // appended since the last consultation need reading.
        let actions = sys.history().actions();
        let active = &self.active;
        self.decided |= actions[self.seen..]
            .iter()
            .any(|a| matches!(a, Action::Respond { proc, .. } if active.contains(proc)));
        self.seen = actions.len();
        if self.decided {
            return Decision::Halt;
        }
        // Issue outstanding proposals first (processes here never respond,
        // so "not pending" means "not yet proposed").
        for &(p, v) in &self.proposals {
            if !sys.is_pending(p) {
                return Decision::Invoke(p, slx_history::Operation::Propose(v));
            }
        }
        let mut candidates: Vec<ProcessId> = self
            .active
            .iter()
            .copied()
            .filter(|&p| sys.can_step(p))
            .collect();
        candidates.sort_by_key(|p| self.step_counts[p.index()]);
        for p in candidates {
            let mut next = sys.clone();
            let effect = next.step(p).expect("steppable");
            if matches!(effect, StepEffect::Responded(_)) {
                // Stepping p would decide now; a bivalence-preserving
                // adversary never takes that edge.
                continue;
            }
            let d = decidable_values_with(&self.checker, &next, &self.active, self.valence_budget);
            if d.bivalent() {
                self.step_counts[p.index()] += 1;
                return Decision::Step(p);
            }
        }
        // No bivalence-preserving step within budget: the adversary is
        // beaten (or the valence budget too small) — halt loudly.
        Decision::Halt
    }
}

/// The round-shift-normalized cycle-detection key for an
/// [`ObstructionFreeConsensus`] system driven by a
/// [`BivalenceScheduler`]: the algorithm-side
/// [`slx_consensus::round_shift_key`] (which owns the normalization —
/// the round-shift invariance is a property of the consensus algorithm,
/// not of this adversary) joined with the scheduler's
/// [`BivalenceScheduler::normalized_counts`].
///
/// Raw configurations never repeat under the adversary: processes adopt
/// forever and climb through fresh commit-adopt rounds. A repeat of this
/// key witnesses a genuine infinite execution — under the scheduler
/// every proposal is issued up front, so no later invocation can
/// re-enter a round below the key's window base — provided the layout
/// has round headroom left (the detector's run would panic on exhaustion
/// rather than mis-report).
#[must_use]
pub fn normalized_of_consensus_key(
    sys: &System<ConsWord, ObstructionFreeConsensus>,
    sched: &BivalenceScheduler,
) -> (Vec<OfNormalizedState>, Vec<ConsWord>, ConsWord, Vec<u64>) {
    let (states, window, decision) = slx_consensus::round_shift_key(sys);
    (states, window, decision, sched.normalized_counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_consensus::CasConsensus;
    use slx_history::{Operation, Value};
    use slx_memory::Memory;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }

    #[test]
    fn adversary_starves_register_consensus() {
        // Corollary 4.5 / Theorem 5.2, excluded side: the adversary keeps
        // the obstruction-free register consensus undecided for the whole
        // budget, with both processes stepping.
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
        let procs = vec![
            ObstructionFreeConsensus::new(layout.clone(), p(0), 2),
            ObstructionFreeConsensus::new(layout, p(1), 2),
        ];
        let mut sys = System::new(mem, procs);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let report = run_bivalence_adversary(&mut sys, &[p(0), p(1)], 150, 60_000);
        assert!(
            report.adversary_won(),
            "decided={} bivalent={} counts={:?}",
            report.decided,
            report.bivalent_throughout,
            report.step_counts
        );
        assert_eq!(report.steps, 150);
        // Both processes are still pending: nobody decided.
        assert!(report.history.pending(p(0)));
        assert!(report.history.pending(p(1)));
    }

    #[test]
    fn adversary_verdict_survives_replay_spilled_valence_queries() {
        // The adversary's inner loop is thousands of valence
        // model-checking runs; pin them to a tiny frontier budget with
        // replay (recompute-from-parent) spill records and the driven
        // schedule must not change at all: same steps, same history, same
        // model-checking work.
        use slx_engine::SpillCodec;
        let scenario = || {
            let mut mem: Memory<ConsWord> = Memory::new();
            let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
            let procs = vec![
                ObstructionFreeConsensus::new(layout.clone(), p(0), 2),
                ObstructionFreeConsensus::new(layout, p(1), 2),
            ];
            let mut sys = System::new(mem, procs);
            sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
            sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
            sys
        };
        let mut resident_sys = scenario();
        let resident = run_bivalence_adversary_with(
            &Checker::parallel_bfs(1).with_mem_budget(0),
            &mut resident_sys,
            &[p(0), p(1)],
            40,
            60_000,
        );
        assert!(resident.adversary_won(), "baseline must win");
        let mut replay_sys = scenario();
        let replayed = run_bivalence_adversary_with(
            &Checker::parallel_bfs(1)
                .with_mem_budget(2048)
                .with_spill_codec(SpillCodec::Replay),
            &mut replay_sys,
            &[p(0), p(1)],
            40,
            60_000,
        );
        assert!(replayed.adversary_won());
        assert_eq!(replayed.steps, resident.steps);
        assert_eq!(replayed.step_counts, resident.step_counts);
        assert_eq!(replayed.history, resident.history);
        assert_eq!(replayed.valence_configs, resident.valence_configs);
    }

    /// A fresh OF-consensus system with *no* proposals issued yet: the
    /// [`BivalenceScheduler`] invokes them itself, so they land inside
    /// the detected lasso's stem.
    fn of_system(max_rounds: usize) -> System<ConsWord, ObstructionFreeConsensus> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 2, max_rounds);
        let procs = vec![
            ObstructionFreeConsensus::new(layout.clone(), p(0), 2),
            ObstructionFreeConsensus::new(layout, p(1), 2),
        ];
        System::new(mem, procs)
    }

    fn cil_scheduler() -> BivalenceScheduler {
        BivalenceScheduler::new(vec![(p(0), v(1)), (p(1), v(2))], 60_000)
    }

    #[test]
    fn bivalence_lasso_proves_eternal_starvation() {
        // Corollary 4.10 upgraded from a finite prefix to a lasso: the
        // scheduler form of the CIL adversary, keyed modulo a round
        // shift, repeats — so the starvation is an infinite execution
        // `stem · cycle^ω` with both processes stepping forever and no
        // response ever issued, violating (1,2)-freedom exactly.
        let mut sys = of_system(64);
        let mut sched = cil_scheduler();
        let witness = slx_explorer::run_until_cycle_keyed(
            &mut sys,
            &mut sched,
            300,
            normalized_of_consensus_key,
        )
        .expect("the CIL adversary must drive a round-shift cycle");
        assert_eq!(witness.cycle_steppers(), vec![p(0), p(1)]);
        assert!(!witness.cycle_has_good_response(|_| true), "no decisions");
        use slx_liveness::{LkFreedom, ProgressKind};
        assert!(!witness.evaluate_liveness(&LkFreedom::new(1, 2), 2, ProgressKind::AnyResponse));
        assert!(!witness.evaluate_liveness(&LkFreedom::new(2, 2), 2, ProgressKind::AnyResponse));
        // (1,1)-freedom holds vacuously on the cycle: two steppers > k=1.
        assert!(witness.evaluate_liveness(&LkFreedom::new(1, 1), 2, ProgressKind::AnyResponse));
    }

    #[test]
    fn bivalence_lasso_fingerprint_matches_retained_map() {
        // Differential pin of the digest-keyed cycle detector against the
        // retained-key baseline on the bivalence adversary schedule: same
        // stem, same cycle, same unrolling.
        let run_keyed = || {
            let mut sys = of_system(64);
            let mut sched = cil_scheduler();
            slx_explorer::run_until_cycle_keyed(
                &mut sys,
                &mut sched,
                300,
                normalized_of_consensus_key,
            )
            .expect("cycle")
        };
        let run_retained = || {
            let mut sys = of_system(64);
            let mut sched = cil_scheduler();
            slx_explorer::run_until_cycle_keyed_retained(
                &mut sys,
                &mut sched,
                300,
                normalized_of_consensus_key,
            )
            .expect("cycle")
        };
        let digest = run_keyed();
        let retained = run_retained();
        assert_eq!(digest.stem, retained.stem);
        assert_eq!(digest.cycle, retained.cycle);
        assert_eq!(digest.unroll(3), retained.unroll(3));
    }

    #[test]
    fn bivalence_lasso_closes_for_nonzero_based_processes() {
        // Regression: with active processes {p1, p2} the raw counter
        // vector has a phantom slot for the never-active p0. The
        // normalized counts must rebase over the *active* slots only —
        // a phantom zero would pin the minimum, the rebased counters
        // would grow forever, and the cycle key would never repeat.
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 3, 64);
        let procs = (0..3)
            .map(|i| ObstructionFreeConsensus::new(layout.clone(), p(i), 3))
            .collect();
        let mut sys = System::new(mem, procs);
        let mut sched = BivalenceScheduler::new(vec![(p(1), v(1)), (p(2), v(2))], 60_000);
        let witness = slx_explorer::run_until_cycle_keyed(
            &mut sys,
            &mut sched,
            300,
            normalized_of_consensus_key,
        )
        .expect("cycle must close despite the phantom p0 counter slot");
        assert_eq!(witness.cycle_steppers(), vec![p(1), p(2)]);
        assert!(!witness.cycle_has_good_response(|_| true));
    }

    #[test]
    fn adversary_cannot_starve_cas_consensus() {
        // Against CAS-based consensus the very first step of either
        // process makes the configuration univalent, so no bivalence-
        // preserving step exists: the adversary loses immediately. This is
        // Figure 1a's caveat "from registers" made executable.
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let report = run_bivalence_adversary(&mut sys, &[p(0), p(1)], 50, 10_000);
        assert!(!report.adversary_won());
        assert!(!report.bivalent_throughout);
    }

    #[test]
    fn equal_proposals_leave_adversary_powerless() {
        // With equal proposals the configuration is univalent from the
        // start; the adversary has nothing to preserve.
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
        let procs = vec![
            ObstructionFreeConsensus::new(layout.clone(), p(0), 2),
            ObstructionFreeConsensus::new(layout, p(1), 2),
        ];
        let mut sys = System::new(mem, procs);
        sys.invoke(p(0), Operation::Propose(v(5))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(5))).unwrap();
        let report = run_bivalence_adversary(&mut sys, &[p(0), p(1)], 50, 20_000);
        assert!(!report.adversary_won());
    }
}
