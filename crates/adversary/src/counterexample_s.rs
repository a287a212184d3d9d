//! The Section 5.3 three-process adversary against property `S`.

use slx_history::{Operation, ProcessId, Response};
use slx_memory::{Decision, Process, Scheduler, System};
use slx_tm::TmWord;

/// Per-process stage within one round of the strategy. Exposed because it
/// is part of the normalized cycle-detection key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Needs to invoke `start()`.
    NeedStart,
    /// `start()` invoked, awaiting its response.
    StartPending,
    /// `start()` returned ok.
    StartedOk,
    /// `start()` aborted (sits this round out, per the strategy).
    StartedAborted,
    /// `tryC()` invoked, awaiting its response.
    TryCPending,
    /// `tryC()` aborted this round.
    RoundAborted,
}

/// The Section 5.3 adversary: three processes concurrently `start()` their
/// `t`-th transactions, wait until **all** have start responses, then all
/// (non-aborted ones) invoke `tryC()`. If every commit request aborts, the
/// round repeats; if any process ever commits, the adversary halts
/// (defeated — and, against an implementation of property `S`, a commit
/// here would itself violate `S`, the contradiction at the heart of the
/// section).
///
/// Against Algorithm I(1,2) the timestamp rule aborts all three `tryC()`s
/// every round, so the strategy loops forever: three steppers, no commits
/// — a violation of (1,3)-freedom, witnessed as a lasso via the
/// normalization maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TripleRoundAdversary {
    procs: [ProcessId; 3],
    stages: [Stage; 3],
    /// Rounds fully completed (all aborted).
    rounds: u64,
    /// Set when some process committed: the adversary lost.
    lost: bool,
}

impl TripleRoundAdversary {
    /// Creates the strategy over three processes.
    pub fn new(procs: [ProcessId; 3]) -> Self {
        TripleRoundAdversary {
            procs,
            stages: [Stage::NeedStart; 3],
            rounds: 0,
            lost: false,
        }
    }

    /// Fully-aborted rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether some process committed (the adversary lost).
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Strategy state for cycle detection (stages reset each round, so the
    /// state is already shift-free).
    pub fn normalized_state(&self) -> [Stage; 3] {
        self.stages
    }

    fn absorb_responses<P: Process<TmWord>>(&mut self, sys: &System<TmWord, P>) {
        for (i, &q) in self.procs.iter().enumerate() {
            let waiting = matches!(self.stages[i], Stage::StartPending | Stage::TryCPending);
            if waiting && !sys.is_pending(q) {
                let resp = sys.history().last_response_of(q).expect("response arrived");
                self.stages[i] = match (self.stages[i], resp) {
                    (Stage::StartPending, Response::Aborted) => Stage::StartedAborted,
                    (Stage::StartPending, _) => Stage::StartedOk,
                    (Stage::TryCPending, Response::Aborted) => Stage::RoundAborted,
                    (Stage::TryCPending, Response::Committed) => {
                        self.lost = true;
                        Stage::RoundAborted
                    }
                    (s, _) => s,
                };
            }
        }
    }
}

impl<P: Process<TmWord>> Scheduler<TmWord, P> for TripleRoundAdversary {
    fn decide(&mut self, sys: &System<TmWord, P>) -> Decision {
        self.absorb_responses(sys);
        if self.lost {
            return Decision::Halt;
        }
        // Phase A: get everyone started.
        for (i, &q) in self.procs.iter().enumerate() {
            if self.stages[i] == Stage::NeedStart {
                self.stages[i] = Stage::StartPending;
                return Decision::Invoke(q, Operation::TxStart);
            }
        }
        if let Some(i) = self.stages.iter().position(|s| *s == Stage::StartPending) {
            return Decision::Step(self.procs[i]);
        }
        // All start responses in. Phase B: non-aborted processes tryC,
        // *after* everyone's start response (the condition property S
        // requires).
        for (i, &q) in self.procs.iter().enumerate() {
            if self.stages[i] == Stage::StartedOk {
                self.stages[i] = Stage::TryCPending;
                return Decision::Invoke(q, Operation::TxCommit);
            }
        }
        if let Some(i) = self.stages.iter().position(|s| *s == Stage::TryCPending) {
            return Decision::Step(self.procs[i]);
        }
        // Round over: everyone aborted (commits were caught above).
        self.rounds += 1;
        self.stages = [Stage::NeedStart; 3];
        // Recurse once into the new round.
        self.stages[0] = Stage::StartPending;
        Decision::Invoke(self.procs[0], Operation::TxStart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{TransactionStatus, TxnView, Value};
    use slx_liveness::{ExecutionView, LivenessProperty, LkFreedom, ProgressKind};
    use slx_memory::Memory;
    use slx_safety::PropertyS;
    use slx_tm::normalize::normalized_agp;
    use slx_tm::AgpTm;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn agp_system(n: usize) -> System<TmWord, AgpTm> {
        let mut mem: Memory<TmWord> = Memory::new();
        let (c, r) = AgpTm::alloc(&mut mem, n, 1);
        let procs = (0..n).map(|i| AgpTm::new(c, r, p(i), n, 1)).collect();
        System::new(mem, procs)
    }

    #[test]
    fn all_rounds_abort_against_agp() {
        let mut sys = agp_system(3);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        sys.run(&mut adv, 3000);
        assert!(!adv.lost(), "a commit escaped the timestamp rule");
        assert!(adv.rounds() >= 20, "only {} rounds", adv.rounds());
        // No transaction ever commits.
        let view = TxnView::parse(sys.history());
        assert!(view
            .transactions()
            .iter()
            .all(|t| t.status() != TransactionStatus::Committed));
        // And the runs stay inside property S.
        assert!(PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
    }

    #[test]
    fn run_violates_13_freedom() {
        let mut sys = agp_system(3);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        sys.run(&mut adv, 3000);
        let view = ExecutionView::second_half(sys.events(), 3, ProgressKind::CommitOnly);
        // Three steppers, zero commits: (1,3)-freedom fails...
        assert!(!LkFreedom::new(1, 3).satisfied(&view));
        // ...while (2,2)-freedom holds vacuously (3 steppers > k = 2).
        assert!(LkFreedom::new(2, 2).satisfied(&view));
    }

    #[test]
    fn lasso_proves_eternal_all_abort_loop() {
        let mut sys = agp_system(3);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        let witness = slx_explorer::run_until_cycle_keyed(
            &mut sys,
            &mut adv,
            5000,
            |sys, adv: &TripleRoundAdversary| (normalized_agp(sys), adv.normalized_state()),
        )
        .expect("all-abort loop must cycle");
        assert_eq!(witness.cycle_steppers(), vec![p(0), p(1), p(2)]);
        assert!(!witness.cycle_has_good_response(|r| r.is_commit()));
        // Exact verdicts on stem·cycle^ω: (1,3)-freedom is violated (three
        // steppers, nobody commits) while (2,2)-freedom holds vacuously.
        assert!(!witness.evaluate_liveness(&LkFreedom::new(1, 3), 3, ProgressKind::CommitOnly));
        assert!(witness.evaluate_liveness(&LkFreedom::new(2, 2), 3, ProgressKind::CommitOnly));
    }

    #[test]
    fn adversary_defeated_by_global_version_tm() {
        // GlobalVersionTm has no timestamp rule: in the synchronized round
        // the first tryC CAS succeeds, the adversary loses — and indeed
        // GlobalVersionTm does NOT implement property S.
        let mut mem: Memory<TmWord> = Memory::new();
        let c = slx_tm::GlobalVersionTm::alloc(&mut mem, 1);
        let procs = (0..3).map(|_| slx_tm::GlobalVersionTm::new(c, 1)).collect();
        let mut sys: System<TmWord, slx_tm::GlobalVersionTm> = System::new(mem, procs);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        sys.run(&mut adv, 2000);
        assert!(adv.lost(), "GlobalVersionTm should commit in round 1");
        // The produced history indeed violates property S's abort rule.
        assert!(!PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
    }
}
