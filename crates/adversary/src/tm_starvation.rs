//! The Section 4.1 three-step TM starvation strategy.

use slx_history::{Operation, ProcessId, Response, Value, VarId};
use slx_memory::{Decision, Process, Scheduler, System};
use slx_tm::TmWord;

/// Phase of the strategy (names follow the paper's Steps 1–3). Exposed
/// because it is part of the normalized cycle-detection key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Step 1: the victim starts a transaction.
    VictimStart,
    /// Step 1: the victim reads `x`.
    VictimRead,
    /// Step 2: the committer starts a transaction.
    CommitterStart,
    /// Step 2: the committer reads `x`.
    CommitterRead,
    /// Step 2: the committer writes `v'' + 1`.
    CommitterWrite,
    /// Step 2: the committer requests commit.
    CommitterTryC,
    /// Step 3: the victim writes `v'' + 1`.
    VictimWrite,
    /// Step 3: the victim requests commit.
    VictimTryC,
    /// The victim committed — the adversary lost (never happens against a
    /// TM whose conflict resolution lets the interleaved committer win).
    Lost,
}

/// The deterministic adversary of Section 4.1 (quoted verbatim in the
/// paper from its reference \[4\]): it interleaves a *victim* and a *committer* on one
/// variable so that the victim's `tryC()` always finds the state changed
/// and aborts, while the committer commits once per round.
///
/// Role-swapping the two processes yields the `F2` twin; the first action
/// of every history is `start()` by the configured victim, so the two
/// generated adversary sets are disjoint — Corollary 4.6's `Gmax = ∅`.
///
/// The strategy is a [`Scheduler`]: it chooses both invocations and steps,
/// exactly matching Definition 4.3's adversary. Run it with the keyed
/// cycle detector (`slx-explorer`) and the normalization maps
/// (`slx_tm::normalize`) to obtain a lasso — a proof that the starvation
/// continues forever.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TmStarvation {
    victim: ProcessId,
    committer: ProcessId,
    var: VarId,
    phase: Phase,
    /// Whether an invocation is outstanding (awaiting its response).
    waiting: bool,
    /// The committer's last read value `v''`.
    v_dblprime: i64,
    /// Rounds completed (committer commits per round), for reporting.
    rounds: u64,
}

impl TmStarvation {
    /// Creates the strategy with the given victim and committer.
    pub fn new(victim: ProcessId, committer: ProcessId, var: VarId) -> Self {
        TmStarvation {
            victim,
            committer,
            var,
            phase: Phase::VictimStart,
            waiting: false,
            v_dblprime: 0,
            rounds: 0,
        }
    }

    /// Rounds completed so far (one committer commit each).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether the victim ever committed (the adversary lost).
    pub fn lost(&self) -> bool {
        self.phase == Phase::Lost
    }

    /// The strategy state relevant for cycle detection, with the stored
    /// read value rebased by `dval` (see `slx_tm::normalize` for why the
    /// rebase is behaviour-preserving).
    pub fn normalized_state(&self, dval: i64) -> (Phase, bool, i64) {
        (self.phase, self.waiting, self.v_dblprime - dval)
    }

    fn actor(&self) -> ProcessId {
        match self.phase {
            Phase::VictimStart | Phase::VictimRead | Phase::VictimWrite | Phase::VictimTryC => {
                self.victim
            }
            _ => self.committer,
        }
    }

    fn invocation(&self) -> Operation {
        match self.phase {
            Phase::VictimStart | Phase::CommitterStart => Operation::TxStart,
            Phase::VictimRead | Phase::CommitterRead => Operation::TxRead(self.var),
            Phase::CommitterWrite | Phase::VictimWrite => {
                Operation::TxWrite(self.var, Value::new(self.v_dblprime + 1))
            }
            Phase::CommitterTryC | Phase::VictimTryC => Operation::TxCommit,
            Phase::Lost => unreachable!("no invocation after losing"),
        }
    }

    fn transition(&mut self, resp: Response) {
        use Phase::*;
        let aborted = resp == Response::Aborted;
        self.phase = match self.phase {
            VictimStart => {
                if aborted {
                    VictimStart
                } else {
                    VictimRead
                }
            }
            VictimRead => {
                if aborted {
                    VictimStart
                } else {
                    CommitterStart
                }
            }
            CommitterStart => {
                if aborted {
                    CommitterStart
                } else {
                    CommitterRead
                }
            }
            CommitterRead => {
                if aborted {
                    CommitterStart
                } else {
                    if let Response::ValueReturned(v) = resp {
                        self.v_dblprime = v.raw();
                    }
                    CommitterWrite
                }
            }
            CommitterWrite => {
                if aborted {
                    CommitterStart
                } else {
                    CommitterTryC
                }
            }
            CommitterTryC => {
                if aborted {
                    CommitterStart
                } else {
                    self.rounds += 1;
                    VictimWrite
                }
            }
            VictimWrite => {
                if aborted {
                    VictimStart
                } else {
                    VictimTryC
                }
            }
            VictimTryC => {
                if aborted {
                    VictimStart
                } else {
                    Lost
                }
            }
            Lost => Lost,
        };
    }
}

impl<P: Process<TmWord>> Scheduler<TmWord, P> for TmStarvation {
    fn decide(&mut self, sys: &System<TmWord, P>) -> Decision {
        if self.phase == Phase::Lost {
            return Decision::Halt;
        }
        let who = self.actor();
        if self.waiting {
            if sys.is_pending(who) {
                return Decision::Step(who);
            }
            // The awaited response arrived: transition.
            let resp = sys
                .history()
                .last_response_of(who)
                .expect("response arrived");
            self.waiting = false;
            self.transition(resp);
            if self.phase == Phase::Lost {
                return Decision::Halt;
            }
        }
        self.waiting = true;
        Decision::Invoke(self.actor(), self.invocation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{TransactionStatus, TxnView};
    use slx_liveness::{ExecutionView, LivenessProperty, LkFreedom, Lmax, ProgressKind};
    use slx_memory::Memory;
    use slx_safety::{certify_unique_writes, StrictSerializability};
    use slx_tm::normalize::normalized_global_version;
    use slx_tm::GlobalVersionTm;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn x0() -> VarId {
        VarId::new(0)
    }

    fn gv_system() -> System<TmWord, GlobalVersionTm> {
        let mut mem: Memory<TmWord> = Memory::new();
        let c = GlobalVersionTm::alloc(&mut mem, 1);
        let procs = (0..2).map(|_| GlobalVersionTm::new(c, 1)).collect();
        System::new(mem, procs)
    }

    #[test]
    fn victim_never_commits_against_global_version_tm() {
        let mut sys = gv_system();
        let mut adv = TmStarvation::new(p(0), p(1), x0());
        sys.run(&mut adv, 5000);
        assert!(!adv.lost(), "victim committed");
        assert!(adv.rounds() >= 10, "only {} rounds", adv.rounds());
        // The committer commits every round; the victim never.
        let view = TxnView::parse(sys.history());
        for t in view.of_process(p(0)) {
            assert_ne!(t.status(), TransactionStatus::Committed);
        }
        let committer_commits = view
            .of_process(p(1))
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .count() as u64;
        assert_eq!(committer_commits, adv.rounds());
    }

    #[test]
    fn starvation_run_violates_local_progress_and_22_freedom() {
        let mut sys = gv_system();
        let mut adv = TmStarvation::new(p(0), p(1), x0());
        sys.run(&mut adv, 5000);
        let view = ExecutionView::second_half(sys.events(), 2, ProgressKind::CommitOnly);
        // Local progress (Lmax for TM) fails: the victim is correct but
        // never commits.
        assert!(!Lmax::new().satisfied(&view));
        // (2,2)-freedom fails: exactly 2 steppers, 2 correct, only 1
        // makes progress.
        assert!(!LkFreedom::new(2, 2).satisfied(&view));
        // (1,2)-freedom holds on this run: the committer progresses.
        assert!(LkFreedom::new(1, 2).satisfied(&view));
    }

    #[test]
    fn starvation_run_remains_safe() {
        // The adversary wins on liveness, not by corrupting safety.
        let mut sys = gv_system();
        let mut adv = TmStarvation::new(p(0), p(1), x0());
        sys.run(&mut adv, 800);
        assert!(certify_unique_writes(sys.history(), Value::new(0)));
        let _ = StrictSerializability::new(Value::new(0));
    }

    /// The §4.1 shift-normalized cycle-detection key: the rebased system
    /// plus the strategy state with its stored read value rebased.
    fn starvation_key(
        sys: &System<TmWord, GlobalVersionTm>,
        adv: &TmStarvation,
    ) -> (System<TmWord, GlobalVersionTm>, (Phase, bool, i64)) {
        let normalized = normalized_global_version(sys);
        // dval = committed value of x1, the normalizer's base.
        let dval = sys
            .memory()
            .iter_objects()
            .find_map(|(_, o)| match o {
                slx_memory::BaseObject::Cas(TmWord::Versioned { values, .. }) => {
                    Some(values[0].raw())
                }
                _ => None,
            })
            .unwrap_or(0);
        (normalized, adv.normalized_state(dval))
    }

    #[test]
    fn lasso_proves_the_starvation_is_eternal() {
        // Detect a repeat of the shift-normalized (system, strategy) state:
        // the infinite execution stem·cycle^ω starves the victim forever.
        let mut sys = gv_system();
        let mut adv = TmStarvation::new(p(0), p(1), x0());
        let witness = slx_explorer::run_until_cycle_keyed(&mut sys, &mut adv, 5000, starvation_key)
            .expect("starvation loop must cycle");
        // The cycle has both processes stepping and no victim commit.
        assert_eq!(witness.cycle_steppers(), vec![p(0), p(1)]);
        let victim_commits_in_cycle = witness.cycle.iter().any(
            |e| matches!(e, slx_memory::Event::Responded(q, Response::Committed) if *q == p(0)),
        );
        assert!(!victim_commits_in_cycle);
        // The committer does commit within the cycle (lock-freedom in
        // action): the run violates (2,2) but not (1,2).
        let committer_commits_in_cycle = witness.cycle.iter().any(
            |e| matches!(e, slx_memory::Event::Responded(q, Response::Committed) if *q == p(1)),
        );
        assert!(committer_commits_in_cycle);
        // Exact liveness verdicts on the infinite execution stem·cycle^ω
        // (no finite-run approximation): Theorem 5.3's classification.
        assert!(!witness.evaluate_liveness(&LkFreedom::new(2, 2), 2, ProgressKind::CommitOnly));
        assert!(witness.evaluate_liveness(&LkFreedom::new(1, 2), 2, ProgressKind::CommitOnly));
        assert!(!witness.evaluate_liveness(&Lmax::new(), 2, ProgressKind::CommitOnly));
    }

    #[test]
    fn starvation_lasso_fingerprint_matches_retained_map() {
        // Differential pin of the digest-keyed cycle detector (which
        // retains 16-byte fingerprints of the normalized keys) against
        // the retained-key baseline on the §4.1 starvation lasso: same
        // stem, same cycle, same unrolling.
        let mut sys_a = gv_system();
        let mut adv_a = TmStarvation::new(p(0), p(1), x0());
        let digest =
            slx_explorer::run_until_cycle_keyed(&mut sys_a, &mut adv_a, 5000, starvation_key)
                .expect("cycle");
        let mut sys_b = gv_system();
        let mut adv_b = TmStarvation::new(p(0), p(1), x0());
        let retained = slx_explorer::run_until_cycle_keyed_retained(
            &mut sys_b,
            &mut adv_b,
            5000,
            starvation_key,
        )
        .expect("cycle");
        assert_eq!(digest.stem, retained.stem);
        assert_eq!(digest.cycle, retained.cycle);
        assert_eq!(digest.unroll(3), retained.unroll(3));
        assert_eq!(digest.cycle_steppers(), retained.cycle_steppers());
    }

    #[test]
    fn role_swapped_twin_is_disjoint() {
        // F1 histories start with the victim p1's start(); F2 with p2's.
        let run = |victim: usize, committer: usize| {
            let mut sys = gv_system();
            let mut adv = TmStarvation::new(p(victim), p(committer), x0());
            sys.run(&mut adv, 200);
            sys.history().clone()
        };
        let h1 = run(0, 1);
        let h2 = run(1, 0);
        assert_eq!(h1.actions()[0].proc(), p(0));
        assert_eq!(h2.actions()[0].proc(), p(1));
        assert_ne!(h1.actions()[0], h2.actions()[0]);
    }
}
