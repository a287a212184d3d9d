//! Schedulers: the external entity that orders process steps.

use slx_history::{Operation, ProcessId};

use crate::rng::SmallRng;

use crate::base::Word;
use crate::process::Process;
use crate::system::System;

/// One scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Deliver an invocation to a process.
    Invoke(ProcessId, Operation),
    /// Let a process take one step.
    Step(ProcessId),
    /// Crash a process.
    Crash(ProcessId),
    /// Stop the run.
    Halt,
}

/// The scheduler: decides, from the observable system state, what happens
/// next (Section 2: "the order in which processes take steps is determined
/// by an external entity called a scheduler over which processes have no
/// control").
///
/// Adversaries (Definition 4.3) are schedulers that additionally choose
/// invocations; they implement this same trait in `slx-adversary`.
///
/// Cost contract: a scheduler drives one system, whose history is
/// append-only, and [`Scheduler::decide`] costs amortized O(actions
/// appended since the previous call) plus O(n) — never a rescan of the
/// whole history, which would make a run quadratic in its length.
/// Schedulers that need past responses keep a cursor into
/// [`History::actions`](slx_history::History::actions) or use
/// [`History::last_response_of`](slx_history::History::last_response_of).
pub trait Scheduler<W: Word, P: Process<W>> {
    /// Chooses the next event given the current system.
    fn decide(&mut self, sys: &System<W, P>) -> Decision;
}

/// Round-robin over steppable processes; halts when the system is
/// quiescent. Delivers no invocations (pair with explicit
/// [`System::invoke`] calls or a [`crate::WorkloadScheduler`]).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at process 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl<W: Word, P: Process<W>> Scheduler<W, P> for RoundRobin {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        let n = sys.n();
        for offset in 0..n {
            let i = (self.next + offset) % n;
            let p = ProcessId::new(i);
            if sys.can_step(p) {
                self.next = (i + 1) % n;
                return Decision::Step(p);
            }
        }
        Decision::Halt
    }
}

/// Steps a single designated process until it is no longer steppable, then
/// halts. This realizes the "runs alone / without step contention"
/// schedules of obstruction-freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoloScheduler {
    proc: ProcessId,
}

impl SoloScheduler {
    /// Creates a scheduler that steps only `proc`.
    pub fn new(proc: ProcessId) -> Self {
        SoloScheduler { proc }
    }
}

impl<W: Word, P: Process<W>> Scheduler<W, P> for SoloScheduler {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        if sys.can_step(self.proc) {
            Decision::Step(self.proc)
        } else {
            Decision::Halt
        }
    }
}

/// Uniformly random fair scheduler over an (optionally restricted) set of
/// processes. Fair in the probabilistic sense: every steppable process is
/// chosen infinitely often with probability one, so long finite runs under
/// it approximate fair infinite executions.
#[derive(Debug, Clone)]
pub struct FairRandom {
    rng: SmallRng,
    /// If non-empty, only these processes are ever scheduled — this is how
    /// "at most k processes take infinitely many steps" schedules are
    /// produced for (l,k)-freedom evaluation.
    active: Vec<ProcessId>,
}

impl FairRandom {
    /// Creates a fair random scheduler over all processes.
    pub fn new(seed: u64) -> Self {
        FairRandom {
            rng: SmallRng::seed_from_u64(seed),
            active: Vec::new(),
        }
    }

    /// Creates a fair random scheduler restricted to `active` processes.
    pub fn restricted(seed: u64, active: Vec<ProcessId>) -> Self {
        FairRandom {
            rng: SmallRng::seed_from_u64(seed),
            active,
        }
    }
}

impl<W: Word, P: Process<W>> Scheduler<W, P> for FairRandom {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        // Count the steppable candidates, draw an index, and walk to it,
        // without allocating a candidate list per event.
        let pool = if self.active.is_empty() {
            sys.n()
        } else {
            self.active.len()
        };
        let active = &self.active;
        let candidates = || {
            (0..pool)
                .map(|k| {
                    if active.is_empty() {
                        ProcessId::new(k)
                    } else {
                        active[k]
                    }
                })
                .filter(|&p| sys.can_step(p))
        };
        let count = candidates().count();
        if count == 0 {
            return Decision::Halt;
        }
        let idx = self.rng.gen_index(count);
        Decision::Step(candidates().nth(idx).expect("idx < count"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{Memory, ObjId, Primitive};
    use crate::process::StepEffect;
    use slx_history::{Response, Value, VarId};

    /// Increments a counter `k` times, then responds with `Ok`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Incr {
        ctr: ObjId,
        remaining: usize,
    }

    impl Process<i64> for Incr {
        fn on_invoke(&mut self, _op: Operation) {
            self.remaining = 3;
        }
        fn has_step(&self) -> bool {
            self.remaining > 0
        }
        fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
            mem.apply(Primitive::FetchAdd(self.ctr, 1)).unwrap();
            self.remaining -= 1;
            if self.remaining == 0 {
                StepEffect::Responded(Response::Ok)
            } else {
                StepEffect::Ran
            }
        }
    }

    fn three_proc_system() -> System<i64, Incr> {
        let mut mem: Memory<i64> = Memory::new();
        let ctr = mem.alloc_counter(0);
        let procs = (0..3).map(|_| Incr { ctr, remaining: 0 }).collect();
        System::new(mem, procs)
    }

    fn invoke_all(sys: &mut System<i64, Incr>) {
        for p in ProcessId::all(3) {
            sys.invoke(p, Operation::Write(VarId::new(0), Value::new(0)))
                .unwrap();
        }
    }

    #[test]
    fn round_robin_completes_all() {
        let mut sys = three_proc_system();
        invoke_all(&mut sys);
        let stats = sys.run(&mut RoundRobin::new(), 1000);
        assert!(stats.halted);
        assert_eq!(stats.responses, 3);
        assert!(sys.quiescent());
    }

    #[test]
    fn solo_steps_only_target() {
        let mut sys = three_proc_system();
        invoke_all(&mut sys);
        let p1 = ProcessId::new(1);
        let stats = sys.run(&mut SoloScheduler::new(p1), 1000);
        assert_eq!(stats.responses, 1);
        assert!(sys
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::system::Event::Stepped(p) => Some(*p),
                _ => None,
            })
            .all(|p| p == p1));
    }

    #[test]
    fn fair_random_restricted_respects_restriction() {
        let mut sys = three_proc_system();
        invoke_all(&mut sys);
        let active = vec![ProcessId::new(0), ProcessId::new(2)];
        let mut sched = FairRandom::restricted(42, active.clone());
        let stats = sys.run(&mut sched, 1000);
        assert_eq!(stats.responses, 2);
        for e in sys.events() {
            if let crate::system::Event::Stepped(p) = e {
                assert!(active.contains(p));
            }
        }
    }

    #[test]
    fn fair_random_deterministic_per_seed() {
        let run = |seed| {
            let mut sys = three_proc_system();
            invoke_all(&mut sys);
            sys.run(&mut FairRandom::new(seed), 1000);
            sys.events().to_vec()
        };
        assert_eq!(run(7), run(7));
    }
}
