//! Equivalence of the cursor-based `WorkloadScheduler` with the rescanning
//! scheduler it replaced.
//!
//! The oracle below is the earlier `WorkloadScheduler::decide`, kept here
//! and nowhere else: on every consultation it rebuilds each process's
//! response list from the whole history, which made a run quadratic in its
//! length. The library version reads only the actions appended since its
//! previous consultation. Both are driven in lockstep over the
//! `fig_ablation` matrix (four TMs × n ∈ {1, 2, 3, 4, 8}) and under crash
//! wrappers that sometimes skip consulting them; every event must agree on
//! the decision, the appended history and the per-process commit counters.

use std::cell::RefCell;
use std::rc::Rc;

use slx_history::{Operation, ProcessId, Response, Value, VarId};
use slx_memory::{
    CrashPlan, Decision, FairRandom, Memory, Process, RandomCrashes, RegisterProcess, RepeatTxn,
    RoundRobin, Scheduler, System, Word, Workload, WorkloadScheduler,
};
use slx_tm::{AgpTm, AgpTmDc, GlobalVersionTm, LockTm, TmWord};

/// The rescanning oracle: `WorkloadScheduler::decide` as it was before the
/// history cursor.
struct Rescan<L, S> {
    workload: L,
    inner: S,
    last_resp: Vec<Option<Response>>,
    responses_seen: Vec<usize>,
    done: Vec<bool>,
}

impl<L, S> Rescan<L, S> {
    fn new(n: usize, workload: L, inner: S) -> Self {
        Rescan {
            workload,
            inner,
            last_resp: vec![None; n],
            responses_seen: vec![0; n],
            done: vec![false; n],
        }
    }
}

impl<W, P, L, S> Scheduler<W, P> for Rescan<L, S>
where
    W: Word,
    P: Process<W>,
    L: Workload,
    S: Scheduler<W, P>,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        for p in ProcessId::all(sys.n()) {
            let resps = sys.history().responses_of(p);
            if resps.len() > self.responses_seen[p.index()] {
                self.responses_seen[p.index()] = resps.len();
                self.last_resp[p.index()] = resps.last().copied();
            }
        }
        for p in ProcessId::all(sys.n()) {
            let i = p.index();
            if self.done[i] || sys.is_pending(p) || sys.is_crashed(p) {
                continue;
            }
            match self.workload.next_op(p, self.last_resp[i].take()) {
                Some(op) => return Decision::Invoke(p, op),
                None => self.done[i] = true,
            }
        }
        self.inner.decide(sys)
    }
}

/// A workload handle shared with the test, so its state stays readable
/// while a wrapper owns the scheduler stack.
struct Shared<L>(Rc<RefCell<L>>);

impl<L: Workload> Workload for Shared<L> {
    fn next_op(&mut self, proc: ProcessId, last: Option<Response>) -> Option<Operation> {
        self.0.borrow_mut().next_op(proc, last)
    }
}

/// A boxed scheduler stack (the orphan rule rules out implementing
/// `Scheduler` for `Box<dyn Scheduler>` directly).
struct Dyn<W: Word, P>(Box<dyn Scheduler<W, P>>);

impl<W: Word, P: Process<W>> Scheduler<W, P> for Dyn<W, P> {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        self.0.decide(sys)
    }
}

/// The step scheduler under the workload.
#[derive(Debug, Clone, Copy)]
enum Inner {
    Fair(u64),
    /// `FairRandom::restricted` to the even-indexed processes.
    Restricted(u64),
    RoundRobin,
}

/// The wrapper around the workload scheduler.
#[derive(Debug, Clone, Copy)]
enum Wrap {
    Bare,
    /// `CrashPlan` crashing the last process early and process 0 later.
    Plan,
    /// `RandomCrashes` at 5‰ per decision, keeping one process alive.
    Random(u64),
}

fn inner<P: Process<TmWord> + 'static>(spec: Inner, n: usize) -> Dyn<TmWord, P> {
    Dyn(match spec {
        Inner::Fair(seed) => Box::new(FairRandom::new(seed)),
        Inner::Restricted(seed) => Box::new(FairRandom::restricted(
            seed,
            ProcessId::all(n).filter(|p| p.index() % 2 == 0).collect(),
        )),
        Inner::RoundRobin => Box::new(RoundRobin::new()),
    })
}

fn wrap<P, S>(sched: S, spec: Wrap, n: usize) -> Dyn<TmWord, P>
where
    P: Process<TmWord> + 'static,
    S: Scheduler<TmWord, P> + 'static,
{
    Dyn(match spec {
        Wrap::Bare => Box::new(sched),
        Wrap::Plan => Box::new(CrashPlan::new(
            sched,
            vec![(37, ProcessId::new(n - 1)), (400, ProcessId::new(0))],
        )),
        Wrap::Random(seed) => Box::new(RandomCrashes::new(sched, seed, 5, 1)),
    })
}

/// The contended `fig_ablation` workload: `start; read x1; write x1; tryC`.
fn contended(n: usize) -> Rc<RefCell<RepeatTxn>> {
    let x = VarId::new(0);
    Rc::new(RefCell::new(RepeatTxn::new(n, vec![x], vec![x], None)))
}

fn gv_system(n: usize) -> System<TmWord, GlobalVersionTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let c = GlobalVersionTm::alloc(&mut mem, 1);
    System::new(mem, (0..n).map(|_| GlobalVersionTm::new(c, 1)).collect())
}

fn agp_system(n: usize) -> System<TmWord, AgpTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (c, r) = AgpTm::alloc(&mut mem, n, 1);
    let procs = (0..n)
        .map(|i| AgpTm::new(c, r, ProcessId::new(i), n, 1))
        .collect();
    System::new(mem, procs)
}

fn agp_dc_system(n: usize) -> System<TmWord, AgpTmDc> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (c, r) = AgpTmDc::alloc(&mut mem, n, 1);
    let procs = (0..n)
        .map(|i| AgpTmDc::new(c, r.clone(), ProcessId::new(i), 1))
        .collect();
    System::new(mem, procs)
}

fn lock_system(n: usize) -> System<TmWord, LockTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (lock, store) = LockTm::alloc(&mut mem, 1);
    System::new(mem, (0..n).map(|_| LockTm::new(lock, store, 1)).collect())
}

/// Records every decision its inner scheduler makes.
struct Recording<S> {
    inner: S,
    last: Option<Decision>,
}

impl<W: Word, P: Process<W>, S: Scheduler<W, P>> Scheduler<W, P> for Recording<S> {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        let d = self.inner.decide(sys);
        self.last = Some(d.clone());
        d
    }
}

/// Drives the library scheduler and the oracle over two copies of
/// `system(n)` one event at a time, asserting after every event that both
/// made the same decision, appended the same actions and hold the same
/// commit counters.
fn lockstep<P>(
    system: fn(usize) -> System<TmWord, P>,
    n: usize,
    inner_spec: Inner,
    wrap_spec: Wrap,
    events: u64,
) where
    P: Process<TmWord> + 'static,
{
    let (w_new, w_old) = (contended(n), contended(n));
    let mut s_new = Recording {
        inner: wrap(
            WorkloadScheduler::new(n, Shared(Rc::clone(&w_new)), inner::<P>(inner_spec, n)),
            wrap_spec,
            n,
        ),
        last: None,
    };
    let mut s_old = Recording {
        inner: wrap(
            Rescan::new(n, Shared(Rc::clone(&w_old)), inner::<P>(inner_spec, n)),
            wrap_spec,
            n,
        ),
        last: None,
    };
    let (mut sys_new, mut sys_old) = (system(n), system(n));
    let ctx = format!("n={n} inner={inner_spec:?} wrap={wrap_spec:?}");
    for event in 0..events {
        let before = sys_new.history().len();
        let halted_new = sys_new.run(&mut s_new, 1).halted;
        let halted_old = sys_old.run(&mut s_old, 1).halted;
        assert_eq!(s_new.last, s_old.last, "{ctx}: decision at event {event}");
        assert_eq!(halted_new, halted_old, "{ctx}: halt at event {event}");
        assert_eq!(
            sys_new.history().actions()[before..],
            sys_old.history().actions()[before..],
            "{ctx}: actions appended at event {event}"
        );
        for p in ProcessId::all(n) {
            assert_eq!(
                w_new.borrow().committed(p),
                w_old.borrow().committed(p),
                "{ctx}: commits of {p:?} at event {event}"
            );
        }
        if halted_new {
            break;
        }
    }
    assert_eq!(sys_new.history(), sys_old.history(), "{ctx}: history");
    assert_eq!(sys_new.events(), sys_old.events(), "{ctx}: events");
}

/// Runs `lockstep` for each of the four TMs of the matrix.
fn each_tm(n: usize, inner_spec: Inner, wrap_spec: Wrap, events: u64) {
    lockstep(gv_system, n, inner_spec, wrap_spec, events);
    lockstep(agp_system, n, inner_spec, wrap_spec, events);
    lockstep(agp_dc_system, n, inner_spec, wrap_spec, events);
    lockstep(lock_system, n, inner_spec, wrap_spec, events);
}

/// Events per run: long enough for hundreds of commits and aborts per
/// cell, short enough for the quadratic oracle in a debug build.
const EVENTS: u64 = 1_500;

#[test]
fn fig_ablation_matrix_matches_the_rescanning_oracle() {
    for seed in [11, 7, 42] {
        for n in [1, 2, 3, 4, 8] {
            each_tm(n, Inner::Fair(seed), Wrap::Bare, EVENTS);
        }
    }
}

#[test]
fn round_robin_and_restricted_inner_schedulers_match_the_oracle() {
    for n in [1, 2, 3, 8] {
        each_tm(n, Inner::RoundRobin, Wrap::Bare, EVENTS);
        each_tm(n, Inner::Restricted(5), Wrap::Bare, EVENTS);
    }
}

#[test]
fn crash_wrappers_match_the_oracle() {
    for n in [2, 3, 8] {
        each_tm(n, Inner::Fair(3), Wrap::Plan, EVENTS);
        for seed in [1, 2, 3] {
            each_tm(n, Inner::Fair(seed), Wrap::Random(seed), EVENTS);
        }
        each_tm(n, Inner::Restricted(9), Wrap::Random(4), EVENTS);
    }
}

#[test]
fn crash_wrappers_actually_crash_and_skip_the_workload() {
    // Guard against a vacuous suite: the wrappers above must crash
    // processes mid-run, which is when they decide without consulting
    // the workload scheduler.
    let w = contended(3);
    let mut sched = wrap(
        WorkloadScheduler::new(
            3,
            Shared(Rc::clone(&w)),
            inner::<GlobalVersionTm>(Inner::Fair(1), 3),
        ),
        Wrap::Random(1),
        3,
    );
    let mut sys = gv_system(3);
    let stats = sys.run(&mut sched, EVENTS);
    assert!(stats.crashes >= 1, "no crash injected");
    assert!(ProcessId::all(3).any(|p| w.borrow().committed(p) > 0));
}

/// A workload that logs every `(process, last response)` it is handed and
/// always asks for a write.
#[derive(Default)]
struct Log(Vec<(ProcessId, Option<Response>)>);

impl Workload for Log {
    fn next_op(&mut self, proc: ProcessId, last: Option<Response>) -> Option<Operation> {
        self.0.push((proc, last));
        Some(Operation::Write(VarId::new(0), Value::new(1)))
    }
}

fn register_system(n: usize) -> System<i64, RegisterProcess> {
    let mut mem: Memory<i64> = Memory::new();
    let reg = mem.alloc_register(0);
    System::new(mem, (0..n).map(|_| RegisterProcess::new(reg)).collect())
}

/// The library workload scheduler, or with `oracle` the rescanning one,
/// over a shared [`Log`] and round-robin steps.
fn workload_scheduler(oracle: bool, n: usize, log: &Rc<RefCell<Log>>) -> Dyn<i64, RegisterProcess> {
    let workload = Shared(Rc::clone(log));
    Dyn(if oracle {
        Box::new(Rescan::new(n, workload, RoundRobin::new()))
    } else {
        Box::new(WorkloadScheduler::new(n, workload, RoundRobin::new()))
    })
}

/// Delivers an invocation and steps it to its response, bypassing any
/// scheduler.
fn complete(sys: &mut System<i64, RegisterProcess>, p: ProcessId, op: Operation) {
    sys.invoke(p, op).expect("idle process");
    sys.step(p).expect("one-step register op");
}

#[test]
fn two_responses_before_one_consult_hand_over_the_newest() {
    let p0 = ProcessId::new(0);
    let read = Operation::Read(VarId::new(0));
    let write = Operation::Write(VarId::new(0), Value::new(7));
    let logs: Vec<Vec<(ProcessId, Option<Response>)>> = [false, true]
        .into_iter()
        .map(|oracle| {
            let log = Rc::new(RefCell::new(Log::default()));
            let mut sched = workload_scheduler(oracle, 1, &log);
            let mut sys = register_system(1);
            // The write responds `ok`, then the read returns 7: two
            // responses land before the scheduler is consulted.
            complete(&mut sys, p0, write);
            complete(&mut sys, p0, read);
            assert!(matches!(sched.decide(&sys), Decision::Invoke(p, _) if p == p0));
            let entries = log.borrow().0.clone();
            entries
        })
        .collect();
    assert_eq!(
        logs[0],
        vec![(p0, Some(Response::ValueReturned(Value::new(7))))]
    );
    assert_eq!(logs[0], logs[1]);
}

/// Replaces the first `Invoke` its inner scheduler returns with a crash of
/// another process, so the invocation the workload produced never lands.
struct OverrideFirstInvoke<S> {
    inner: S,
    victim: ProcessId,
    fired: bool,
}

impl<W: Word, P: Process<W>, S: Scheduler<W, P>> Scheduler<W, P> for OverrideFirstInvoke<S> {
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        match self.inner.decide(sys) {
            Decision::Invoke(..) if !self.fired => {
                self.fired = true;
                Decision::Crash(self.victim)
            }
            d => d,
        }
    }
}

#[test]
fn an_overridden_invoke_does_not_hand_its_response_out_again() {
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let write = Operation::Write(VarId::new(0), Value::new(3));
    let logs: Vec<Vec<(ProcessId, Option<Response>)>> = [false, true]
        .into_iter()
        .map(|oracle| {
            let log = Rc::new(RefCell::new(Log::default()));
            let mut sched = OverrideFirstInvoke {
                inner: workload_scheduler(oracle, 2, &log),
                victim: p1,
                fired: false,
            };
            let mut sys = register_system(2);
            complete(&mut sys, p0, write);
            // p0's `ok` is taken for an invocation the wrapper drops (it
            // crashes p1 instead); p0 is idle again at the next consult.
            assert_eq!(sched.decide(&sys), Decision::Crash(p1));
            sys.crash(p1).expect("in range");
            assert!(matches!(sched.decide(&sys), Decision::Invoke(p, _) if p == p0));
            let entries = log.borrow().0.clone();
            entries
        })
        .collect();
    assert_eq!(logs[0], vec![(p0, Some(Response::Ok)), (p0, None)]);
    assert_eq!(logs[0], logs[1]);
}
