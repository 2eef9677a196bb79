//! # The coroutine scheduler (the paper's `COROUTINE` signature)
//!
//! The paper's TCP functor takes `structure Scheduler: COROUTINE` —
//! a **non-preemptive** user-level scheduler written entirely in SML
//! using first-class continuations. Because thread switches only happen
//! when a scheduler function is invoked, "data structure locks are
//! therefore not necessary"; on a DECstation 5000/125 creating a thread,
//! terminating the current one and switching cost about 30 µs against
//! 1.2 µs for an empty function call.
//!
//! Rust has no first-class continuations, so tasks here are written in
//! continuation-passing style: a task is a boxed closure receiving the
//! scheduler, and an operation that must resume later (`sleep`) takes the
//! rest of the computation as another closure. This is a faithful
//! rendering — SML's `callcc` implementation of coroutines *is* CPS with
//! the compiler writing the closures for you — and it preserves the two
//! properties the paper's design depends on: switches happen only at
//! scheduler calls, and the cost of a switch is "a few function calls".
//!
//! The scheduler is round-robin with a single priority level, exactly as
//! the paper describes, plus the extension the paper proposes ("by
//! replacing the current FIFO with a priority queue, we could specify
//! that particular actions ... be executed with higher priority"):
//! [`Scheduler::fork_urgent`] queues a task at the urgent level, served
//! before normal tasks.
//!
//! The sleep queue is "a priority queue implemented as a heap" — here a
//! `BinaryHeap` keyed on virtual deadline with FIFO tie-breaking, so
//! execution is fully deterministic.
//!
//! [`timer`] is a direct transcription of the paper's Fig. 11 timer.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod channel;
pub mod handle;
pub mod timer;

pub use channel::Channel;
pub use handle::SchedHandle;
pub use timer::{start as start_timer, TimerHandle};

use foxbasis::fifo::Fifo;
use foxbasis::time::{VirtualDuration, VirtualTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// A schedulable unit: the rest of some computation.
///
/// The paper's threads are forked functions; ours are one-shot closures
/// that may re-fork or sleep to continue (continuation-passing style).
pub type Task = Box<dyn FnOnce(&mut Scheduler)>;

/// The paper distinguishes thread kinds at fork time
/// (`Scheduler.Normal sleep` in Fig. 11). `Urgent` implements the
/// priority extension discussed in §4.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Round-robin, single shared priority level (the paper's default).
    Normal,
    /// Served strictly before all `Normal` tasks.
    Urgent,
}

struct Sleeper {
    deadline: VirtualTime,
    /// Insertion sequence number: ties on `deadline` wake FIFO.
    seq: u64,
    task: Task,
}

impl PartialEq for Sleeper {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Sleeper {}
impl PartialOrd for Sleeper {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sleeper {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest deadline (and
        // then the earliest insertion) is the maximum.
        other.deadline.cmp(&self.deadline).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Counters the scheduler benchmarks report.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks forked (normal + urgent).
    pub forks: u64,
    /// Tasks run to completion (each run is one "switch" in the paper's
    /// terminology: terminate the current thread, switch to the next).
    pub switches: u64,
    /// Sleeps scheduled.
    pub sleeps: u64,
    /// Sleepers woken.
    pub wakeups: u64,
}

/// The non-preemptive round-robin scheduler.
pub struct Scheduler {
    now: VirtualTime,
    ready: Fifo<Task>,
    urgent: Fifo<Task>,
    sleeping: BinaryHeap<Sleeper>,
    next_seq: u64,
    stats: SchedStats,
}

impl Scheduler {
    /// A scheduler whose clock starts at the epoch.
    pub fn new() -> Self {
        Self::starting_at(VirtualTime::ZERO)
    }

    /// A scheduler whose clock starts at `start`.
    pub fn starting_at(start: VirtualTime) -> Self {
        Scheduler {
            now: start,
            ready: Fifo::new(),
            urgent: Fifo::new(),
            sleeping: BinaryHeap::new(),
            next_seq: 0,
            stats: SchedStats::default(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Scheduling statistics so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Forks a normal-priority task (the paper's `Scheduler.fork`).
    pub fn fork(&mut self, task: Task) {
        self.stats.forks += 1;
        self.ready.add(task);
    }

    /// Forks an urgent task, served before all normal tasks.
    pub fn fork_urgent(&mut self, task: Task) {
        self.stats.forks += 1;
        self.urgent.add(task);
    }

    /// Forks with an explicit kind.
    pub fn fork_kind(&mut self, kind: Kind, task: Task) {
        match kind {
            Kind::Normal => self.fork(task),
            Kind::Urgent => self.fork_urgent(task),
        }
    }

    /// Suspends the calling computation for `dur`; `cont` resumes when
    /// the virtual clock reaches `now + dur` (the paper's
    /// `Scheduler.sleep`, in continuation-passing form).
    pub fn sleep(&mut self, dur: VirtualDuration, cont: Task) {
        self.sleep_until(self.now + dur, cont);
    }

    /// Suspends until an absolute deadline.
    pub fn sleep_until(&mut self, deadline: VirtualTime, cont: Task) {
        self.stats.sleeps += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sleeping.push(Sleeper { deadline: deadline.max(self.now), seq, task: cont });
    }

    /// Cooperative yield: requeues `cont` at the back of the normal
    /// ready queue so every other ready task runs first.
    pub fn yield_now(&mut self, cont: Task) {
        self.ready.add(cont);
    }

    /// True if no task is ready or sleeping.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && self.urgent.is_empty() && self.sleeping.is_empty()
    }

    /// True if a task is ready to run *now* (without advancing time).
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty() || !self.urgent.is_empty()
    }

    /// The earliest sleeper's deadline, if any.
    pub fn next_deadline(&self) -> Option<VirtualTime> {
        self.sleeping.peek().map(|s| s.deadline)
    }

    /// Runs one ready task, if any. Returns true if a task ran.
    pub fn step(&mut self) -> bool {
        let task = match self.urgent.next() {
            Some(t) => t,
            None => match self.ready.next() {
                Some(t) => t,
                None => return false,
            },
        };
        self.stats.switches += 1;
        task(self);
        true
    }

    /// Runs ready tasks (including any they fork) until none are ready.
    /// Does not advance the clock.
    pub fn run_ready(&mut self) {
        while self.step() {}
    }

    /// Advances the clock to `t`, waking and running sleepers (and any
    /// tasks they fork) in deadline order. Between wakeups, ready tasks
    /// are drained, so causality is preserved: a sleeper due at 10 ms
    /// sees everything a 5 ms sleeper forked.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: VirtualTime) {
        assert!(self.now <= t, "scheduler clock may not run backwards");
        self.run_ready();
        while let Some(deadline) = self.next_deadline() {
            if deadline > t {
                break;
            }
            self.now = self.now.max(deadline);
            // Wake every sleeper due at this instant before running, so
            // same-deadline sleepers run FIFO even if one forks.
            while self.next_deadline().is_some_and(|d| d <= self.now) {
                let sleeper = self.sleeping.pop().expect("deadline peeked");
                self.stats.wakeups += 1;
                self.ready.add(sleeper.task);
            }
            self.run_ready();
        }
        self.now = t;
    }

    /// Runs until completely idle, advancing time as needed; returns the
    /// time of the last event. Useful for tests and standalone use.
    pub fn run_until_idle(&mut self) -> VirtualTime {
        self.run_ready();
        while let Some(d) = self.next_deadline() {
            self.advance_to(d);
        }
        self.now
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Scheduler(now={:?}, ready={}, urgent={}, sleeping={})",
            self.now,
            self.ready.size(),
            self.urgent.size(),
            self.sleeping.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn log() -> (Rc<RefCell<Vec<&'static str>>>, impl Fn(&'static str) -> Task) {
        let l = Rc::new(RefCell::new(Vec::new()));
        let l2 = l.clone();
        let mk = move |tag: &'static str| -> Task {
            let l = l2.clone();
            Box::new(move |_s: &mut Scheduler| l.borrow_mut().push(tag))
        };
        (l, mk)
    }

    #[test]
    fn round_robin_fifo_order() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        s.fork(mk("a"));
        s.fork(mk("b"));
        s.fork(mk("c"));
        s.run_ready();
        assert_eq!(*l.borrow(), vec!["a", "b", "c"]);
        assert_eq!(s.stats().switches, 3);
    }

    #[test]
    fn urgent_preempts_queue_position_not_execution() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        s.fork(mk("normal1"));
        s.fork_urgent(mk("urgent"));
        s.fork_kind(Kind::Normal, mk("normal2"));
        s.run_ready();
        assert_eq!(*l.borrow(), vec!["urgent", "normal1", "normal2"]);
    }

    #[test]
    fn forked_tasks_run_after_current_queue() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        let child = mk("child");
        let l2 = l.clone();
        s.fork(Box::new(move |s| {
            l2.borrow_mut().push("parent");
            s.fork(child);
        }));
        s.fork(mk("sibling"));
        s.run_ready();
        assert_eq!(*l.borrow(), vec!["parent", "sibling", "child"]);
    }

    #[test]
    fn sleepers_wake_in_deadline_order() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        s.sleep(VirtualDuration::from_millis(20), mk("late"));
        s.sleep(VirtualDuration::from_millis(10), mk("early"));
        s.sleep(VirtualDuration::from_millis(20), mk("late2"));
        assert_eq!(s.next_deadline(), Some(VirtualTime::from_millis(10)));
        s.advance_to(VirtualTime::from_millis(30));
        assert_eq!(*l.borrow(), vec!["early", "late", "late2"]);
        assert_eq!(s.stats().wakeups, 3);
        assert_eq!(s.now(), VirtualTime::from_millis(30));
    }

    #[test]
    fn advance_stops_short_of_future_sleepers() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        s.sleep(VirtualDuration::from_millis(100), mk("far"));
        s.advance_to(VirtualTime::from_millis(50));
        assert!(l.borrow().is_empty());
        assert!(!s.is_idle());
        s.advance_to(VirtualTime::from_millis(100));
        assert_eq!(*l.borrow(), vec!["far"]);
    }

    #[test]
    fn same_deadline_wakes_fifo() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        for tag in ["t1", "t2", "t3"] {
            s.sleep(VirtualDuration::from_millis(5), mk(tag));
        }
        s.advance_to(VirtualTime::from_millis(5));
        assert_eq!(*l.borrow(), vec!["t1", "t2", "t3"]);
    }

    #[test]
    fn wakeup_sees_earlier_forks() {
        // A 5 ms sleeper forks "x"; the 10 ms sleeper must run after "x".
        let (l, mk) = log();
        let mut s = Scheduler::new();
        let x = mk("x");
        let l2 = l.clone();
        s.sleep(
            VirtualDuration::from_millis(5),
            Box::new(move |s| {
                l2.borrow_mut().push("five");
                s.fork(x);
            }),
        );
        s.sleep(VirtualDuration::from_millis(10), mk("ten"));
        s.run_until_idle();
        assert_eq!(*l.borrow(), vec!["five", "x", "ten"]);
    }

    #[test]
    fn nested_sleep_chains() {
        // CPS chaining: sleep 1 ms, then sleep 2 ms more, then record.
        let (l, mk) = log();
        let mut s = Scheduler::new();
        let done = mk("done");
        s.sleep(
            VirtualDuration::from_millis(1),
            Box::new(move |s| s.sleep(VirtualDuration::from_millis(2), done)),
        );
        let end = s.run_until_idle();
        assert_eq!(*l.borrow(), vec!["done"]);
        assert_eq!(end, VirtualTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_cannot_run_backwards() {
        let mut s = Scheduler::starting_at(VirtualTime::from_millis(10));
        s.advance_to(VirtualTime::from_millis(5));
    }

    #[test]
    fn sleep_in_the_past_fires_immediately_on_advance() {
        let (l, mk) = log();
        let mut s = Scheduler::starting_at(VirtualTime::from_millis(10));
        s.sleep_until(VirtualTime::from_millis(3), mk("past"));
        s.advance_to(VirtualTime::from_millis(10));
        assert_eq!(*l.borrow(), vec!["past"]);
    }

    #[test]
    fn yield_now_round_robins() {
        let (l, mk) = log();
        let mut s = Scheduler::new();
        let second_half = mk("a2");
        let l2 = l.clone();
        s.fork(Box::new(move |s| {
            l2.borrow_mut().push("a1");
            s.yield_now(second_half);
        }));
        s.fork(mk("b"));
        s.run_ready();
        assert_eq!(*l.borrow(), vec!["a1", "b", "a2"]);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        let run = || {
            let (l, mk) = log();
            let mut s = Scheduler::new();
            for (i, tag) in ["p", "q", "r", "s"].iter().enumerate() {
                s.sleep(VirtualDuration::from_millis((i as u64 * 7) % 3), mk(tag));
                s.fork(mk("f"));
            }
            s.run_until_idle();
            let trace = l.borrow().clone();
            trace
        };
        assert_eq!(run(), run());
    }
}
