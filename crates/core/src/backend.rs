//! Execution backends: where tasks actually run.
//!
//! The pipelines in [`crate::pipeline`] decide *what* to run (admission,
//! model-set selection, dispatch order); an [`ExecutionBackend`] decides
//! *how* running happens — inside the discrete-event simulator
//! ([`SimBackend`]) or on real worker threads (`schemble-serve`'s threaded
//! backend). Keeping the decision logic in [`crate::engine`] and the
//! execution substrate behind this trait is what lets the same pipeline run
//! unchanged in simulation and in the wall-clock serving runtime, and is
//! also what makes the serve runtime's virtual-clock parity mode possible:
//! the runtime drives the *identical* engine code over a [`SimBackend`], so
//! its admission decisions match the DES pipeline's by construction.
//!
//! Both backends are hosts of one [`ExecutorBank`], the executor state
//! machine: a backend only supplies time (an event queue, or worker
//! threads and a wall clock), so their executor semantics agree by
//! construction.
//!
//! Executors are indexed `0..executors()`. For the Schemble pipeline the
//! executor index *is* the base-model index (identity deployment); the
//! immediate-selection family maps instances to base models through its
//! `Deployment`.

use crate::bank::ExecutorBank;
use crate::engine::PipelineEngine;
use schemble_data::Workload;
use schemble_sim::{EventQueue, SimTime};

/// An event surfaced by a backend to the engine driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendEvent {
    /// Query `workload.queries[i]` has arrived.
    Arrival(usize),
    /// `executor` finished its running task for `query`.
    TaskDone {
        /// Executor (server instance) index.
        executor: usize,
        /// Query id the finished task belonged to.
        query: u64,
    },
    /// `executor`'s task for `query` failed (transient fault, timeout kill,
    /// or executor crash) instead of completing.
    TaskFailed {
        /// Executor (server instance) index.
        executor: usize,
        /// Query id the failed task belonged to.
        query: u64,
    },
    /// `executor` went down (fault-plan crash window opened or its worker
    /// died). Any running task and backlog surface as separate
    /// [`BackendEvent::TaskFailed`] events.
    ExecutorDown {
        /// Executor index.
        executor: usize,
    },
    /// A down `executor` recovered and accepts work again.
    ExecutorUp {
        /// Executor index.
        executor: usize,
    },
    /// A requested wake-up fired (plan effective, predictor done, deadline).
    Wake,
}

/// Per-executor lifetime counters, for usage reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorUsage {
    /// Total busy time in seconds.
    pub busy_secs: f64,
    /// Tasks completed.
    pub tasks: u64,
}

/// An execution substrate for pipeline engines.
///
/// Contract shared by all implementations:
///
/// * **Non-preemptive.** A started task runs to completion; starting one
///   on a busy executor panics.
/// * **Sampling at submission.** The task's (synthetic) execution time is
///   drawn from the executor's latency model when the task is submitted
///   (`submit_batch`/`enqueue_task`), in call order — this keeps runs
///   deterministic for a fixed seed regardless of substrate.
/// * **Completion surfaces as an event.** The backend delivers
///   [`BackendEvent::TaskDone`] through its own event channel; engines
///   never poll.
///
/// Every [`BankHost`] is an `ExecutionBackend`: the executor state lives in
/// its [`ExecutorBank`], so all backends share one implementation.
pub trait ExecutionBackend {
    /// Number of executors (server instances).
    fn executors(&self) -> usize;

    /// True when `executor` has no running task (a down executor is never
    /// idle — it cannot accept work).
    fn is_idle(&self, executor: usize) -> bool;

    /// True when `executor` is up (not inside a fault-plan crash window and
    /// its worker alive).
    fn is_up(&self, executor: usize) -> bool;

    /// Indices of currently idle executors, ascending.
    fn idle_executors(&self) -> Vec<usize> {
        (0..self.executors()).filter(|&k| self.is_idle(k)).collect()
    }

    /// True when any executor is idle.
    fn any_idle(&self) -> bool {
        (0..self.executors()).any(|k| self.is_idle(k))
    }

    /// Earliest time `executor` could start a new task, counting its
    /// backlog at planned (nominal) durations.
    fn available_at(&self, executor: usize, now: SimTime) -> SimTime;

    /// [`Self::available_at`] for every executor, written into `out`
    /// (cleared first). Callers that plan repeatedly hold one buffer and
    /// refill it, so steady-state planning allocates nothing even when
    /// batching multiplies the number of availability queries per plan.
    fn availability_into(&self, now: SimTime, out: &mut Vec<SimTime>) {
        out.clear();
        for k in 0..self.executors() {
            out.push(self.available_at(k, now));
        }
    }

    /// Starts `query` on idle `executor` at once — or, on a batching
    /// backend, adds it to the executor's open batch, opening one if none
    /// is pending (cross-query batched execution). A batch launches when it
    /// reaches the configured `batch_max` or when its batching window
    /// expires, whichever is first, and every member then executes in one
    /// pass whose duration follows the [`schemble_sim::BatchCurve`]. The
    /// member's synthetic duration and fault fate are drawn at submission,
    /// in call order. Panics if the executor is busy or down.
    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime);

    /// Appends `query` to `executor`'s FIFO backlog (immediate-selection
    /// pipelines); the executor starts it as soon as it idles.
    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime);

    /// Cancels `executor`'s *running* task for `query` (anytime early exit):
    /// the task stops occupying the executor now, its completion never
    /// surfaces, and the time spent so far is charged as busy time — exactly
    /// the accounting a crash kill performs, minus the failure. A member of
    /// a not-yet-launched open batch is simply removed (nothing ran, nothing
    /// is charged) and the call succeeds; a member of an already-launched
    /// batch is refused — the whole batch shares one forward pass and cannot
    /// shed one member mid-flight. Returns whether a matching task was
    /// cancelled; `false` means the executor is running something else (or
    /// nothing), e.g. because a crash already killed the task, and the
    /// caller must leave its bookkeeping to the failure path.
    fn cancel_task(&mut self, executor: usize, query: u64, now: SimTime) -> bool;

    /// Number of tasks in `executor`'s open (not yet launched) batch; `0`
    /// without batching.
    fn open_batch_len(&self, executor: usize) -> usize;

    /// Asks the backend to surface [`BackendEvent::Wake`] at `at`.
    fn request_wake(&mut self, at: SimTime);

    /// Lifetime busy-time/task counters per executor.
    fn usage(&self) -> Vec<ExecutorUsage>;
}

/// A substrate that supplies time to an [`ExecutorBank`]: it times the
/// runs the bank launches, feeds their reports back through
/// [`ExecutorBank::retire_next`], and delivers wake-ups.
pub trait BankHost {
    /// The executors.
    fn bank(&self) -> &ExecutorBank;

    /// The executors, mutably.
    fn bank_mut(&mut self) -> &mut ExecutorBank;

    /// Times every run the bank launched since the last call (see
    /// [`ExecutorBank::next_launch`]).
    fn time_launches(&mut self);

    /// Surfaces [`BackendEvent::Wake`] at `at`.
    fn wake_at(&mut self, at: SimTime);
}

impl<H: BankHost> ExecutionBackend for H {
    fn executors(&self) -> usize {
        self.bank().executors()
    }

    fn is_idle(&self, executor: usize) -> bool {
        self.bank().is_idle(executor)
    }

    fn is_up(&self, executor: usize) -> bool {
        self.bank().is_up(executor)
    }

    fn available_at(&self, executor: usize, now: SimTime) -> SimTime {
        self.bank().available_at(executor, now)
    }

    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) {
        self.bank_mut().submit(executor, query, now);
        self.time_launches();
    }

    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime) {
        self.bank_mut().enqueue(executor, query, now);
        self.time_launches();
    }

    fn cancel_task(&mut self, executor: usize, query: u64, now: SimTime) -> bool {
        let cancelled = self.bank_mut().cancel(executor, query, now);
        self.time_launches();
        cancelled
    }

    fn open_batch_len(&self, executor: usize) -> usize {
        self.bank().open_len(executor)
    }

    fn request_wake(&mut self, at: SimTime) {
        self.wake_at(at);
    }

    fn usage(&self) -> Vec<ExecutorUsage> {
        self.bank().usage()
    }
}

/// An entry of the DES event queue.
#[derive(Clone, Copy)]
enum Queued {
    /// Handed to the engine as is: arrivals, wake-ups, fault transitions
    /// and crash casualties.
    Event(BackendEvent),
    /// A member of `executor`'s run `run` is due to report.
    Report { executor: usize, run: u64 },
}

/// The discrete-event-simulation backend: an [`ExecutorBank`] timed by an
/// [`EventQueue`].
///
/// [`SimBackend::pop_event`] is the simulation loop's clock: it advances
/// virtual time to the next event and retires reports in the bank (which
/// starts the executor's next backlog task) before handing the event to
/// the engine.
pub struct SimBackend {
    bank: ExecutorBank,
    events: EventQueue<Queued>,
}

impl SimBackend {
    /// A DES host for `bank`. The bank's fault transitions are queued now,
    /// before any arrival, so every backend built this way observes them in
    /// the same total order.
    pub fn new(bank: ExecutorBank) -> Self {
        let mut events = EventQueue::new();
        for tr in bank.transitions() {
            let executor = tr.executor;
            let event = if tr.up {
                BackendEvent::ExecutorUp { executor }
            } else {
                BackendEvent::ExecutorDown { executor }
            };
            events.push(tr.at, Queued::Event(event));
        }
        Self { bank, events }
    }

    /// The backend of one DES run over `workload`: a host for `bank` with
    /// every query's arrival queued.
    pub fn for_run(bank: ExecutorBank, workload: &Workload) -> Self {
        let mut backend = Self::new(bank);
        for (i, q) in workload.queries.iter().enumerate() {
            backend.push_arrival(q.arrival, i);
        }
        backend
    }

    /// Schedules `Arrival(index)` at `at`.
    pub fn push_arrival(&mut self, at: SimTime, index: usize) {
        self.events.push(at, Queued::Event(BackendEvent::Arrival(index)));
    }

    /// The virtual time of the next event this backend would surface,
    /// without advancing: the earlier of the event queue's head and any
    /// due batch launch.
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.events.peek_time();
        match self.bank.next_due_launch() {
            Some((due, _)) => Some(head.map_or(due, |t| t.min(due))),
            None => head,
        }
    }

    /// Advances to and returns the next event, or `None` once drained.
    ///
    /// Reports are retired in the bank here, so by the time the engine sees
    /// [`BackendEvent::TaskDone`] the executor is already idle or re-busy;
    /// stale reports are swallowed. A crash transition kills the executor's
    /// work and queues one [`BackendEvent::TaskFailed`] per casualty at the
    /// crash instant.
    pub fn pop_event(&mut self) -> Option<(SimTime, BackendEvent)> {
        loop {
            // A full batch launches synchronously in `submit_batch`; an
            // unfilled one launches when its window expires. Launching due
            // batches *before* popping any event at or past their deadline
            // means virtual time never slides past a pending launch.
            if let Some((due, k)) = self.bank.next_due_launch() {
                if self.events.peek_time().is_none_or(|t| due <= t) {
                    self.bank.launch_batch(k, due);
                    self.time_launches();
                    continue;
                }
            }
            let (now, queued) = self.events.pop()?;
            let event = match queued {
                Queued::Report { executor, run } => {
                    let Some(event) = self.bank.retire_next(executor, run, now) else { continue };
                    self.time_launches();
                    event
                }
                Queued::Event(BackendEvent::ExecutorDown { executor }) => {
                    for casualty in self.bank.crash(executor, now) {
                        self.events.push(now, Queued::Event(casualty));
                    }
                    BackendEvent::ExecutorDown { executor }
                }
                Queued::Event(BackendEvent::ExecutorUp { executor }) => {
                    self.bank.recover(executor, now);
                    BackendEvent::ExecutorUp { executor }
                }
                Queued::Event(event) => event,
            };
            return Some((now, event));
        }
    }

    /// The DES driver loop: hands `engine` every event strictly before
    /// `before` (every event, when `None`) and returns the time of the last
    /// one handled. Drivers that pause at virtual-time boundaries (the
    /// steal-epoch rendezvous) pass the boundary, so DES and virtual-clock
    /// serving cut their epochs at identical instants.
    pub fn drive(
        &mut self,
        engine: &mut dyn PipelineEngine,
        before: Option<SimTime>,
    ) -> Option<SimTime> {
        let mut last = None;
        while before.is_none_or(|b| self.peek_time().is_some_and(|t| t < b)) {
            let Some((now, event)) = self.pop_event() else { break };
            engine.handle(event, now, self);
            last = Some(now);
        }
        last
    }
}

impl BankHost for SimBackend {
    fn bank(&self) -> &ExecutorBank {
        &self.bank
    }

    fn bank_mut(&mut self) -> &mut ExecutorBank {
        &mut self.bank
    }

    fn time_launches(&mut self) {
        while let Some(launch) = self.bank.next_launch() {
            let report = Queued::Report { executor: launch.executor, run: launch.run };
            for _ in 0..launch.size {
                self.events.push(launch.completes_at, report);
            }
        }
    }

    fn wake_at(&mut self, at: SimTime) {
        self.events.push(at, Queued::Event(BackendEvent::Wake));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimDuration};

    /// Constant-latency executors, `ms` milliseconds each.
    fn bank(ms: &[f64]) -> ExecutorBank {
        ExecutorBank::new(ms.iter().map(|&m| LatencyModel::constant_millis(m)).collect(), 1, "test")
    }

    #[test]
    fn submitted_task_surfaces_completion() {
        let mut b = SimBackend::new(bank(&[10.0, 20.0]));
        assert_eq!(b.executors(), 2);
        assert!(b.any_idle());
        b.submit_batch(0, 7, SimTime::ZERO);
        assert!(!b.is_idle(0));
        assert!(b.is_idle(1));
        let (t, ev) = b.pop_event().expect("completion queued");
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(ev, BackendEvent::TaskDone { executor: 0, query: 7 });
        assert!(b.is_idle(0));
        assert_eq!(b.usage()[0].tasks, 1);
    }

    #[test]
    #[should_panic(expected = "busy or down executor")]
    fn submitting_to_a_busy_executor_panics() {
        let mut b = SimBackend::new(bank(&[10.0]));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
    }

    #[test]
    fn enqueue_chains_backlog_tasks() {
        let mut b = SimBackend::new(bank(&[10.0]));
        b.enqueue_task(0, 1, SimTime::ZERO);
        b.enqueue_task(0, 2, SimTime::ZERO);
        assert_eq!(b.available_at(0, SimTime::ZERO), SimTime::ZERO + SimDuration::from_millis(20));
        let (t1, e1) = b.pop_event().expect("first completion");
        assert_eq!(e1, BackendEvent::TaskDone { executor: 0, query: 1 });
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_millis(10));
        // Backlog task auto-started at the completion instant.
        let (t2, e2) = b.pop_event().expect("second completion");
        assert_eq!(e2, BackendEvent::TaskDone { executor: 0, query: 2 });
        assert_eq!(t2, SimTime::ZERO + SimDuration::from_millis(20));
        assert!(b.pop_event().is_none());
    }

    #[test]
    fn crash_kills_running_task_and_drops_backlog() {
        let plan = FaultPlan::parse("crash 0 0.015 0.040").unwrap();
        let mut b = SimBackend::new(bank(&[10.0]).with_faults(plan, 1));
        b.enqueue_task(0, 1, SimTime::ZERO); // runs 0..10ms... restarts as q2 at 10ms
        b.enqueue_task(0, 2, SimTime::ZERO); // running at crash time 15ms → killed
        b.enqueue_task(0, 3, SimTime::ZERO); // backlogged at crash → dropped
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskDone { executor: 0, query: 1 });
        let (t, ev) = b.pop_event().unwrap();
        assert_eq!(ev, BackendEvent::ExecutorDown { executor: 0 });
        assert_eq!(t, SimTime::from_micros(15_000));
        assert!(!b.is_up(0));
        assert!(!b.is_idle(0), "down executor is not idle");
        // Killed running task and dropped backlog task surface as failures
        // at the crash instant; the stale completion of q2 is swallowed.
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskFailed { executor: 0, query: 2 });
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskFailed { executor: 0, query: 3 });
        // Down executor advertises its recovery time.
        assert_eq!(b.available_at(0, t), SimTime::from_micros(40_000));
        let (t_up, up) = b.pop_event().unwrap();
        assert_eq!(up, BackendEvent::ExecutorUp { executor: 0 });
        assert_eq!(t_up, SimTime::from_micros(40_000));
        assert!(b.is_up(0) && b.is_idle(0));
        assert!(b.pop_event().is_none(), "stale completion was suppressed");
        // Partial busy time of the killed task (10..15ms) is charged.
        assert!((b.usage()[0].busy_secs - 0.015).abs() < 1e-9);
        assert_eq!(b.usage()[0].tasks, 1, "killed tasks don't count as completed");
    }

    #[test]
    fn timeout_surfaces_task_failed_at_the_cap() {
        // 3x straggler pushes the 10ms task past the q=1.0 timeout (= 10ms
        // nominal with zero jitter), so it is killed at the cap.
        let plan = FaultPlan::parse("straggle 0 0 1 3.0\ntimeout-q 1.0").unwrap();
        let mut b = SimBackend::new(bank(&[10.0]).with_faults(plan, 1));
        b.submit_batch(0, 9, SimTime::ZERO);
        let (t, ev) = b.pop_event().unwrap();
        assert_eq!(ev, BackendEvent::TaskFailed { executor: 0, query: 9 });
        assert_eq!(t, SimTime::from_micros(10_000), "killed at the timeout, not at 30ms");
        assert!(b.is_idle(0), "failed task releases the executor");
        assert_eq!(b.usage()[0].tasks, 0);
    }

    #[test]
    fn noop_fault_plan_changes_nothing() {
        let mut plain = SimBackend::new(bank(&[10.0]));
        let mut armed = SimBackend::new(bank(&[10.0]).with_faults(FaultPlan::default(), 7));
        for b in [&mut plain, &mut armed] {
            b.submit_batch(0, 1, SimTime::ZERO);
        }
        assert_eq!(plain.pop_event(), armed.pop_event());
    }

    #[test]
    fn batch_launches_when_window_expires() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        assert_eq!(b.open_batch_len(0), 2);
        assert!(b.is_idle(0), "an open batch keeps the executor joinable");
        // Launched at the 2ms window expiry; gamma(2) = 1.15 scales the 10ms
        // pass to 11.5ms, so both members finish at 13.5ms.
        let (t1, e1) = b.pop_event().unwrap();
        assert_eq!(e1, BackendEvent::TaskDone { executor: 0, query: 1 });
        assert_eq!(t1, SimTime::from_micros(13_500));
        let (t2, e2) = b.pop_event().unwrap();
        assert_eq!(e2, BackendEvent::TaskDone { executor: 0, query: 2 });
        assert_eq!(t2, t1, "batch members finish together");
        assert!(b.pop_event().is_none());
        assert_eq!(b.bank().tasks_batched(), 2);
        assert_eq!(b.usage()[0].tasks, 2);
        // One shared pass: 11.5ms of busy time, not 20ms.
        assert!((b.usage()[0].busy_secs - 0.0115).abs() < 1e-9);
    }

    #[test]
    fn full_batch_launches_immediately() {
        let cfg = BatchConfig::new(2, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        b.submit_batch(0, 1, SimTime::ZERO);
        assert_eq!(b.open_batch_len(0), 1);
        b.submit_batch(0, 2, SimTime::ZERO);
        assert_eq!(b.open_batch_len(0), 0, "reaching batch_max launches synchronously");
        assert!(!b.is_idle(0), "a launched batch occupies the executor");
        let (t, _) = b.pop_event().unwrap();
        assert_eq!(t, SimTime::from_micros(11_500), "no window wait when the batch fills");
    }

    #[test]
    fn cancel_removes_open_member_but_refuses_launched_member() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        assert!(b.cancel_task(0, 1, SimTime::ZERO), "open members are removable");
        assert_eq!(b.open_batch_len(0), 1);
        // The survivor launches alone at the window and costs the plain 10ms.
        let (t, ev) = b.pop_event().unwrap();
        assert_eq!(ev, BackendEvent::TaskDone { executor: 0, query: 2 });
        assert_eq!(t, SimTime::from_micros(12_000));
        assert!(b.pop_event().is_none(), "cancelled member left no stale events");

        let cfg = BatchConfig::new(2, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO); // fills → launches
        assert!(!b.cancel_task(0, 1, SimTime::ZERO), "launched members cannot be shed");
    }

    #[test]
    fn crash_kills_open_and_running_batches() {
        let plan = FaultPlan::parse("crash 0 0.015 0.040").unwrap();
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[20.0]).with_faults(plan, 1).with_batching(cfg));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        // The pass launches at 2ms and would run 23ms (gamma(2)·20ms); the
        // crash at 15ms kills it mid-flight.
        let (t, ev) = b.pop_event().unwrap();
        assert_eq!(ev, BackendEvent::ExecutorDown { executor: 0 });
        assert_eq!(t, SimTime::from_micros(15_000));
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskFailed { executor: 0, query: 1 });
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskFailed { executor: 0, query: 2 });
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::ExecutorUp { executor: 0 });
        assert!(b.pop_event().is_none(), "stale batch completions were suppressed");
        // Partial pass time 2..15ms is charged; no member completed.
        assert!((b.usage()[0].busy_secs - 0.013).abs() < 1e-9);
        assert_eq!(b.usage()[0].tasks, 0);
    }

    #[test]
    fn open_batch_quotes_marginal_join_cost() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        assert_eq!(b.available_at(0, SimTime::ZERO), SimTime::ZERO);
        b.submit_batch(0, 1, SimTime::ZERO);
        // Joining makes a batch of two: launch at 2ms, plus (gamma(2)−1) of
        // the 10ms planned latency = 1.5ms, so avail = 3.5ms and
        // avail + planned = 13.5ms — exactly the joined finish instant.
        assert_eq!(b.available_at(0, SimTime::ZERO), SimTime::from_micros(3_500));
    }

    #[test]
    fn inactive_batching_is_unbatched() {
        let cfg = BatchConfig::new(1, SimDuration::from_millis(2));
        let mut plain = SimBackend::new(bank(&[10.0]));
        let mut off = SimBackend::new(bank(&[10.0]).with_batching(cfg));
        plain.submit_batch(0, 1, SimTime::ZERO);
        off.submit_batch(0, 1, SimTime::ZERO);
        assert_eq!(plain.pop_event(), off.pop_event());
        assert_eq!(off.bank().tasks_batched(), 0);
    }

    #[test]
    fn wakes_and_arrivals_interleave_in_time_order() {
        let mut b = SimBackend::new(bank(&[1.0]));
        b.push_arrival(SimTime::ZERO + SimDuration::from_millis(5), 0);
        b.request_wake(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::Wake);
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::Arrival(0));
    }
}
