//! The threaded execution backend.
//!
//! [`ThreadedBackend`] hosts an [`ExecutorBank`] — the executor state
//! machine the simulator's backend drives too — and supplies it with wall
//! time: each run the bank launches becomes one job on the executor's
//! worker thread, which sleeps the dilated duration and reports back; the
//! report retires the run's members in the bank one by one. Everything
//! else the threaded substrate adds lives here:
//!
//! * the [`WorkerPool`] and the [`DilatedClock`] that time the runs;
//! * the heap of wake-ups the engine requested;
//! * the cursor that surfaces the fault plan's crash/recovery transitions
//!   as wall time passes them ([`ThreadedBackend::take_due_fault_events`]);
//! * [`ThreadedBackend::reap_dead`], folding panicked workers into the
//!   executor-down path, permanently;
//! * the live [`RuntimeMetrics`] gauges, republished from the bank after
//!   every change so observer threads can snapshot state without locks.
//!
//! A worker whose run was killed by a crash or a cancellation keeps
//! sleeping (threads cannot be cancelled); its eventual report is stale
//! and the bank swallows it. All methods run on the runtime's scheduler
//! thread.

use crate::clock::DilatedClock;
use crate::worker::WorkerPool;
use schemble_core::backend::{BackendEvent, BankHost};
use schemble_core::ExecutorBank;
use schemble_metrics::RuntimeMetrics;
use schemble_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Copies `bank`'s state into `metrics`' executor gauges and task
/// counters; batch sizes past `sizes_seen` feed the batch-size histogram.
pub(crate) fn publish(bank: &ExecutorBank, metrics: &RuntimeMetrics, sizes_seen: &mut usize) {
    let mut completed = 0;
    for (k, g) in metrics.executors.iter().enumerate() {
        g.queue_depth.store(bank.backlog_len(k) as u64, Relaxed);
        g.running.store(u64::from(bank.is_running(k)), Relaxed);
        g.up.store(u64::from(bank.is_up(k)), Relaxed);
        g.busy_micros.store(bank.busy(k).as_micros(), Relaxed);
        g.tasks.store(bank.tasks(k), Relaxed);
        completed += bank.tasks(k);
    }
    let c = &metrics.counters;
    c.tasks_started.store(bank.started(), Relaxed);
    c.tasks_completed.store(completed, Relaxed);
    c.tasks_batched.store(bank.tasks_batched(), Relaxed);
    for &size in &bank.batch_sizes()[*sizes_seen..] {
        metrics.batch_size.record(u64::from(size));
    }
    *sizes_seen = bank.batch_sizes().len();
}

/// An [`ExecutorBank`] timed by per-executor worker threads.
pub struct ThreadedBackend {
    bank: ExecutorBank,
    pool: WorkerPool,
    clock: DilatedClock,
    /// Per-executor backlog bound; exceeding it is a bug, not backpressure.
    queue_capacity: usize,
    /// Pending wake-ups requested by the engine.
    wakes: BinaryHeap<Reverse<SimTime>>,
    /// Next fault transition not yet surfaced.
    cursor: usize,
    metrics: Arc<RuntimeMetrics>,
    /// Batch sizes already recorded into the metrics histogram.
    sizes_seen: usize,
}

impl ThreadedBackend {
    /// Hosts `bank` on `pool`, one worker per executor.
    pub fn new(
        bank: ExecutorBank,
        pool: WorkerPool,
        clock: DilatedClock,
        queue_capacity: usize,
        metrics: Arc<RuntimeMetrics>,
    ) -> Self {
        assert_eq!(pool.len(), bank.executors(), "one worker per executor");
        assert_eq!(metrics.executors.len(), bank.executors());
        Self {
            bank,
            pool,
            clock,
            queue_capacity,
            wakes: BinaryHeap::new(),
            cursor: 0,
            metrics,
            sizes_seen: 0,
        }
    }

    /// Access to the worker pool (fault-injection tests poison workers).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Retires the next member of `executor`'s run `run`, whose worker
    /// reported. Call until it returns `None`, handing each event to the
    /// engine before retiring the next: the executor stays busy until its
    /// last member reaches the engine, as in the simulator. A report of a
    /// run a crash or cancellation ended yields nothing.
    pub fn report(&mut self, executor: usize, run: u64, now: SimTime) -> Option<BackendEvent> {
        let event = self.bank.retire_next(executor, run, now);
        self.time_launches();
        event
    }

    /// Surfaces fault-plan transitions due at or before `now` as backend
    /// events (executor down/up plus the tasks a crash killed). Call at the
    /// top of the scheduler loop, before waiting on the channel.
    pub fn take_due_fault_events(&mut self, now: SimTime) -> Vec<BackendEvent> {
        let mut out = Vec::new();
        while let Some(&tr) = self.bank.transitions().get(self.cursor).filter(|t| t.at <= now) {
            self.cursor += 1;
            let executor = tr.executor;
            if tr.up {
                if self.bank.recover(executor, now) {
                    out.push(BackendEvent::ExecutorUp { executor });
                }
            } else if self.bank.is_up(executor) {
                out.push(BackendEvent::ExecutorDown { executor });
                out.extend(self.bank.crash(executor, now));
            }
        }
        self.time_launches();
        out
    }

    /// Detects worker threads that died (panicked) and marks their
    /// executors permanently down, returning the resulting events. Poll
    /// this from the scheduler loop's timeout path.
    pub fn reap_dead(&mut self, now: SimTime) -> Vec<BackendEvent> {
        let mut out = Vec::new();
        for executor in 0..self.bank.executors() {
            if self.bank.is_dead(executor) || !self.pool.is_finished(executor) {
                continue;
            }
            self.bank.mark_dead(executor);
            if self.bank.is_up(executor) {
                out.push(BackendEvent::ExecutorDown { executor });
                out.extend(self.bank.crash(executor, now));
            }
        }
        self.time_launches();
        out
    }

    /// Launches every open batch whose window expired at or before `now`.
    /// Poll from the scheduler loop's top, before waiting on the channel
    /// ([`Self::next_wake`] includes the earliest launch deadline).
    pub fn launch_due_batches(&mut self, now: SimTime) {
        while let Some((_, k)) = self.bank.next_due_launch().filter(|&(due, _)| due <= now) {
            self.bank.launch_batch(k, now);
        }
        self.time_launches();
    }

    /// True when no executor is running, queueing or batching anything.
    pub fn all_idle(&self) -> bool {
        self.bank.drained()
    }

    /// Earliest pending wake-up, fault transition, or batch-window expiry.
    pub fn next_wake(&self) -> Option<SimTime> {
        let wake = self.wakes.peek().map(|Reverse(t)| *t);
        let fault = self.bank.transitions().get(self.cursor).map(|t| t.at);
        let launch = self.bank.next_due_launch().map(|(at, _)| at);
        [wake, fault, launch].into_iter().flatten().min()
    }

    /// Pops one wake-up due at or before `now`; true if one fired.
    pub fn take_due_wake(&mut self, now: SimTime) -> bool {
        if self.wakes.peek().is_some_and(|Reverse(t)| *t <= now) {
            self.wakes.pop();
            true
        } else {
            false
        }
    }

    /// Stops the worker threads (after their current runs) and joins them.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

impl BankHost for ThreadedBackend {
    fn bank(&self) -> &ExecutorBank {
        &self.bank
    }

    fn bank_mut(&mut self) -> &mut ExecutorBank {
        &mut self.bank
    }

    /// Hands each new run to its worker, then republishes the gauges.
    fn time_launches(&mut self) {
        while let Some(launch) = self.bank.next_launch() {
            self.pool.submit(launch.executor, launch.run, self.clock.dilate(launch.duration));
        }
        for k in 0..self.bank.executors() {
            assert!(
                self.bank.backlog_len(k) <= self.queue_capacity,
                "executor {k} backlog exceeded queue capacity {}",
                self.queue_capacity
            );
        }
        publish(&self.bank, &self.metrics, &mut self.sizes_seen);
    }

    fn wake_at(&mut self, at: SimTime) {
        self.wakes.push(Reverse(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::RuntimeMsg;
    use schemble_core::backend::ExecutionBackend;
    use schemble_sim::{BatchConfig, CrashWindow, FaultPlan, LatencyModel, SimDuration};
    use std::time::Duration;

    fn bank(ms: &[f64]) -> ExecutorBank {
        ExecutorBank::new(ms.iter().map(|&m| LatencyModel::constant_millis(m)).collect(), 1, "test")
    }

    fn backend(
        bank: ExecutorBank,
        dilation: f64,
    ) -> (ThreadedBackend, std::sync::mpsc::Receiver<RuntimeMsg>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(64);
        let pool = WorkerPool::spawn(bank.executors(), tx);
        let clock = DilatedClock::start(dilation);
        let metrics = Arc::new(RuntimeMetrics::new(bank.executors()));
        (ThreadedBackend::new(bank, pool, clock, 8, metrics), rx)
    }

    fn crash_plan() -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.crashes.push(CrashWindow {
            executor: 0,
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(20),
        });
        plan
    }

    #[test]
    fn started_tasks_complete_through_workers() {
        let (mut b, rx) = backend(bank(&[5.0, 5.0]), 50.0);
        let now = SimTime::ZERO;
        b.submit_batch(0, 1, now);
        assert!(!b.is_idle(0));
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("completion");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        let done = now + SimDuration::from_millis(5);
        assert_eq!(b.report(0, 1, done), Some(BackendEvent::TaskDone { executor: 0, query: 1 }));
        assert_eq!(b.report(0, 1, done), None, "one member, one event");
        assert!(b.is_idle(0));
        assert!(b.all_idle());
        assert_eq!(b.usage()[0].tasks, 1);
        assert_eq!(b.metrics.executors[0].tasks.load(Relaxed), 1, "gauges follow the bank");
        b.shutdown();
    }

    #[test]
    fn backlog_feeds_executor_on_completion() {
        let (mut b, rx) = backend(bank(&[2.0]), 50.0);
        let now = SimTime::ZERO;
        b.enqueue_task(0, 1, now);
        b.enqueue_task(0, 2, now);
        assert_eq!(
            b.available_at(0, now),
            now + SimDuration::from_millis(4),
            "running + backlog at sampled durations"
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            RuntimeMsg::Done { executor: 0, run: 1 }
        );
        assert!(b.report(0, 1, now + SimDuration::from_millis(2)).is_some());
        // Retiring query 1 launched query 2 as run 2.
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            RuntimeMsg::Done { executor: 0, run: 2 }
        );
        assert_eq!(
            b.report(0, 2, now + SimDuration::from_millis(4)),
            Some(BackendEvent::TaskDone { executor: 0, query: 2 })
        );
        assert!(b.all_idle());
        b.shutdown();
    }

    #[test]
    fn wake_heap_orders_and_fires() {
        let (mut b, _rx) = backend(bank(&[1.0]), 1000.0);
        b.request_wake(SimTime::from_millis(30));
        b.request_wake(SimTime::from_millis(10));
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(10)));
        assert!(!b.take_due_wake(SimTime::from_millis(5)));
        assert!(b.take_due_wake(SimTime::from_millis(10)));
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(30)));
        b.shutdown();
    }

    #[test]
    fn crash_window_downs_executor_and_swallows_stale_report() {
        let (mut b, rx) = backend(bank(&[5.0]).with_faults(crash_plan(), 1), 100.0);
        b.submit_batch(0, 7, SimTime::ZERO);
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(1)));
        let events = b.take_due_fault_events(SimTime::from_millis(1));
        assert_eq!(
            events,
            vec![
                BackendEvent::ExecutorDown { executor: 0 },
                BackendEvent::TaskFailed { executor: 0, query: 7 },
            ]
        );
        assert!(!b.is_up(0) && !b.is_idle(0));
        // Down executor advertises its recovery time.
        assert_eq!(b.available_at(0, SimTime::from_millis(1)), SimTime::from_millis(20));
        // The worker's late report is stale: swallowed, not delivered.
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("stale report");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        assert_eq!(b.report(0, 1, SimTime::from_millis(5)), None);
        let events = b.take_due_fault_events(SimTime::from_millis(20));
        assert_eq!(events, vec![BackendEvent::ExecutorUp { executor: 0 }]);
        assert!(b.is_up(0) && b.is_idle(0));
        b.shutdown();
    }

    #[test]
    fn cancel_frees_executor_and_swallows_stale_report() {
        let (mut b, rx) = backend(bank(&[5.0]), 100.0);
        b.submit_batch(0, 3, SimTime::ZERO);
        assert!(b.cancel_task(0, 3, SimTime::from_millis(2)));
        assert!(b.is_idle(0), "cancelled executor is free for new work");
        assert_eq!(b.usage()[0].tasks, 0, "a quit task is not a completion");
        // A second cancel (or one for a query not running) is refused.
        assert!(!b.cancel_task(0, 3, SimTime::from_millis(2)));
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("stale report");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        assert_eq!(b.report(0, 1, SimTime::from_millis(5)), None);
        b.shutdown();
    }

    #[test]
    fn batch_members_retire_one_by_one_from_one_report() {
        let cfg = BatchConfig::new(2, SimDuration::from_millis(2));
        let (mut b, rx) = backend(bank(&[5.0]).with_batching(cfg), 100.0);
        let now = SimTime::ZERO;
        b.submit_batch(0, 1, now);
        assert_eq!(b.open_batch_len(0), 1);
        assert!(b.is_idle(0), "an open batch keeps the executor joinable");
        assert!(!b.all_idle(), "an open batch holds work");
        b.submit_batch(0, 2, now);
        // Full: launched as one worker job for the whole pass.
        assert_eq!(b.open_batch_len(0), 0);
        assert!(!b.is_idle(0));
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("run report");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        // gamma(2) = 1.15 scales the 5ms pass to 5.75ms.
        let done = now + SimDuration::from_micros(5_750);
        assert_eq!(b.report(0, 1, done), Some(BackendEvent::TaskDone { executor: 0, query: 1 }));
        assert!(!b.is_idle(0), "busy until the last member is out");
        assert_eq!(b.report(0, 1, done), Some(BackendEvent::TaskDone { executor: 0, query: 2 }));
        assert_eq!(b.report(0, 1, done), None);
        assert!(b.all_idle());
        assert_eq!(b.usage()[0].tasks, 2, "both members completed");
        assert!((b.usage()[0].busy_secs - 0.00575).abs() < 1e-9, "busy charged once per pass");
        assert_eq!(b.metrics.counters.tasks_batched.load(Relaxed), 2);
        assert_eq!(b.metrics.batch_size.count(), 1);
        b.shutdown();
    }

    #[test]
    fn window_expiry_launches_the_open_batch() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let (mut b, rx) = backend(bank(&[5.0]).with_batching(cfg), 100.0);
        b.submit_batch(0, 7, SimTime::ZERO);
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(2)), "launch deadline is a wake");
        b.launch_due_batches(SimTime::from_millis(1));
        assert_eq!(b.open_batch_len(0), 1, "window not expired yet");
        b.launch_due_batches(SimTime::from_millis(2));
        assert_eq!(b.open_batch_len(0), 0);
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("run report");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        // A singleton pass runs at gamma(1) = 1: plain 5ms.
        let event = b.report(0, 1, SimTime::from_millis(7));
        assert_eq!(event, Some(BackendEvent::TaskDone { executor: 0, query: 7 }));
        assert!(b.all_idle());
        b.shutdown();
    }

    #[test]
    fn crash_kills_batches_and_swallows_the_stale_report() {
        let cfg = BatchConfig::new(2, SimDuration::from_millis(2));
        let (mut b, rx) =
            backend(bank(&[5.0]).with_faults(crash_plan(), 1).with_batching(cfg), 100.0);
        b.submit_batch(0, 4, SimTime::ZERO);
        b.submit_batch(0, 5, SimTime::ZERO); // full → launched
        let events = b.take_due_fault_events(SimTime::from_millis(1));
        assert_eq!(
            events,
            vec![
                BackendEvent::ExecutorDown { executor: 0 },
                BackendEvent::TaskFailed { executor: 0, query: 4 },
                BackendEvent::TaskFailed { executor: 0, query: 5 },
            ]
        );
        let msg = rx.recv_timeout(Duration::from_secs(2)).expect("stale run report");
        assert_eq!(msg, RuntimeMsg::Done { executor: 0, run: 1 });
        assert_eq!(b.report(0, 1, SimTime::from_millis(6)), None);
        b.shutdown();
    }

    #[test]
    fn reap_dead_marks_poisoned_worker_down_forever() {
        let (mut b, _rx) = backend(bank(&[1.0, 1.0]), 1000.0);
        b.pool().poison(0);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !b.pool().is_finished(0) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let events = b.reap_dead(SimTime::from_millis(3));
        assert_eq!(events, vec![BackendEvent::ExecutorDown { executor: 0 }]);
        assert!(!b.is_up(0));
        assert!(b.is_up(1));
        assert!(b.reap_dead(SimTime::from_millis(4)).is_empty(), "reported once");
        // Far-future availability steers the planner away for good.
        assert!(b.available_at(0, SimTime::from_millis(4)) > SimTime::from_secs_f64(60.0));
        b.shutdown();
    }
}
