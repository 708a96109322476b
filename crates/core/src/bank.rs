//! The executor state machine shared by every execution backend.
//!
//! An [`ExecutorBank`] models the paper's executors (Fig. 3): one
//! non-preemptive base-model server per executor, each with a FIFO task
//! backlog. It owns everything about executing tasks that does not depend
//! on *how* time passes: latency and fault-fate draws, the running slot,
//! backlogs, open cross-query batches, crash/recovery state, stale-report
//! recognition, busy and task accounting, and the task lifecycle trace
//! events. It runs no threads and keeps no event queue; every call carries
//! the current time.
//!
//! A host supplies time. When the bank launches a run (a single task, or a
//! batch of members sharing one pass) it records a [`Launch`]; the host
//! takes it with [`ExecutorBank::next_launch`] and arranges for the run's
//! report to come back at `completes_at` — the DES host queues one report
//! per member, the threaded host hands one job to a worker thread. Each
//! report names its run; [`ExecutorBank::retire_next`] retires the run's
//! next member and returns the engine event, or `None` for a report of a
//! run that a crash or a cancellation already ended.

use crate::backend::{BackendEvent, ExecutorUsage};
use rand::rngs::StdRng;
use schemble_sim::rng::stream_rng;
use schemble_sim::{
    BatchConfig, FaultPlan, FaultState, FaultTransition, LatencyModel, SimDuration, SimTime,
};
use schemble_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::Arc;

/// A run the bank just launched, for its host to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Executor the run occupies.
    pub executor: usize,
    /// The run's id on that executor; its reports must carry it.
    pub run: u64,
    /// Members sharing the run (1 for an unbatched task).
    pub size: usize,
    /// Service time of the whole run.
    pub duration: SimDuration,
    /// When the run's members are due to report.
    pub completes_at: SimTime,
}

/// A task awaiting execution: `(query, duration, doomed)`, its duration and
/// fault fate drawn at submission.
type Drawn = (u64, SimDuration, bool);

/// One executor's state.
struct Executor {
    latency: LatencyModel,
    timeout: Option<SimDuration>,
    /// Id of the current (or last) run; bumped at every launch.
    run: u64,
    /// Members of the current run as `(query, doomed)`; empty while idle.
    members: Vec<(u64, bool)>,
    /// Members of the current run already retired.
    retired: usize,
    /// Whether the current run is a launched batch (whose members cannot
    /// be cancelled one by one).
    batched: bool,
    duration: SimDuration,
    completes_at: SimTime,
    backlog: VecDeque<Drawn>,
    /// The open (not yet launched) batch; empty when none is open.
    open: Vec<Drawn>,
    opened_at: SimTime,
    down: bool,
    /// Worker thread gone for good; never recovers.
    dead: bool,
    busy: SimDuration,
    tasks: u64,
}

/// Availability quoted for an executor that will never recover.
const NEVER: SimDuration = SimDuration::from_micros(3_600_000_000);

/// The executors of one engine, as a pure state machine.
pub struct ExecutorBank {
    execs: Vec<Executor>,
    rng: StdRng,
    trace: Arc<TraceSink>,
    /// Fault-plan interpreter; `None` makes no fault draw at all.
    faults: Option<FaultState>,
    /// Up/down transitions of the plan on existing executors, sorted.
    transitions: Vec<FaultTransition>,
    /// Cross-query batching; `None` when off or inactive.
    batching: Option<BatchConfig>,
    batch_seq: u64,
    started: u64,
    batched: u64,
    batch_sizes: Vec<u32>,
    launched: VecDeque<Launch>,
}

impl ExecutorBank {
    /// One idle executor per entry of `latencies`, drawing execution times
    /// from the `(seed, stream)` RNG stream.
    pub fn new(latencies: Vec<LatencyModel>, seed: u64, stream: &str) -> Self {
        let execs = latencies
            .into_iter()
            .map(|latency| Executor {
                latency,
                timeout: None,
                run: 0,
                members: Vec::new(),
                retired: 0,
                batched: false,
                duration: SimDuration::ZERO,
                completes_at: SimTime::ZERO,
                backlog: VecDeque::new(),
                open: Vec::new(),
                opened_at: SimTime::ZERO,
                down: false,
                dead: false,
                busy: SimDuration::ZERO,
                tasks: 0,
            })
            .collect();
        Self {
            execs,
            rng: stream_rng(seed, stream),
            trace: TraceSink::disabled(),
            faults: None,
            transitions: Vec::new(),
            batching: None,
            batch_seq: 0,
            started: 0,
            batched: 0,
            batch_sizes: Vec::new(),
            launched: VecDeque::new(),
        }
    }

    /// The executors of one run: [`Self::new`] tracing into `trace`, with
    /// `faults` and `batching` installed.
    pub fn for_run(
        latencies: Vec<LatencyModel>,
        seed: u64,
        stream: &str,
        trace: Arc<TraceSink>,
        faults: Option<&FaultPlan>,
        batching: Option<BatchConfig>,
    ) -> Self {
        let mut bank = Self { trace, ..Self::new(latencies, seed, stream) };
        if let Some(plan) = faults {
            bank = bank.with_faults(plan.clone(), seed);
        }
        if let Some(config) = batching {
            bank = bank.with_batching(config);
        }
        bank
    }

    /// Enables cross-query batching. An inactive config (`batch_max <= 1`)
    /// is ignored, so `--batch-max 1` is byte-identical to no batching.
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        if config.active() {
            self.batching = Some(config);
        }
        self
    }

    /// Arms a fault plan, seeding the dedicated `"faults"` RNG stream from
    /// `seed`. A no-op plan changes nothing.
    pub fn with_faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        if plan.is_noop() {
            return self;
        }
        let n = self.execs.len();
        self.transitions = plan.transitions().into_iter().filter(|t| t.executor < n).collect();
        let state = FaultState::new(plan, seed);
        for e in &mut self.execs {
            e.timeout = state.timeout_for(&e.latency);
        }
        self.faults = Some(state);
        self
    }

    /// The plan's up/down transitions, sorted by time; the host surfaces
    /// them through [`Self::crash`] and [`Self::recover`].
    pub fn transitions(&self) -> &[FaultTransition] {
        &self.transitions
    }

    /// Number of executors.
    pub fn executors(&self) -> usize {
        self.execs.len()
    }

    /// True when `executor` is up and runs nothing (an open batch leaves it
    /// idle: it still accepts members).
    pub fn is_idle(&self, executor: usize) -> bool {
        let e = &self.execs[executor];
        !e.down && e.members.is_empty()
    }

    /// True when `executor` is not inside a crash window.
    pub fn is_up(&self, executor: usize) -> bool {
        !self.execs[executor].down
    }

    /// True when `executor` has a run in flight.
    pub fn is_running(&self, executor: usize) -> bool {
        !self.execs[executor].members.is_empty()
    }

    /// Tasks in `executor`'s FIFO backlog.
    pub fn backlog_len(&self, executor: usize) -> usize {
        self.execs[executor].backlog.len()
    }

    /// Members of `executor`'s open batch.
    pub fn open_len(&self, executor: usize) -> usize {
        self.execs[executor].open.len()
    }

    /// True when no executor runs, queues or batches anything.
    pub fn drained(&self) -> bool {
        self.execs.iter().all(|e| e.members.is_empty() && e.backlog.is_empty() && e.open.is_empty())
    }

    /// Earliest time `executor` could start a new task: after its run and
    /// backlog, after an open batch it would join, and after its recovery
    /// when down.
    pub fn available_at(&self, executor: usize, now: SimTime) -> SimTime {
        let e = &self.execs[executor];
        let mut at = if e.members.is_empty() { now } else { e.completes_at.max(now) };
        for &(_, duration, _) in &e.backlog {
            at += duration;
        }
        if let (Some(cfg), false) = (self.batching, e.open.is_empty()) {
            // Quote the *marginal* cost of joining the open batch: it
            // launches at `opened_at + window` at the latest and would then
            // run one pass of `s + 1` members, so the instant that makes
            // `available_at + planned` equal the predicted joined finish is
            // `launch + (gamma(s + 1) - 1) · planned`. The DP thereby prices
            // joining an open batch against opening a fresh one elsewhere.
            let planned = e.latency.planned();
            let gamma = cfg.curve.gamma(e.open.len() + 1);
            let marginal = SimDuration::from_micros(
                (planned.as_micros() as f64 * (gamma - 1.0)).round() as u64,
            );
            at = at.max(e.opened_at + cfg.window + marginal);
        }
        if e.dead {
            at.max(now + NEVER)
        } else if e.down {
            let recovery =
                self.transitions.iter().find(|t| t.executor == executor && t.up && t.at > now);
            at.max(recovery.map_or(now, |t| t.at))
        } else {
            at
        }
    }

    /// Starts `query` on idle `executor` or, with batching, adds it to the
    /// executor's open batch (opening one if needed); a batch reaching
    /// `batch_max` launches at once. The task's duration and fate are drawn
    /// now, in call order, whether or not it ends up co-batched.
    ///
    /// # Panics
    /// Panics if `executor` is busy or down.
    pub fn submit(&mut self, executor: usize, query: u64, now: SimTime) {
        let e = &self.execs[executor];
        assert!(
            !e.down && e.members.is_empty(),
            "task submitted to busy or down executor {executor}"
        );
        let (duration, doomed) = self.draw(executor, now);
        let Some(cfg) = self.batching else {
            self.execs[executor].members.push((query, doomed));
            self.launch(executor, now, duration, false);
            return;
        };
        // `TaskEnqueue` marks the batch-queue wait; `TaskStart` lands at the
        // launch instant, so exporters see queue-wait vs service split.
        self.trace.emit(TraceEvent::TaskEnqueue { t: now, query, executor: executor as u16 });
        let e = &mut self.execs[executor];
        if e.open.is_empty() {
            e.opened_at = now;
        }
        e.open.push((query, duration, doomed));
        if e.open.len() >= cfg.batch_max {
            self.launch_batch(executor, now);
        }
    }

    /// Appends `query` to `executor`'s FIFO backlog; an idle executor starts
    /// it at once.
    pub fn enqueue(&mut self, executor: usize, query: u64, now: SimTime) {
        debug_assert!(!self.execs[executor].down, "enqueue onto down executor {executor}");
        let (duration, doomed) = self.draw(executor, now);
        let e = &mut self.execs[executor];
        e.backlog.push_back((query, duration, doomed));
        if e.members.is_empty() {
            self.start_next(executor, now);
        } else {
            self.trace.emit(TraceEvent::TaskEnqueue { t: now, query, executor: executor as u16 });
        }
    }

    /// Cancels `query`'s task on `executor` (anytime early exit). An open
    /// batch member is removed outright: nothing ran, nothing is charged. A
    /// running unbatched task stops now: the time spent so far is charged,
    /// its report turns stale and the backlog moves on. A launched batch
    /// shares one pass, so its members are refused, as is a query that is
    /// not running here (a crash may have killed it first).
    pub fn cancel(&mut self, executor: usize, query: u64, now: SimTime) -> bool {
        let e = &mut self.execs[executor];
        if let Some(i) = e.open.iter().position(|&(q, _, _)| q == query) {
            e.open.remove(i);
            return true;
        }
        if e.batched || e.members.first().map(|&(q, _)| q) != Some(query) {
            return false;
        }
        e.busy = e.busy + e.spent(now);
        e.members.clear();
        self.start_next(executor, now);
        true
    }

    /// Earliest open-batch launch deadline `(at, executor)`, if any.
    /// Executor order breaks ties.
    pub fn next_due_launch(&self) -> Option<(SimTime, usize)> {
        let window = self.batching?.window;
        let mut due: Option<(SimTime, usize)> = None;
        for (k, e) in self.execs.iter().enumerate() {
            if !e.open.is_empty() {
                let at = e.opened_at + window;
                if due.is_none_or(|(t, _)| at < t) {
                    due = Some((at, k));
                }
            }
        }
        due
    }

    /// Launches `executor`'s open batch at `at`: one pass covering every
    /// member, with the service time of the longest member scaled by the
    /// batch curve.
    pub fn launch_batch(&mut self, executor: usize, at: SimTime) {
        let cfg = self.batching.expect("batching configured");
        let e = &mut self.execs[executor];
        debug_assert!(e.members.is_empty(), "batch launched onto busy executor {executor}");
        let size = e.open.len();
        let Some(longest) = e.open.iter().map(|&(_, d, _)| d).max() else { return };
        let duration = cfg.curve.scale(longest, size);
        e.members.extend(e.open.drain(..).map(|(q, _, doomed)| (q, doomed)));
        self.batched += size as u64;
        self.batch_sizes.push(size as u32);
        self.launch(executor, at, duration, true);
        let batch = self.batch_seq;
        self.batch_seq += 1;
        self.trace.emit(TraceEvent::BatchFormed {
            t: at,
            executor: executor as u16,
            batch,
            size: size as u32,
        });
    }

    /// The oldest launch its host has not timed yet.
    pub fn next_launch(&mut self) -> Option<Launch> {
        self.launched.pop_front()
    }

    /// Retires the next member of `executor`'s run `run` at `now`, in
    /// launch order, and returns its `TaskDone`/`TaskFailed`. The last
    /// member out frees the executor, charges the run's service time once
    /// and starts the next backlog task. `None` marks a stale report: the
    /// run was already ended by a crash or a cancellation.
    pub fn retire_next(&mut self, executor: usize, run: u64, now: SimTime) -> Option<BackendEvent> {
        let e = &mut self.execs[executor];
        if e.run != run {
            return None;
        }
        let &(query, doomed) = e.members.get(e.retired)?;
        e.retired += 1;
        let last = e.retired == e.members.len();
        if last {
            e.busy = e.busy + e.duration;
            e.members.clear();
        }
        let (event, trace) = if doomed {
            (
                BackendEvent::TaskFailed { executor, query },
                TraceEvent::TaskFailed { t: now, query, executor: executor as u16 },
            )
        } else {
            e.tasks += 1;
            (
                BackendEvent::TaskDone { executor, query },
                TraceEvent::TaskDone { t: now, query, executor: executor as u16 },
            )
        };
        self.trace.emit(trace);
        if last {
            self.start_next(executor, now);
        }
        Some(event)
    }

    /// Takes `executor` down at `now`: kills its run (charging the time
    /// spent), drops its backlog and open batch, and returns one
    /// `TaskFailed` per casualty. The killed run's reports turn stale.
    pub fn crash(&mut self, executor: usize, now: SimTime) -> Vec<BackendEvent> {
        let e = &mut self.execs[executor];
        debug_assert!(!e.down, "executor {executor} is already down");
        e.down = true;
        let mut casualties: Vec<u64> = Vec::new();
        if !e.members.is_empty() {
            e.busy = e.busy + e.spent(now);
            casualties.extend(e.members[e.retired..].iter().map(|&(q, _)| q));
            e.members.clear();
        }
        casualties.extend(e.backlog.drain(..).map(|(q, _, _)| q));
        casualties.extend(e.open.drain(..).map(|(q, _, _)| q));
        self.trace.emit(TraceEvent::ExecutorDown { t: now, executor: executor as u16 });
        casualties
            .into_iter()
            .map(|query| {
                self.trace.emit(TraceEvent::TaskFailed {
                    t: now,
                    query,
                    executor: executor as u16,
                });
                BackendEvent::TaskFailed { executor, query }
            })
            .collect()
    }

    /// Brings a crashed `executor` back up at `now`; `false` (and no
    /// change) for a dead one.
    pub fn recover(&mut self, executor: usize, now: SimTime) -> bool {
        let e = &mut self.execs[executor];
        if e.dead {
            return false;
        }
        e.down = false;
        self.trace.emit(TraceEvent::ExecutorUp { t: now, executor: executor as u16 });
        true
    }

    /// Marks `executor`'s worker gone for good: it never recovers and quotes
    /// far-future availability. Callers crash it too if it is still up.
    pub fn mark_dead(&mut self, executor: usize) {
        self.execs[executor].dead = true;
    }

    /// True once [`Self::mark_dead`] was called for `executor`.
    pub fn is_dead(&self, executor: usize) -> bool {
        self.execs[executor].dead
    }

    /// Busy time charged to `executor` so far.
    pub fn busy(&self, executor: usize) -> SimDuration {
        self.execs[executor].busy
    }

    /// Tasks `executor` completed so far.
    pub fn tasks(&self, executor: usize) -> u64 {
        self.execs[executor].tasks
    }

    /// Tasks started so far (one per `TaskStart`), cancelled ones included.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Tasks launched as batch members so far.
    pub fn tasks_batched(&self) -> u64 {
        self.batched
    }

    /// Size of every batch launched so far, in launch order.
    pub fn batch_sizes(&self) -> &[u32] {
        &self.batch_sizes
    }

    /// Lifetime busy-time/task counters per executor.
    pub fn usage(&self) -> Vec<ExecutorUsage> {
        self.execs
            .iter()
            .map(|e| ExecutorUsage { busy_secs: e.busy.as_secs_f64(), tasks: e.tasks })
            .collect()
    }

    /// Draws a task's duration, then its fault fate.
    fn draw(&mut self, executor: usize, now: SimTime) -> (SimDuration, bool) {
        let e = &self.execs[executor];
        let sampled = e.latency.sample(&mut self.rng);
        match self.faults.as_mut() {
            Some(f) => {
                let fate = f.task_fate(executor, now, sampled, e.timeout);
                (fate.duration, fate.failed)
            }
            None => (sampled, false),
        }
    }

    /// Starts the head of `executor`'s backlog if it is up and idle.
    fn start_next(&mut self, executor: usize, now: SimTime) {
        let e = &mut self.execs[executor];
        if e.down || !e.members.is_empty() {
            return;
        }
        if let Some((query, duration, doomed)) = e.backlog.pop_front() {
            e.members.push((query, doomed));
            self.launch(executor, now, duration, false);
        }
    }

    /// Starts the run now held in `executor`'s members at `at` and records
    /// it for the host.
    fn launch(&mut self, executor: usize, at: SimTime, duration: SimDuration, batched: bool) {
        let e = &mut self.execs[executor];
        e.run += 1;
        e.retired = 0;
        e.batched = batched;
        e.duration = duration;
        e.completes_at = at + duration;
        let size = e.members.len();
        self.started += size as u64;
        for &(query, _) in &e.members {
            self.trace.emit(TraceEvent::TaskStart { t: at, query, executor: executor as u16 });
        }
        self.launched.push_back(Launch {
            executor,
            run: e.run,
            size,
            duration,
            completes_at: e.completes_at,
        });
    }
}

impl Executor {
    /// Service time of the current run spent by `now`.
    fn spent(&self, now: SimTime) -> SimDuration {
        let left = self.completes_at.saturating_since(now);
        SimDuration::from_micros(self.duration.as_micros().saturating_sub(left.as_micros()))
    }
}
