//! Property test of the executor state machine.
//!
//! Random sequences of submit, enqueue, batch launch, cancel, crash/recover
//! and report calls drive an `ExecutorBank` against a small reference model
//! of the same executors. The test plays the host: it times every launch
//! the bank records and delivers each member's report in due order, the
//! way the DES backend does. Checked after every step:
//!
//! * every task resolves exactly once (done, failed or cancelled), and all
//!   resolve once the bank drains;
//! * runs retire their members in FIFO (launch) order, and backlogs start
//!   in enqueue order;
//! * no stale report surfaces: a report of a run a crash or cancellation
//!   ended yields nothing;
//! * per-executor busy time equals the service time of retired runs plus
//!   the spent part of killed ones — never more than the elapsed time;
//! * `usage().tasks` equals the number of completions;
//! * an up executor's `available_at` is its run's end plus its backlog sum.

use proptest::prelude::*;
use schemble_core::backend::BackendEvent;
use schemble_core::ExecutorBank;
use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// The reference model of one executor.
#[derive(Default)]
struct Model {
    backlog: VecDeque<u64>,
    open: Vec<u64>,
    /// Members of the live run not yet retired, in launch order.
    running: VecDeque<u64>,
    run: u64,
    batched: bool,
    duration: SimDuration,
    completes_at: SimTime,
    down: bool,
    busy: SimDuration,
    done: u64,
}

impl Model {
    /// Service time of the live run spent by `now`.
    fn spent(&self, now: SimTime) -> SimDuration {
        let left = self.completes_at.saturating_since(now).as_micros();
        SimDuration::from_micros(self.duration.as_micros().saturating_sub(left))
    }
}

struct Harness {
    bank: ExecutorBank,
    models: Vec<Model>,
    latency: Vec<SimDuration>,
    now: SimTime,
    /// Reports in flight: `(due, seq, executor, run)`.
    reports: Vec<(SimTime, u64, usize, u64)>,
    seq: u64,
    next_query: u64,
    unresolved: BTreeSet<u64>,
}

impl Harness {
    fn resolve(&mut self, query: u64) {
        assert!(self.unresolved.remove(&query), "query {query} resolved twice");
    }

    /// Takes the bank's launches; `expected` is the member list the model
    /// predicts for executor `k` (empty: no launch).
    fn expect_launch(&mut self, k: usize, expected: Vec<u64>, batched: bool) {
        let launch = self.bank.next_launch();
        if expected.is_empty() {
            assert_eq!(launch, None, "unexpected launch on executor {k}");
            return;
        }
        let launch = launch.expect("launch recorded");
        assert_eq!(self.bank.next_launch(), None, "one launch per call");
        assert_eq!((launch.executor, launch.size), (k, expected.len()));
        assert_eq!(launch.completes_at, self.now + launch.duration);
        let m = &mut self.models[k];
        assert!(m.running.is_empty(), "launch onto a busy executor");
        m.running = expected.into();
        m.run = launch.run;
        m.batched = batched;
        m.duration = launch.duration;
        m.completes_at = launch.completes_at;
        for _ in 0..launch.size {
            self.reports.push((launch.completes_at, self.seq, k, launch.run));
            self.seq += 1;
        }
    }

    /// The backlog head the bank must start on idle, up executor `k`.
    fn next_from_backlog(&mut self, k: usize) -> Vec<u64> {
        let m = &mut self.models[k];
        if m.down || !m.running.is_empty() {
            return Vec::new();
        }
        m.backlog.pop_front().into_iter().collect()
    }

    fn submit(&mut self, k: usize, batch_max: usize) {
        let m = &self.models[k];
        if m.down || !m.running.is_empty() {
            return;
        }
        let q = self.next_query;
        self.next_query += 1;
        self.unresolved.insert(q);
        self.bank.submit(k, q, self.now);
        if batch_max <= 1 {
            self.expect_launch(k, vec![q], false);
            return;
        }
        let m = &mut self.models[k];
        m.open.push(q);
        let full = if m.open.len() >= batch_max { std::mem::take(&mut m.open) } else { Vec::new() };
        self.expect_launch(k, full, true);
        assert_eq!(self.bank.open_len(k), self.models[k].open.len());
    }

    fn enqueue(&mut self, k: usize) {
        if self.models[k].down {
            return;
        }
        let q = self.next_query;
        self.next_query += 1;
        self.unresolved.insert(q);
        self.bank.enqueue(k, q, self.now);
        self.models[k].backlog.push_back(q);
        let head = self.next_from_backlog(k);
        self.expect_launch(k, head, false);
    }

    fn launch(&mut self, k: usize) {
        if self.models[k].open.is_empty() {
            return;
        }
        self.bank.launch_batch(k, self.now);
        let members = std::mem::take(&mut self.models[k].open);
        self.expect_launch(k, members, true);
    }

    fn cancel(&mut self, k: usize, pick: usize) {
        let m = &self.models[k];
        let candidates: Vec<u64> =
            m.open.iter().chain(&m.running).chain(&m.backlog).copied().collect();
        let query = candidates.get(pick).copied().unwrap_or(u64::MAX);
        let now = self.now;
        let m = &mut self.models[k];
        let expected = if let Some(i) = m.open.iter().position(|&q| q == query) {
            m.open.remove(i);
            true
        } else if !m.batched && m.running.front() == Some(&query) {
            m.busy = m.busy + m.spent(now);
            m.running.clear();
            true
        } else {
            false
        };
        assert_eq!(self.bank.cancel(k, query, now), expected, "cancel of {query} on {k}");
        if expected {
            self.resolve(query);
        }
        let head = self.next_from_backlog(k);
        self.expect_launch(k, head, false);
    }

    fn toggle(&mut self, k: usize) {
        let now = self.now;
        if self.models[k].down {
            assert!(self.bank.recover(k, now));
            self.models[k].down = false;
            return;
        }
        let m = &mut self.models[k];
        if !m.running.is_empty() {
            m.busy = m.busy + m.spent(now);
        }
        m.down = true;
        let casualties: Vec<u64> =
            m.running.drain(..).chain(m.backlog.drain(..)).chain(m.open.drain(..)).collect();
        let failed: Vec<BackendEvent> = casualties
            .iter()
            .map(|&query| BackendEvent::TaskFailed { executor: k, query })
            .collect();
        assert_eq!(self.bank.crash(k, now), failed);
        for q in casualties {
            self.resolve(q);
        }
        assert!(!self.bank.is_up(k) && !self.bank.is_idle(k));
    }

    /// Delivers the earliest report in flight.
    fn report(&mut self) {
        let Some(i) =
            (0..self.reports.len()).min_by_key(|&i| (self.reports[i].0, self.reports[i].1))
        else {
            return;
        };
        let (due, _, k, run) = self.reports.swap_remove(i);
        self.now = self.now.max(due);
        let now = self.now;
        let event = self.bank.retire_next(k, run, now);
        let m = &mut self.models[k];
        if m.run != run || m.running.is_empty() {
            assert_eq!(event, None, "stale report surfaced");
            return;
        }
        let query = m.running.pop_front().expect("live member");
        match event {
            Some(BackendEvent::TaskDone { executor, query: q }) if executor == k => {
                assert_eq!(q, query, "members retire in launch order");
                m.done += 1;
            }
            Some(BackendEvent::TaskFailed { executor, query: q }) if executor == k => {
                assert_eq!(q, query, "members retire in launch order");
            }
            other => panic!("live report yielded {other:?}"),
        }
        if m.running.is_empty() {
            m.busy = m.busy + m.duration;
        }
        self.resolve(query);
        let head = self.next_from_backlog(k);
        self.expect_launch(k, head, false);
    }

    fn check(&self, exact_durations: bool) {
        let usage = self.bank.usage();
        for (k, m) in self.models.iter().enumerate() {
            assert_eq!(self.bank.busy(k), m.busy, "busy time of executor {k}");
            assert!(m.busy <= self.now - SimTime::ZERO, "busy beyond elapsed time");
            assert_eq!(self.bank.tasks(k), m.done);
            assert_eq!(usage[k].tasks, m.done, "usage counts completions");
            assert_eq!(self.bank.is_up(k), !m.down);
            assert_eq!(self.bank.backlog_len(k), m.backlog.len());
            if exact_durations && !m.down && m.open.is_empty() {
                let mut expected =
                    if m.running.is_empty() { self.now } else { m.completes_at.max(self.now) };
                for _ in &m.backlog {
                    expected += self.latency[k];
                }
                assert_eq!(self.bank.available_at(k, self.now), expected, "executor {k}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bank_matches_its_reference_model(
        m in 1usize..4,
        batch_max in 0usize..4,
        transient in proptest::bool::ANY,
        seed in 0u64..1000,
        ops in collection::vec((0u8..7, 0usize..4, 0usize..6, 0u64..6_000), 1..120),
    ) {
        let latency: Vec<SimDuration> =
            (0..m).map(|k| SimDuration::from_micros(3_000 + 2_500 * k as u64)).collect();
        let models = latency.iter().map(|d| LatencyModel::constant_millis(d.as_millis_f64()));
        let mut bank = ExecutorBank::new(models.collect(), seed, "bank-properties")
            .with_batching(BatchConfig::new(batch_max, SimDuration::from_millis(2)));
        if transient {
            bank = bank.with_faults(FaultPlan { transient_p: 0.3, ..FaultPlan::default() }, seed);
        }
        let mut h = Harness {
            bank,
            models: (0..m).map(|_| Model::default()).collect(),
            latency,
            now: SimTime::ZERO,
            reports: Vec::new(),
            seq: 0,
            next_query: 0,
            unresolved: BTreeSet::new(),
        };
        for (op, k, pick, dt) in ops {
            let k = k % m;
            match op {
                0 => h.submit(k, batch_max),
                1 if batch_max <= 1 => h.enqueue(k),
                1 => h.launch(k),
                2 => h.cancel(k, pick),
                3 => h.toggle(k),
                4 => h.now += SimDuration::from_micros(dt),
                _ => h.report(),
            }
            h.check(!transient);
        }
        // Drain: recover, launch what is open, deliver every report.
        for k in 0..m {
            if h.models[k].down {
                h.toggle(k);
            }
            h.launch(k);
        }
        while !h.reports.is_empty() {
            h.report();
            h.check(!transient);
        }
        prop_assert!(h.unresolved.is_empty(), "unresolved tasks: {:?}", h.unresolved);
        prop_assert!(h.bank.drained());
        prop_assert_eq!(h.bank.next_launch(), None);
    }
}
