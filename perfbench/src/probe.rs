//! Probes the benchmark wraps around the program's public interfaces.
//!
//! Nothing here changes a decision: [`TimedScheduler`] delegates every plan
//! to the wrapped scheduler and [`TimedEngine`] every call to the wrapped
//! engine. They only read the clock and the allocation counter around those
//! calls, so a decorated pass must reproduce the undecorated pass exactly
//! (the benchmark checks this on every traced run).

use schemble_core::backend::{BackendEvent, ExecutionBackend};
use schemble_core::engine::{EngineStats, PipelineEngine, StealLineage, StolenQuery};
use schemble_core::scheduler::{SchedScratch, ScheduleInput, SchedulePlan, Scheduler};
use schemble_metrics::QueryRecord;
use schemble_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static UNCOUNTED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// by the current thread. Counters are thread-local, so counting costs no
/// atomic operation and shard threads never share a cache line.
pub struct CountingAlloc;

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter update allocates
// nothing (const-initialised thread-local without a destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by this thread so far, minus those made inside
/// [`uncounted`] (the probes' own bookkeeping).
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get) - UNCOUNTED.with(Cell::get)
}

/// Runs `f`, leaving its allocations out of [`allocations`].
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let made = ALLOCS.with(Cell::get) - before;
    UNCOUNTED.with(|c| c.set(c.get() + made));
    out
}

/// What one thread's plans cost.
#[derive(Debug, Default, Clone)]
pub struct ThreadPlans {
    /// Wall nanoseconds of each plan, in order.
    pub plan_ns: Vec<u64>,
    /// Buffered queries summed over plans.
    pub buffered: u64,
    /// DP work units summed over plans.
    pub work: u64,
    /// The simulator's modelled planning cost summed over plans, in µs.
    pub modelled_us: u64,
}

impl ThreadPlans {
    /// Wall nanoseconds summed over this thread's plans.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns.iter().sum()
    }
}

/// Per-thread plan logs shared between a [`TimedScheduler`] and the
/// benchmark that reads them after the run.
#[derive(Debug, Default)]
pub struct PlanLog {
    threads: Mutex<Vec<(ThreadId, ThreadPlans)>>,
}

impl PlanLog {
    /// Takes every thread's log, leaving the log empty.
    pub fn take(&self) -> Vec<ThreadPlans> {
        let mut threads = self.threads.lock().expect("plan log poisoned");
        std::mem::take(&mut *threads).into_iter().map(|(_, plans)| plans).collect()
    }
}

/// A [`Scheduler`] that times each call into the wrapped one. It rides in
/// `SchembleConfig::scheduler`, so it also measures plans made on shard
/// threads, each thread logged apart.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    log: Arc<PlanLog>,
    /// `SchembleConfig::sched_ns_per_unit`.
    ns_per_unit: f64,
    /// `SchembleConfig::sched_base_overhead`, in µs.
    base_us: u64,
    /// Plans a thread's log is pre-sized for, so it does not grow mid-run.
    plans_hint: usize,
}

impl TimedScheduler {
    /// Wraps `inner`; the modelled cost uses the pipeline's planning-cost
    /// parameters.
    pub fn new(
        inner: Box<dyn Scheduler>,
        log: Arc<PlanLog>,
        ns_per_unit: f64,
        base_us: u64,
        plans_hint: usize,
    ) -> Self {
        Self { inner, log, ns_per_unit, base_us, plans_hint }
    }
}

impl Scheduler for TimedScheduler {
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan) {
        let t0 = Instant::now();
        self.inner.plan_into(input, scratch, out);
        let ns = t0.elapsed().as_nanos() as u64;
        // The engine's own formula for the simulated cost of this plan.
        let modelled = (self.ns_per_unit * out.work as f64 / 1000.0).round() as u64 + self.base_us;
        uncounted(|| {
            let me = std::thread::current().id();
            let mut threads = self.log.threads.lock().expect("plan log poisoned");
            let at = match threads.iter().position(|(id, _)| *id == me) {
                Some(at) => at,
                None => {
                    let plans = ThreadPlans {
                        plan_ns: Vec::with_capacity(self.plans_hint),
                        ..ThreadPlans::default()
                    };
                    threads.push((me, plans));
                    threads.len() - 1
                }
            };
            let plans = &mut threads[at].1;
            plans.plan_ns.push(ns);
            plans.buffered += input.queries.len() as u64;
            plans.work += out.work;
            plans.modelled_us += modelled;
        });
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// What [`TimedEngine`] measured.
#[derive(Debug, Default, Clone)]
pub struct EngineLog {
    /// Wall nanoseconds of each `handle` call.
    pub handle_ns: Vec<u64>,
    /// Allocations made inside `handle`, the probes' own excluded.
    pub allocs: u64,
}

/// A [`PipelineEngine`] that times each `handle` call of the wrapped
/// engine and counts its allocations. Drive it through
/// `schemble_serve::run_virtual`, which is the serving loop of a
/// single-shard virtual-clock serve.
pub struct TimedEngine<'e> {
    inner: &'e mut dyn PipelineEngine,
    /// The measurements, read back after the run.
    pub log: EngineLog,
}

impl<'e> TimedEngine<'e> {
    /// Wraps `inner`; `events` pre-sizes the log so it does not grow mid-run.
    pub fn new(inner: &'e mut dyn PipelineEngine, events: usize) -> Self {
        Self { inner, log: EngineLog { handle_ns: Vec::with_capacity(events), allocs: 0 } }
    }
}

impl PipelineEngine for TimedEngine<'_> {
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let allocs = allocations();
        let t0 = Instant::now();
        self.inner.handle(event, now, backend);
        let ns = t0.elapsed().as_nanos() as u64;
        self.log.allocs += allocations() - allocs;
        uncounted(|| self.log.handle_ns.push(ns));
    }

    fn open_count(&self) -> usize {
        self.inner.open_count()
    }

    fn next_wake_hint(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wake_hint(now)
    }

    fn drain(&mut self, now: SimTime) {
        self.inner.drain(now)
    }

    fn take_records(&mut self) -> Vec<QueryRecord> {
        self.inner.take_records()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn take_completions(&mut self) -> Vec<(u64, f64)> {
        self.inner.take_completions()
    }

    fn steal_backlog(&self) -> (u64, u64) {
        self.inner.steal_backlog()
    }

    fn release_for_steal(&mut self, count: usize, now: SimTime) -> Vec<StolenQuery> {
        self.inner.release_for_steal(count, now)
    }

    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        self.inner.adopt_stolen(stolen, lineage, now)
    }

    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        self.inner.on_rebalanced(now, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_this_threads_allocations_except_uncounted_ones() {
        let before = allocations();
        black_box(Vec::<u64>::with_capacity(8));
        assert_eq!(allocations() - before, 1);
        let before = allocations();
        uncounted(|| black_box(Vec::<u64>::with_capacity(8)));
        assert_eq!(allocations(), before);
    }
}
