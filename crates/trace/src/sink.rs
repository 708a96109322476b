//! The trace sink: a bounded, lock-light event buffer plus the scheduler's
//! always-on self-profile.
//!
//! Emission is gated by one relaxed atomic load ([`TraceSink::is_enabled`]),
//! so a disabled sink costs the hot path a single branch. Enabled emission
//! takes a short mutex on the ring buffer — every emitter in both runtimes
//! (engine decisions, backend task events) runs on the scheduler thread, so
//! the lock is effectively uncontended; it exists so observer threads can
//! snapshot safely. When the buffer is full, *new* events are dropped and
//! counted ([`TraceSink::dropped`]) rather than evicting history — a
//! truncated trace with an honest drop count beats a silently rewritten one.

use crate::event::TraceEvent;
use schemble_metrics::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// The scheduler's self-profile: how long planning actually takes.
///
/// Recorded on **every** plan regardless of whether event tracing is
/// enabled — the paper's Sec. VI scheduling-overhead measurement as a
/// first-class metric. Recording is a wall-clock measurement and never
/// feeds back into decisions.
#[derive(Debug, Default)]
pub struct PlanningProfile {
    /// Total abstract work units consumed across plans.
    pub work_units: AtomicU64,
    /// Wall-clock duration of each planning pass, nanoseconds: its count is
    /// the number of plans and its exact sum the total planning time.
    pub hist: Histogram,
}

impl PlanningProfile {
    /// Records one planning pass: its abstract work and real duration.
    pub fn record(&self, work: u64, wall: Duration) {
        self.work_units.fetch_add(work, Relaxed);
        self.hist.record(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Plans produced.
    pub fn plans(&self) -> u64 {
        self.hist.count()
    }

    /// Mean wall-clock planning time in seconds, if any plan ran.
    pub fn mean_secs(&self) -> Option<f64> {
        let n = self.plans();
        (n > 0).then(|| self.hist.sum_secs() / n as f64)
    }

    /// Folds `other`'s profile into `self` (order-insensitive): used to
    /// aggregate the per-shard scheduler self-profiles of a sharded serve
    /// run into one exportable profile.
    pub fn merge(&self, other: &PlanningProfile) {
        self.work_units.fetch_add(other.work_units.load(Relaxed), Relaxed);
        self.hist.merge(&other.hist);
    }
}

#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
}

/// A secondary, live consumer of the event stream (e.g. the observability
/// crate's flight recorder). Called synchronously from [`TraceSink::emit`]
/// on the emitting (scheduler) thread, *before* the enabled check — a tap
/// sees every event even when the ring buffer is off. Taps must be cheap
/// and must never feed back into decisions.
pub trait EventTap: Send + Sync {
    /// Observes one emitted event.
    fn on_event(&self, event: TraceEvent);
}

/// The shared event sink engines and backends emit into.
pub struct TraceSink {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    /// One relaxed load gates the tap dispatch so untapped emission stays a
    /// branch, mirroring the `enabled` gate on the ring.
    has_tap: AtomicBool,
    tap: Mutex<Option<Arc<dyn EventTap>>>,
    /// Scheduler self-profiling (always on).
    pub planning: PlanningProfile,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .field("tapped", &self.has_tap.load(Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// An enabled sink bounded at `capacity` events.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring { events: Vec::new(), capacity: capacity.max(1) }),
            dropped: AtomicU64::new(0),
            has_tap: AtomicBool::new(false),
            tap: Mutex::new(None),
            planning: PlanningProfile::default(),
        })
    }

    /// An enabled sink at the default capacity.
    pub fn enabled() -> Arc<Self> {
        Self::new(DEFAULT_CAPACITY)
    }

    /// A disabled sink: emission is a no-op (one atomic load), planning
    /// self-profiling still records. The default for untraced runs.
    pub fn disabled() -> Arc<Self> {
        let sink = Self::new(1);
        sink.enabled.store(false, Relaxed);
        sink
    }

    /// True when event emission is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Turns event emission on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Installs (or removes) the live event tap. Set it before the run
    /// starts: the emitting thread reads it under the tap lock, so swapping
    /// mid-run is safe but may briefly block emission.
    pub fn set_tap(&self, tap: Option<Arc<dyn EventTap>>) {
        let mut slot = self.tap.lock().expect("trace tap poisoned");
        self.has_tap.store(tap.is_some(), Relaxed);
        *slot = tap;
    }

    /// The installed tap, if any (shards propagate the parent sink's tap).
    pub fn tap(&self) -> Option<Arc<dyn EventTap>> {
        self.tap.lock().expect("trace tap poisoned").clone()
    }

    /// True when somebody consumes emitted events: the ring is enabled or a
    /// tap is installed. Engines gate *observability-only* computation
    /// (e.g. predicted-finish replay for `PlanAssign`) on this so untraced
    /// runs pay nothing; the gate never changes a decision.
    #[inline]
    pub fn observing(&self) -> bool {
        self.is_enabled() || self.has_tap.load(Relaxed)
    }

    /// Records one event (no-op while disabled; counted-drop when full).
    /// An installed tap sees the event even while the ring is disabled.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if self.has_tap.load(Relaxed) {
            if let Some(tap) = &*self.tap.lock().expect("trace tap poisoned") {
                tap.on_event(event);
            }
        }
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.events.len() >= ring.capacity {
            drop(ring);
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        ring.events.push(event);
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event, leaving the sink empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.ring.lock().expect("trace ring poisoned").events)
    }

    /// A copy of the buffered events (the run can keep going).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.lock().expect("trace ring poisoned").events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_sim::SimTime;

    fn arrival(q: u64) -> TraceEvent {
        TraceEvent::Arrival { t: SimTime::from_millis(q), query: q, deadline: SimTime::ZERO }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.emit(arrival(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_new_events_with_a_count() {
        let sink = TraceSink::new(2);
        for q in 0..5 {
            sink.emit(arrival(q));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let events = sink.drain();
        assert_eq!(events, vec![arrival(0), arrival(1)]);
        assert!(sink.is_empty());
    }

    #[test]
    fn planning_profile_accumulates_even_when_disabled() {
        let sink = TraceSink::disabled();
        sink.planning.record(100, Duration::from_micros(250));
        sink.planning.record(300, Duration::from_micros(750));
        assert_eq!(sink.planning.plans(), 2);
        assert_eq!(sink.planning.work_units.load(Relaxed), 400);
        let mean = sink.planning.mean_secs().expect("two plans recorded");
        assert!((mean - 500e-6).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn microsecond_plans_resolve_to_a_nonzero_p95_and_an_exact_sum() {
        // Real plans take a few microseconds; each must land in its own
        // bucket rather than below a floor, and the exported sum must be the
        // exact nanosecond total, not a truncated one.
        let profile = PlanningProfile::default();
        let walls: Vec<u64> = (1..=10).flat_map(|us| [us * 1_000, us * 1_000 + 371]).collect();
        for &ns in &walls {
            profile.record(1, Duration::from_nanos(ns));
        }
        let mut sorted = walls.clone();
        sorted.sort_unstable();
        let exact_p95 = sorted[(0.95 * sorted.len() as f64).ceil() as usize - 1];
        let p95 = profile.hist.quantile(0.95).expect("plans recorded");
        assert!(p95 > 0, "p95 must not fall into an underflow bucket");
        assert!(p95 >= exact_p95 && p95 - exact_p95 < exact_p95 / 8, "p95 {p95} vs {exact_p95}");
        let total: u64 = walls.iter().sum();
        assert_eq!(profile.hist.sum(), total);
        let text =
            crate::prometheus_text(&schemble_metrics::RuntimeMetrics::new(1), 1.0, Some(&profile));
        let line = |prefix: &str| {
            text.lines().find_map(|l| l.strip_prefix(prefix)).expect("line present").to_string()
        };
        assert_eq!(line("schemble_sched_plan_seconds_sum "), (total as f64 / 1e9).to_string());
        assert_eq!(
            line("schemble_sched_plan_seconds_sum "),
            line("schemble_sched_plan_wall_seconds_total ")
        );
    }

    #[test]
    fn tap_sees_events_even_while_ring_is_disabled() {
        struct Counter(AtomicU64);
        impl EventTap for Counter {
            fn on_event(&self, _event: TraceEvent) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        let sink = TraceSink::disabled();
        assert!(!sink.observing());
        let tap = Arc::new(Counter(AtomicU64::new(0)));
        sink.set_tap(Some(tap.clone()));
        assert!(sink.observing(), "a tap makes the sink observing");
        sink.emit(arrival(1));
        sink.emit(arrival(2));
        assert_eq!(tap.0.load(Relaxed), 2, "tap sees every event");
        assert!(sink.is_empty(), "disabled ring still records nothing");
        sink.set_tap(None);
        sink.emit(arrival(3));
        assert_eq!(tap.0.load(Relaxed), 2, "removed tap sees nothing");
        assert!(!sink.observing());
    }

    #[test]
    fn snapshot_preserves_buffer_drain_clears_it() {
        let sink = TraceSink::enabled();
        sink.emit(arrival(7));
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.len(), 1, "snapshot must not consume");
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.is_empty());
    }
}
