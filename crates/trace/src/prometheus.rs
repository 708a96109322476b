//! Prometheus text-exposition exporter.
//!
//! Renders the runtime's lock-light metrics ([`RuntimeMetrics`] counters,
//! per-executor gauges, the latency and batch-size histograms) and the
//! scheduler's self-profile ([`PlanningProfile`]) in the Prometheus text
//! format (version 0.0.4), hand-rolled like the rest of the workspace's
//! exporters. The writer helpers here are public so every exposition in
//! the workspace (`schemble-obs` included) is written by the same code.
//! Histograms emit cumulative `le` buckets at the integer bucket edges that
//! actually hold observations, plus the mandatory `+Inf`/`_sum`/`_count`
//! series.

use crate::sink::PlanningProfile;
use schemble_metrics::runtime::ExecutorGauges;
use schemble_metrics::{Histogram, RuntimeMetrics};
use std::fmt::{Display, Write as _};
use std::sync::atomic::Ordering::Relaxed;

/// The `# HELP` / `# TYPE` header of one metric family.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// A family holding one unlabelled sample.
pub fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    family(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// Escapes a label *value* per the Prometheus text format: backslash,
/// double-quote and newline must be backslash-escaped inside the quoted
/// value (a different alphabet from JSON string escaping — `\t` et al. pass
/// through verbatim).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One `name{key="value"} value` sample line with the label value escaped.
pub(crate) fn labeled_sample(
    out: &mut String,
    name: &str,
    label: &str,
    value: &str,
    sample: impl Display,
) {
    let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {sample}", escape_label(value));
}

/// A family with one sample per `(label value, sample)` pair.
pub fn labeled<K: Display, V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    label: &str,
    samples: impl IntoIterator<Item = (K, V)>,
) {
    family(out, name, kind, help);
    for (key, sample) in samples {
        labeled_sample(out, name, label, &key.to_string(), sample);
    }
}

/// A histogram family, with bucket edges and the sum in the histogram's
/// exported unit (seconds for latencies, plain values for counts).
pub fn histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    family(out, name, "histogram", help);
    let total = hist.count();
    for (upper, cumulative) in hist.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", hist.to_unit(upper));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {}", hist.sum_secs());
    let _ = writeln!(out, "{name}_count {total}");
}

/// Renders `metrics` (and, when given, the scheduler self-profile) as a
/// Prometheus text exposition. `elapsed_secs` is the run's elapsed backend
/// time, used for utilisation.
pub fn prometheus_text(
    metrics: &RuntimeMetrics,
    elapsed_secs: f64,
    planning: Option<&PlanningProfile>,
) -> String {
    let mut out = String::with_capacity(4096);
    let c = &metrics.counters;
    for (name, help, value) in [
        ("schemble_queries_submitted_total", "Queries handed to the pipeline.", &c.submitted),
        ("schemble_queries_completed_total", "Queries completed with a result.", &c.completed),
        ("schemble_queries_rejected_total", "Queries refused at arrival.", &c.rejected),
        ("schemble_queries_expired_total", "Queries dropped after admission.", &c.expired),
        ("schemble_tasks_started_total", "Tasks started on executors.", &c.tasks_started),
        ("schemble_tasks_completed_total", "Tasks finished by executors.", &c.tasks_completed),
        (
            "schemble_queries_degraded_total",
            "Queries answered from a partial ensemble.",
            &c.degraded,
        ),
        (
            "schemble_tasks_failed_total",
            "Tasks that failed (transient fault, timeout, crash).",
            &c.tasks_failed,
        ),
        (
            "schemble_tasks_retried_total",
            "Failed tasks re-dispatched after backoff.",
            &c.tasks_retried,
        ),
        (
            "schemble_tasks_saved_total",
            "Planned tasks quit by the anytime policy before completing.",
            &c.tasks_saved,
        ),
        (
            "schemble_tasks_batched_total",
            "Tasks launched as members of a cross-query batch.",
            &c.tasks_batched,
        ),
    ] {
        scalar(&mut out, name, "counter", help, value.load(Relaxed));
    }
    // Emitted only when the run actually stole work, so expositions from
    // runs without `--steal-epoch-ms` stay byte-identical to historical
    // output.
    let stolen = c.queries_stolen.load(Relaxed);
    if stolen > 0 {
        scalar(
            &mut out,
            "schemble_queries_stolen_total",
            "counter",
            "Queries transferred between shards by work stealing.",
            stolen,
        );
    }
    scalar(
        &mut out,
        "schemble_queries_open",
        "gauge",
        "Queries submitted but not yet decided.",
        c.open(),
    );

    let executors = &metrics.executors;
    let busy_secs = |e: &ExecutorGauges| e.busy_micros.load(Relaxed) as f64 / 1e6;
    let per_executor = |get: fn(&ExecutorGauges) -> u64| executors.iter().map(get).enumerate();
    labeled(
        &mut out,
        "schemble_executor_queue_depth",
        "gauge",
        "Tasks waiting in the executor's FIFO backlog.",
        "executor",
        per_executor(|e| e.queue_depth.load(Relaxed)),
    );
    labeled(
        &mut out,
        "schemble_executor_busy_seconds_total",
        "counter",
        "Cumulative busy time per executor.",
        "executor",
        executors.iter().map(busy_secs).enumerate(),
    );
    labeled(
        &mut out,
        "schemble_executor_tasks_total",
        "counter",
        "Tasks completed per executor.",
        "executor",
        per_executor(|e| e.tasks.load(Relaxed)),
    );
    labeled(
        &mut out,
        "schemble_executor_up",
        "gauge",
        "Whether the executor is up (1) or down (0).",
        "executor",
        per_executor(|e| e.up.load(Relaxed)),
    );
    let utilization =
        |e| if elapsed_secs > 0.0 { (busy_secs(e) / elapsed_secs).min(1.0) } else { 0.0 };
    labeled(
        &mut out,
        "schemble_executor_utilization",
        "gauge",
        "Fraction of elapsed time the executor was busy.",
        "executor",
        executors.iter().map(utilization).enumerate(),
    );

    histogram(
        &mut out,
        "schemble_query_latency_seconds",
        "End-to-end latency of completed queries.",
        &metrics.latency,
    );
    histogram(
        &mut out,
        "schemble_batch_size",
        "Size of each launched cross-query batch (observations are sizes, not seconds).",
        &metrics.batch_size,
    );

    if let Some(p) = planning {
        scalar(
            &mut out,
            "schemble_sched_plans_total",
            "counter",
            "Scheduler planning passes.",
            p.plans(),
        );
        scalar(
            &mut out,
            "schemble_sched_plan_work_units_total",
            "counter",
            "Abstract work units consumed by the scheduler.",
            p.work_units.load(Relaxed),
        );
        scalar(
            &mut out,
            "schemble_sched_plan_wall_seconds_total",
            "counter",
            "Wall-clock time spent planning.",
            p.hist.sum_secs(),
        );
        histogram(
            &mut out,
            "schemble_sched_plan_seconds",
            "Wall-clock duration of one scheduler planning pass.",
            &p.hist,
        );
    }
    out
}

/// Reconstructs [`RuntimeMetrics`] from a trace's event stream.
///
/// The DES pipeline drivers do not maintain live metrics (they have no
/// observers); this derives the same counters, per-executor busy time and
/// latency histogram from the trace, so `--metrics-out` works uniformly
/// across `run`, `serve` and `loadtest`.
pub fn metrics_from_events(
    events: &[crate::event::TraceEvent],
    executors: usize,
) -> RuntimeMetrics {
    use crate::event::{AdmissionVerdict, TraceEvent};
    use schemble_sim::SimTime;
    use std::collections::HashMap;

    let metrics = RuntimeMetrics::new(executors);
    let c = &metrics.counters;
    let mut arrivals: HashMap<u64, SimTime> = HashMap::new();
    let mut running: HashMap<(u64, u16), SimTime> = HashMap::new();
    // Busy time charged per executor so far, as the instant it reaches.
    // Members of one batched pass share its interval; charging only the
    // part past this watermark counts the pass once, like the backends.
    let mut charged = vec![SimTime::ZERO; executors];
    let mut charge = |running: &mut HashMap<_, _>, query: u64, executor: u16, t: SimTime| {
        let (Some(g), Some(t0)) =
            (metrics.executors.get(executor as usize), running.remove(&(query, executor)))
        else {
            return;
        };
        let until = &mut charged[executor as usize];
        let from = (*until).max(t0);
        if t > from {
            g.busy_micros.fetch_add((t - from).as_micros(), Relaxed);
            *until = t;
        }
    };
    for ev in events {
        match *ev {
            TraceEvent::Arrival { t, query, .. } => {
                c.submitted.fetch_add(1, Relaxed);
                arrivals.insert(query, t);
            }
            TraceEvent::Admission { verdict: AdmissionVerdict::Rejected, .. } => {
                c.rejected.fetch_add(1, Relaxed);
            }
            TraceEvent::Admission { .. }
            | TraceEvent::Plan { .. }
            | TraceEvent::TaskEnqueue { .. } => {}
            TraceEvent::TaskStart { t, query, executor } => {
                c.tasks_started.fetch_add(1, Relaxed);
                running.insert((query, executor), t);
            }
            TraceEvent::TaskDone { t, query, executor } => {
                c.tasks_completed.fetch_add(1, Relaxed);
                if let Some(g) = metrics.executors.get(executor as usize) {
                    g.tasks.fetch_add(1, Relaxed);
                }
                charge(&mut running, query, executor, t);
            }
            TraceEvent::QueryDone { t, query, .. } => {
                c.completed.fetch_add(1, Relaxed);
                if let Some(t0) = arrivals.get(&query) {
                    metrics.latency.record((t - *t0).as_nanos());
                }
            }
            TraceEvent::QueryExpired { .. } => {
                c.expired.fetch_add(1, Relaxed);
            }
            TraceEvent::TaskFailed { t, query, executor } => {
                c.tasks_failed.fetch_add(1, Relaxed);
                charge(&mut running, query, executor, t);
            }
            TraceEvent::TaskRetried { .. } => {
                c.tasks_retried.fetch_add(1, Relaxed);
            }
            TraceEvent::TaskQuit { t, query, executor } => {
                c.tasks_saved.fetch_add(1, Relaxed);
                // A quit of a *running* task charges the partial busy time,
                // matching the backends (kill charges time spent so far).
                charge(&mut running, query, executor, t);
            }
            TraceEvent::ExecutorDown { executor, .. } => {
                if let Some(g) = metrics.executors.get(executor as usize) {
                    g.up.store(0, Relaxed);
                }
            }
            TraceEvent::ExecutorUp { executor, .. } => {
                if let Some(g) = metrics.executors.get(executor as usize) {
                    g.up.store(1, Relaxed);
                }
            }
            TraceEvent::DegradedAnswer { t, query, .. } => {
                c.degraded.fetch_add(1, Relaxed);
                if let Some(t0) = arrivals.get(&query) {
                    metrics.latency.record((t - *t0).as_nanos());
                }
            }
            // Introspection-only events: no runtime counter changes.
            // WorkSaved is a per-decision summary of TaskQuit events, which
            // already count above.
            TraceEvent::BatchFormed { size, .. } => {
                c.tasks_batched.fetch_add(size as u64, Relaxed);
                metrics.batch_size.record(u64::from(size));
            }
            TraceEvent::QueryStolen { query, arrival, .. } => {
                c.queries_stolen.fetch_add(1, Relaxed);
                // In a merged stream the victim-side Arrival already
                // registered the arrival instant; a thief-only stream sees
                // it here first.
                arrivals.entry(query).or_insert(arrival);
            }
            TraceEvent::Scored { .. }
            | TraceEvent::PlanAssign { .. }
            | TraceEvent::Realized { .. }
            | TraceEvent::WorkSaved { .. } => {}
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use schemble_sim::{SimDuration, SimTime};
    use std::time::Duration;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn exposition_contains_all_families_and_is_line_shaped() {
        let metrics = RuntimeMetrics::new(2);
        metrics.counters.submitted.fetch_add(10, Relaxed);
        metrics.counters.completed.fetch_add(9, Relaxed);
        metrics.latency.record(50_000_000);
        let planning = PlanningProfile::default();
        planning.record(40, Duration::from_micros(200));
        let text = prometheus_text(&metrics, 2.0, Some(&planning));
        for family in [
            "schemble_queries_submitted_total 10",
            "schemble_queries_completed_total 9",
            "schemble_queries_open 1",
            "schemble_queries_degraded_total 0",
            "schemble_tasks_failed_total 0",
            "schemble_tasks_retried_total 0",
            "schemble_tasks_saved_total 0",
            "schemble_executor_up{executor=\"0\"} 1",
            "schemble_executor_queue_depth{executor=\"1\"} 0",
            "schemble_query_latency_seconds_count 1",
            "schemble_query_latency_seconds_bucket{le=\"+Inf\"} 1",
            "schemble_sched_plans_total 1",
            "schemble_sched_plan_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing: {family}\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.rsplitn(2, ' ').count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn label_values_are_escaped_per_prometheus_rules() {
        assert_eq!(escape_label("plain-0"), "plain-0");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line\nbreak"), "line\\nbreak");
        // Tabs are legal inside a label value — unlike JSON, no escape.
        assert_eq!(escape_label("tab\there"), "tab\there");
        let mut out = String::new();
        labeled_sample(&mut out, "m", "executor", "we\"ird\\name", 7u64);
        assert_eq!(out, "m{executor=\"we\\\"ird\\\\name\"} 7\n");
    }

    #[test]
    fn metrics_from_events_rebuilds_counters_and_busy_time() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(100) },
            TraceEvent::TaskStart { t: at(1), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(21), query: 1, executor: 0 },
            TraceEvent::QueryDone { t: at(21), query: 1, set: 1 },
            TraceEvent::Arrival { t: at(2), query: 2, deadline: at(50) },
            TraceEvent::QueryExpired { t: at(60), query: 2 },
        ];
        let m = metrics_from_events(&events, 1);
        let c = &m.counters;
        assert_eq!(c.submitted.load(Relaxed), 2);
        assert_eq!(c.completed.load(Relaxed), 1);
        assert_eq!(c.expired.load(Relaxed), 1);
        assert_eq!(c.open(), 0);
        assert_eq!(m.executors[0].busy_micros.load(Relaxed), 20_000);
        assert_eq!(m.latency.count(), 1);
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn fault_events_rebuild_failure_counters() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(100) },
            TraceEvent::TaskStart { t: at(1), query: 1, executor: 0 },
            TraceEvent::TaskFailed { t: at(5), query: 1, executor: 0 },
            TraceEvent::TaskRetried { t: at(7), query: 1, executor: 0, attempt: 1 },
            TraceEvent::TaskStart { t: at(7), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(17), query: 1, executor: 0 },
            TraceEvent::ExecutorDown { t: at(20), executor: 0 },
            TraceEvent::DegradedAnswer { t: at(21), query: 1, set: 0b1 },
        ];
        let m = metrics_from_events(&events, 1);
        let c = &m.counters;
        assert_eq!(c.tasks_failed.load(Relaxed), 1);
        assert_eq!(c.tasks_retried.load(Relaxed), 1);
        assert_eq!(c.degraded.load(Relaxed), 1);
        assert_eq!(c.open(), 0, "degraded closes the query");
        assert_eq!(m.executors[0].up.load(Relaxed), 0);
        // Failed attempt charges its partial busy time: 4ms + 10ms.
        assert_eq!(m.executors[0].busy_micros.load(Relaxed), 14_000);
        assert_eq!(m.latency.count(), 1);
    }

    #[test]
    fn batch_members_charge_their_shared_pass_once() {
        let events = vec![
            TraceEvent::TaskStart { t: at(2), query: 1, executor: 0 },
            TraceEvent::TaskStart { t: at(2), query: 2, executor: 0 },
            TraceEvent::BatchFormed { t: at(2), executor: 0, batch: 0, size: 2 },
            TraceEvent::TaskDone { t: at(14), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(14), query: 2, executor: 0 },
            TraceEvent::TaskStart { t: at(14), query: 3, executor: 0 },
            TraceEvent::TaskFailed { t: at(20), query: 3, executor: 0 },
        ];
        let m = metrics_from_events(&events, 1);
        // One 12ms pass for both members, then the 6ms failed attempt.
        assert_eq!(m.executors[0].busy_micros.load(Relaxed), 18_000);
        assert_eq!(m.executors[0].tasks.load(Relaxed), 2);
    }
}
