//! Golden-file pin of the Prometheus text exposition.
//!
//! The exporter's exact output — family ordering, `# HELP`/`# TYPE` lines,
//! label escaping, float formatting — is a contract consumed by scrape
//! configs and the CI telemetry job, so it is pinned byte-for-byte against
//! a checked-in fixture. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test -p schemble-trace --test prometheus_golden`.

use schemble_metrics::RuntimeMetrics;
use schemble_trace::{prometheus_text, PlanningProfile};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.prom");

/// A fully deterministic metrics fixture exercising every family: counters,
/// per-executor gauges (two executors, one down), multi-bucket latency and
/// batch-size histograms, and the scheduler self-profile.
fn fixture() -> (RuntimeMetrics, PlanningProfile) {
    let metrics = RuntimeMetrics::new(2);
    let c = &metrics.counters;
    c.submitted.store(20, Relaxed);
    c.completed.store(14, Relaxed);
    c.rejected.store(2, Relaxed);
    c.expired.store(1, Relaxed);
    c.degraded.store(3, Relaxed);
    c.tasks_started.store(31, Relaxed);
    c.tasks_completed.store(29, Relaxed);
    c.tasks_failed.store(2, Relaxed);
    c.tasks_retried.store(1, Relaxed);
    metrics.executors[0].queue_depth.store(3, Relaxed);
    metrics.executors[0].busy_micros.store(1_500_000, Relaxed);
    metrics.executors[0].tasks.store(17, Relaxed);
    metrics.executors[1].busy_micros.store(250_000, Relaxed);
    metrics.executors[1].tasks.store(12, Relaxed);
    metrics.executors[1].up.store(0, Relaxed);
    for lat_ns in [500_000, 4_000_000, 4_000_000, 32_000_000, 250_000_000] {
        metrics.latency.record(lat_ns);
    }
    for size in [1, 2, 2, 8] {
        metrics.batch_size.record(size);
    }
    let planning = PlanningProfile::default();
    planning.record(40, Duration::from_micros(200));
    planning.record(120, Duration::from_micros(800));
    (metrics, planning)
}

#[test]
fn exposition_matches_the_checked_in_golden_file() {
    let (metrics, planning) = fixture();
    let text = prometheus_text(&metrics, 2.0, Some(&planning));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file checked in");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the golden file; if the change \
         is intentional, regenerate with BLESS_GOLDEN=1"
    );
    // Spot-check the golden file itself still carries the contract pieces.
    assert!(golden.contains("# HELP schemble_queries_submitted_total"));
    assert!(golden.contains("# TYPE schemble_query_latency_seconds histogram"));
    assert!(golden.contains("schemble_executor_up{executor=\"1\"} 0"));
}
