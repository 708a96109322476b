//! Wall-clock smoke tests for batching and anytime exit on the threaded
//! backend.
//!
//! Both features change how tasks leave an executor — a batched pass
//! retires several members from one worker report, an anytime quit cancels
//! a running task whose worker keeps sleeping — so each run checks that the
//! threaded runtime still conserves queries, drains every executor, and
//! closes every started task exactly once: `tasks_started` equals the
//! started tasks that completed, failed or were quit.

use schemble_core::engine::{AnytimePolicy, FailurePolicy};
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::predictor::OnlineScorer;
use schemble_core::scheduler::DpScheduler;
use schemble_data::TaskKind;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use schemble_trace::{TraceEvent, TraceSink};
use std::collections::HashSet;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Serves 150 Poisson queries on the wall clock, `tweak` applied to the
/// pipeline, and checks the run.
fn serve_and_check(
    tweak: impl FnOnce(&mut SchembleConfig),
    faults: Option<FaultPlan>,
) -> (ServeReport, Tally) {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, 11);
    config.n_queries = 150;
    config.traffic = Traffic::Poisson { rate_per_sec: 60.0 };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let art = ctx.artifacts().clone();
    let mut pipeline = SchembleConfig::new(
        Box::new(DpScheduler::default()),
        OnlineScorer::Predictor(art.predictor),
        art.profile,
    );
    pipeline.admission = ctx.config.admission;
    tweak(&mut pipeline);
    let sink = TraceSink::enabled();
    let scfg = ServeConfig {
        mode: ClockMode::Wall { dilation: 50.0 },
        trace: Some(Arc::clone(&sink)),
        faults,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&ctx.ensemble, &pipeline, &workload, ctx.config.seed, &scfg);
    let s = &report.stats;
    assert_eq!(s.submitted, workload.len() as u64);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired, "conservation");
    assert_eq!(s.open(), 0, "no wedged queries");
    assert_drained(&report);
    let tally = Tally::of(&sink.drain());
    assert_eq!(tally.open, 0, "every started task closed");
    assert_eq!(
        report.metrics.counters.tasks_started.load(Relaxed),
        tally.completed + tally.failed + tally.quit,
        "tasks_started = completed + failed + quit"
    );
    assert_eq!(tally.started, report.metrics.counters.tasks_started.load(Relaxed));
    assert_eq!(tally.completed, report.metrics.counters.tasks_completed.load(Relaxed));
    (report, tally)
}

/// Every executor ended idle with an empty backlog.
fn assert_drained(report: &ServeReport) {
    for (k, g) in report.metrics.executors.iter().enumerate() {
        assert_eq!(g.queue_depth.load(Relaxed), 0, "executor {k} backlog drained");
        assert_eq!(g.running.load(Relaxed), 0, "executor {k} idle");
    }
}

/// How the started tasks of a trace ended.
#[derive(Debug, Default)]
struct Tally {
    started: u64,
    completed: u64,
    failed: u64,
    quit: u64,
    /// Started tasks that never ended.
    open: usize,
    batches: u64,
}

impl Tally {
    fn of(events: &[TraceEvent]) -> Tally {
        let mut tally = Tally::default();
        let mut running = HashSet::new();
        for event in events {
            match *event {
                TraceEvent::TaskStart { query, executor, .. } => {
                    tally.started += 1;
                    assert!(running.insert((query, executor)), "task started twice");
                }
                TraceEvent::TaskDone { query, executor, .. } => {
                    assert!(running.remove(&(query, executor)), "done without a start");
                    tally.completed += 1;
                }
                // Failures and quits also hit tasks that never started
                // (crash casualties of an open batch, cancelled members).
                TraceEvent::TaskFailed { query, executor, .. } => {
                    tally.failed += u64::from(running.remove(&(query, executor)));
                }
                TraceEvent::TaskQuit { query, executor, .. } => {
                    tally.quit += u64::from(running.remove(&(query, executor)));
                }
                TraceEvent::BatchFormed { .. } => tally.batches += 1,
                _ => {}
            }
        }
        tally.open = running.len();
        tally
    }
}

#[test]
fn wall_batching_under_a_crash_plan_conserves_and_drains() {
    let plan = FaultPlan::parse("crash 1 0.3 1.2\ncrash 0 1.5 2.0").expect("plan parses");
    let (report, tally) = serve_and_check(
        |p| {
            p.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
            p.failure = Some(FailurePolicy::default());
        },
        Some(plan),
    );
    assert!(tally.batches > 0, "batches formed");
    assert!(report.stats.tasks_failed > 0, "the crashes killed work");
}

#[test]
fn wall_anytime_conserves_and_drains() {
    let (report, tally) = serve_and_check(|p| p.anytime = Some(AnytimePolicy::default()), None);
    assert!(tally.completed > 0);
    assert!(report.stats.tasks_saved > 0, "work was actually saved");
}
