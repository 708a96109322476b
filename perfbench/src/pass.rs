//! One serve pass of a workload, and the decisions it made.

use crate::probe::{EngineLog, PlanLog, ThreadPlans, TimedEngine, TimedScheduler};
use crate::workload::Fixture;
use schemble_core::engine::{EngineStats, PipelineEngine, SchembleEngine};
use schemble_core::pipeline::SchembleConfig;
use schemble_core::scheduler::DpScheduler;
use schemble_data::Workload;
use schemble_metrics::{QueryOutcome, RunSummary, RuntimeMetrics};
use schemble_obs::{FlightRecorder, ObsConfig, ObsState};
use schemble_serve::{run_virtual, serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::LatencyModel;
use schemble_trace::{audit_ndjson, chrome_trace, prometheus_text, TraceSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The decision outputs of a pass. They depend only on the workload and
/// the program's decisions, never on wall time, so every pass of a run —
/// traced or not — must produce the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct Decisions {
    /// Paper accuracy: late and missed answers score 0.
    pub accuracy: f64,
    /// Rejected, expired and late queries over submitted ones.
    pub miss_rate: f64,
    /// Exact median latency of the completed queries, in ms.
    pub p50_ms: f64,
    /// Exact 99th-percentile latency of the completed queries, in ms.
    pub p99_ms: f64,
    /// Completed queries the percentiles are taken over.
    pub latency_n: usize,
    /// Base-model tasks executed per submitted query.
    pub tasks_per_query: f64,
    /// The engine's final counters.
    pub stats: EngineStats,
    /// FNV-1a hash of every per-query record and every counter.
    pub digest: u64,
}

/// Nearest-rank quantile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Decisions {
    fn of(summary: &RunSummary, stats: EngineStats) -> Decisions {
        let records = summary.records();
        let mut latencies: Vec<f64> = records.iter().filter_map(|r| r.latency_secs()).collect();
        latencies.sort_by(f64::total_cmp);
        let tasks: u64 = summary.usage().iter().map(|u| u.tasks).sum();
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for r in records {
            h.add(r.id);
            h.add(r.arrival.as_micros());
            h.add(r.deadline.as_micros());
            h.add(r.completion.map_or(u64::MAX, |c| c.as_micros()));
            let (kind, score) = match r.outcome {
                QueryOutcome::Completed { correct, score } => (1 + u64::from(correct), score),
                QueryOutcome::Degraded { correct, score } => (3 + u64::from(correct), score),
                QueryOutcome::Missed => (0, 0.0),
            };
            h.add(kind);
            h.add(score.to_bits());
            h.add(r.models_used as u64);
        }
        let s = stats;
        for x in [
            s.submitted,
            s.completed,
            s.degraded,
            s.rejected,
            s.expired,
            s.tasks_failed,
            s.tasks_retried,
            s.tasks_saved,
            s.stolen_in,
            s.stolen_out,
            tasks,
        ] {
            h.add(x);
        }
        Decisions {
            accuracy: summary.accuracy(),
            miss_rate: summary.deadline_miss_rate(),
            p50_ms: 1e3 * nearest_rank(&latencies, 0.50),
            p99_ms: 1e3 * nearest_rank(&latencies, 0.99),
            latency_n: latencies.len(),
            tasks_per_query: tasks as f64 / records.len().max(1) as f64,
            stats,
            digest: h.0,
        }
    }

    /// Checks that every submitted query was decided exactly once and that
    /// the decisions are those of `reference`.
    pub fn check(&self, reference: &Decisions, queries: usize) -> Vec<String> {
        let mut errors = Vec::new();
        let s = &self.stats;
        if s.submitted != queries as u64 {
            errors.push(format!("{} queries submitted of {queries}", s.submitted));
        }
        if s.stolen_in != s.stolen_out {
            errors.push(format!("stolen in {} != stolen out {}", s.stolen_in, s.stolen_out));
        }
        if self.lost() != 0 || s.open() != 0 {
            errors.push(format!(
                "submitted {} != completed {} + degraded {} + rejected {} + expired {} \
                 (open {})",
                s.submitted,
                s.completed,
                s.degraded,
                s.rejected,
                s.expired,
                s.open()
            ));
        }
        if self != reference {
            errors.push(format!(
                "decisions differ from the reference pass: digest {:016x} vs {:016x}",
                self.digest, reference.digest
            ));
        }
        errors
    }

    /// Queries submitted but never decided.
    pub fn lost(&self) -> u64 {
        let s = &self.stats;
        s.submitted.saturating_sub(s.completed + s.degraded + s.rejected + s.expired)
    }
}

/// The telemetry a workload serves with: an event sink sized to drop
/// nothing and a flight recorder tapped into it.
struct Telemetry {
    sink: Arc<TraceSink>,
    recorder: Arc<FlightRecorder>,
}

impl Telemetry {
    fn new(queries: usize) -> Telemetry {
        let sink = TraceSink::new(queries.saturating_mul(256));
        let recorder = Arc::new(FlightRecorder::new(4096, None));
        sink.set_tap(Some(recorder.clone()));
        Telemetry { sink, recorder }
    }
}

fn serve_config(fx: &Fixture, telemetry: Option<&Telemetry>) -> ServeConfig {
    ServeConfig {
        mode: ClockMode::Virtual,
        shards: fx.kind.shards(),
        steal_epoch: fx.kind.steal_epoch(),
        trace: telemetry.map(|t| Arc::clone(&t.sink)),
        recorder: telemetry.map(|t| Arc::clone(&t.recorder)),
        ..ServeConfig::default()
    }
}

/// What rendering every export of a traced pass cost and produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct Exports {
    /// Events the sink captured.
    pub events: u64,
    /// Events the sink dropped.
    pub dropped: u64,
    /// Lines of the audit log.
    pub audit_lines: u64,
    /// Bytes of the Chrome trace, audit log and Prometheus text.
    pub trace_bytes: u64,
    /// Bytes of the SLO series and introspection metrics.
    pub obs_bytes: u64,
    /// Nanoseconds rendering the Chrome trace.
    pub chrome_ns: u64,
    /// Nanoseconds rendering the audit log.
    pub audit_ns: u64,
    /// Nanoseconds rendering the Prometheus text.
    pub prometheus_ns: u64,
    /// Nanoseconds folding the events into `ObsState` and rendering its
    /// SLO and Prometheus outputs.
    pub fold_ns: u64,
}

impl Exports {
    /// Renders every export of `report`'s run in memory.
    fn render(fx: &Fixture, telemetry: &Telemetry, report: &ServeReport) -> Exports {
        let events = telemetry.sink.drain();
        let executors = fx.ensemble.m() * fx.kind.shards();
        let t = Instant::now();
        let chrome = black_box(chrome_trace(&events, executors, fx.kind.name()));
        let chrome_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let audit = black_box(audit_ndjson(&events));
        let audit_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let prometheus = black_box(prometheus_text(
            &report.metrics,
            report.sim_secs,
            Some(&telemetry.sink.planning),
        ));
        let prometheus_ns = t.elapsed().as_nanos() as u64;
        let config = ObsConfig {
            bins: fx.artifacts.profile.bins(),
            profiled_latencies_us: fx
                .ensemble
                .planned_latencies()
                .iter()
                .map(|d| d.as_micros())
                .collect(),
            ..ObsConfig::default()
        };
        let t = Instant::now();
        let state = ObsState::fold(&config, &events);
        let slo = black_box(state.slo_ndjson());
        let obs = black_box(state.prometheus());
        let fold_ns = t.elapsed().as_nanos() as u64;
        Exports {
            events: events.len() as u64,
            dropped: telemetry.sink.dropped(),
            audit_lines: audit.lines().count() as u64,
            trace_bytes: (chrome.len() + audit.len() + prometheus.len()) as u64,
            obs_bytes: (slo.len() + obs.len()) as u64,
            chrome_ns,
            audit_ns,
            prometheus_ns,
            fold_ns,
        }
    }

    /// Checks the exports are complete: nothing dropped, one audit line per
    /// query.
    pub fn check(&self, queries: usize) -> Result<(), String> {
        if self.dropped != 0 {
            return Err(format!("trace sink dropped {} events", self.dropped));
        }
        if self.audit_lines != queries as u64 {
            return Err(format!("{} audit lines for {queries} queries", self.audit_lines));
        }
        Ok(())
    }
}

/// One serve pass through `serve_schemble`.
pub struct Served {
    /// The decisions made.
    pub decisions: Decisions,
    /// The serve report.
    pub report: ServeReport,
    /// Wall seconds of the serve call.
    pub serve_s: f64,
    /// The rendered exports, when the pass served with telemetry.
    pub exports: Option<Exports>,
    /// Wall seconds of the serve call plus export rendering.
    pub wall_s: f64,
}

/// Serves the workload once through the public API, with telemetry and
/// in-memory rendering of every export when `telemetry` is set.
pub fn serve(fx: &Fixture, pipeline: &SchembleConfig, telemetry: bool) -> Served {
    let telemetry = telemetry.then(|| Telemetry::new(fx.workload.len()));
    let config = serve_config(fx, telemetry.as_ref());
    let t0 = Instant::now();
    let report = serve_schemble(&fx.ensemble, pipeline, &fx.workload, fx.seed, &config);
    let serve_s = t0.elapsed().as_secs_f64();
    let exports = telemetry.as_ref().map(|t| Exports::render(fx, t, &report));
    let wall_s = t0.elapsed().as_secs_f64();
    Served {
        decisions: Decisions::of(&report.summary, report.stats),
        report,
        serve_s,
        exports,
        wall_s,
    }
}

/// The workload's pipeline with the plain DP scheduler.
pub fn plain_pipeline(fx: &Fixture) -> SchembleConfig {
    fx.pipeline(Box::new(DpScheduler::default()))
}

/// Serves the workload the way the end-to-end metrics see it: with the
/// workload's own telemetry and plain scheduler.
pub fn serve_plain(fx: &Fixture) -> Served {
    serve(fx, &plain_pipeline(fx), fx.kind.telemetry())
}

/// The workload's pipeline with its scheduler wrapped in a
/// [`TimedScheduler`] logging into `log`.
pub fn timed_pipeline(fx: &Fixture, log: &Arc<PlanLog>) -> SchembleConfig {
    let mut pipeline = plain_pipeline(fx);
    pipeline.scheduler = Box::new(TimedScheduler::new(
        Box::new(DpScheduler::default()),
        Arc::clone(log),
        pipeline.sched_ns_per_unit,
        pipeline.sched_base_overhead.as_micros(),
        fx.workload.len() * 8,
    ));
    pipeline
}

/// A single-engine virtual-clock pass with the engine and scheduler both
/// decorated.
pub struct EnginePass {
    /// The decisions made.
    pub decisions: Decisions,
    /// The engine decorator's measurements.
    pub engine: EngineLog,
    /// The scheduler decorator's measurements, one entry per thread.
    pub plans: Vec<ThreadPlans>,
    /// Wall seconds inside `run_virtual`.
    pub run_s: f64,
    /// Queries served.
    pub queries: usize,
}

/// Serves `workload` on one engine driven through `run_virtual` — the same
/// steps `serve_schemble` takes for one shard — with a [`TimedEngine`]
/// around the engine and a [`TimedScheduler`] in the pipeline.
pub fn engine_pass(fx: &Fixture, workload: &Workload, seed: u64) -> EnginePass {
    let log = Arc::new(PlanLog::default());
    let pipeline = timed_pipeline(fx, &log);
    let telemetry = fx.kind.telemetry().then(|| Telemetry::new(workload.len()));
    let config = ServeConfig {
        shards: 1,
        steal_epoch: None,
        batching: pipeline.batching.filter(|b| b.active()),
        ..serve_config(fx, telemetry.as_ref())
    };
    let sink = telemetry.as_ref().map_or_else(TraceSink::disabled, |t| Arc::clone(&t.sink));
    let m = fx.ensemble.m();
    let latencies: Vec<LatencyModel> = (0..m).map(|k| fx.ensemble.latency(k)).collect();
    let metrics = Arc::new(RuntimeMetrics::new(m));
    let mut engine = SchembleEngine::new(&fx.ensemble, &pipeline, workload).with_trace(sink);
    let mut timed = TimedEngine::new(&mut engine, workload.len() * 16);
    let t0 = Instant::now();
    let run = run_virtual(
        &mut timed,
        latencies,
        workload,
        seed,
        "schemble-latency",
        &config,
        &metrics,
        None,
    );
    let run_s = t0.elapsed().as_secs_f64();
    let engine_log = std::mem::take(&mut timed.log);
    let stats = PipelineEngine::stats(&engine);
    let summary = engine.into_summary(run.usage);
    EnginePass {
        decisions: Decisions::of(&summary, stats),
        engine: engine_log,
        plans: log.take(),
        run_s,
        queries: workload.len(),
    }
}
