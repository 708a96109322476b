//! The traced run: per-layer numbers, timed from the benchmark's probes.
//!
//! Each iteration serves the workload three ways — dark (no telemetry),
//! with every exporter on, and through the decorated scheduler — and checks
//! that all three make the decisions of the run's reference pass. The
//! decorated engine serves the whole workload when it runs one engine, and
//! otherwise the hottest shard's slice. The iteration then times the
//! predictor and the models directly. README.md maps each metric to the
//! end-to-end metric it should move.

use crate::pass::{self, nearest_rank, Decisions, EnginePass, Exports};
use crate::probe::{PlanLog, ThreadPlans};
use crate::stats::{cpu_seconds, median};
use crate::workload::Fixture;
use crate::{setup, Args, Metric, Outcome};
use schemble_core::predictor::OnlineScorer;
use schemble_models::Sample;
use schemble_serve::ShardRouter;
use schemble_sim::rng::mix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fewest iterations a traced run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Sums over the iterations of a traced run.
#[derive(Default)]
struct Totals {
    queries: u64,
    lost: u64,
    /// Dark serve: wall and process CPU seconds.
    dark_s: f64,
    dark_cpu_s: f64,
    /// Serve with telemetry, rendering excluded.
    traced_s: f64,
    exports: Vec<Exports>,
    /// Scheduler decorator, per thread per iteration.
    plans: Vec<ThreadPlans>,
    /// Per iteration: the busiest shard thread's planning time over the
    /// mean over shards.
    skews: Vec<f64>,
    /// Wall seconds of the scheduler-decorated serves.
    decorated_s: f64,
    engine: Vec<EnginePass>,
    predictor_ns: u64,
    predictor_queries: u64,
    infer_ns: u64,
    infer_tasks: u64,
}

/// Wall nanoseconds scoring every query of the workload the way the
/// engine does: one batched forward per `score_batch` arrivals.
fn time_predictor(fx: &Fixture) -> u64 {
    let scorer = OnlineScorer::Predictor(fx.artifacts.predictor.clone());
    let batch = pass::plain_pipeline(fx).score_batch;
    let samples: Vec<&Sample> = fx.workload.queries.iter().map(|q| &q.sample).collect();
    let t = Instant::now();
    for chunk in samples.chunks(batch.max(1)) {
        black_box(scorer.score_batch(chunk, &fx.ensemble));
    }
    t.elapsed().as_nanos() as u64
}

/// Wall nanoseconds running every model on every query's payload.
fn time_models(fx: &Fixture) -> u64 {
    let full = fx.ensemble.full_set();
    let t = Instant::now();
    for q in &fx.workload.queries {
        black_box(fx.ensemble.infer_subset(&q.sample, full));
    }
    t.elapsed().as_nanos() as u64
}

/// The traced run.
pub fn run(args: &Args) -> Outcome {
    let (fx, setups, _) = setup(args.kind, args.seed);
    let kind = fx.kind;
    let queries = fx.workload.len();
    let shards = kind.shards();
    let reference = pass::serve_plain(&fx).decisions;
    let mut errors = Vec::new();
    let check = |what: &str, d: &Decisions, errors: &mut Vec<String>| {
        errors
            .extend(d.check(&reference, queries).into_iter().map(|e| format!("{what} pass: {e}")));
    };

    // The shard the hash router sends most queries to; the engine decorator
    // serves that shard's slice when the workload runs several engines.
    let router = ShardRouter::new(shards);
    let parts = fx.workload.partition(shards, |q| router.route(q.key));
    let hot = (0..parts.len()).max_by_key(|&s| parts[s].workload.len()).unwrap_or(0);

    let mut t = Totals::default();
    let mut last_dark = None;
    let start = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || start.elapsed() < args.seconds {
        iterations += 1;
        t.queries += queries as u64;

        let cpu0 = cpu_seconds();
        let dark = pass::serve(&fx, &pass::plain_pipeline(&fx), false);
        t.dark_cpu_s += cpu_seconds() - cpu0;
        t.dark_s += dark.serve_s;
        t.lost += dark.decisions.lost();
        check("dark", &dark.decisions, &mut errors);

        let traced = pass::serve(&fx, &pass::plain_pipeline(&fx), true);
        t.traced_s += traced.serve_s;
        check("telemetry", &traced.decisions, &mut errors);
        let exports = traced.exports.expect("telemetry pass renders exports");
        if let Err(e) = exports.check(queries) {
            errors.push(e);
        }
        t.exports.push(exports);
        drop(traced);

        let plans = if shards == 1 {
            let decorated = pass::engine_pass(&fx, &fx.workload, fx.seed);
            check("decorated", &decorated.decisions, &mut errors);
            t.decorated_s += decorated.run_s;
            let plans = decorated.plans.clone();
            t.engine.push(decorated);
            plans
        } else {
            let log = Arc::new(PlanLog::default());
            let decorated = pass::serve(&fx, &pass::timed_pipeline(&fx, &log), kind.telemetry());
            check("decorated", &decorated.decisions, &mut errors);
            t.decorated_s += decorated.serve_s;
            let part = &parts[hot];
            t.engine.push(pass::engine_pass(&fx, &part.workload, mix(fx.seed, hot as u64)));
            log.take()
        };
        let busiest = plans.iter().map(ThreadPlans::total_ns).max().unwrap_or(0) as f64;
        let total = plans.iter().map(ThreadPlans::total_ns).sum::<u64>() as f64;
        t.skews.push(busiest * shards as f64 / total.max(1.0));
        t.plans.extend(plans);

        t.predictor_ns += time_predictor(&fx);
        t.predictor_queries += queries as u64;
        t.infer_ns += time_models(&fx);
        t.infer_tasks += (queries * fx.ensemble.m()) as u64;
        last_dark = Some(dark);
    }
    let dark = last_dark.expect("at least one iteration");
    let n = t.queries as f64;

    // Scheduler.
    let plans: u64 = t.plans.iter().map(|p| p.plan_ns.len() as u64).sum();
    let plans_f = plans.max(1) as f64;
    let sched_ns: u64 = t.plans.iter().map(ThreadPlans::total_ns).sum();
    let mut plan_ns: Vec<f64> =
        t.plans.iter().flat_map(|p| p.plan_ns.iter().map(|&x| x as f64)).collect();
    plan_ns.sort_by(f64::total_cmp);

    // Engine and backend.
    let events: u64 = t.engine.iter().map(|e| e.engine.handle_ns.len() as u64).sum();
    let events_f = events.max(1) as f64;
    let handle_ns: u64 = t.engine.iter().flat_map(|e| e.engine.handle_ns.iter()).sum();
    let engine_sched_ns: u64 =
        t.engine.iter().flat_map(|e| e.plans.iter()).map(ThreadPlans::total_ns).sum();
    let mut handle: Vec<f64> =
        t.engine.iter().flat_map(|e| e.engine.handle_ns.iter().map(|&x| x as f64)).collect();
    handle.sort_by(f64::total_cmp);
    let allocs: u64 = t.engine.iter().map(|e| e.engine.allocs).sum();
    let engine_run_ns: f64 = t.engine.iter().map(|e| e.run_s * 1e9).sum();
    let engine_queries: u64 = t.engine.iter().map(|e| e.queries as u64).sum();
    let batches = dark.report.metrics.batch_size.count();
    let batch_mean =
        if batches == 0 { 0.0 } else { dark.report.metrics.batch_size.sum_secs() / batches as f64 };
    let snap = &dark.report.snapshot;

    // Telemetry.
    let sum = |f: fn(&Exports) -> u64| t.exports.iter().map(f).sum::<u64>() as f64;
    let trace_events = sum(|e| e.events).max(1.0);

    let setup_of = |f: fn(&crate::workload::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    let metrics = vec![
        Metric::new("data.generate_s", setup_of(|s| s.generate_s), "s"),
        Metric::new("artifacts.build_s", setup_of(|s| s.artifacts_s), "s"),
        Metric::new(
            "predictor.score_ns_per_query",
            t.predictor_ns as f64 / t.predictor_queries.max(1) as f64,
            "ns",
        ),
        Metric::new("scheduler.plans_per_query", plans as f64 / n, "count"),
        Metric::new(
            "scheduler.buffer_mean",
            t.plans.iter().map(|p| p.buffered).sum::<u64>() as f64 / plans_f,
            "count",
        ),
        Metric::new(
            "scheduler.work_units_per_plan",
            t.plans.iter().map(|p| p.work).sum::<u64>() as f64 / plans_f,
            "count",
        ),
        Metric::new("scheduler.ns_per_plan", sched_ns as f64 / plans_f, "ns"),
        Metric::new("scheduler.plan_p50_us", nearest_rank(&plan_ns, 0.50) / 1e3, "us"),
        Metric::new("scheduler.plan_p99_us", nearest_rank(&plan_ns, 0.99) / 1e3, "us"),
        Metric::new(
            "scheduler.busy_share",
            sched_ns as f64 / (t.decorated_s * 1e9 * shards as f64),
            "share",
        ),
        Metric::new(
            "scheduler.modelled_us_per_plan",
            t.plans.iter().map(|p| p.modelled_us).sum::<u64>() as f64 / plans_f,
            "us",
        ),
        Metric::new(
            "engine.events_per_query",
            events as f64 / engine_queries.max(1) as f64,
            "count",
        ),
        Metric::new(
            "engine.self_ns_per_event",
            handle_ns.saturating_sub(engine_sched_ns) as f64 / events_f,
            "ns",
        ),
        Metric::new("engine.handle_p50_us", nearest_rank(&handle, 0.50) / 1e3, "us"),
        Metric::new("engine.handle_p99_us", nearest_rank(&handle, 0.99) / 1e3, "us"),
        Metric::new("engine.allocs_per_event", allocs as f64 / events_f, "count"),
        Metric::new(
            "backend.ns_per_event",
            (engine_run_ns - handle_ns as f64).max(0.0) / events_f,
            "ns",
        ),
        Metric::new("backend.batch_size_mean", batch_mean, "count"),
        Metric::new(
            "backend.tasks_batched_share",
            snap.tasks_batched as f64 / snap.tasks_completed.max(1) as f64,
            "share",
        ),
        Metric::new(
            "models.infer_ns_per_task",
            t.infer_ns as f64 / t.infer_tasks.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "serve.hot_shard_share",
            parts[hot].workload.len() as f64 / queries as f64,
            "share",
        ),
        Metric::new("serve.queries_stolen", dark.decisions.stats.stolen_in as f64, "count"),
        Metric::new("serve.cpu_per_wall", t.dark_cpu_s / t.dark_s, "cores"),
        Metric::new("serve.scheduler_thread_skew", median(&t.skews), "ratio"),
        Metric::new("trace.events_per_query", trace_events / n, "count"),
        Metric::new("trace.bytes_per_query", sum(|e| e.trace_bytes) / n, "bytes"),
        Metric::new("trace.emit_us_per_query", (t.traced_s - t.dark_s) * 1e6 / n, "us"),
        Metric::new("trace.chrome_ns_per_event", sum(|e| e.chrome_ns) / trace_events, "ns"),
        Metric::new("trace.audit_ns_per_event", sum(|e| e.audit_ns) / trace_events, "ns"),
        Metric::new(
            "trace.prometheus_ms",
            sum(|e| e.prometheus_ns) / t.exports.len().max(1) as f64 / 1e6,
            "ms",
        ),
        Metric::new("obs.fold_ns_per_event", sum(|e| e.fold_ns) / trace_events, "ns"),
        Metric::new("obs.bytes_per_query", sum(|e| e.obs_bytes) / n, "bytes"),
    ];
    Outcome {
        errors,
        attempted: t.queries,
        failed: t.lost,
        metrics,
        detail: vec![
            ("queries_per_pass", queries.to_string()),
            ("iterations", iterations.to_string()),
            ("decision_digest", format!("\"{:016x}\"", reference.digest)),
            ("plans", plans.to_string()),
            ("engine_events", events.to_string()),
            ("engine_queries", engine_queries.to_string()),
        ],
    }
}
