//! `perfbench` — the repository benchmark.
//!
//! Replays one named workload through the public serving API
//! (`schemble_serve::serve_schemble` on the virtual clock) and prints its
//! metrics, checking the program's outputs as it goes:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: the decision metrics of the
//! pass (identical on every pass) and the median over the measured passes
//! of the wall-clock ones. `--trace 1` is the traced run: it times calls
//! into each layer from the benchmark's own probes and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it records the run's details (machine, build,
//! pass counts, quartiles). README.md explains the workloads and metrics.

mod layers;
mod pass;
mod probe;
mod stats;
mod workload;

use stats::{Speed, Spread};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Fixture, Kind, SetupTimes};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <tm-poisson|tm-diurnal-traced|cifar6-hotkey-sharded> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    kind: Kind,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("expected seconds in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was taken (sample count, quartiles), for the table on
    /// standard error.
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What a run found.
pub struct Outcome {
    /// Failed output checks; empty when every check passed.
    errors: Vec<String>,
    /// Queries served in the measured passes.
    attempted: u64,
    /// Of those, queries the program lost (submitted, never decided).
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra `"key": value` JSON members for the detail line.
    detail: Vec<(&'static str, String)>,
}

/// Sets the workload up [`SETUPS`] times; keeps the last fixture. Returns
/// the set-up times by stage and the total set-up seconds at the reference
/// speed.
fn setup(kind: Kind, seed: u64) -> (Fixture, Vec<SetupTimes>, Vec<f64>) {
    let mut speed = Speed::start();
    let mut times = Vec::with_capacity(SETUPS);
    let mut scaled = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Drop the previous fixture first so set-ups do not stack in memory.
        drop(fixture.take());
        let ((fx, t), slowdown) = speed.slowdown(|| Fixture::build(kind, seed));
        fixture = Some(fx);
        scaled.push(t.total_s / slowdown);
        times.push(t);
    }
    (fixture.expect("at least one set-up"), times, scaled)
}

/// Checks one measured pass against the run's reference decisions.
fn check_pass(fx: &Fixture, served: &pass::Served, reference: &pass::Decisions) -> Vec<String> {
    let queries = fx.workload.len();
    let mut errors = served.decisions.check(reference, queries);
    if let Some(Err(e)) = served.exports.as_ref().map(|x| x.check(queries)) {
        errors.push(e);
    }
    errors
}

/// Sanity bounds on decision metrics: a broken pipeline fails them.
fn check_decisions(d: &pass::Decisions) -> Vec<String> {
    let mut errors = Vec::new();
    if !(d.accuracy > 0.0 && d.accuracy <= 1.0) {
        errors.push(format!("accuracy {} outside (0, 1]", d.accuracy));
    }
    if !(0.0..1.0).contains(&d.miss_rate) {
        errors.push(format!("deadline miss rate {} outside [0, 1)", d.miss_rate));
    }
    if d.latency_n == 0 || d.p50_ms <= 0.0 || d.p99_ms < d.p50_ms {
        errors.push(format!(
            "latency quantiles p50 {} ms, p99 {} ms over {} queries",
            d.p50_ms, d.p99_ms, d.latency_n
        ));
    }
    errors
}

/// The end-to-end run: an untimed warm-up pass, then measured passes
/// until `seconds` have passed.
fn end_to_end(args: &Args) -> Outcome {
    let (fx, _, setup_s) = setup(args.kind, args.seed);
    let mut speed = Speed::start();
    let queries = fx.workload.len();
    let warm = pass::serve_plain(&fx);
    let reference = warm.decisions.clone();
    let mut errors = check_pass(&fx, &warm, &reference);
    errors.extend(check_decisions(&reference));
    drop(warm);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut qps, mut raw_qps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while qps.len() < MIN_PASSES || start.elapsed() < args.seconds {
        let (served, slowdown) = speed.slowdown(|| pass::serve_plain(&fx));
        attempted += queries as u64;
        failed += served.decisions.lost();
        errors.extend(check_pass(&fx, &served, &reference));
        qps.push(queries as f64 / served.wall_s * slowdown);
        raw_qps.push(queries as f64 / served.wall_s);
    }
    let qps = Spread::of(&qps);
    let setup = Spread::of(&setup_s);
    let d = &reference;
    Outcome {
        errors,
        attempted,
        failed,
        metrics: vec![
            Metric::new("accuracy", d.accuracy, "fraction"),
            Metric::new("deadline_miss_rate", d.miss_rate, "fraction"),
            Metric::new("latency_p50_ms", d.p50_ms, "ms").noted(format!("n = {}", d.latency_n)),
            Metric::new("latency_p99_ms", d.p99_ms, "ms").noted(format!("n = {}", d.latency_n)),
            Metric::new("tasks_per_query", d.tasks_per_query, "tasks"),
            Metric::new("control_plane_qps", qps.median, "queries/s").noted(qps.text()),
            Metric::new("setup_s", setup.median, "s").noted(setup.text()),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ],
        detail: vec![
            ("queries_per_pass", queries.to_string()),
            ("passes", raw_qps.len().to_string()),
            ("latency_samples", d.latency_n.to_string()),
            ("control_plane_qps", qps.json()),
            ("control_plane_qps_unscaled", Spread::of(&raw_qps).json()),
            ("setup_s", setup.json()),
            ("probe_s", Spread::of(&speed.probes).json()),
            ("decision_digest", format!("\"{:016x}\"", d.digest)),
            ("queries_stolen", d.stats.stolen_in.to_string()),
        ],
    }
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_start = Instant::now();
    let mut outcome = if args.trace { layers::run(&args) } else { end_to_end(&args) };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.errors.push(format!("{} is not a finite number: {}", m.name, m.value));
            m.value = 0.0;
        }
    }

    let mut detail = vec![
        ("workload", json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("setups", SETUPS.to_string()),
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("commit", json_str(&commit())),
        ("run_s", format!("{:.3}", run_start.elapsed().as_secs_f64())),
        (
            "errors",
            format!(
                "[{}]",
                outcome.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", ")
            ),
        ),
    ];
    detail.extend(outcome.detail);
    let members: Vec<String> = detail.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"detail\": {{{}}}}}", members.join(", "));

    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
