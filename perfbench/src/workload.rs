//! The named workloads and their set-up.
//!
//! The deployed system — ensemble, trained artifacts — is fixed by
//! [`SYSTEM_SEED`], as a deployment is; the `--seed` argument drives only
//! the inputs: query payloads, arrivals, deadlines, routing keys and the
//! backend's latency draws. README.md says why each workload was chosen.

use schemble_core::artifacts::SchembleArtifacts;
use schemble_core::discrepancy::DifficultyMetric;
use schemble_core::pipeline::SchembleConfig;
use schemble_core::predictor::OnlineScorer;
use schemble_core::profiling::AccuracyProfile;
use schemble_core::scheduler::Scheduler;
use schemble_data::{ArrivalTrace, DeadlinePolicy, DiurnalTrace, PoissonTrace, TaskKind, Workload};
use schemble_models::{zoo, Ensemble, SampleGenerator};
use schemble_sim::{BatchConfig, SimDuration};
use std::time::Instant;

/// Seed of everything the deployment learns or fixes before serving.
const SYSTEM_SEED: u64 = 42;
/// Historical samples the artifacts are trained on (the paper default).
const HISTORY: usize = 2000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Text matching, Poisson at the task's default rate, no telemetry.
    TmPoisson,
    /// Text matching on the one-day diurnal trace with every exporter on.
    TmDiurnalTraced,
    /// The 6-model CIFAR-like zoo on a hot-key stream over two shards.
    Cifar6HotkeySharded,
}

impl Kind {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Kind; 3] = [Kind::TmPoisson, Kind::TmDiurnalTraced, Kind::Cifar6HotkeySharded];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TmPoisson => "tm-poisson",
            Kind::TmDiurnalTraced => "tm-diurnal-traced",
            Kind::Cifar6HotkeySharded => "cifar6-hotkey-sharded",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Queries per pass: sized so one pass takes a few hundred
    /// milliseconds, which lets a run take the median of many passes.
    pub fn queries(self) -> usize {
        match self {
            Kind::TmPoisson => 20_000,
            Kind::TmDiurnalTraced => 30_000,
            Kind::Cifar6HotkeySharded => 16_000,
        }
    }

    /// Engine shards the workload serves on.
    pub fn shards(self) -> usize {
        match self {
            Kind::Cifar6HotkeySharded => 2,
            _ => 1,
        }
    }

    /// Whether the workload serves with every exporter on.
    pub fn telemetry(self) -> bool {
        self == Kind::TmDiurnalTraced
    }

    /// Inter-shard work-stealing epoch.
    pub fn steal_epoch(self) -> Option<SimDuration> {
        (self == Kind::Cifar6HotkeySharded).then(|| SimDuration::from_millis(50))
    }

    fn ensemble(self) -> Ensemble {
        match self {
            Kind::Cifar6HotkeySharded => zoo::cifar_zoo(6, SYSTEM_SEED),
            _ => TaskKind::TextMatching.ensemble(SYSTEM_SEED),
        }
    }

    fn trace(self) -> Box<dyn ArrivalTrace> {
        let n = self.queries();
        match self {
            Kind::TmPoisson => Box::new(PoissonTrace { rate_per_sec: 45.0, n }),
            Kind::TmDiurnalTraced => Box::new(DiurnalTrace { n, day_secs: n as f64 / 15.0 }),
            Kind::Cifar6HotkeySharded => Box::new(PoissonTrace { rate_per_sec: 150.0, n }),
        }
    }

    fn deadline(self) -> DeadlinePolicy {
        match self {
            Kind::Cifar6HotkeySharded => DeadlinePolicy::constant_millis(30.0),
            _ => DeadlinePolicy::constant_millis(105.0),
        }
    }
}

/// Query payloads for `ensemble`, drawn with the paper's easy-heavy
/// difficulty law (the default of every task).
fn generator(ensemble: &Ensemble, seed: u64) -> SampleGenerator {
    SampleGenerator::new(ensemble.spec, TaskKind::TextMatching.default_difficulty(), seed)
}

/// Everything a pass needs: the deployment and the generated inputs.
pub struct Fixture {
    /// Which workload.
    pub kind: Kind,
    /// The deployed ensemble.
    pub ensemble: Ensemble,
    /// The offline-trained artifacts.
    pub artifacts: SchembleArtifacts,
    /// The generated query stream.
    pub workload: Workload,
    /// Seed of the inputs, also handed to the serving backend.
    pub seed: u64,
}

/// Wall seconds of one set-up, by stage.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// Artifact training (`schemble-core::artifacts` with `schemble-nn`).
    pub artifacts_s: f64,
    /// Workload generation (`schemble-data`).
    pub generate_s: f64,
}

impl Fixture {
    /// Builds the ensemble, trains the artifacts and generates the workload
    /// of `kind` from `seed`, timing each stage.
    pub fn build(kind: Kind, seed: u64) -> (Fixture, SetupTimes) {
        let t0 = Instant::now();
        let ensemble = kind.ensemble();
        let history = generator(&ensemble, SYSTEM_SEED);
        let t1 = Instant::now();
        let artifacts = SchembleArtifacts::build(
            &ensemble,
            &history,
            HISTORY,
            AccuracyProfile::DEFAULT_BINS,
            DifficultyMetric::Discrepancy,
            SYSTEM_SEED,
        );
        let t2 = Instant::now();
        let mut workload = Workload::generate(
            &generator(&ensemble, seed),
            kind.trace().as_ref(),
            &kind.deadline(),
            seed,
        );
        if kind == Kind::Cifar6HotkeySharded {
            workload = workload.with_zipf_keys(64, 2.0, seed);
        }
        let t3 = Instant::now();
        let times = SetupTimes {
            total_s: (t3 - t0).as_secs_f64(),
            artifacts_s: (t2 - t1).as_secs_f64(),
            generate_s: (t3 - t2).as_secs_f64(),
        };
        (Fixture { kind, ensemble, artifacts, workload, seed }, times)
    }

    /// The workload's pipeline configuration around `scheduler`.
    pub fn pipeline(&self, scheduler: Box<dyn Scheduler>) -> SchembleConfig {
        let mut config = SchembleConfig::new(
            scheduler,
            OnlineScorer::Predictor(self.artifacts.predictor.clone()),
            self.artifacts.profile.clone(),
        );
        if self.kind == Kind::Cifar6HotkeySharded {
            config.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
        }
        config
    }
}
