//! Reusable scheduler scratch memory.
//!
//! Re-planning happens on *every* arrival and task completion, so the
//! scheduler's working memory is the hottest allocation site in the whole
//! system. [`SchedScratch`] owns every buffer a [`Scheduler`](super::Scheduler)
//! needs — finish-time arenas, per-layer node storage, feasible-subset lists,
//! sort permutations — and is held by the engine across invocations, so a
//! steady-state `plan_into` call allocates nothing: capacity grown on the
//! first few plans is recycled forever after (`bench_dp --features
//! bench-alloc` pins allocations/plan at zero).
//!
//! The finish-time storage is a flat structure-of-arrays arena: node `i`'s
//! per-model times live at `times[i * m .. (i + 1) * m]` instead of one
//! `Vec<SimTime>` per node. Node metadata (reward, cached dominance key,
//! parent link, subset choice) lives in parallel `NodeMeta` vectors — the
//! prune sort permutes small `u32` indices and compares precomputed integer
//! keys, never touching the time rows.

use schemble_models::ModelSet;
use schemble_sim::SimTime;

/// Deterministic counters describing the last `plan_into` call.
///
/// These depend only on the problem instance (never on wall-clock or
/// allocator state), which is what lets `bench_dp` gate them tightly in CI
/// while wall-clock numbers get a wide tolerance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Candidate nodes generated across all layers: skip-copies plus
    /// extensions that passed the per-node feasibility checks. Extensions by
    /// a subset that some proper subset matches in quantized reward are
    /// dominated and never generated, so they are not counted.
    pub nodes_expanded: u64,
    /// Frontier nodes surviving Pareto pruning, summed over layers.
    pub nodes_kept: u64,
}

/// One DP frontier node, minus its finish-time row (which lives in the
/// arena at `row_index * m`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    /// Quantized cumulative reward in δ units.
    pub u: u64,
    /// Cached dominance key: Σ_k finish-time microseconds. Maintained
    /// incrementally (extending by subset `s` adds Σ_{k∈s} latency_k), so
    /// the prune comparator never walks a time row.
    pub total: u128,
    /// Index of the parent node in the previous layer.
    pub parent: u32,
    /// Subset chosen for the query of this layer.
    pub choice: ModelSet,
}

/// A feasible subset for one query, precomputed once per plan.
///
/// Subsets whose quantized reward some proper subset (the empty set
/// included) already reaches, or whose *best-case* completion (from the
/// plan's start times) already overshoots the deadline, are filtered here —
/// once per query instead of once per frontier node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeasibleSet {
    pub set: ModelSet,
    /// `⌊reward / δ⌋`, guaranteed non-zero.
    pub quantized: u64,
    /// Σ_{k∈set} latency_k in microseconds — the increment this extension
    /// adds to a node's `total` dominance key.
    pub add_micros: u64,
}

/// Reusable working memory for [`Scheduler::plan_into`](super::Scheduler).
///
/// One scratch serves any scheduler and any instance size; buffers grow to
/// the high-water mark and stay there. A scratch carries no decision state
/// between calls — two consecutive plans through one scratch are identical
/// to two plans through fresh scratches (pinned by `dp::tests`).
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Greedy's mutable availability vector.
    pub(crate) avail: Vec<SimTime>,
    /// Pruned current-layer finish times, row `i` = node `i` (SoA arena).
    pub(crate) prev_times: Vec<SimTime>,
    /// Candidate finish times for the layer being built, row `j` = cand `j`.
    pub(crate) cand_times: Vec<SimTime>,
    /// Candidate metadata for the layer being built.
    pub(crate) cand: Vec<NodeMeta>,
    /// Pruned node metadata per layer, kept for backtracking. Inner vectors
    /// are recycled between plans.
    pub(crate) layers: Vec<Vec<NodeMeta>>,
    /// Sort permutation over candidate indices.
    pub(crate) perm: Vec<u32>,
    /// Concatenated per-query feasible-subset lists…
    pub(crate) feas: Vec<FeasibleSet>,
    /// …and the offset of each planned query's slice (`len = planned + 1`).
    pub(crate) feas_bounds: Vec<u32>,
    /// Per-mask best quantized reward over all subsets of the mask, rebuilt
    /// for each query while its feasible-subset list is filtered.
    pub(crate) sub_best: Vec<u64>,
    /// Counters from the most recent `plan_into` call.
    pub stats: DpStats,
}

impl SchedScratch {
    /// A scratch with no warmed capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters from the most recent `plan_into` call.
    pub fn stats(&self) -> DpStats {
        self.stats
    }

    /// Ensures `layers[0..n]` exist (recycled, not reallocated) and clears
    /// per-plan state. Called at the top of every DP plan.
    pub(crate) fn begin_plan(&mut self, n_layers: usize) {
        self.stats = DpStats::default();
        while self.layers.len() < n_layers {
            self.layers.push(Vec::new());
        }
        for layer in &mut self.layers[..n_layers] {
            layer.clear();
        }
        self.prev_times.clear();
        self.cand_times.clear();
        self.cand.clear();
        self.perm.clear();
        self.feas.clear();
        self.feas_bounds.clear();
    }
}
