//! Alg. 1: quantized dynamic-programming scheduling with Pareto pruning.
//!
//! Queries are processed in EDF order (Theorems 1–2). The DP walks the
//! queries, maintaining a frontier of partial solutions; each solution
//! carries its quantized cumulative reward `u` (in units of `δ`) and the
//! vector of per-model finish times its choices imply. Extending a solution
//! with subset `s` for query `i` is feasible iff the query's completion
//! (max over chosen models of `finish_k + T_k`) meets its deadline.
//!
//! The paper's `Comb/Time` table indexed by `(i, u)` with per-cell pruning is
//! realised sparsely: the frontier *is* the set of non-empty cells, and the
//! pruning rule is strengthened to full Pareto dominance across cells —
//! solution A dominates B when `A.u ≥ B.u` and `A.times ≤ B.times`
//! element-wise (any completion achievable from B is achievable from A at no
//! less reward, so dropping B is exact). A frontier cap bounds worst-case
//! cost; the default is far above what quantized instances reach in practice.
//!
//! The returned [`SchedulePlan::work`] charges the *dense* table cost of
//! Alg. 1 as written — `Σ_i (i/δ) · 2^m` cell updates — which the serving
//! pipeline converts into scheduling latency. The sparse frontier here is a
//! wall-clock optimisation that produces the same plan; the simulated system
//! still pays the algorithm's nominal cost, which is what makes `δ = 0.001`
//! *lose* end-to-end in Fig. 12/21 despite its better plans.
//!
//! # Hot path
//!
//! [`DpScheduler::plan_into`] is allocation-free in steady state: all working
//! memory lives in the caller's [`SchedScratch`] (finish times in a flat
//! `node*m+k` arena, node metadata with *cached* dominance keys, per-query
//! feasible-subset lists filtered once per plan — subsets that a proper
//! subset matches in reward are never extended), and the result is written
//! into a reusable [`SchedulePlan`]. Every optimisation preserves the plan
//! bit-for-bit against the naive formulation — the retained reference
//! implementation under `#[cfg(test)]` and the differential property test
//! pin this.

use super::input::{ScheduleInput, SchedulePlan};
use super::scratch::{FeasibleSet, NodeMeta, SchedScratch};
use super::Scheduler;
use schemble_models::ModelSet;
use schemble_sim::SimTime;

/// Alg. 1 with quantization step `delta`.
///
/// # Examples
///
/// The §I example: three 20 ms models, two queries due at 25 ms — the DP
/// splits the models so both queries are served.
///
/// ```
/// use schemble_core::scheduler::{BufferedQuery, DpScheduler, ScheduleInput, Scheduler};
/// use schemble_sim::{SimDuration, SimTime};
///
/// let query = |id| BufferedQuery {
///     id,
///     arrival: SimTime::ZERO,
///     deadline: SimTime::from_millis(25),
///     utilities: vec![0.0, 0.9, 0.9, 0.95, 0.9, 0.95, 0.95, 1.0],
///     score: 0.2,
/// };
/// let input = ScheduleInput {
///     now: SimTime::ZERO,
///     availability: vec![SimTime::ZERO; 3],
///     latencies: vec![SimDuration::from_millis(20); 3],
///     queries: vec![query(0), query(1)],
/// };
/// let plan = DpScheduler::default().plan(&input);
/// assert_eq!(plan.scheduled_count(), 2);
/// assert!(input.plan_is_feasible(&plan));
/// ```
#[derive(Debug, Clone)]
pub struct DpScheduler {
    /// Reward quantization step δ (paper default 0.01).
    pub delta: f64,
    /// Pareto-frontier cap (beam width); the exact frontier rarely exceeds a
    /// few dozen nodes on quantized instances, so the default cap is
    /// effectively exact while bounding adversarial cases.
    pub max_frontier: usize,
    /// At most this many EDF-first queries are planned per round; the rest
    /// stay buffered for the next invocation.
    pub max_queries: usize,
}

impl Default for DpScheduler {
    fn default() -> Self {
        Self { delta: 0.01, max_frontier: 64, max_queries: 24 }
    }
}

impl DpScheduler {
    /// A DP scheduler with the given δ and default caps.
    pub fn with_delta(delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        Self { delta, ..Self::default() }
    }

    /// The quantization step `plan` actually uses. Struct-literal
    /// construction bypasses [`DpScheduler::with_delta`]'s assertion, so a
    /// zero, negative, NaN or infinite δ could otherwise divide rewards to
    /// infinity and overflow the `work` accounting; such values fall back to
    /// the default (debug builds assert instead).
    fn effective_delta(&self) -> f64 {
        if self.delta.is_finite() && self.delta > 0.0 {
            self.delta
        } else {
            Self::default().delta
        }
    }
}

impl Scheduler for DpScheduler {
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan) {
        debug_assert!(
            self.delta.is_finite() && self.delta > 0.0,
            "DpScheduler.delta must be positive and finite, got {}",
            self.delta
        );
        let delta = self.effective_delta();
        let n = input.queries.len();
        let m = input.m();
        out.work = 0;
        out.frontier = 0;
        out.order.clear();
        out.assignments.clear();
        out.assignments.resize(n, ModelSet::EMPTY);
        if n == 0 {
            return;
        }
        input.edf_order_into(&mut out.order);
        let planned_len = out.order.len().min(self.max_queries);
        let planned = &out.order[..planned_len];
        if planned.is_empty() {
            return;
        }
        let cap = self.max_frontier.max(1);
        // Layers 0..planned_len hold the pruned frontiers (root at 0); the
        // final layer is streamed, never materialised.
        scratch.begin_plan(planned_len);

        // Root: one node at the models' start times.
        let mut root_total = 0u128;
        for &a in &input.availability {
            let t = a.max(input.now);
            root_total += t.as_micros() as u128;
            scratch.prev_times.push(t);
        }
        scratch.layers[0].push(NodeMeta {
            u: 0,
            total: root_total,
            parent: u32::MAX,
            choice: ModelSet::EMPTY,
        });

        // Feasible-subset lists, filtered once per query instead of once per
        // frontier node:
        // * a subset is dropped when some proper subset (∅ included, at
        //   reward 0) reaches at least its quantized reward. From any node
        //   the smaller extension then Pareto-dominates the larger one and,
        //   generated earlier with total no larger, sorts before it; so the
        //   larger one is never kept by the prune nor picked by the final
        //   fold, and omitting it changes no plan. `sub_best[mask]` holds the
        //   best quantized reward over all subsets of `mask`, built in
        //   ascending mask order (every subset precedes its supersets);
        // * a subset whose *best-case* completion (from the start times —
        //   node times only ever grow) misses the deadline can never be
        //   feasible. Its supersets cannot be either, so the order of the two
        //   filters does not matter.
        // Mask order is preserved: candidate generation order decides ties,
        // so reordering here would change plans.
        scratch.feas_bounds.push(0);
        for &qi in planned {
            let q = &input.queries[qi];
            scratch.sub_best.clear();
            scratch.sub_best.resize(1 << m, 0);
            for set in ModelSet::all_nonempty(m) {
                let quantized = (q.utilities[set.0 as usize] / delta).floor() as u64;
                let mut proper_best = 0u64;
                for k in set.iter() {
                    proper_best = proper_best.max(scratch.sub_best[set.without(k).0 as usize]);
                }
                scratch.sub_best[set.0 as usize] = proper_best.max(quantized);
                if quantized <= proper_best {
                    continue;
                }
                let mut c_min = SimTime::ZERO;
                let mut add_micros = 0u64;
                for k in set.iter() {
                    c_min = c_min.max(scratch.prev_times[k] + input.latencies[k]);
                    add_micros += input.latencies[k].as_micros();
                }
                if c_min > q.deadline {
                    continue;
                }
                scratch.feas.push(FeasibleSet { set, quantized, add_micros });
            }
            scratch.feas_bounds.push(scratch.feas.len() as u32);
        }

        // Best terminal candidate, tracked on the fly over the streamed final
        // layer. Post-prune frontiers are sorted by (u desc, total asc) with
        // ties kept in generation order, so the old code's "pick the best of
        // the pruned last layer" always picked the first-sorted = first-
        // generated maximum — exactly what this running fold computes.
        let mut best: Option<NodeMeta> = None;
        let consider = |best: &mut Option<NodeMeta>, c: NodeMeta| match best {
            Some(b) if c.u > b.u || (c.u == b.u && c.total < b.total) => *best = Some(c),
            Some(_) => {}
            None => *best = Some(c),
        };

        for (step, &qi) in planned.iter().enumerate() {
            // `work` models the cost of Alg. 1 as written: a dense table over
            // (queries × quantized reward levels × subsets). The Pareto-
            // sparse frontier computes the same plan much faster in
            // wall-clock, but the *simulated* scheduler is charged the dense
            // cost — that is what the paper's implementation pays and what
            // makes δ = 0.001 lose end-to-end (Fig. 12/21).
            let dense_levels = (((step + 1) as f64) / delta).ceil() as u64;
            out.work += dense_levels * (1u64 << m);
            let q = &input.queries[qi];
            let feas_range =
                scratch.feas_bounds[step] as usize..scratch.feas_bounds[step + 1] as usize;
            let prev_len = scratch.layers[step].len();
            out.frontier = out.frontier.max(prev_len as u32);
            let last_step = step + 1 == planned_len;

            if last_step {
                // The final layer's only consumer is the best-node scan, so
                // stream candidates through the fold instead of materialising
                // and pruning them. An extension whose reward *strictly*
                // undershoots the current best cannot win (equal reward can
                // still win on a smaller finish-time total) — skip it before
                // touching its time row.
                for pi in 0..prev_len {
                    let pmeta = scratch.layers[step][pi];
                    let ptimes = &scratch.prev_times[pi * m..(pi + 1) * m];
                    scratch.stats.nodes_expanded += 1;
                    consider(
                        &mut best,
                        NodeMeta { parent: pi as u32, choice: ModelSet::EMPTY, ..pmeta },
                    );
                    for fi in feas_range.clone() {
                        let fs = scratch.feas[fi];
                        if best.as_ref().is_some_and(|b| pmeta.u + fs.quantized < b.u) {
                            continue;
                        }
                        let mut completion = SimTime::ZERO;
                        for k in fs.set.iter() {
                            completion = completion.max(ptimes[k] + input.latencies[k]);
                        }
                        if completion > q.deadline {
                            continue;
                        }
                        scratch.stats.nodes_expanded += 1;
                        consider(
                            &mut best,
                            NodeMeta {
                                u: pmeta.u + fs.quantized,
                                total: pmeta.total + fs.add_micros as u128,
                                parent: pi as u32,
                                choice: fs.set,
                            },
                        );
                    }
                }
                continue;
            }

            // Candidate generation: for every frontier node, a skip-copy
            // (cell copy in Alg. 1) plus one candidate per feasible subset.
            // Times are copied row-to-row in the arena; `total` is bumped by
            // the precomputed per-subset increment.
            scratch.cand.clear();
            scratch.cand_times.clear();
            for pi in 0..prev_len {
                let pmeta = scratch.layers[step][pi];
                let row = pi * m;
                scratch.stats.nodes_expanded += 1;
                scratch.cand.push(NodeMeta { parent: pi as u32, choice: ModelSet::EMPTY, ..pmeta });
                let (dst, src) = (&mut scratch.cand_times, &scratch.prev_times);
                dst.extend_from_slice(&src[row..row + m]);
                for fi in feas_range.clone() {
                    let fs = scratch.feas[fi];
                    let ptimes = &scratch.prev_times[row..row + m];
                    let mut completion = SimTime::ZERO;
                    for k in fs.set.iter() {
                        completion = completion.max(ptimes[k] + input.latencies[k]);
                    }
                    if completion > q.deadline {
                        continue;
                    }
                    scratch.stats.nodes_expanded += 1;
                    scratch.cand.push(NodeMeta {
                        u: pmeta.u + fs.quantized,
                        total: pmeta.total + fs.add_micros as u128,
                        parent: pi as u32,
                        choice: fs.set,
                    });
                    let base = scratch.cand_times.len();
                    let (dst, src) = (&mut scratch.cand_times, &scratch.prev_times);
                    dst.extend_from_slice(&src[row..row + m]);
                    for k in fs.set.iter() {
                        scratch.cand_times[base + k] = ptimes[k] + input.latencies[k];
                    }
                }
            }

            prune_into_next_layer(scratch, step, m, cap);
        }

        // Backtrack choices through the layers.
        let best = best.expect("final layer has at least the skip-copies");
        out.assignments[planned[planned_len - 1]] = best.choice;
        let mut idx = best.parent as usize;
        for layer in (1..planned_len).rev() {
            let node = scratch.layers[layer][idx];
            out.assignments[planned[layer - 1]] = node.choice;
            idx = node.parent as usize;
        }
    }

    fn name(&self) -> String {
        format!("DP(δ={})", self.delta)
    }
}

/// Pareto pruning of the candidate layer into `layers[step + 1]` (metadata)
/// and the recompacted `prev_times` arena (time rows), capped at `cap`.
///
/// Candidates are visited in (reward descending, cached total-micros
/// ascending) order so dominators come first, making the scan
/// O(kept · candidates); a candidate is dropped iff an already-kept node has
/// `u` ≥ and all times ≤ element-wise. Ties on (u, total) are resolved by
/// generation order: the sort breaks them on candidate index, so the
/// earliest-generated of equal nodes is kept and the later ones are dropped
/// as dominated — the same rule the pre-refactor stable sort implemented
/// implicitly.
fn prune_into_next_layer(scratch: &mut SchedScratch, step: usize, m: usize, cap: usize) {
    let SchedScratch { prev_times, cand_times, cand, layers, perm, stats, .. } = scratch;
    perm.clear();
    perm.extend(0..cand.len() as u32);
    perm.sort_unstable_by(|&a, &b| {
        let (ca, cb) = (&cand[a as usize], &cand[b as usize]);
        cb.u.cmp(&ca.u).then(ca.total.cmp(&cb.total)).then(a.cmp(&b))
    });
    let (_prev, next) = layers.split_at_mut(step + 1);
    let kept_meta = &mut next[0];
    debug_assert!(kept_meta.is_empty(), "begin_plan must have cleared the layer");
    prev_times.clear();
    for &ci in perm.iter() {
        let c = cand[ci as usize];
        let ctimes = &cand_times[ci as usize * m..(ci as usize + 1) * m];
        let dominated = kept_meta.iter().enumerate().any(|(kj, k)| {
            k.u >= c.u && prev_times[kj * m..(kj + 1) * m].iter().zip(ctimes).all(|(a, b)| a <= b)
        });
        if dominated {
            continue;
        }
        kept_meta.push(c);
        prev_times.extend_from_slice(ctimes);
        if kept_meta.len() >= cap {
            break;
        }
    }
    stats.nodes_kept += kept_meta.len() as u64;
}

/// The pre-refactor implementation, retained verbatim as the differential
/// oracle: `plan_into` must produce byte-identical plans.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    struct Node {
        u: u64,
        times: Vec<SimTime>,
        parent: usize,
        choice: ModelSet,
    }

    fn total_micros(times: &[SimTime]) -> u128 {
        times.iter().map(|t| t.as_micros() as u128).sum()
    }

    fn prune(nodes: &mut Vec<Node>, cap: usize) {
        nodes.sort_by(|a, b| {
            b.u.cmp(&a.u).then_with(|| total_micros(&a.times).cmp(&total_micros(&b.times)))
        });
        let mut kept: Vec<Node> = Vec::with_capacity(nodes.len().min(cap));
        'candidates: for node in nodes.drain(..) {
            for k in &kept {
                if k.u >= node.u && k.times.iter().zip(&node.times).all(|(a, b)| a <= b) {
                    continue 'candidates;
                }
            }
            kept.push(node);
            if kept.len() >= cap {
                break;
            }
        }
        *nodes = kept;
    }

    pub(crate) fn plan(sched: &DpScheduler, input: &ScheduleInput) -> SchedulePlan {
        let n = input.queries.len();
        if n == 0 {
            return SchedulePlan::empty(0);
        }
        let m = input.m();
        let order = input.edf_order();
        let planned: Vec<usize> = order.iter().copied().take(sched.max_queries).collect();

        let start_times: Vec<SimTime> =
            input.availability.iter().map(|&a| a.max(input.now)).collect();
        let root = Node { u: 0, times: start_times, parent: usize::MAX, choice: ModelSet::EMPTY };

        let mut layers: Vec<Vec<Node>> = Vec::with_capacity(planned.len() + 1);
        layers.push(vec![root]);
        let mut work = 0u64;

        for (step, &qi) in planned.iter().enumerate() {
            let dense_levels = (((step + 1) as f64) / sched.delta).ceil() as u64;
            work += dense_levels * (1u64 << m);
            let q = &input.queries[qi];
            let prev = layers.last().expect("non-empty layers");
            let mut next: Vec<Node> = Vec::with_capacity(prev.len() * 2);
            for (pi, node) in prev.iter().enumerate() {
                next.push(Node {
                    u: node.u,
                    times: node.times.clone(),
                    parent: pi,
                    choice: ModelSet::EMPTY,
                });
                for set in ModelSet::all_nonempty(m) {
                    let reward = q.utilities[set.0 as usize];
                    let quantized = (reward / sched.delta).floor() as u64;
                    if quantized == 0 {
                        continue;
                    }
                    let mut times = node.times.clone();
                    let mut completion = SimTime::ZERO;
                    for k in set.iter() {
                        let finish = times[k] + input.latencies[k];
                        times[k] = finish;
                        completion = completion.max(finish);
                    }
                    if completion > q.deadline {
                        continue;
                    }
                    next.push(Node { u: node.u + quantized, times, parent: pi, choice: set });
                }
            }
            prune(&mut next, sched.max_frontier);
            layers.push(next);
        }

        let last = layers.last().expect("non-empty layers");
        let mut best = 0usize;
        for (i, node) in last.iter().enumerate() {
            let better = node.u > last[best].u
                || (node.u == last[best].u
                    && total_micros(&node.times) < total_micros(&last[best].times));
            if better {
                best = i;
            }
        }

        let mut assignments = vec![ModelSet::EMPTY; n];
        let mut idx = best;
        for layer in (1..layers.len()).rev() {
            let node = &layers[layer][idx];
            assignments[planned[layer - 1]] = node.choice;
            idx = node.parent;
        }

        SchedulePlan { assignments, order, work, frontier: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::brute::optimal_plan;
    use crate::scheduler::input::BufferedQuery;
    use proptest::prelude::*;
    use schemble_sim::SimDuration;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn query(id: u64, deadline_ms: u64, utilities: Vec<f64>) -> BufferedQuery {
        BufferedQuery { id, arrival: at(0), deadline: at(deadline_ms), utilities, score: 0.5 }
    }

    #[test]
    fn splits_models_across_two_easy_queries() {
        // The paper's §I example: two easy queries, three models. Running the
        // full set on query 1 would block query 2; splitting processes both.
        let utilities = vec![0.0, 0.9, 0.9, 0.92, 0.9, 0.92, 0.92, 1.0];
        let input = ScheduleInput {
            now: at(0),
            availability: vec![at(0); 3],
            latencies: vec![ms(20), ms(20), ms(20)],
            queries: vec![query(0, 25, utilities.clone()), query(1, 25, utilities)],
        };
        let plan = DpScheduler::default().plan(&input);
        assert_eq!(plan.scheduled_count(), 2, "both queries must be served");
        assert!(input.plan_is_feasible(&plan));
        // Neither query can take more than the deadline allows (one round).
        let total_models: usize = plan.assignments.iter().map(|s| s.len()).sum();
        assert_eq!(total_models, 3, "all three models should be used exactly once");
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Deterministic sweep of small instances; DP with tiny δ must equal
        // the exact optimum.
        let mut mismatches = 0;
        for seed in 0..20u64 {
            let input = random_instance(seed, 4, 2);
            let dp = DpScheduler { delta: 1e-4, max_frontier: 4096, max_queries: 24 }.plan(&input);
            let best = optimal_plan(&input);
            let dp_u = input.plan_utility(&dp);
            let opt_u = input.plan_utility(&best);
            assert!(input.plan_is_feasible(&dp));
            if (dp_u - opt_u).abs() > 1e-6 {
                mismatches += 1;
                eprintln!("seed {seed}: dp {dp_u} vs opt {opt_u}");
            }
        }
        assert_eq!(mismatches, 0, "DP fell short of the optimum");
    }

    #[test]
    fn coarser_delta_never_beats_finer() {
        for seed in 0..10u64 {
            let input = random_instance(seed, 5, 3);
            let fine = DpScheduler::with_delta(0.001).plan(&input);
            let coarse = DpScheduler::with_delta(0.1).plan(&input);
            assert!(
                input.plan_utility(&fine) + 1e-9 >= input.plan_utility(&coarse),
                "seed {seed}: finer δ lost"
            );
            // …but the coarse plan must be much cheaper to compute on
            // frontier-heavy instances (work is monotone in frontier size).
            assert!(coarse.work <= fine.work);
        }
    }

    #[test]
    fn respects_model_availability() {
        let input = ScheduleInput {
            now: at(0),
            availability: vec![at(90), at(0)],
            latencies: vec![ms(10), ms(10)],
            queries: vec![query(0, 50, vec![0.0, 0.8, 0.8, 1.0])],
        };
        let plan = DpScheduler::default().plan(&input);
        // Model 0 is busy until 90 > deadline 50; only model 1 is usable.
        assert_eq!(plan.assignments[0], ModelSet::singleton(1));
    }

    #[test]
    fn empty_buffer_is_fine() {
        let input =
            ScheduleInput { now: at(0), availability: vec![], latencies: vec![], queries: vec![] };
        let plan = DpScheduler::default().plan(&input);
        assert_eq!(plan.assignments.len(), 0);
    }

    #[test]
    fn impossible_deadlines_schedule_nothing() {
        let input = ScheduleInput {
            now: at(100),
            availability: vec![at(100)],
            latencies: vec![ms(50)],
            queries: vec![query(0, 120, vec![0.0, 1.0])],
        };
        let plan = DpScheduler::default().plan(&input);
        assert!(plan.assignments[0].is_empty());
    }

    #[test]
    fn matches_reference_on_deterministic_sweep() {
        // Differential check over a seed sweep covering several shapes and
        // both paper-range and extreme δ values.
        for seed in 0..40u64 {
            for &(n, m) in &[(1usize, 1usize), (3, 2), (5, 3), (8, 4), (6, 5)] {
                let input = random_instance(seed, n, m);
                for delta in [0.01, 0.1, 0.001] {
                    let sched = DpScheduler { delta, ..DpScheduler::default() };
                    assert_eq!(
                        sched.plan(&input),
                        reference::plan(&sched, &input),
                        "seed {seed} n {n} m {m} δ {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference_under_tight_frontier_and_query_caps() {
        // Caps change which nodes survive; the tie-breaking rules must still
        // agree exactly.
        for seed in 0..25u64 {
            let input = random_instance(seed, 7, 3);
            for (max_frontier, max_queries) in [(1, 24), (2, 24), (5, 4), (64, 2), (3, 1)] {
                let sched = DpScheduler { delta: 0.05, max_frontier, max_queries };
                assert_eq!(
                    sched.plan(&input),
                    reference::plan(&sched, &input),
                    "seed {seed} cap {max_frontier} max_q {max_queries}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The scratch-based DP is byte-identical to the reference on random
        /// instances: assignments, order and `work` all match. Half the cases
        /// use plateau rows, where subsets and supersets tie after
        /// quantization and the subset-dominance filter does most work.
        #[test]
        fn differential_plan_equality(
            seed in 0u64..10_000,
            n in 1usize..=8,
            m in 1usize..=8,
            delta_idx in 0usize..4,
            max_frontier in 1usize..=64,
            plateaus in any::<bool>(),
        ) {
            let delta = [0.01, 0.05, 0.001, 0.2][delta_idx];
            let input =
                if plateaus { plateau_instance(seed, n, m) } else { random_instance(seed, n, m) };
            let sched = DpScheduler { delta, max_frontier, max_queries: 24 };
            let fast = sched.plan(&input);
            let slow = reference::plan(&sched, &input);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn matches_reference_on_profiled_cifar6_rows() {
        // The rows the serving engine actually plans with: a fitted
        // `AccuracyProfile` of the 6-model CIFAR zoo, one row per score bin.
        use crate::discrepancy::{DifficultyMetric, DiscrepancyScorer};
        use crate::profiling::AccuracyProfile;
        use schemble_models::{zoo, DifficultyDist, SampleGenerator};

        let ens = zoo::cifar_zoo(6, 42);
        let history = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 42).batch(0, 400);
        let scorer = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &history);
        let profile = AccuracyProfile::fit(&ens, &history, &scores, AccuracyProfile::DEFAULT_BINS);
        let bins = profile.bins();
        let latencies = ens.planned_latencies();
        let mut rows_with_plateaus = 0;
        for b in 0..bins {
            let row = profile.utility_vector((b as f64 + 0.5) / bins as f64);
            let plateau = ModelSet::all_nonempty(6).any(|s| {
                s.len() > 1 && s.iter().any(|k| row[s.without(k).0 as usize] >= row[s.0 as usize])
            });
            rows_with_plateaus += usize::from(plateau);
        }
        assert!(rows_with_plateaus > 0, "expected subset/superset plateaus in the fitted rows");
        for seed in 0..12u64 {
            use rand::Rng;
            let mut rng = schemble_sim::rng::stream_rng(seed, "cifar6-rows");
            let n = rng.random_range(1..=8usize);
            let queries = (0..n as u64)
                .map(|id| BufferedQuery {
                    id,
                    arrival: at(id),
                    deadline: at(rng.random_range(30..160)),
                    utilities: profile.utility_vector(rng.random_range(0.0..1.0)),
                    score: 0.5,
                })
                .collect();
            let input = ScheduleInput {
                now: at(0),
                availability: (0..6).map(|_| at(rng.random_range(0..20))).collect(),
                latencies: latencies.clone(),
                queries,
            };
            for delta in [0.01, 0.05, 0.001] {
                let sched = DpScheduler { delta, ..DpScheduler::default() };
                assert_eq!(
                    sched.plan(&input),
                    reference::plan(&sched, &input),
                    "seed {seed} n {n} δ {delta}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_leaks_no_state() {
        // Two consecutive plans through ONE scratch must equal two plans
        // through fresh scratches, for differently-shaped inputs in both
        // orders (shrinking and growing n and m across calls).
        let sched = DpScheduler::default();
        let inputs: Vec<ScheduleInput> = vec![
            random_instance(3, 8, 4),
            random_instance(9, 2, 6),
            random_instance(1, 5, 1),
            random_instance(7, 1, 3),
        ];
        let mut shared = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i..] {
                for input in [a, b, a] {
                    sched.plan_into(input, &mut shared, &mut out);
                    let mut fresh = SchedScratch::new();
                    let mut fresh_out = SchedulePlan::empty(0);
                    sched.plan_into(input, &mut fresh, &mut fresh_out);
                    assert_eq!(out, fresh_out, "scratch state leaked between plans");
                }
            }
        }
    }

    #[test]
    fn invalid_delta_falls_back_to_default() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sched = DpScheduler { delta: bad, ..DpScheduler::default() };
            assert_eq!(sched.effective_delta(), DpScheduler::default().delta, "delta {bad}");
        }
        let sched = DpScheduler { delta: 0.25, ..DpScheduler::default() };
        assert_eq!(sched.effective_delta(), 0.25);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "delta must be positive and finite")]
    fn invalid_delta_asserts_in_debug_builds() {
        let sched = DpScheduler { delta: 0.0, ..DpScheduler::default() };
        let _ = sched.plan(&random_instance(0, 2, 2));
    }

    #[test]
    fn steady_state_stats_are_reproducible() {
        // Same input through a warm scratch yields the same counters — the
        // property bench_dp's CI gate relies on.
        let sched = DpScheduler::default();
        let input = random_instance(11, 6, 3);
        let mut scratch = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        sched.plan_into(&input, &mut scratch, &mut out);
        let first = scratch.stats();
        assert!(first.nodes_expanded > 0 && first.nodes_kept > 0);
        sched.plan_into(&input, &mut scratch, &mut out);
        assert_eq!(scratch.stats(), first);
    }

    /// Instances whose rows stress the subset-dominance filter: rewards
    /// drawn from a coarse grid (jittered by less than the coarser δs) so
    /// subsets and supersets often land in one quantization cell, exact
    /// plateaus copied up from a subset, and — for half the queries — no
    /// monotone repair, so a superset may be worth less than its subsets.
    /// Model start times are staggered to mix in start-time infeasibility.
    fn plateau_instance(seed: u64, n: usize, m: usize) -> ScheduleInput {
        use rand::Rng;
        const LEVELS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let mut rng = schemble_sim::rng::stream_rng(seed, "sched-plateaus");
        let latencies: Vec<SimDuration> = (0..m).map(|_| ms(rng.random_range(5..40))).collect();
        let availability = (0..m).map(|_| at(rng.random_range(0..30))).collect();
        let queries = (0..n as u64)
            .map(|id| {
                let monotone = rng.random_bool(0.5);
                let mut utilities = vec![0.0f64; 1 << m];
                for set in ModelSet::all_nonempty(m) {
                    let mask = set.0 as usize;
                    utilities[mask] = if set.len() > 1 && rng.random_bool(0.3) {
                        let k = set.iter().nth(rng.random_range(0..set.len())).expect("member");
                        utilities[set.without(k).0 as usize]
                    } else {
                        LEVELS[rng.random_range(0..LEVELS.len())] + rng.random_range(0.0..0.004)
                    };
                    if monotone {
                        for k in set.iter() {
                            utilities[mask] =
                                utilities[mask].max(utilities[set.without(k).0 as usize]);
                        }
                    }
                }
                query(id, rng.random_range(20..120), utilities)
            })
            .collect();
        ScheduleInput { now: at(0), availability, latencies, queries }
    }

    /// Deterministic pseudo-random small instance generator for tests.
    pub(crate) fn random_instance(seed: u64, n: usize, m: usize) -> ScheduleInput {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(seed, "sched-instance");
        let latencies: Vec<SimDuration> = (0..m).map(|_| ms(rng.random_range(5..40))).collect();
        let queries = (0..n as u64)
            .map(|id| {
                // Random monotone utility vector.
                let mut utilities = vec![0.0; 1 << m];
                for set in ModelSet::all_nonempty(m) {
                    let base: f64 = set
                        .iter()
                        .map(|k| 0.3 + 0.2 * (k as f64) + rng.random_range(0.0..0.1))
                        .fold(0.0, f64::max);
                    utilities[set.0 as usize] = (base + 0.08 * set.len() as f64).min(1.0);
                }
                // Monotone repair.
                let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
                masks.sort_by_key(|s| s.count_ones());
                for &mask in &masks {
                    let set = ModelSet(mask);
                    for k in set.iter() {
                        let sub = set.without(k);
                        if !sub.is_empty() {
                            utilities[mask as usize] =
                                utilities[mask as usize].max(utilities[sub.0 as usize]);
                        }
                    }
                }
                query(id, rng.random_range(20..120), utilities)
            })
            .collect();
        ScheduleInput { now: at(0), availability: vec![at(0); m], latencies, queries }
    }
}
