//! Result scoring against the full ensemble's output (§VIII: "we refer to
//! results from the original deep ensemble as the ground truth").

use schemble_models::{Ensemble, Output, Sample, TaskSpec};

/// Scores a returned result for one query.
///
/// Returns `(correct, score)` where `score` is what accumulates into the
/// accuracy/mAP columns: plain 0/1 agreement for classification and
/// regression, average precision (1/rank of the reference's top candidate)
/// for retrieval.
///
/// `known` holds base-model outputs on `sample` the caller already has,
/// sorted by model index (`&[]` for none); the reference reuses them and
/// infers only the missing models, which gives the same bits as full
/// re-inference (see [`Ensemble::ensemble_output_reusing`]).
pub fn evaluate(
    ensemble: &Ensemble,
    sample: &Sample,
    known: &[(usize, Output)],
    result: &Output,
) -> (bool, f64) {
    let reference = ensemble.ensemble_output_reusing(sample, known);
    let correct = result.agrees_with(&reference, &ensemble.spec);
    let score = match ensemble.spec {
        TaskSpec::Retrieval { .. } => {
            let relevant = reference.predicted_class();
            1.0 / result.rank_of(relevant) as f64
        }
        _ => {
            if correct {
                1.0
            } else {
                0.0
            }
        }
    };
    (correct, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_models::zoo;
    use schemble_models::{Aggregator, DifficultyDist, ModelSet, SampleGenerator};

    #[test]
    fn full_ensemble_result_scores_perfectly() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        for s in gen.batch(0, 50) {
            let result = ens.ensemble_output(&s);
            let (correct, score) = evaluate(&ens, &s, &[], &result);
            assert!(correct);
            assert_eq!(score, 1.0);
        }
    }

    #[test]
    fn retrieval_scores_by_reciprocal_rank() {
        let ens = zoo::image_retrieval(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let mut saw_partial = false;
        for s in gen.batch(0, 300) {
            let result = ens.subset_output(&s, ModelSet::singleton(0));
            let (correct, score) = evaluate(&ens, &s, &[], &result);
            assert!((0.0..=1.0).contains(&score));
            if correct {
                assert_eq!(score, 1.0, "top-1 agreement means rank 1");
            } else if score > 0.0 {
                saw_partial = true;
                assert!(score < 1.0);
            }
        }
        assert!(saw_partial, "expected some partial-credit retrieval results");
    }

    #[test]
    fn reusing_outputs_scores_like_full_reinference() {
        // Voting and weighted classification, 100-class weighted averaging,
        // retrieval, and regression under both aggregators.
        let voting = |ens: Ensemble| Ensemble { aggregator: Aggregator::Voting, ..ens };
        let ensembles = [
            zoo::text_matching(1),
            voting(zoo::text_matching(1)),
            zoo::cifar_zoo(6, 42),
            zoo::image_retrieval(1),
            zoo::vehicle_counting(1),
            voting(zoo::vehicle_counting(1)),
        ];
        for ens in &ensembles {
            let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 9);
            for s in gen.batch(0, 12) {
                for set in ModelSet::all_nonempty(ens.m()) {
                    let known = ens.infer_subset(&s, set);
                    let result = ens.subset_output(&s, set);
                    let (reused_ok, reused) = evaluate(ens, &s, &known, &result);
                    let (full_ok, full) = evaluate(ens, &s, &[], &result);
                    assert_eq!(reused_ok, full_ok, "sample {} set {set}", s.id);
                    assert_eq!(reused.to_bits(), full.to_bits(), "sample {} set {set}", s.id);
                }
            }
        }
    }

    #[test]
    fn regression_tolerance_is_respected() {
        let ens = zoo::vehicle_counting(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Fixed(0.05), 5);
        let mut correct_count = 0;
        let samples = gen.batch(0, 200);
        for s in &samples {
            let result = ens.subset_output(&s.clone(), ModelSet::full(3));
            let (correct, score) = evaluate(&ens, s, &[], &result);
            assert!(correct && score == 1.0);
            correct_count += 1;
        }
        assert_eq!(correct_count, 200);
    }
}
