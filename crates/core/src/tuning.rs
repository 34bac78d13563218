//! Model-based performance tuning (the Fig 8 case study).
//!
//! The paper's demonstration: once a surrogate model exists, thousands of
//! "annotations" become free — the tuner can treat the model's prediction as
//! the observation instead of executing the program. Fig 8 compares two
//! tuning loops on atax:
//!
//! - **direct** ("true annotator"): every selected configuration is executed
//!   and its measured time feeds the search model;
//! - **surrogate**: the selected configuration is "annotated" by a
//!   previously built surrogate model at negligible cost.
//!
//! Both loops report, at every step, the true execution time of the best
//! configuration selected so far, so the curves are directly comparable.

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, TuningTarget};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::annotator::{AnnotationFailure, Annotator, MeasurementStats};

/// How selected configurations are labeled during tuning.
pub enum TuningAnnotator<'a> {
    /// Execute the program (measured, noisy, expensive).
    True {
        /// Measurement repeats per annotation.
        repeats: usize,
    },
    /// Ask a pre-built surrogate model (free).
    Surrogate(&'a RandomForest),
}

/// The trajectory of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningTrajectory {
    /// True (noise-free) execution time of the incumbent after each
    /// evaluation, starting with the cold-start incumbents.
    pub best_true: Vec<f64>,
    /// The configurations chosen at each step.
    pub chosen: Vec<Configuration>,
    /// Candidates excluded up front because the target's static analysis
    /// marked them [`ConfigLegality::Illegal`].
    pub excluded_illegal: usize,
    /// Surviving candidates the analysis marked
    /// [`ConfigLegality::Flagged`] (searchable, but counted).
    pub flagged: usize,
    /// Candidates whose annotation failed during the search; they were
    /// removed from the candidate set without consuming a tuning step.
    pub quarantined: Vec<Configuration>,
    /// Measurement tally of the true annotator (all zeros for surrogate
    /// tuning, which never executes the program).
    pub measurement: MeasurementStats,
}

/// Runs greedy model-based tuning over a fixed candidate set.
///
/// Iteration: fit a forest to the labeled archive, select the un-evaluated
/// candidate with the smallest predicted time, label it via `annotator`,
/// append, repeat. The returned trajectory records the *true* time of the
/// best-so-far selection, independent of how labels were produced.
///
/// Candidates the target's [`TuningTarget::lint_config`] marks
/// [`ConfigLegality::Illegal`] are excluded before the search starts;
/// [`ConfigLegality::Flagged`] candidates stay searchable but are counted
/// on the trajectory.
///
/// Candidates whose annotation fails (compile failure, retry budget
/// exhausted) are quarantined without consuming a cold-start slot or a
/// tuning step; the search re-selects among the survivors, so the run
/// completes under injected measurement faults.
///
/// Each search model, once fitted, and a surrogate annotator's model
/// predict all candidates in one [`RandomForest::predict_batch_mean`] call;
/// for a [`FitMode::Exact`](pwu_forest::FitMode::Exact) forest that is
/// bitwise the scalar [`RandomForest::predict_one_at`] mean.
///
/// # Panics
/// Panics if fewer than `n_init + n_iters` legal candidates remain after
/// excluding illegal ones, or if every candidate fails annotation during
/// the cold start.
#[must_use]
pub fn model_based_tuning(
    target: &dyn TuningTarget,
    candidates: &[Configuration],
    annotator: &TuningAnnotator<'_>,
    n_init: usize,
    n_iters: usize,
    forest: &ForestConfig,
    seed: u64,
) -> TuningTrajectory {
    let mut flagged = 0usize;
    let legal: Vec<usize> = (0..candidates.len())
        .filter(|&i| match target.lint_config(&candidates[i]) {
            ConfigLegality::Legal => true,
            ConfigLegality::Flagged => {
                flagged += 1;
                true
            }
            ConfigLegality::Illegal => false,
        })
        .collect();
    let excluded_illegal = candidates.len() - legal.len();
    assert!(
        legal.len() >= n_init + n_iters,
        "{} legal candidates ({} excluded as illegal) cannot supply {} evaluations",
        legal.len(),
        excluded_illegal,
        n_init + n_iters
    );
    let schema = FeatureSchema::for_space(target.space());
    let kinds = schema.kinds();
    // Encode every candidate once: the archive copies rows out of the flat
    // matrix, and each model predicts all of it in one batch.
    let cand_features = schema.encode_matrix(target.space(), candidates);
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, 0));
    let mut true_annotator = Annotator::new(
        target,
        match annotator {
            TuningAnnotator::True { repeats } => *repeats,
            TuningAnnotator::Surrogate(_) => 1,
        },
        derive_seed(seed, 1),
    );

    let mut remaining: Vec<usize> = legal;
    let mut features = FeatureMatrix::new(cand_features.n_cols());
    let mut labels: Vec<f64> = Vec::new();
    let mut chosen = Vec::new();
    let mut best_true = Vec::new();
    let mut quarantined: Vec<Configuration> = Vec::new();
    let mut incumbent = f64::INFINITY;

    let surrogate_labels = match annotator {
        TuningAnnotator::True { .. } => Vec::new(),
        TuningAnnotator::Surrogate(model) => model.predict_batch_mean(&cand_features),
    };
    let label_of = |cfg: &Configuration,
                    idx: usize,
                    true_annotator: &mut Annotator<'_>|
     -> Result<f64, AnnotationFailure> {
        match annotator {
            TuningAnnotator::True { .. } => true_annotator.try_evaluate(cfg),
            TuningAnnotator::Surrogate(_) => Ok(surrogate_labels[idx]),
        }
    };

    // Cold start: random candidates. A failed annotation quarantines the
    // candidate without counting toward n_init.
    let mut cold = 0usize;
    while cold < n_init && !remaining.is_empty() {
        let pick = (rng.next() % remaining.len() as u64) as usize;
        let idx = remaining.swap_remove(pick);
        let cfg = &candidates[idx];
        match label_of(cfg, idx, &mut true_annotator) {
            Ok(y) => {
                incumbent = incumbent.min(target.ideal_time(cfg));
                best_true.push(incumbent);
                features.push_row(&cand_features.row(idx));
                labels.push(y);
                chosen.push(cfg.clone());
                cold += 1;
            }
            Err(_) => quarantined.push(cfg.clone()),
        }
    }
    assert!(
        !labels.is_empty(),
        "every candidate failed annotation during the cold start"
    );

    // Iteration phase: a quarantined candidate does not consume a tuning
    // step — the same model greedily re-selects among the survivors.
    let mut it = 0usize;
    while it < n_iters && !remaining.is_empty() {
        let model = RandomForest::fit(
            forest,
            kinds,
            &features,
            &labels,
            derive_seed(seed, 100 + it as u64),
        );
        // A quarantine re-selects with the same model, so one batch serves
        // every pick until the next fit.
        let predicted = model.predict_batch_mean(&cand_features);
        while !remaining.is_empty() {
            // Greedy: smallest predicted time among the un-evaluated
            // candidates. `total_cmp` keeps a degenerate model's non-finite
            // predictions sorted after every finite one instead of
            // panicking, so the search degrades rather than dies.
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &idx)| (pos, predicted[idx]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("candidates remain");
            let idx = remaining.swap_remove(pos);
            let cfg = &candidates[idx];
            match label_of(cfg, idx, &mut true_annotator) {
                Ok(y) => {
                    incumbent = incumbent.min(target.ideal_time(cfg));
                    best_true.push(incumbent);
                    features.push_row(&cand_features.row(idx));
                    labels.push(y);
                    chosen.push(cfg.clone());
                    it += 1;
                    break;
                }
                Err(_) => quarantined.push(cfg.clone()),
            }
        }
    }

    TuningTrajectory {
        best_true,
        chosen,
        excluded_illegal,
        flagged,
        quarantined,
        measurement: *true_annotator.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_space::{Param, ParamSpace};

    struct Bowl {
        space: ParamSpace,
    }

    impl Bowl {
        fn new() -> Self {
            Self {
                space: ParamSpace::new(
                    "bowl",
                    vec![
                        Param::ordinal("a", (0..20).map(f64::from).collect::<Vec<_>>()),
                        Param::ordinal("b", (0..20).map(f64::from).collect::<Vec<_>>()),
                    ],
                ),
            }
        }
    }

    impl TuningTarget for Bowl {
        fn name(&self) -> &str {
            "bowl"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            let a = f64::from(cfg.level(0));
            let b = f64::from(cfg.level(1));
            1.0 + 0.01 * ((a - 13.0).powi(2) + (b - 6.0).powi(2))
        }
    }

    fn forest16() -> ForestConfig {
        ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn trajectory_is_monotone_and_improves() {
        let target = Bowl::new();
        let mut rng = Xoshiro256PlusPlus::new(0);
        let candidates = target.space().sample_distinct(200, &mut rng);
        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::True { repeats: 1 },
            8,
            40,
            &forest16(),
            5,
        );
        assert_eq!(traj.best_true.len(), 48);
        assert!(traj.best_true.windows(2).all(|w| w[1] <= w[0]));
        // Model-based search should land near the optimum (1.0).
        let last = *traj.best_true.last().unwrap();
        let random_expectation = traj.best_true[7];
        assert!(last <= random_expectation);
        assert!(last < 1.3, "tuned to {last}");
    }

    #[test]
    fn surrogate_annotator_never_calls_the_target() {
        let target = Bowl::new();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let candidates = target.space().sample_distinct(300, &mut rng);
        // Build a surrogate from a random sample.
        let schema = FeatureSchema::for_space(target.space());
        let train = target.space().sample_distinct(150, &mut rng);
        let x = schema.encode_matrix(target.space(), &train);
        let y: Vec<f64> = train.iter().map(|c| target.ideal_time(c)).collect();
        let surrogate = RandomForest::fit(&forest16(), schema.kinds(), &x, &y, 3);

        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::Surrogate(&surrogate),
            8,
            40,
            &forest16(),
            7,
        );
        // A good surrogate still finds a near-optimal configuration.
        assert!(
            *traj.best_true.last().unwrap() < 1.5,
            "surrogate tuning reached {}",
            traj.best_true.last().unwrap()
        );
    }

    /// A bowl whose static analysis forbids half the space: every
    /// configuration with `a < 10` is Illegal, and `a == 10` is Flagged.
    /// The true optimum (a = 13) stays legal, so tuning still works.
    struct LintedBowl(Bowl);

    impl TuningTarget for LintedBowl {
        fn name(&self) -> &str {
            "linted-bowl"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            self.0.ideal_time(cfg)
        }
        fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
            match cfg.level(0) {
                0..=9 => ConfigLegality::Illegal,
                10 => ConfigLegality::Flagged,
                _ => ConfigLegality::Legal,
            }
        }
    }

    #[test]
    fn tuning_excludes_illegal_candidates_end_to_end() {
        let target = LintedBowl(Bowl::new());
        let mut rng = Xoshiro256PlusPlus::new(11);
        let candidates = target.space().sample_distinct(250, &mut rng);
        let n_illegal = candidates
            .iter()
            .filter(|c| target.lint_config(c) == ConfigLegality::Illegal)
            .count();
        let n_flagged = candidates
            .iter()
            .filter(|c| target.lint_config(c) == ConfigLegality::Flagged)
            .count();
        assert!(n_illegal > 0, "sample must contain illegal points");
        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::True { repeats: 1 },
            8,
            30,
            &forest16(),
            13,
        );
        assert_eq!(traj.excluded_illegal, n_illegal);
        assert_eq!(traj.flagged, n_flagged);
        assert!(
            traj.chosen
                .iter()
                .all(|c| target.lint_config(c) != ConfigLegality::Illegal),
            "no evaluated configuration may be illegal"
        );
        // The legal region still contains the optimum; tuning finds it.
        assert!(*traj.best_true.last().unwrap() < 1.5);
    }

    /// A bowl where every configuration with `a == 13` — the column holding
    /// the optimum — permanently fails to compile.
    struct BrokenBowl(Bowl);

    impl TuningTarget for BrokenBowl {
        fn name(&self) -> &str {
            "broken-bowl"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            self.0.ideal_time(cfg)
        }
        fn try_measure(
            &self,
            cfg: &Configuration,
            _rng: &mut Xoshiro256PlusPlus,
        ) -> pwu_space::MeasureOutcome {
            if cfg.level(0) == 13 {
                pwu_space::MeasureOutcome::Failed {
                    kind: pwu_space::FailureKind::Compile,
                    cost: 0.2,
                }
            } else {
                pwu_space::MeasureOutcome::Ok(self.0.ideal_time(cfg))
            }
        }
    }

    #[test]
    fn failed_candidates_are_quarantined_without_consuming_steps() {
        let target = BrokenBowl(Bowl::new());
        let mut rng = Xoshiro256PlusPlus::new(19);
        let candidates = target.space().sample_distinct(200, &mut rng);
        let n_broken = candidates.iter().filter(|c| c.level(0) == 13).count();
        assert!(n_broken > 0, "sample must contain broken points");
        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::True { repeats: 1 },
            8,
            30,
            &forest16(),
            23,
        );
        // Quarantine does not consume cold-start slots or tuning steps:
        // the trajectory still has its full length.
        assert_eq!(traj.best_true.len(), 38);
        assert!(
            !traj.quarantined.is_empty(),
            "the search must have tried the broken optimum column"
        );
        assert!(traj.chosen.iter().all(|c| c.level(0) != 13));
        assert!(traj.quarantined.iter().all(|c| c.level(0) == 13));
        assert_eq!(
            traj.measurement.compile_failures,
            traj.quarantined.len(),
            "one compile attempt per quarantined candidate"
        );
        assert!(traj.measurement.wasted_cost > 0.0);
    }

    /// A bowl whose timer returns NaN for part of the space: the annotator
    /// must intercept the garbage (the forest rejects non-finite labels at
    /// fit, so a single leaked NaN would abort the whole search).
    struct NanBowl(Bowl);

    impl TuningTarget for NanBowl {
        fn name(&self) -> &str {
            "nan-bowl"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            self.0.ideal_time(cfg)
        }
        fn measure(&self, cfg: &Configuration, _rng: &mut Xoshiro256PlusPlus) -> f64 {
            if cfg.level(1) == 3 {
                f64::NAN
            } else {
                self.0.ideal_time(cfg)
            }
        }
    }

    #[test]
    fn nan_readings_never_reach_the_search_model() {
        let target = NanBowl(Bowl::new());
        let mut rng = Xoshiro256PlusPlus::new(29);
        let candidates = target.space().sample_distinct(200, &mut rng);
        assert!(candidates.iter().any(|c| c.level(1) == 3));
        // Would panic inside RandomForest::fit ("targets must be finite")
        // if a NaN label leaked through the annotator.
        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::True { repeats: 2 },
            8,
            25,
            &forest16(),
            31,
        );
        assert!(traj.chosen.iter().all(|c| c.level(1) != 3));
        assert!(traj.quarantined.iter().all(|c| c.level(1) == 3));
        assert!(traj.measurement.bad_readings > 0);
        assert!(traj.best_true.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn chosen_configurations_are_distinct() {
        let target = Bowl::new();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let candidates = target.space().sample_distinct(100, &mut rng);
        let traj = model_based_tuning(
            &target,
            &candidates,
            &TuningAnnotator::True { repeats: 1 },
            5,
            25,
            &forest16(),
            9,
        );
        let set: std::collections::HashSet<_> = traj.chosen.iter().collect();
        assert_eq!(set.len(), traj.chosen.len());
    }
}
