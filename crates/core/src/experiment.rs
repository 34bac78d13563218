//! The paper's experimental protocol (Section III-D).
//!
//! Per repetition: sample 10 000 distinct configurations from the space,
//! split 7000 into the pool and 3000 into the test set, measure the test
//! labels in advance, then run Algorithm 1 once per strategy on identical
//! pools. Ten repetitions are averaged.

use rayon::prelude::*;

use pwu_space::{FeatureMatrix, FeatureSchema, Pool, PoolLintCounts, TuningTarget};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::active::{self, ActiveConfig, SelectionTrace};
use crate::annotator::{Annotator, MeasurementStats};
use crate::strategy::Strategy;

/// Protocol parameters.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Size of the surrogate sample of the space (paper: 10 000).
    pub surrogate_size: usize,
    /// Pool size (paper: 7000); the rest becomes the test set.
    pub pool_size: usize,
    /// Active-learning settings (`n_init`, `n_batch`, `n_max`, forest, alphas).
    pub active: ActiveConfig,
    /// Number of averaged repetitions (paper: 10).
    pub n_reps: usize,
}

impl Protocol {
    /// The paper-scale protocol at the given α (expensive: 500 refits × 6
    /// strategies × 10 repetitions per benchmark).
    #[must_use]
    pub fn paper(alpha: f64) -> Self {
        Self {
            surrogate_size: 10_000,
            pool_size: 7_000,
            active: ActiveConfig {
                alphas: vec![alpha],
                ..ActiveConfig::default()
            },
            n_reps: 10,
        }
    }

    /// A reduced protocol with the same structure, sized for a laptop-class
    /// single-core run (used by the default benches and `--quick` figures).
    #[must_use]
    pub fn quick(alpha: f64) -> Self {
        Self {
            surrogate_size: 1_500,
            pool_size: 1_000,
            active: ActiveConfig {
                n_init: 10,
                n_batch: 1,
                n_max: 120,
                forest: pwu_forest::ForestConfig {
                    n_trees: 32,
                    ..pwu_forest::ForestConfig::default()
                },
                eval_every: 5,
                alphas: vec![alpha],
                repeats: 5,
                ..ActiveConfig::default()
            },
            n_reps: 3,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on inconsistent sizes.
    pub fn validate(&self) {
        assert!(
            self.pool_size < self.surrogate_size,
            "pool must leave room for a test set"
        );
        assert!(
            self.active.n_max <= self.pool_size,
            "n_max exceeds the pool"
        );
        assert!(self.n_reps > 0, "need at least one repetition");
        self.active.validate();
    }
}

/// Averaged learning curves of one strategy.
#[derive(Debug, Clone)]
pub struct StrategyCurve {
    /// The strategy.
    pub strategy: Strategy,
    /// Training-set sizes at each snapshot (x-axis of Figs 2 and 4a).
    pub n_train: Vec<usize>,
    /// Mean RMSE@α per snapshot, one inner vector per α in
    /// [`ActiveConfig::alphas`].
    pub rmse: Vec<Vec<f64>>,
    /// Mean cumulative cost per snapshot (Figs 3 and 4b).
    pub cumulative_cost: Vec<f64>,
    /// Selection traces (μ, σ, y) from the first repetition (Fig 9).
    pub selections: Vec<SelectionTrace>,
    /// Final-model (μ, σ) predictions over the test set from the first
    /// repetition — the background scatter of Fig 9.
    pub test_scatter: Vec<(f64, f64)>,
    /// Measurement tally merged across repetitions (failures, retries,
    /// wasted wall-clock) for this strategy's training annotations.
    pub measurement: MeasurementStats,
    /// Configurations quarantined across repetitions for this strategy.
    pub quarantined: usize,
}

/// All strategies' averaged curves on one benchmark.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Benchmark name.
    pub target: String,
    /// The α grid of the RMSE curves.
    pub alphas: Vec<f64>,
    /// One curve per strategy.
    pub curves: Vec<StrategyCurve>,
    /// Static-analysis verdict counts over the first repetition's pool
    /// (illegal points are removed inside each run before learning).
    pub pool_lint: PoolLintCounts,
    /// Measurement tally of the test-set labeling, merged across
    /// repetitions.
    pub test_measurement: MeasurementStats,
    /// Test configurations dropped across repetitions because their
    /// labeling failed (they are excluded from the RMSE evaluation).
    pub dropped_test_configs: usize,
}

impl ExperimentResult {
    /// The curve of a strategy by display name.
    #[must_use]
    pub fn curve(&self, name: &str) -> Option<&StrategyCurve> {
        self.curves.iter().find(|c| c.strategy.name() == name)
    }
}

/// Runs the full protocol for `strategies` on `target`.
///
/// Every repetition draws a fresh surrogate sample and test labels; within a
/// repetition all strategies see identical pools and test sets. Repetitions
/// fan out over the `PWU_THREADS` work pool (see the `rayon` shim); each
/// repetition derives its own seeds, so results are identical at any width.
#[must_use]
pub fn run_experiment(
    target: &dyn TuningTarget,
    strategies: &[Strategy],
    protocol: &Protocol,
    seed: u64,
) -> ExperimentResult {
    protocol.validate();
    let schema = FeatureSchema::for_space(target.space());

    /// One repetition's outputs.
    struct Rep {
        runs: Vec<active::ActiveRun>,
        test_features: FeatureMatrix,
        pool_lint: PoolLintCounts,
        test_measurement: MeasurementStats,
        dropped_test: usize,
    }

    let reps: Vec<Rep> = (0..protocol.n_reps)
        .into_par_iter()
        .map(|rep| {
            let rep_seed = derive_seed(seed, rep as u64);
            let mut rng = Xoshiro256PlusPlus::new(derive_seed(rep_seed, 100));
            let all = target
                .space()
                .sample_distinct(protocol.surrogate_size, &mut rng);
            let (pool_cfgs, test_cfgs) = all.split_at(protocol.pool_size);
            // Pre-warm the target's evaluation cache for the test set: the
            // labeling below measures every test configuration `repeats`
            // times, and batching the base costs up front lets a memoizing
            // target (the SPAPT kernels) compute each once, fanned out over
            // the thread pool. The strategies never measure the test set
            // again: their runs evaluate it through the model only. Pool
            // configurations are deliberately not pre-warmed — most are
            // never measured, so eager base costs would be wasted work; the
            // memo's reuse across strategies comes from configurations
            // several strategies select (lint verdicts are not memoized).
            // Targets without a cache just evaluate sequentially; either way
            // the labels below are bit-identical.
            let _ = target.ideal_times(test_cfgs);
            let mut test_annotator =
                Annotator::new(target, protocol.active.repeats, derive_seed(rep_seed, 101));
            // Label the test set up front; configurations whose measurement
            // fails permanently are dropped from the held-out evaluation
            // (with faults disabled every label succeeds and the features
            // and labels are bit-identical to the infallible path).
            let mut kept_cfgs = Vec::with_capacity(test_cfgs.len());
            let mut test_labels = Vec::with_capacity(test_cfgs.len());
            for cfg in test_cfgs {
                if let Ok(label) = test_annotator.try_evaluate(cfg) {
                    kept_cfgs.push(cfg.clone());
                    test_labels.push(label);
                }
            }
            let dropped_test = test_cfgs.len() - kept_cfgs.len();
            let test_features = schema.encode_matrix(target.space(), &kept_cfgs);
            let pool_lint = PoolLintCounts::tally(target, pool_cfgs);

            let runs = strategies
                .iter()
                .map(|&strategy| {
                    let pool = Pool::new(target.space(), &schema, pool_cfgs.to_vec());
                    active::run(
                        target,
                        strategy,
                        &protocol.active,
                        pool,
                        &test_features,
                        &test_labels,
                        derive_seed(rep_seed, 200),
                    )
                })
                .collect();
            Rep {
                runs,
                test_features,
                pool_lint,
                test_measurement: *test_annotator.stats(),
                dropped_test,
            }
        })
        .collect();

    // Average snapshots across repetitions.
    let n_alphas = protocol.active.alphas.len();
    let curves = strategies
        .iter()
        .enumerate()
        .map(|(si, &strategy)| {
            let n_snapshots = reps
                .iter()
                .map(|rep| rep.runs[si].history.len())
                .min()
                .expect("at least one repetition");
            let n_train = reps[0].runs[si].history[..n_snapshots]
                .iter()
                .map(|s| s.n_train)
                .collect();
            let mut rmse = vec![vec![0.0; n_snapshots]; n_alphas];
            let mut cc = vec![0.0; n_snapshots];
            let mut measurement = MeasurementStats::default();
            let mut quarantined = 0;
            for rep in &reps {
                let run = &rep.runs[si];
                measurement.merge(&run.measurement);
                quarantined += run.quarantined.len();
                for (t, snap) in run.history[..n_snapshots].iter().enumerate() {
                    cc[t] += snap.cumulative_cost / protocol.n_reps as f64;
                    for (a, &r) in snap.rmse.iter().enumerate() {
                        rmse[a][t] += r / protocol.n_reps as f64;
                    }
                }
            }
            let first = &reps[0].runs[si];
            let first_test_features = &reps[0].test_features;
            // The final model's (μ, σ) over held-out configurations — the
            // background scatter of Fig 9.
            let test_scatter = first
                .model
                .predict_batch(first_test_features)
                .into_iter()
                .map(|p| (p.mean, p.std))
                .collect();
            StrategyCurve {
                strategy,
                n_train,
                rmse,
                cumulative_cost: cc,
                selections: first.selections.clone(),
                test_scatter,
                measurement,
                quarantined,
            }
        })
        .collect();

    let mut test_measurement = MeasurementStats::default();
    let mut dropped_test_configs = 0;
    for rep in &reps {
        test_measurement.merge(&rep.test_measurement);
        dropped_test_configs += rep.dropped_test;
    }

    ExperimentResult {
        target: target.name().to_string(),
        alphas: protocol.active.alphas.clone(),
        curves,
        pool_lint: reps[0].pool_lint,
        test_measurement,
        dropped_test_configs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_space::{Configuration, Param, ParamSpace};

    struct Synthetic {
        space: ParamSpace,
    }

    impl Synthetic {
        fn new() -> Self {
            Self {
                space: ParamSpace::new(
                    "synthetic",
                    vec![
                        Param::ordinal("a", (0..16).map(f64::from).collect::<Vec<_>>()),
                        Param::ordinal("b", (0..16).map(f64::from).collect::<Vec<_>>()),
                        Param::categorical("c", ["p", "q", "r"]),
                    ],
                ),
            }
        }
    }

    impl TuningTarget for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            let a = f64::from(cfg.level(0));
            let b = f64::from(cfg.level(1));
            let c = f64::from(cfg.level(2));
            0.05 + 0.002 * (a - 11.0).powi(2) + 0.004 * (b - 4.0).powi(2) + 0.03 * c
        }
    }

    fn tiny_protocol() -> Protocol {
        Protocol {
            surrogate_size: 260,
            pool_size: 200,
            active: ActiveConfig {
                n_init: 8,
                n_batch: 1,
                n_max: 40,
                forest: pwu_forest::ForestConfig {
                    n_trees: 16,
                    ..pwu_forest::ForestConfig::default()
                },
                eval_every: 8,
                alphas: vec![0.05, 0.10],
                repeats: 1,
                ..ActiveConfig::default()
            },
            n_reps: 2,
        }
    }

    #[test]
    fn experiment_produces_aligned_averaged_curves() {
        let target = Synthetic::new();
        let strategies = [Strategy::Pwu { alpha: 0.05 }, Strategy::Uniform];
        let result = run_experiment(&target, &strategies, &tiny_protocol(), 1);
        assert_eq!(result.curves.len(), 2);
        assert_eq!(result.alphas, vec![0.05, 0.10]);
        for c in &result.curves {
            assert_eq!(c.rmse.len(), 2, "one rmse series per alpha");
            assert_eq!(c.rmse[0].len(), c.n_train.len());
            assert_eq!(c.cumulative_cost.len(), c.n_train.len());
            assert!(c.cumulative_cost.windows(2).all(|w| w[0] <= w[1]));
            assert!(c.rmse[0].iter().all(|r| r.is_finite()));
        }
        assert!(result.curve("PWU").is_some());
        assert!(result.curve("Uniform").is_some());
        assert!(result.curve("PBUS").is_none());
        // The default target lints everything Legal; the tally covers the
        // whole pool.
        assert_eq!(result.pool_lint.total(), 200);
        assert_eq!(result.pool_lint.legal, 200);
        // The synthetic target never faults: no test configuration is
        // dropped, nothing is quarantined, and no failure is tallied.
        assert_eq!(result.dropped_test_configs, 0);
        assert_eq!(result.test_measurement.total_failures(), 0);
        assert_eq!(result.test_measurement.annotations, 2 * 60);
        for c in &result.curves {
            assert_eq!(c.quarantined, 0);
            assert_eq!(c.measurement.total_failures(), 0);
            assert!(c.measurement.annotations > 0);
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let target = Synthetic::new();
        let strategies = [Strategy::Pwu { alpha: 0.05 }];
        let a = run_experiment(&target, &strategies, &tiny_protocol(), 9);
        let b = run_experiment(&target, &strategies, &tiny_protocol(), 9);
        assert_eq!(a.curves[0].rmse, b.curves[0].rmse);
        assert_eq!(a.curves[0].cumulative_cost, b.curves[0].cumulative_cost);
    }

    #[test]
    fn learning_beats_cold_start_on_average() {
        let target = Synthetic::new();
        let strategies = [Strategy::Pwu { alpha: 0.05 }];
        let result = run_experiment(&target, &strategies, &tiny_protocol(), 3);
        let curve = &result.curves[0];
        let first = curve.rmse[0][0];
        let last = *curve.rmse[0].last().unwrap();
        assert!(last < first, "elite RMSE {first} → {last}");
    }
}
