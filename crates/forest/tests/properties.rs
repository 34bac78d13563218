//! Property-based tests for the random forest.

use proptest::prelude::*;
use pwu_forest::{ForestConfig, Mtry, RandomForest};
use pwu_space::FeatureKind;

/// Random small regression problem: n rows, d numeric features, targets from
/// an arbitrary but finite generator.
fn arb_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..5, 4usize..40).prop_flat_map(|(d, n)| {
        (
            prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d..=d), n..=n),
            prop::collection::vec(-1000.0f64..1000.0, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn predictions_bounded_by_training_targets((x, y) in arb_problem(), seed in 0u64..100) {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds, &x, &y, seed);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for xi in &x {
            let p = forest.predict_one(xi);
            prop_assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9,
                "prediction {} outside [{lo}, {hi}]", p.mean);
            prop_assert!(p.std.is_finite() && p.std >= 0.0);
        }
    }

    #[test]
    fn uncertainty_bounded_by_target_spread((x, y) in arb_problem(), seed in 0u64..100) {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds, &x, &y, seed);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let spread = hi - lo;
        for xi in x.iter().take(8) {
            // Tree predictions all lie in [lo, hi]; their std can't exceed
            // half the range.
            prop_assert!(forest.predict_one(xi).std <= spread / 2.0 + 1e-9);
        }
    }

    #[test]
    fn determinism_across_refits((x, y) in arb_problem(), seed in 0u64..100) {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let f1 = RandomForest::fit_rows(&ForestConfig::default(), &kinds, &x, &y, seed);
        let f2 = RandomForest::fit_rows(&ForestConfig::default(), &kinds, &x, &y, seed);
        for xi in x.iter().take(8) {
            prop_assert_eq!(f1.predict_one(xi).mean, f2.predict_one(xi).mean);
            prop_assert_eq!(f1.predict_one(xi).std, f2.predict_one(xi).std);
        }
    }

    #[test]
    fn unseen_rows_get_finite_predictions((x, y) in arb_problem(), seed in 0u64..100) {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds, &x, &y, seed);
        // Probe far outside the training box.
        let probe: Vec<f64> = vec![1e9; x[0].len()];
        let p = forest.predict_one(&probe);
        prop_assert!(p.mean.is_finite() && p.std.is_finite());
    }

    #[test]
    fn categorical_codes_route_without_panic(
        n_cat in 2usize..8,
        n in 8usize..40,
        seed in 0u64..100,
    ) {
        // One categorical + one numeric column.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % n_cat) as f64, (i / n_cat) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 7.0 + r[1]).collect();
        let kinds = vec![
            FeatureKind::Categorical { n_categories: n_cat },
            FeatureKind::Numeric,
        ];
        let cfg = ForestConfig { mtry: Mtry::All, ..ForestConfig::default() };
        let forest = RandomForest::fit_rows(&cfg, &kinds, &x, &y, seed);
        for c in 0..n_cat {
            let p = forest.predict(&[c as f64, 0.0]);
            prop_assert!(p.is_finite());
        }
    }
}
