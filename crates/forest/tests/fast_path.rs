//! Fast-engine suites (run by `cargo xtask fast`).
//!
//! These prove the fast engine's determinism contract — pure function of
//! the seed, byte-identical across pool widths and the schedule
//! sanitizer's deal orders — plus its statistical closeness to the exact
//! engine and bitwise *non*-equivalence (the suite would be vacuous if
//! `Fast` silently ran the exact engine).

use rand::Rng;

use pwu_forest::{FitMode, ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// A mixed dataset exercising all three fast-engine column searches: a
/// low-cardinality numeric column (counting-sort search), a continuous
/// column with > 256 distinct values (the stable per-node sort), and a
/// categorical column.
fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.gen_range(0..6) as f64;
        let b = rng.next_f64() * 10.0;
        let c = rng.gen_range(0..4) as f64;
        y.push(2.0 * a + 0.7 * b + if c == 2.0 { 3.0 } else { 0.0 } + 0.5 * rng.next_f64());
        rows.push(vec![a, b, c]);
    }
    let kinds = vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical { n_categories: 4 },
    ];
    let x = FeatureMatrix::from_rows(3, &rows);
    (x, kinds, y, rows)
}

fn fast_config() -> ForestConfig {
    ForestConfig {
        n_trees: 32,
        fit_mode: FitMode::Fast,
        ..ForestConfig::default()
    }
}

fn prediction_bits(forest: &RandomForest, rows: &[Vec<f64>]) -> Vec<(u64, u64)> {
    rows.iter()
        .map(|r| {
            let p = forest.predict_one(r);
            (p.mean.to_bits(), p.std.to_bits())
        })
        .collect()
}

#[test]
fn fast_fit_is_a_pure_function_of_the_seed() {
    let (x, kinds, y, rows) = dataset(400, 11);
    let a = RandomForest::fit(&fast_config(), &kinds, &x, &y, 7);
    let b = RandomForest::fit(&fast_config(), &kinds, &x, &y, 7);
    let c = RandomForest::fit(&fast_config(), &kinds, &x, &y, 8);
    assert_eq!(prediction_bits(&a, &rows), prediction_bits(&b, &rows));
    assert_ne!(prediction_bits(&a, &rows), prediction_bits(&c, &rows));
}

#[test]
fn fast_fit_is_width_invariant() {
    let (x, kinds, y, rows) = dataset(400, 12);
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    let baseline = prediction_bits(&RandomForest::fit(&fast_config(), &kinds, &x, &y, 5), &rows);
    let baseline_leaf_var = RandomForest::fit(&fast_config(), &kinds, &x, &y, 5)
        .mean_leaf_variance()
        .to_bits();
    for width in [2, 4, 8] {
        rayon::set_threads(width);
        let f = RandomForest::fit(&fast_config(), &kinds, &x, &y, 5);
        assert_eq!(
            prediction_bits(&f, &rows),
            baseline,
            "fast fit drifted at width {width}"
        );
        assert_eq!(
            f.mean_leaf_variance().to_bits(),
            baseline_leaf_var,
            "leaf-variance reduction drifted at width {width}"
        );
    }
    rayon::set_threads(before);
}

#[test]
fn fast_fit_predictions_are_statistically_close_to_exact() {
    // The fast engine must model the same surface: across-engine prediction
    // RMSE small relative to the target spread, and ensembles comparably
    // pure (mean leaf variance in the same ballpark).
    let (x, kinds, y, rows) = dataset(500, 14);
    let exact_cfg = ForestConfig {
        n_trees: 32,
        ..ForestConfig::default()
    };
    let exact = RandomForest::fit(&exact_cfg, &kinds, &x, &y, 3);
    let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, 3);
    let n = rows.len() as f64;
    let mean_y = y.iter().sum::<f64>() / n;
    let std_y = (y.iter().map(|v| (v - mean_y).powi(2)).sum::<f64>() / n).sqrt();
    let mse = rows
        .iter()
        .map(|r| (exact.predict(r) - fast.predict(r)).powi(2))
        .sum::<f64>()
        / n;
    let rel = mse.sqrt() / std_y;
    assert!(rel < 0.10, "engines disagree: relative RMSE {rel}");

    let (lv_exact, lv_fast) = (exact.mean_leaf_variance(), fast.mean_leaf_variance());
    assert!(
        lv_fast <= 2.0 * lv_exact + 1e-9 && lv_exact <= 2.0 * lv_fast + 1e-9,
        "leaf purity diverged: exact {lv_exact} vs fast {lv_fast}"
    );
}

#[test]
fn fast_engine_is_not_the_exact_engine_bitwise() {
    // Non-vacuity: the statistical suite would prove nothing if Fast
    // silently ran the exact engine. The engines fold target sums in
    // different orders (bucket/rank order vs historical tie order), so the
    // recorded split gains must differ in their last ulps on at least one
    // split across a few seeds — even when every argmax (and therefore
    // every prediction) happens to agree.
    let mut any_diff = false;
    for seed in 0..5 {
        let (x, kinds, y, _) = dataset(400, 20 + seed);
        let exact_cfg = ForestConfig {
            n_trees: 32,
            ..ForestConfig::default()
        };
        let exact = RandomForest::fit(&exact_cfg, &kinds, &x, &y, seed);
        let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, seed);
        let gain_bits = |f: &RandomForest| -> Vec<Vec<(u32, u64)>> {
            f.trees()
                .iter()
                .map(|t| {
                    t.split_gains()
                        .iter()
                        .map(|&(f, g)| (f, g.to_bits()))
                        .collect()
                })
                .collect()
        };
        any_diff |= gain_bits(&exact) != gain_bits(&fast);
    }
    assert!(
        any_diff,
        "fast engine produced bitwise-exact gains on every seed"
    );
}

/// A fast fit must be byte-identical across every deal-order perturbation
/// of the schedule sanitizer × pool width (the schedule must not be
/// observable through the fast engine either).
#[test]
fn fast_fit_is_deal_order_invariant() {
    use rayon::sanitize::DealMode;
    let (x, kinds, y, rows) = dataset(300, 15);
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    let baseline = prediction_bits(&RandomForest::fit(&fast_config(), &kinds, &x, &y, 9), &rows);
    for deal in [
        DealMode::RoundRobin,
        DealMode::Blocked,
        DealMode::Reversed,
        DealMode::Shuffled(0xA0D17),
    ] {
        for width in [1, 2, 4, 8] {
            rayon::set_threads(width);
            rayon::sanitize::set_deal_mode(deal);
            let f = RandomForest::fit(&fast_config(), &kinds, &x, &y, 9);
            assert_eq!(
                prediction_bits(&f, &rows),
                baseline,
                "fast fit drifted at width {width} under {deal:?}"
            );
        }
    }
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    rayon::set_threads(before);
}
