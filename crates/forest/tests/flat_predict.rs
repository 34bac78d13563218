//! Predict-side suites for the flat kernel, the batch and column predict
//! path of every forest (run by `cargo xtask fast`).
//!
//! The flat layout's contract (DESIGN.md §14): per-tree leaf values are
//! **bitwise identical** to the scalar tree walk
//! ([`RegressionTree::predict_at`](pwu_forest::RegressionTree::predict_at)),
//! the fit mode picks only the ensemble fold (`fold_lanes`: serial tree
//! order for Exact, accumulator lanes for Fast), and every result is a pure
//! function of the inputs — byte-identical across pool widths and the
//! schedule sanitizer's deal orders. The oracles here are scalar: per-tree
//! `predict_at` values folded by `fold_lanes`.

use rand::Rng;

use pwu_forest::forest::Prediction;
use pwu_forest::{fold_lanes, FitMode, ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// Mixed numeric/categorical dataset (same shape as the fit-side suite's:
/// counting column, continuous column, categorical column).
fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.gen_range(0..6) as f64;
        let b = rng.next_f64() * 10.0;
        let c = rng.gen_range(0..5) as f64;
        y.push(2.0 * a + 0.7 * b + if c >= 3.0 { 4.0 } else { 0.0 } + 0.5 * rng.next_f64());
        rows.push(vec![a, b, c]);
    }
    let kinds = vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical { n_categories: 5 },
    ];
    let x = FeatureMatrix::from_rows(3, &rows);
    (x, kinds, y)
}

/// A 24-column dataset, wider than the kernel's 16-feature narrow stride,
/// so batches go through its wide row records. Every fourth column is
/// categorical.
fn wide_dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>) {
    const D: usize = 24;
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..D)
                .map(|j| {
                    if j % 4 == 0 {
                        rng.gen_range(0..4) as f64
                    } else {
                        rng.next_f64() * 10.0
                    }
                })
                .collect()
        })
        .collect();
    let y = rows
        .iter()
        .map(|r| 2.0 * r[0] + r[5] + 0.3 * r[17] * r[23] + 0.5 * rng.next_f64())
        .collect();
    let kinds = (0..D)
        .map(|j| {
            if j % 4 == 0 {
                FeatureKind::Categorical { n_categories: 4 }
            } else {
                FeatureKind::Numeric
            }
        })
        .collect();
    (FeatureMatrix::from_rows(D, &rows), kinds, y)
}

fn fast_config() -> ForestConfig {
    ForestConfig {
        n_trees: 30,
        fit_mode: FitMode::Fast,
        ..ForestConfig::default()
    }
}

fn batch_bits(preds: &[Prediction]) -> Vec<(u64, u64)> {
    preds.iter().map(|p| (p.mean.to_bits(), p.std.to_bits())).collect()
}

fn mean_bits(means: &[f64]) -> Vec<u64> {
    means.iter().map(|m| m.to_bits()).collect()
}

/// The entries of `all` at `idx`, in `idx` order.
fn pick<T: Copy>(all: &[T], idx: &[usize]) -> Vec<T> {
    idx.iter().map(|&i| all[i]).collect()
}

fn columns_bits(cols: &[Vec<f64>]) -> Vec<Vec<u64>> {
    cols.iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Per-tree columns straight from the scalar tree walk: the oracle every
/// flat-kernel result is checked against.
fn scalar_columns(forest: &RandomForest, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
    tree_idx
        .iter()
        .map(|&t| {
            (0..x.n_rows())
                .map(|i| forest.trees()[t].predict_at(x, i))
                .collect()
        })
        .collect()
}

/// `predict_batch`'s expected output: each row's scalar per-tree values
/// folded by the forest's fit mode through `fold_lanes`.
fn folded_oracle(forest: &RandomForest, x: &FeatureMatrix) -> Vec<(u64, u64)> {
    let all: Vec<usize> = (0..forest.trees().len()).collect();
    let cols = scalar_columns(forest, x, &all);
    let n = cols.len() as f64;
    (0..x.n_rows())
        .map(|i| {
            let (sum, sum_sq) = fold_lanes(forest.config().fit_mode, cols.iter().map(|c| c[i]));
            let mean = sum / n;
            let std = (sum_sq / n - mean * mean).max(0.0).sqrt();
            (mean.to_bits(), std.to_bits())
        })
        .collect()
}

/// Per-tree leaf values through the flat layout are bit-identical to the
/// scalar tree walk in both fit modes — over full ensembles, subsets, and
/// odd-sized tree groups.
#[test]
fn flat_columns_match_scalar_tree_predictions_bitwise() {
    for seed in [1u64, 2, 3] {
        let (x, kinds, y) = dataset(350, seed);
        let (pool, _, _) = dataset(700, 40 + seed);
        let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, seed);
        let exact_cfg = ForestConfig {
            fit_mode: FitMode::Exact,
            ..fast_config()
        };
        let exact = RandomForest::fit(&exact_cfg, &kinds, &x, &y, seed);
        for forest in [&fast, &exact] {
            let all: Vec<usize> = (0..forest.trees().len()).collect();
            for idx in [&all[..], &all[..1], &all[3..10], &all[5..11]] {
                assert_eq!(
                    columns_bits(&forest.predict_columns(&pool, idx)),
                    columns_bits(&scalar_columns(forest, &pool, idx)),
                    "seed {seed}, {:?}: flat columns diverged from predict_at on {idx:?}",
                    forest.config().fit_mode
                );
            }
        }
    }
}

/// Batch predictions are the fit mode's fold over the scalar per-tree
/// values, bitwise: Fast folds through accumulator lanes, Exact folds in
/// tree order. The lane fold must also differ from the serial fold in its
/// last ulps on at least one pool row, else the two folds are not both
/// being exercised and the equivalence suites are vacuous.
#[test]
fn predict_batch_is_the_fit_modes_fold_of_scalar_tree_values() {
    let mut any_diff = false;
    for seed in [7u64, 8, 9] {
        let (x, kinds, y) = dataset(350, seed);
        let (pool, _, _) = dataset(700, 50 + seed);
        let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, seed);
        let lanes = batch_bits(&fast.predict_batch(&pool));
        assert_eq!(lanes, folded_oracle(&fast, &pool), "seed {seed}: Fast fold");
        let serial_forest = fast.with_fit_mode(FitMode::Exact);
        let serial = batch_bits(&serial_forest.predict_batch(&pool));
        assert_eq!(
            serial,
            folded_oracle(&serial_forest, &pool),
            "seed {seed}: Exact fold"
        );
        any_diff |= lanes != serial;
        // Means agree with the full predictions' means in both folds.
        let fast = serial_forest.clone().with_fit_mode(FitMode::Fast);
        for (forest, preds) in [(&serial_forest, &serial), (&fast, &lanes)] {
            let means: Vec<u64> = forest
                .predict_batch_mean(&pool)
                .iter()
                .map(|m| m.to_bits())
                .collect();
            assert_eq!(means, preds.iter().map(|&(m, _)| m).collect::<Vec<_>>());
        }
    }
    assert!(
        any_diff,
        "the lane fold never diverged from the serial fold"
    );
}

/// `with_fit_mode` changes only the fold: the trees and the per-tree
/// columns stay bitwise untouched in both directions, the batch
/// predictions follow the new mode's fold, and round-tripping the mode
/// restores the original predictions bit for bit.
#[test]
fn with_fit_mode_changes_only_the_fold() {
    let (x, kinds, y) = dataset(300, 21);
    let (pool, _, _) = dataset(500, 22);
    let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, 5);
    let all: Vec<usize> = (0..fast.trees().len()).collect();
    let cols = columns_bits(&fast.predict_columns(&pool, &all));
    let fast_preds = batch_bits(&fast.predict_batch(&pool));

    let demoted = fast.clone().with_fit_mode(FitMode::Exact);
    assert_eq!(demoted.config().fit_mode, FitMode::Exact);
    // `Debug` prints every node with round-trip float formatting, so equal
    // text means structurally and bitwise equal trees.
    assert_eq!(
        format!("{:?}", demoted.trees()),
        format!("{:?}", fast.trees()),
        "with_fit_mode changed the trees"
    );
    assert_eq!(columns_bits(&demoted.predict_columns(&pool, &all)), cols);
    assert_eq!(
        batch_bits(&demoted.predict_batch(&pool)),
        folded_oracle(&demoted, &pool)
    );

    let promoted = demoted.with_fit_mode(FitMode::Fast);
    assert_eq!(columns_bits(&promoted.predict_columns(&pool, &all)), cols);
    assert_eq!(
        batch_bits(&promoted.predict_batch(&pool)),
        fast_preds,
        "round-tripping the fit mode must restore the lane fold bitwise"
    );
}

/// Row independence, the property pwu-core's elite-slice evaluation rests
/// on: in both fit modes and both row-record strides, the three batch
/// predictors return for a gathered subset of rows exactly the bits the
/// full batch returns for those rows. The subsets are scattered and
/// unsorted across 16-row blocks and 512-row chunks, a single row, and
/// every other row in reverse (a subset spanning two chunks of its own).
#[test]
fn batch_predictions_of_gathered_rows_equal_the_full_batch_rows_bitwise() {
    let scattered = vec![
        1099, 0, 511, 512, 15, 16, 17, 1023, 1024, 700, 31, 513, 300, 1098,
    ];
    let single = vec![777];
    let alternate: Vec<usize> = (0..1100).rev().step_by(2).collect();
    let narrow = (dataset(300, 71), dataset(1100, 72).0);
    let wide = (wide_dataset(300, 73), wide_dataset(1100, 74).0);
    assert!(narrow.1.n_cols() <= 16 && wide.1.n_cols() > 16);
    for ((x, kinds, y), pool) in [narrow, wide] {
        for fit_mode in [FitMode::Exact, FitMode::Fast] {
            let config = ForestConfig {
                fit_mode,
                ..fast_config()
            };
            let forest = RandomForest::fit(&config, &kinds, &x, &y, 11);
            let full = batch_bits(&forest.predict_batch(&pool));
            let full_mean = mean_bits(&forest.predict_batch_mean(&pool));
            let full_tv = batch_bits(&forest.predict_batch_total_variance(&pool));
            for idx in [&scattered, &single, &alternate] {
                let rows: Vec<Vec<f64>> = idx.iter().map(|&i| pool.row(i)).collect();
                let subset = FeatureMatrix::from_rows(pool.n_cols(), &rows);
                let context = format!("{fit_mode:?}, {} cols, {} rows", pool.n_cols(), idx.len());
                assert_eq!(
                    batch_bits(&forest.predict_batch(&subset)),
                    pick(&full, idx),
                    "predict_batch: {context}"
                );
                assert_eq!(
                    mean_bits(&forest.predict_batch_mean(&subset)),
                    pick(&full_mean, idx),
                    "predict_batch_mean: {context}"
                );
                assert_eq!(
                    batch_bits(&forest.predict_batch_total_variance(&subset)),
                    pick(&full_tv, idx),
                    "predict_batch_total_variance: {context}"
                );
            }
        }
    }
}

/// Fast batch total-variance agrees with the fast `predict_batch` on the
/// mean and dominates its across-tree σ (law of total variance). The exact
/// side is pinned bitwise against the scalar call in `predict_tails`.
#[test]
fn fast_batch_total_variance_matches_its_contract() {
    let (x, kinds, y) = dataset(300, 41);
    let (pool, _, _) = dataset(400, 42);
    let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, 3);
    let tv = fast.predict_batch_total_variance(&pool);
    let mu = fast.predict_batch(&pool);
    for (i, (t, m)) in tv.iter().zip(&mu).enumerate() {
        assert_eq!(
            t.mean.to_bits(),
            m.mean.to_bits(),
            "row {i}: total-variance fold changed the mean"
        );
        assert!(
            t.std + 1e-12 >= m.std,
            "row {i}: total variance {} below across-tree variance {}",
            t.std,
            m.std
        );
    }
}

/// Fast batch prediction and column scoring are width-invariant: the
/// `PWU_THREADS` pool width must never leak into a single bit of the
/// scored pool.
#[test]
fn fast_mode_predict_is_width_invariant() {
    let (x, kinds, y) = dataset(300, 51);
    let (pool, _, _) = dataset(1200, 52);
    let forest = RandomForest::fit(&fast_config(), &kinds, &x, &y, 9);
    let all: Vec<usize> = (0..forest.trees().len()).collect();
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    let base_batch = batch_bits(&forest.predict_batch(&pool));
    let base_cols = columns_bits(&forest.predict_columns(&pool, &all));
    let base_tv = batch_bits(&forest.predict_batch_total_variance(&pool));
    for width in [2usize, 4, 8] {
        rayon::set_threads(width);
        assert_eq!(
            batch_bits(&forest.predict_batch(&pool)),
            base_batch,
            "predict_batch drifted at width {width}"
        );
        assert_eq!(
            columns_bits(&forest.predict_columns(&pool, &all)),
            base_cols,
            "predict_columns drifted at width {width}"
        );
        assert_eq!(
            batch_bits(&forest.predict_batch_total_variance(&pool)),
            base_tv,
            "predict_batch_total_variance drifted at width {width}"
        );
    }
    rayon::set_threads(before);
}

/// Fast pool scoring must be byte-identical across every deal-order
/// perturbation of the schedule sanitizer × pool width — the schedule must
/// not be observable through the predict side either (mirror of the
/// fit-side `fast_fit_is_deal_order_invariant`).
#[test]
fn fast_mode_predict_is_deal_order_invariant() {
    use rayon::sanitize::DealMode;
    let (x, kinds, y) = dataset(300, 61);
    let (pool, _, _) = dataset(1100, 62);
    let forest = RandomForest::fit(&fast_config(), &kinds, &x, &y, 17);
    let all: Vec<usize> = (0..forest.trees().len()).collect();
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    let base_batch = batch_bits(&forest.predict_batch(&pool));
    let base_cols = columns_bits(&forest.predict_columns(&pool, &all));
    for deal in [
        DealMode::RoundRobin,
        DealMode::Blocked,
        DealMode::Reversed,
        DealMode::Shuffled(0xF1A7),
    ] {
        for width in [1usize, 2, 4, 8] {
            rayon::set_threads(width);
            rayon::sanitize::set_deal_mode(deal);
            assert_eq!(
                batch_bits(&forest.predict_batch(&pool)),
                base_batch,
                "predict_batch drifted at width {width} under {deal:?}"
            );
            assert_eq!(
                columns_bits(&forest.predict_columns(&pool, &all)),
                base_cols,
                "predict_columns drifted at width {width} under {deal:?}"
            );
        }
    }
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    rayon::set_threads(before);
}
