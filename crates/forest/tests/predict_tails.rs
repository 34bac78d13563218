//! Tail handling in the flat batch predictors.
//!
//! `predict_batch`/`predict_batch_mean` and `predict_columns` descend every
//! tree through the flat layout in blocks of rows, over fixed-stride row
//! records (a narrow stride up to 16 features, a wide one up to 64). These tests pin the exact-mode contract
//! for every `n_trees % 4` residue — including the degenerate 1-tree
//! forest — at widths on both strides, with a pool that ends mid-block and
//! crosses a chunk boundary, by comparing each batch path bitwise against
//! its scalar oracle.

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// Feature widths under test: the narrow stride, two on the wide stride
/// (36 is the widest built-in SPAPT kernel), and the wide stride's limit.
const WIDTHS: [usize; 4] = [5, 20, 36, 64];

/// Tree counts covering every residue mod 4, plus the 1-tree forest.
const TREE_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];

fn dataset(
    n: usize,
    d: usize,
    seed: u64,
) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.next_f64() * 8.0).collect();
        y.push(row.iter().sum::<f64>() + rng.next_f64());
        rows.push(row);
    }
    let x = FeatureMatrix::from_rows(d, &rows);
    (x, vec![FeatureKind::Numeric; d], y, rows)
}

/// An exact forest of `n_trees` over `d` features, plus a 530-row pool (one
/// full 512-row chunk and a tail that ends mid-block) in both layouts.
fn forest_with(n_trees: usize, d: usize) -> (RandomForest, FeatureMatrix, Vec<Vec<f64>>) {
    let (x, kinds, y, _) = dataset(120, d, 40 + n_trees as u64);
    let (pool, _, _, rows) = dataset(530, d, 90 + d as u64);
    let config = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    (RandomForest::fit(&config, &kinds, &x, &y, 17), pool, rows)
}

/// Every residue class mod 4, plus the 1-tree forest, at every width: the
/// flat batch traversal must be bit-identical to per-row `predict_one`.
#[test]
fn predict_batch_matches_predict_one_for_every_tail_width() {
    for d in WIDTHS {
        for n_trees in TREE_COUNTS {
            let (forest, x, rows) = forest_with(n_trees, d);
            let batch = forest.predict_batch(&x);
            assert_eq!(batch.len(), rows.len());
            for (row, p) in rows.iter().zip(&batch) {
                let q = forest.predict_one(row);
                assert_eq!(
                    (p.mean.to_bits(), p.std.to_bits()),
                    (q.mean.to_bits(), q.std.to_bits()),
                    "batch prediction drifted with {n_trees} trees, width {d}"
                );
            }
            let means = forest.predict_batch_mean(&x);
            for (row, m) in rows.iter().zip(&means) {
                assert_eq!(m.to_bits(), forest.predict(row).to_bits());
            }
        }
    }
}

/// Column scoring must reproduce each requested tree's own `predict`
/// bitwise, for any subset and order of trees, on both strides.
#[test]
fn predict_columns_tail_groups_match_single_tree_predictions() {
    for d in [5, 36] {
        let (forest, x, rows) = forest_with(7, d);
        for tree_idx in [
            vec![0],
            vec![0, 1, 2, 3, 4],
            vec![6, 2, 5],
            (0..7).collect::<Vec<_>>(),
        ] {
            let cols = forest.predict_columns(&x, &tree_idx);
            assert_eq!(cols.len(), tree_idx.len());
            for (k, &t) in tree_idx.iter().enumerate() {
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        cols[k][i].to_bits(),
                        forest.trees()[t].predict(row).to_bits(),
                        "column for tree {t} drifted (trees {tree_idx:?}, width {d})"
                    );
                }
            }
        }
    }
}

/// A 1-tree forest's summary statistics: the ensemble std must be exactly
/// zero (one sample has no spread) and the mean must be that tree's output.
#[test]
fn one_tree_forest_prediction_is_the_tree_prediction() {
    let (forest, x, rows) = forest_with(1, 5);
    let batch = forest.predict_batch(&x);
    for (row, p) in rows.iter().zip(&batch) {
        assert_eq!(p.mean.to_bits(), forest.trees()[0].predict(row).to_bits());
        assert_eq!(p.std, 0.0, "single-tree ensemble must report zero spread");
    }
}

/// One feature past the flat kernel's widest stride is rejected at fit
/// time with a documented panic, not predicted through a fallback kernel.
#[test]
#[should_panic(expected = "exceeds the flat predict kernel's 64-feature stride")]
fn fit_rejects_spaces_wider_than_the_flat_stride() {
    let (x, kinds, y, _) = dataset(40, 65, 3);
    let _ = RandomForest::fit(&ForestConfig::default(), &kinds, &x, &y, 1);
}
