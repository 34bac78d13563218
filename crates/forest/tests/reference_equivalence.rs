//! Bit-identity of the overhauled fit path against the preserved
//! historical implementation (`pwu_forest::reference`).
//!
//! The overhaul (flat column-major features, integer-key node sorts,
//! in-place partitioning, iterative growth, single-pass leaf statistics)
//! must not change a single split decision: both paths consume the RNG
//! identically, sort ties into the same permutation, and evaluate the same
//! candidate gains, so per-seed forests must agree tree by tree, node count
//! by node count, prediction bit by bit.

use pwu_forest::{reference, ForestConfig, Mtry, RandomForest, RegressionTree};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// Mixed numeric/categorical data with measurement-style noise and
/// deliberate duplicate feature values (tie stress).
fn noisy_problem(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<FeatureKind>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut kinds = vec![FeatureKind::Numeric; d];
    kinds[d - 1] = FeatureKind::Categorical { n_categories: 5 };
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(d);
        for f in 0..d - 1 {
            // Few distinct levels per column → many ties within nodes.
            let levels = 4 + f;
            row.push((rng.next() as usize % levels) as f64 * 0.5);
        }
        let cat = rng.next() % 5;
        row.push(cat as f64);
        let signal: f64 = row
            .iter()
            .enumerate()
            .map(|(f, v)| v * (1.0 + f as f64 * 0.3))
            .sum();
        y.push(signal + 0.05 * rng.next_f64());
        x.push(row);
    }
    (x, y, kinds)
}

/// Integer-valued targets: every partial sum is exact, so equality is
/// guaranteed analytically, not just empirically.
fn exact_problem(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<FeatureKind>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..d).map(|f| ((i * (f + 3)) % (5 + f)) as f64).collect();
        y.push(((i * 7) % 23) as f64);
        x.push(row);
    }
    (x, y, vec![FeatureKind::Numeric; d])
}

/// Every tree of `forest` against the arena the reference grew for it:
/// node and leaf counts, split gains, and for every training row the leaf
/// it lands on. Every leaf holds at least one training row, so the rows
/// reach every leaf. Then the ensemble prediction of every probe against
/// the historical fold.
fn assert_matches_arenas(
    forest: &RandomForest,
    arenas: &[reference::Tree],
    rows: &[Vec<f64>],
    probes: &[Vec<f64>],
) {
    assert_eq!(forest.trees().len(), arenas.len());
    for (t, (tree, arena)) in forest.trees().iter().zip(arenas).enumerate() {
        assert_tree_matches_arena(tree, arena, rows, &format!("tree {t}"));
    }
    for p in probes {
        let pa = forest.predict_one(p);
        let pb = reference::predict_one(arenas, p);
        assert_eq!(pa.mean.to_bits(), pb.mean.to_bits());
        assert_eq!(pa.std.to_bits(), pb.std.to_bits());
    }
}

fn assert_tree_matches_arena(
    tree: &RegressionTree,
    arena: &reference::Tree,
    rows: &[Vec<f64>],
    context: &str,
) {
    assert_eq!(tree.n_nodes(), arena.n_nodes(), "node count, {context}");
    assert_eq!(tree.n_leaves(), arena.n_leaves(), "leaf count, {context}");
    let bits = |gains: &[(u32, f64)]| -> Vec<(u32, u64)> {
        gains.iter().map(|&(f, g)| (f, g.to_bits())).collect()
    };
    assert_eq!(
        bits(tree.split_gains()),
        bits(arena.split_gains()),
        "split gains, {context}"
    );
    // Leaf means and counts agree bitwise. Leaf variances agree to
    // rounding: the reference keeps its historical two-pass variance, the
    // growth loop a single-pass one (`tree::leaf_stats`), so the last ulps
    // of an impure leaf differ. The flat tree's variance bits are held to
    // its own growth arena by the `pwu-forest` unit tests.
    for (i, row) in rows.iter().enumerate() {
        let (p, q) = (tree.predict_leaf(row), arena.predict_leaf(row));
        assert_eq!(
            (p.mean.to_bits(), p.count),
            (q.mean.to_bits(), q.count),
            "leaf of row {i}, {context}"
        );
        assert!(
            (p.variance - q.variance).abs() <= 1e-12 * q.variance.max(1.0),
            "leaf variance of row {i}, {context}: {} vs {}",
            p.variance,
            q.variance
        );
    }
}

fn configs() -> Vec<ForestConfig> {
    vec![
        ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        },
        ForestConfig {
            n_trees: 16,
            mtry: Mtry::All,
            min_leaf: 3,
            min_split: 6,
            ..ForestConfig::default()
        },
        ForestConfig {
            n_trees: 16,
            mtry: Mtry::Sqrt,
            max_depth: Some(4),
            ..ForestConfig::default()
        },
        ForestConfig {
            n_trees: 8,
            bootstrap: false,
            ..ForestConfig::default()
        },
    ]
}

#[test]
fn fit_matches_reference_on_noisy_data() {
    let (x, y, kinds) = noisy_problem(300, 8, 0xA11CE);
    let m = FeatureMatrix::from_rows(kinds.len(), &x);
    for config in configs() {
        for seed in [1u64, 99, 12345] {
            let fast = RandomForest::fit(&config, &kinds, &m, &y, seed);
            let slow = reference::fit_arenas(&config, &kinds, &x, &y, seed);
            assert_matches_arenas(&fast, &slow, &x, &x[..24]);
        }
    }
}

#[test]
fn fit_matches_reference_on_exact_integer_data() {
    let (x, y, kinds) = exact_problem(256, 6);
    let m = FeatureMatrix::from_rows(kinds.len(), &x);
    for config in configs() {
        let fast = RandomForest::fit(&config, &kinds, &m, &y, 7);
        let slow = reference::fit_arenas(&config, &kinds, &x, &y, 7);
        assert_matches_arenas(&fast, &slow, &x, &x[..32]);
    }
}

/// The reference's compiled forest is the optimized fit's, tree for tree:
/// both paths grow the same arenas and compile them the same way.
#[test]
fn compiled_reference_fit_predicts_as_the_optimized_fit() {
    let (x, y, kinds) = noisy_problem(200, 5, 0xC0DE);
    let m = FeatureMatrix::from_rows(kinds.len(), &x);
    let config = ForestConfig {
        n_trees: 12,
        ..ForestConfig::default()
    };
    let fast = RandomForest::fit(&config, &kinds, &m, &y, 5);
    let slow = reference::fit(&config, &kinds, &x, &y, 5);
    let bits = |f: &RandomForest| -> Vec<(u64, u64)> {
        f.predict_batch(&m)
            .iter()
            .map(|p| (p.mean.to_bits(), p.std.to_bits()))
            .collect()
    };
    assert_eq!(bits(&fast), bits(&slow));
}

/// A 70-column exact tree from `RegressionTree::fit` against the arena the
/// reference grows: columns 64 and up are binary and informative, so they
/// are split on and then found constant in descendants.
#[test]
fn tree_past_64_columns_matches_reference_leaf_for_leaf() {
    const D: usize = 70;
    let mut rng = Xoshiro256PlusPlus::new(70);
    let rows: Vec<Vec<f64>> = (0..240)
        .map(|_| {
            (0..D)
                .map(|f| {
                    let levels = if f >= 64 { 2 } else { 3 + (f as u64 % 5) };
                    (rng.next() % levels) as f64
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r[0] + 0.8 * r[2] + 2.0 * r[64] + 1.5 * r[66] + r[69] + 0.3 * rng.next_f64())
        .collect();
    let kinds = vec![FeatureKind::Numeric; D];
    let x = FeatureMatrix::from_rows(D, &rows);
    let sample: Vec<u32> = (0..rows.len() as u32).chain(0..60).collect();
    for mtry in [Mtry::All, Mtry::Third] {
        let cfg = ForestConfig {
            mtry,
            ..ForestConfig::default()
        };
        let tree = RegressionTree::fit(
            &x,
            &y,
            &sample,
            &kinds,
            &cfg,
            &mut Xoshiro256PlusPlus::new(5),
        );
        let arena = reference::fit_tree(
            &rows,
            &y,
            &sample,
            &kinds,
            &cfg,
            &mut Xoshiro256PlusPlus::new(5),
        );
        assert!(
            tree.split_gains().iter().any(|&(f, _)| f >= 64),
            "{mtry:?}: no split past column 64"
        );
        assert_tree_matches_arena(&tree, &arena, &rows, &format!("{mtry:?}"));
    }
}

#[test]
fn batch_prediction_matches_reference_path() {
    let (x, y, kinds) = noisy_problem(180, 6, 0xD0E);
    let m = FeatureMatrix::from_rows(kinds.len(), &x);
    let config = ForestConfig {
        n_trees: 12,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&config, &kinds, &m, &y, 21);
    let fast = forest.predict_batch(&m);
    let slow = reference::predict_batch(&reference::arenas(&forest), &x);
    assert_eq!(fast.len(), slow.len());
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std.to_bits(), b.std.to_bits());
    }
}
