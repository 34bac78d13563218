//! Bit-identity of the overhauled fit path against the preserved
//! historical implementation (`pwu_forest::reference`).
//!
//! The overhaul (flat column-major features, integer-key node sorts,
//! in-place partitioning, iterative growth, single-pass leaf statistics)
//! must not change a single split decision: both paths consume the RNG
//! identically, sort ties into the same permutation, and evaluate the same
//! candidate gains, so per-seed forests must agree tree by tree, node count
//! by node count, prediction bit by bit.

use pwu_forest::{reference, ForestConfig, Mtry, RandomForest};
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

fn assert_forests_bit_identical(a: &RandomForest, b: &RandomForest, probes: &[Vec<f64>]) {
    assert_eq!(a.trees().len(), b.trees().len());
    for (t, (ta, tb)) in a.trees().iter().zip(b.trees()).enumerate() {
        assert_eq!(ta.n_nodes(), tb.n_nodes(), "node count differs in tree {t}");
        assert_eq!(
            ta.n_leaves(),
            tb.n_leaves(),
            "leaf count differs in tree {t}"
        );
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(
                ta.predict(p).to_bits(),
                tb.predict(p).to_bits(),
                "tree {t} diverges on probe {i}"
            );
        }
    }
    for p in probes {
        let pa = a.predict_one(p);
        let pb = b.predict_one(p);
        assert_eq!(pa.mean.to_bits(), pb.mean.to_bits());
        assert_eq!(pa.std.to_bits(), pb.std.to_bits());
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
    for (c, config) in configs().into_iter().enumerate() {
        for seed in [1u64, 99, 12345] {
            let fast = RandomForest::fit(&config, &kinds, &m, &y, seed);
            let slow = reference::fit(&config, &kinds, &x, &y, seed);
            assert_forests_bit_identical(&fast, &slow, &x[..24]);
            let _ = c;
        }
    }
}

#[test]
fn fit_matches_reference_on_exact_integer_data() {
    let (x, y, kinds) = exact_problem(256, 6);
    let m = FeatureMatrix::from_rows(kinds.len(), &x);
    for config in configs() {
        let fast = RandomForest::fit(&config, &kinds, &m, &y, 7);
        let slow = reference::fit(&config, &kinds, &x, &y, 7);
        assert_forests_bit_identical(&fast, &slow, &x[..32]);
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
    let slow = reference::predict_batch(&forest, &x);
    assert_eq!(fast.len(), slow.len());
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std.to_bits(), b.std.to_bits());
    }
}
