//! The pre-overhaul fit path, kept verbatim as a bit-identity oracle and
//! performance baseline.
//!
//! This module preserves the original row-major (`&[Vec<f64>]`) forest
//! implementation exactly as it was before the flat-matrix/presorted-splitter
//! overhaul: recursive growth, a fresh `sort_unstable_by` per node per
//! numeric feature, two fresh row vectors per partition, and the two-pass
//! leaf statistics. It exists for two reasons:
//!
//! 1. **Equivalence testing** — the refactored hot path must produce
//!    bit-identical trees; `tests/reference_equivalence.rs` grows forests
//!    through both paths and compares every per-tree prediction bitwise.
//! 2. **Performance baseline** — `cargo xtask perf` measures this path
//!    against the optimized one on the same machine in the same process, so
//!    the recorded speedups in `BENCH_forest.json` are reproducible anywhere
//!    rather than being a snapshot of one historical host.
//!
//! The bit-identity holds by construction, not by luck (see DESIGN.md §9):
//! the optimized path re-sorts each node's rows with monotone integer keys
//! that answer every comparison exactly as `f64::partial_cmp` did here, so
//! `sort_unstable_by` reproduces the historical permutation — including how
//! it orders *tied* feature values, which genuinely decide splits whenever
//! two candidate gains tie exactly. The golden-snapshot and equivalence
//! suites verify this end to end.

use rand::Rng;

use pwu_space::FeatureKind;
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::forest::{bootstrap_rows, Prediction, RandomForest};
use crate::hyper::ForestConfig;
use crate::split::{Split, SplitRule};
use crate::tree::{LeafStats, Node, RegressionTree};

/// Fits a forest through the historical row-major path.
///
/// Same contract as [`RandomForest::fit`]; only the internals differ.
///
/// # Panics
/// Panics on empty data, mismatched lengths, non-finite targets, or an
/// invalid configuration.
#[must_use]
pub fn fit(
    config: &ForestConfig,
    kinds: &[FeatureKind],
    x: &[Vec<f64>],
    y: &[f64],
    seed: u64,
) -> RandomForest {
    config.validate();
    assert!(!x.is_empty(), "cannot fit a forest on zero rows");
    assert_eq!(x.len(), y.len(), "feature/target length mismatch");
    assert_eq!(
        x[0].len(),
        kinds.len(),
        "feature row width does not match kinds"
    );
    assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

    let n = x.len();
    let mut trees = Vec::with_capacity(config.n_trees);
    let mut oob_rows = Vec::with_capacity(config.n_trees);
    for t in 0..config.n_trees {
        let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
        let (rows, oob) = if config.bootstrap {
            bootstrap_rows(n, &mut rng)
        } else {
            ((0..n as u32).collect(), Vec::new())
        };
        trees.push(fit_tree(x, y, &rows, kinds, config, &mut rng));
        oob_rows.push(oob);
    }
    RandomForest::from_parts(trees, oob_rows, *config, kinds.len())
}

/// Batch prediction through the historical row-major path.
#[must_use]
pub fn predict_batch(forest: &RandomForest, rows: &[Vec<f64>]) -> Vec<Prediction> {
    rows.iter().map(|r| forest.predict_one(r)).collect()
}

/// Grows one tree exactly as the historical `RegressionTree::fit` did.
///
/// # Panics
/// Panics if `rows` is empty.
#[must_use]
pub fn fit_tree(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    kinds: &[FeatureKind],
    config: &ForestConfig,
    rng: &mut Xoshiro256PlusPlus,
) -> RegressionTree {
    assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
    debug_assert!(rows.iter().all(|&r| y[r as usize].is_finite()));
    let mtry = config.mtry.resolve(kinds.len());
    let mut builder = Builder {
        nodes: Vec::new(),
        split_gains: Vec::new(),
    };
    let mut scratch = Scratch::default();
    let mut feature_ids: Vec<usize> = (0..kinds.len()).collect();
    builder.grow(
        x,
        y,
        rows,
        kinds,
        config,
        mtry,
        rng,
        &mut scratch,
        &mut feature_ids,
        0,
    );
    RegressionTree::from_raw(builder.nodes, builder.split_gains)
}

struct Builder {
    nodes: Vec<Node>,
    split_gains: Vec<(u32, f64)>,
}

impl Builder {
    /// Recursive growth; returns the arena index of the subtree root.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[u32],
        kinds: &[FeatureKind],
        config: &ForestConfig,
        mtry: usize,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut Scratch,
        feature_ids: &mut [usize],
        depth: u32,
    ) -> u32 {
        let stop = rows.len() < config.min_split
            || config.max_depth.is_some_and(|d| depth >= d)
            || constant_targets(y, rows);
        let split = if stop {
            None
        } else {
            self.pick_split(x, y, rows, kinds, mtry, rng, scratch, feature_ids, config)
        };

        match split {
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(leaf_stats(y, rows)));
                idx
            }
            Some(split) => {
                let (left_rows, right_rows) = partition(x, rows, &split);
                debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());
                self.split_gains.push((split.feature as u32, split.gain));
                let idx = self.nodes.len() as u32;
                // Reserve the slot, then grow children.
                self.nodes.push(Node::Leaf(LeafStats {
                    mean: 0.0,
                    variance: 0.0,
                    count: 0,
                }));
                let left = self.grow(
                    x,
                    y,
                    &left_rows,
                    kinds,
                    config,
                    mtry,
                    rng,
                    scratch,
                    feature_ids,
                    depth + 1,
                );
                let right = self.grow(
                    x,
                    y,
                    &right_rows,
                    kinds,
                    config,
                    mtry,
                    rng,
                    scratch,
                    feature_ids,
                    depth + 1,
                );
                self.nodes[idx as usize] = Node::Internal {
                    feature: split.feature as u32,
                    rule: split.rule,
                    left,
                    right,
                };
                idx
            }
        }
    }

    /// Chooses the best split among a random `mtry`-subset of features.
    #[allow(clippy::too_many_arguments)]
    fn pick_split(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[u32],
        kinds: &[FeatureKind],
        mtry: usize,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut Scratch,
        feature_ids: &mut [usize],
        config: &ForestConfig,
    ) -> Option<Split> {
        // Partial Fisher–Yates: the first `mtry` entries become the subset.
        let d = feature_ids.len();
        for i in 0..mtry.min(d) {
            let j = rng.gen_range(i..d);
            feature_ids.swap(i, j);
        }
        let mut best: Option<Split> = None;
        for &f in &feature_ids[..mtry.min(d)] {
            let s = match kinds[f] {
                FeatureKind::Numeric => best_numeric_split(x, y, rows, f, config.min_leaf, scratch),
                FeatureKind::Categorical { n_categories } => {
                    best_categorical_split(x, y, rows, f, n_categories, config.min_leaf, scratch)
                }
            };
            if let Some(s) = s {
                if best.as_ref().is_none_or(|b| s.gain > b.gain) {
                    best = Some(s);
                }
            }
        }
        best
    }
}

fn constant_targets(y: &[f64], rows: &[u32]) -> bool {
    let first = y[rows[0] as usize];
    rows.iter().all(|&r| y[r as usize] == first)
}

/// The historical two-pass leaf statistics (sum, then squared deviations).
#[must_use]
pub fn leaf_stats(y: &[f64], rows: &[u32]) -> LeafStats {
    let n = rows.len() as f64;
    let sum: f64 = rows.iter().map(|&r| y[r as usize]).sum();
    let mean = sum / n;
    let var = rows
        .iter()
        .map(|&r| {
            let d = y[r as usize] - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    LeafStats {
        mean,
        variance: var,
        count: rows.len() as u32,
    }
}

fn partition(x: &[Vec<f64>], rows: &[u32], split: &Split) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &r in rows {
        if split.rule.goes_left(x[r as usize][split.feature]) {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

/// Reusable scratch buffers for the historical split search.
#[derive(Debug, Default)]
struct Scratch {
    order: Vec<u32>,
    cat_sum: Vec<f64>,
    cat_count: Vec<u32>,
    cat_order: Vec<usize>,
}

fn best_numeric_split(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    feature: usize,
    min_leaf: usize,
    scratch: &mut Scratch,
) -> Option<Split> {
    let n = rows.len();
    if n < 2 * min_leaf {
        return None;
    }
    debug_assert!(
        rows.iter().all(|&r| !x[r as usize][feature].is_nan()),
        "NaN feature value reached the splitter"
    );
    let order = &mut scratch.order;
    order.clear();
    order.extend_from_slice(rows);
    order.sort_unstable_by(|&a, &b| {
        x[a as usize][feature]
            .partial_cmp(&x[b as usize][feature])
            .expect("NaN feature value")
    });

    let total: f64 = rows.iter().map(|&r| y[r as usize]).sum();
    let n_f = n as f64;
    let base = total * total / n_f;

    let mut left_sum = 0.0;
    let mut best: Option<(f64, f64)> = None; // (gain, threshold)
    for i in 0..n - 1 {
        let r = order[i] as usize;
        left_sum += y[r];
        let xl = x[r][feature];
        let xr = x[order[i + 1] as usize][feature];
        if xl == xr {
            continue; // cannot separate equal values
        }
        let n_l = (i + 1) as f64;
        let n_r = n_f - n_l;
        if (i + 1) < min_leaf || (n - i - 1) < min_leaf {
            continue;
        }
        let right_sum = total - left_sum;
        let gain = left_sum * left_sum / n_l + right_sum * right_sum / n_r - base;
        if gain > best.map_or(0.0, |b| b.0) {
            best = Some((gain, 0.5 * (xl + xr)));
        }
    }
    best.map(|(gain, threshold)| Split {
        feature,
        rule: SplitRule::Threshold(threshold),
        gain,
    })
}

fn best_categorical_split(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    feature: usize,
    n_categories: usize,
    min_leaf: usize,
    scratch: &mut Scratch,
) -> Option<Split> {
    assert!(
        n_categories <= 64,
        "categorical features are limited to 64 categories, got {n_categories}"
    );
    let n = rows.len();
    if n < 2 * min_leaf {
        return None;
    }
    let sums = &mut scratch.cat_sum;
    let counts = &mut scratch.cat_count;
    sums.clear();
    sums.resize(n_categories, 0.0);
    counts.clear();
    counts.resize(n_categories, 0);
    for &r in rows {
        let c = x[r as usize][feature] as usize;
        debug_assert!(c < n_categories, "category {c} out of range");
        sums[c] += y[r as usize];
        counts[c] += 1;
    }

    // Order the categories present in this node by mean target (Fisher).
    let order = &mut scratch.cat_order;
    order.clear();
    order.extend((0..n_categories).filter(|&c| counts[c] > 0));
    if order.len() < 2 {
        return None;
    }
    order.sort_unstable_by(|&a, &b| {
        let ma = sums[a] / f64::from(counts[a]);
        let mb = sums[b] / f64::from(counts[b]);
        ma.partial_cmp(&mb).expect("NaN category mean")
    });

    let total: f64 = sums.iter().sum();
    let n_f = n as f64;
    let base = total * total / n_f;

    let mut left_sum = 0.0;
    let mut left_count = 0u32;
    let mut mask = 0u64;
    let mut best: Option<(f64, u64)> = None;
    for &c in &order[..order.len() - 1] {
        left_sum += sums[c];
        left_count += counts[c];
        mask |= 1 << c;
        let n_l = f64::from(left_count);
        let n_r = n_f - n_l;
        if (left_count as usize) < min_leaf || (n - left_count as usize) < min_leaf {
            continue;
        }
        let right_sum = total - left_sum;
        let gain = left_sum * left_sum / n_l + right_sum * right_sum / n_r - base;
        if gain > best.map_or(0.0, |b| b.0) {
            best = Some((gain, mask));
        }
    }
    best.map(|(gain, mask)| Split {
        feature,
        rule: SplitRule::Categories(mask),
        gain,
    })
}
