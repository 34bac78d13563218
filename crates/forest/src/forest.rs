//! The bagged ensemble.

use rand::Rng;
use rayon::prelude::*;

use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::hyper::ForestConfig;
use crate::tree::{grow, FitTables, RegressionTree};

/// A random-forest regressor with uncertainty estimates.
///
/// Trees are grown in parallel on the `PWU_THREADS` work pool (the `rayon`
/// shim's scoped-thread pool with ordered reduction); every tree gets an
/// independent RNG stream derived from the fit seed, so results are
/// bit-identical regardless of thread count or scheduling — see the
/// `fit_is_deterministic_per_seed_and_parallelism_invariant` test, which
/// compares fits across pool widths. Training data lives in a flat column-major
/// [`FeatureMatrix`], whose columns the split search reads contiguously.
///
/// ```
/// use pwu_forest::{ForestConfig, RandomForest};
/// use pwu_space::{FeatureKind, FeatureMatrix};
///
/// // y = 3·x on a tiny grid.
/// let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i)]).collect();
/// let x = FeatureMatrix::from_rows(1, &rows);
/// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
/// let forest = RandomForest::fit(
///     &ForestConfig::default(),
///     &[FeatureKind::Numeric],
///     &x,
///     &y,
///     42,
/// );
/// let p = forest.predict_one(&[10.0]);
/// assert!((p.mean - 30.0).abs() < 6.0);
/// assert!(p.std >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// The fitted trees, each stored only as its flat node records
    /// ([`crate::flat`]), which every predict path reads. A fitted forest
    /// never changes.
    trees: Vec<RegressionTree>,
    /// Per-tree out-of-bag row indices (empty when `bootstrap` is off).
    oob_rows: Vec<Vec<u32>>,
    config: ForestConfig,
    n_features: usize,
}

/// A prediction with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Ensemble mean — the predicted execution time `μ`.
    pub mean: f64,
    /// Uncertainty `σ`: standard deviation across tree predictions.
    pub std: f64,
}

impl RandomForest {
    /// Fits a forest on the rows of `(x, y)`.
    ///
    /// # Panics
    /// Panics on empty data, mismatched lengths, non-finite targets, an
    /// invalid configuration, or more than 64 feature columns (the flat
    /// predict kernel's widest row stride).
    #[must_use]
    pub fn fit(
        config: &ForestConfig,
        kinds: &[FeatureKind],
        x: &FeatureMatrix,
        y: &[f64],
        seed: u64,
    ) -> Self {
        let _s = pwu_obs::span(
            "forest.fit",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("trees", pwu_obs::Arg::u(config.n_trees as u64)),
                ("mode", pwu_obs::Arg::s(config.fit_mode.token())),
            ],
        );
        let (trees, oob_rows): (Vec<_>, Vec<_>) =
            fit_trees(config, kinds, x, y, seed).into_iter().unzip();
        Self {
            trees,
            oob_rows,
            config: *config,
            n_features: kinds.len(),
        }
    }

    /// Fits a forest on row-major data (convenience for callers that do not
    /// already hold a [`FeatureMatrix`]).
    ///
    /// # Panics
    /// As [`RandomForest::fit`], plus on ragged rows.
    #[must_use]
    pub fn fit_rows(
        config: &ForestConfig,
        kinds: &[FeatureKind],
        x: &[Vec<f64>],
        y: &[f64],
        seed: u64,
    ) -> Self {
        let m = FeatureMatrix::from_rows(kinds.len(), x);
        Self::fit(config, kinds, &m, y, seed)
    }

    /// Point prediction: mean of the per-tree predictions.
    #[must_use]
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.predict_one(row).mean
    }

    /// Prediction with across-tree uncertainty (the paper's estimator).
    #[must_use]
    pub fn predict_one(&self, row: &[f64]) -> Prediction {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict(row);
            sum += p;
            sum_sq += p * p;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    /// Prediction with across-tree uncertainty for row `row` of a feature
    /// matrix; bit-identical to [`RandomForest::predict_one`] on the same
    /// row values (same trees, same fold order).
    #[must_use]
    pub fn predict_one_at(&self, x: &FeatureMatrix, row: usize) -> Prediction {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict_at(x, row);
            sum += p;
            sum_sq += p * p;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    /// Batch prediction with across-tree uncertainty.
    ///
    /// Every tree descends the flat layout ([`crate::flat`]), whose
    /// per-tree leaf values equal [`RegressionTree::predict_at`] bitwise;
    /// the fit mode picks only the ensemble fold ([`crate::flat::fold_lanes`]).
    /// [`FitMode::Exact`](crate::FitMode::Exact) folds in ascending tree
    /// order, so each row is bit-identical to
    /// [`RandomForest::predict_one_at`]. [`FitMode::Fast`](crate::FitMode::Fast)
    /// folds through accumulator lanes, which rounds differently —
    /// deterministic and width/deal-order invariant, covered by the same
    /// statistical-equivalence contract as the fast fit (DESIGN.md §14).
    ///
    /// Rows are independent: a row's result depends only on that row and
    /// the forest, never on the other rows of `x`, their order or count, so
    /// predicting a gathered subset of rows returns bitwise the same values
    /// for them as predicting all of `x`. pwu-core's RMSE@α evaluation
    /// predicts only the elite test rows and relies on this.
    ///
    /// # Panics
    /// Panics if `x` is narrower than the trees' features or wider than 64
    /// features (as do the other batch predictors).
    #[must_use]
    pub fn predict_batch(&self, x: &FeatureMatrix) -> Vec<Prediction> {
        self.assert_covers(x);
        let _s = pwu_obs::span(
            "forest.predict_batch",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("mode", pwu_obs::Arg::s(self.config.fit_mode.token())),
            ],
        );
        crate::flat::fold_mu(&self.trees, self.config.fit_mode, x, |sum, sum_sq, n| {
            let mean = sum / n;
            let var = (sum_sq / n - mean * mean).max(0.0);
            Prediction {
                mean,
                std: var.sqrt(),
            }
        })
    }

    /// Batch point predictions (same kernel and fold as
    /// [`RandomForest::predict_batch`]), rows independent as there: a
    /// gathered subset of rows predicts bitwise as those rows of the full
    /// batch.
    #[must_use]
    pub fn predict_batch_mean(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.assert_covers(x);
        crate::flat::fold_mu(&self.trees, self.config.fit_mode, x, |sum, _, n| sum / n)
    }

    /// Per-tree point-prediction columns: `out[k][i]` is tree
    /// `tree_idx[k]`'s prediction for row `i` of `x`.
    ///
    /// This is the bulk form of [`RegressionTree::predict_at`], descended
    /// through the flat layout. Values are bit-identical to `predict_at`
    /// and independent of the fit mode: columns carry no fold.
    ///
    /// # Panics
    /// Panics if a tree index is out of range or `x` is narrower than the
    /// trees' features.
    #[must_use]
    pub fn predict_columns(&self, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        self.assert_covers(x);
        let _s = pwu_obs::span(
            "forest.predict_columns",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("trees", pwu_obs::Arg::u(tree_idx.len() as u64)),
                ("mode", pwu_obs::Arg::s(self.config.fit_mode.token())),
            ],
        );
        crate::flat::columns(&self.trees, x, tree_idx)
    }

    /// Panics unless `x` has every feature column the trees test: the flat
    /// kernel reads fixed-stride records, so a narrower matrix would read
    /// padding instead of failing.
    fn assert_covers(&self, x: &FeatureMatrix) {
        assert!(
            x.n_cols() >= self.n_features,
            "feature matrix has {} columns, the forest needs {}",
            x.n_cols(),
            self.n_features
        );
    }

    /// The trees of the ensemble.
    #[must_use]
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Mean within-leaf variance across the ensemble (`Σ var·count /
    /// Σ count` over every leaf) — the irreducible-noise diagnostic the
    /// fast path's statistical-equivalence suite compares between engines.
    /// A sequential sum in tree order of per-tree sums each tree folded in
    /// preorder when it was compiled, so the value is deterministic at any
    /// `PWU_THREADS` width.
    #[must_use]
    pub fn mean_leaf_variance(&self) -> f64 {
        crate::fast::mean_leaf_variance(&self.trees)
    }

    /// Per-tree out-of-bag row indices (empty vectors without bootstrap).
    #[must_use]
    pub(crate) fn oob_rows(&self) -> &[Vec<u32>] {
        &self.oob_rows
    }

    /// Assembles a forest from parts (used by [`crate::reference`]).
    pub(crate) fn from_parts(
        trees: Vec<RegressionTree>,
        oob_rows: Vec<Vec<u32>>,
        config: ForestConfig,
        n_features: usize,
    ) -> Self {
        crate::flat::assert_width(n_features);
        Self {
            trees,
            oob_rows,
            config,
            n_features,
        }
    }

    /// The configuration the forest was fitted with.
    #[must_use]
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Number of feature columns.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Grows the ensemble's trees `0..n_trees` on `(x, y)` for
/// [`RandomForest::fit`]. Each tree draws its bootstrap sample and feature
/// subsets from its own RNG stream, derived from `seed` and its index, and
/// grows on the `PWU_THREADS` pool; results come back in tree order as
/// `(tree, out-of-bag rows)`. Each tree's growth arena is compiled into its
/// flat records and dropped inside its own pool task, so a worker holds at
/// most one arena and the fit's peak is about one forest of flat trees.
///
/// # Panics
/// Panics on an invalid configuration, empty data, mismatched lengths, a
/// matrix whose width differs from `kinds`, more than 64 feature columns
/// (the flat predict kernel's widest row stride), or non-finite targets.
fn fit_trees(
    config: &ForestConfig,
    kinds: &[FeatureKind],
    x: &FeatureMatrix,
    y: &[f64],
    seed: u64,
) -> Vec<(RegressionTree, Vec<u32>)> {
    config.validate();
    assert!(!x.is_empty(), "cannot fit trees on zero rows");
    assert_eq!(x.n_rows(), y.len(), "feature/target length mismatch");
    assert_eq!(
        x.n_cols(),
        kinds.len(),
        "feature matrix width does not match kinds"
    );
    crate::flat::assert_width(kinds.len());
    assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

    let n = x.n_rows();
    // The tables depend only on (x, kinds, fit mode) and the row count,
    // which is n for every tree: build them once and share them across all
    // trees.
    let tables = FitTables::new(x, kinds, config.fit_mode, n);
    (0..config.n_trees)
        .into_par_iter()
        .map(|t| {
            let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
            let (rows, oob) = if config.bootstrap {
                bootstrap_rows(n, &mut rng)
            } else {
                ((0..n as u32).collect(), Vec::new())
            };
            (grow(x, y, &rows, kinds, config, &mut rng, &tables), oob)
        })
        .collect()
}

/// Draws a bootstrap resample of `0..n` and returns `(in_bag, out_of_bag)`.
pub(crate) fn bootstrap_rows(n: usize, rng: &mut Xoshiro256PlusPlus) -> (Vec<u32>, Vec<u32>) {
    let mut in_bag = Vec::with_capacity(n);
    let mut chosen = vec![false; n];
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        in_bag.push(i as u32);
        chosen[i] = true;
    }
    let oob = (0..n as u32).filter(|&i| !chosen[i as usize]).collect();
    (in_bag, oob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = x0 + 10·x1 on an 8×8 grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                x.push(vec![f64::from(i), f64::from(j)]);
                y.push(f64::from(i) + 10.0 * f64::from(j));
            }
        }
        (x, y)
    }

    fn kinds2() -> Vec<FeatureKind> {
        vec![FeatureKind::Numeric; 2]
    }

    #[test]
    fn forest_learns_smooth_function() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 42);
        let mut worst: f64 = 0.0;
        for (xi, &yi) in x.iter().zip(&y) {
            worst = worst.max((forest.predict(xi) - yi).abs());
        }
        // Bootstrap + random subspace leave residual error; the target spans
        // 0..77, so demand better than ~15% of the range at the worst point.
        assert!(worst < 12.0, "worst-case training error {worst}");
    }

    #[test]
    fn predictions_within_training_range() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 1);
        let (lo, hi) = (0.0, 77.0);
        for xi in &x {
            let p = forest.predict(xi);
            assert!((lo..=hi).contains(&p));
        }
        // Extrapolation is clamped to leaf means too.
        let p = forest.predict(&[100.0, 100.0]);
        assert!((lo..=hi).contains(&p));
    }

    #[test]
    fn uncertainty_is_nonnegative_and_zero_for_constant_targets() {
        let (x, _) = grid_xy();
        let y = vec![3.0; x.len()];
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 5);
        for xi in &x {
            let p = forest.predict_one(xi);
            assert_eq!(p.mean, 3.0);
            assert_eq!(p.std, 0.0);
        }
    }

    #[test]
    fn fit_is_deterministic_per_seed_and_parallelism_invariant() {
        let (x, y) = grid_xy();
        // Same seed → identical forest; different seed → different forest.
        let f1 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
        let f2 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
        let f3 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 78);
        let probe = [3.5, 2.5];
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        assert_ne!(f1.predict(&probe), f3.predict(&probe));

        // Thread-count invariance: the same fit at pool widths 1, 2 and 8
        // must produce bitwise-identical predictions everywhere, because
        // per-tree RNG streams come from the seed (not the schedule) and the
        // shim's reduction is ordered. Restore the width afterwards so
        // concurrently running tests only ever observe a valid setting
        // (results are width-invariant by construction, so the transient
        // widths cannot affect them).
        let before = rayon::current_num_threads();
        let baseline: Vec<(u64, u64)> = {
            rayon::set_threads(1);
            let f = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
            x.iter()
                .map(|xi| {
                    let p = f.predict_one(xi);
                    (p.mean.to_bits(), p.std.to_bits())
                })
                .collect()
        };
        for width in [2, 8] {
            rayon::set_threads(width);
            let f = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
            for (xi, &(mean_bits, std_bits)) in x.iter().zip(&baseline) {
                let p = f.predict_one(xi);
                assert_eq!(p.mean.to_bits(), mean_bits, "mean drift at width {width}");
                assert_eq!(p.std.to_bits(), std_bits, "std drift at width {width}");
            }
        }
        rayon::set_threads(before);
    }

    #[test]
    fn batch_prediction_matches_scalar_bitwise() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 3);
        let m = FeatureMatrix::from_rows(2, &x);
        let batch = forest.predict_batch(&m);
        let means = forest.predict_batch_mean(&m);
        for (i, (xi, p)) in x.iter().zip(&batch).enumerate() {
            let q = forest.predict_one(xi);
            assert_eq!(p.mean.to_bits(), q.mean.to_bits());
            assert_eq!(p.std.to_bits(), q.std.to_bits());
            assert_eq!(means[i].to_bits(), q.mean.to_bits());
        }
    }

    /// Heap bytes a fitted forest retains, counted from the capacities of
    /// its own vectors.
    fn retained_bytes(forest: &RandomForest) -> usize {
        use std::mem::size_of;
        forest.trees.capacity() * size_of::<RegressionTree>()
            + forest
                .trees
                .iter()
                .map(RegressionTree::heap_bytes)
                .sum::<usize>()
            + forest.oob_rows.capacity() * size_of::<Vec<u32>>()
            + forest
                .oob_rows
                .iter()
                .map(|r| r.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    /// A fitted forest keeps each tree once. An all-numeric tree of `n`
    /// nodes holds its 16-byte records padded to a power of two (under
    /// `32·n` bytes), dense leaf means, variances and counts (`20·n`) and a
    /// 16-byte split gain per internal node (under `8·n`): under 60 bytes a
    /// node, 64 with the forest's own vectors. A second per-node copy of a
    /// tree, such as its growth arena (32-byte nodes) kept beside the
    /// records, breaks the bound.
    #[test]
    fn a_fitted_forest_retains_one_copy_of_each_tree() {
        let mut rng = Xoshiro256PlusPlus::new(8);
        let x: Vec<Vec<f64>> = (0..400)
            .map(|_| (0..6).map(|_| f64::from(rng.gen_range(0..8u32))).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| r.iter().sum::<f64>() + rng.next_f64())
            .collect();
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit_rows(&config, &[FeatureKind::Numeric; 6], &x, &y, 4);
        let nodes: usize = forest.trees().iter().map(RegressionTree::n_nodes).sum();
        let per_node = retained_bytes(&forest) as f64 / nodes as f64;
        assert!(
            per_node <= 64.0,
            "{per_node:.1} bytes retained a node over {nodes} nodes"
        );
    }

    #[test]
    fn bootstrap_oob_partition_is_consistent() {
        let mut rng = Xoshiro256PlusPlus::new(4);
        let (in_bag, oob) = bootstrap_rows(100, &mut rng);
        assert_eq!(in_bag.len(), 100);
        let bag_set: std::collections::HashSet<u32> = in_bag.iter().copied().collect();
        for &o in &oob {
            assert!(!bag_set.contains(&o));
        }
        // Expected OOB fraction ≈ 1/e ≈ 0.368.
        assert!(oob.len() > 15 && oob.len() < 60, "oob size {}", oob.len());
    }

    #[test]
    fn single_row_training_works() {
        let forest = RandomForest::fit_rows(
            &ForestConfig::default(),
            &kinds2(),
            &[vec![1.0, 2.0]],
            &[7.0],
            0,
        );
        assert_eq!(forest.predict(&[0.0, 0.0]), 7.0);
        assert_eq!(forest.predict_one(&[9.0, 9.0]).std, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit trees on zero rows")]
    fn fit_rejects_zero_rows() {
        let _ = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &[], &[], 0);
    }

    #[test]
    #[should_panic(expected = "feature matrix width does not match kinds")]
    fn fit_rejects_matrix_wider_than_kinds() {
        let (x, y) = grid_xy();
        let wide: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0], r[1], 0.0]).collect();
        let m = FeatureMatrix::from_rows(3, &wide);
        let _ = RandomForest::fit(&ForestConfig::default(), &kinds2(), &m, &y, 0);
    }

    #[test]
    #[should_panic(expected = "feature/target length mismatch")]
    fn fit_rejects_targets_of_another_length() {
        let (x, y) = grid_xy();
        let m = FeatureMatrix::from_rows(2, &x);
        let _ = RandomForest::fit(&ForestConfig::default(), &kinds2(), &m, &y[1..], 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_targets_rejected() {
        let _ = RandomForest::fit_rows(
            &ForestConfig::default(),
            &kinds2(),
            &[vec![0.0, 0.0]],
            &[f64::NAN],
            0,
        );
    }
}
