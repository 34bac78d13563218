//! Incremental pool scoring for partial-refit runs.
//!
//! Algorithm 1 rescans the entire pool with the model every iteration. Under
//! [`RefitMode::Partial`](crate::RefitMode::Partial) most of the ensemble is
//! unchanged between iterations, so re-walking every tree over every pool row
//! wastes almost all of that work. [`PoolScoreCache`] keeps each tree's
//! prediction for each remaining pool row; an iteration then costs one
//! `O(pool · n_refit)` refresh for the regrown trees plus an `O(pool ·
//! n_trees)` fold — no tree traversals for the unchanged majority.
//!
//! The fold is the model's own ensemble fold ([`pwu_forest::fold_columns`],
//! chosen by its fit mode), so the cached scores are **bit-identical** to a
//! fresh [`RandomForest::predict_batch`] call (asserted in tests and by the
//! golden trajectory snapshot). Per-tree columns carry no fold and are the
//! same in every fit mode, so [`PoolScoreCache::predictions`] reads the fold
//! from the model it is handed: a `RandomForest::with_fit_mode` swap needs
//! no resync. Pool removals are mirrored with the same descending-index
//! `swap_remove` sequence [`Pool::take`](pwu_space::Pool::take) uses,
//! keeping cache rows aligned with pool rows — including when a row leaves
//! the pool for quarantine rather than the training set.

use pwu_forest::forest::Prediction;
use pwu_forest::{RandomForest, StridedPool};
use pwu_space::FeatureMatrix;

/// Per-tree predictions over the remaining pool rows.
#[derive(Debug, Clone)]
pub struct PoolScoreCache {
    /// `per_tree[t][i]` = tree `t`'s prediction for pool row `i`.
    per_tree: Vec<Vec<f64>>,
    n_rows: usize,
    /// The pool pre-transposed into the flat kernel's stride records: the
    /// pool is static across refit iterations apart from removals — which
    /// [`PoolScoreCache::remove`] mirrors record-for-record — so each
    /// refresh descends the cached records directly instead of
    /// re-transposing the pool.
    strided: StridedPool,
}

impl PoolScoreCache {
    /// Scores every pool row with every tree of `model`.
    ///
    /// # Panics
    /// Panics if `pool` is narrower than the model's features.
    #[must_use]
    pub fn build(model: &RandomForest, pool: &FeatureMatrix) -> Self {
        assert!(
            pool.n_cols() >= model.n_features(),
            "pool is narrower than the model's features"
        );
        let all: Vec<usize> = (0..model.trees().len()).collect();
        let strided = StridedPool::new(pool);
        Self {
            per_tree: model.predict_columns_strided(&strided, &all),
            n_rows: pool.n_rows(),
            strided,
        }
    }

    /// Number of cached pool rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Re-scores only the trees listed in `refitted` (the return value of
    /// [`RandomForest::update`]); all other columns stay untouched.
    ///
    /// # Panics
    /// Panics if the model's ensemble size changed or a tree index is out
    /// of range.
    pub fn refresh(&mut self, model: &RandomForest, refitted: &[usize]) {
        assert_eq!(
            model.trees().len(),
            self.per_tree.len(),
            "ensemble size changed under the cache"
        );
        let cols = model.predict_columns_strided(&self.strided, refitted);
        for (&t, col) in refitted.iter().zip(cols) {
            self.per_tree[t] = col;
        }
    }

    /// Removes the rows at `indices`, replaying the exact descending-index
    /// `swap_remove` sequence of [`Pool::take`](pwu_space::Pool::take) so the
    /// cache stays row-aligned with the pool.
    ///
    /// # Panics
    /// Panics if an index is out of range or duplicated.
    pub fn remove(&mut self, indices: &[usize]) {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).for_each(|w| {
            assert_ne!(
                w[0], w[1],
                "duplicate index {} in PoolScoreCache::remove",
                w[0]
            );
        });
        for &i in sorted.iter().rev() {
            assert!(i < self.n_rows, "index {i} out of range");
            for col in &mut self.per_tree {
                col.swap_remove(i);
            }
            self.strided.swap_remove(i);
            self.n_rows -= 1;
        }
    }

    /// Folds the cached per-tree predictions into `(μ, σ)` per pool row
    /// with `model`'s ensemble fold — bit-identical to
    /// [`RandomForest::predict_batch`] on the same pool.
    ///
    /// # Panics
    /// Panics if `model`'s ensemble size differs from the cache's.
    #[must_use]
    pub fn predictions(&self, model: &RandomForest) -> Vec<Prediction> {
        assert_eq!(
            model.trees().len(),
            self.per_tree.len(),
            "ensemble size changed under the cache"
        );
        let n = self.per_tree.len() as f64;
        pwu_forest::fold_columns(model.config().fit_mode, &self.per_tree, self.n_rows)
            .into_iter()
            .map(|(sum, sum_sq)| {
                let mean = sum / n;
                let var = (sum_sq / n - mean * mean).max(0.0);
                Prediction {
                    mean,
                    std: var.sqrt(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_forest::ForestConfig;
    use pwu_space::FeatureKind;
    use pwu_stats::Xoshiro256PlusPlus;

    fn problem(n: usize, d: usize, seed: u64) -> (FeatureMatrix, Vec<f64>, Vec<FeatureKind>) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut x = FeatureMatrix::new(d);
        let mut y = Vec::with_capacity(n);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for (f, v) in row.iter_mut().enumerate() {
                *v = (rng.next() as usize % (4 + f)) as f64;
            }
            x.push_row(&row);
            y.push(row.iter().sum::<f64>() + 0.1 * rng.next_f64());
        }
        (x, y, vec![FeatureKind::Numeric; d])
    }

    fn assert_bitwise_equal(a: &[Prediction], b: &[Prediction]) {
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b) {
            assert_eq!(p.mean.to_bits(), q.mean.to_bits());
            assert_eq!(p.std.to_bits(), q.std.to_bits());
        }
    }

    #[test]
    fn cached_scores_match_predict_batch_bitwise() {
        let (x, y, kinds) = problem(120, 5, 1);
        let (pool, _, _) = problem(300, 5, 2);
        let config = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let model = RandomForest::fit(&config, &kinds, &x, &y, 7);
        let cache = PoolScoreCache::build(&model, &pool);
        assert_bitwise_equal(&cache.predictions(&model), &model.predict_batch(&pool));
    }

    #[test]
    fn refresh_tracks_partial_updates_bitwise() {
        let (x, y, kinds) = problem(100, 4, 3);
        let (mut pool, _, _) = problem(250, 4, 4);
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        };
        let mut model = RandomForest::fit(&config, &kinds, &x, &y, 9);
        let mut cache = PoolScoreCache::build(&model, &pool);
        let (x2, y2, _) = problem(140, 4, 5);
        for step in 0..4u64 {
            let refitted = model.update(&kinds, &x2, &y2, 3, 100 + step);
            cache.refresh(&model, &refitted);
            assert_bitwise_equal(&cache.predictions(&model), &model.predict_batch(&pool));
            // Interleave removals like the selection loop does.
            let kill = vec![0, 5 + step as usize];
            cache.remove(&kill);
            let mut rows: Vec<Vec<f64>> = (0..pool.n_rows()).map(|i| pool.row(i)).collect();
            let mut sorted = kill.clone();
            sorted.sort_unstable();
            for &i in sorted.iter().rev() {
                rows.swap_remove(i);
            }
            pool = FeatureMatrix::from_rows(4, &rows);
            assert_eq!(cache.n_rows(), pool.n_rows());
            assert_bitwise_equal(&cache.predictions(&model), &model.predict_batch(&pool));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn remove_rejects_duplicates() {
        let (x, y, kinds) = problem(30, 3, 6);
        let model = RandomForest::fit(
            &ForestConfig {
                n_trees: 4,
                ..ForestConfig::default()
            },
            &kinds,
            &x,
            &y,
            1,
        );
        let mut cache = PoolScoreCache::build(&model, &x);
        cache.remove(&[2, 2]);
    }
}
