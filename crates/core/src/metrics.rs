//! Evaluation metrics (Section III-C of the paper).

use pwu_forest::RandomForest;
use pwu_space::FeatureMatrix;
use pwu_stats::argsort_by;

/// RMSE over the top `⌊n·α⌋` *observed*-performance test samples (Eq. 2).
///
/// The test set is ranked by its true execution times ascending (high
/// performance first); the error is computed only on the elite slice —
/// accuracy on poor configurations is irrelevant to tuning.
///
/// This is the reference form of the loop's evaluator, [`EliteTest`], which
/// ranks the test set once and predicts only the elite rows; both use the
/// same slice size and sum, so their results agree bit for bit.
///
/// # Panics
/// Panics if lengths mismatch, `alpha` is outside `(0, 1]`, or the elite
/// slice would be empty.
#[must_use]
pub fn rmse_at_alpha(observed: &[f64], predicted: &[f64], alpha: f64) -> f64 {
    assert_eq!(observed.len(), predicted.len(), "length mismatch");
    let m = elite_len(observed.len(), alpha);
    let order = argsort_by(observed, |&y| y);
    elite_rmse(order[..m].iter().map(|&i| (observed[i], predicted[i])), m)
}

/// Eq. 2's elite-slice size over `n` test samples: `⌊n·α⌋`, at least one.
///
/// # Panics
/// Panics if `alpha` is outside `(0, 1]`.
fn elite_len(n: usize, alpha: f64) -> usize {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} outside (0,1]");
    ((n as f64 * alpha).floor() as usize).max(1)
}

/// Eq. 2's root mean square over the `m` elite `(observed, predicted)`
/// pairs, summed in rank order (best true time first).
fn elite_rmse(elite: impl Iterator<Item = (f64, f64)>, m: usize) -> f64 {
    let sse: f64 = elite
        .map(|(y, p)| {
            let d = y - p;
            d * d
        })
        .sum();
    (sse / m as f64).sqrt()
}

/// Eq. 2 for one fixed test set and α list, ranked once: the evaluator an
/// [`crate::active::ActiveLoop`] borrows.
///
/// The labels never change within a run, so the stable ranking
/// [`rmse_at_alpha`] redoes per call is done here once, and only the rows
/// the largest α's elite slice reads are kept, best true time first. Each
/// evaluation then predicts just those rows. A row's prediction does not
/// depend on the other rows of its batch, so every RMSE is bitwise
/// [`rmse_at_alpha`] over the full test set.
#[derive(Debug)]
pub struct EliteTest {
    /// The kept rows, in rank order.
    features: FeatureMatrix,
    /// Their true times, in the same order.
    labels: Vec<f64>,
    /// The α list this evaluator was built for, in config order.
    alphas: Vec<f64>,
    /// Per configured α, in config order: its elite-slice size.
    lens: Vec<usize>,
    /// Size of the whole test set.
    n_test: usize,
}

impl EliteTest {
    /// Ranks `labels` once and keeps the rows of the largest elite slice
    /// any of `alphas` reads (`alphas` need not be sorted).
    ///
    /// # Panics
    /// Panics if the test set is empty, its features and labels disagree in
    /// length, or an α is outside `(0, 1]`.
    #[must_use]
    pub fn new(features: &FeatureMatrix, labels: &[f64], alphas: &[f64]) -> Self {
        assert_eq!(
            features.n_rows(),
            labels.len(),
            "test features and labels disagree"
        );
        assert!(!labels.is_empty(), "RMSE@alpha needs a nonempty test set");
        let n_test = labels.len();
        let lens: Vec<usize> = alphas.iter().map(|&a| elite_len(n_test, a)).collect();
        let kept = lens.iter().copied().max().unwrap_or(0);
        let order = &argsort_by(labels, |&y| y)[..kept];
        let rows: Vec<Vec<f64>> = order.iter().map(|&i| features.row(i)).collect();
        Self {
            features: FeatureMatrix::from_rows(features.n_cols(), &rows),
            labels: order.iter().map(|&i| labels[i]).collect(),
            alphas: alphas.to_vec(),
            lens,
            n_test,
        }
    }

    /// Whether this evaluator was built for exactly `alphas`, in order.
    pub(crate) fn is_for(&self, alphas: &[f64]) -> bool {
        self.alphas == alphas
    }

    /// Size of the whole test set.
    pub(crate) fn n_test(&self) -> usize {
        self.n_test
    }

    /// Number of rows each evaluation predicts.
    pub(crate) fn rows(&self) -> usize {
        self.labels.len()
    }

    /// RMSE@α of `model` for every configured α, in config order.
    pub(crate) fn rmse(&self, model: &RandomForest) -> Vec<f64> {
        let preds = model.predict_batch_mean(&self.features);
        let ranked = || self.labels.iter().copied().zip(preds.iter().copied());
        self.lens
            .iter()
            .map(|&m| elite_rmse(ranked().take(m), m))
            .collect()
    }
}

/// The cumulative cost (Eq. 3) needed to first reach an RMSE at or below
/// `threshold`, given per-iteration `(cumulative_cost, rmse)` pairs.
///
/// Returns `None` when the run never reaches the threshold.
#[must_use]
pub fn cost_to_reach(history: &[(f64, f64)], threshold: f64) -> Option<f64> {
    history
        .iter()
        .find(|(_, rmse)| *rmse <= threshold)
        .map(|(cc, _)| *cc)
}

/// The first index at which an RMSE series has *converged*: every later
/// value stays within `(1 + tol)` of the series minimum.
///
/// The paper stops at `n_max = 500` "because the model begins to converge
/// when collecting about 500 samples"; this utility makes that judgement
/// mechanical. Returns `None` for an empty series.
#[must_use]
pub fn converged_at(rmse: &[f64], tol: f64) -> Option<usize> {
    assert!(tol >= 0.0, "tolerance must be non-negative");
    if rmse.is_empty() {
        return None;
    }
    let min = rmse.iter().cloned().fold(f64::INFINITY, f64::min);
    let bound = min * (1.0 + tol);
    // Walk backwards: find the last index that exceeds the band; the series
    // is converged right after it.
    let last_bad = rmse.iter().rposition(|&r| r > bound);
    Some(last_bad.map_or(0, |i| i + 1).min(rmse.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elite_slice_only() {
        // obs: elite is the two smallest (alpha = 0.5 of 4).
        let obs = [1.0, 10.0, 2.0, 20.0];
        // Perfect on elite, terrible elsewhere → zero error.
        let pred = [1.0, 0.0, 2.0, 0.0];
        assert_eq!(rmse_at_alpha(&obs, &pred, 0.5), 0.0);
        // Error on one elite sample shows up.
        let pred2 = [2.0, 10.0, 2.0, 20.0];
        assert!((rmse_at_alpha(&obs, &pred2, 0.5) - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_plain_rmse() {
        let obs = [1.0, 2.0, 3.0];
        let pred = [2.0, 3.0, 4.0];
        assert!((rmse_at_alpha(&obs, &pred, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_alpha_keeps_at_least_one_sample() {
        let obs = [5.0, 1.0];
        let pred = [5.0, 3.0];
        // ⌊2×0.01⌋ = 0 → clamped to 1: the single best observation (1.0).
        assert!((rmse_at_alpha(&obs, &pred, 0.01) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_to_reach_finds_first_crossing() {
        let hist = [(1.0, 9.0), (3.0, 5.0), (7.0, 2.0), (9.0, 2.5)];
        assert_eq!(cost_to_reach(&hist, 5.0), Some(3.0));
        assert_eq!(cost_to_reach(&hist, 1.9), None);
        assert_eq!(cost_to_reach(&hist, 100.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_alpha_rejected() {
        let _ = rmse_at_alpha(&[1.0], &[1.0], 0.0);
    }

    #[test]
    fn elite_test_keeps_the_largest_slice_in_stable_rank_order() {
        // Ties at 1.0 keep their input order (rows 1, 3); α = 0.5 of 4
        // reads two rows, α = 0.25 one, α = 0.1 is clamped to one.
        let labels = [2.0, 1.0, 5.0, 1.0];
        let features =
            FeatureMatrix::from_rows(1, &[vec![20.0], vec![10.0], vec![50.0], vec![30.0]]);
        let elite = EliteTest::new(&features, &labels, &[0.25, 0.5, 0.1]);
        assert_eq!(elite.n_test(), 4);
        assert_eq!(elite.rows(), 2);
        assert_eq!(elite.lens, vec![1, 2, 1]);
        assert_eq!(elite.labels, vec![1.0, 1.0]);
        assert_eq!(elite.features.column(0), &[10.0, 30.0]);
    }

    #[test]
    fn converged_at_finds_the_plateau() {
        let series = [10.0, 5.0, 2.0, 1.05, 1.0, 1.02, 1.01];
        // Within 10% of the minimum from index 3 on.
        assert_eq!(converged_at(&series, 0.10), Some(3));
        // Tighter band: only the tail qualifies.
        assert_eq!(converged_at(&series, 0.03), Some(4));
        // A monotone-decreasing series converges only at its end... unless
        // the whole series is flat.
        assert_eq!(converged_at(&[3.0, 3.0, 3.0], 0.0), Some(0));
        assert_eq!(converged_at(&[], 0.1), None);
    }
}
