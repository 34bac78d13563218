//! Sampling strategies: who gets evaluated next.
//!
//! All strategies receive the forest's pool predictions `(μᵢ, σᵢ)` and
//! return the indices of the batch to annotate. Performance means *short
//! predicted execution time*, so "top of the predicted performance ranking"
//! is ascending μ.

use rand::Rng;

use pwu_forest::forest::Prediction;
use pwu_stats::{argsort_by, Xoshiro256PlusPlus};

/// A pool-based sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Performance Weighted Uncertainty (Eq. 1): `s = σ / μ^(1−α)`.
    ///
    /// `alpha → 1` degenerates to [`Strategy::MaxU`]; `alpha → 0` gives the
    /// coefficient of variation σ/μ.
    Pwu {
        /// High-performance proportion α ∈ (0, 1].
        alpha: f64,
    },
    /// Performance-Biased Uncertainty Sampling (Balaprakash et al. 2013):
    /// keep the predicted top `fraction` of the pool, then select the most
    /// uncertain inside it.
    Pbus {
        /// Fraction of the pool considered high-performance.
        fraction: f64,
    },
    /// Biased Random Sampling: uniform choice inside the predicted top
    /// `fraction`.
    Brs {
        /// Fraction of the pool considered high-performance.
        fraction: f64,
    },
    /// Pure exploitation: smallest predicted time.
    BestPerf,
    /// Classic uncertainty sampling: largest σ.
    MaxU,
    /// Passive uniform sampling.
    Uniform,
}

impl Strategy {
    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Pwu { .. } => "PWU",
            Strategy::Pbus { .. } => "PBUS",
            Strategy::Brs { .. } => "BRS",
            Strategy::BestPerf => "BestPerf",
            Strategy::MaxU => "MaxU",
            Strategy::Uniform => "Uniform",
        }
    }

    /// The paper's five baselines plus PWU, at a given α.
    #[must_use]
    pub fn paper_set(alpha: f64) -> Vec<Strategy> {
        vec![
            Strategy::Pwu { alpha },
            Strategy::Pbus { fraction: 0.10 },
            Strategy::Brs { fraction: 0.10 },
            Strategy::BestPerf,
            Strategy::MaxU,
            Strategy::Uniform,
        ]
    }

    /// Selects `n_batch` pool indices given the model's pool predictions.
    ///
    /// # Panics
    /// Panics if `preds` is empty or `n_batch` is zero; callers stop the
    /// loop before the pool drains.
    #[must_use]
    pub fn select(
        &self,
        preds: &[Prediction],
        n_batch: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<usize> {
        assert!(!preds.is_empty(), "empty candidate pool");
        assert!(n_batch > 0, "zero batch");
        let n_batch = n_batch.min(preds.len());
        match *self {
            Strategy::Pwu { alpha } => {
                let scores = pwu_scores(preds, alpha);
                top_desc(&scores, n_batch)
            }
            Strategy::Pbus { fraction } => {
                let keep = biased_subset(preds, fraction, n_batch);
                // Most uncertain within the subset. Finite σ sorts first
                // (descending); a degenerate model's non-finite σ is
                // deprioritized instead of panicking the selection.
                let mut idx = keep;
                idx.sort_by(|&a, &b| {
                    let (sa, sb) = (preds[a].std, preds[b].std);
                    match (sa.is_finite(), sb.is_finite()) {
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        _ => sb.total_cmp(&sa),
                    }
                });
                idx.truncate(n_batch);
                idx
            }
            Strategy::Brs { fraction } => {
                let mut keep = biased_subset(preds, fraction, n_batch);
                // Uniform choice without replacement inside the subset.
                for i in 0..n_batch {
                    let j = rng.gen_range(i..keep.len());
                    keep.swap(i, j);
                }
                keep.truncate(n_batch);
                keep
            }
            Strategy::BestPerf => {
                let mut idx = argsort_by(preds, |p| p.mean);
                idx.truncate(n_batch);
                idx
            }
            Strategy::MaxU => {
                let scores: Vec<f64> = preds.iter().map(|p| p.std).collect();
                top_desc(&scores, n_batch)
            }
            Strategy::Uniform => {
                let mut idx: Vec<usize> = (0..preds.len()).collect();
                for i in 0..n_batch {
                    let j = rng.gen_range(i..idx.len());
                    idx.swap(i, j);
                }
                idx.truncate(n_batch);
                idx
            }
        }
    }
}

/// PWU scores (Eq. 1), entry-wise `σ / μ^(1−α)`.
///
/// Predicted means are floored at 1e-12: execution times are positive, and
/// the floor keeps the score finite even if a degenerate model predicts zero
/// or a negative time, so every mean at or below the floor scores alike for
/// equal σ. A NaN mean is not floored: it scores NaN, which
/// [`Strategy::select`] ranks last. Equal scores (an all-zero σ on a
/// constant surface, say) are taken from the highest pool index down, by
/// [`Strategy::Pwu`] as by [`Strategy::MaxU`].
///
/// ```
/// use pwu_core::strategy::pwu_scores;
/// use pwu_forest::forest::Prediction;
///
/// let preds = [
///     Prediction { mean: 1.0, std: 0.2 },  // fast, somewhat uncertain
///     Prediction { mean: 10.0, std: 0.2 }, // slow, same uncertainty
/// ];
/// let s = pwu_scores(&preds, 0.05);
/// assert!(s[0] > s[1], "the faster candidate scores higher");
/// ```
#[must_use]
pub fn pwu_scores(preds: &[Prediction], alpha: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} outside [0, 1]");
    preds
        .iter()
        .map(|p| {
            if p.mean.is_nan() {
                // `f64::max` would turn NaN into the floor and crown it.
                f64::NAN
            } else {
                p.std / p.mean.max(1e-12).powf(1.0 - alpha)
            }
        })
        .collect()
}

/// Indices of the `k` largest scores, descending, with NaN scores ranked
/// last so a degenerate model degrades the selection instead of leading it.
///
/// The order is total: numbers by [`f64::total_cmp`] descending, then the
/// NaNs with the sign bit set, then the other NaNs, each by `total_cmp`
/// descending; equal scores go from the highest pool index down. Only the
/// top `k` are sorted: a partial selection moves them to the front first.
fn top_desc(scores: &[f64], k: usize) -> Vec<usize> {
    let class = |s: f64| match (s.is_nan(), s.is_sign_negative()) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => 2,
    };
    let order = |&a: &usize, &b: &usize| {
        let (sa, sb) = (scores[a], scores[b]);
        class(sa)
            .cmp(&class(sb))
            .then_with(|| sb.total_cmp(&sa))
            .then_with(|| b.cmp(&a))
    };
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k, order);
        idx.truncate(k);
    }
    idx.sort_unstable_by(order);
    idx
}

/// The predicted top `fraction` of the pool (at least `n_batch` entries),
/// ascending by predicted mean. A NaN mean, of either sign, ranks after
/// every number, and the subset holds one only when fewer than `n_batch`
/// candidates have a numeric mean.
fn biased_subset(preds: &[Prediction], fraction: f64, n_batch: usize) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction {fraction} outside [0, 1]"
    );
    let numeric = preds.iter().filter(|p| !p.mean.is_nan()).count();
    let keep = ((preds.len() as f64 * fraction).ceil() as usize)
        .min(numeric)
        .max(n_batch)
        .min(preds.len());
    let mut idx = argsort_by(preds, |p| p.mean);
    idx.truncate(keep);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(mean: f64, std: f64) -> Prediction {
        Prediction { mean, std }
    }

    #[test]
    fn pwu_prefers_fast_among_equal_uncertainty() {
        // Same σ, different μ → smaller μ wins (the paper's motivating case).
        let preds = vec![pred(10.0, 1.0), pred(1.0, 1.0), pred(5.0, 1.0)];
        let s = Strategy::Pwu { alpha: 0.05 };
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(s.select(&preds, 1, &mut rng), vec![1]);
    }

    #[test]
    fn pwu_prefers_uncertain_among_equal_performance() {
        let preds = vec![pred(2.0, 0.1), pred(2.0, 5.0), pred(2.0, 1.0)];
        let s = Strategy::Pwu { alpha: 0.05 };
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(s.select(&preds, 1, &mut rng), vec![1]);
    }

    #[test]
    fn pwu_alpha_one_is_maxu() {
        let preds = vec![pred(1.0, 0.5), pred(100.0, 3.0), pred(10.0, 1.0)];
        let mut rng = Xoshiro256PlusPlus::new(0);
        let pwu = Strategy::Pwu { alpha: 1.0 }.select(&preds, 3, &mut rng);
        let maxu = Strategy::MaxU.select(&preds, 3, &mut rng);
        assert_eq!(pwu, maxu);
    }

    #[test]
    fn pwu_alpha_zero_is_coefficient_of_variation() {
        let preds = vec![pred(4.0, 2.0), pred(1.0, 0.9), pred(10.0, 3.0)];
        let scores = pwu_scores(&preds, 0.0);
        for (s, p) in scores.iter().zip(&preds) {
            assert!((s - p.std / p.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn pbus_picks_uncertainty_only_inside_top_fraction() {
        // Index 3 has huge σ but terrible predicted performance: PBUS must
        // ignore it (that is its documented limitation vs PWU).
        let preds = vec![
            pred(1.0, 0.1),
            pred(1.1, 0.4),
            pred(1.2, 0.2),
            pred(100.0, 50.0),
        ];
        let mut rng = Xoshiro256PlusPlus::new(0);
        let picked = Strategy::Pbus { fraction: 0.5 }.select(&preds, 1, &mut rng);
        assert_eq!(picked, vec![1]);
        // PWU at small alpha also skips it here (σ/μ of #3 = 0.5 > 0.36 of #1)
        // — but let uncertainty grow and PWU picks the uncertain one while
        // PBUS still cannot.
        let picked_pwu = Strategy::Pwu { alpha: 0.05 }.select(&preds, 1, &mut rng);
        assert_eq!(picked_pwu, vec![3]);
    }

    #[test]
    fn bestperf_is_greedy_on_mean() {
        let preds = vec![pred(3.0, 9.0), pred(1.0, 0.0), pred(2.0, 5.0)];
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(Strategy::BestPerf.select(&preds, 2, &mut rng), vec![1, 2]);
    }

    #[test]
    fn brs_selects_within_top_fraction() {
        let preds: Vec<Prediction> = (0..100).map(|i| pred(f64::from(i), 1.0)).collect();
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..50 {
            let picked = Strategy::Brs { fraction: 0.1 }.select(&preds, 1, &mut rng);
            assert!(preds[picked[0]].mean < 10.0, "picked {}", picked[0]);
        }
    }

    #[test]
    fn uniform_covers_the_pool() {
        let preds: Vec<Prediction> = (0..20).map(|i| pred(f64::from(i), 1.0)).collect();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            for i in Strategy::Uniform.select(&preds, 1, &mut rng) {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn batches_have_no_duplicates() {
        let preds: Vec<Prediction> = (0..50)
            .map(|i| pred(1.0 + f64::from(i % 7), 0.1 + f64::from(i % 5)))
            .collect();
        let mut rng = Xoshiro256PlusPlus::new(3);
        for s in Strategy::paper_set(0.05) {
            let batch = s.select(&preds, 10, &mut rng);
            let set: std::collections::HashSet<_> = batch.iter().collect();
            assert_eq!(set.len(), batch.len(), "{} produced duplicates", s.name());
        }
    }

    #[test]
    fn batch_clamps_to_pool_size() {
        let preds = vec![pred(1.0, 1.0), pred(2.0, 2.0)];
        let mut rng = Xoshiro256PlusPlus::new(4);
        for s in Strategy::paper_set(0.05) {
            assert_eq!(s.select(&preds, 10, &mut rng).len(), 2);
        }
    }

    #[test]
    fn nan_predictions_are_deprioritized_not_fatal() {
        // A degenerate model predicting (NaN, NaN) for one candidate: every
        // strategy must still return a full, duplicate-free batch and rank
        // the broken candidate last rather than panic or crown it.
        let preds = vec![
            pred(1.0, 0.5),
            pred(f64::NAN, f64::NAN),
            pred(2.0, 1.0),
            pred(3.0, 0.1),
        ];
        let mut rng = Xoshiro256PlusPlus::new(5);
        for s in Strategy::paper_set(0.05) {
            let batch = s.select(&preds, 2, &mut rng);
            assert_eq!(batch.len(), 2, "{} batch came up short", s.name());
            let set: std::collections::HashSet<_> = batch.iter().collect();
            assert_eq!(set.len(), 2, "{} produced duplicates", s.name());
        }
        assert_eq!(
            Strategy::BestPerf.select(&preds, 3, &mut rng),
            vec![0, 2, 3]
        );
        let maxu = Strategy::MaxU.select(&preds, 4, &mut rng);
        assert_eq!(*maxu.last().unwrap(), 1, "NaN σ must rank last");
        let pwu = Strategy::Pwu { alpha: 0.05 }.select(&preds, 4, &mut rng);
        assert_eq!(*pwu.last().unwrap(), 1, "NaN score must rank last");
        let pbus = Strategy::Pbus { fraction: 1.0 }.select(&preds, 3, &mut rng);
        assert_eq!(pbus, vec![2, 0, 3], "finite σ sorts first, descending");

        // A NaN mean with a finite σ must not be floored into the largest
        // score: it scores NaN and ranks last like the (NaN, NaN) row.
        let preds = vec![
            pred(1.0, 0.5),
            pred(f64::NAN, 0.5),
            pred(2.0, 1.0),
            pred(-3.0, 0.1),
        ];
        assert!(pwu_scores(&preds, 0.05)[1].is_nan());
        let pwu = Strategy::Pwu { alpha: 0.05 }.select(&preds, 4, &mut rng);
        assert_eq!(*pwu.last().unwrap(), 1, "a NaN mean must rank last");
    }

    /// A NaN mean ranks after every number whatever its sign bit. x86
    /// gives `0.0 / 0.0` the sign bit set, and the IEEE total order alone
    /// sorts that NaN before −∞, at the top of the mean ranking.
    #[test]
    fn a_nan_mean_of_either_sign_ranks_after_every_number() {
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        for nan in [f64::NAN, neg_nan] {
            let preds = vec![
                pred(1.0, 0.5),
                pred(nan, 5.0),
                pred(2.0, 1.0),
                pred(3.0, 0.1),
            ];
            let mut rng = Xoshiro256PlusPlus::new(8);
            let mut select = |s: Strategy, n_batch| s.select(&preds, n_batch, &mut rng);
            assert_eq!(select(Strategy::BestPerf, 1), vec![0], "{nan:?}");
            assert_eq!(select(Strategy::BestPerf, 4), vec![0, 2, 3, 1], "{nan:?}");
            assert_eq!(
                select(Strategy::Pbus { fraction: 0.25 }, 1),
                vec![0],
                "{nan:?}"
            );
            // The whole pool's top fraction holds only the numeric means, so
            // PBUS takes the most uncertain of those.
            assert_eq!(
                select(Strategy::Pbus { fraction: 1.0 }, 1),
                vec![2],
                "{nan:?}"
            );
            assert_eq!(
                select(Strategy::Pbus { fraction: 1.0 }, 3),
                vec![2, 0, 3],
                "{nan:?}"
            );
            for fraction in [0.5, 1.0] {
                for _ in 0..200 {
                    let picked = select(Strategy::Brs { fraction }, 1);
                    assert_ne!(picked, vec![1], "BRS {fraction} picked the NaN mean");
                }
            }
            // Fewer numeric means than the batch: the NaN row fills it.
            let mut all = select(Strategy::Pbus { fraction: 0.25 }, 4);
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3], "{nan:?}");
            // PWU and MaxU rank the NaN row last too: its PWU score is NaN,
            // and so is its σ here.
            let pwu = select(Strategy::Pwu { alpha: 0.05 }, 4);
            assert_eq!(pwu.last(), Some(&1), "{nan:?}");
            let nan_std = vec![pred(1.0, 0.5), pred(nan, nan), pred(2.0, 1.0)];
            let maxu = Strategy::MaxU.select(&nan_std, 3, &mut rng);
            assert_eq!(maxu, vec![2, 0, 1], "{nan:?}");
        }
    }

    #[test]
    fn degenerate_predictions_give_defined_batches() {
        let mut rng = Xoshiro256PlusPlus::new(6);
        // A one-point pool: every strategy takes the only candidate.
        for s in Strategy::paper_set(0.05) {
            for n_batch in [1, 3] {
                assert_eq!(s.select(&[pred(2.0, 0.3)], n_batch, &mut rng), vec![0]);
            }
        }
        // A constant surface: every σ is 0 and every μ equal. Every
        // strategy still fills the batch without duplicates, and the
        // score-ranked ones break the all-zero tie toward the highest
        // pool index.
        let flat = vec![pred(3.0, 0.0); 5];
        for s in Strategy::paper_set(0.05) {
            let batch = s.select(&flat, 2, &mut rng);
            let set: std::collections::HashSet<_> = batch.iter().collect();
            assert_eq!(set.len(), 2, "{} batch short or duplicated", s.name());
        }
        assert_eq!(
            Strategy::Pwu { alpha: 0.05 }.select(&flat, 2, &mut rng),
            vec![4, 3]
        );
        assert_eq!(Strategy::MaxU.select(&flat, 2, &mut rng), vec![4, 3]);
        // Means at or below the 1e-12 floor (zero, negative) all score as
        // the floor: equal σ gives bitwise equal scores.
        let low = [pred(0.0, 0.5), pred(-3.0, 0.5), pred(1e-12, 0.5)];
        let scores = pwu_scores(&low, 0.05);
        assert!(scores.iter().all(|s| s.to_bits() == scores[0].to_bits()));
        assert!(scores[0].is_finite());
    }

    /// The full-sort ranking `top_desc` replaced: argsort ascending (NaNs
    /// after every number), reverse, and rotate the NaNs back to the end.
    fn top_desc_by_full_sort(scores: &[f64], k: usize) -> Vec<usize> {
        let mut idx = argsort_by(scores, |&s| s);
        idx.reverse();
        let n_nan = idx.iter().take_while(|&&i| scores[i].is_nan()).count();
        idx.rotate_left(n_nan);
        idx.truncate(k);
        idx
    }

    #[test]
    fn partial_selection_matches_the_full_sort() {
        // Ties, both zeros, both infinities and NaNs of both signs with two
        // payloads each.
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            f64::from_bits((-f64::NAN).to_bits() | 1),
        ];
        let mut rng = Xoshiro256PlusPlus::new(0x70_9D);
        for case in 0..300 {
            let n = 1 + case % 40;
            let scores: Vec<f64> = (0..n)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            for k in 1..=n {
                let got = top_desc(&scores, k);
                assert_eq!(
                    got,
                    top_desc_by_full_sort(&scores, k),
                    "k {k} of {scores:?}"
                );
            }
        }
        assert!(top_desc(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn paper_set_has_six_distinctly_named_strategies() {
        let names: Vec<&str> = Strategy::paper_set(0.01)
            .iter()
            .map(Strategy::name)
            .collect();
        assert_eq!(
            names,
            vec!["PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Uniform"]
        );
    }
}
