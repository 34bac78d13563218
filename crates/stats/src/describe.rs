//! Descriptive statistics over slices of `f64`.

/// Arithmetic mean. Returns `NaN` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of strictly positive values (the right average for the
/// speedup ratios of Fig 7). Returns `NaN` for an empty slice.
///
/// # Panics
/// Panics if any value is non-positive.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean needs positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Population variance (divides by `n`). Returns `NaN` for an empty slice.
///
/// Computed with the two-pass algorithm for numerical stability.
#[must_use]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns `NaN` for an empty slice.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample variance (divides by `n − 1`). Returns `NaN` for fewer than two
/// observations.
#[must_use]
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Linear-interpolation quantile (type 7, the numpy/R default).
///
/// `q` must lie in `[0, 1]`. Returns `NaN` for an empty slice. Values are
/// ordered by `f64::total_cmp`, so `NaN`s sort deterministically to the
/// high end instead of panicking; callers that must reject `NaN` readings
/// do so upstream (the annotator treats them as bad readings).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Same as [`quantile`] but assumes `sorted` is already ascending.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median (50 % quantile). Returns `NaN` for an empty slice. Never panics:
/// values are ordered by `f64::total_cmp`, as [`quantile`] orders them.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Symmetrically trimmed mean: sort, drop `⌊n·trim⌋` observations from each
/// end, average the rest. `trim = 0` is the plain mean; `trim` approaching
/// 0.5 approaches the median. Returns `NaN` for an empty slice.
///
/// This is the classic robust location estimate for repeat-averaged
/// wall-clock timings: a few daemon-wakeup spikes land in the trimmed tail
/// and never touch the estimate.
///
/// Values are ordered by `f64::total_cmp` (`NaN`s sort high,
/// deterministically).
///
/// # Panics
/// Panics if `trim` is outside `[0, 0.5)`.
#[must_use]
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    assert!(
        (0.0..0.5).contains(&trim),
        "trim fraction {trim} outside [0, 0.5)"
    );
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (xs.len() as f64 * trim).floor() as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Median absolute deviation (unscaled): `median(|x − median(x)|)`.
/// Returns `NaN` for an empty slice.
///
/// # Panics
/// Panics if any value is `NaN`.
#[must_use]
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = median(xs);
    let deviations: Vec<f64> = xs.iter().map(|&x| (x - m).abs()).collect();
    median(&deviations)
}

/// Mean of the observations within `k` MADs of the median (MAD outlier
/// rejection). When the MAD is zero (half the sample identical) only exact
/// ties with the median survive, which is the conventional degenerate-case
/// behaviour. Returns `NaN` for an empty slice.
///
/// # Panics
/// Panics if `k` is negative or any value is `NaN`.
#[must_use]
pub fn mad_filtered_mean(xs: &[f64], k: f64) -> f64 {
    assert!(k >= 0.0, "MAD multiplier {k} must be non-negative");
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = median(xs);
    let d = mad(xs);
    let kept: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|&x| (x - m).abs() <= k * d)
        .collect();
    if kept.is_empty() {
        // Possible only when the interpolated median is not an element
        // (even n) and the band is empty; the median is the honest answer.
        return m;
    }
    mean(&kept)
}

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Summary {
    /// Computes the summary of `xs`. Returns `None` for an empty slice.
    #[must_use]
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: xs.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(xs),
            std: std_dev(xs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((sample_variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 0.37), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_matches_components() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let s = Summary::of(&xs).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn median_and_trimmed_mean_resist_spikes() {
        // 10 honest readings around 1.0 plus two 100× daemon spikes.
        let mut xs = vec![0.98, 1.01, 0.99, 1.02, 1.0, 1.01, 0.97, 1.03, 1.0, 0.99];
        xs.push(100.0);
        xs.push(120.0);
        assert!((median(&xs) - 1.005).abs() < 0.01);
        assert!((trimmed_mean(&xs, 0.2) - 1.0).abs() < 0.02);
        // The plain mean is dragged far away by the spikes.
        assert!(mean(&xs) > 15.0);
        // A NaN reading sorts high like a spike; the median does not panic.
        xs.push(f64::NAN);
        assert!((median(&xs) - 1.01).abs() < 0.01);
    }

    #[test]
    fn trimmed_mean_zero_trim_is_mean() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(trimmed_mean(&xs, 0.0), mean(&xs));
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn trimmed_mean_rejects_half_trim() {
        let _ = trimmed_mean(&[1.0, 2.0], 0.5);
    }

    #[test]
    fn mad_and_filtered_mean() {
        let xs = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 50.0];
        assert!((mad(&xs) - 0.1).abs() < 1e-9);
        // The 50.0 outlier sits hundreds of MADs out; rejection recovers ~1.
        let robust = mad_filtered_mean(&xs, 5.0);
        assert!((robust - 1.0).abs() < 0.05, "robust mean {robust}");
        assert!(mean(&xs) > 7.0);
        // Degenerate: MAD 0 keeps exact ties with the median.
        assert_eq!(mad_filtered_mean(&[2.0, 2.0, 2.0, 9.0], 3.0), 2.0);
        // Empty band falls back to the median.
        assert_eq!(mad_filtered_mean(&[1.0, 2.0], 0.0), 1.5);
        assert!(mad_filtered_mean(&[], 1.0).is_nan());
        assert!(mad(&[]).is_nan());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn variance_is_translation_invariant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1001.0, 1002.0, 1003.0];
        assert!((variance(&xs) - variance(&ys)).abs() < 1e-9);
    }
}
