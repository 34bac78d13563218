//! Ranking, ordering and rank-correlation utilities.
//!
//! Performance rankings are central to the paper: "high-performance" means
//! the top `α` fraction of configurations ordered by execution time, and both
//! the RMSE@α metric and the BRS/PBUS strategies operate on ranked subsets.

/// Returns the indices that sort `xs` ascending by the given key.
///
/// Ties keep their original relative order (stable sort). Numeric keys are
/// compared with [`f64::total_cmp`], and every `NaN` key sorts after every
/// number (after `+∞`), whatever its sign bit, instead of panicking.
#[must_use]
pub fn argsort_by<T>(xs: &[T], key: impl Fn(&T) -> f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    // total_cmp gives the IEEE total order: identical to partial_cmp on
    // finite keys, and total, so the sort never panics. It sorts a NaN with
    // its sign bit set (what x86 gives for 0.0 / 0.0) before −∞, so those
    // leading entries are rotated to the end: degenerate model output must
    // degrade a ranking, never lead it.
    idx.sort_by(|&a, &b| key(&xs[a]).total_cmp(&key(&xs[b])));
    let leading_nans = idx.iter().take_while(|&&i| key(&xs[i]).is_nan()).count();
    idx.rotate_left(leading_nans);
    idx
}

/// Returns the indices of the `k` smallest values of `xs` (ascending order).
///
/// `k` is clamped to `xs.len()`. Uses a full sort, which is fine for the pool
/// sizes (≤ 10⁴) this workspace handles.
#[must_use]
pub fn top_k_indices(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx = argsort_by(xs, |&x| x);
    idx.truncate(k.min(xs.len()));
    idx
}

/// Fractional ranks (1-based) with ties assigned the average rank.
///
/// `NaN` values rank after every finite value (see [`argsort_by`]); each
/// `NaN` gets its own rank since `NaN != NaN`.
#[must_use]
pub fn ranks_average(xs: &[f64]) -> Vec<f64> {
    let order = argsort_by(xs, |&x| x);
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        // Find the run of equal values.
        let mut j = i + 1;
        while j < order.len() && xs[order[j]] == xs[order[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j averaged.
        let avg = (i + 1 + j) as f64 / 2.0;
        for &o in &order[i..j] {
            ranks[o] = avg;
        }
        i = j;
    }
    ranks
}

/// Spearman rank correlation between two equal-length samples.
///
/// Returns `NaN` when either sample is constant or has fewer than two
/// elements.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs equal-length samples");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let rx = ranks_average(xs);
    let ry = ranks_average(ys);
    pearson(&rx, &ry)
}

/// Pearson correlation coefficient.
///
/// Returns `NaN` when either sample is constant or has fewer than two
/// elements.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs equal-length samples");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return f64::NAN;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_orders_ascending() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(argsort_by(&xs, |&x| x), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_sends_nan_last_without_panicking() {
        let xs = [f64::NAN, 1.0, f64::INFINITY, -1.0, f64::NAN];
        let idx = argsort_by(&xs, |&x| x);
        assert_eq!(&idx[..3], &[3, 1, 2], "finite keys keep their order");
        assert_eq!(&idx[3..], &[0, 4], "NaN keys rank last, stably");
    }

    #[test]
    fn argsort_sends_nan_of_either_sign_last() {
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let xs = [1.0, neg_nan, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0];
        let idx = argsort_by(&xs, |&x| x);
        assert_eq!(&idx[..4], &[2, 4, 5, 0], "numbers keep the total order");
        assert_eq!(&idx[4..], &[3, 1], "NaN keys of either sign rank last");
    }

    #[test]
    fn argsort_is_stable_on_ties() {
        let xs = [(1.0, 'a'), (1.0, 'b'), (0.0, 'c')];
        let idx = argsort_by(&xs, |t| t.0);
        assert_eq!(idx, vec![2, 0, 1]);
    }

    #[test]
    fn top_k_selects_smallest() {
        let xs = [5.0, 0.5, 3.0, 1.0];
        assert_eq!(top_k_indices(&xs, 2), vec![1, 3]);
        // k larger than len clamps
        assert_eq!(top_k_indices(&xs, 10).len(), 4);
        assert!(top_k_indices(&xs, 0).is_empty());
    }

    #[test]
    fn ranks_handle_ties_by_average() {
        let xs = [10.0, 20.0, 20.0, 30.0];
        assert_eq!(ranks_average(&xs), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 100.0, 1000.0, 10000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let yr: Vec<f64> = ys.iter().rev().copied().collect();
        assert!((spearman(&xs, &yr) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_constant_is_nan() {
        assert!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn pearson_linear_is_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }
}
