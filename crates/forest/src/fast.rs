//! The fast fit mode's numeric split search ([`crate::hyper::FitMode::Fast`]).
//!
//! Both fit modes grow their trees through the one loop in [`crate::tree`];
//! the fit mode picks only how a node's best numeric split is found. The
//! exact search sorts each node's rows per candidate feature because bit
//! identity with the historical implementation requires reproducing the
//! unstable sort's tie permutation (DESIGN.md §9). This search drops that
//! requirement — its contract is *statistical* equivalence (DESIGN.md
//! §14): same trajectory RMSE within ε, same best-config quality, still a
//! pure function of the seed and invariant to `PWU_THREADS` width and deal
//! order. That buys back what §9 rules out for the exact search:
//!
//! - **Counting-sort split search** for columns with at most
//!   `COUNTING_MAX` (256) distinct values (every numeric column of every
//!   built-in target: the widest, an unroll factor, has 31): bucket
//!   `(Σy, count)` by dense rank, then scan the rank range in ascending
//!   order — `O(n_seg + R)` per candidate with no sort at all. The bucket
//!   store is SIMD-friendly structure-of-arrays (flat `u32` counts and
//!   `f64` sums, no per-bucket branches in the accumulate loop), and tiny
//!   segments gather onto the stack and insertion-sort instead. Both
//!   strategies fold each rank group's targets in segment order and scan
//!   ranks ascending, so they are bitwise interchangeable; the size
//!   boundary is calibrated by the `split_calib` micro-bench (`pwu-bench`).
//!   Gains multiply by count reciprocals instead of dividing.
//! - **A stable per-node sort** for wider columns: the growth loop sorts
//!   the node's packed `(rank, row)` words stably by rank and hands them to
//!   the exact scanner, [`crate::split::best_numeric_split_ranked`]. Ties
//!   stay in segment order, which is exactly the order a column presorted
//!   once per tree reaches after being partitioned down the nest (the
//!   scikit-learn scheme).
//!
//! Determinism: every choice above is a deterministic function of the
//! training data and the per-tree RNG stream (forked from the fit seed by
//! tree index, exactly as for the exact search), and no intermediate
//! depends on thread schedule, so fast fits are byte-identical across pool
//! widths and sanitizer deal orders — only *bitwise different from Exact*,
//! because target sums accumulate in bucket/rank order instead of the
//! historical tie order.

use pwu_space::FeatureMatrix;

use crate::split::{Split, SplitRule};
use crate::tree::RegressionTree;

/// Mean within-leaf variance across the ensemble: `Σ var·count / Σ count`
/// over every leaf of every tree. This is the irreducible-noise diagnostic
/// the statistical-equivalence suite uses to compare engines (impure leaves
/// indicate under-splitting; a fast fit must not be systematically more
/// impure than an exact fit). Both sums fold sequentially in tree order,
/// over per-tree sums each tree folded in preorder when it was compiled.
pub(crate) fn mean_leaf_variance(trees: &[RegressionTree]) -> f64 {
    if trees.is_empty() {
        return 0.0;
    }
    let weighted: f64 = trees.iter().map(|t| t.weighted_leaf_variance).sum();
    let count: f64 = trees.iter().map(|t| t.leaf_count_total).sum();
    if count == 0.0 {
        0.0
    } else {
        weighted / count
    }
}

/// Rank-cardinality ceiling for the counting-sort split search. At or
/// below this, bucketing by rank beats any sort; wider columns take the
/// growth loop's stable per-node sort.
const COUNTING_MAX: usize = 256;

/// Per-fit tables of the counting-sort search, shared by every tree (they
/// depend only on the training matrix and the trees' common row count, not
/// on the bootstrap sample).
pub(crate) struct CountingTables {
    /// Per-column ascending distinct values indexed by rank — the threshold
    /// midpoint source. Empty for categorical columns and for numeric
    /// columns with more than [`COUNTING_MAX`] distinct values.
    rank_value: Vec<Vec<f64>>,
    /// Largest counting-column cardinality (bucket scratch size).
    max_ranks: usize,
    /// Count reciprocals `1/k` for `k` in `0..=m`, `m` the rows each tree
    /// grows on, for the gain scan (`inv[0]` is a never-read placeholder:
    /// counts start at 1).
    inv: Vec<f64>,
}

impl CountingTables {
    /// Builds the tables from the fit's dense rank tables (`ranks[f]` is
    /// empty for a categorical column) for trees grown on `m` rows each.
    pub(crate) fn new(x: &FeatureMatrix, ranks: &[Vec<u32>], m: usize) -> Self {
        let mut max_ranks = 0;
        let rank_value = ranks
            .iter()
            .enumerate()
            .map(|(f, ranks_f)| {
                let nr = ranks_f.iter().max().map_or(0, |&top| top as usize + 1);
                if nr > COUNTING_MAX {
                    return Vec::new();
                }
                max_ranks = max_ranks.max(nr);
                let mut vals = vec![0.0f64; nr];
                for (&k, &v) in ranks_f.iter().zip(x.column(f)) {
                    vals[k as usize] = v;
                }
                vals
            })
            .collect();
        Self {
            rank_value,
            max_ranks,
            inv: (0..=m)
                .map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 })
                .collect(),
        }
    }

    /// The search state of one tree.
    pub(crate) fn for_tree(&self) -> Counting<'_> {
        Counting {
            tables: self,
            scratch: CountScratch::new(self.max_ranks),
        }
    }
}

/// One tree's counting-sort search: the fit's tables plus the tree's
/// bucket scratch.
pub(crate) struct Counting<'a> {
    tables: &'a CountingTables,
    scratch: CountScratch,
}

impl Counting<'_> {
    /// Whether column `f` is searched by counting sort (otherwise the growth
    /// loop sorts it stably).
    pub(crate) fn covers(&self, f: usize) -> bool {
        !self.tables.rank_value[f].is_empty()
    }

    /// Best threshold split of the node `seg` (at least `2 · min_leaf`
    /// rows) on counting column `f`. Per-node **adaptive strategy**, picked
    /// by segment size — a pure function of the training data, so the
    /// dispatch is schedule-free and, because both paths fold each rank
    /// group's targets in segment order and scan ranks ascending,
    /// bitwise-neutral (see `adaptive_strategies_agree_bitwise`):
    ///
    /// - `n <= SMALL_MAX`: gather onto the stack, insertion-sort
    ///   ([`best_split_counting_small`]). Most nodes of a grown tree.
    /// - otherwise: branch-free accumulate into the flat `SoA` arrays,
    ///   full-range ascending scan ([`best_split_counting_dense`]).
    ///
    /// Gain/threshold/boundary semantics mirror
    /// [`crate::split::best_numeric_split_ranked`] (midpoint threshold,
    /// boundary rank covering midpoint rounding); only the `f64`
    /// accumulation order differs, which is exactly the freedom the fast
    /// contract grants.
    ///
    /// Sets `*constant` when the column proved constant within the segment
    /// (a single present rank).
    ///
    /// The gain formula multiplies by table reciprocals instead of dividing
    /// (an f64 divide costs an order of magnitude more than a multiply, and
    /// the boundary scan is divide-bound). The last-ulp difference from true
    /// division is within the fast contract's freedom — still a pure
    /// function of the data, just not the exact engine's rounding.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn best_split(
        &mut self,
        f: usize,
        ranks_f: &[u32],
        y: &[f64],
        seg: &[u32],
        total: f64,
        min_leaf: usize,
        constant: &mut bool,
    ) -> Option<(Split, u32)> {
        let rank_value = &self.tables.rank_value[f];
        let inv = &self.tables.inv;
        if seg.len() <= SMALL_MAX {
            best_split_counting_small::<SMALL_MAX>(
                rank_value, ranks_f, y, seg, total, f, min_leaf, inv, constant,
            )
        } else {
            best_split_counting_dense(
                rank_value,
                ranks_f,
                y,
                seg,
                total,
                f,
                min_leaf,
                inv,
                &mut self.scratch,
                constant,
            )
        }
    }
}

/// Reusable split-search scratch, structure-of-arrays: the dense path
/// accumulates into the flat `sums`/`counts` prefix (plain `f64`/`u32`
/// arrays — the clear is a memset, the scan streams two homogeneous
/// arrays, and the accumulate loop carries no per-bucket branch).
struct CountScratch {
    /// Per-rank target sums (first `nr` entries per use).
    sums: Vec<f64>,
    /// Per-rank row counts (first `nr` entries per use).
    counts: Vec<u32>,
}

impl CountScratch {
    fn new(n: usize) -> Self {
        Self {
            sums: vec![0.0; n],
            counts: vec![0; n],
        }
    }
}

/// [`Counting::best_split`] for segments of more than [`SMALL_MAX`] rows:
/// clear the first `nr` entries of the flat `SoA` arrays outright and run
/// the accumulation loop with no per-bucket branch at all, then scan the
/// whole (small) rank range skipping empty buckets. The `O(nr)` clear and
/// scan stream flat arrays and are amortized by the `O(n)` segment pass
/// they unlock, and the ascending-rank fold order is bit-identical to the
/// small strategy's, so the dispatch (on data-deterministic sizes alone)
/// never changes the fitted tree.
#[allow(clippy::too_many_arguments)]
fn best_split_counting_dense(
    rank_value: &[f64],
    ranks_f: &[u32],
    y: &[f64],
    seg: &[u32],
    total: f64,
    feature: usize,
    min_leaf: usize,
    inv: &[f64],
    scratch: &mut CountScratch,
    constant: &mut bool,
) -> Option<(Split, u32)> {
    let n = seg.len();
    let nr = rank_value.len();
    let sums = &mut scratch.sums[..nr];
    let counts = &mut scratch.counts[..nr];
    sums.fill(0.0);
    counts.fill(0);
    for &r in seg {
        let k = ranks_f[r as usize] as usize;
        sums[k] += y[r as usize];
        counts[k] += 1;
    }
    let base = total * total * inv[n];
    let mut left_sum = 0.0;
    let mut left_cnt = 0usize;
    let mut prev: Option<u32> = None;
    let mut best: Option<(f64, f64, u32)> = None; // (gain, threshold, boundary)
    let mut best_gain = 0.0;
    for (ki, (&s, &c)) in sums.iter().zip(counts.iter()).enumerate() {
        if c == 0 {
            continue;
        }
        let k = ki as u32;
        if let Some(p) = prev {
            // Boundary between adjacent present ranks p and k; the left
            // side holds everything accumulated so far (ranks <= p).
            if left_cnt >= min_leaf && n - left_cnt >= min_leaf {
                let right_sum = total - left_sum;
                let gain = left_sum * left_sum * inv[left_cnt]
                    + right_sum * right_sum * inv[n - left_cnt]
                    - base;
                if gain > best_gain {
                    let xl = rank_value[p as usize];
                    let xr = rank_value[ki];
                    let threshold = 0.5 * (xl + xr);
                    // The midpoint can round onto xr itself, in which
                    // case xr's whole rank block routes left under `<=`.
                    let boundary = if xr <= threshold { k } else { p };
                    best = Some((gain, threshold, boundary));
                    best_gain = gain;
                }
            }
        }
        left_sum += s;
        left_cnt += c as usize;
        prev = Some(k);
    }
    debug_assert_eq!(left_cnt, n);
    // A single present rank means the column is constant here (only
    // worth re-checking when no split came out of the scan).
    if best.is_none() && counts.iter().filter(|&&c| c > 0).count() < 2 {
        *constant = true;
    }
    best.map(|(gain, threshold, boundary)| {
        (
            Split {
                feature,
                rule: SplitRule::Threshold(threshold),
                gain,
            },
            boundary,
        )
    })
}

/// Segment-size ceiling for the gather-and-insertion-sort search. Most
/// nodes of a fully grown tree are this small, and for them the flat-array
/// clear and scan cost more than touching every element twice on the
/// stack. Kept low: the insertion sort is quadratic, so past a dozen rows
/// the dense strategy wins (`split_calib` micro-bench).
const SMALL_MAX: usize = 8;

/// [`Counting::best_split`] for segments of at most [`SMALL_MAX`] rows:
/// gather `(rank, y)` pairs into a stack buffer, stable insertion sort
/// by rank, then [`grouped_scan`]. The stable sort preserves segment
/// order within each rank, so every group sum — and therefore every
/// gain — folds in exactly the order the dense strategy uses.
///
/// The stack capacity is a const parameter so the `split_calib`
/// micro-bench can time this path past the production cutoff; the
/// engine always instantiates `CAP = SMALL_MAX`.
#[allow(clippy::too_many_arguments)]
fn best_split_counting_small<const CAP: usize>(
    rank_value: &[f64],
    ranks_f: &[u32],
    y: &[f64],
    seg: &[u32],
    total: f64,
    feature: usize,
    min_leaf: usize,
    inv: &[f64],
    constant: &mut bool,
) -> Option<(Split, u32)> {
    let n = seg.len();
    let mut small = [(0u32, 0.0f64); CAP];
    for (slot, &r) in small.iter_mut().zip(seg) {
        *slot = (ranks_f[r as usize], y[r as usize]);
    }
    for i in 1..n {
        let it = small[i];
        let mut j = i;
        while j > 0 && small[j - 1].0 > it.0 {
            small[j] = small[j - 1];
            j -= 1;
        }
        small[j] = it;
    }
    if small[0].0 == small[n - 1].0 {
        *constant = true; // column constant within the node
        return None;
    }
    grouped_scan(&small[..n], rank_value, total, feature, min_leaf, inv)
}

/// Boundary scan over rank-sorted `(rank, y)` pairs: fold each rank
/// group's targets in pair order, evaluate the gain at every boundary
/// between adjacent present ranks (the dense path scans its flat arrays
/// directly). The fold order — group sums in pair order, groups
/// ascending by rank — is the order both strategies must reproduce to
/// stay interchangeable.
fn grouped_scan(
    sorted: &[(u32, f64)],
    rank_value: &[f64],
    total: f64,
    feature: usize,
    min_leaf: usize,
    inv: &[f64],
) -> Option<(Split, u32)> {
    let n = sorted.len();
    let base = total * total * inv[n];
    let mut left_sum = 0.0;
    let mut best: Option<(f64, f64, u32)> = None; // (gain, threshold, boundary)
    let mut best_gain = 0.0;
    let mut i = 0;
    while i < n {
        let p = sorted[i].0;
        let mut group_sum = 0.0;
        while i < n && sorted[i].0 == p {
            group_sum += sorted[i].1;
            i += 1;
        }
        if i == n {
            break; // highest rank: no boundary to its right
        }
        left_sum += group_sum;
        let left_cnt = i;
        if left_cnt >= min_leaf && n - left_cnt >= min_leaf {
            let k = sorted[i].0;
            let right_sum = total - left_sum;
            let gain = left_sum * left_sum * inv[left_cnt]
                + right_sum * right_sum * inv[n - left_cnt]
                - base;
            if gain > best_gain {
                let xl = rank_value[p as usize];
                let xr = rank_value[k as usize];
                let threshold = 0.5 * (xl + xr);
                // The midpoint can round onto xr itself, in which
                // case xr's whole rank block routes left under `<=`.
                let boundary = if xr <= threshold { k } else { p };
                best = Some((gain, threshold, boundary));
                best_gain = gain;
            }
        }
    }
    best.map(|(gain, threshold, boundary)| {
        (
            Split {
                feature,
                rule: SplitRule::Threshold(threshold),
                gain,
            },
            boundary,
        )
    })
}

/// Calibration-only surface for the `split_calib` micro-bench
/// (`pwu-bench`): wraps both split-search strategies so the bench times
/// the *real* engine code over an `(n_seg, n_ranks)` grid, rather than
/// a re-implementation that could drift. Hidden — not a crate API; the
/// signatures mirror the private functions minus the `feature` id.
#[doc(hidden)]
pub mod calib {
    use super::{best_split_counting_dense, best_split_counting_small, CountScratch, Split};

    pub struct Scratch(CountScratch);

    impl Scratch {
        #[must_use]
        pub fn new(max_ranks: usize) -> Self {
            Self(CountScratch::new(max_ranks))
        }
    }

    /// The production small-path cutoff.
    pub const SMALL_MAX: usize = super::SMALL_MAX;

    #[must_use]
    pub fn small<const CAP: usize>(
        rank_value: &[f64],
        ranks_f: &[u32],
        y: &[f64],
        seg: &[u32],
        total: f64,
        min_leaf: usize,
        inv: &[f64],
    ) -> Option<(Split, u32)> {
        let mut constant = false;
        best_split_counting_small::<CAP>(
            rank_value,
            ranks_f,
            y,
            seg,
            total,
            0,
            min_leaf,
            inv,
            &mut constant,
        )
    }

    #[must_use]
    #[allow(clippy::too_many_arguments)] // mirrors the engine signature
    pub fn dense(
        rank_value: &[f64],
        ranks_f: &[u32],
        y: &[f64],
        seg: &[u32],
        total: f64,
        min_leaf: usize,
        inv: &[f64],
        scratch: &mut Scratch,
    ) -> Option<(Split, u32)> {
        let mut constant = false;
        best_split_counting_dense(
            rank_value,
            ranks_f,
            y,
            seg,
            total,
            0,
            min_leaf,
            inv,
            &mut scratch.0,
            &mut constant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_stats::Xoshiro256PlusPlus;

    /// Both split-search strategies, run on the same segment, must return
    /// bitwise-identical splits — the property that makes the per-node
    /// adaptive dispatch bitwise-neutral. The small strategy runs with a
    /// stack big enough for every size here, past its production cutoff.
    #[test]
    fn adaptive_strategies_agree_bitwise() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let nr = 32usize;
        let rank_value: Vec<f64> = (0..nr).map(|k| k as f64 * 1.5).collect();
        // 64 rows over 32 ranks; targets correlated with rank + noise.
        let n_rows = 64usize;
        let ranks_f: Vec<u32> = (0..n_rows)
            .map(|_| (rng.next() % nr as u64) as u32)
            .collect();
        let y: Vec<f64> = ranks_f
            .iter()
            .map(|&k| f64::from(k) * 0.3 + rng.next_f64())
            .collect();
        let inv: Vec<f64> = (0..=n_rows)
            .map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 })
            .collect();
        let mut scratch = CountScratch::new(nr);
        // Segment sizes below SMALL_MAX, below the rank count, and above it.
        for n_seg in [6usize, 20, 48] {
            let seg: Vec<u32> = (0..n_seg as u32).collect();
            let total: f64 = seg.iter().map(|&r| y[r as usize]).sum();
            let (mut small_const, mut dense_const) = (false, false);
            let small = best_split_counting_small::<64>(
                &rank_value,
                &ranks_f,
                &y,
                &seg,
                total,
                0,
                1,
                &inv,
                &mut small_const,
            );
            let dense = best_split_counting_dense(
                &rank_value,
                &ranks_f,
                &y,
                &seg,
                total,
                0,
                1,
                &inv,
                &mut scratch,
                &mut dense_const,
            );
            assert_eq!(
                small_const, dense_const,
                "constant flag mismatch (n={n_seg})"
            );
            match (small, dense) {
                (None, None) => {}
                (Some((a, ba)), Some((b, bb))) => {
                    assert_eq!(a.feature, b.feature, "n={n_seg}");
                    assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "n={n_seg}");
                    assert_eq!(a.rule, b.rule, "n={n_seg}");
                    assert_eq!(ba, bb, "boundary mismatch (n={n_seg})");
                }
                _ => panic!("split presence mismatch (n={n_seg})"),
            }
        }
    }

    /// A constant column is flagged by every strategy.
    #[test]
    fn constant_column_flagged_by_all_strategies() {
        let nr = 16usize;
        // A 40-row column cycling through `nr` values; its rank table
        // gives the search `nr` rank values, and the column searched below
        // is constant.
        let ranks: Vec<u32> = (0..40).map(|i| i % nr as u32).collect();
        let col = ranks.iter().map(|&k| f64::from(k)).collect();
        let x = FeatureMatrix::from_columns(40, vec![col]);
        let tables = CountingTables::new(&x, &[ranks], 40);
        let mut counting = tables.for_tree();
        let ranks_f = vec![3u32; 40];
        let y: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.1).collect();
        for n_seg in [6usize, 12, 40] {
            let seg: Vec<u32> = (0..n_seg as u32).collect();
            let total: f64 = seg.iter().map(|&r| y[r as usize]).sum();
            let mut c = false;
            let s = counting.best_split(0, &ranks_f, &y, &seg, total, 1, &mut c);
            assert!(s.is_none(), "n={n_seg}");
            assert!(c, "constant not flagged at n={n_seg}");
        }
    }
}
