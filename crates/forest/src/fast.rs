//! The statistically-equivalent fast fit engine ([`crate::hyper::FitMode::Fast`]).
//!
//! The exact engine ([`crate::tree`]) sorts each node's rows per candidate
//! feature because bit identity with the historical implementation requires
//! reproducing the unstable sort's tie permutation (DESIGN.md §9). This
//! engine drops that requirement — its contract is *statistical*
//! equivalence (DESIGN.md §14): same trajectory RMSE within ε, same
//! best-config quality, still a pure function of the seed and invariant to
//! `PWU_THREADS` width and deal order. That buys back the two schemes §9
//! rules out for the exact path:
//!
//! - **Counting-sort split search** for low-cardinality columns (the common
//!   case for tuning spaces, whose parameters have a handful of levels):
//!   bucket `(Σy, count)` by dense rank, then scan the rank range in
//!   ascending order — `O(n_seg + R)` per candidate with no sort at all.
//!   The bucket store is SIMD-friendly structure-of-arrays (flat `u32`
//!   counts and `f64` sums, no per-bucket branches in the accumulate loop),
//!   and the strategy adapts **per node** to the segment size (a pure
//!   function of the data, so dispatch never depends on schedule): tiny
//!   segments gather onto the stack and insertion-sort, segments within a
//!   calibrated factor of the rank range accumulate into the flat arrays
//!   outright, and much-sparser segments pack `(rank, position)` words and
//!   `sort_unstable` them instead of touching the whole rank range. All
//!   three fold each rank group's targets in segment order and scan ranks
//!   ascending, so they are bitwise interchangeable; the size boundaries
//!   are calibrated by the `split_calib` micro-bench (`pwu-bench`).
//! - **Presorted-per-column partition reuse** (the scikit-learn scheme) for
//!   high-cardinality columns: each such column's row order is counting-
//!   sorted once per tree and stably partitioned down the nest in lockstep
//!   with the node buffer, so split search is a linear scan of an
//!   already-sorted segment (packed and handed to the exact scanner,
//!   [`best_numeric_split_ranked`], with the per-node sort skipped).
//!
//! Row routing uses **f32 rank tables**: dense ranks are far below 2²⁴ so
//! the `f32` copy is exact, the partition predicate is one 4-byte compare —
//! half the bandwidth of the `f64` column — and the branchless
//! [`stable_partition`] scan over it vectorizes cleanly.
//!
//! Determinism: every choice above is a deterministic function of the
//! training data and the per-tree RNG stream (forked from the fit seed by
//! tree index, exactly as the exact engine does), and no intermediate
//! depends on thread schedule, so fast fits are byte-identical across pool
//! widths and sanitizer deal orders — only *bitwise different from Exact*,
//! because target sums accumulate in bucket/rank order instead of the
//! historical tie order.

use rayon::prelude::*;

use crate::tree::RegressionTree;

/// Mean within-leaf variance across the ensemble: `Σ var·count / Σ count`
/// over every leaf of every tree. This is the irreducible-noise diagnostic
/// the statistical-equivalence suite uses to compare engines (impure leaves
/// indicate under-splitting; a fast fit must not be systematically more
/// impure than an exact fit).
///
/// The per-tree terms are reduced on the `PWU_THREADS` pool. The reduction
/// is deterministic despite the `float-reduce` audit findings on these
/// lines: the shim's `collect` is index-ordered, so the final sequential
/// `sum` always folds in tree order (see `audit.allow.toml`).
pub(crate) fn mean_leaf_variance(trees: &[RegressionTree]) -> f64 {
    if trees.is_empty() {
        return 0.0;
    }
    let weighted: f64 = trees.par_iter().map(RegressionTree::weighted_leaf_variance).collect::<Vec<f64>, f64>().iter().sum();
    let count: f64 = trees.par_iter().map(RegressionTree::leaf_count_total).collect::<Vec<f64>, f64>().iter().sum();
    if count == 0.0 {
        0.0
    } else {
        weighted / count
    }
}

pub(crate) use engine::{context_for, fit_tree_fast};

#[doc(hidden)]
pub use engine::calib;

mod engine {
    use rand::Rng;

    use pwu_space::{FeatureKind, FeatureMatrix};
    use pwu_stats::Xoshiro256PlusPlus;

    use crate::hyper::{FitMode, ForestConfig};
    use crate::split::{
        best_categorical_split, best_numeric_split_ranked, RankRow, Split, SplitRule, SplitScratch,
    };
    use crate::tree::{leaf_stats, node_stats, stable_partition, Node, RegressionTree};

    /// Rank-cardinality ceiling for the counting-sort split search. At or
    /// below this, bucketing by rank beats any sort; above it, the column
    /// gets a presorted row order partitioned down the nest instead. Tuning
    /// spaces rarely exceed a few dozen levels per parameter, so presorted
    /// columns are the exception (continuous synthetic features, mostly).
    const COUNTING_MAX: u32 = 256;

    /// How one column's splits are searched (fixed per forest fit).
    enum ColumnPlan {
        /// Node-order category sums, Fisher scan (same as the exact engine).
        Categorical { n_categories: usize },
        /// Epoch-stamped rank buckets, ascending-rank scan.
        Counting,
        /// Per-tree presorted row order, stably partitioned at every split;
        /// `slot` indexes the tree's order table.
        Presorted { slot: usize },
    }

    /// Per-forest tables shared by every tree of a fast fit (they depend
    /// only on the training matrix, not on the bootstrap sample).
    pub(crate) struct FastContext {
        plans: Vec<ColumnPlan>,
        /// Per-column distinct-rank count (0 for categorical columns).
        n_ranks: Vec<u32>,
        /// Per-column ascending distinct values indexed by rank (counting
        /// columns only) — the threshold midpoint source.
        rank_value: Vec<Vec<f64>>,
        /// Per-column f32 rank per row (numeric columns). Dense ranks are
        /// < 2²⁴, so the f32 copy is exact and rank comparisons over it are
        /// exactly the integer comparisons, at half the memory traffic.
        ranks_f32: Vec<Vec<f32>>,
        /// Number of presorted columns (order-table slots per tree).
        n_presorted: usize,
        /// Largest counting-column cardinality (bucket scratch size).
        max_counting_ranks: usize,
    }

    impl FastContext {
        fn build(x: &FeatureMatrix, kinds: &[FeatureKind], ranks: &[Vec<u32>]) -> Self {
            let d = kinds.len();
            let mut plans = Vec::with_capacity(d);
            let mut n_ranks = vec![0u32; d];
            let mut rank_value = vec![Vec::new(); d];
            let mut ranks_f32 = vec![Vec::new(); d];
            let mut n_presorted = 0usize;
            let mut max_counting_ranks = 0usize;
            for (f, kind) in kinds.iter().enumerate() {
                match *kind {
                    FeatureKind::Categorical { n_categories } => {
                        plans.push(ColumnPlan::Categorical { n_categories });
                    }
                    FeatureKind::Numeric => {
                        let ranks_f = &ranks[f];
                        let nr = ranks_f.iter().copied().max().map_or(0, |top| top + 1);
                        assert!(
                            nr < 1 << 24,
                            "fast path needs rank cardinality below 2^24 for exact f32 ranks"
                        );
                        n_ranks[f] = nr;
                        ranks_f32[f] = ranks_f.iter().map(|&k| k as f32).collect();
                        if nr <= COUNTING_MAX {
                            let mut vals = vec![0.0f64; nr as usize];
                            let col = x.column(f);
                            for (r, &k) in ranks_f.iter().enumerate() {
                                vals[k as usize] = col[r];
                            }
                            rank_value[f] = vals;
                            max_counting_ranks = max_counting_ranks.max(nr as usize);
                            plans.push(ColumnPlan::Counting);
                        } else {
                            plans.push(ColumnPlan::Presorted { slot: n_presorted });
                            n_presorted += 1;
                        }
                    }
                }
            }
            Self {
                plans,
                n_ranks,
                rank_value,
                ranks_f32,
                n_presorted,
                max_counting_ranks,
            }
        }
    }

    /// Builds the shared fast-fit context when `config` asks for the fast
    /// engine; `None` keeps the caller on the exact engine.
    pub(crate) fn context_for(
        config: &ForestConfig,
        x: &FeatureMatrix,
        kinds: &[FeatureKind],
        ranks: &[Vec<u32>],
    ) -> Option<FastContext> {
        (config.fit_mode == FitMode::Fast).then(|| FastContext::build(x, kinds, ranks))
    }

    /// Reusable split-search scratch, structure-of-arrays: the dense path
    /// accumulates into the flat `sums`/`counts` prefix (plain `f64`/`u32`
    /// arrays — the clear is a memset, the scan streams two homogeneous
    /// arrays, and the accumulate loop carries no per-bucket branch), the
    /// sparse path sorts `packed` words and decodes them into `pairs`.
    struct CountScratch {
        /// Per-rank target sums (dense path; first `nr` entries per use).
        sums: Vec<f64>,
        /// Per-rank row counts (dense path; first `nr` entries per use).
        counts: Vec<u32>,
        /// `(rank << 32) | position` words (sparse path sort keys — the
        /// position low bits make `sort_unstable` reproduce a stable
        /// by-rank order).
        packed: Vec<u64>,
        /// Sorted `(rank, y)` pairs handed to [`grouped_scan`].
        pairs: Vec<(u32, f64)>,
    }

    impl CountScratch {
        fn new(n: usize) -> Self {
            Self {
                sums: vec![0.0; n],
                counts: vec![0; n],
                packed: Vec::new(),
                pairs: Vec::new(),
            }
        }
    }

    /// Best threshold split of one node on a counting column. Per-node
    /// **adaptive strategy**, picked by segment size `n` against the
    /// column's rank count — both pure functions of the training data, so
    /// the dispatch is schedule-free and, because all three paths fold each
    /// rank group's targets in segment order and scan ranks ascending,
    /// bitwise-neutral (see `adaptive_strategies_agree_bitwise`):
    ///
    /// - `n <= SMALL_MAX`: gather onto the stack, insertion-sort
    ///   ([`best_split_counting_small`]). Most nodes of a grown tree.
    /// - `nr <= DENSE_FACTOR · n` (dense): branch-free accumulate into the
    ///   flat `SoA` arrays, full-range ascending scan
    ///   ([`best_split_counting_dense`]).
    /// - otherwise (sparse): pack `(rank, position)` words,
    ///   `sort_unstable`, grouped scan — `O(n log n)` on `n` rows instead
    ///   of `O(nr)` on a mostly-empty rank range.
    ///
    /// The boundaries were calibrated with the `split_calib` micro-bench
    /// (`pwu-bench`): the insertion sort wins below ~a dozen rows, and the
    /// flat-array accumulate — whose clear and scan stream two flat arrays
    /// at memset/SIMD speed — beats the pack-sort until the rank range is
    /// several times the segment size, not just when the segment covers it.
    ///
    /// Gain/threshold/boundary semantics mirror
    /// [`best_numeric_split_ranked`] (midpoint threshold, boundary rank
    /// covering midpoint rounding); only the `f64` accumulation order
    /// differs, which is exactly the freedom the fast contract grants.
    ///
    /// Sets `*constant` when the column proved constant within the segment
    /// (a single present rank) — the caller propagates that to descendant
    /// nodes, whose segments are subsets, so they skip the pass entirely.
    ///
    /// `inv[k]` must hold `1.0 / k` for every count up to the segment size:
    /// the gain formula multiplies by table reciprocals instead of dividing
    /// (an f64 divide costs an order of magnitude more than a multiply, and
    /// the boundary scan is divide-bound). The last-ulp difference from true
    /// division is within the fast contract's freedom — still a pure
    /// function of the data, just not the exact engine's rounding.
    #[allow(clippy::too_many_arguments)]
    fn best_split_counting(
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
        if n < 2 * min_leaf {
            return None;
        }
        if n <= SMALL_MAX {
            return best_split_counting_small::<SMALL_MAX>(
                rank_value, ranks_f, y, seg, total, feature, min_leaf, inv, constant,
            );
        }
        let nr = rank_value.len();
        if nr <= DENSE_FACTOR * n {
            return best_split_counting_dense(
                rank_value, ranks_f, y, seg, total, feature, min_leaf, inv, scratch, constant,
            );
        }
        best_split_counting_sparse(
            rank_value, ranks_f, y, seg, total, feature, min_leaf, inv, scratch, constant,
        )
    }

    /// Dense/sparse boundary: the flat-array path runs unless the rank
    /// range exceeds this multiple of the segment size. Calibrated with
    /// `split_calib` — on the measured grid the sparse sort only wins once
    /// the range is ~6× the segment (e.g. 12 rows over 256 ranks), because
    /// the dense clear+scan streams flat arrays while the sort pays
    /// data-dependent branches per element. Dispatch is bitwise-neutral
    /// (see [`best_split_counting`]), so this constant is pure tuning.
    const DENSE_FACTOR: usize = 6;

    /// [`best_split_counting`] for sparse mid-size segments (more ranks
    /// than rows): sort the segment's `(rank, position)` words instead of
    /// touching the whole rank range. The position in the low 32 bits
    /// breaks ties by segment order, so the unstable sort is observably
    /// stable and each rank group's targets decode — and therefore sum —
    /// in segment order, matching the accumulation order of the flat-array
    /// path bitwise.
    #[allow(clippy::too_many_arguments)]
    fn best_split_counting_sparse(
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
        let packed = &mut scratch.packed;
        packed.clear();
        packed.extend(
            seg.iter()
                .enumerate()
                .map(|(pos, &r)| (u64::from(ranks_f[r as usize]) << 32) | pos as u64),
        );
        packed.sort_unstable();
        if packed[0] >> 32 == packed[n - 1] >> 32 {
            *constant = true; // column constant within the node
            return None;
        }
        let pairs = &mut scratch.pairs;
        pairs.clear();
        pairs.extend(packed.iter().map(|&w| {
            #[allow(clippy::cast_possible_truncation)]
            let (k, pos) = ((w >> 32) as u32, w as u32);
            (k, y[seg[pos as usize] as usize])
        }));
        grouped_scan(pairs, rank_value, total, feature, min_leaf, inv)
    }

    /// [`best_split_counting`] for segments within [`DENSE_FACTOR`] of the
    /// column's rank count: clear the first `nr` entries of the flat `SoA`
    /// arrays outright and run the accumulation loop with no per-bucket
    /// branch at all, then scan the whole (small) rank range skipping empty
    /// buckets. The `O(nr)` clear and scan stream flat arrays and are
    /// amortized by the `O(n)` segment pass they unlock, and the
    /// ascending-rank fold order is bit-identical to the other strategies',
    /// so the dispatch (on data-deterministic sizes alone) never changes
    /// the fitted tree.
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
    /// nodes of a fully grown tree are this small, and for them the bucket
    /// machinery (flat-array clear or pdqsort call) costs more than
    /// touching every element twice on the stack. Kept low: the insertion
    /// sort is quadratic, so past a dozen rows the other strategies win
    /// (`split_calib` micro-bench).
    const SMALL_MAX: usize = 8;

    /// [`best_split_counting`] for segments of at most [`SMALL_MAX`] rows:
    /// gather `(rank, y)` pairs into a stack buffer, stable insertion sort
    /// by rank, then the shared [`grouped_scan`]. The stable sort preserves
    /// segment order within each rank, so every group sum — and therefore
    /// every gain — folds in exactly the order the other strategies use.
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
    /// between adjacent present ranks. Shared by the small and sparse
    /// strategies (the dense path scans its flat arrays directly); the
    /// fold order — group sums in pair order, groups ascending by rank —
    /// is the order all strategies must reproduce to stay interchangeable.
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

    /// Counting-sorts `rows` by their ranks on one column — the per-tree
    /// presorted order, `O(n + R)`, stable (node order within rank ties).
    fn presorted_order(rows: &[u32], ranks_f: &[u32], n_ranks: u32, counts: &mut Vec<u32>) -> Vec<u32> {
        counts.clear();
        counts.resize(n_ranks as usize + 1, 0);
        for &r in rows {
            counts[ranks_f[r as usize] as usize + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        let mut order = vec![0u32; rows.len()];
        for &r in rows {
            let k = ranks_f[r as usize] as usize;
            order[counts[k] as usize] = r;
            counts[k] += 1;
        }
        order
    }

    /// Sentinel parent index for the root task.
    const NO_PARENT: u32 = u32::MAX;

    /// One pending node: segment `[start, end)` of the shared buffers plus
    /// where to record the resulting arena index. `all_eq`/`total` are the
    /// node's target stats, computed during the *parent's* routing pass
    /// (see [`route_with_stats`]) so no node pays a separate `node_stats`
    /// scan.
    struct Task {
        start: usize,
        end: usize,
        depth: u32,
        parent: u32,
        is_left: bool,
        all_eq: bool,
        total: f64,
        /// Bit `f` set means numeric feature `f` is known constant within
        /// this segment (discovered by an ancestor; constancy survives
        /// subsetting), so its split search is skipped — the search would
        /// return `None` anyway, making the skip bitwise-neutral. Tracking
        /// covers the first 64 features; beyond that a column just pays the
        /// (cheap) rediscovery pass.
        constant: u64,
    }

    /// The constancy-mask bit for feature `f` (0 beyond the tracked range).
    fn constant_bit(f: usize) -> u64 {
        if f < 64 {
            1u64 << f
        } else {
            0
        }
    }

    /// [`stable_partition`] fused with both children's `node_stats`: one
    /// pass routes the node-order segment and accumulates each side's
    /// target sum and constancy flag. Stability means each child's elements
    /// are visited in exactly the order a fresh pass over its segment
    /// would use, and the skipped elements contribute `+0.0` (an exact
    /// identity here — no partial sum is ever `-0.0`), so the carried stats
    /// are bitwise identical to recomputation via `node_stats`.
    fn route_with_stats(
        seg: &mut [u32],
        tmp: &mut Vec<u32>,
        y: &[f64],
        goes_left: impl Fn(u32) -> bool,
    ) -> (usize, (bool, f64), (bool, f64)) {
        if tmp.len() < seg.len() {
            tmp.resize(seg.len(), 0);
        }
        let mut w = 0usize;
        let mut t = 0usize;
        let (mut l_sum, mut r_sum) = (0.0f64, 0.0f64);
        let (mut l_first, mut r_first) = (0.0f64, 0.0f64);
        let (mut l_eq, mut r_eq) = (true, true);
        for i in 0..seg.len() {
            let r = seg[i];
            let v = y[r as usize];
            let left = goes_left(r);
            seg[w] = r;
            tmp[t] = r;
            if w == 0 && left {
                l_first = v;
            }
            if t == 0 && !left {
                r_first = v;
            }
            l_eq &= !left || v == l_first;
            r_eq &= left || v == r_first;
            l_sum += if left { v } else { 0.0 };
            r_sum += if left { 0.0 } else { v };
            w += usize::from(left);
            t += usize::from(!left);
        }
        seg[w..].copy_from_slice(&tmp[..t]);
        (w, (l_eq, l_sum), (r_eq, r_sum))
    }

    /// Grows one tree with the fast engine. Same stop rules, RNG
    /// consumption pattern (partial Fisher–Yates feature draw), preorder
    /// arena layout and leaf statistics as the exact engine — only the
    /// split search and row routing differ, per the module contract.
    ///
    /// # Panics
    /// Panics if `rows` is empty.
    pub(crate) fn fit_tree_fast(
        x: &FeatureMatrix,
        y: &[f64],
        rows: &[u32],
        config: &ForestConfig,
        rng: &mut Xoshiro256PlusPlus,
        ranks: &[Vec<u32>],
        ctx: &FastContext,
    ) -> RegressionTree {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        debug_assert!(rows.iter().all(|&r| y[r as usize].is_finite()));
        let d = ctx.plans.len();
        let mtry = config.mtry.resolve(d).min(d);
        let m = rows.len();

        // Shared node-order row buffer plus, for every presorted column,
        // a rank-ordered row buffer partitioned in lockstep with it.
        let mut rows_buf: Vec<u32> = rows.to_vec();
        let mut orders: Vec<Vec<u32>> = Vec::with_capacity(ctx.n_presorted);
        if ctx.n_presorted > 0 {
            let mut counts: Vec<u32> = Vec::new();
            for (f, plan) in ctx.plans.iter().enumerate() {
                if let ColumnPlan::Presorted { .. } = plan {
                    orders.push(presorted_order(rows, &ranks[f], ctx.n_ranks[f], &mut counts));
                }
            }
        }
        let mut tmp: Vec<u32> = Vec::with_capacity(m);
        let mut pack: Vec<u64> = Vec::with_capacity(m);
        let mut scratch = SplitScratch::default();
        let mut buckets = CountScratch::new(ctx.max_counting_ranks);
        let mut feature_ids: Vec<usize> = (0..d).collect();
        // Count reciprocals for the counting-column gain scan (inv[0] is a
        // never-read placeholder: counts start at 1).
        let inv: Vec<f64> = (0..=m).map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 }).collect();

        let mut nodes: Vec<Node> = Vec::new();
        let mut split_gains: Vec<(u32, f64)> = Vec::new();
        let (root_eq, root_total) = node_stats(y, &rows_buf);
        let mut stack = vec![Task {
            start: 0,
            end: m,
            depth: 0,
            parent: NO_PARENT,
            is_left: false,
            all_eq: root_eq,
            total: root_total,
            constant: 0,
        }];
        while let Some(task) = stack.pop() {
            let n_seg = task.end - task.start;
            let (stop, node_total) =
                if n_seg < config.min_split || config.max_depth.is_some_and(|dd| task.depth >= dd) {
                    (true, 0.0)
                } else {
                    (task.all_eq, task.total)
                };
            let mut found_constant = 0u64;
            let split = if stop {
                None
            } else {
                for i in 0..mtry {
                    let j = rng.gen_range(i..d);
                    feature_ids.swap(i, j);
                }
                let seg = &rows_buf[task.start..task.end];
                let mut best: Option<Split> = None;
                let mut best_boundary: Option<u32> = None;
                for &f in &feature_ids[..mtry] {
                    if task.constant & constant_bit(f) != 0 {
                        continue; // known constant: the search would return None
                    }
                    let s = match ctx.plans[f] {
                        ColumnPlan::Categorical { n_categories } => best_categorical_split(
                            x.column(f),
                            y,
                            seg,
                            f,
                            n_categories,
                            config.min_leaf,
                            &mut scratch,
                        )
                        .map(|s| (s, 0)),
                        ColumnPlan::Counting => {
                            let mut col_constant = false;
                            let s = best_split_counting(
                                &ctx.rank_value[f],
                                &ranks[f],
                                y,
                                seg,
                                node_total,
                                f,
                                config.min_leaf,
                                &inv,
                                &mut buckets,
                                &mut col_constant,
                            );
                            if col_constant {
                                found_constant |= constant_bit(f);
                            }
                            s
                        }
                        ColumnPlan::Presorted { slot } => {
                            if n_seg < 2 * config.min_leaf {
                                None
                            } else {
                                let order_seg = &orders[slot][task.start..task.end];
                                let ranks_f = &ranks[f];
                                let first = ranks_f[order_seg[0] as usize];
                                let last = ranks_f[order_seg[n_seg - 1] as usize];
                                if first == last {
                                    // Constant: O(1) on a sorted segment.
                                    found_constant |= constant_bit(f);
                                    None
                                } else {
                                    // Already rank-sorted — pack and hand to
                                    // the exact scanner with the sort skipped.
                                    pack.clear();
                                    pack.extend(
                                        order_seg
                                            .iter()
                                            .map(|&r| <u64 as RankRow>::pack(ranks_f[r as usize], r)),
                                    );
                                    best_numeric_split_ranked(
                                        x.column(f),
                                        y,
                                        node_total,
                                        &pack,
                                        f,
                                        config.min_leaf,
                                    )
                                }
                            }
                        }
                    };
                    if let Some((s, boundary)) = s {
                        if best.as_ref().is_none_or(|b| s.gain > b.gain) {
                            best_boundary = match s.rule {
                                SplitRule::Threshold(_) => Some(boundary),
                                SplitRule::Categories(_) => None,
                            };
                            best = Some(s);
                        }
                    }
                }
                best.map(|b| (b, best_boundary))
            };

            let idx = nodes.len() as u32;
            if task.parent != NO_PARENT {
                if let Node::Internal { left, right, .. } = &mut nodes[task.parent as usize] {
                    if task.is_left {
                        *left = idx;
                    } else {
                        *right = idx;
                    }
                }
            }
            match split {
                None => {
                    nodes.push(Node::Leaf(leaf_stats(y, &rows_buf[task.start..task.end])));
                }
                Some((split, boundary)) => {
                    split_gains.push((split.feature as u32, split.gain));
                    nodes.push(Node::Internal {
                        feature: split.feature as u32,
                        rule: split.rule,
                        left: 0,
                        right: 0,
                    });
                    // Route the node buffer AND every presorted order with
                    // the same predicate: numeric winners compare the f32
                    // rank table against the boundary rank (exact — dense
                    // ranks are far below 2²⁴), categorical winners apply
                    // the rule to the column. Stability keeps each order's
                    // segment rank-sorted and aligned with the node buffer.
                    // The node buffer's pass also computes both children's
                    // stats, so they never run `node_stats` themselves.
                    let node_seg = &mut rows_buf[task.start..task.end];
                    let (n_left, (l_eq, l_sum), (r_eq, r_sum)) = if let Some(b) = boundary {
                        let ranks_f32 = &ctx.ranks_f32[split.feature];
                        let bf = b as f32;
                        route_with_stats(node_seg, &mut tmp, y, |r| ranks_f32[r as usize] <= bf)
                    } else {
                        let col = x.column(split.feature);
                        route_with_stats(node_seg, &mut tmp, y, |r| {
                            split.rule.goes_left(col[r as usize])
                        })
                    };
                    let route = |seg: &mut [u32], tmp: &mut Vec<u32>| -> usize {
                        if let Some(b) = boundary {
                            let ranks_f32 = &ctx.ranks_f32[split.feature];
                            let bf = b as f32;
                            stable_partition(seg, tmp, |r| ranks_f32[r as usize] <= bf)
                        } else {
                            let col = x.column(split.feature);
                            stable_partition(seg, tmp, |r| split.rule.goes_left(col[r as usize]))
                        }
                    };
                    debug_assert!(n_left > 0 && n_left < n_seg);
                    debug_assert!({
                        let col = x.column(split.feature);
                        let seg = &rows_buf[task.start..task.end];
                        seg[..n_left]
                            .iter()
                            .all(|&r| split.rule.goes_left(col[r as usize]))
                            && seg[n_left..]
                                .iter()
                                .all(|&r| !split.rule.goes_left(col[r as usize]))
                    });
                    for order in &mut orders {
                        let n_left_order = route(&mut order[task.start..task.end], &mut tmp);
                        debug_assert_eq!(n_left_order, n_left);
                    }
                    let mid = task.start + n_left;
                    stack.push(Task {
                        start: mid,
                        end: task.end,
                        depth: task.depth + 1,
                        parent: idx,
                        is_left: false,
                        all_eq: r_eq,
                        total: r_sum,
                        constant: task.constant | found_constant,
                    });
                    stack.push(Task {
                        start: task.start,
                        end: mid,
                        depth: task.depth + 1,
                        parent: idx,
                        is_left: true,
                        all_eq: l_eq,
                        total: l_sum,
                        constant: task.constant | found_constant,
                    });
                }
            }
        }

        RegressionTree::from_raw(nodes, split_gains)
    }

    /// Calibration-only surface for the `split_calib` micro-bench
    /// (`pwu-bench`): wraps each split-search strategy so the bench times
    /// the *real* engine code over an `(n_seg, n_ranks)` grid, rather than
    /// a re-implementation that could drift. Hidden — not a crate API; the
    /// signatures mirror the private functions minus the `feature` id.
    #[doc(hidden)]
    pub mod calib {
        use super::{
            best_split_counting_dense, best_split_counting_small, best_split_counting_sparse,
            CountScratch, Split,
        };

        pub struct Scratch(CountScratch);

        impl Scratch {
            #[must_use]
            pub fn new(max_ranks: usize) -> Self {
                Self(CountScratch::new(max_ranks))
            }
        }

        /// The production small-path cutoff.
        pub const SMALL_MAX: usize = super::SMALL_MAX;

        /// The production dense-path cutoff factor (dense when
        /// `n_ranks <= DENSE_FACTOR * n_seg`).
        pub const DENSE_FACTOR: usize = super::DENSE_FACTOR;

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

        #[must_use]
        #[allow(clippy::too_many_arguments)] // mirrors the engine signature
        pub fn sparse(
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
            best_split_counting_sparse(
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

        /// All three split-search strategies, run on the same segment,
        /// must return bitwise-identical splits — the property that makes
        /// the per-node adaptive dispatch bitwise-neutral.
        #[test]
        fn adaptive_strategies_agree_bitwise() {
            let mut rng = Xoshiro256PlusPlus::new(7);
            let nr = 32usize;
            let rank_value: Vec<f64> = (0..nr).map(|k| k as f64 * 1.5).collect();
            // 64 rows over 32 ranks; targets correlated with rank + noise.
            let n_rows = 64usize;
            let ranks_f: Vec<u32> = (0..n_rows).map(|_| (rng.next() % nr as u64) as u32).collect();
            let y: Vec<f64> = ranks_f
                .iter()
                .map(|&k| f64::from(k) * 0.3 + rng.next_f64())
                .collect();
            let inv: Vec<f64> = (0..=n_rows)
                .map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 })
                .collect();
            let mut scratch = CountScratch::new(nr);
            // Segment sizes exercising each dispatch region: n <= SMALL_MAX
            // (small), SMALL_MAX < n < nr (sparse), n >= nr (dense).
            for n_seg in [6usize, 20, 48] {
                let seg: Vec<u32> = (0..n_seg as u32).collect();
                let total: f64 = seg.iter().map(|&r| y[r as usize]).sum();
                let run_small = |c: &mut bool| {
                    best_split_counting_small::<SMALL_MAX>(
                        &rank_value,
                        &ranks_f,
                        &y,
                        &seg,
                        total,
                        0,
                        1,
                        &inv,
                        c,
                    )
                };
                #[allow(clippy::type_complexity)] // (label, split, constant-flag)
                let mut candidates: Vec<(&str, Option<(Split, u32)>, bool)> = Vec::new();
                if n_seg <= SMALL_MAX {
                    let mut c = false;
                    candidates.push(("small", run_small(&mut c), c));
                }
                {
                    let mut c = false;
                    let s = best_split_counting_dense(
                        &rank_value,
                        &ranks_f,
                        &y,
                        &seg,
                        total,
                        0,
                        1,
                        &inv,
                        &mut scratch,
                        &mut c,
                    );
                    candidates.push(("dense", s, c));
                }
                {
                    let mut c = false;
                    let s = best_split_counting_sparse(
                        &rank_value,
                        &ranks_f,
                        &y,
                        &seg,
                        total,
                        0,
                        1,
                        &inv,
                        &mut scratch,
                        &mut c,
                    );
                    candidates.push(("sparse", s, c));
                }
                let (_, first, first_const) = &candidates[0];
                for (label, s, c) in &candidates[1..] {
                    assert_eq!(c, first_const, "constant flag mismatch ({label}, n={n_seg})");
                    match (first, s) {
                        (None, None) => {}
                        (Some((a, ba)), Some((b, bb))) => {
                            assert_eq!(a.feature, b.feature, "{label}, n={n_seg}");
                            assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{label}, n={n_seg}");
                            assert_eq!(a.rule, b.rule, "{label}, n={n_seg}");
                            assert_eq!(ba, bb, "boundary mismatch ({label}, n={n_seg})");
                        }
                        _ => panic!("split presence mismatch ({label}, n={n_seg})"),
                    }
                }
            }
        }

        /// A constant column is flagged by every strategy.
        #[test]
        fn constant_column_flagged_by_all_strategies() {
            let nr = 16usize;
            let rank_value: Vec<f64> = (0..nr).map(|k| k as f64).collect();
            let ranks_f = vec![3u32; 40];
            let y: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.1).collect();
            let inv: Vec<f64> = (0..=40)
                .map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 })
                .collect();
            let mut scratch = CountScratch::new(64);
            for n_seg in [6usize, 12, 40] {
                let seg: Vec<u32> = (0..n_seg as u32).collect();
                let total: f64 = seg.iter().map(|&r| y[r as usize]).sum();
                let mut c = false;
                let s = best_split_counting(
                    &rank_value,
                    &ranks_f,
                    &y,
                    &seg,
                    total,
                    0,
                    1,
                    &inv,
                    &mut scratch,
                    &mut c,
                );
                assert!(s.is_none(), "n={n_seg}");
                assert!(c, "constant not flagged at n={n_seg}");
            }
        }
    }
}
