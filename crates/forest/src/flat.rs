//! Flat-node layout: the one stored form of a fitted tree, and the batch
//! and column predict kernel of every forest.
//!
//! The growth loop builds each tree as a preorder pointer arena:
//! descending one matches an enum tag, dispatches on the [`SplitRule`]
//! variant, and branches on the routing predicate — per-node branches on
//! top of the dependent node load, with a bounds check on every arena
//! access. `RegressionTree::compile` turns the arena **once** into the
//! flat breadth-first records defined here, whose descent step is fully
//! branch-free *and* fully check-free, and the arena is dropped: a
//! [`RegressionTree`] keeps only this layout, and every predict path walks
//! it — the blocked batch kernels here, and the scalar walk
//! (`RegressionTree::leaf_id`) behind the per-row methods.
//!
//! - **One small record per node**, laid out in breadth-first order so the
//!   hot top levels of the tree share cache lines: 24 bytes
//!   ([`FlatNode`]: feature / threshold / child-index / category mask) for
//!   trees with categorical splits, 16 bytes ([`NumNode`]: packed
//!   feature+child word / threshold — four nodes per cache line) for
//!   all-numeric trees. Children are adjacent (`right = kid + 1`), so
//!   routing is `kid + 1 - go_left` — an add, not a select. Leaf means `μ`
//!   live in a parallel dense array indexed by the same node ids, gathered
//!   once per row after the descent; the leaf variances and counts the
//!   per-row methods return sit in exact-sized arrays of their own, never
//!   touched by the kernels.
//! - **A uniform branch-free step** for every node kind: numeric nodes test
//!   `v <= thresh` with a zero mask, categorical nodes carry `thresh = -∞`
//!   with the rule's membership mask, and leaves *self-loop* (`kid` points
//!   at the node itself, `thresh = +∞` forces `go_left`), so the step never
//!   asks "is this a leaf?". The decisions are bitwise identical to
//!   [`SplitRule::goes_left`], so a flat descent lands on exactly the leaf
//!   the pointer descent lands on — per-tree predictions equal the frozen
//!   [`crate::reference`] arena walk bit for bit (asserted by the
//!   `reference_equivalence` suite and this module's tests).
//! - **No bounds checks on the hot path** (the workspace forbids `unsafe`,
//!   so the checks are *eliminated structurally*): the node array is padded
//!   to a power-of-two length and indices masked with `len - 1`, rows live
//!   in fixed-stride `[f64; STRIDE]` records with the feature index masked
//!   by `STRIDE - 1`, and lane ids are compile-time literals of an unrolled
//!   [`LANES`]-wide loop — every index is provably in range, so the
//!   optimizer drops the checks. The masks are identities (real ids and
//!   features are always in range), so routing is unchanged bitwise. The
//!   widest stride is [`STRIDE_WIDE`] features; `RandomForest::fit`
//!   rejects wider spaces ([`assert_width`]).
//! - **Per-tree adaptive node strategy**: `RegressionTree::compile` inspects
//!   each fitted tree once and picks its layout — trees with no
//!   categorical node take the packed [`NumNode`] records and a descent
//!   step with the mask logic deleted (two loads, one compare, one add per
//!   lane); mixed trees keep the general branch-free step.
//! - **Blocked batch descent**: rows are processed [`LANES`] at a time per
//!   tree, giving the core that many independent load chains to overlap,
//!   and the block exits when no lane moved (self-looping leaves make extra
//!   steps idempotent), so one straggler row cannot serialize the block.
//!   The all-numeric step advances [`BURST`] levels between exit checks —
//!   settled lanes' surplus steps are idempotent self-loops, cheaper than
//!   paying the movement reduction on every level.
//!
//! The fit mode reaches this module in exactly one place, [`by_fold!`]: it
//! picks the *ensemble fold*, the order in which per-tree values are summed
//! into `(Σv, Σv²)`. [`FitMode::Exact`] folds serially in ascending tree
//! order — bitwise the historical exact output of
//! [`RandomForest::predict_one`](crate::RandomForest::predict_one).
//! [`FitMode::Fast`] folds through [`FOLD_LANES`] accumulator lanes (tree
//! `t` into lane `t % FOLD_LANES`, lanes combined pairwise), which rounds
//! differently — still a pure function of the tree index, so fast
//! predictions stay deterministic and width/deal-order invariant, the same
//! freedom the fast *fit* engine already exercises (DESIGN.md §14). Per-tree
//! columns carry no fold and are mode-independent.

use rayon::prelude::*;

use pwu_space::FeatureMatrix;

use crate::hyper::FitMode;
use crate::split::SplitRule;
use crate::tree::RegressionTree;

/// Rows descended per block: enough independent descent chains to hide the
/// node-load latency, small enough that the lane index state (one `u32`
/// each) stays in the innermost cache and the unrolled step bodies don't
/// spill. 8 and 32 both measured slower on the container.
const LANES: usize = 16;

/// Accumulator lanes of the fast ensemble fold. Tree `t` accumulates into
/// lane `t % FOLD_LANES`; the lanes are combined pairwise at the end.
const FOLD_LANES: usize = 4;

/// Evaluates `$body` with the const `$lanes` bound to the accumulator-lane
/// count of `$mode`'s ensemble fold — the one place a fit mode chooses how
/// predictions are folded. [`FitMode::Exact`] gets one lane: the serial
/// ascending-tree-order `Σv`/`Σv²` recurrence, bitwise the historical exact
/// fold. [`FitMode::Fast`] gets [`FOLD_LANES`]. The lane count is a const
/// generic of every fold kernel, so each mode compiles to its own loop.
macro_rules! by_fold {
    ($mode:expr, $lanes:ident => $body:expr) => {
        match $mode {
            FitMode::Exact => {
                const $lanes: usize = 1;
                $body
            }
            FitMode::Fast => {
                const $lanes: usize = FOLD_LANES;
                $body
            }
        }
    };
}

/// Rows per parallel chunk: large enough to amortize per-tree loop
/// overhead, small enough that the chunk's row-major scratch and
/// accumulators stay cache-resident.
const CHUNK: usize = 512;

/// Row-record stride of the narrow fixed-stride path (`d <= 16`, the
/// common tuning-space width).
const STRIDE_NARROW: usize = 16;

/// Row-record stride of the wide fixed-stride path (`d <= 64`), the widest
/// space the kernel covers — see [`assert_width`].
const STRIDE_WIDE: usize = 64;

/// Descent levels advanced per settled-check in the all-numeric kernel.
/// Settled lanes self-loop, so overrunning by `BURST - 1` levels at the end
/// is idempotent; bursting trades that waste for `BURST - 1` fewer
/// movement-reduction passes per level.
const BURST: usize = 3;

/// One node of the flat layout: the four descent-critical fields packed
/// into a single record so a step touches one cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatNode {
    /// Feature column this node tests (0 at leaves — any valid column).
    feat: u32,
    /// Left-child node id; the right child is `kid + 1` (breadth-first
    /// children are adjacent). Leaves self-loop: `kid` is the node's own id.
    kid: u32,
    /// Numeric threshold: `v <= thresh` routes left. `+∞` at leaves (the
    /// self-loop always routes "left"), `-∞` at categorical nodes (the mask
    /// alone decides).
    thresh: f64,
    /// Categorical membership mask (bit `c` routes category `c` left);
    /// zero at numeric nodes and leaves.
    mask: u64,
}

/// [`FlatNode`] for all-numeric trees, 16 bytes: the feature and child
/// indices share one word (`feat | kid << 32` — one load, two shifts) and
/// the dead category mask is gone, so a cache line holds four nodes
/// instead of two and a half.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NumNode {
    /// `feat` in the low half, `kid` in the high half.
    fk: u64,
    thresh: f64,
}

impl FlatNode {
    /// An internal node testing `feature` by `rule`, its children at flat
    /// ids `kid` and `kid + 1`.
    pub(crate) fn split(feature: u32, rule: SplitRule, kid: u32) -> Self {
        let (thresh, mask) = match rule {
            SplitRule::Threshold(t) => (t, 0u64),
            SplitRule::Categories(m) => (f64::NEG_INFINITY, m),
        };
        Self {
            feat: feature,
            kid,
            thresh,
            mask,
        }
    }

    /// A leaf, or a padding slot, at flat id `id`: it self-loops.
    pub(crate) fn leaf(id: u32) -> Self {
        Self {
            feat: 0,
            kid: id,
            thresh: f64::INFINITY,
            mask: 0,
        }
    }
}

impl NumNode {
    /// Packs the record of a node with no category mask.
    pub(crate) fn pack(nd: &FlatNode) -> Self {
        debug_assert_eq!(nd.mask, 0, "numeric trees carry no category masks");
        Self {
            fk: u64::from(nd.feat) | (u64::from(nd.kid) << 32),
            thresh: nd.thresh,
        }
    }
}

impl RegressionTree {
    /// Node `id`'s record as `(feature, kid, threshold, mask)`, from
    /// whichever record array the tree uses.
    #[inline]
    fn record(&self, id: usize) -> (u32, u32, f64, u64) {
        if self.nodes.is_empty() {
            let nd = self.num[id];
            #[allow(clippy::cast_possible_truncation)]
            let (feat, kid) = (nd.fk as u32, (nd.fk >> 32) as u32);
            (feat, kid, nd.thresh, 0)
        } else {
            let nd = self.nodes[id];
            (nd.feat, nd.kid, nd.thresh, nd.mask)
        }
    }

    /// The id of the leaf one row lands on, reading the row's feature `f`
    /// as `value(f)`: a scalar walk through the same records and routing
    /// arithmetic as the block descent. A leaf is recognized by its
    /// self-loop before the row is read, so the walk reads only the
    /// features the tree splits on.
    #[inline]
    pub(crate) fn leaf_id(&self, value: impl Fn(usize) -> f64) -> usize {
        let mut ix = 0usize;
        loop {
            let (feat, kid, thresh, mask) = self.record(ix);
            if kid as usize == ix {
                return ix;
            }
            let v = value(feat as usize);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let code = (v as u64) & 63;
            let go = u32::from(v <= thresh) | ((mask >> code) as u32 & 1);
            ix = (kid + 1 - go) as usize;
        }
    }

    /// The split at node `id` as `(feature, rule, left child id)` — the
    /// right child is `left + 1` — or `None` at a leaf. Categorical nodes
    /// are the ones with a mask: a category split sends at least one
    /// category left.
    pub(crate) fn split(&self, id: usize) -> Option<(u32, SplitRule, u32)> {
        let (feat, kid, thresh, mask) = self.record(id);
        (kid as usize != id).then(|| {
            let rule = if mask == 0 {
                SplitRule::Threshold(thresh)
            } else {
                SplitRule::Categories(mask)
            };
            (feat, rule, kid)
        })
    }

    /// Routes [`LANES`] fixed-stride rows to their leaves: general step
    /// handling numeric and categorical nodes uniformly. `idx` must start
    /// zeroed and holds leaf node ids on return. The block exits after the
    /// settle iteration (no lane moved); self-looping leaves make the extra
    /// steps of already-finished lanes idempotent.
    #[inline]
    fn descend_mixed<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.nodes.len() - 1;
        loop {
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.nodes[(cur as usize) & nmask];
                let v = rows[j][(nd.feat as usize) & (S - 1)];
                // `v as u64` saturates negatives to 0; harmless — the mask
                // is zero unless this is a categorical node, whose codes are
                // small non-negative integers (< 64, enforced at fit time).
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let code = (v as u64) & 63;
                let go = u32::from(v <= nd.thresh) | ((nd.mask >> code) as u32 & 1);
                let next = nd.kid + 1 - go;
                moved |= next ^ cur;
                idx[j] = next;
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// [`Self::descend_mixed`] specialized for all-numeric trees over
    /// the packed [`NumNode`] records: the category-mask load and bit test
    /// are deleted, leaving one packed-index load, one threshold load, one
    /// row gather, one compare and one add per lane per level. Bitwise
    /// identical routing (numeric nodes never consult the mask).
    #[inline]
    fn descend_numeric<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.num.len() - 1;
        loop {
            // BURST levels per exit check: settled lanes' extra steps are
            // idempotent self-loops, so overrunning a few levels is free
            // next to paying the movement reduction on every level.
            for _ in 1..BURST {
                for j in 0..LANES {
                    let cur = idx[j];
                    let nd = self.num[(cur as usize) & nmask];
                    let v = rows[j][(nd.fk as usize) & (S - 1)];
                    #[allow(clippy::cast_possible_truncation)]
                    let next = (nd.fk >> 32) as u32 + 1 - u32::from(v <= nd.thresh);
                    idx[j] = next;
                }
            }
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.num[(cur as usize) & nmask];
                let v = rows[j][(nd.fk as usize) & (S - 1)];
                #[allow(clippy::cast_possible_truncation)]
                let next = (nd.fk >> 32) as u32 + 1 - u32::from(v <= nd.thresh);
                moved |= next ^ cur;
                idx[j] = next;
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// Dispatches a block descent on the tree's node population.
    #[inline]
    fn descend_block<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
        if self.nodes.is_empty() {
            self.descend_numeric(rows, idx);
        } else {
            self.descend_mixed(rows, idx);
        }
    }
}

/// Rejects feature spaces wider than the flat kernel's widest row stride.
///
/// # Panics
/// Panics if `d` exceeds [`STRIDE_WIDE`] (64) features. No built-in target
/// comes close (the widest SPAPT kernel has 36), and bounds-check-free row
/// gathers need the fixed stride.
pub(crate) fn assert_width(d: usize) {
    assert!(
        d <= STRIDE_WIDE,
        "feature width {d} exceeds the flat predict kernel's {STRIDE_WIDE}-feature stride"
    );
}

/// Per-row fold state: `[sums, squares]`, one slot per accumulator lane,
/// contiguous so a row's whole fold state shares a cache line.
type Acc<const L: usize> = [[f64; L]; 2];

/// Combines the accumulator lanes of a fold: one lane is the serial sum
/// itself, [`FOLD_LANES`] lanes combine pairwise — the single place that
/// fixes the lane reduction order.
#[inline]
fn combine<const L: usize>(l: &[f64; L]) -> f64 {
    match l.as_slice() {
        [s] => *s,
        [a, b, c, d] => (a + b) + (c + d),
        _ => unreachable!("fold lane counts are 1 and FOLD_LANES"),
    }
}

/// Folds per-tree values (in tree order) the way `mode`'s predictions do
/// (`by_fold!`): returns `(Σv, Σv²)`. This is the scalar statement of
/// the fold every batch kernel reproduces bit for bit — the fold order is a
/// pure function of the tree index, never of the schedule.
pub fn fold_lanes(mode: FitMode, values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    by_fold!(mode, L => fold_lanes_n::<L>(values))
}

fn fold_lanes_n<const L: usize>(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let mut acc: Acc<L> = [[0.0; L]; 2];
    for (t, v) in values.into_iter().enumerate() {
        acc[0][t % L] += v;
        acc[1][t % L] += v * v;
    }
    (combine(&acc[0]), combine(&acc[1]))
}

/// Transposes `x[start..end]` into fixed-stride row records (`buf[j][f]` =
/// row `start + j`, feature `f`; slots past `d` are never consulted —
/// feature indices are always `< d` — so the scratch needs no re-zeroing).
#[allow(clippy::needless_range_loop)] // `f` indexes source column and dest slot
fn transpose_into<const S: usize>(
    buf: &mut [[f64; S]],
    x: &FeatureMatrix,
    start: usize,
    end: usize,
) {
    for f in 0..x.n_cols() {
        let col = &x.column(f)[start..end];
        for (j, &v) in col.iter().enumerate() {
            buf[j][f] = v;
        }
    }
}

/// Allocating form of [`transpose_into`] for per-chunk parallel workers.
fn transpose<const S: usize>(x: &FeatureMatrix, start: usize, end: usize) -> Vec<[f64; S]> {
    let mut buf = vec![[0.0f64; S]; end - start];
    transpose_into(&mut buf, x, start, end);
    buf
}

/// The [`LANES`] row references of one block: rows past the chunk's end
/// repeat the block's first row, so tail blocks descend a full complement
/// of lanes (the surplus lanes' leaves are simply never read).
#[inline]
fn block_rows<const S: usize>(buf: &[[f64; S]], lo: usize, k: usize) -> [&[f64; S]; LANES] {
    std::array::from_fn(|j| &buf[lo + if j < k { j } else { 0 }])
}

/// One chunk's worth of per-tree column segments: every requested tree
/// descends the chunk's pre-transposed records [`LANES`] rows at a time.
fn columns_chunk<const S: usize>(
    trees: &[RegressionTree],
    tree_idx: &[usize],
    buf: &[[f64; S]],
) -> Vec<Vec<f64>> {
    let m = buf.len();
    let mut idx = [0u32; LANES];
    let mut segs: Vec<Vec<f64>> = vec![Vec::with_capacity(m); tree_idx.len()];
    for (seg, &t) in segs.iter_mut().zip(tree_idx) {
        let tree = &trees[t];
        for block in 0..m.div_ceil(LANES) {
            let lo = block * LANES;
            let w = LANES.min(m - lo);
            idx.fill(0);
            tree.descend_block(block_rows(buf, lo, w), &mut idx);
            seg.extend(idx[..w].iter().map(|&leaf| tree.mean[leaf as usize]));
        }
    }
    segs
}

/// Stitches per-chunk column segments back into whole columns.
fn stitch_columns(n_rows: usize, n_cols: usize, per_chunk: Vec<Vec<Vec<f64>>>) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n_rows); n_cols];
    for segs in per_chunk {
        for (col, seg) in cols.iter_mut().zip(segs) {
            col.extend_from_slice(&seg);
        }
    }
    cols
}

/// Blocked batch `(Σμ, Σμ²)` fold of a forest's `trees` over the pool,
/// the input of the across-tree `(mean, std)` estimator: rows are chunked
/// across the `PWU_THREADS` pool, each chunk is transposed once into
/// fixed-stride row records, and every tree descends the chunk [`LANES`]
/// rows at a time. Per row, each tree's leaf mean `v` accumulates
/// `(v, v²)` in `mode`'s fold order ([`by_fold!`], exactly like
/// [`fold_lanes`]); the result goes through `finish(sum, sum_sq, n_trees)`.
///
/// # Panics
/// Panics if the feature width exceeds [`STRIDE_WIDE`].
pub(crate) fn fold_mu<T: Send>(
    trees: &[RegressionTree],
    mode: FitMode,
    x: &FeatureMatrix,
    finish: impl Fn(f64, f64, f64) -> T + Sync,
) -> Vec<T> {
    by_fold!(mode, L => if x.n_cols() <= STRIDE_NARROW {
        fold_mu_strided::<STRIDE_NARROW, L, T>(trees, x, &finish)
    } else {
        assert_width(x.n_cols());
        fold_mu_strided::<STRIDE_WIDE, L, T>(trees, x, &finish)
    })
}

fn fold_mu_strided<const S: usize, const L: usize, T: Send>(
    trees: &[RegressionTree],
    x: &FeatureMatrix,
    finish: &(impl Fn(f64, f64, f64) -> T + Sync),
) -> Vec<T> {
    let n_rows = x.n_rows();
    let n = trees.len() as f64;
    let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
    let per_chunk: Vec<Vec<T>> = starts
        .par_iter()
        .map(|&start| {
            let end = (start + CHUNK).min(n_rows);
            let m = end - start;
            let buf = transpose::<S>(x, start, end);
            let mut acc: Vec<Acc<L>> = vec![[[0.0; L]; 2]; m];
            let mut idx = [0u32; LANES];
            for (t, tree) in trees.iter().enumerate() {
                let lane = t % L;
                for block in 0..m.div_ceil(LANES) {
                    let lo = block * LANES;
                    let k = LANES.min(m - lo);
                    idx.fill(0);
                    tree.descend_block(block_rows(&buf, lo, k), &mut idx);
                    for (j, &leaf) in idx[..k].iter().enumerate() {
                        let v = tree.mean[leaf as usize];
                        let a = &mut acc[lo + j];
                        a[0][lane] += v;
                        a[1][lane] += v * v;
                    }
                }
            }
            acc.iter()
                .map(|a| finish(combine(&a[0]), combine(&a[1]), n))
                .collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Per-tree point-prediction columns: `out[k][i]` is tree
/// `trees[tree_idx[k]]`'s prediction for row `i` of `x`. Rows are chunked
/// across the `PWU_THREADS` pool and each chunk is transposed once into
/// fixed-stride row records, as [`fold_mu`] does. Values are bit-identical
/// to [`RegressionTree::predict_at`] — both walks take the same decisions,
/// and the column holds raw leaf means, no fold — so columns are the same
/// in every fit mode.
///
/// # Panics
/// Panics if a tree index is out of range or the feature width exceeds
/// [`STRIDE_WIDE`].
pub(crate) fn columns(
    trees: &[RegressionTree],
    x: &FeatureMatrix,
    tree_idx: &[usize],
) -> Vec<Vec<f64>> {
    if x.n_cols() <= STRIDE_NARROW {
        columns_strided::<STRIDE_NARROW>(trees, x, tree_idx)
    } else {
        assert_width(x.n_cols());
        columns_strided::<STRIDE_WIDE>(trees, x, tree_idx)
    }
}

fn columns_strided<const S: usize>(
    trees: &[RegressionTree],
    x: &FeatureMatrix,
    tree_idx: &[usize],
) -> Vec<Vec<f64>> {
    let n_rows = x.n_rows();
    let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
    let per_chunk: Vec<Vec<Vec<f64>>> = starts
        .par_iter()
        .map(|&start| {
            let end = (start + CHUNK).min(n_rows);
            columns_chunk(trees, tree_idx, &transpose::<S>(x, start, end))
        })
        .collect();
    stitch_columns(n_rows, tree_idx.len(), per_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::ForestConfig;
    use pwu_space::FeatureKind;
    use pwu_stats::Xoshiro256PlusPlus;

    /// Mixed numeric/categorical data exercising both rule encodings.
    fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<f64>, Vec<FeatureKind>) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut x = FeatureMatrix::new(3);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = (rng.next() % 7) as f64;
            let b = rng.next_f64() * 10.0;
            let c = (rng.next() % 5) as f64;
            x.push_row(&[a, b, c]);
            y.push(2.0 * a + b + if c >= 3.0 { 5.0 } else { 0.0 } + 0.1 * rng.next_f64());
        }
        let kinds = vec![
            FeatureKind::Numeric,
            FeatureKind::Numeric,
            FeatureKind::Categorical { n_categories: 5 },
        ];
        (x, y, kinds)
    }

    /// The dataset's kinds, and the same columns all read as numeric: the
    /// mixed records and the packed all-numeric ones.
    fn both_layouts(kinds: &[FeatureKind]) -> [Vec<FeatureKind>; 2] {
        [kinds.to_vec(), vec![FeatureKind::Numeric; kinds.len()]]
    }

    /// The flat walk must land on exactly the frozen reference arena's
    /// leaf, in both record layouts: per-tree predictions and leaf counts
    /// are layout-invariant bitwise.
    #[test]
    fn flat_walk_matches_the_reference_arena_walk_bitwise() {
        let (x, y, kinds) = dataset(200, 11);
        let rows_major = x.to_rows();
        let rows: Vec<u32> = (0..200).collect();
        let cfg = ForestConfig::default();
        for kinds in both_layouts(&kinds) {
            for seed in 0..4u64 {
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let tree = RegressionTree::fit(&x, &y, &rows, &kinds, &cfg, &mut rng);
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let oracle =
                    crate::reference::fit_tree(&rows_major, &y, &rows, &kinds, &cfg, &mut rng);
                for (i, row) in rows_major.iter().enumerate() {
                    let (p, q) = (tree.predict_leaf(row), oracle.predict_leaf(row));
                    assert_eq!(p.mean.to_bits(), q.mean.to_bits(), "seed {seed}, row {i}");
                    assert_eq!(p.count, q.count, "seed {seed}, row {i}");
                    assert_eq!(tree.predict_at(&x, i).to_bits(), p.mean.to_bits());
                }
            }
        }
    }

    /// The blocked descent (mixed and numeric-specialized steps, fixed
    /// strides, masked indices, padded arenas, tail-lane padding) must land
    /// every lane on the scalar walk's leaf.
    #[test]
    fn blocked_descent_matches_scalar_descent() {
        let (x, y, kinds) = dataset(300, 13);
        let rows: Vec<u32> = (0..300).collect();
        let cfg = ForestConfig::default();
        for kinds in both_layouts(&kinds) {
            let mut rng = Xoshiro256PlusPlus::new(5);
            let tree = RegressionTree::fit(&x, &y, &rows, &kinds, &cfg, &mut rng);
            let numeric = kinds.iter().all(|k| *k == FeatureKind::Numeric);
            assert_eq!(tree.nodes.is_empty(), numeric, "record layout");
            let buf = transpose::<STRIDE_NARROW>(&x, 0, x.n_rows());
            let m = x.n_rows();
            let mut idx = [0u32; LANES];
            for block in 0..m.div_ceil(LANES) {
                let lo = block * LANES;
                let k = LANES.min(m - lo);
                idx.fill(0);
                tree.descend_block(block_rows(&buf, lo, k), &mut idx);
                for (j, &leaf) in idx[..k].iter().enumerate() {
                    assert_eq!(
                        leaf as usize,
                        tree.leaf_id(|f| x.get(lo + j, f)),
                        "block {block}, lane {j}"
                    );
                }
            }
        }
    }

    /// The folds are pure functions of the value sequence and combine the
    /// obvious small cases exactly; the exact fold is the serial sum.
    #[test]
    fn fold_lanes_is_deterministic_and_exact_on_small_inputs() {
        let vals: Vec<f64> = (0..17).map(|i| f64::from(i) * 0.25 + 0.1).collect();
        for mode in [FitMode::Exact, FitMode::Fast] {
            assert_eq!(fold_lanes(mode, [2.0, 3.0]), (5.0, 13.0));
            assert_eq!(
                fold_lanes(mode, vals.clone()),
                fold_lanes(mode, vals.clone())
            );
        }
        let (mut s, mut ss) = (0.0, 0.0);
        for &v in &vals {
            s += v;
            ss += v * v;
        }
        assert_eq!(fold_lanes(FitMode::Exact, vals), (s, ss));
    }
}
