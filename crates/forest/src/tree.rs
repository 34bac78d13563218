//! A single CART regression tree, and the one growth loop both fit modes
//! share.
//!
//! A fitted [`RegressionTree`] is stored in one layout only: the flat
//! breadth-first node records of [`crate::flat`], with its leaf statistics
//! and split gains beside them. The growth loop builds a preorder pointer
//! arena (`Node`) as scratch and compiles it into those records before it
//! returns; the arena is dropped there.
//!
//! Growth is iterative (an explicit work stack, no recursion) and operates
//! on the flat column-major [`FeatureMatrix`]. The node's rows live as one
//! contiguous segment of a shared buffer that is partitioned *in place* at
//! every split (no per-node allocation). Everything but the numeric split
//! search is the same in both fit modes: the stop tests, the per-node
//! feature draw, best-split selection, the categorical search, row routing
//! by integer rank, leaf statistics, and a mask of numeric columns already
//! found constant in the segment (constancy survives subsetting, and the
//! search would find no split, so skipping them is bitwise neutral).
//!
//! [`FitMode::Exact`]'s numeric search sorts packed `(rank, row)` words — a
//! precomputed dense **rank** per column in the high bits, the row id in the
//! low bits — so the sort comparator is two shifts and an integer compare
//! with no memory access at all, and the boundary scan walks one contiguous
//! array instead of chasing `f64`s through two levels of pointer
//! indirection. [`FitMode::Fast`] searches with counting sorts instead, and
//! sorts only columns with many distinct values, stably ([`crate::fast`]).
//!
//! Why does Exact sort per node at all, rather than presorting each feature
//! once and partitioning the orders down the nest (the scikit-learn
//! scheme)? Bit identity. `sort_unstable_by`'s permutation of *tied* values
//! depends on its internal algorithm state, and exact real-arithmetic gain
//! ties between different candidate splits are common in small nodes (few
//! rows, ordinal features), so the winning split is decided by the last-ulp
//! rounding of sums accumulated in tie order. Any scheme that changes tie
//! order changes predictions (measured: ~1 tree in 32 on the golden
//! workloads). For the same reason the comparator looks only at the rank
//! bits: ranks preserve the exact equalities and order of the original
//! values (−0.0 collapsed onto +0.0, NaN rejected upstream), so it returns
//! exactly the same `Ordering` as the historical `partial_cmp` for every
//! pair, and `sort_unstable_by` — a deterministic function of the input
//! array and the comparator's answers — reproduces the historical
//! permutation bit for bit, ties included. Comparing the full packed word
//! instead would order ties by row id and change trees. See DESIGN.md §9
//! and `crate::reference`.

use rand::Rng;

use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

use crate::fast::CountingTables;
use crate::flat::{FlatNode, NumNode};
use crate::hyper::{FitMode, ForestConfig};
use crate::split::{
    best_categorical_split, best_numeric_split_ranked, RankRow, Split, SplitRule, SplitScratch,
};

/// Statistics of a leaf node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafStats {
    /// Mean target of the training rows in the leaf (the prediction).
    pub mean: f64,
    /// Population variance of the training rows in the leaf.
    pub variance: f64,
    /// Number of training rows in the leaf.
    pub count: u32,
}

/// One node of a preorder pointer arena indexed by `u32`. The growth loop
/// builds a tree's arena as scratch and compiles it into the flat records
/// of a [`RegressionTree`]; only [`crate::reference`] keeps arenas.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Internal {
        feature: u32,
        rule: SplitRule,
        left: u32,
        right: u32,
    },
    Leaf(LeafStats),
}

/// A CART regression tree grown with SSE splits.
///
/// A fitted tree is stored only as flat breadth-first node records, the
/// layout every predict path walks ([`crate::flat`]): the batch kernels
/// descend it in blocks of rows, and the scalar methods here walk it one
/// row at a time with the same routing arithmetic. Beside the records sit
/// the per-node leaf means the kernels gather, and the cold data the public
/// methods return, each sized exactly: per-node leaf variances and counts
/// (zero at internal nodes) and the split gains in growth order.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    /// Node records of a tree with a categorical split, padded to a power
    /// of two; empty for all-numeric trees, which use `num`.
    pub(crate) nodes: Vec<FlatNode>,
    /// Packed records of an all-numeric tree (same ids, same padding);
    /// empty when `nodes` is not.
    pub(crate) num: Vec<NumNode>,
    /// Leaf mean per node id (`μ`, the prediction; 0 at internal nodes).
    pub(crate) mean: Vec<f64>,
    /// Leaf variance per node id (0 at internal nodes).
    variance: Vec<f64>,
    /// Leaf training-row count per node id (0 at internal nodes).
    count: Vec<u32>,
    /// (feature, gain) pairs of every accepted split, in growth order.
    split_gains: Vec<(u32, f64)>,
    /// `Σ var·count` over the leaves, folded in preorder at compile time.
    pub(crate) weighted_leaf_variance: f64,
    /// `Σ count` over the leaves, folded in preorder at compile time.
    pub(crate) leaf_count_total: f64,
}

/// Sentinel parent index for the root task.
const NO_PARENT: u32 = u32::MAX;

/// One pending node of the growth stack: the half-open segment
/// `[start, end)` of the shared row buffer, plus where to record the
/// resulting arena index.
struct Task {
    start: usize,
    end: usize,
    depth: u32,
    parent: u32,
    is_left: bool,
    /// Bit `f` set means numeric feature `f` was found constant within this
    /// segment by an ancestor, so its split search is skipped.
    constant: u64,
}

/// The constant-mask bit of feature `f`. Only the first 64 features are
/// tracked; a wider one just pays the (cheap) rediscovery pass.
fn constant_bit(f: usize) -> u64 {
    1u64.checked_shl(f as u32).unwrap_or(0)
}

/// Tables one fit shares across all its trees: they depend only on the
/// training matrix, the fit mode and the trees' common row count, not on
/// the bootstrap sample.
pub(crate) struct FitTables {
    /// Dense ranks of every numeric column ([`numeric_ranks`]). Both fit
    /// modes search and route rows by them.
    ranks: Vec<Vec<u32>>,
    /// [`FitMode::Fast`]'s counting-sort tables; `None` under
    /// [`FitMode::Exact`].
    counting: Option<CountingTables>,
}

impl FitTables {
    /// Builds the tables for trees grown on `m` rows each.
    pub(crate) fn new(x: &FeatureMatrix, kinds: &[FeatureKind], mode: FitMode, m: usize) -> Self {
        let ranks = numeric_ranks(x, kinds);
        let counting = (mode == FitMode::Fast).then(|| CountingTables::new(x, &ranks, m));
        Self { ranks, counting }
    }
}

impl RegressionTree {
    /// Grows a tree on the rows `rows` of `(x, y)` with the numeric split
    /// search of `config.fit_mode`.
    ///
    /// `kinds` gives the per-column feature kinds; the random feature subset
    /// at each node is drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `rows` is empty or any referenced target is non-finite.
    #[must_use]
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        rows: &[u32],
        kinds: &[FeatureKind],
        config: &ForestConfig,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        assert!(
            rows.iter().all(|&r| y[r as usize].is_finite()),
            "targets must be finite"
        );
        let tables = FitTables::new(x, kinds, config.fit_mode, rows.len());
        grow(x, y, rows, kinds, config, rng, &tables)
    }

    /// Returns the leaf statistics for a feature row.
    ///
    /// # Panics
    /// Panics if `row` is shorter than the features the tree splits on.
    #[must_use]
    pub fn predict_leaf(&self, row: &[f64]) -> LeafStats {
        self.leaf(self.leaf_id(|f| row[f]))
    }

    /// Returns the leaf statistics for row `row` of a feature matrix,
    /// without materializing the row.
    ///
    /// # Panics
    /// Panics if `row` is out of range or the matrix is narrower than the
    /// features the tree splits on.
    #[must_use]
    pub fn predict_leaf_at(&self, x: &FeatureMatrix, row: usize) -> LeafStats {
        self.leaf(self.leaf_id(|f| x.get(row, f)))
    }

    /// Point prediction (leaf mean).
    #[must_use]
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.mean[self.leaf_id(|f| row[f])]
    }

    /// Point prediction for row `row` of a feature matrix.
    #[must_use]
    pub fn predict_at(&self, x: &FeatureMatrix, row: usize) -> f64 {
        self.mean[self.leaf_id(|f| x.get(row, f))]
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.mean.len()
    }

    /// Number of leaves: every internal node records one split gain, and a
    /// binary tree has one more leaf than internal nodes.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.split_gains.len() + 1
    }

    /// `(feature, gain)` pairs of every split, for importance accumulation.
    #[must_use]
    pub fn split_gains(&self) -> &[(u32, f64)] {
        &self.split_gains
    }

    /// The statistics of leaf node `id`.
    pub(crate) fn leaf(&self, id: usize) -> LeafStats {
        LeafStats {
            mean: self.mean[id],
            variance: self.variance[id],
            count: self.count[id],
        }
    }

    /// Compiles a grown tree's preorder arena into the flat records
    /// ([`crate::flat`]) in a single breadth-first pass. Children are pushed
    /// consecutively, so an internal node's children get the next two flat
    /// ids at the moment it is visited — the `right = kid + 1` adjacency
    /// holds by construction. A tree with no categorical split packs its
    /// records ([`NumNode`]). `split_gains` (growth order) is kept as it
    /// is, trimmed to its length.
    pub(crate) fn compile(arena: &[Node], mut split_gains: Vec<(u32, f64)>) -> Self {
        let n = arena.len();
        // BFS queue of arena ids; its index is the flat id.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(0);
        let padded = n.next_power_of_two();
        let mut nodes = Vec::with_capacity(padded);
        let mut mean = vec![0.0f64; n];
        let mut variance = vec![0.0f64; n];
        let mut count = vec![0u32; n];
        let mut numeric = true;
        let mut head = 0usize;
        while head < order.len() {
            match arena[order[head] as usize] {
                Node::Internal {
                    feature,
                    rule,
                    left,
                    right,
                } => {
                    nodes.push(FlatNode::split(feature, rule, order.len() as u32));
                    order.push(left);
                    order.push(right);
                    numeric &= matches!(rule, SplitRule::Threshold(_));
                }
                Node::Leaf(stats) => {
                    nodes.push(FlatNode::leaf(head as u32));
                    mean[head] = stats.mean;
                    variance[head] = stats.variance;
                    count[head] = stats.count;
                }
            }
            head += 1;
        }
        debug_assert_eq!(order.len(), n, "every arena node reachable exactly once");
        // Pad to a power of two with unreachable self-looping leaves so the
        // descent can mask node indices (`ix & (len - 1)`) instead of
        // bounds-checking them. The mask is an identity for real ids.
        nodes.extend((n..padded).map(|id| FlatNode::leaf(id as u32)));
        let mut num = Vec::new();
        if numeric {
            num = nodes.iter().map(NumNode::pack).collect();
            nodes = Vec::new();
        }
        // The noise diagnostic's two sums, folded over the arena in
        // preorder, the order `mean_leaf_variance` has always summed in.
        let weighted_leaf_variance = arena
            .iter()
            .map(|nd| match nd {
                Node::Leaf(s) => s.variance * f64::from(s.count),
                Node::Internal { .. } => 0.0,
            })
            .sum();
        let leaf_count_total = arena
            .iter()
            .map(|nd| match nd {
                Node::Leaf(s) => f64::from(s.count),
                Node::Internal { .. } => 0.0,
            })
            .sum();
        split_gains.shrink_to_fit();
        Self {
            nodes,
            num,
            mean,
            variance,
            count,
            split_gains,
            weighted_leaf_variance,
            leaf_count_total,
        }
    }
}

/// Grows one tree on the rows `rows` of `(x, y)` with the numeric split
/// search of the fit mode `tables` were built for: the growth loop of
/// [`RegressionTree::fit`] and of every forest fit. The preorder arena the
/// loop builds is scratch: it is compiled into the tree's flat records and
/// dropped before this returns, so a pool worker holds at most one arena.
///
/// `rows` must be non-empty and reference finite targets only; the callers
/// check both.
pub(crate) fn grow(
    x: &FeatureMatrix,
    y: &[f64],
    rows: &[u32],
    kinds: &[FeatureKind],
    config: &ForestConfig,
    rng: &mut Xoshiro256PlusPlus,
    tables: &FitTables,
) -> RegressionTree {
    let (nodes, split_gains) = grow_arena(x, y, rows, kinds, config, rng, tables);
    RegressionTree::compile(&nodes, split_gains)
}

/// The growth loop proper: the preorder arena and the split gains in
/// growth order.
fn grow_arena(
    x: &FeatureMatrix,
    y: &[f64],
    rows: &[u32],
    kinds: &[FeatureKind],
    config: &ForestConfig,
    rng: &mut Xoshiro256PlusPlus,
    tables: &FitTables,
) -> (Vec<Node>, Vec<(u32, f64)>) {
    // Row ids and ranks are both < n_rows, so they fit 16-bit halves
    // whenever the training set does — the common case by far, and worth
    // half the per-node sort bandwidth. Both layouts produce the same
    // permutation (the comparator answers are identical and the sort is
    // deterministic in them), so layout selection cannot affect results.
    if x.n_rows() <= 1 << 16 {
        grow_packed::<u32>(x, y, rows, kinds, config, rng, tables)
    } else {
        grow_packed::<u64>(x, y, rows, kinds, config, rng, tables)
    }
}

/// The iterative growth loop, monomorphized over the packed-word layout.
fn grow_packed<P: RankRow>(
    x: &FeatureMatrix,
    y: &[f64],
    rows: &[u32],
    kinds: &[FeatureKind],
    config: &ForestConfig,
    rng: &mut Xoshiro256PlusPlus,
    tables: &FitTables,
) -> (Vec<Node>, Vec<(u32, f64)>) {
    let d = kinds.len();
    let mtry = config.mtry.resolve(d).min(d);
    let m = rows.len();
    let ranks = &tables.ranks;

    // Shared node-order row buffer: every node is a contiguous segment.
    let mut rows_buf: Vec<u32> = rows.to_vec();
    // Scratch for the per-node packed `(rank, row)` sort.
    let mut order: Vec<P> = Vec::with_capacity(m);
    let mut tmp: Vec<u32> = Vec::with_capacity(m);
    let mut scratch = SplitScratch::default();
    // `FitMode::Fast`'s counting-sort search; `None` under `FitMode::Exact`.
    let mut counting = tables.counting.as_ref().map(CountingTables::for_tree);
    let mut feature_ids: Vec<usize> = (0..d).collect();

    let mut nodes: Vec<Node> = Vec::new();
    let mut split_gains: Vec<(u32, f64)> = Vec::new();

    // Explicit work stack; pushing the right child before the left keeps
    // the visit order (and therefore RNG consumption and arena layout)
    // identical to the historical preorder recursion.
    let mut stack = vec![Task {
        start: 0,
        end: m,
        depth: 0,
        parent: NO_PARENT,
        is_left: false,
        constant: 0,
    }];
    while let Some(task) = stack.pop() {
        let n_seg = task.end - task.start;
        // One fused pass computes the constant-target stop test AND the
        // node's target total (accumulated in node order, exactly as the
        // historical per-feature computation did — hoisting it here is
        // bit-neutral, and fusing saves a second walk over the segment).
        let (stop, node_total) =
            if n_seg < config.min_split || config.max_depth.is_some_and(|dd| task.depth >= dd) {
                (true, 0.0)
            } else {
                node_stats(y, &rows_buf[task.start..task.end])
            };
        let mut constant = task.constant;
        let split = if stop {
            None
        } else {
            // Partial Fisher–Yates: the first `mtry` entries of
            // `feature_ids` become the node's feature subset.
            for i in 0..mtry {
                let j = rng.gen_range(i..d);
                feature_ids.swap(i, j);
            }
            let seg = &rows_buf[task.start..task.end];
            // The best split so far, with its boundary rank when numeric,
            // so the partition below can route rows by integer rank.
            let mut best: Option<(Split, u32)> = None;
            for &f in &feature_ids[..mtry] {
                if constant & constant_bit(f) != 0 {
                    continue;
                }
                let s = match kinds[f] {
                    FeatureKind::Numeric => {
                        let ranks_f = &ranks[f];
                        let mut col_constant = false;
                        let s = if n_seg < 2 * config.min_leaf {
                            None
                        } else if let Some(c) = counting.as_mut().filter(|c| c.covers(f)) {
                            c.best_split(
                                f,
                                ranks_f,
                                y,
                                seg,
                                node_total,
                                config.min_leaf,
                                &mut col_constant,
                            )
                        } else {
                            // Packing doubles as the constant-feature test
                            // (one gather pass instead of two): a constant
                            // column would sort trivially and scan to no
                            // admissible boundary.
                            order.clear();
                            let first_rank = ranks_f[seg[0] as usize];
                            col_constant = true;
                            order.extend(seg.iter().map(|&r| {
                                let rank = ranks_f[r as usize];
                                col_constant &= rank == first_rank;
                                P::pack(rank, r)
                            }));
                            if col_constant {
                                None
                            } else {
                                // Compare ONLY the rank bits: the comparator
                                // then answers exactly like the historical
                                // float comparator (ranks preserve value
                                // order and ties). Exact's unstable sort
                                // then reproduces the historical permutation;
                                // comparing the full word would break ties by
                                // row id — different trees. Fast sorts
                                // stably: ties stay in segment order.
                                if counting.is_some() {
                                    order.sort_by_key(|&a| a.rank());
                                } else {
                                    order.sort_unstable_by_key(|&a| a.rank());
                                }
                                best_numeric_split_ranked(
                                    x.column(f),
                                    y,
                                    node_total,
                                    &order,
                                    f,
                                    config.min_leaf,
                                )
                            }
                        };
                        if col_constant {
                            constant |= constant_bit(f);
                        }
                        s
                    }
                    FeatureKind::Categorical { n_categories } => best_categorical_split(
                        x.column(f),
                        y,
                        seg,
                        f,
                        n_categories,
                        config.min_leaf,
                        &mut scratch,
                    )
                    .map(|s| (s, 0)),
                };
                if let Some((s, boundary)) = s {
                    if best.as_ref().is_none_or(|(b, _)| s.gain > b.gain) {
                        best = Some((s, boundary));
                    }
                }
            }
            best
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
                // Route rows by integer rank when the winner is numeric
                // (`rank <= boundary` ⇔ `value <= threshold`, exactly);
                // fall back to the rule itself for categorical winners.
                let seg = &mut rows_buf[task.start..task.end];
                let n_left = match split.rule {
                    SplitRule::Threshold(_) => {
                        let ranks_f = &ranks[split.feature];
                        stable_partition(seg, &mut tmp, |r| ranks_f[r as usize] <= boundary)
                    }
                    SplitRule::Categories(_) => {
                        let col = x.column(split.feature);
                        stable_partition(seg, &mut tmp, |r| split.rule.goes_left(col[r as usize]))
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
                let mid = task.start + n_left;
                stack.push(Task {
                    start: mid,
                    end: task.end,
                    depth: task.depth + 1,
                    parent: idx,
                    is_left: false,
                    constant,
                });
                stack.push(Task {
                    start: task.start,
                    end: mid,
                    depth: task.depth + 1,
                    parent: idx,
                    is_left: true,
                    constant,
                });
            }
        }
    }

    (nodes, split_gains)
}

/// One fused pass over a node's segment: whether every target equals the
/// first (the historical `constant_targets` stop test) and the node-order
/// target sum (the historical per-feature `total`, hoisted).
fn node_stats(y: &[f64], rows: &[u32]) -> (bool, f64) {
    let first = y[rows[0] as usize];
    let mut all_eq = true;
    let mut sum = 0.0;
    for &r in rows {
        let v = y[r as usize];
        all_eq &= v == first;
        sum += v;
    }
    (all_eq, sum)
}

/// Maps a finite `f64` to a `u64` whose `cmp` answers exactly like the
/// float's `partial_cmp`: negative values have their bits flipped, positive
/// values get the sign bit set, and `-0.0` is collapsed onto `+0.0` first so
/// the two compare `Equal` as IEEE requires. Used to build the dense rank
/// tables below.
#[inline]
fn sort_key(v: f64) -> u64 {
    debug_assert!(!v.is_nan(), "NaN feature value");
    let v = if v == 0.0 { 0.0 } else { v };
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Dense order-preserving ranks for every numeric column of `x`:
/// `ranks[f][r]` is the number of distinct values of column `f` strictly
/// below `x[r][f]`. Ranks compare exactly like the original values
/// (`-0.0` collapsed onto `+0.0`), so the per-node packed sort and the
/// boundary scan can work purely on integers. Computed once per forest fit
/// and shared across all trees. Categorical columns get an empty table.
fn numeric_ranks(x: &FeatureMatrix, kinds: &[FeatureKind]) -> Vec<Vec<u32>> {
    kinds
        .iter()
        .enumerate()
        .map(|(f, kind)| match kind {
            FeatureKind::Numeric => column_ranks(x.column(f)),
            FeatureKind::Categorical { .. } => Vec::new(),
        })
        .collect()
}

/// Dense ranks of one column (any correct dense ranking is deterministic in
/// the multiset of values, so the sort here carries no bit-identity risk).
fn column_ranks(col: &[f64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = col
        .iter()
        .enumerate()
        .map(|(i, &v)| (sort_key(v), i as u32))
        .collect();
    keyed.sort_unstable_by_key(|&(k, _)| k);
    let mut ranks = vec![0u32; col.len()];
    let mut rank = 0u32;
    for w in 1..keyed.len() {
        if keyed[w].0 != keyed[w - 1].0 {
            rank += 1;
        }
        ranks[keyed[w].1 as usize] = rank;
    }
    ranks
}

/// Stably partitions `seg` so rows accepted by `goes_left` come first,
/// preserving relative order on both sides; returns the left count.
fn stable_partition(seg: &mut [u32], tmp: &mut Vec<u32>, goes_left: impl Fn(u32) -> bool) -> usize {
    if tmp.len() < seg.len() {
        tmp.resize(seg.len(), 0);
    }
    // Branchless two-stream write: every element is stored to both the next
    // left slot (in place) and the next right slot (scratch), and exactly
    // one cursor advances. The in-place store is safe because the left
    // cursor never passes the read index, and any slot it scribbles on is
    // either overwritten by a later left element or by the scratch
    // copy-back. Same output as the branchy loop, no data-dependent branch.
    let mut w = 0usize;
    let mut t = 0usize;
    for i in 0..seg.len() {
        let r = seg[i];
        let left = goes_left(r);
        seg[w] = r;
        tmp[t] = r;
        w += usize::from(left);
        t += usize::from(!left);
    }
    seg[w..].copy_from_slice(&tmp[..t]);
    w
}

/// Single-pass leaf statistics (Youngs–Cramer update).
///
/// The running `sum` accumulates in exactly the historical order, so the
/// leaf *mean* is bit-identical to the old two-pass computation; the
/// variance accumulator `m2 += (k·v − sum_k)² / (k(k−1))` is exactly zero
/// for constant targets with exactly-representable partial sums (single-row
/// and integer-valued leaves in particular) and agrees with the two-pass
/// value to rounding error otherwise (verified against
/// `reference::leaf_stats` in tests).
fn leaf_stats(y: &[f64], rows: &[u32]) -> LeafStats {
    let mut sum = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &r) in rows.iter().enumerate() {
        let v = y[r as usize];
        sum += v;
        if i > 0 {
            let k = (i + 1) as f64;
            let d = k * v - sum;
            m2 += d * d / (k * (k - 1.0));
        }
    }
    let n = rows.len() as f64;
    LeafStats {
        mean: sum / n,
        variance: m2 / n,
        count: rows.len() as u32,
    }
}

#[cfg(test)]
impl RegressionTree {
    /// Heap bytes the tree retains, from the capacities of its vectors.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<FlatNode>()
            + self.num.capacity() * size_of::<NumNode>()
            + self.mean.capacity() * size_of::<f64>()
            + self.variance.capacity() * size_of::<f64>()
            + self.count.capacity() * size_of::<u32>()
            + self.split_gains.capacity() * size_of::<(u32, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_space::FeatureKind;

    fn fit_simple(x: &[Vec<f64>], y: &[f64], config: &ForestConfig) -> RegressionTree {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let m = FeatureMatrix::from_rows(x[0].len(), x);
        let rows: Vec<u32> = (0..x.len() as u32).collect();
        let mut rng = Xoshiro256PlusPlus::new(0);
        RegressionTree::fit(&m, y, &rows, &kinds, config, &mut rng)
    }

    #[test]
    fn fits_training_data_exactly_with_min_leaf_one() {
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..16).map(|i| f64::from(i * i)).collect();
        let cfg = ForestConfig {
            mtry: crate::hyper::Mtry::All,
            ..ForestConfig::default()
        };
        let tree = fit_simple(&x, &y, &cfg);
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict(xi), yi);
        }
        // Pure leaves have zero variance.
        for xi in &x {
            assert_eq!(tree.predict_leaf(xi).variance, 0.0);
        }
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i)]).collect();
        let y = vec![5.0; 8];
        let tree = fit_simple(&x, &y, &ForestConfig::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[100.0]), 5.0);
    }

    #[test]
    fn max_depth_zero_is_a_stump_mean() {
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i)]).collect();
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let cfg = ForestConfig {
            max_depth: Some(0),
            ..ForestConfig::default()
        };
        let tree = fit_simple(&x, &y, &cfg);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[0.0]), 1.5);
        let leaf = tree.predict_leaf(&[0.0]);
        assert_eq!(leaf.count, 4);
        assert!((leaf.variance - 1.25).abs() < 1e-12);
    }

    #[test]
    fn min_leaf_bounds_leaf_sizes() {
        let x: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..32).map(|i| f64::from(i % 7)).collect();
        let cfg = ForestConfig {
            min_leaf: 5,
            mtry: crate::hyper::Mtry::All,
            ..ForestConfig::default()
        };
        let tree = fit_simple(&x, &y, &cfg);
        for xi in &x {
            assert!(tree.predict_leaf(xi).count >= 5);
        }
    }

    #[test]
    fn splits_on_categorical_feature() {
        // Column 0 categorical with 3 levels; level 1 has high y.
        let x: Vec<Vec<f64>> = [0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0]
            .iter()
            .map(|&c| vec![c])
            .collect();
        let y = [1.0, 9.0, 1.2, 0.9, 9.1, 1.1, 1.05, 8.9];
        let kinds = vec![FeatureKind::Categorical { n_categories: 3 }];
        let m = FeatureMatrix::from_rows(1, &x);
        let rows: Vec<u32> = (0..8).collect();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let tree = RegressionTree::fit(&m, &y, &rows, &kinds, &ForestConfig::default(), &mut rng);
        // Category 1 rows predict ~9, others ~1.
        assert!(tree.predict(&[1.0]) > 8.0);
        assert!(tree.predict(&[0.0]) < 2.0);
        assert!(tree.predict(&[2.0]) < 2.0);
    }

    #[test]
    fn split_gains_are_positive_and_recorded() {
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![f64::from(i), 0.0]).collect();
        let y: Vec<f64> = (0..16).map(|i| if i < 8 { 0.0 } else { 1.0 }).collect();
        let cfg = ForestConfig {
            mtry: crate::hyper::Mtry::All,
            ..ForestConfig::default()
        };
        let tree = fit_simple(&x, &y, &cfg);
        assert!(!tree.split_gains().is_empty());
        assert!(tree.split_gains().iter().all(|&(_, g)| g > 0.0));
        // The informative feature is column 0.
        assert!(tree.split_gains().iter().all(|&(f, _)| f == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let x: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
            .collect();
        let y: Vec<f64> = (0..64).map(|i| f64::from(i % 5)).collect();
        let kinds = vec![FeatureKind::Numeric; 2];
        let m = FeatureMatrix::from_rows(2, &x);
        let rows: Vec<u32> = (0..64).collect();
        let cfg = ForestConfig::default();
        let t1 = RegressionTree::fit(&m, &y, &rows, &kinds, &cfg, &mut Xoshiro256PlusPlus::new(7));
        let t2 = RegressionTree::fit(&m, &y, &rows, &kinds, &cfg, &mut Xoshiro256PlusPlus::new(7));
        for xi in &x {
            assert_eq!(t1.predict(xi), t2.predict(xi));
        }
    }

    #[test]
    fn predict_at_matches_row_predict() {
        let x: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![f64::from(i % 4), f64::from(i / 4)])
            .collect();
        let y: Vec<f64> = (0..32).map(|i| f64::from(i % 6)).collect();
        let tree = fit_simple(&x, &y, &ForestConfig::default());
        let m = FeatureMatrix::from_rows(2, &x);
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(tree.predict_at(&m, i), tree.predict(xi));
            assert_eq!(tree.predict_leaf_at(&m, i), tree.predict_leaf(xi));
        }
    }

    /// Compiling keeps the growth arena whole: the reference's preorder
    /// rebuild of the flat tree is the arena index for index — every
    /// split, and every leaf's mean, variance and count bits (`Debug`
    /// prints each `f64` in a form that round-trips its bits) — and the
    /// split gains are kept in growth order. Both record layouts, both fit
    /// modes, bootstrap samples with duplicate rows.
    #[test]
    fn compile_keeps_the_growth_arena_and_the_rebuild_restores_it() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let rows: Vec<Vec<f64>> = (0..160)
            .map(|_| {
                let a = f64::from(rng.gen_range(0..6u32));
                let b = rng.next_f64() * 4.0;
                let c = f64::from(rng.gen_range(0..5u32));
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] + r[1] + if r[2] >= 3.0 { 2.0 } else { 0.0 } + rng.next_f64())
            .collect();
        let x = FeatureMatrix::from_rows(3, &rows);
        let mixed = vec![
            FeatureKind::Numeric,
            FeatureKind::Numeric,
            FeatureKind::Categorical { n_categories: 5 },
        ];
        for kinds in [mixed, vec![FeatureKind::Numeric; 3]] {
            for mode in [FitMode::Exact, FitMode::Fast] {
                let cfg = ForestConfig {
                    fit_mode: mode,
                    ..ForestConfig::default()
                };
                let tables = FitTables::new(&x, &kinds, mode, x.n_rows());
                for seed in 0..3u64 {
                    let mut rng = Xoshiro256PlusPlus::new(seed);
                    let (sample, _) = crate::forest::bootstrap_rows(x.n_rows(), &mut rng);
                    let (arena, gains) =
                        grow_arena(&x, &y, &sample, &kinds, &cfg, &mut rng, &tables);
                    let tree = RegressionTree::compile(&arena, gains.clone());
                    let context = format!("{kinds:?}, {mode:?}, seed {seed}");
                    assert!(
                        format!("{:?}", crate::reference::rebuild(&tree)) == format!("{arena:?}"),
                        "rebuilt arena differs: {context}"
                    );
                    assert_eq!(tree.split_gains(), &gains[..], "{context}");
                    assert_eq!(tree.n_nodes(), arena.len(), "{context}");
                    assert_eq!(
                        tree.n_leaves(),
                        arena.iter().filter(|n| matches!(n, Node::Leaf(_))).count(),
                        "{context}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "targets must be finite")]
    fn fit_rejects_non_finite_targets() {
        let x = FeatureMatrix::from_rows(1, &[vec![0.0], vec![1.0]]);
        let _ = RegressionTree::fit(
            &x,
            &[1.0, f64::NAN],
            &[0, 1],
            &[FeatureKind::Numeric],
            &ForestConfig::default(),
            &mut Xoshiro256PlusPlus::new(0),
        );
    }

    #[test]
    fn single_pass_leaf_stats_match_two_pass_reference() {
        // Mean must be bit-identical on any data (same accumulation order);
        // variance must be bit-identical on exactly-representable data and
        // within rounding error on noisy data.
        let exact: Vec<f64> = (0..64).map(|i| f64::from(i % 9) * 0.25).collect();
        let rows: Vec<u32> = (0..64).collect();
        let a = leaf_stats(&exact, &rows);
        let b = crate::reference::leaf_stats(&exact, &rows);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.count, b.count);
        assert!((a.variance - b.variance).abs() <= 1e-12 * b.variance.max(1.0));

        let mut rng = Xoshiro256PlusPlus::new(99);
        let noisy: Vec<f64> = (0..257).map(|_| rng.next_f64() * 3.0 + 0.1).collect();
        let rows: Vec<u32> = (0..257).collect();
        let a = leaf_stats(&noisy, &rows);
        let b = crate::reference::leaf_stats(&noisy, &rows);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert!((a.variance - b.variance).abs() <= 1e-12 * b.variance.max(1.0));

        // Constant targets with exact partial sums: exactly zero variance.
        let konst = vec![5.25; 33];
        let rows: Vec<u32> = (0..33).collect();
        assert_eq!(leaf_stats(&konst, &rows).variance, 0.0);
        // Inexact constants still agree with the two-pass reference's tiny
        // cancellation residue to within rounding error.
        let inexact = vec![0.1 + 0.2; 33];
        let a = leaf_stats(&inexact, &rows);
        let b = crate::reference::leaf_stats(&inexact, &rows);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert!((a.variance - b.variance).abs() < 1e-30);
    }
}
