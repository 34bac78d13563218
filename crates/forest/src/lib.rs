//! From-scratch random-forest regression with prediction uncertainty.
//!
//! The paper's surrogate model is a Breiman-style random forest: an ensemble
//! of CART regression trees, each grown on a bootstrap resample of the
//! training set, choosing the best split among a random feature subset at
//! every node. Active learning additionally needs an *uncertainty* for every
//! prediction; two estimators are provided (see [`forest::RandomForest`]):
//!
//! - the across-tree standard deviation of the per-tree predictions, the
//!   estimator referenced by the paper;
//! - Hutter et al.'s law-of-total-variance estimator, which adds the
//!   within-leaf variance of each tree (kept for the ablation benches).
//!
//! Categorical features are split natively on category *subsets* using the
//! classic sort-by-mean reduction (optimal for squared error), rather than
//! being forced through one-hot encodings — this is the "effectiveness on
//! categorical features" property the paper relies on for *hypre*.
//!
//! Both fit modes grow every tree through one loop ([`tree`]) over the flat
//! column-major [`FeatureMatrix`](pwu_space::FeatureMatrix), and the fit
//! mode ([`FitMode`]) picks only the numeric split search and the ensemble
//! fold. `Exact` packs each node's rows as `(rank, row)` words and sorts
//! them per node, which reproduces the historical implementation bit for
//! bit (the sort tie order is observable through gain rounding — see
//! `tree` and DESIGN.md §9). The pre-overhaul
//! implementation is preserved in [`reference`] as a bit-identity oracle and
//! performance baseline. The opt-in [`fast`] search trades that bit identity
//! for speed under a *statistical*-equivalence contract (DESIGN.md §14):
//! counting-sort split search, and a stable sort for columns too wide to
//! count — still a pure function of the seed and invariant to thread count
//! and deal order. Every forest *predicts* through the [`flat`] module:
//! trees are compiled once into a branch-free breadth-first node layout
//! whose per-tree leaf values match [`RegressionTree::predict_at`] bitwise;
//! the fold is serial tree order for `Exact` and accumulator lanes for
//! `Fast`.
//!
//! Modules:
//! - [`hyper`] — hyper-parameters ([`ForestConfig`], [`Mtry`], [`FitMode`])
//! - [`split`] — exact best-split search for numeric and categorical columns
//! - [`tree`] — a single CART regression tree and the one growth loop
//! - [`fast`] — the statistically-equivalent fast numeric split search
//! - [`flat`] — the flat-node batch-predict layout and ensemble folds
//! - [`forest`] — the bagged ensemble with parallel fit/predict
//! - [`importance`] — impurity-based feature importances
//! - [`oob`] — out-of-bag error estimation
//! - [`reference`] — the historical row-major implementation (tests/benches)

pub mod fast;
pub mod flat;
pub mod forest;
pub mod hyper;
pub mod importance;
pub mod oob;
pub mod reference;
pub mod split;
pub mod tree;

pub use flat::fold_lanes;

/// Always `true`: the fast engine is compiled into every build. Kept only
/// because the `perfbench/` benchmark checks it.
pub const FAST_PATH_COMPILED: bool = true;
pub use forest::RandomForest;
pub use hyper::{FitMode, ForestConfig, Mtry};
pub use split::{Split, SplitRule};
pub use tree::RegressionTree;
