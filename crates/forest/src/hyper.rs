//! Forest hyper-parameters.

use pwu_stats::InvalidInput;

/// How many features each node considers for splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mtry {
    /// All features (bagged trees, no random subspace).
    All,
    /// `ceil(d / 3)` — the classic default for regression forests.
    Third,
    /// `ceil(sqrt(d))`.
    Sqrt,
    /// A fixed count (clamped to `d`).
    Fixed(usize),
}

impl Mtry {
    /// Resolves the feature-subset size for dimensionality `d`.
    ///
    /// Always returns at least 1 and at most `d`.
    #[must_use]
    pub fn resolve(self, d: usize) -> usize {
        let raw = match self {
            Mtry::All => d,
            Mtry::Third => d.div_ceil(3),
            Mtry::Sqrt => (d as f64).sqrt().ceil() as usize,
            Mtry::Fixed(k) => k,
        };
        raw.clamp(1, d.max(1))
    }
}

/// Which fit engine grows the trees.
///
/// `Exact` is the default and the oracle: it reproduces the frozen
/// [`crate::reference`] implementation bit for bit and is covered by the
/// bitwise golden/equivalence suites. `Fast` trades bitwise identity for
/// speed — presorted-per-column partition reuse, counting-sort split search
/// over the dense rank tables, f32 rank packing — while staying a pure
/// function of the seed and invariant to `PWU_THREADS` width and deal order.
/// Its contract is *statistical* equivalence (DESIGN.md §14): trajectory
/// RMSE within ε of `Exact` across seeds and bounded best-config quality
/// deltas over the kernel harness, enforced by `cargo xtask fast`.
///
/// Both modes predict through the same flat kernel; the mode also picks the
/// ensemble fold (serial tree order for `Exact`, accumulator lanes for
/// `Fast` — see [`crate::flat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitMode {
    /// Bit-identical to `pwu_forest::reference` (default).
    #[default]
    Exact,
    /// Statistically equivalent, deterministic per seed, faster.
    Fast,
}

impl FitMode {
    /// Stable one-word token used in checkpoints, session specs, span tags
    /// and protocol echoes.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FitMode::Exact => "exact",
            FitMode::Fast => "fast",
        }
    }

    /// Parses a [`FitMode::token`] back; `None` on unknown tokens.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "exact" => Some(FitMode::Exact),
            "fast" => Some(FitMode::Fast),
            _ => None,
        }
    }
}

/// Hyper-parameters of a [`crate::RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Feature-subset rule per node.
    pub mtry: Mtry,
    /// Minimum number of training rows in a leaf.
    pub min_leaf: usize,
    /// Minimum number of rows required to attempt a split.
    pub min_split: usize,
    /// Optional depth cap (root is depth 0).
    pub max_depth: Option<u32>,
    /// Whether each tree trains on a bootstrap resample (true for a random
    /// forest; false gives a randomized ensemble on the full set).
    pub bootstrap: bool,
    /// Which fit engine grows the trees (see [`FitMode`]).
    pub fit_mode: FitMode,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 64,
            mtry: Mtry::Third,
            min_leaf: 1,
            min_split: 2,
            max_depth: None,
            bootstrap: true,
            fit_mode: FitMode::Exact,
        }
    }
}

impl ForestConfig {
    /// Validates internal consistency, rejecting malformed settings.
    ///
    /// # Errors
    /// Returns [`InvalidInput`] on zero trees, zero leaf size, or
    /// `min_split < 2`.
    pub fn try_validate(&self) -> Result<(), InvalidInput> {
        let reject = |msg: &str| Err(InvalidInput::new("forest config", msg));
        if self.n_trees == 0 {
            return reject("forest needs at least one tree");
        }
        if self.min_leaf == 0 {
            return reject("min_leaf must be at least 1");
        }
        if self.min_split < 2 {
            return reject("min_split must be at least 2");
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on zero trees, zero leaf size, or `min_split < 2`. Use
    /// [`ForestConfig::try_validate`] to handle user-supplied
    /// hyper-parameters without panicking.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{}", e.message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtry_resolution() {
        assert_eq!(Mtry::All.resolve(10), 10);
        assert_eq!(Mtry::Third.resolve(10), 4);
        assert_eq!(Mtry::Third.resolve(2), 1);
        assert_eq!(Mtry::Sqrt.resolve(9), 3);
        assert_eq!(Mtry::Sqrt.resolve(10), 4);
        assert_eq!(Mtry::Fixed(100).resolve(5), 5);
        assert_eq!(Mtry::Fixed(0).resolve(5), 1);
    }

    #[test]
    fn default_config_is_valid() {
        ForestConfig::default().validate();
        assert_eq!(ForestConfig::default().fit_mode, FitMode::Exact);
    }

    #[test]
    fn fit_mode_tokens_round_trip() {
        for mode in [FitMode::Exact, FitMode::Fast] {
            assert_eq!(FitMode::parse(mode.token()), Some(mode));
        }
        assert_eq!(FitMode::parse("exact"), Some(FitMode::Exact));
        assert_eq!(FitMode::parse("fast"), Some(FitMode::Fast));
        assert_eq!(FitMode::parse("Fast"), None);
        assert_eq!(FitMode::parse(""), None);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_invalid() {
        ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        }
        .validate();
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        assert!(ForestConfig::default().try_validate().is_ok());
        let bad = ForestConfig {
            min_split: 1,
            ..ForestConfig::default()
        };
        let err = bad.try_validate().unwrap_err();
        assert_eq!(err.context, "forest config");
        assert!(err.to_string().contains("min_split"));
    }
}
