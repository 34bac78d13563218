//! Memoized kernel evaluation: the measurement engine's base-cost cache.
//!
//! The paper's protocol measures each configuration 35 times; historically
//! each repetition re-ran the whole model evaluation — decode the
//! configuration, apply the transformations, analyze cache traffic, price
//! the cycles — even though that *base cost* is a pure function of
//! `(kernel, configuration)` and only the noise/fault draw differs between
//! repetitions. [`EvalCache`] maps a configuration's encoded levels to its
//! base cost, so 35 repetitions cost one model evaluation plus 35 noise
//! draws.
//!
//! Why memoization is bit-exact: [`crate::cost::estimate_time`] consumes no
//! RNG and depends only on the configuration's levels and the kernel's
//! immutable structure (blocks, machine, legality masks), so replaying its
//! `f64` from a hash map returns the *identical* bits the recomputation
//! would have produced, and the measurement RNG stream — which only feeds
//! the noise/fault layer — advances exactly as before. Kernel builders that
//! change the surface ([`crate::Kernel::with_machine`],
//! [`crate::Kernel::with_legality`]) discard the cache. Concurrent fills
//! are benign — every thread computes the same pure value, so whichever
//! insert wins stores the same bits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use pwu_space::{ConfigLegality, Configuration, MeasureOutcome, ParamSpace, TuningTarget};
use pwu_stats::Xoshiro256PlusPlus;

use crate::kernels::Kernel;

/// Upper bound on cached configurations; past it new entries are computed
/// but not stored. SPAPT spaces have 10¹⁰⁺ points but a tuning campaign
/// touches at most tens of thousands, so the cap exists only to bound
/// memory if a caller streams the space.
const MAX_ENTRIES: usize = 1 << 20;

/// Hash-map memo from encoded configuration levels to base cost.
///
/// Interior-mutable (`RwLock`) so it can live behind the `&self` methods of
/// [`TuningTarget`]; `Clone` produces a *cold* cache — the memo is an
/// optimization, never state, so clones are free to re-derive it.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: RwLock<HashMap<Vec<u32>, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for EvalCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Cached handles for the registry mirrors of the hit/miss tallies
/// (`(hits, misses)`), shared by every cache in the process.
fn evalcache_counters() -> &'static (pwu_obs::Counter, pwu_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(pwu_obs::Counter, pwu_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            pwu_obs::counter_diag("evalcache.hits"),
            pwu_obs::counter_diag("evalcache.misses"),
        )
    })
}

impl EvalCache {
    /// A fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized base cost for `levels`, counted as a hit or a miss.
    fn lookup(&self, levels: &[u32]) -> Option<f64> {
        let found = self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(levels)
            .copied();
        // The global mirrors are *diagnostic*-plane: hit/miss increments
        // depend on scheduling (parallel repetitions share one kernel's
        // cache, so whether the second arrival hits depends on who filled
        // first), so they are excluded from the deterministic trace export.
        let mirrors = evalcache_counters();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mirrors.0.incr();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            mirrors.1.incr();
        }
        found
    }

    /// Stores the base cost for `levels`, unless the memo is full.
    fn store(&self, levels: &[u32], time: f64) {
        let mut guard = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.len() < MAX_ENTRIES {
            guard.insert(levels.to_vec(), time);
        }
    }

    /// Number of memoized configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since construction (monitoring/tests).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops every entry and frees the map's table, which
    /// `HashMap::clear` would keep. Builders call this when the surface
    /// changes; a served session calls it at the end of every request that
    /// fills the memo.
    pub fn clear(&self) {
        *self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = HashMap::new();
    }

    /// The memoized base cost for `cfg`, computing (and storing) it on the
    /// first call via `compute`.
    pub(crate) fn ideal_time(&self, cfg: &Configuration, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(t) = self.lookup(cfg.levels()) {
            return t;
        }
        let t = compute();
        self.store(cfg.levels(), t);
        t
    }
}

/// A [`Kernel`] stripped of its memo: every call re-derives the base cost
/// from scratch, exactly as the pre-cache implementation did, through the
/// reference chain (`decode` → `apply` → `analyze` → `breakdown`) rather
/// than the production evaluator that fills the memo.
///
/// This is the *reference* measurement path. The bit-identity property suite
/// drives a kernel and its `Uncached` twin through identical annotation
/// schedules and demands equal bits and equal RNG stream positions; the perf
/// harness times the two against each other to report the memoization
/// speedup honestly on the current machine.
#[derive(Debug, Clone)]
pub struct Uncached(pub Kernel);

impl TuningTarget for Uncached {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn space(&self) -> &ParamSpace {
        self.0.space()
    }

    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.0.ideal_time_uncached(cfg)
    }

    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.0.decode_legal(cfg).1
    }

    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.0.noise().perturb(self.0.ideal_time_uncached(cfg), rng)
    }

    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        let Some(fm) = self.0.faults().filter(|fm| fm.is_enabled()) else {
            return MeasureOutcome::Ok(self.measure(cfg, rng));
        };
        if fm.compile_fails(cfg, self.0.is_aggressive_uncached(cfg)) {
            return MeasureOutcome::Failed {
                kind: pwu_space::FailureKind::Compile,
                cost: fm.compile_cost,
            };
        }
        fm.measure_transient(self.0.ideal_time_uncached(cfg), rng, |ideal, rng| {
            self.0.noise().perturb(ideal, rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_frees_the_table() {
        let cache = EvalCache::new();
        for key in 0..64 {
            cache.store(&[key, 1, 2], 1.0);
        }
        assert_eq!(cache.len(), 64);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            cache.map.read().unwrap().capacity(),
            0,
            "the table must be freed"
        );
    }
}
