//! The interface between parameter spaces and the programs being tuned.
//!
//! A [`TuningTarget`] is "a program you can run with a configuration and
//! time": the SPAPT kernel simulators, the *kripke* and *hypre* application
//! models, and any synthetic test function all implement it. Active learning
//! (Algorithm 1 in the paper) only ever talks to this trait.

use crate::config::Configuration;
use crate::space::ParamSpace;

use pwu_stats::Xoshiro256PlusPlus;

/// Why a measurement attempt produced no usable reading.
///
/// The taxonomy mirrors what a real autotuning harness sees when it runs
/// Orio-transformed kernels: the transformed source can fail to compile,
/// the binary can crash, or the timer can report garbage. The distinction
/// that matters downstream is *permanence*: a compile failure is a property
/// of the configuration and retrying cannot fix it, while crashes and bad
/// readings are transient system events worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The transformed code did not compile. Permanent: deterministic per
    /// configuration, so the configuration should be quarantined.
    Compile,
    /// The binary crashed (segfault, abort, OOM kill). Transient.
    Crash,
    /// The timer reported a non-finite or otherwise unusable value.
    /// Transient.
    BadReading,
    /// The run exceeded the harness timeout and was killed. Transient
    /// (system load can push a borderline run over the limit).
    ///
    /// Measurement reports timeouts through [`MeasureOutcome::Timeout`];
    /// this variant exists so aggregated failure reports
    /// ([`MeasureOutcome::classify`]) can name the cause with one type.
    Timeout,
}

impl FailureKind {
    /// True when retrying the same configuration cannot succeed.
    #[must_use]
    pub fn is_permanent(self) -> bool {
        matches!(self, FailureKind::Compile)
    }

    /// Short stable label (metrics, checkpoint format).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Compile => "compile",
            FailureKind::Crash => "crash",
            FailureKind::BadReading => "bad-reading",
            FailureKind::Timeout => "timeout",
        }
    }

    /// Parses a [`FailureKind::label`] back (checkpoint format).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "compile" => Some(FailureKind::Compile),
            "crash" => Some(FailureKind::Crash),
            "bad-reading" => Some(FailureKind::BadReading),
            "timeout" => Some(FailureKind::Timeout),
            _ => None,
        }
    }
}

/// The result of one fallible measurement attempt.
///
/// [`TuningTarget::try_measure`] returns this instead of a bare time so the
/// annotator can distinguish a clean reading from the ways a real run dies.
/// Failed attempts still carry the wall-clock `cost` they burned (compile
/// time, partial run before the crash, or the full timeout budget) so the
/// experiment's cumulative-cost accounting can charge for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureOutcome {
    /// A completed run with its measured time in seconds.
    Ok(f64),
    /// The run produced no reading.
    Failed {
        /// What went wrong.
        kind: FailureKind,
        /// Wall-clock seconds burned by the failed attempt.
        cost: f64,
    },
    /// The run exceeded the harness timeout and was killed.
    Timeout {
        /// Seconds spent before the kill (the timeout budget).
        cost: f64,
    },
}

impl MeasureOutcome {
    /// The reading, if the attempt succeeded.
    #[must_use]
    pub fn ok(self) -> Option<f64> {
        match self {
            MeasureOutcome::Ok(t) => Some(t),
            _ => None,
        }
    }

    /// Wall-clock seconds the attempt cost *beyond* any returned reading
    /// (zero for a successful run, the wasted time otherwise).
    #[must_use]
    pub fn wasted_cost(self) -> f64 {
        match self {
            MeasureOutcome::Ok(_) => 0.0,
            MeasureOutcome::Failed { cost, .. } | MeasureOutcome::Timeout { cost } => cost,
        }
    }

    /// The failure classification, `None` for a successful reading.
    #[must_use]
    pub fn classify(self) -> Option<FailureKind> {
        match self {
            MeasureOutcome::Ok(_) => None,
            MeasureOutcome::Failed { kind, .. } => Some(kind),
            MeasureOutcome::Timeout { .. } => Some(FailureKind::Timeout),
        }
    }
}

/// Static-analysis verdict on one configuration of a target.
///
/// Produced by [`TuningTarget::lint_config`]; the active-learning pool and
/// the model-based tuner use it to exclude configurations whose
/// transformations a legality analysis has proven unsafe, and to count
/// configurations that are safe but suspicious (e.g. a vectorization request
/// the compiler would have to ignore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConfigLegality {
    /// No finding: the configuration is safe to evaluate and search.
    Legal,
    /// Safe to evaluate, but a Warn-level finding applies (the simulated
    /// compiler would decline part of the transformation).
    Flagged,
    /// An Error-level finding: the transformation would be rejected (or
    /// would miscompile) on a real stack; searchers should exclude it.
    Illegal,
}

/// Tally of [`ConfigLegality`] verdicts over a candidate pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolLintCounts {
    /// Configurations with no finding.
    pub legal: usize,
    /// Configurations with Warn-level findings (kept, but counted).
    pub flagged: usize,
    /// Configurations excluded as illegal.
    pub illegal: usize,
}

impl PoolLintCounts {
    /// Classifies every configuration in `cfgs` against `target`.
    pub fn tally<'a>(
        target: &dyn TuningTarget,
        cfgs: impl IntoIterator<Item = &'a Configuration>,
    ) -> Self {
        let mut counts = Self::default();
        for cfg in cfgs {
            counts.count(target.lint_config(cfg));
        }
        counts
    }

    /// Counts one verdict.
    pub fn count(&mut self, verdict: ConfigLegality) {
        match verdict {
            ConfigLegality::Legal => self.legal += 1,
            ConfigLegality::Flagged => self.flagged += 1,
            ConfigLegality::Illegal => self.illegal += 1,
        }
    }

    /// Total number of classified configurations.
    #[must_use]
    pub fn total(&self) -> usize {
        self.legal + self.flagged + self.illegal
    }
}

/// A tunable program with a measurable execution time.
pub trait TuningTarget: Send + Sync {
    /// Benchmark name (e.g. `"adi"`, `"kripke"`).
    fn name(&self) -> &str;

    /// The parameter space of the target.
    fn space(&self) -> &ParamSpace;

    /// Noise-free execution time of a configuration, in seconds.
    ///
    /// This is the "ground truth" surface the simulator defines; real
    /// measurements scatter around it.
    fn ideal_time(&self, cfg: &Configuration) -> f64;

    /// Noise-free execution times for a batch of configurations.
    ///
    /// Element `i` is exactly `self.ideal_time(&cfgs[i])` — implementations
    /// may parallelize or memoize, but the returned bits must match the
    /// one-at-a-time path. Experiment drivers use this to pre-warm a
    /// target's evaluation cache for configurations that will be measured
    /// many times across strategies and seeds.
    fn ideal_times(&self, cfgs: &[Configuration]) -> Vec<f64> {
        cfgs.iter().map(|cfg| self.ideal_time(cfg)).collect()
    }

    /// One noisy wall-clock measurement, in seconds.
    ///
    /// The default adds no noise; simulators override this with their
    /// measurement-noise model.
    fn measure(&self, cfg: &Configuration, _rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.ideal_time(cfg)
    }

    /// The mean of `repeats` noisy measurements — the paper's protocol
    /// (35 repeats for kernels) for suppressing system noise.
    fn measure_averaged(
        &self,
        cfg: &Configuration,
        repeats: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> f64 {
        assert!(repeats > 0, "need at least one repeat");
        (0..repeats).map(|_| self.measure(cfg, rng)).sum::<f64>() / repeats as f64
    }

    /// One fallible wall-clock measurement attempt.
    ///
    /// The default wraps the infallible [`TuningTarget::measure`] — a
    /// simulator with no fault model never fails, and the default consumes
    /// exactly the same RNG stream as `measure`, so targets without faults
    /// behave bit-identically through either path. Targets with a fault
    /// model (see `pwu-spapt`'s `FaultModel`) override this to inject
    /// compile failures, crashes, timeouts and garbage readings.
    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        MeasureOutcome::Ok(self.measure(cfg, rng))
    }

    /// Static legality verdict for one configuration.
    ///
    /// The default says every configuration is [`ConfigLegality::Legal`];
    /// targets backed by a dependence analysis (the SPAPT kernel simulators
    /// with an attached legality mask) override this so the tuning loop can
    /// exclude provably illegal transformation requests before spending
    /// measurements on them.
    fn lint_config(&self, _cfg: &Configuration) -> ConfigLegality {
        ConfigLegality::Legal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    struct Quadratic {
        space: ParamSpace,
    }

    impl TuningTarget for Quadratic {
        fn name(&self) -> &str {
            "quadratic"
        }

        fn space(&self) -> &ParamSpace {
            &self.space
        }

        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            let x = f64::from(cfg.level(0));
            (x - 3.0) * (x - 3.0) + 1.0
        }
    }

    #[test]
    fn default_measure_is_noise_free() {
        let t = Quadratic {
            space: ParamSpace::new(
                "q",
                vec![Param::ordinal(
                    "x",
                    (0..8).map(f64::from).collect::<Vec<_>>(),
                )],
            ),
        };
        let mut rng = Xoshiro256PlusPlus::new(0);
        let cfg = Configuration::new(vec![3]);
        assert_eq!(t.measure(&cfg, &mut rng), 1.0);
        assert_eq!(t.measure_averaged(&cfg, 5, &mut rng), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_rejected() {
        let t = Quadratic {
            space: ParamSpace::new(
                "q",
                vec![Param::ordinal(
                    "x",
                    (0..8).map(f64::from).collect::<Vec<_>>(),
                )],
            ),
        };
        let mut rng = Xoshiro256PlusPlus::new(0);
        let _ = t.measure_averaged(&Configuration::new(vec![0]), 0, &mut rng);
    }

    #[test]
    fn default_try_measure_wraps_measure() {
        let t = Quadratic {
            space: ParamSpace::new(
                "q",
                vec![Param::ordinal(
                    "x",
                    (0..8).map(f64::from).collect::<Vec<_>>(),
                )],
            ),
        };
        let mut rng = Xoshiro256PlusPlus::new(0);
        let cfg = Configuration::new(vec![3]);
        let out = t.try_measure(&cfg, &mut rng);
        assert_eq!(out, MeasureOutcome::Ok(1.0));
        assert_eq!(out.ok(), Some(1.0));
        assert_eq!(out.wasted_cost(), 0.0);
    }

    #[test]
    fn failure_taxonomy_permanence_and_costs() {
        assert!(FailureKind::Compile.is_permanent());
        assert!(!FailureKind::Crash.is_permanent());
        assert!(!FailureKind::BadReading.is_permanent());
        assert!(!FailureKind::Timeout.is_permanent());
        let failed = MeasureOutcome::Failed {
            kind: FailureKind::Crash,
            cost: 0.7,
        };
        assert_eq!(failed.ok(), None);
        assert_eq!(failed.wasted_cost(), 0.7);
        assert_eq!(failed.classify(), Some(FailureKind::Crash));
        assert_eq!(MeasureOutcome::Timeout { cost: 5.0 }.wasted_cost(), 5.0);
        assert_eq!(
            MeasureOutcome::Timeout { cost: 5.0 }.classify(),
            Some(FailureKind::Timeout)
        );
        assert_eq!(MeasureOutcome::Ok(1.0).classify(), None);
        for kind in [
            FailureKind::Compile,
            FailureKind::Crash,
            FailureKind::BadReading,
            FailureKind::Timeout,
        ] {
            assert_eq!(FailureKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FailureKind::from_label("bogus"), None);
    }

    #[test]
    fn default_lint_is_legal_and_counts_tally() {
        let t = Quadratic {
            space: ParamSpace::new(
                "q",
                vec![Param::ordinal(
                    "x",
                    (0..8).map(f64::from).collect::<Vec<_>>(),
                )],
            ),
        };
        let cfgs: Vec<Configuration> = (0..4).map(|i| Configuration::new(vec![i])).collect();
        for c in &cfgs {
            assert_eq!(t.lint_config(c), ConfigLegality::Legal);
        }
        let counts = PoolLintCounts::tally(&t, &cfgs);
        assert_eq!(counts.legal, 4);
        assert_eq!(counts.flagged + counts.illegal, 0);
        assert_eq!(counts.total(), 4);
        // Severity is ordered for max-style folds.
        assert!(ConfigLegality::Legal < ConfigLegality::Flagged);
        assert!(ConfigLegality::Flagged < ConfigLegality::Illegal);
    }
}
