//! The annotator: "run the program, report the aggregated wall-clock time".
//!
//! The paper's protocol measures each configuration 35 times and averages.
//! On a real harness those runs fail — compiles break, binaries crash, runs
//! hang, timers report garbage — so the annotator here wraps the repeat
//! protocol in a fault-tolerance layer:
//!
//! - [`Annotator::try_evaluate`] drives [`pwu_space::TuningTarget::try_measure`]
//!   until it has the configured number of clean readings, retrying transient
//!   failures under a [`RetryPolicy`] and giving up immediately on permanent
//!   ones (a compile failure cannot be retried away);
//! - an [`Aggregator`] turns the readings into one label — the paper's plain
//!   mean by default, or a robust estimator (median, trimmed mean,
//!   MAD-filtered mean) that survives outlier spikes;
//! - [`MeasurementStats`] tallies every reading, failure, retry and second of
//!   wasted wall-clock so experiments can report what fault tolerance cost.
//!
//! With no fault model attached the fallible path consumes exactly the same
//! RNG stream as the historical `measure_averaged` call, so fault-free runs
//! are bit-identical to the pre-fault-tolerance implementation.

use std::fmt;

use pwu_space::{Configuration, FailureKind, MeasureOutcome, TuningTarget};
use pwu_stats::{InvalidInput, Xoshiro256PlusPlus};

/// How repeat readings are reduced to a single label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Aggregator {
    /// Arithmetic mean — the paper's protocol (bit-identical to the
    /// historical repeat-averaging when no faults fire).
    #[default]
    Mean,
    /// Sample median: robust to up to half the readings spiking.
    Median,
    /// Symmetric trimmed mean dropping `trim` of the sample at each end
    /// (`trim` in `[0, 0.5)`).
    TrimmedMean {
        /// Fraction trimmed from each tail.
        trim: f64,
    },
    /// Mean of readings within `k` median-absolute-deviations of the
    /// median; falls back to the median when the band is empty.
    MadFiltered {
        /// Width of the acceptance band in MAD units (2–3 is typical).
        k: f64,
    },
}

impl Aggregator {
    /// Reduces a non-empty slice of readings to one label.
    #[must_use]
    pub fn aggregate(self, xs: &[f64]) -> f64 {
        assert!(!xs.is_empty(), "cannot aggregate zero readings");
        match self {
            // Same summation order as the historical `measure_averaged`
            // so fault-free runs stay bit-identical.
            Aggregator::Mean => xs.iter().sum::<f64>() / xs.len() as f64,
            Aggregator::Median => pwu_stats::median(xs),
            Aggregator::TrimmedMean { trim } => pwu_stats::trimmed_mean(xs, trim),
            Aggregator::MadFiltered { k } => pwu_stats::mad_filtered_mean(xs, k),
        }
    }
}

/// Bounded-retry policy for transient measurement failures.
///
/// `max_retries` bounds the number of *failed* transient attempts tolerated
/// per annotation (across all repeats, not per repeat). Each failed attempt
/// can also charge an exponential backoff pause, expressed in the same
/// wall-clock seconds as measurements so it lands in the cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum failed transient attempts tolerated per annotation.
    pub max_retries: usize,
    /// Base backoff charged after the first failure; doubles per failure
    /// (`0.0` disables backoff accounting).
    pub backoff_cost: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            backoff_cost: 0.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: any failure fails the annotation.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            backoff_cost: 0.0,
        }
    }

    /// Backoff seconds charged after the `failure`-th failed attempt
    /// (1-based): `backoff_cost · 2^(failure−1)`, with the exponent capped
    /// at 16 and the product *saturated* to [`f64::MAX`]. A pathological
    /// `backoff_cost` (a watchdog deadline of `f64::MAX` cost units feeds
    /// one in here) must wedge the budget, not overflow to infinity and
    /// poison every downstream cost sum.
    #[must_use]
    pub fn backoff(&self, failure: usize) -> f64 {
        if self.backoff_cost <= 0.0 || failure == 0 {
            return 0.0;
        }
        let exp = (failure - 1).min(16) as u32;
        let raw = self.backoff_cost * f64::from(1u32 << exp);
        if raw.is_finite() {
            raw
        } else {
            f64::MAX
        }
    }
}

/// Process-global registry mirrors of [`MeasurementStats`], cached so the
/// measurement hot path pays one atomic add per tally instead of a map
/// lookup. Totals are on the deterministic plane: every annotation
/// contributes a seed-deterministic amount, so the sums are identical at
/// any pool width or deal order.
struct MeasureCounters {
    annotations: pwu_obs::Counter,
    readings: pwu_obs::Counter,
    retries: pwu_obs::Counter,
    failed_annotations: pwu_obs::Counter,
    compile_failures: pwu_obs::Counter,
    crashes: pwu_obs::Counter,
    bad_readings: pwu_obs::Counter,
    timeouts: pwu_obs::Counter,
}

impl MeasureCounters {
    fn failure_for(&self, kind: FailureKind) -> &pwu_obs::Counter {
        match kind {
            FailureKind::Compile => &self.compile_failures,
            FailureKind::Crash => &self.crashes,
            FailureKind::BadReading => &self.bad_readings,
            FailureKind::Timeout => &self.timeouts,
        }
    }
}

fn obs_counters() -> &'static MeasureCounters {
    static COUNTERS: std::sync::OnceLock<MeasureCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| MeasureCounters {
        annotations: pwu_obs::counter("measure.annotations"),
        readings: pwu_obs::counter("measure.readings"),
        retries: pwu_obs::counter("measure.retries"),
        failed_annotations: pwu_obs::counter("measure.failed_annotations"),
        compile_failures: pwu_obs::counter("measure.failures.compile"),
        crashes: pwu_obs::counter("measure.failures.crash"),
        bad_readings: pwu_obs::counter("measure.failures.bad_reading"),
        timeouts: pwu_obs::counter("measure.failures.timeout"),
    })
}

/// Tally of measurement activity: readings, failures by class, retries, and
/// wall-clock seconds wasted on attempts that produced no usable reading.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasurementStats {
    /// Annotations attempted (calls to `try_evaluate`/`evaluate`).
    pub annotations: usize,
    /// Clean readings obtained across all annotations.
    pub readings: usize,
    /// Attempts that died in compilation (permanent).
    pub compile_failures: usize,
    /// Attempts where the binary crashed mid-run.
    pub crashes: usize,
    /// Attempts whose reading was garbage (non-finite or flagged).
    pub bad_readings: usize,
    /// Attempts killed at the harness timeout.
    pub timeouts: usize,
    /// Transient failures that were retried.
    pub retries: usize,
    /// Annotations that produced no label (permanent failure or retry
    /// budget exhausted).
    pub failed_annotations: usize,
    /// Wall-clock seconds burned by failed attempts and backoff pauses.
    pub wasted_cost: f64,
}

impl MeasurementStats {
    /// Total failed attempts across all failure classes.
    #[must_use]
    pub fn total_failures(&self) -> usize {
        self.compile_failures + self.crashes + self.bad_readings + self.timeouts
    }

    /// Folds another tally into this one (for cross-repetition merges).
    pub fn merge(&mut self, other: &MeasurementStats) {
        self.annotations += other.annotations;
        self.readings += other.readings;
        self.compile_failures += other.compile_failures;
        self.crashes += other.crashes;
        self.bad_readings += other.bad_readings;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.failed_annotations += other.failed_annotations;
        self.wasted_cost += other.wasted_cost;
    }

    fn record_failure(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Compile => self.compile_failures += 1,
            FailureKind::Crash => self.crashes += 1,
            FailureKind::BadReading => self.bad_readings += 1,
            FailureKind::Timeout => self.timeouts += 1,
        }
    }
}

/// A configuration that could not be annotated.
///
/// Carries the failure class of the *final* attempt, the number of attempts
/// made, and the wall-clock wasted — enough for callers to decide between
/// quarantining the configuration (permanent) and re-queueing it later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationFailure {
    /// Failure class of the attempt that ended the annotation.
    pub kind: FailureKind,
    /// Measurement attempts made before giving up.
    pub attempts: usize,
    /// Wall-clock seconds burned by this annotation (failed runs plus
    /// backoff pauses).
    pub wasted_cost: f64,
}

impl AnnotationFailure {
    /// True when re-annotating the same configuration cannot succeed.
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        self.kind.is_permanent()
    }
}

impl fmt::Display for AnnotationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "annotation failed ({}) after {} attempt(s), wasting {:.3}s",
            self.kind.label(),
            self.attempts,
            self.wasted_cost
        )
    }
}

impl std::error::Error for AnnotationFailure {}

/// Evaluates configurations on a target with fault-tolerant repeat
/// aggregation.
///
/// Owns its RNG stream so annotation noise is independent of every other
/// random component of an experiment.
pub struct Annotator<'a> {
    target: &'a dyn TuningTarget,
    repeats: usize,
    rng: Xoshiro256PlusPlus,
    evaluations: usize,
    aggregator: Aggregator,
    retry: RetryPolicy,
    stats: MeasurementStats,
}

impl<'a> Annotator<'a> {
    /// Creates an annotator with the given repeat count (the paper uses 35
    /// for kernels, several for applications).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidInput`] if `repeats` is zero.
    pub fn try_new(
        target: &'a dyn TuningTarget,
        repeats: usize,
        seed: u64,
    ) -> Result<Self, InvalidInput> {
        if repeats == 0 {
            return Err(InvalidInput::new(
                "annotator config",
                "need at least one repeat",
            ));
        }
        Ok(Self {
            target,
            repeats,
            rng: Xoshiro256PlusPlus::new(seed),
            evaluations: 0,
            aggregator: Aggregator::default(),
            retry: RetryPolicy::default(),
            stats: MeasurementStats::default(),
        })
    }

    /// Panicking convenience form of [`Annotator::try_new`].
    #[must_use]
    pub fn new(target: &'a dyn TuningTarget, repeats: usize, seed: u64) -> Self {
        match Self::try_new(target, repeats, seed) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// Replaces the repeat aggregator (default: [`Aggregator::Mean`]).
    #[must_use]
    pub fn with_aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Replaces the retry policy (default: 5 retries, no backoff cost).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Fallibly measures one configuration: collects the configured number
    /// of clean readings and aggregates them.
    ///
    /// Transient failures (crash, timeout, garbage reading) are retried up
    /// to [`RetryPolicy::max_retries`] times across the whole annotation; a
    /// permanent failure (compile) aborts immediately since retrying cannot
    /// change the verdict. A successful attempt whose reading is non-finite
    /// is treated as a garbage reading (defense in depth against targets
    /// that return `NaN` through the infallible path).
    ///
    /// # Errors
    ///
    /// Returns [`AnnotationFailure`] describing the final failure when no
    /// label could be produced; check
    /// [`AnnotationFailure::is_permanent`] to decide whether to quarantine.
    pub fn try_evaluate(&mut self, cfg: &Configuration) -> Result<f64, AnnotationFailure> {
        self.evaluations += 1;
        self.stats.annotations += 1;
        obs_counters().annotations.incr();
        let mut readings = Vec::with_capacity(self.repeats);
        let mut wasted = 0.0;
        let mut attempts = 0usize;
        let mut failures = 0usize;
        while readings.len() < self.repeats {
            attempts += 1;
            let outcome = match self.target.try_measure(cfg, &mut self.rng) {
                MeasureOutcome::Ok(t) if !t.is_finite() => MeasureOutcome::Failed {
                    kind: FailureKind::BadReading,
                    cost: 0.0,
                },
                other => other,
            };
            match outcome {
                MeasureOutcome::Ok(t) => readings.push(t),
                fail => {
                    let kind = fail.classify().expect("non-Ok outcome has a kind");
                    wasted += fail.wasted_cost();
                    self.stats.record_failure(kind);
                    obs_counters().failure_for(kind).incr();
                    let exhausted = failures >= self.retry.max_retries;
                    if kind.is_permanent() || exhausted {
                        self.stats.failed_annotations += 1;
                        self.stats.wasted_cost += wasted;
                        obs_counters().failed_annotations.incr();
                        pwu_obs::event(
                            "measure.fail",
                            [
                                ("kind", pwu_obs::Arg::s(kind.label())),
                                ("attempts", pwu_obs::Arg::u(attempts as u64)),
                                ("cost", pwu_obs::Arg::f(wasted)),
                            ],
                        );
                        return Err(AnnotationFailure {
                            kind,
                            attempts,
                            wasted_cost: wasted,
                        });
                    }
                    failures += 1;
                    self.stats.retries += 1;
                    obs_counters().retries.incr();
                    wasted += self.retry.backoff(failures);
                }
            }
        }
        self.stats.readings += readings.len();
        self.stats.wasted_cost += wasted;
        obs_counters().readings.add(readings.len() as u64);
        pwu_obs::event(
            "measure.annotate",
            [
                ("readings", pwu_obs::Arg::u(readings.len() as u64)),
                ("attempts", pwu_obs::Arg::u(attempts as u64)),
            ],
        );
        Ok(self.aggregator.aggregate(&readings))
    }

    /// Measures one configuration, panicking if annotation fails.
    ///
    /// With no fault model on the target this never panics and is
    /// bit-identical to the historical repeat-averaging protocol.
    pub fn evaluate(&mut self, cfg: &Configuration) -> f64 {
        match self.try_evaluate(cfg) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of annotations attempted so far (including failed ones).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The measurement tally accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MeasurementStats {
        &self.stats
    }

    /// The target being annotated.
    #[must_use]
    pub fn target(&self) -> &dyn TuningTarget {
        self.target
    }

    /// The raw RNG state, for checkpointing.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores annotator progress from a checkpoint: RNG stream position,
    /// evaluation counter and measurement tally.
    pub fn restore_state(&mut self, rng: [u64; 4], evaluations: usize, stats: MeasurementStats) {
        self.rng = Xoshiro256PlusPlus::from_state(rng);
        self.evaluations = evaluations;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_space::{Param, ParamSpace};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Linear {
        space: ParamSpace,
    }

    impl TuningTarget for Linear {
        fn name(&self) -> &str {
            "linear"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            1.0 + f64::from(cfg.level(0))
        }
    }

    fn space() -> ParamSpace {
        ParamSpace::new(
            "l",
            vec![Param::ordinal(
                "x",
                (0..4).map(f64::from).collect::<Vec<_>>(),
            )],
        )
    }

    fn target() -> Linear {
        Linear { space: space() }
    }

    /// Fails the first `failures_before_ok` attempts with the given kind,
    /// then returns clean readings. Interior mutability keeps the
    /// `TuningTarget` receiver `&self`.
    struct Flaky {
        space: ParamSpace,
        kind: FailureKind,
        failures_before_ok: usize,
        attempts: AtomicUsize,
    }

    impl Flaky {
        fn new(kind: FailureKind, failures_before_ok: usize) -> Self {
            Self {
                space: space(),
                kind,
                failures_before_ok,
                attempts: AtomicUsize::new(0),
            }
        }
    }

    impl TuningTarget for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn ideal_time(&self, _cfg: &Configuration) -> f64 {
            2.0
        }
        fn try_measure(
            &self,
            cfg: &Configuration,
            _rng: &mut Xoshiro256PlusPlus,
        ) -> MeasureOutcome {
            let n = self.attempts.fetch_add(1, Ordering::Relaxed);
            if n < self.failures_before_ok {
                MeasureOutcome::Failed {
                    kind: self.kind,
                    cost: 0.5,
                }
            } else {
                MeasureOutcome::Ok(self.ideal_time(cfg))
            }
        }
    }

    #[test]
    fn counts_and_averages() {
        let t = target();
        let mut a = Annotator::new(&t, 3, 0);
        let y = a.evaluate(&Configuration::new(vec![2]));
        assert_eq!(y, 3.0); // noise-free default
        assert_eq!(a.evaluations(), 1);
        let ys: Vec<f64> = [Configuration::new(vec![0]), Configuration::new(vec![3])]
            .iter()
            .map(|c| a.evaluate(c))
            .collect();
        assert_eq!(ys, vec![1.0, 4.0]);
        assert_eq!(a.evaluations(), 3);
        assert_eq!(a.stats().annotations, 3);
        assert_eq!(a.stats().readings, 9);
        assert_eq!(a.stats().total_failures(), 0);
        assert_eq!(a.stats().wasted_cost, 0.0);
    }

    #[test]
    fn independent_annotators_share_no_state() {
        let t = target();
        let mut a = Annotator::new(&t, 1, 1);
        let mut b = Annotator::new(&t, 1, 2);
        let cfg = Configuration::new(vec![1]);
        assert_eq!(a.evaluate(&cfg), b.evaluate(&cfg));
        assert_eq!(a.evaluations(), 1);
        assert_eq!(b.evaluations(), 1);
    }

    #[test]
    fn try_new_rejects_zero_repeats() {
        let t = target();
        let err = match Annotator::try_new(&t, 0, 0) {
            Ok(_) => panic!("zero repeats must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.context, "annotator config");
        assert!(err.message.contains("at least one repeat"));
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn new_panics_on_zero_repeats() {
        let t = target();
        let _ = Annotator::new(&t, 0, 0);
    }

    #[test]
    fn fallible_path_matches_historical_averaging_bit_for_bit() {
        // A noisy target: the fallible path must consume the same RNG
        // stream and produce the same sum as `measure_averaged`.
        struct Noisy {
            space: ParamSpace,
        }
        impl TuningTarget for Noisy {
            fn name(&self) -> &str {
                "noisy"
            }
            fn space(&self) -> &ParamSpace {
                &self.space
            }
            fn ideal_time(&self, cfg: &Configuration) -> f64 {
                1.0 + f64::from(cfg.level(0))
            }
            fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
                self.ideal_time(cfg) * (0.9 + 0.2 * rng.next_f64())
            }
        }
        let t = Noisy { space: space() };
        let cfg = Configuration::new(vec![2]);
        let mut a = Annotator::new(&t, 7, 99);
        let via_annotator = a.evaluate(&cfg);
        let mut rng = Xoshiro256PlusPlus::new(99);
        let direct = t.measure_averaged(&cfg, 7, &mut rng);
        assert_eq!(via_annotator.to_bits(), direct.to_bits());
        assert_eq!(a.rng_state(), rng.state());
    }

    #[test]
    fn transient_failures_are_retried_and_tallied() {
        let t = Flaky::new(FailureKind::Crash, 2);
        let mut a = Annotator::new(&t, 3, 0).with_retry_policy(RetryPolicy {
            max_retries: 4,
            backoff_cost: 0.25,
        });
        let y = a.try_evaluate(&Configuration::new(vec![1])).unwrap();
        assert_eq!(y, 2.0);
        let s = a.stats();
        assert_eq!(s.crashes, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.readings, 3);
        assert_eq!(s.failed_annotations, 0);
        // 2 failed runs at 0.5s each + backoff 0.25 + 0.5.
        assert!(
            (s.wasted_cost - (1.0 + 0.75)).abs() < 1e-12,
            "{}",
            s.wasted_cost
        );
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_annotation() {
        let t = Flaky::new(FailureKind::Timeout, usize::MAX);
        let mut a = Annotator::new(&t, 2, 0).with_retry_policy(RetryPolicy {
            max_retries: 3,
            backoff_cost: 0.0,
        });
        let err = a.try_evaluate(&Configuration::new(vec![0])).unwrap_err();
        assert_eq!(err.kind, FailureKind::Timeout);
        assert!(!err.is_permanent());
        assert_eq!(err.attempts, 4); // 3 retries + the final failed attempt
        assert_eq!(a.stats().timeouts, 4);
        assert_eq!(a.stats().failed_annotations, 1);
        assert_eq!(a.stats().wasted_cost, 2.0);
    }

    #[test]
    fn permanent_failure_aborts_without_retrying() {
        let t = Flaky::new(FailureKind::Compile, usize::MAX);
        let mut a = Annotator::new(&t, 5, 0);
        let err = a.try_evaluate(&Configuration::new(vec![0])).unwrap_err();
        assert_eq!(err.kind, FailureKind::Compile);
        assert!(err.is_permanent());
        assert_eq!(err.attempts, 1);
        assert_eq!(a.stats().compile_failures, 1);
        assert_eq!(a.stats().retries, 0);
    }

    #[test]
    fn non_finite_readings_are_treated_as_bad_readings() {
        struct NanTarget {
            space: ParamSpace,
            attempts: AtomicUsize,
        }
        impl TuningTarget for NanTarget {
            fn name(&self) -> &str {
                "nan"
            }
            fn space(&self) -> &ParamSpace {
                &self.space
            }
            fn ideal_time(&self, _cfg: &Configuration) -> f64 {
                1.0
            }
            fn measure(&self, _cfg: &Configuration, _rng: &mut Xoshiro256PlusPlus) -> f64 {
                let n = self.attempts.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    f64::NAN
                } else {
                    1.0
                }
            }
        }
        let t = NanTarget {
            space: space(),
            attempts: AtomicUsize::new(0),
        };
        let mut a = Annotator::new(&t, 2, 0);
        let y = a.try_evaluate(&Configuration::new(vec![0])).unwrap();
        assert_eq!(y, 1.0);
        assert_eq!(a.stats().bad_readings, 1);
        assert_eq!(a.stats().retries, 1);
    }

    #[test]
    fn robust_aggregators_are_applied() {
        struct Scripted {
            space: ParamSpace,
            readings: Vec<f64>,
            next: AtomicUsize,
        }
        impl TuningTarget for Scripted {
            fn name(&self) -> &str {
                "scripted"
            }
            fn space(&self) -> &ParamSpace {
                &self.space
            }
            fn ideal_time(&self, _cfg: &Configuration) -> f64 {
                1.0
            }
            fn measure(&self, _cfg: &Configuration, _rng: &mut Xoshiro256PlusPlus) -> f64 {
                let n = self.next.fetch_add(1, Ordering::Relaxed);
                self.readings[n % self.readings.len()]
            }
        }
        let t = Scripted {
            space: space(),
            readings: vec![1.0, 1.0, 1.0, 1.0, 10.0],
            next: AtomicUsize::new(0),
        };
        let cfg = Configuration::new(vec![0]);
        let mut mean = Annotator::new(&t, 5, 0);
        assert!((mean.evaluate(&cfg) - 2.8).abs() < 1e-12);
        t.next.store(0, Ordering::Relaxed);
        let mut median = Annotator::new(&t, 5, 0).with_aggregator(Aggregator::Median);
        assert_eq!(median.evaluate(&cfg), 1.0);
        t.next.store(0, Ordering::Relaxed);
        let mut trimmed =
            Annotator::new(&t, 5, 0).with_aggregator(Aggregator::TrimmedMean { trim: 0.2 });
        assert_eq!(trimmed.evaluate(&cfg), 1.0);
        t.next.store(0, Ordering::Relaxed);
        let mut mad = Annotator::new(&t, 5, 0).with_aggregator(Aggregator::MadFiltered { k: 3.0 });
        assert_eq!(mad.evaluate(&cfg), 1.0);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_cost: 1.0,
        };
        assert_eq!(p.backoff(0), 0.0);
        assert_eq!(p.backoff(1), 1.0);
        assert_eq!(p.backoff(2), 2.0);
        assert_eq!(p.backoff(5), 16.0);
        assert_eq!(p.backoff(1000), 65536.0); // capped exponent
        assert_eq!(RetryPolicy::none().max_retries, 0);
        assert_eq!(RetryPolicy::default().backoff(3), 0.0);
    }

    #[test]
    fn retry_policy_backoff_saturates_instead_of_overflowing() {
        // Pathological cost units right at the saturation boundary: one
        // doubling is still finite, the second would overflow to infinity.
        let p = RetryPolicy {
            max_retries: 3,
            backoff_cost: f64::MAX / 2.0,
        };
        assert_eq!(p.backoff(1), f64::MAX / 2.0);
        assert_eq!(p.backoff(2), f64::MAX);
        assert_eq!(p.backoff(3), f64::MAX); // saturated, not +inf
        assert!(p.backoff(1000).is_finite());

        // Even f64::MAX itself stays finite at every failure count.
        let p = RetryPolicy {
            max_retries: 3,
            backoff_cost: f64::MAX,
        };
        for failure in 1..=20 {
            assert_eq!(p.backoff(failure), f64::MAX);
        }
    }

    #[test]
    fn stats_merge_accumulates_every_field() {
        let a = MeasurementStats {
            annotations: 1,
            readings: 2,
            compile_failures: 3,
            crashes: 4,
            bad_readings: 5,
            timeouts: 6,
            retries: 7,
            failed_annotations: 8,
            wasted_cost: 9.5,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.annotations, 2);
        assert_eq!(b.readings, 4);
        assert_eq!(b.compile_failures, 6);
        assert_eq!(b.crashes, 8);
        assert_eq!(b.bad_readings, 10);
        assert_eq!(b.timeouts, 12);
        assert_eq!(b.retries, 14);
        assert_eq!(b.failed_annotations, 16);
        assert_eq!(b.wasted_cost, 19.0);
        assert_eq!(a.total_failures(), 18);
    }

    #[test]
    fn restore_state_resumes_the_stream() {
        struct Noisy {
            space: ParamSpace,
        }
        impl TuningTarget for Noisy {
            fn name(&self) -> &str {
                "noisy"
            }
            fn space(&self) -> &ParamSpace {
                &self.space
            }
            fn ideal_time(&self, _cfg: &Configuration) -> f64 {
                1.0
            }
            fn measure(&self, _cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
                1.0 + rng.next_f64()
            }
        }
        let t = Noisy { space: space() };
        let cfg = Configuration::new(vec![0]);
        let mut a = Annotator::new(&t, 3, 5);
        let first = a.evaluate(&cfg);
        let state = a.rng_state();
        let evals = a.evaluations();
        let stats = *a.stats();
        let second = a.evaluate(&cfg);
        assert_ne!(first.to_bits(), second.to_bits());
        // A fresh annotator restored from the checkpoint replays the
        // second evaluation bit-exactly.
        let mut b = Annotator::new(&t, 3, 0);
        b.restore_state(state, evals, stats);
        assert_eq!(b.evaluate(&cfg).to_bits(), second.to_bits());
        assert_eq!(b.evaluations(), evals + 1);
    }
}
