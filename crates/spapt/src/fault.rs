//! Measurement-fault injection for the kernel simulator.
//!
//! The paper's measurements are real runs of Orio-transformed code, and real
//! runs fail: the generated source can break the compiler (deep unroll-jam
//! is notorious), the binary can crash, a run can hang past the harness
//! timeout, and the timer can report garbage. [`FaultModel`] layers those
//! failure modes on top of [`crate::NoiseModel`]'s benign jitter so the
//! active-learning loop can be exercised — and property-tested — against the
//! conditions it must survive at paper scale.
//!
//! Determinism contract:
//!
//! - **Compile failures are a property of the configuration.** Whether a
//!   configuration compiles is decided by hashing its levels with the model
//!   seed, not by drawing from the measurement RNG. Retrying the same
//!   configuration therefore fails the same way every time (which is what
//!   makes quarantining it correct), and the decision consumes no RNG state.
//! - **Crashes, timeouts, spikes and garbage readings are transient.** They
//!   draw from the caller's measurement RNG, so retries can succeed and the
//!   whole fault sequence replays bit-exactly from a seed.

use pwu_space::{Configuration, FailureKind, MeasureOutcome};
use pwu_stats::{SplitMix64, Xoshiro256PlusPlus};

/// Configurable fault-injection model (all rates are probabilities per
/// attempt; zero disables that fault class).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed of the per-configuration compile-failure hash.
    pub seed: u64,
    /// Base probability that a configuration fails to compile.
    pub compile_fail_prob: f64,
    /// Extra compile-failure probability for *aggressive* configurations
    /// (the kernel decides what counts as aggressive — deep unroll-jam).
    pub aggressive_compile_fail_prob: f64,
    /// Seconds charged for a failed compile (Orio regenerates + recompiles).
    pub compile_cost: f64,
    /// Per-attempt probability that the binary crashes mid-run.
    pub crash_prob: f64,
    /// Per-attempt probability that the timer reports garbage: the run
    /// completes (time is burned) but the reading is unusable.
    pub bad_reading_prob: f64,
    /// Per-attempt probability of a finite outlier spike on the reading, on
    /// top of the noise model's own rare outliers.
    pub spike_prob: f64,
    /// Relative magnitude of an injected spike (3.0 → 4× the true reading).
    pub spike_scale: f64,
    /// Harness timeout in seconds; a run exceeding it is killed and charged
    /// the full budget. `None` disables the timeout.
    pub timeout: Option<f64>,
}

impl FaultModel {
    /// A fully disabled model: behaves exactly like having no fault model.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            compile_fail_prob: 0.0,
            aggressive_compile_fail_prob: 0.0,
            compile_cost: 0.0,
            crash_prob: 0.0,
            bad_reading_prob: 0.0,
            spike_prob: 0.0,
            spike_scale: 0.0,
            timeout: None,
        }
    }

    /// A mildly hostile harness: occasional compile breaks on aggressive
    /// transforms, rare crashes and spikes.
    #[must_use]
    pub fn light(seed: u64) -> Self {
        Self {
            seed,
            compile_fail_prob: 0.01,
            aggressive_compile_fail_prob: 0.05,
            compile_cost: 2.0,
            crash_prob: 0.01,
            bad_reading_prob: 0.005,
            spike_prob: 0.01,
            spike_scale: 2.0,
            timeout: None,
        }
    }

    /// The stress setting used by the fault-injection test suite: roughly a
    /// 20 % chance that any given attempt produces no usable reading.
    #[must_use]
    pub fn stress(seed: u64) -> Self {
        Self {
            seed,
            compile_fail_prob: 0.08,
            aggressive_compile_fail_prob: 0.15,
            compile_cost: 2.0,
            crash_prob: 0.08,
            bad_reading_prob: 0.04,
            spike_prob: 0.05,
            spike_scale: 4.0,
            timeout: None,
        }
    }

    /// Overrides the harness timeout.
    #[must_use]
    pub fn with_timeout(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "timeout must be positive");
        self.timeout = Some(seconds);
        self
    }

    /// True when at least one fault class can fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.compile_fail_prob > 0.0
            || self.aggressive_compile_fail_prob > 0.0
            || self.crash_prob > 0.0
            || self.bad_reading_prob > 0.0
            || self.spike_prob > 0.0
            || self.timeout.is_some()
    }

    /// Deterministic per-configuration compile verdict.
    ///
    /// Hashes the configuration levels with the model seed into a uniform
    /// variate `u` and compares it against the compile-failure probability,
    /// boosted by `aggressive_compile_fail_prob` when the configuration is
    /// aggressive. No RNG state is consumed, so the verdict is stable across
    /// retries, checkpoint/resume and repeat counts. `aggressive` is asked
    /// only when the two probabilities disagree about `u`, i.e. when `u`
    /// falls in the aggressive band, since the flag costs the kernel a
    /// table decode.
    #[must_use]
    pub fn compile_fails(&self, cfg: &Configuration, aggressive: impl FnOnce() -> bool) -> bool {
        let tame = self.compile_fail_prob;
        let boosted = tame + self.aggressive_compile_fail_prob;
        // `u` lies in [0, 1): a probability that is not positive fails nothing.
        if !(tame > 0.0 || boosted > 0.0) {
            return false;
        }
        let u = self.compile_draw(cfg);
        let (fails_tame, fails_boosted) = (u < tame, u < boosted);
        if fails_tame == fails_boosted {
            fails_tame
        } else if aggressive() {
            fails_boosted
        } else {
            fails_tame
        }
    }

    /// The uniform variate in `[0, 1)` the compile verdict compares: the
    /// configuration's levels hashed with the model seed.
    fn compile_draw(&self, cfg: &Configuration) -> f64 {
        let mut acc = SplitMix64::new(self.seed ^ 0xC0F1_13FA_17D0_0D5E).next();
        for &level in cfg.levels() {
            acc =
                SplitMix64::new(acc ^ u64::from(level).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next();
        }
        (acc >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Runs the transient fault pipeline around one noisy measurement.
    ///
    /// `ideal` is the configuration's noise-free time and `perturb` produces
    /// one benign noisy reading from it (the noise model). The compile
    /// verdict is *not* applied here — callers check
    /// [`FaultModel::compile_fails`] first, because it is per-configuration,
    /// not per-attempt.
    pub fn measure_transient(
        &self,
        ideal: f64,
        rng: &mut Xoshiro256PlusPlus,
        perturb: impl FnOnce(f64, &mut Xoshiro256PlusPlus) -> f64,
    ) -> MeasureOutcome {
        // Crash first: the run dies partway, burning a random fraction of
        // the runtime it would have taken.
        if self.crash_prob > 0.0 && rng.next_f64() < self.crash_prob {
            let fraction = rng.next_f64();
            return MeasureOutcome::Failed {
                kind: FailureKind::Crash,
                cost: ideal * fraction,
            };
        }
        let mut t = perturb(ideal, rng);
        if self.spike_prob > 0.0 && rng.next_f64() < self.spike_prob {
            t *= 1.0 + self.spike_scale;
        }
        // A hung run is killed at the timeout and charged the full budget.
        if let Some(limit) = self.timeout {
            if t > limit {
                return MeasureOutcome::Timeout { cost: limit };
            }
        }
        // The run completed (its time was burned) but the reading is junk.
        if self.bad_reading_prob > 0.0 && rng.next_f64() < self.bad_reading_prob {
            return MeasureOutcome::Failed {
                kind: FailureKind::BadReading,
                cost: t,
            };
        }
        MeasureOutcome::Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;

    fn cfg(levels: &[u32]) -> Configuration {
        Configuration::new(levels.to_vec())
    }

    #[test]
    fn disabled_model_never_fires() {
        let fm = FaultModel::none();
        assert!(!fm.is_enabled());
        let mut rng = Xoshiro256PlusPlus::new(1);
        assert!(!fm.compile_fails(&cfg(&[1, 2, 3]), || true));
        let out = fm.measure_transient(0.5, &mut rng, |t, _| t);
        assert_eq!(out, MeasureOutcome::Ok(0.5));
    }

    #[test]
    fn compile_verdict_is_deterministic_per_config() {
        let fm = FaultModel {
            compile_fail_prob: 0.3,
            ..FaultModel::stress(42)
        };
        let mut failed = 0;
        for i in 0..400u32 {
            let c = cfg(&[i, i / 7, i % 5]);
            let first = fm.compile_fails(&c, || false);
            // Stable across calls — a compile error cannot be retried away.
            for _ in 0..3 {
                assert_eq!(fm.compile_fails(&c, || false), first);
            }
            failed += usize::from(first);
        }
        // ~30% of configurations fail; allow generous slack.
        assert!((60..180).contains(&failed), "{failed} of 400 failed");
        // A different seed re-rolls the verdicts.
        let other = FaultModel {
            seed: 43,
            ..fm.clone()
        };
        let differs = (0..400u32).any(|i| {
            other.compile_fails(&cfg(&[i, i / 7, i % 5]), || false)
                != fm.compile_fails(&cfg(&[i, i / 7, i % 5]), || false)
        });
        assert!(differs, "seed must matter");
    }

    #[test]
    fn the_lazy_flag_gives_the_eager_verdict_and_is_asked_only_in_the_band() {
        use std::cell::Cell;
        let models = [
            FaultModel::none(),
            FaultModel::light(3),
            FaultModel::stress(4),
            FaultModel {
                compile_fail_prob: 0.2,
                aggressive_compile_fail_prob: 0.5,
                ..FaultModel::stress(5)
            },
            FaultModel {
                compile_fail_prob: 0.0,
                aggressive_compile_fail_prob: 0.3,
                ..FaultModel::stress(6)
            },
        ];
        let mut rng = Xoshiro256PlusPlus::new(17);
        let mut asked = 0;
        for fm in &models {
            for _ in 0..3000 {
                let width = 1 + (rng.next() % 12) as usize;
                let c = Configuration::new((0..width).map(|_| (rng.next() % 40) as u32).collect());
                let u = fm.compile_draw(&c);
                let in_band = fm.compile_fail_prob <= u
                    && u < fm.compile_fail_prob + fm.aggressive_compile_fail_prob;
                for flag in [false, true] {
                    // The verdict before the flag became lazy.
                    let p = fm.compile_fail_prob
                        + if flag {
                            fm.aggressive_compile_fail_prob
                        } else {
                            0.0
                        };
                    let eager = p > 0.0 && u < p;
                    let called = Cell::new(false);
                    let lazy = fm.compile_fails(&c, || {
                        called.set(true);
                        flag
                    });
                    assert_eq!(lazy, eager, "{fm:?} {c:?} aggressive={flag}");
                    assert_eq!(called.get(), in_band, "{fm:?} u={u}");
                    asked += usize::from(called.get());
                }
            }
        }
        assert!(asked > 1000, "the band is reached ({asked} asks)");
    }

    #[test]
    fn aggressive_configs_fail_compile_more_often() {
        let fm = FaultModel {
            compile_fail_prob: 0.05,
            aggressive_compile_fail_prob: 0.4,
            ..FaultModel::none()
        };
        let fm = FaultModel { seed: 7, ..fm };
        let count = |aggressive: bool| {
            (0..500u32)
                .filter(|&i| fm.compile_fails(&cfg(&[i, i * 3]), || aggressive))
                .count()
        };
        let tame = count(false);
        let aggressive = count(true);
        assert!(
            aggressive > tame + 50,
            "aggressive {aggressive} vs tame {tame}"
        );
    }

    #[test]
    fn transient_pipeline_replays_from_seed() {
        let fm = FaultModel::stress(5).with_timeout(10.0);
        let noise = NoiseModel::quiet();
        let run = |seed: u64| -> Vec<MeasureOutcome> {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            (0..200)
                .map(|_| fm.measure_transient(1.0, &mut rng, |t, r| noise.perturb(t, r)))
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn stress_rates_produce_every_failure_class() {
        let fm = FaultModel::stress(11).with_timeout(1.2);
        let noise = NoiseModel::cluster();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut crashes = 0;
        let mut bad = 0;
        let mut timeouts = 0;
        let mut ok = 0;
        for _ in 0..4000 {
            match fm.measure_transient(1.0, &mut rng, |t, r| noise.perturb(t, r)) {
                MeasureOutcome::Ok(t) => {
                    assert!(t.is_finite() && t > 0.0);
                    ok += 1;
                }
                MeasureOutcome::Failed {
                    kind: FailureKind::Crash,
                    cost,
                } => {
                    assert!((0.0..=1.0).contains(&cost));
                    crashes += 1;
                }
                MeasureOutcome::Failed {
                    kind: FailureKind::BadReading,
                    cost,
                } => {
                    assert!(cost > 0.0);
                    bad += 1;
                }
                MeasureOutcome::Failed {
                    kind: FailureKind::Compile | FailureKind::Timeout,
                    ..
                } => unreachable!("compile/timeout never surface as Failed here"),
                MeasureOutcome::Timeout { cost } => {
                    assert_eq!(cost, 1.2);
                    timeouts += 1;
                }
            }
        }
        assert!(crashes > 100, "crashes {crashes}");
        assert!(bad > 50, "bad readings {bad}");
        assert!(timeouts > 50, "timeouts {timeouts}");
        assert!(ok > 2500, "ok {ok}");
    }
}
