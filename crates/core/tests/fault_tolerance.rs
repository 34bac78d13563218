//! End-to-end fault-injection suite (run via `cargo xtask faults`).
//!
//! Drives the active-learning loop and the model-based tuner against a
//! simulated SPAPT kernel with ~20 % injected measurement failures
//! ([`FaultModel::stress`]) and proves the robustness contract:
//!
//! - the loop completes without panicking, quarantining failed
//!   configurations and topping batches back up;
//! - fault injection is seed-deterministic;
//! - a disabled fault model is bit-identical to no fault model at all;
//! - a run killed mid-flight, at any of several measurement budgets,
//!   resumes from its [`GenerationStore`] and finishes bit-identically to an
//!   uninterrupted run, also when the newest slot was damaged before the
//!   resume (it rolls back one generation);
//! - NaN timer readings never reach the forest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use pwu_core::tuning::{model_based_tuning, TuningAnnotator};
use pwu_core::{
    active, ActiveCheckpoint, ActiveConfig, ActiveRun, CheckpointError, GenerationStore, Strategy,
};
use pwu_forest::ForestConfig;
use pwu_space::{
    ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, MeasureOutcome, ParamSpace, Pool,
    TuningTarget,
};
use pwu_spapt::{kernel_by_name, FaultModel, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

const N_MAX: usize = 36;

fn small_config() -> ActiveConfig {
    ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: N_MAX,
        forest: ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        },
        eval_every: 1,
        alphas: vec![0.05],
        repeats: 3,
        ..ActiveConfig::default()
    }
}

/// Samples a pool (legal-heavy) and an `ideal_time`-labeled test split.
fn pool_and_test(
    target: &dyn TuningTarget,
    seed: u64,
) -> (Vec<Configuration>, FeatureMatrix, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let all = target.space().sample_distinct(340, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(280);
    let legal = pool_cfgs
        .iter()
        .filter(|c| target.lint_config(c) != ConfigLegality::Illegal)
        .count();
    assert!(legal >= N_MAX, "pool too small for the test: {legal} legal");
    let schema = FeatureSchema::for_space(target.space());
    let test_features = schema.encode_matrix(target.space(), test_cfgs);
    let test_labels = test_cfgs.iter().map(|c| target.ideal_time(c)).collect();
    (pool_cfgs.to_vec(), test_features, test_labels)
}

fn run_active(target: &dyn TuningTarget, pool_cfgs: &[Configuration], seed: u64) -> ActiveRun {
    let schema = FeatureSchema::for_space(target.space());
    let (_, test_features, test_labels) = pool_and_test(target, 7);
    let pool = Pool::new(target.space(), &schema, pool_cfgs.to_vec());
    active::run(
        target,
        Strategy::Pwu { alpha: 0.05 },
        &small_config(),
        pool,
        &test_features,
        &test_labels,
        seed,
    )
}

fn assert_runs_bit_identical(a: &ActiveRun, b: &ActiveRun) {
    assert_eq!(a.history, b.history);
    assert_eq!(a.selections, b.selections);
    assert_eq!(a.quarantined, b.quarantined);
    assert_eq!(a.measurement, b.measurement);
    assert_eq!(a.train.configs(), b.train.configs());
    let bits = |labels: &[f64]| labels.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.train.labels()), bits(b.train.labels()));
}

#[test]
fn active_run_completes_under_twenty_percent_faults() {
    let kernel = kernel_by_name("adi")
        .expect("adi registered")
        .with_faults(FaultModel::stress(0xFA17));
    let (pool_cfgs, _, _) = pool_and_test(&kernel, 7);
    let run = run_active(&kernel, &pool_cfgs, 41);

    assert_eq!(run.train.len(), N_MAX, "the run must reach n_max");
    assert!(
        run.measurement.total_failures() > 0,
        "the stress model must actually fire: {:?}",
        run.measurement
    );
    assert!(run.measurement.retries > 0, "transients must be retried");
    assert!(run.measurement.wasted_cost > 0.0);
    assert!(run.train.labels().iter().all(|y| y.is_finite()));
    assert!(run
        .history
        .iter()
        .all(|s| s.rmse.iter().all(|r| r.is_finite())));
    // Wasted wall-clock is part of the cost curve, which stays monotone.
    let costs: Vec<f64> = run.history.iter().map(|s| s.cumulative_cost).collect();
    assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
}

#[test]
fn fault_injection_is_seed_deterministic() {
    let make = || {
        let kernel = kernel_by_name("mm")
            .expect("mm registered")
            .with_faults(FaultModel::stress(0xD1CE));
        let (pool_cfgs, _, _) = pool_and_test(&kernel, 7);
        run_active(&kernel, &pool_cfgs, 23)
    };
    let (a, b) = (make(), make());
    assert!(a.measurement.total_failures() > 0);
    assert_runs_bit_identical(&a, &b);
}

#[test]
fn disabled_fault_model_is_bit_identical_to_no_fault_model() {
    let plain = kernel_by_name("adi").expect("adi registered");
    let gated = plain.clone().with_faults(FaultModel::none());
    let (pool_cfgs, _, _) = pool_and_test(&plain, 7);
    let a = run_active(&plain, &pool_cfgs, 41);
    let b = run_active(&gated, &pool_cfgs, 41);
    assert_eq!(a.measurement.total_failures(), 0);
    assert_eq!(a.quarantined.len(), 0);
    assert_runs_bit_identical(&a, &b);
}

/// Wraps a kernel with a measurement budget; exceeding it panics, simulating
/// the process dying mid-run. Setting the budget to `usize::MAX` revives it.
struct KillSwitch {
    inner: Kernel,
    budget: AtomicUsize,
}

impl TuningTarget for KillSwitch {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.inner.ideal_time(cfg)
    }
    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.inner.lint_config(cfg)
    }
    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.inner.measure(cfg, rng)
    }
    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        let left = self.budget.load(Ordering::Relaxed);
        assert!(left > 0, "measurement budget exhausted (simulated crash)");
        self.budget.store(left - 1, Ordering::Relaxed);
        self.inner.try_measure(cfg, rng)
    }
}

/// A fresh, empty store for `tag`, private to this process.
fn fresh_store(tag: &str) -> GenerationStore {
    let dir = std::env::temp_dir().join(format!("pwu-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    GenerationStore::new(dir)
}

/// Flips the middle byte of `path`: damage the footer check catches.
fn flip_middle(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, &bytes).unwrap();
}

/// A checkpointed run of the stress-faulted adi kernel behind a
/// [`KillSwitch`], killed and resumed at will.
struct Killable {
    target: KillSwitch,
    schema: FeatureSchema,
    pool_cfgs: Vec<Configuration>,
    test_features: FeatureMatrix,
    test_labels: Vec<f64>,
}

const KILL_STRATEGY: Strategy = Strategy::Pwu { alpha: 0.05 };
const KILL_SEED: u64 = 41;

impl Killable {
    fn new() -> Self {
        let kernel = kernel_by_name("adi")
            .expect("adi registered")
            .with_faults(FaultModel::stress(0xFA17));
        let (pool_cfgs, test_features, test_labels) = pool_and_test(&kernel, 7);
        Self {
            schema: FeatureSchema::for_space(kernel.space()),
            target: KillSwitch {
                inner: kernel,
                budget: AtomicUsize::new(usize::MAX),
            },
            pool_cfgs,
            test_features,
            test_labels,
        }
    }

    fn pool(&self) -> Pool {
        Pool::new(self.target.space(), &self.schema, self.pool_cfgs.clone())
    }

    /// The uninterrupted run, and how many measurements it took.
    fn reference(&self) -> (ActiveRun, usize) {
        self.target.budget.store(usize::MAX, Ordering::Relaxed);
        let run = active::run(
            &self.target,
            KILL_STRATEGY,
            &small_config(),
            self.pool(),
            &self.test_features,
            &self.test_labels,
            KILL_SEED,
        );
        (run, usize::MAX - self.target.budget.load(Ordering::Relaxed))
    }

    fn run_with_checkpoints(&self, store: &GenerationStore) -> Result<ActiveRun, CheckpointError> {
        active::run_with_checkpoints(
            &self.target,
            KILL_STRATEGY,
            &small_config(),
            self.pool(),
            &self.test_features,
            &self.test_labels,
            KILL_SEED,
            store,
        )
    }

    fn resume(&self, store: &GenerationStore) -> Result<ActiveRun, CheckpointError> {
        active::resume(
            &self.target,
            KILL_STRATEGY,
            &small_config(),
            &self.test_features,
            &self.test_labels,
            store,
        )
    }

    /// Runs `f` with `budget` measurements left; it must die of it.
    fn killed<T>(&self, budget: usize, f: impl FnOnce() -> T) {
        self.target.budget.store(budget, Ordering::Relaxed);
        let crashed = catch_unwind(AssertUnwindSafe(f));
        assert!(crashed.is_err(), "budget {budget} must kill the run");
        self.target.budget.store(usize::MAX, Ordering::Relaxed);
    }

    /// Kills a checkpointed run on a fresh store (named by `tag`) after
    /// `budget` measurements and returns the store and its newest
    /// generation, which must be a mid-run state.
    fn killed_run(&self, tag: &str, budget: usize) -> (GenerationStore, u64) {
        let store = fresh_store(&format!("{tag}-{budget}"));
        self.killed(budget, || self.run_with_checkpoints(&store));
        let newest = store
            .load_latest()
            .unwrap()
            .expect("generation 0 is committed after the cold start");
        assert_eq!(newest.rolled_back, 0, "budget {budget}");
        assert!(
            newest.checkpoint.train_configs.len() < N_MAX,
            "budget {budget}: the store must hold a mid-run state"
        );
        (store, newest.generation)
    }
}

/// Budgets that kill the run after its cold start: two fifths of the
/// measurements to all but the last.
fn kill_budgets(total: usize) -> [usize; 4] {
    [2 * total / 5, 3 * total / 5, 4 * total / 5, total - 1]
}

#[test]
fn runs_killed_at_any_budget_resume_bit_identically_from_their_stores() {
    let fx = Killable::new();
    let (reference, total) = fx.reference();
    for budget in kill_budgets(total) {
        let (store, _) = fx.killed_run("kill", budget);
        // A new run refuses the store the killed one left, before it
        // measures anything.
        fx.target.budget.store(0, Ordering::Relaxed);
        match fx.run_with_checkpoints(&store) {
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            other => panic!("budget {budget}: expected the store refused, got {other:?}"),
        }
        fx.target.budget.store(usize::MAX, Ordering::Relaxed);

        let resumed = fx.resume(&store).expect("resume must succeed");
        assert_runs_bit_identical(&reference, &resumed);
        // The resumed run committed every iteration to the end.
        let last = store.load_latest().unwrap().unwrap();
        assert_eq!(
            last.checkpoint.history, reference.history,
            "budget {budget}"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    // An empty store holds nothing to resume.
    let store = fresh_store("empty");
    match fx.resume(&store) {
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
        other => panic!("expected an empty store refused, got {other:?}"),
    }
}

#[test]
fn resume_rolls_back_past_a_damaged_newest_slot() {
    let fx = Killable::new();
    let (reference, total) = fx.reference();
    for budget in kill_budgets(total) {
        let (store, newest) = fx.killed_run("rollback", budget);
        assert!(
            newest >= 1,
            "budget {budget}: no older generation to roll back to"
        );
        flip_middle(&store.path_for(newest));
        // A resume that dies before its first commit shows what it
        // recovered: the damaged slot is gone, and the generation before it
        // is the newest.
        fx.killed(0, || fx.resume(&store));
        assert!(
            !store.path_for(newest).exists(),
            "budget {budget}: the damaged slot survived"
        );
        let recovered = store.load_latest().unwrap().unwrap();
        assert_eq!(
            (recovered.generation, recovered.rolled_back),
            (newest - 1, 0),
            "budget {budget}"
        );

        let resumed = fx.resume(&store).expect("resume must succeed");
        assert_runs_bit_identical(&reference, &resumed);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

/// A kernel facade whose timer returns NaN for part of the space.
struct NanTimer {
    inner: Kernel,
}

impl TuningTarget for NanTimer {
    fn name(&self) -> &str {
        "nan-timer"
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.inner.ideal_time(cfg)
    }
    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.inner.lint_config(cfg)
    }
    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if cfg.level(0) == 0 {
            f64::NAN
        } else {
            self.inner.measure(cfg, rng)
        }
    }
}

#[test]
fn nan_readings_are_quarantined_not_fed_to_the_forest() {
    let target = NanTimer {
        inner: kernel_by_name("adi").expect("adi registered"),
    };
    let (pool_cfgs, _, _) = pool_and_test(&target, 7);
    assert!(pool_cfgs.iter().any(|c| c.level(0) == 0));
    // `RandomForest::fit` asserts finite targets, so a single leaked NaN
    // label would panic this run.
    let run = run_active(&target, &pool_cfgs, 41);
    assert_eq!(run.train.len(), N_MAX);
    assert!(run.train.labels().iter().all(|y| y.is_finite()));
    assert!(run.measurement.bad_readings > 0);
    assert!(run.quarantined.iter().all(|c| c.level(0) == 0));
    assert!(run.train.configs().iter().all(|c| c.level(0) != 0));
}

#[test]
fn session_suspended_mid_quarantine_resumes_with_identical_tallies() {
    // A steppable "session" (bootstrap + step_once) under 20 % injected
    // faults, suspended to disk and resumed after *every* step — i.e. while
    // quarantine tallies are actively accumulating — must finish with
    // measurement stats bit-identical to a never-suspended chain.
    let kernel = kernel_by_name("adi")
        .expect("adi registered")
        .with_faults(FaultModel::stress(0xFA17));
    let (pool_cfgs, test_features, test_labels) = pool_and_test(&kernel, 7);
    let schema = FeatureSchema::for_space(kernel.space());
    let config = small_config();
    let strategy = Strategy::Pwu { alpha: 0.05 };
    let seed = 41;

    let chain = |suspend_each_step: bool| -> ActiveCheckpoint {
        let store = fresh_store(&format!("quarantine-{suspend_each_step}"));
        let pool = Pool::new(kernel.space(), &schema, pool_cfgs.clone());
        let mut checkpoint =
            active::bootstrap(&kernel, &config, pool, &test_features, &test_labels, seed);
        let mut saw_mid_quarantine = false;
        loop {
            if suspend_each_step {
                // Suspend: commit and drop the in-memory state. Resume:
                // reload the newest generation that verifies.
                store.save(&checkpoint).unwrap();
                checkpoint = store.load_latest().unwrap().unwrap().checkpoint;
            }
            let midway = checkpoint.train_configs.len() < config.n_max;
            if midway && !checkpoint.quarantined.is_empty() && checkpoint.stats.retries > 0 {
                saw_mid_quarantine = true;
            }
            let out = active::step_once(
                &kernel,
                strategy,
                &config,
                &checkpoint,
                &test_features,
                &test_labels,
            )
            .unwrap();
            checkpoint = out.checkpoint;
            if out.done {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(store.dir());
        assert!(
            saw_mid_quarantine,
            "the stress model must quarantine something mid-run for this test to bite"
        );
        checkpoint
    };

    let continuous = chain(false);
    let suspended = chain(true);
    assert_eq!(
        suspended.stats, continuous.stats,
        "quarantine/retry tallies diverged across suspend/resume"
    );
    assert_eq!(suspended.quarantined, continuous.quarantined);
    assert_eq!(suspended, continuous, "full checkpoint diverged");
}

#[test]
fn model_based_tuning_completes_under_twenty_percent_faults() {
    let kernel = kernel_by_name("mm")
        .expect("mm registered")
        .with_faults(FaultModel::stress(0xBEEF));
    let mut rng = Xoshiro256PlusPlus::new(5);
    let candidates = kernel.space().sample_distinct(150, &mut rng);
    let traj = model_based_tuning(
        &kernel,
        &candidates,
        &TuningAnnotator::True { repeats: 2 },
        8,
        20,
        &ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        },
        17,
    );
    assert!(traj.best_true.iter().all(|y| y.is_finite()));
    assert!(
        traj.best_true.windows(2).all(|w| w[1] <= w[0]),
        "the incumbent only improves"
    );
    assert!(
        traj.measurement.total_failures() > 0,
        "the stress model must fire: {:?}",
        traj.measurement
    );
    assert_eq!(
        traj.quarantined.len(),
        traj.measurement.failed_annotations,
        "every failed annotation quarantines its configuration"
    );
}
