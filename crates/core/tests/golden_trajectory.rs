//! Golden-snapshot tests for full tuning trajectories.
//!
//! The fingerprints below were captured from the implementation *before* the
//! forest hot-path refactor (flat feature matrix, integer-key splitter) via
//! `cargo run --release --example golden_gen`. They pin three facets of a
//! fixed-seed, fault-injected run of Algorithm 1: the training labels, the
//! per-selection `(μ, σ, observed)` traces, and the RMSE history — all
//! hashed bitwise. Any change that perturbs a single ulp anywhere in the
//! trajectory fails these tests loudly.
//!
//! The second test kills the run mid-flight and resumes it from its
//! checkpoint, proving the *resumed* trajectory is byte-identical to the same
//! golden — checkpoint/resume is exactness-preserving, not merely
//! approximately correct.
//!
//! The last test pins the loop's RMSE@α evaluation, in both fit modes, to
//! [`rmse_at_alpha`] over the whole test set, at a shape the goldens'
//! one- and two-row elite slices never reach.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use pwu_core::{
    active, rmse_at_alpha, ActiveConfig, ActiveRun, GenerationStore, Snapshot, Strategy,
};
use pwu_forest::{FitMode, ForestConfig};
use pwu_space::Pool;
use pwu_space::{
    ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, MeasureOutcome, ParamSpace,
    TuningTarget,
};
use pwu_spapt::{kernel_by_name, FaultModel, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

/// Captured before the hot-path refactor; regenerate with `golden_gen` only
/// when a trajectory change is *intended*.
struct Golden {
    labels_fp: u64,
    selections_fp: u64,
    history_fp: u64,
    train_len: usize,
    quarantined: usize,
}

const FROM_SCRATCH: Golden = Golden {
    labels_fp: 0x3f41_db34_531f_8e2c,
    selections_fp: 0x9789_ced3_0e14_3cd6,
    history_fp: 0xe083_e212_512d_dfc9,
    train_len: 40,
    quarantined: 1,
};

/// FNV-1a over a stream of u64 words — the same fingerprint `golden_gen`
/// prints.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_matches_golden(run: &ActiveRun, golden: &Golden) {
    let labels_fp = fnv1a(run.train.labels().iter().map(|y| y.to_bits()));
    let selections_fp = fnv1a(
        run.selections
            .iter()
            .flat_map(|s| [s.mean.to_bits(), s.std.to_bits(), s.observed.to_bits()]),
    );
    let history_fp = fnv1a(
        run.history
            .iter()
            .flat_map(|s| s.rmse.iter().map(|r| r.to_bits())),
    );
    assert_eq!(
        run.train.len(),
        golden.train_len,
        "training-set size drifted"
    );
    assert_eq!(
        run.quarantined.len(),
        golden.quarantined,
        "quarantine count drifted"
    );
    assert_eq!(labels_fp, golden.labels_fp, "training labels drifted");
    assert_eq!(
        selections_fp, golden.selections_fp,
        "selection traces drifted"
    );
    assert_eq!(history_fp, golden.history_fp, "RMSE history drifted");
}

/// The exact fault-injected setup `golden_gen::trajectory_goldens` uses.
fn setup() -> (Kernel, Vec<Configuration>, FeatureMatrix, Vec<f64>) {
    let kernel = kernel_by_name("gesummv")
        .expect("kernel registered")
        .with_faults(FaultModel::light(0x60_1D));
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(77);
    let all = space.sample_distinct(200, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(160);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    (kernel, pool_cfgs.to_vec(), test_features, test_labels)
}

fn config() -> ActiveConfig {
    ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: 40,
        forest: ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        },
        eval_every: 5,
        alphas: vec![0.05],
        repeats: 3,
        ..ActiveConfig::default()
    }
}

fn run(target: &dyn TuningTarget, pool_cfgs: &[Configuration]) -> ActiveRun {
    let schema = FeatureSchema::for_space(target.space());
    let (_, _, test_features, test_labels) = setup();
    let pool = Pool::new(target.space(), &schema, pool_cfgs.to_vec());
    active::run(
        target,
        Strategy::Pwu { alpha: 0.05 },
        &config(),
        pool,
        &test_features,
        &test_labels,
        42,
    )
}

#[test]
fn from_scratch_trajectory_matches_pre_refactor_golden() {
    let (kernel, pool_cfgs, _, _) = setup();
    let run = run(&kernel, &pool_cfgs);
    assert_matches_golden(&run, &FROM_SCRATCH);
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

/// Kills the golden run mid-flight, resumes it from the checkpoint, and
/// demands the stitched-together trajectory still match the pre-refactor
/// fingerprints bit for bit.
#[test]
fn killed_and_resumed_run_reproduces_the_golden_trajectory() {
    let (kernel, pool_cfgs, test_features, test_labels) = setup();
    let schema = FeatureSchema::for_space(kernel.space());
    let config = config();
    let strategy = Strategy::Pwu { alpha: 0.05 };

    let dir = std::env::temp_dir().join(format!("pwu-golden-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = GenerationStore::new(&dir);
    // Enough budget for the cold start plus a few iterations, so a few
    // generations land before the simulated crash.
    let target = KillSwitch {
        inner: kernel,
        budget: AtomicUsize::new(45),
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let pool = Pool::new(target.space(), &schema, pool_cfgs.clone());
        active::run_with_checkpoints(
            &target,
            strategy,
            &config,
            pool,
            &test_features,
            &test_labels,
            42,
            &store,
        )
    }));
    assert!(crashed.is_err(), "the budget must kill the run mid-flight");

    let newest = store
        .load_latest()
        .unwrap()
        .expect("a checkpoint must have been saved");
    assert!(
        newest.checkpoint.train_configs.len() < config.n_max,
        "the checkpoint must capture a mid-run state"
    );
    target.budget.store(usize::MAX, Ordering::Relaxed);
    let resumed = active::resume(
        &target,
        strategy,
        &config,
        &test_features,
        &test_labels,
        &store,
    )
    .expect("resume must succeed");
    let _ = std::fs::remove_dir_all(&dir);

    assert_matches_golden(&resumed, &FROM_SCRATCH);
}

/// A gesummv test set of 1100 rows (three 512-row predict chunks, not a
/// multiple of the 16-row block) whose labels are rounded to a few distinct
/// values, so the stable order among tied labels decides which rows an
/// elite slice reads. Returns the pool, the test features and the labels.
fn tied_test_setup(kernel: &Kernel) -> (Vec<Configuration>, FeatureMatrix, Vec<f64>) {
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(0xE117E);
    let all = space.sample_distinct(1300, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(200);
    let raw: Vec<f64> = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    let lo = raw.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let step = (hi - lo) / 6.0;
    let labels = raw
        .iter()
        .map(|&y| lo + ((y - lo) / step).round() * step)
        .collect();
    (
        pool_cfgs.to_vec(),
        schema.encode_matrix(space, test_cfgs),
        labels,
    )
}

fn history_bits(history: &[Snapshot]) -> Vec<(usize, u64, Vec<u64>)> {
    history
        .iter()
        .map(|s| {
            (
                s.n_train,
                s.cumulative_cost.to_bits(),
                s.rmse.iter().map(|r| r.to_bits()).collect(),
            )
        })
        .collect()
}

/// Every snapshot predicts only the ranked elite rows, yet its RMSE@α bits
/// equal [`rmse_at_alpha`] over the full test set's predictions: for
/// unsorted α's including 1.0 (the whole set) and one whose `⌊n·α⌋` is 0
/// (clamped to one row), on tied labels, in both fit modes. A chain of
/// `bootstrap` and `step_once` calls, whose states build the evaluator
/// lazily, records the same history bit for bit.
#[test]
fn elite_slice_evaluation_matches_full_test_set_rmse_bitwise() {
    let kernel = kernel_by_name("gesummv").expect("kernel registered");
    let (pool_cfgs, test_features, test_labels) = tied_test_setup(&kernel);
    assert_eq!(test_labels.len(), 1100);
    let alphas = vec![0.10, 0.0005, 0.05, 1.0];
    // The α = 0.10 and α = 0.05 cuts must fall inside a run of tied labels,
    // else the stable tie order is not being exercised.
    let mut sorted = test_labels.clone();
    sorted.sort_by(f64::total_cmp);
    for m in [110, 55] {
        assert_eq!(
            sorted[m - 1].to_bits(),
            sorted[m].to_bits(),
            "no tie at the {m}-row cut"
        );
    }
    let schema = FeatureSchema::for_space(kernel.space());
    let pool = || Pool::new(kernel.space(), &schema, pool_cfgs.clone());
    let strategy = Strategy::Pwu { alpha: 0.05 };
    for fit_mode in [FitMode::Exact, FitMode::Fast] {
        let config = ActiveConfig {
            n_init: 8,
            n_batch: 2,
            n_max: 24,
            forest: ForestConfig {
                n_trees: 16,
                fit_mode,
                ..ForestConfig::default()
            },
            eval_every: 3,
            alphas: alphas.clone(),
            repeats: 2,
            ..ActiveConfig::default()
        };
        let run = active::run(
            &kernel,
            strategy,
            &config,
            pool(),
            &test_features,
            &test_labels,
            91,
        );
        let full = run.model.predict_batch_mean(&test_features);
        let want: Vec<u64> = alphas
            .iter()
            .map(|&a| rmse_at_alpha(&test_labels, &full, a).to_bits())
            .collect();
        let got: Vec<u64> = run
            .history
            .last()
            .unwrap()
            .rmse
            .iter()
            .map(|r| r.to_bits())
            .collect();
        assert_eq!(
            got, want,
            "{fit_mode:?}: last snapshot drifted from rmse_at_alpha"
        );

        let mut checkpoint =
            active::bootstrap(&kernel, &config, pool(), &test_features, &test_labels, 91);
        loop {
            let out = active::step_once(
                &kernel,
                strategy,
                &config,
                &checkpoint,
                &test_features,
                &test_labels,
            )
            .expect("step");
            checkpoint = out.checkpoint;
            if out.done {
                break;
            }
        }
        assert_eq!(
            history_bits(&checkpoint.history),
            history_bits(&run.history),
            "{fit_mode:?}: the step chain's history drifted from the run's"
        );
    }
}
