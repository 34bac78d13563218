//! Algorithm 1: the active-learning loop, hardened against measurement
//! failure.
//!
//! The loop runs the paper's cold start + iterate protocol on top of the
//! fault-tolerant [`Annotator`]. Configurations whose annotation fails —
//! permanently (compile failure) or after exhausting the retry budget — are
//! *quarantined*: removed from the pool, recorded on the run, and replaced
//! by topping the cold start / batch back up so the training set still
//! reaches its configured size. With no fault model on the target the loop
//! consumes exactly the same RNG streams as the historical implementation,
//! so fault-free trajectories are bit-identical.
//!
//! [`ActiveLoop`] is the loop itself: [`ActiveLoop::new`] runs the cold
//! start, [`ActiveLoop::step`] one iteration, [`ActiveLoop::checkpoint`]
//! captures the state ([`ActiveLoop::into_checkpoint`] by value) and
//! [`ActiveLoop::from_checkpoint`] restores it, taking the checkpoint by
//! value so its level vectors become the loop's configurations. It
//! borrows its target, its config and its Eq. 2 evaluator ([`EliteTest`]),
//! so a caller that keeps the evaluator ranks its test set once however
//! many loops it restores. The entry points are loops over it: [`run`];
//! [`run_with_checkpoints`] and [`resume`], which commit every iteration to
//! a [`GenerationStore`] and continue bit-identically after a crash (see
//! [`crate::checkpoint`]); and [`bootstrap`] + [`step_once`], which advance
//! a checkpoint one iteration per call.
//!
//! Every refit constructs the forest from scratch (Algorithm 1 line 9 also
//! allows a partial update, which this loop does not implement), so the
//! model is a pure function of (training set, iteration-derived seed) and
//! is fitted lazily: a refit only marks it stale, and it is fitted where it
//! is first read — pool scoring, a test-set snapshot or
//! [`ActiveLoop::into_run`]. The training set never changes between the
//! mark and that read, so each fit sees the rows and seed an eager refit
//! would have. A restored loop starts stale, so a chain of `step_once`
//! calls is bit-identical to the continuous loop, and each call fits once,
//! plus once more when a snapshot is due.

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{
    ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, LabeledSet, Pool, PoolLintCounts,
    TuningTarget,
};
use pwu_stats::{derive_seed, InvalidInput, Xoshiro256PlusPlus};

use crate::annotator::{Aggregator, Annotator, MeasurementStats, RetryPolicy};
use crate::checkpoint::{ActiveCheckpoint, CheckpointError, GenerationStore};
use crate::metrics::EliteTest;
use crate::strategy::Strategy;

/// Configuration of one active-learning run.
#[derive(Debug, Clone)]
pub struct ActiveConfig {
    /// Cold-start sample count (`n_init`, paper: 10).
    pub n_init: usize,
    /// Batch size per iteration (`n_batch`, paper: 1).
    pub n_batch: usize,
    /// Training-set size to stop at (`n_max`, paper: 500).
    pub n_max: usize,
    /// Forest hyper-parameters.
    pub forest: ForestConfig,
    /// Evaluate the model on the test set every this many iterations
    /// (1 = the paper's every-iteration protocol).
    pub eval_every: usize,
    /// The α values at which RMSE@α is recorded.
    pub alphas: Vec<f64>,
    /// Measurement repeats per annotation.
    pub repeats: usize,
    /// How repeat readings are reduced to one label (default: the paper's
    /// plain mean; robust estimators survive injected outlier spikes).
    pub aggregator: Aggregator,
    /// Retry policy for transient measurement failures.
    pub retry: RetryPolicy,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        Self {
            n_init: 10,
            n_batch: 1,
            n_max: 500,
            forest: ForestConfig::default(),
            eval_every: 1,
            alphas: vec![0.01, 0.05, 0.10],
            repeats: 35,
            aggregator: Aggregator::Mean,
            retry: RetryPolicy::default(),
        }
    }
}

impl ActiveConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on degenerate settings.
    pub fn validate(&self) {
        assert!(self.n_init > 0, "need a nonempty cold start");
        assert!(self.n_batch > 0, "need a positive batch");
        assert!(self.n_max >= self.n_init, "n_max below n_init");
        assert!(self.eval_every > 0, "eval_every must be positive");
        assert!(!self.alphas.is_empty(), "need at least one alpha");
        assert!(
            self.alphas.iter().all(|&a| a > 0.0 && a <= 1.0),
            "every alpha must be in (0, 1], got {:?}",
            self.alphas
        );
        if let Aggregator::TrimmedMean { trim } = self.aggregator {
            assert!(
                (0.0..0.5).contains(&trim),
                "trim fraction must be in [0, 0.5)"
            );
        }
        if let Aggregator::MadFiltered { k } = self.aggregator {
            assert!(k > 0.0, "MAD band width must be positive");
        }
        assert!(
            self.retry.backoff_cost >= 0.0,
            "backoff cost cannot be negative"
        );
        self.forest.validate();
    }
}

/// One per-evaluation snapshot of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Training-set size at this point.
    pub n_train: usize,
    /// Cumulative annotation cost (Eq. 3) so far, in seconds — labeled
    /// measurement time plus wall-clock wasted on failed attempts.
    pub cumulative_cost: f64,
    /// RMSE@α on the test set, aligned with `ActiveConfig::alphas`.
    pub rmse: Vec<f64>,
}

/// A selected sample's predicted state at selection time (for Fig 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionTrace {
    /// Predicted mean execution time μ.
    pub mean: f64,
    /// Predicted uncertainty σ.
    pub std: f64,
    /// Observed execution time after annotation.
    pub observed: f64,
}

/// The result of one active-learning run.
#[derive(Debug, Clone)]
pub struct ActiveRun {
    /// The final training set.
    pub train: LabeledSet,
    /// Test-set evaluation snapshots (every `eval_every` iterations plus the
    /// final state).
    pub history: Vec<Snapshot>,
    /// The (μ, σ, y) trace of every strategy-selected sample.
    pub selections: Vec<SelectionTrace>,
    /// The final model.
    pub model: RandomForest,
    /// Static-analysis verdict counts over the *original* pool; the
    /// `illegal` ones were removed before the cold start.
    pub lint: PoolLintCounts,
    /// Measurement tally: readings, failures by class, retries, wasted
    /// wall-clock.
    pub measurement: MeasurementStats,
    /// Configurations whose annotation failed; they were removed from the
    /// pool and never entered the training set.
    pub quarantined: Vec<Configuration>,
}

/// Algorithm 1 in flight: everything the iteration loop mutates, which is
/// also exactly what a checkpoint captures, plus the three things it
/// borrows — its target, its config and its Eq. 2 evaluator. The model is
/// the one thing it holds that a checkpoint does not: every refit is from
/// scratch and the model is fitted where it is first read, so a loop that
/// is restored, stepped and checkpointed fits it once, or twice when the
/// step records a snapshot.
pub struct ActiveLoop<'a> {
    target: &'a dyn TuningTarget,
    config: &'a ActiveConfig,
    elite: &'a EliteTest,
    schema: FeatureSchema,
    annotator: Annotator<'a>,
    select_rng: Xoshiro256PlusPlus,
    pool_rng: Xoshiro256PlusPlus,
    forest_seed: u64,
    pool: Pool,
    train: LabeledSet,
    /// `None` while stale: a refit drops the old forest and
    /// [`Self::fitted`] fits the new one at its first read.
    model: Option<RandomForest>,
    /// The iteration whose derived seed the next fit uses.
    fit_iteration: u64,
    history: Vec<Snapshot>,
    selections: Vec<SelectionTrace>,
    quarantined: Vec<Configuration>,
    iteration: u64,
    lint: PoolLintCounts,
}

/// Validates `config`, then ranks the test set into its Eq. 2 evaluator
/// (which rejects an empty test set) before any measurement is paid for.
fn evaluator(
    config: &ActiveConfig,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
) -> EliteTest {
    config.validate();
    EliteTest::new(test_features, test_labels, &config.alphas)
}

/// Runs Algorithm 1.
///
/// `pool_configs` is `X_pool`; `test` is the held-out evaluation set with
/// pre-measured labels. All randomness derives from `seed`.
///
/// Pool points the target's [`TuningTarget::lint_config`] marks
/// [`ConfigLegality::Illegal`] are removed before the cold start; the
/// verdict tally over the original pool is reported on
/// [`ActiveRun::lint`]. Configurations whose annotation fails are
/// quarantined (see [`ActiveRun::quarantined`]) and the batch is topped
/// back up, so the run completes even under injected measurement faults.
///
/// # Panics
/// Panics if the pool (after removing illegal points) is smaller than
/// `n_max`, the test set is empty or the config is inconsistent.
pub fn run(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
) -> ActiveRun {
    let elite = evaluator(config, test_features, test_labels);
    let mut active = ActiveLoop::new(target, config, pool, &elite, seed);
    while !active.is_done() {
        active.step(strategy);
    }
    active.into_run()
}

/// Like [`run`], but commits the run to `store` as it goes: generation 0
/// after the cold start, then one generation per iteration, as a served
/// session does. A killed run is picked up with [`resume`].
///
/// # Errors
/// Returns [`CheckpointError::Io`] of kind
/// [`std::io::ErrorKind::AlreadyExists`], before anything is measured, when
/// `store` already holds a slot file: a generation left there by another
/// run could outrank this run's. Returns [`CheckpointError::Io`] if a
/// generation cannot be written.
///
/// # Panics
/// As [`run`].
#[allow(clippy::too_many_arguments)] // mirrors `run` plus the store
pub fn run_with_checkpoints(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
    store: &GenerationStore,
) -> Result<ActiveRun, CheckpointError> {
    let elite = evaluator(config, test_features, test_labels);
    store.refuse_held_slot()?;
    let active = ActiveLoop::new(target, config, pool, &elite, seed);
    store.commit(&active.checkpoint())?;
    active.finish(strategy, store)
}

/// Resumes a run from the newest generation of `store` that verifies
/// ([`GenerationStore::load_latest`], which rolls back past a damaged
/// newest slot) and continues it bit-identically to the run that saved it
/// (see [`ActiveLoop::from_checkpoint`]), committing every iteration to
/// `store` as [`run_with_checkpoints`] does.
///
/// # Errors
/// Returns [`CheckpointError::Io`] of kind [`std::io::ErrorKind::NotFound`]
/// when `store` holds no generation, [`CheckpointError::Corrupt`] when every
/// slot is damaged, [`CheckpointError::Mismatch`] if the checkpoint belongs
/// to a different target or a different configuration, and
/// [`CheckpointError::Io`] if a generation cannot be read or written.
pub fn resume(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    store: &GenerationStore,
) -> Result<ActiveRun, CheckpointError> {
    let elite = evaluator(config, test_features, test_labels);
    let recovered = store.load_latest()?.ok_or_else(|| {
        CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} holds no checkpoint", store.dir().display()),
        ))
    })?;
    ActiveLoop::from_checkpoint(target, config, recovered.checkpoint, &elite)?
        .finish(strategy, store)
}

/// The result of advancing a checkpointed run by one iteration.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The checkpoint after the iteration (equal to the input checkpoint
    /// when the run was already finished).
    pub checkpoint: ActiveCheckpoint,
    /// Whether the run has reached `n_max` (or drained its pool).
    pub done: bool,
    /// Annotation cost incurred by this step, in cost units (seconds of
    /// simulated measurement time): labeled measurement time plus wall-clock
    /// wasted on failed attempts. Zero for a step on a finished run.
    pub step_cost: f64,
}

/// Runs Algorithm 1's cold start (lines 1–4) and returns the iteration-0
/// checkpoint, ready to be advanced with [`step_once`].
///
/// A chain of `bootstrap` + `step_once` calls produces bit-identical
/// training sets, history and RNG streams to [`run`] with the same inputs.
///
/// # Panics
/// As [`run`].
#[must_use]
pub fn bootstrap(
    target: &dyn TuningTarget,
    config: &ActiveConfig,
    pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
) -> ActiveCheckpoint {
    let elite = evaluator(config, test_features, test_labels);
    ActiveLoop::new(target, config, pool, &elite, seed).into_checkpoint()
}

/// Advances a checkpointed run by exactly one iteration (one batch with
/// quarantine top-up, one test-set evaluation if due) and returns the next
/// checkpoint. It fits the model once, to score the pool, and once more
/// when the evaluation is due.
///
/// The step is *pure with respect to the checkpoint*: the input is not
/// mutated, so a caller that aborts (watchdog, crash, load shedding) simply
/// keeps the old checkpoint and loses nothing. Stepping a finished run is a
/// no-op that echoes the checkpoint back with `done = true`.
///
/// # Errors
/// Returns [`CheckpointError::Mismatch`] if the checkpoint belongs to a
/// different target or configuration (see [`ActiveLoop::from_checkpoint`]).
///
/// # Panics
/// Panics where annotation itself panics (e.g. a NaN reading from a broken
/// target) — in-memory state is the caller's checkpoint, which stays valid
/// — and on an empty test set or an inconsistent config.
pub fn step_once(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    checkpoint: &ActiveCheckpoint,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
) -> Result<StepOutcome, CheckpointError> {
    let elite = evaluator(config, test_features, test_labels);
    let mut active = ActiveLoop::from_checkpoint(target, config, checkpoint.clone(), &elite)?;
    if active.is_done() {
        return Ok(StepOutcome {
            checkpoint: checkpoint.clone(),
            done: true,
            step_cost: 0.0,
        });
    }
    let before = active.cost();
    let done = active.step(strategy);
    let step_cost = active.cost() - before;
    Ok(StepOutcome {
        checkpoint: active.into_checkpoint(),
        done,
        step_cost,
    })
}

impl<'a> ActiveLoop<'a> {
    /// Runs Algorithm 1's cold start (lines 1–4): removes the illegal pool
    /// points, annotates `n_init` random ones (quarantining failures and
    /// topping back up), fits the first model and records the first
    /// snapshot.
    ///
    /// # Panics
    /// Panics if the config is inconsistent, `elite` was built for other
    /// alphas than `config.alphas`, the pool (after removing illegal
    /// points) is smaller than `n_max`, or every candidate fails annotation.
    pub fn new(
        target: &'a dyn TuningTarget,
        config: &'a ActiveConfig,
        mut pool: Pool,
        elite: &'a EliteTest,
        seed: u64,
    ) -> Self {
        config.validate();
        assert!(
            elite.is_for(&config.alphas),
            "the evaluator was built for other alphas"
        );
        let mut lint = PoolLintCounts::default();
        pool.retain(|cfg| {
            let verdict = target.lint_config(cfg);
            lint.count(verdict);
            verdict != ConfigLegality::Illegal
        });
        assert!(
            pool.len() >= config.n_max,
            "pool of {} legal points ({} illegal removed) cannot supply n_max = {}",
            pool.len(),
            lint.illegal,
            config.n_max
        );

        // Observability: the whole cold start (lint + sampling + initial fit)
        // is one span; args carry only deterministic quantities.
        let _bootstrap_span = pwu_obs::span(
            "core.bootstrap",
            [
                ("n_init", pwu_obs::Arg::u(config.n_init as u64)),
                ("pool", pwu_obs::Arg::u(pool.len() as u64)),
            ],
        );
        // Mirror the pool-lint tally into the unified registry (satellite of
        // the single-snapshot contract: serve `stats` and `pwu-trace summarize`
        // see the same numbers).
        pwu_obs::counter("pool.lint.legal").add(lint.legal as u64);
        pwu_obs::counter("pool.lint.flagged").add(lint.flagged as u64);
        pwu_obs::counter("pool.lint.illegal").add(lint.illegal as u64);

        let schema = FeatureSchema::for_space(target.space());
        let mut annotator = Annotator::new(target, config.repeats, derive_seed(seed, 1))
            .with_aggregator(config.aggregator)
            .with_retry_policy(config.retry);
        let select_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 2));
        let mut pool_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 3));
        let forest_seed = derive_seed(seed, 4);

        // Quarantine failed annotations and top the sample back up, so the
        // cold start still reaches n_init unless the pool itself drains.
        let mut train = LabeledSet::new();
        let mut quarantined = Vec::new();
        while train.len() < config.n_init && !pool.is_empty() {
            let need = config.n_init - train.len();
            for (cfg, row) in pool.take_random(need, &mut pool_rng) {
                match annotator.try_evaluate(&cfg) {
                    Ok(y) => train.push(cfg, &row, y),
                    Err(_) => quarantined.push(cfg),
                }
            }
        }
        assert!(
            !train.is_empty(),
            "every pool candidate failed annotation during the cold start"
        );
        let mut active = Self {
            target,
            config,
            elite,
            schema,
            annotator,
            select_rng,
            pool_rng,
            forest_seed,
            pool,
            train,
            model: None,
            fit_iteration: 0,
            history: Vec::new(),
            selections: Vec::new(),
            quarantined,
            iteration: 0,
            lint,
        };
        active.record();
        active
    }

    /// Restores the loop a checkpoint captured: re-encodes the training set
    /// and restores all three RNG streams, so stepping on continues
    /// bit-identically. The checkpoint is taken by value: its level vectors
    /// become the loop's configurations, copied nowhere. The model starts
    /// stale and is fitted at its first read with the seed the
    /// checkpointing run last fitted with; restoring fits nothing. The
    /// model is a pure function of the training set and the
    /// iteration-derived seed, so it is refitted instead of serialized.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Mismatch`] describing the first
    /// disagreement if the checkpoint belongs to a different target or
    /// configuration, or if it holds what no run of this target records: a
    /// train or pool configuration outside the target's space, an empty
    /// training set, or a non-finite label. Configurations are checked as
    /// they are encoded, everything else before; nothing is fitted.
    ///
    /// # Panics
    /// Panics if the config is inconsistent or `elite` was built for other
    /// alphas than `config.alphas`.
    pub fn from_checkpoint(
        target: &'a dyn TuningTarget,
        config: &'a ActiveConfig,
        checkpoint: ActiveCheckpoint,
        elite: &'a EliteTest,
    ) -> Result<Self, CheckpointError> {
        let _span = pwu_obs::span(
            "core.restore",
            [
                (
                    "train",
                    pwu_obs::Arg::u(checkpoint.train_configs.len() as u64),
                ),
                (
                    "pool",
                    pwu_obs::Arg::u(checkpoint.pool_configs.len() as u64),
                ),
            ],
        );
        config.validate();
        assert!(
            elite.is_for(&config.alphas),
            "the evaluator was built for other alphas"
        );
        let mismatch = |msg: String| Err(CheckpointError::Mismatch(msg));
        if checkpoint.target_name != target.name() {
            return mismatch(format!(
                "checkpoint is for target '{}', not '{}'",
                checkpoint.target_name,
                target.name()
            ));
        }
        let same_counts = checkpoint.n_init == config.n_init
            && checkpoint.n_batch == config.n_batch
            && checkpoint.n_max == config.n_max
            && checkpoint.repeats == config.repeats;
        if !same_counts {
            return mismatch(format!(
                "checkpoint counts (n_init {}, n_batch {}, n_max {}, repeats {}) \
                 do not match the config",
                checkpoint.n_init, checkpoint.n_batch, checkpoint.n_max, checkpoint.repeats
            ));
        }
        let same_alphas = checkpoint.alphas.len() == config.alphas.len()
            && checkpoint
                .alphas
                .iter()
                .zip(&config.alphas)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_alphas {
            return mismatch("checkpoint alphas do not match the config".into());
        }
        if checkpoint.fit_mode != config.forest.fit_mode {
            return mismatch(format!(
                "checkpoint was written under fit mode '{}' but the config asks for '{}' \
                 (the engines produce bitwise-different forests, so resuming across \
                 modes would silently fork the trajectory)",
                checkpoint.fit_mode.token(),
                config.forest.fit_mode.token()
            ));
        }

        // Encoding and fitting assert on what follows; a checkpoint read
        // from disk gets a typed error instead.
        if checkpoint.train_configs.is_empty() {
            return mismatch("checkpoint has an empty training set".into());
        }
        if let Some(i) = checkpoint.train_labels.iter().position(|y| !y.is_finite()) {
            return mismatch(format!(
                "train label {i} is not finite ({})",
                checkpoint.train_labels[i]
            ));
        }
        let space = target.space();
        let schema = FeatureSchema::for_space(space);
        let to_cfgs = |levels: Vec<Vec<u32>>| -> Vec<Configuration> {
            levels.into_iter().map(Configuration::new).collect()
        };
        let outside = |set: &str, (i, e): (usize, InvalidInput)| {
            CheckpointError::Mismatch(format!("{set} configuration {i}: {}", e.message))
        };
        let train_cfgs = to_cfgs(checkpoint.train_configs);
        let train_features = schema
            .try_encode_matrix(space, &train_cfgs)
            .map_err(|e| outside("train", e))?;
        let train = LabeledSet::from_parts(train_cfgs, train_features, checkpoint.train_labels);
        let pool = Pool::try_new(space, &schema, to_cfgs(checkpoint.pool_configs))
            .map_err(|e| outside("pool", e))?;
        let mut annotator = Annotator::new(target, config.repeats, 0)
            .with_aggregator(config.aggregator)
            .with_retry_policy(config.retry);
        annotator.restore_state(
            checkpoint.annotator_rng,
            checkpoint.annotator_evaluations,
            checkpoint.stats,
        );
        Ok(Self {
            target,
            config,
            elite,
            schema,
            annotator,
            select_rng: Xoshiro256PlusPlus::from_state(checkpoint.select_rng),
            pool_rng: Xoshiro256PlusPlus::from_state(checkpoint.pool_rng),
            forest_seed: checkpoint.forest_seed,
            pool,
            train,
            model: None,
            fit_iteration: checkpoint.iteration,
            history: checkpoint.history,
            selections: checkpoint.selections,
            quarantined: to_cfgs(checkpoint.quarantined),
            iteration: checkpoint.iteration,
            lint: checkpoint.lint,
        })
    }

    /// Whether the run has reached `n_max` or drained its pool.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.train.len() >= self.config.n_max || self.pool.is_empty()
    }

    /// Cumulative annotation cost so far, in cost units: labeled
    /// measurement time plus wall-clock wasted on failed attempts.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.train.cumulative_cost() + self.annotator.stats().wasted_cost
    }

    /// One pass of Algorithm 1's iteration body (lines 6–9): select and
    /// annotate a batch (topping back up past quarantines), refit, and
    /// record a test-set evaluation when due. Returns whether the run is
    /// finished; stepping a finished loop changes nothing and fits nothing.
    ///
    /// The refit only marks the model stale: the snapshot, if due, fits it
    /// from scratch, and otherwise the next step's scoring does.
    pub fn step(&mut self, strategy: Strategy) -> bool {
        if self.is_done() {
            return true;
        }
        let config = self.config;
        self.iteration += 1;
        // Observability: one span per iteration, one per loop stage
        // (rescore/select/measure/refit/eval). Every arg is a deterministic
        // quantity; the spans change nothing about what the loop computes.
        let _iter_span = pwu_obs::span(
            "core.iteration",
            [("iter", pwu_obs::Arg::u(self.iteration))],
        );
        // Top the batch back up after quarantines: keep selecting until the
        // batch's worth of labels has landed or the pool drains. Fault-free
        // runs execute this inner loop exactly once.
        let goal = self.train.len() + config.n_batch.min(config.n_max - self.train.len());
        while self.train.len() < goal && !self.pool.is_empty() {
            let need = goal - self.train.len();
            let preds = {
                self.fitted();
                let model = self.model.as_ref().expect("fitted above");
                let _s = pwu_obs::span(
                    "core.rescore",
                    [
                        ("pool", pwu_obs::Arg::u(self.pool.len() as u64)),
                        ("mode", pwu_obs::Arg::s(config.forest.fit_mode.token())),
                    ],
                );
                model.predict_batch(self.pool.features())
            };
            let picked = {
                let _s = pwu_obs::span("core.select", [("need", pwu_obs::Arg::u(need as u64))]);
                strategy.select(&preds, need, &mut self.select_rng)
            };
            if picked.is_empty() {
                break;
            }
            let traces: Vec<(f64, f64)> = picked
                .iter()
                .map(|&i| (preds[i].mean, preds[i].std))
                .collect();
            let taken = self.pool.take(&picked);
            let _measure_span = pwu_obs::span(
                "core.measure",
                [("batch", pwu_obs::Arg::u(taken.len() as u64))],
            );
            for ((cfg, row), (mu, sigma)) in taken.into_iter().zip(traces) {
                match self.annotator.try_evaluate(&cfg) {
                    Ok(y) => {
                        self.selections.push(SelectionTrace {
                            mean: mu,
                            std: sigma,
                            observed: y,
                        });
                        self.train.push(cfg, &row, y);
                    }
                    Err(_) => {
                        pwu_obs::event(
                            "core.quarantine",
                            [(
                                "quarantined",
                                pwu_obs::Arg::u(self.quarantined.len() as u64 + 1),
                            )],
                        );
                        self.quarantined.push(cfg);
                    }
                }
            }
            drop(_measure_span);
        }
        // Drop the old forest now, so no two are alive at once.
        self.model = None;
        self.fit_iteration = self.iteration;
        let done = self.is_done();
        if self.iteration.is_multiple_of(config.eval_every as u64) || done {
            self.record();
        }
        done
    }

    /// Captures the loop as a serializable checkpoint.
    #[must_use]
    pub fn checkpoint(&self) -> ActiveCheckpoint {
        let levels_of = |cfgs: &[Configuration]| -> Vec<Vec<u32>> {
            cfgs.iter().map(|c| c.levels().to_vec()).collect()
        };
        ActiveCheckpoint {
            train_configs: levels_of(self.train.configs()),
            train_labels: self.train.labels().to_vec(),
            pool_configs: levels_of(self.pool.configs()),
            quarantined: levels_of(&self.quarantined),
            history: self.history.clone(),
            selections: self.selections.clone(),
            ..self.header()
        }
    }

    /// [`ActiveLoop::checkpoint`] by value: the configurations' level
    /// vectors and the recorded rows move into the checkpoint.
    #[must_use]
    pub fn into_checkpoint(self) -> ActiveCheckpoint {
        let levels_of = |cfgs: Vec<Configuration>| -> Vec<Vec<u32>> {
            cfgs.into_iter().map(Configuration::into_levels).collect()
        };
        let header = self.header();
        let (train_configs, _, train_labels) = self.train.into_parts();
        ActiveCheckpoint {
            train_configs: levels_of(train_configs),
            train_labels,
            pool_configs: levels_of(self.pool.into_configs()),
            quarantined: levels_of(self.quarantined),
            history: self.history,
            selections: self.selections,
            ..header
        }
    }

    /// The checkpoint's scalar part, every row section empty; emits the
    /// `core.checkpoint` event each capture reports.
    fn header(&self) -> ActiveCheckpoint {
        pwu_obs::event(
            "core.checkpoint",
            [("iter", pwu_obs::Arg::u(self.iteration))],
        );
        let config = self.config;
        ActiveCheckpoint {
            target_name: self.target.name().to_string(),
            iteration: self.iteration,
            forest_seed: self.forest_seed,
            n_init: config.n_init,
            n_batch: config.n_batch,
            n_max: config.n_max,
            repeats: config.repeats,
            fit_mode: config.forest.fit_mode,
            alphas: config.alphas.clone(),
            annotator_rng: self.annotator.rng_state(),
            annotator_evaluations: self.annotator.evaluations(),
            stats: *self.annotator.stats(),
            select_rng: self.select_rng.state(),
            pool_rng: self.pool_rng.state(),
            lint: self.lint,
            train_configs: Vec::new(),
            train_labels: Vec::new(),
            pool_configs: Vec::new(),
            quarantined: Vec::new(),
            history: Vec::new(),
            selections: Vec::new(),
        }
    }

    /// The finished (or abandoned) run's result, with its model fitted on
    /// the final training set.
    #[must_use]
    pub fn into_run(mut self) -> ActiveRun {
        self.fitted();
        ActiveRun {
            measurement: *self.annotator.stats(),
            train: self.train,
            history: self.history,
            selections: self.selections,
            model: self.model.expect("fitted above"),
            lint: self.lint,
            quarantined: self.quarantined,
        }
    }

    /// Steps to the end, committing each iteration to `store`.
    fn finish(
        mut self,
        strategy: Strategy,
        store: &GenerationStore,
    ) -> Result<ActiveRun, CheckpointError> {
        while !self.is_done() {
            self.step(strategy);
            store.commit(&self.checkpoint())?;
        }
        Ok(self.into_run())
    }

    /// The model, fitted first if it is stale: after the cold start's
    /// sampling, a restore or a refit. The training set has
    /// not changed since then, so this fit uses the rows and the seed an
    /// eager fit would have used.
    fn fitted(&mut self) -> &RandomForest {
        let (config, schema, train) = (self.config, &self.schema, &self.train);
        let seed = derive_seed(self.forest_seed, self.fit_iteration);
        self.model.get_or_insert_with(|| {
            let _s = pwu_obs::span(
                "core.refit",
                [("train", pwu_obs::Arg::u(train.len() as u64))],
            );
            RandomForest::fit(
                &config.forest,
                schema.kinds(),
                train.features(),
                train.labels(),
                seed,
            )
        })
    }

    /// Appends one snapshot: RMSE@α of the model on the elite test rows,
    /// plus the cumulative cost so far.
    fn record(&mut self) {
        let elite = self.elite;
        let model = self.fitted();
        let _s = pwu_obs::span(
            "core.eval",
            [
                ("n_test", pwu_obs::Arg::u(elite.n_test() as u64)),
                ("rows", pwu_obs::Arg::u(elite.rows() as u64)),
            ],
        );
        let rmse = elite.rmse(model);
        // Wasted wall-clock (failed runs, backoff) is real annotation cost:
        // charge it alongside the labeled measurement time. Zero — and
        // bit-neutral — when no faults fire.
        let cumulative_cost = self.cost();
        pwu_obs::event(
            "core.snapshot",
            [
                ("n_train", pwu_obs::Arg::u(self.train.len() as u64)),
                ("cost", pwu_obs::Arg::f(cumulative_cost)),
            ],
        );
        self.history.push(Snapshot {
            n_train: self.train.len(),
            cumulative_cost,
            rmse,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_space::{Configuration, Param, ParamSpace};

    /// A deterministic synthetic target: time = 0.1 + normalized distance
    /// from a sweet spot, with two interacting parameters.
    struct Synthetic {
        space: ParamSpace,
    }

    impl Synthetic {
        fn new() -> Self {
            Self {
                space: ParamSpace::new(
                    "synthetic",
                    vec![
                        Param::ordinal("a", (0..12).map(f64::from).collect::<Vec<_>>()),
                        Param::ordinal("b", (0..12).map(f64::from).collect::<Vec<_>>()),
                        Param::boolean("flag"),
                    ],
                ),
            }
        }
    }

    impl TuningTarget for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            let a = f64::from(cfg.level(0));
            let b = f64::from(cfg.level(1));
            let flag = f64::from(cfg.level(2));
            0.1 + 0.01 * ((a - 7.0).powi(2) + (b - 3.0).powi(2)) + 0.05 * flag * a
        }
    }

    fn setup(
        target: &Synthetic,
        pool_n: usize,
        test_n: usize,
        seed: u64,
    ) -> (Pool, FeatureMatrix, Vec<f64>) {
        let schema = FeatureSchema::for_space(target.space());
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let all = target.space().sample_distinct(pool_n + test_n, &mut rng);
        let (pool_cfgs, test_cfgs) = all.split_at(pool_n);
        let pool = Pool::new(target.space(), &schema, pool_cfgs.to_vec());
        let test_features = schema.encode_matrix(target.space(), test_cfgs);
        let test_labels: Vec<f64> = test_cfgs.iter().map(|c| target.ideal_time(c)).collect();
        (pool, test_features, test_labels)
    }

    fn quick_config(n_max: usize) -> ActiveConfig {
        ActiveConfig {
            n_init: 5,
            n_batch: 1,
            n_max,
            forest: ForestConfig {
                n_trees: 24,
                ..ForestConfig::default()
            },
            eval_every: 5,
            alphas: vec![0.05],
            repeats: 1,
            ..ActiveConfig::default()
        }
    }

    #[test]
    fn run_reaches_n_max_and_history_is_monotone_in_size() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 150, 80, 1);
        let run = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &quick_config(40),
            pool,
            &tf,
            &tl,
            7,
        );
        assert_eq!(run.train.len(), 40);
        assert_eq!(run.selections.len(), 35);
        let sizes: Vec<usize> = run.history.iter().map(|s| s.n_train).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sizes.last().unwrap(), 40);
        // Cumulative cost is nondecreasing.
        let costs: Vec<f64> = run.history.iter().map(|s| s.cumulative_cost).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        // Fault-free run: nothing quarantined, no failures, no waste.
        assert!(run.quarantined.is_empty());
        assert_eq!(run.measurement.total_failures(), 0);
        assert_eq!(run.measurement.wasted_cost, 0.0);
        assert_eq!(run.measurement.annotations, 40);
    }

    #[test]
    fn learning_reduces_elite_rmse() {
        let target = Synthetic::new();
        // The synthetic space has 288 points; stay below that.
        let (pool, tf, tl) = setup(&target, 180, 80, 2);
        let run = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &quick_config(80),
            pool,
            &tf,
            &tl,
            3,
        );
        let first = run.history.first().unwrap().rmse[0];
        let last = run.history.last().unwrap().rmse[0];
        assert!(
            last < first,
            "RMSE should fall during learning: {first} → {last}"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let target = Synthetic::new();
        for strategy in [Strategy::Pwu { alpha: 0.05 }, Strategy::Uniform] {
            let (pool1, tf, tl) = setup(&target, 120, 50, 5);
            let (pool2, _, _) = setup(&target, 120, 50, 5);
            let a = run(&target, strategy, &quick_config(30), pool1, &tf, &tl, 11);
            let b = run(&target, strategy, &quick_config(30), pool2, &tf, &tl, 11);
            assert_eq!(a.train.labels(), b.train.labels());
            assert_eq!(
                a.history.last().unwrap().rmse,
                b.history.last().unwrap().rmse
            );
        }
    }

    #[test]
    fn different_strategies_diverge() {
        let target = Synthetic::new();
        let (pool1, tf, tl) = setup(&target, 120, 50, 6);
        let (pool2, _, _) = setup(&target, 120, 50, 6);
        let a = run(
            &target,
            Strategy::BestPerf,
            &quick_config(30),
            pool1,
            &tf,
            &tl,
            12,
        );
        let b = run(
            &target,
            Strategy::MaxU,
            &quick_config(30),
            pool2,
            &tf,
            &tl,
            12,
        );
        assert_ne!(a.train.labels(), b.train.labels());
        // BestPerf collects cheap samples: its cumulative cost must be lower.
        assert!(a.train.cumulative_cost() < b.train.cumulative_cost());
    }

    /// The synthetic target with a lint rule: `flag = 1` together with
    /// `a > 8` is declared Illegal (and `a == 8` Flagged).
    struct LintedSynthetic(Synthetic);

    impl TuningTarget for LintedSynthetic {
        fn name(&self) -> &str {
            "linted-synthetic"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            self.0.ideal_time(cfg)
        }
        fn lint_config(&self, cfg: &Configuration) -> pwu_space::ConfigLegality {
            if cfg.level(2) == 1 && cfg.level(0) > 8 {
                pwu_space::ConfigLegality::Illegal
            } else if cfg.level(2) == 1 && cfg.level(0) == 8 {
                pwu_space::ConfigLegality::Flagged
            } else {
                pwu_space::ConfigLegality::Legal
            }
        }
    }

    #[test]
    fn illegal_pool_points_are_never_annotated() {
        let inner = Synthetic::new();
        let target = LintedSynthetic(Synthetic::new());
        let (pool, tf, tl) = setup(&inner, 150, 60, 21);
        let n_pool_illegal = pool
            .configs()
            .iter()
            .filter(|c| target.lint_config(c) == pwu_space::ConfigLegality::Illegal)
            .count();
        assert!(n_pool_illegal > 0, "pool must contain illegal points");
        let run = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &quick_config(40),
            pool,
            &tf,
            &tl,
            17,
        );
        assert_eq!(run.lint.illegal, n_pool_illegal);
        assert_eq!(run.lint.total(), 150);
        assert!(
            run.train
                .configs()
                .iter()
                .all(|c| target.lint_config(c) != pwu_space::ConfigLegality::Illegal),
            "training set must never contain an illegal configuration"
        );
    }

    #[test]
    fn step_chain_matches_continuous_run_bit_for_bit() {
        let target = Synthetic::new();
        let (pool1, tf, tl) = setup(&target, 150, 60, 41);
        let (pool2, _, _) = setup(&target, 150, 60, 41);
        let cfg = quick_config(30);
        let strategy = Strategy::Pwu { alpha: 0.05 };
        let continuous = run(&target, strategy, &cfg, pool1, &tf, &tl, 23);

        let mut cp = bootstrap(&target, &cfg, pool2, &tf, &tl, 23);
        let mut steps = 0u32;
        loop {
            let out = step_once(&target, strategy, &cfg, &cp, &tf, &tl).unwrap();
            assert!(out.step_cost >= 0.0);
            cp = out.checkpoint;
            steps += 1;
            assert!(steps < 1000, "step chain failed to terminate");
            if out.done {
                break;
            }
        }
        // The stepped run saw the same bits the continuous run saw.
        assert_eq!(cp.train_labels, continuous.train.labels());
        assert_eq!(cp.history, continuous.history);
        assert_eq!(cp.selections, continuous.selections);

        // Stepping a finished run is a no-op echo.
        let again = step_once(&target, strategy, &cfg, &cp, &tf, &tl).unwrap();
        assert!(again.done);
        assert_eq!(again.step_cost, 0.0);
        assert_eq!(again.checkpoint, cp);
    }

    /// A checkpoint that cannot belong to the target or the config is a
    /// typed `Mismatch`, never a panic: one from another config, and ones
    /// holding a configuration outside the space (a level past a
    /// parameter's arity, or one level short — a session written before the
    /// space changed), an empty training set or a non-finite label. Each
    /// mutated checkpoint is round-tripped through its text form first, as
    /// a footer-valid file on disk would be.
    #[test]
    fn step_once_rejects_foreign_checkpoints() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 150, 60, 42);
        let cfg = quick_config(30);
        let cp = bootstrap(&target, &cfg, pool, &tf, &tl, 9);
        let strategy = Strategy::Uniform;

        let mut wrong = cfg.clone();
        wrong.n_batch = 3;
        assert!(matches!(
            step_once(&target, strategy, &wrong, &cp, &tf, &tl),
            Err(CheckpointError::Mismatch(_))
        ));

        let rejects = |what: &str, mutate: &dyn Fn(&mut ActiveCheckpoint), names: &str| {
            let mut bad = cp.clone();
            mutate(&mut bad);
            let bad = ActiveCheckpoint::from_text(&bad.to_text()).expect("the text form parses");
            match step_once(&target, strategy, &cfg, &bad, &tf, &tl) {
                Err(CheckpointError::Mismatch(msg)) => assert!(
                    msg.contains(names),
                    "{what}: message {msg:?} does not name {names:?}"
                ),
                other => panic!("{what}: expected a Mismatch, got {other:?}"),
            }
        };
        let train = "train configuration 2";
        rejects("train level 999", &|c| c.train_configs[2][0] = 999, train);
        rejects(
            "short train config",
            &|c| c.train_configs[2].truncate(2),
            train,
        );
        let pool = "pool configuration 7";
        rejects("pool level 999", &|c| c.pool_configs[7][1] = 999, pool);
        rejects(
            "short pool config",
            &|c| c.pool_configs[7].truncate(2),
            pool,
        );
        rejects(
            "NaN label",
            &|c| c.train_labels[3] = f64::NAN,
            "train label 3",
        );
        rejects(
            "empty training set",
            &|c| {
                c.train_configs.clear();
                c.train_labels.clear();
            },
            "empty training set",
        );
    }

    /// The exact and fast engines produce bitwise-different forests, so a
    /// checkpoint written under one mode must refuse to resume under the
    /// other — silently forking the trajectory would invalidate every
    /// determinism guarantee downstream.
    #[test]
    fn step_once_rejects_cross_mode_resume() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 150, 60, 43);
        let cfg = quick_config(30);
        let cp = bootstrap(&target, &cfg, pool, &tf, &tl, 9);
        assert_eq!(cp.fit_mode, pwu_forest::FitMode::Exact);

        let mut crossed = cfg.clone();
        crossed.forest.fit_mode = pwu_forest::FitMode::Fast;
        match step_once(&target, Strategy::Uniform, &crossed, &cp, &tf, &tl) {
            Err(CheckpointError::Mismatch(msg)) => {
                assert!(msg.contains("fit mode"), "unhelpful message: {msg}");
                assert!(msg.contains("exact") && msg.contains("fast"));
            }
            other => panic!("cross-mode resume must be a Mismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn pool_too_small_is_rejected() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 20, 20, 7);
        let _ = run(
            &target,
            Strategy::Uniform,
            &quick_config(50),
            pool,
            &tf,
            &tl,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "every alpha must be in (0, 1]")]
    fn zero_alpha_is_rejected_by_validate() {
        let mut cfg = quick_config(30);
        cfg.alphas = vec![0.05, 0.0];
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "every alpha must be in (0, 1]")]
    fn alpha_above_one_is_rejected_by_validate() {
        let mut cfg = quick_config(30);
        cfg.alphas = vec![1.5];
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "every alpha must be in (0, 1]")]
    fn nan_alpha_is_rejected_by_validate() {
        let mut cfg = quick_config(30);
        cfg.alphas = vec![f64::NAN, 0.05];
        cfg.validate();
    }

    /// An empty test set fails with a message before the cold start pays
    /// for any measurement, not on a slice index at the first snapshot.
    #[test]
    #[should_panic(expected = "nonempty test set")]
    fn empty_test_set_is_rejected() {
        let target = Synthetic::new();
        let (pool, tf, _) = setup(&target, 60, 0, 3);
        let _ = run(
            &target,
            Strategy::Uniform,
            &quick_config(30),
            pool,
            &tf,
            &[],
            0,
        );
    }

    /// A loop's evaluator must be ranked for the config's alphas: one
    /// ranked for others would record the wrong elite slices.
    #[test]
    #[should_panic(expected = "built for other alphas")]
    fn loop_rejects_an_evaluator_built_for_other_alphas() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 60, 20, 3);
        let cfg = quick_config(30);
        let elite = EliteTest::new(&tf, &tl, &[0.5]);
        let _ = ActiveLoop::new(&target, &cfg, pool, &elite, 0);
    }

    /// A synthetic target that permanently fails annotation for a fixed
    /// slice of its space (`a == 5`), exercising quarantine + top-up.
    struct PartiallyBroken(Synthetic);

    impl TuningTarget for PartiallyBroken {
        fn name(&self) -> &str {
            "partially-broken"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn ideal_time(&self, cfg: &Configuration) -> f64 {
            self.0.ideal_time(cfg)
        }
        fn try_measure(
            &self,
            cfg: &Configuration,
            _rng: &mut Xoshiro256PlusPlus,
        ) -> pwu_space::MeasureOutcome {
            if cfg.level(0) == 5 {
                pwu_space::MeasureOutcome::Failed {
                    kind: pwu_space::FailureKind::Compile,
                    cost: 0.3,
                }
            } else {
                pwu_space::MeasureOutcome::Ok(self.0.ideal_time(cfg))
            }
        }
    }

    #[test]
    fn failed_annotations_are_quarantined_and_the_run_still_completes() {
        let target = PartiallyBroken(Synthetic::new());
        let (pool, tf, tl) = setup(&target.0, 180, 60, 31);
        let n_broken = pool.configs().iter().filter(|c| c.level(0) == 5).count();
        assert!(n_broken > 0, "pool must contain broken points");
        let run = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &quick_config(60),
            pool,
            &tf,
            &tl,
            13,
        );
        assert_eq!(run.train.len(), 60, "quarantine must not starve the run");
        assert!(
            run.train.configs().iter().all(|c| c.level(0) != 5),
            "no broken configuration may be trained on"
        );
        assert!(
            run.quarantined.iter().all(|c| c.level(0) == 5),
            "only broken configurations may be quarantined"
        );
        assert!(!run.quarantined.is_empty(), "some must have been hit");
        assert_eq!(
            run.measurement.compile_failures,
            run.quarantined.len(),
            "each quarantined config burned exactly one compile attempt"
        );
        assert!(run.measurement.wasted_cost > 0.0);
        // Wasted cost is charged into the history's cumulative cost.
        let last = run.history.last().unwrap();
        let labeled: f64 = run.train.labels().iter().sum();
        assert!(last.cumulative_cost > labeled, "waste must be charged");
    }
}
