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
//! Long runs can be checkpointed every few iterations
//! ([`run_with_checkpoints`]) and resumed after a crash ([`resume`]) with
//! bit-identical results; see [`crate::checkpoint`].
//!
//! The loop is also exposed one iteration at a time: [`bootstrap`] runs the
//! cold start and returns the iteration-0 checkpoint, and [`step_once`]
//! advances any checkpoint by exactly one iteration, returning the next
//! checkpoint in a [`StepOutcome`]. Because the from-scratch model is a pure
//! function of (training set, iteration-derived seed), a chain of
//! `step_once` calls is bit-identical to the continuous loop — this is the
//! substrate `pwu-serve` hosts sessions on, and what makes killing a session
//! between steps free of state loss.

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{
    ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, LabeledSet, Pool, PoolLintCounts,
    TuningTarget,
};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::annotator::{Aggregator, Annotator, MeasurementStats, RetryPolicy};
use crate::checkpoint::{ActiveCheckpoint, CheckpointError, CheckpointPolicy};
use crate::metrics::rmse_at_alpha;
use crate::score::PoolScoreCache;
use crate::strategy::Strategy;

/// How the model is rebuilt after each batch (Algorithm 1 line 9:
/// "construct a random forest from scratch or update it partially").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitMode {
    /// Retrain every tree on the enlarged training set (the default).
    FromScratch,
    /// Regrow only this many trees per iteration; the rest keep their
    /// structure. Cuts per-iteration cost by ~`n_trees / n`.
    Partial(usize),
}

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
    /// Model-rebuild policy per iteration.
    pub refit: RefitMode,
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
            refit: RefitMode::FromScratch,
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
        if let RefitMode::Partial(n) = self.refit {
            assert!(n > 0, "partial refit must regrow at least one tree");
        }
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

/// In-flight state of one run: everything the iteration loop mutates, which
/// is also exactly what a checkpoint must capture.
struct LoopState<'a> {
    schema: FeatureSchema,
    annotator: Annotator<'a>,
    select_rng: Xoshiro256PlusPlus,
    pool_rng: Xoshiro256PlusPlus,
    forest_seed: u64,
    pool: Pool,
    train: LabeledSet,
    model: RandomForest,
    history: Vec<Snapshot>,
    selections: Vec<SelectionTrace>,
    quarantined: Vec<Configuration>,
    iteration: u64,
    lint: PoolLintCounts,
    /// Incremental pool scorer, used (and lazily built) only under
    /// [`RefitMode::Partial`]; never checkpointed — a resumed run rebuilds
    /// it on first use. Its fold is bit-identical to `predict_batch`.
    scores: Option<PoolScoreCache>,
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
/// `n_max` or the config is inconsistent.
pub fn run(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
) -> ActiveRun {
    let state = init_state(target, config, pool, test_features, test_labels, seed);
    match drive(
        target,
        strategy,
        config,
        state,
        test_features,
        test_labels,
        None,
    ) {
        Ok(run) => run,
        // Without a checkpoint policy the loop performs no I/O.
        Err(e) => unreachable!("checkpoint-free run cannot fail: {e}"),
    }
}

/// Like [`run`], but saves an [`ActiveCheckpoint`] atomically every
/// [`CheckpointPolicy::every`] iterations (and at completion), so a killed
/// run can be picked up with [`resume`].
///
/// # Errors
/// Returns [`CheckpointError::Io`] if a checkpoint cannot be written.
///
/// # Panics
/// As [`run`].
#[allow(clippy::too_many_arguments)] // mirrors `run` plus the policy
pub fn run_with_checkpoints(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
    policy: &CheckpointPolicy,
) -> Result<ActiveRun, CheckpointError> {
    let state = init_state(target, config, pool, test_features, test_labels, seed);
    drive(
        target,
        strategy,
        config,
        state,
        test_features,
        test_labels,
        Some(policy),
    )
}

/// Resumes a run from a checkpoint, continuing bit-identically to the run
/// that saved it.
///
/// Only [`RefitMode::FromScratch`] runs can resume: the from-scratch model
/// is a pure function of the training set and the iteration-derived seed,
/// so it is reconstructed instead of serialized. Pass a `policy` to keep
/// checkpointing as the resumed run progresses.
///
/// # Errors
/// Returns [`CheckpointError::Mismatch`] if the checkpoint belongs to a
/// different target or a different configuration, and
/// [`CheckpointError::Io`] if further checkpoints cannot be written.
pub fn resume(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    checkpoint: &ActiveCheckpoint,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    policy: Option<&CheckpointPolicy>,
) -> Result<ActiveRun, CheckpointError> {
    check_resume_compat(target, config, checkpoint)?;
    let state = state_from_checkpoint(target, config, checkpoint);
    drive(
        target,
        strategy,
        config,
        state,
        test_features,
        test_labels,
        policy,
    )
}

/// Verifies that `checkpoint` belongs to this target/configuration and that
/// the configuration is resumable at all.
///
/// # Errors
/// Returns [`CheckpointError::Mismatch`] describing the first disagreement.
fn check_resume_compat(
    target: &dyn TuningTarget,
    config: &ActiveConfig,
    checkpoint: &ActiveCheckpoint,
) -> Result<(), CheckpointError> {
    config.validate();
    if checkpoint.target_name != target.name() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint is for target '{}', not '{}'",
            checkpoint.target_name,
            target.name()
        )));
    }
    if config.refit != RefitMode::FromScratch {
        return Err(CheckpointError::Mismatch(
            "resume requires RefitMode::FromScratch (partial-refit forests \
             are not reconstructible from a checkpoint)"
                .into(),
        ));
    }
    let same_counts = checkpoint.n_init == config.n_init
        && checkpoint.n_batch == config.n_batch
        && checkpoint.n_max == config.n_max
        && checkpoint.repeats == config.repeats;
    if !same_counts {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint counts (n_init {}, n_batch {}, n_max {}, repeats {}) \
             do not match the config",
            checkpoint.n_init, checkpoint.n_batch, checkpoint.n_max, checkpoint.repeats
        )));
    }
    let same_alphas = checkpoint.alphas.len() == config.alphas.len()
        && checkpoint
            .alphas
            .iter()
            .zip(&config.alphas)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same_alphas {
        return Err(CheckpointError::Mismatch(
            "checkpoint alphas do not match the config".into(),
        ));
    }
    if checkpoint.fit_mode != config.forest.fit_mode {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint was written under fit mode '{}' but the config asks for '{}' \
             (the engines produce bitwise-different forests, so resuming across \
             modes would silently fork the trajectory)",
            checkpoint.fit_mode.token(),
            config.forest.fit_mode.token()
        )));
    }
    Ok(())
}

/// Rebuilds the in-flight loop state a checkpoint captured: re-encode the
/// training set, restore all three RNG streams and refit the model exactly
/// as the checkpointing run last did. Callers must have passed
/// `check_resume_compat` first.
fn state_from_checkpoint<'a>(
    target: &'a dyn TuningTarget,
    config: &ActiveConfig,
    checkpoint: &ActiveCheckpoint,
) -> LoopState<'a> {
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let to_cfgs = |levels: &[Vec<u32>]| -> Vec<Configuration> {
        levels.iter().cloned().map(Configuration::new).collect()
    };
    let train_cfgs = to_cfgs(&checkpoint.train_configs);
    let train_features = schema.encode_matrix(space, &train_cfgs);
    let train = LabeledSet::from_parts(train_cfgs, train_features, checkpoint.train_labels.clone());
    let pool = Pool::new(space, &schema, to_cfgs(&checkpoint.pool_configs));
    let mut annotator = Annotator::new(target, config.repeats, 0)
        .with_aggregator(config.aggregator)
        .with_retry_policy(config.retry);
    annotator.restore_state(
        checkpoint.annotator_rng,
        checkpoint.annotator_evaluations,
        checkpoint.stats,
    );
    // The from-scratch model is a pure function of (train, iteration seed):
    // refit it exactly as the checkpointing run last did.
    let model = RandomForest::fit(
        &config.forest,
        schema.kinds(),
        train.features(),
        train.labels(),
        derive_seed(checkpoint.forest_seed, checkpoint.iteration),
    );
    LoopState {
        schema,
        annotator,
        select_rng: Xoshiro256PlusPlus::from_state(checkpoint.select_rng),
        pool_rng: Xoshiro256PlusPlus::from_state(checkpoint.pool_rng),
        forest_seed: checkpoint.forest_seed,
        pool,
        train,
        model,
        history: checkpoint.history.clone(),
        selections: checkpoint.selections.clone(),
        quarantined: to_cfgs(&checkpoint.quarantined),
        iteration: checkpoint.iteration,
        lint: checkpoint.lint,
        scores: None,
    }
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
/// training sets, history and RNG streams to [`run`] with the same inputs
/// (for [`RefitMode::FromScratch`] configs — the only resumable kind).
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
    let state = init_state(target, config, pool, test_features, test_labels, seed);
    make_checkpoint(&state, target, config)
}

/// Advances a checkpointed run by exactly one iteration (one batch with
/// quarantine top-up, one refit, one test-set evaluation if due) and
/// returns the next checkpoint.
///
/// The step is *pure with respect to the checkpoint*: the input is not
/// mutated, so a caller that aborts (watchdog, crash, load shedding) simply
/// keeps the old checkpoint and loses nothing. Stepping a finished run is a
/// no-op that echoes the checkpoint back with `done = true`.
///
/// # Errors
/// Returns [`CheckpointError::Mismatch`] if the checkpoint belongs to a
/// different target or configuration, or if `config.refit` is not
/// [`RefitMode::FromScratch`].
///
/// # Panics
/// Panics only where annotation itself panics (e.g. a NaN reading from a
/// broken target) — in-memory state is the caller's checkpoint, which
/// stays valid.
pub fn step_once(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    checkpoint: &ActiveCheckpoint,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
) -> Result<StepOutcome, CheckpointError> {
    check_resume_compat(target, config, checkpoint)?;
    let mut state = state_from_checkpoint(target, config, checkpoint);
    if state.train.len() >= config.n_max || state.pool.is_empty() {
        return Ok(StepOutcome {
            checkpoint: checkpoint.clone(),
            done: true,
            step_cost: 0.0,
        });
    }
    let cost = |state: &LoopState<'_>| {
        state.train.cumulative_cost() + state.annotator.stats().wasted_cost
    };
    let before = cost(&state);
    let done = one_iteration(strategy, config, &mut state, test_features, test_labels);
    let step_cost = cost(&state) - before;
    Ok(StepOutcome {
        checkpoint: make_checkpoint(&state, target, config),
        done,
        step_cost,
    })
}

/// Validates inputs, removes illegal pool points, runs the cold start and
/// fits the initial model — everything up to Algorithm 1's iteration phase.
fn init_state<'a>(
    target: &'a dyn TuningTarget,
    config: &ActiveConfig,
    mut pool: Pool,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    seed: u64,
) -> LoopState<'a> {
    config.validate();
    let lint = PoolLintCounts::tally(target, pool.configs());
    let removed = pool.retain(|cfg| target.lint_config(cfg) != ConfigLegality::Illegal);
    debug_assert_eq!(removed, lint.illegal, "retain and tally must agree");
    assert!(
        pool.len() >= config.n_max,
        "pool of {} legal points ({} illegal removed) cannot supply n_max = {}",
        pool.len(),
        removed,
        config.n_max
    );
    assert_eq!(test_features.n_rows(), test_labels.len());

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

    // --- Cold start (lines 1–4) -------------------------------------------
    // Quarantine failed annotations and top the sample back up, so the cold
    // start still reaches n_init unless the pool itself drains.
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
    let model = RandomForest::fit(
        &config.forest,
        schema.kinds(),
        train.features(),
        train.labels(),
        derive_seed(forest_seed, 0),
    );

    let mut history = Vec::new();
    record(
        &mut history,
        &model,
        &train,
        annotator.stats().wasted_cost,
        test_features,
        test_labels,
        &config.alphas,
    );
    LoopState {
        schema,
        annotator,
        select_rng,
        pool_rng,
        forest_seed,
        pool,
        train,
        model,
        history,
        selections: Vec::new(),
        quarantined,
        iteration: 0,
        lint,
        scores: None,
    }
}

/// Algorithm 1's iteration phase (lines 5–9), shared by fresh and resumed
/// runs. Saves checkpoints per `policy` when one is given.
fn drive(
    target: &dyn TuningTarget,
    strategy: Strategy,
    config: &ActiveConfig,
    mut state: LoopState<'_>,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    policy: Option<&CheckpointPolicy>,
) -> Result<ActiveRun, CheckpointError> {
    while state.train.len() < config.n_max && !state.pool.is_empty() {
        let done = one_iteration(strategy, config, &mut state, test_features, test_labels);
        if let Some(policy) = policy {
            if state.iteration.is_multiple_of(policy.every) || done {
                make_checkpoint(&state, target, config).save_atomic(&policy.path)?;
            }
        }
    }

    let measurement = *state.annotator.stats();
    Ok(ActiveRun {
        train: state.train,
        history: state.history,
        selections: state.selections,
        model: state.model,
        lint: state.lint,
        measurement,
        quarantined: state.quarantined,
    })
}

/// One pass of Algorithm 1's iteration body (lines 6–9): select and
/// annotate a batch (topping back up past quarantines), refit, and record a
/// test-set evaluation when due. Returns whether the run is finished.
/// Callers must not invoke this on a finished run.
fn one_iteration(
    strategy: Strategy,
    config: &ActiveConfig,
    state: &mut LoopState<'_>,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
) -> bool {
    state.iteration += 1;
    // Observability: one span per iteration, one per loop stage
    // (rescore/select/measure/refit/eval). Every arg is a deterministic
    // quantity; the spans change nothing about what the loop computes.
    let _iter_span = pwu_obs::span(
        "core.iteration",
        [("iter", pwu_obs::Arg::u(state.iteration))],
    );
    // Top the batch back up after quarantines: keep selecting until the
    // batch's worth of labels has landed or the pool drains. Fault-free
    // runs execute this inner loop exactly once.
    let goal = state.train.len() + config.n_batch.min(config.n_max - state.train.len());
    while state.train.len() < goal && !state.pool.is_empty() {
        let need = goal - state.train.len();
        // Under partial refit, score the pool from the per-tree cache:
        // only the refitted trees were re-walked after the last batch,
        // and the fold is bit-identical to `predict_batch`.
        let preds = {
            let _s = pwu_obs::span(
                "core.rescore",
                [
                    ("pool", pwu_obs::Arg::u(state.pool.len() as u64)),
                    ("mode", pwu_obs::Arg::s(state.model.config().fit_mode.token())),
                ],
            );
            match config.refit {
                RefitMode::Partial(_) => state
                    .scores
                    .get_or_insert_with(|| {
                        PoolScoreCache::build(&state.model, state.pool.features())
                    })
                    .predictions(&state.model),
                RefitMode::FromScratch => state.model.predict_batch(state.pool.features()),
            }
        };
        let picked = {
            let _s = pwu_obs::span("core.select", [("need", pwu_obs::Arg::u(need as u64))]);
            strategy.select(&preds, need, &mut state.select_rng)
        };
        if picked.is_empty() {
            break;
        }
        let traces: Vec<(f64, f64)> = picked
            .iter()
            .map(|&i| (preds[i].mean, preds[i].std))
            .collect();
        let taken = state.pool.take(&picked);
        // Mirror the removals (training picks *and* quarantines leave
        // the pool alike) so cache rows stay pool-aligned.
        if let Some(cache) = &mut state.scores {
            cache.remove(&picked);
        }
        let _measure_span = pwu_obs::span(
            "core.measure",
            [("batch", pwu_obs::Arg::u(taken.len() as u64))],
        );
        for ((cfg, row), (mu, sigma)) in taken.into_iter().zip(traces) {
            match state.annotator.try_evaluate(&cfg) {
                Ok(y) => {
                    state.selections.push(SelectionTrace {
                        mean: mu,
                        std: sigma,
                        observed: y,
                    });
                    state.train.push(cfg, &row, y);
                }
                Err(_) => {
                    pwu_obs::event(
                        "core.quarantine",
                        [(
                            "quarantined",
                            pwu_obs::Arg::u(state.quarantined.len() as u64 + 1),
                        )],
                    );
                    state.quarantined.push(cfg);
                }
            }
        }
        drop(_measure_span);
    }
    {
        let _s = pwu_obs::span(
            "core.refit",
            [("train", pwu_obs::Arg::u(state.train.len() as u64))],
        );
        match config.refit {
            RefitMode::FromScratch => {
                state.model = RandomForest::fit(
                    &config.forest,
                    state.schema.kinds(),
                    state.train.features(),
                    state.train.labels(),
                    derive_seed(state.forest_seed, state.iteration),
                );
            }
            RefitMode::Partial(n) => {
                let refitted = state.model.update(
                    state.schema.kinds(),
                    state.train.features(),
                    state.train.labels(),
                    n,
                    derive_seed(state.forest_seed, state.iteration),
                );
                // Refresh only the regrown trees' pool scores: O(pool · n)
                // instead of O(pool · n_trees).
                if let Some(cache) = &mut state.scores {
                    cache.refresh(&state.model, &refitted);
                }
            }
        }
    }
    let done = state.train.len() >= config.n_max || state.pool.is_empty();
    if state.iteration.is_multiple_of(config.eval_every as u64) || done {
        record(
            &mut state.history,
            &state.model,
            &state.train,
            state.annotator.stats().wasted_cost,
            test_features,
            test_labels,
            &config.alphas,
        );
    }
    done
}

/// Captures the loop state as a serializable checkpoint.
fn make_checkpoint(
    state: &LoopState<'_>,
    target: &dyn TuningTarget,
    config: &ActiveConfig,
) -> ActiveCheckpoint {
    let levels_of = |cfgs: &[Configuration]| -> Vec<Vec<u32>> {
        cfgs.iter().map(|c| c.levels().to_vec()).collect()
    };
    pwu_obs::event(
        "core.checkpoint",
        [("iter", pwu_obs::Arg::u(state.iteration))],
    );
    ActiveCheckpoint {
        target_name: target.name().to_string(),
        iteration: state.iteration,
        forest_seed: state.forest_seed,
        n_init: config.n_init,
        n_batch: config.n_batch,
        n_max: config.n_max,
        repeats: config.repeats,
        fit_mode: config.forest.fit_mode,
        alphas: config.alphas.clone(),
        annotator_rng: state.annotator.rng_state(),
        annotator_evaluations: state.annotator.evaluations(),
        stats: *state.annotator.stats(),
        select_rng: state.select_rng.state(),
        pool_rng: state.pool_rng.state(),
        lint: state.lint,
        train_configs: levels_of(state.train.configs()),
        train_labels: state.train.labels().to_vec(),
        pool_configs: levels_of(state.pool.configs()),
        quarantined: levels_of(&state.quarantined),
        history: state.history.clone(),
        selections: state.selections.clone(),
    }
}

fn record(
    history: &mut Vec<Snapshot>,
    model: &RandomForest,
    train: &LabeledSet,
    wasted_cost: f64,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    alphas: &[f64],
) {
    let _s = pwu_obs::span(
        "core.eval",
        [("n_test", pwu_obs::Arg::u(test_labels.len() as u64))],
    );
    let preds = model.predict_batch_mean(test_features);
    let rmse = alphas
        .iter()
        .map(|&a| rmse_at_alpha(test_labels, &preds, a))
        .collect();
    // Wasted wall-clock (failed runs, backoff) is real annotation cost:
    // charge it alongside the labeled measurement time. Zero — and
    // bit-neutral — when no faults fire.
    let cumulative_cost = train.cumulative_cost() + wasted_cost;
    pwu_obs::event(
        "core.snapshot",
        [
            ("n_train", pwu_obs::Arg::u(train.len() as u64)),
            ("cost", pwu_obs::Arg::f(cumulative_cost)),
        ],
    );
    history.push(Snapshot {
        n_train: train.len(),
        cumulative_cost,
        rmse,
    });
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

    #[test]
    fn partial_refit_still_learns() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 180, 80, 8);
        let mut cfg = quick_config(80);
        cfg.refit = RefitMode::Partial(6);
        let run = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &cfg,
            pool,
            &tf,
            &tl,
            4,
        );
        let first = run.history.first().unwrap().rmse[0];
        let last = run.history.last().unwrap().rmse[0];
        assert!(
            last < first,
            "partial refit should still reduce RMSE: {first} → {last}"
        );
    }

    #[test]
    fn partial_and_full_refit_agree_on_direction() {
        let target = Synthetic::new();
        let (pool1, tf, tl) = setup(&target, 180, 80, 9);
        let (pool2, _, _) = setup(&target, 180, 80, 9);
        let full_cfg = quick_config(60);
        let mut part_cfg = quick_config(60);
        part_cfg.refit = RefitMode::Partial(4);
        let full = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &full_cfg,
            pool1,
            &tf,
            &tl,
            5,
        );
        let part = run(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &part_cfg,
            pool2,
            &tf,
            &tl,
            5,
        );
        // Partial updates lag but must stay within a small factor of the
        // from-scratch model's final error.
        let f = full.history.last().unwrap().rmse[0];
        let p = part.history.last().unwrap().rmse[0];
        assert!(p < f * 3.0 + 1e-9, "partial {p} vs full {f}");
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

    #[test]
    fn step_once_rejects_partial_refit_and_foreign_checkpoints() {
        let target = Synthetic::new();
        let (pool, tf, tl) = setup(&target, 150, 60, 42);
        let cfg = quick_config(30);
        let cp = bootstrap(&target, &cfg, pool, &tf, &tl, 9);
        let strategy = Strategy::Uniform;

        let mut partial = cfg.clone();
        partial.refit = RefitMode::Partial(4);
        assert!(matches!(
            step_once(&target, strategy, &partial, &cp, &tf, &tl),
            Err(CheckpointError::Mismatch(_))
        ));

        let mut wrong = cfg.clone();
        wrong.n_batch = 3;
        assert!(matches!(
            step_once(&target, strategy, &wrong, &cp, &tf, &tl),
            Err(CheckpointError::Mismatch(_))
        ));
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
