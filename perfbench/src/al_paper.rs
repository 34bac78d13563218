//! `al_paper`: Algorithm 1 in the paper's protocol shape on gesummv.
//!
//! The untraced run calls the real `pwu_core::active::run`. It has no
//! per-iteration hook, so the target is wrapped in [`Marked`], which
//! delegates every method and timestamps the first `try_measure` call for
//! each newly selected configuration: with `n_batch = 1` and no faults that
//! is one mark per iteration. The host probe runs at a mark, before the
//! unit's clock starts. The traced run replays the same algorithm through
//! the layers' public functions, timing each call from outside, and must
//! reproduce the untraced run's labels and history bit for bit.

use std::sync::Mutex;
use std::time::Instant;

use pwu_core::{active, rmse_at_alpha, ActiveConfig, Annotator, Snapshot, Strategy};
use pwu_forest::{FitMode, ForestConfig, RandomForest};
use pwu_space::{
    ConfigLegality, Configuration, FeatureMatrix, FeatureSchema, LabeledSet, MeasureOutcome,
    ParamSpace, Pool, TuningTarget,
};
use pwu_spapt::Kernel;
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::measure::{median, ms_since, timed, HostClock, Series};
use crate::{all_series, attribution, band_series, Report, Sample, Scale, MODES};

/// The run's size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Pool size.
    pub pool: usize,
    /// Held-out test-set size.
    pub test: usize,
    /// Cold-start size.
    pub n_init: usize,
    /// Training-set size to stop at.
    pub n_max: usize,
    /// Measurement repeats per annotation.
    pub repeats: usize,
    /// Forest size.
    pub n_trees: usize,
    /// Timed set-ups per run: one per mode, the rest discarded after
    /// timing, half of them before the measured runs and half after, so the
    /// samples span the run.
    pub setups: usize,
}

impl Shape {
    /// The paper's protocol: pool 7000, test 3000, 10 cold-start points,
    /// `n_max` 500, 35 repeats, 64 trees.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pool: 7000,
            test: 3000,
            n_init: 10,
            n_max: 500,
            repeats: 35,
            n_trees: 64,
            setups: 16,
        }
    }

    /// A reduced shape for the self-test.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            pool: 400,
            test: 150,
            n_init: 10,
            n_max: 40,
            repeats: 5,
            n_trees: 8,
            setups: 3,
        }
    }

    fn iterations(&self) -> usize {
        self.n_max - self.n_init
    }

    fn config(&self, mode: FitMode) -> ActiveConfig {
        ActiveConfig {
            n_init: self.n_init,
            n_batch: 1,
            n_max: self.n_max,
            forest: ForestConfig {
                n_trees: self.n_trees,
                fit_mode: mode,
                ..ForestConfig::default()
            },
            repeats: self.repeats,
            ..ActiveConfig::default()
        }
    }
}

/// PWU at α = 0.05, the strategy every run uses.
const STRATEGY: Strategy = Strategy::Pwu { alpha: 0.05 };

/// Index of α = 0.05 in the default `alphas` (0.01, 0.05, 0.10).
const ALPHA_05: usize = 1;

/// DESIGN.md §14's bound on the typical relative gap between the fast and
/// exact engines' mean-history RMSE, taken across seeds.
const EPS_MEAN: f64 = 0.25;

/// Runs of DESIGN.md §14's equivalence protocol per check.
///
/// One seed's gap cannot be bounded: it is heavy-tailed in both engines'
/// favour. Over 4000 seeds of the §14 protocol the per-seed gap exceeded
/// §14's per-seed bound of 1.0 on 1.5% of seeds (up to +3.5), and at the
/// benchmark's own shape it ran from -0.64 to +0.27 over 30 seeds, so a
/// per-seed check would fail correct runs. The median over 40 seeds stayed
/// within ±0.12 in 100 blocks of 40.
const EQUIVALENCE_SEEDS: u64 = 40;

/// One run's inputs: a cold target plus the sampled pool and labelled test
/// set.
struct Inputs {
    target: Kernel,
    pool: Pool,
    test_features: FeatureMatrix,
    test_labels: Vec<f64>,
    failed_labels: usize,
}

/// Sampling plus test labelling, as `pwu_core::experiment` does it: draw
/// pool + test distinct configurations, pre-warm the test set's base costs
/// and label it with `repeats` readings each.
fn setup(pristine: &Kernel, shape: &Shape, seed: u64) -> Inputs {
    let target = pristine.clone();
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, 100));
    let all = space.sample_distinct(shape.pool + shape.test, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(shape.pool);
    let _ = target.ideal_times(test_cfgs);
    let mut annotator = Annotator::new(&target, shape.repeats, derive_seed(seed, 101));
    let mut kept = Vec::with_capacity(test_cfgs.len());
    let mut test_labels = Vec::with_capacity(test_cfgs.len());
    for cfg in test_cfgs {
        if let Ok(y) = annotator.try_evaluate(cfg) {
            kept.push(cfg.clone());
            test_labels.push(y);
        }
    }
    let failed_labels = test_cfgs.len() - kept.len();
    let test_features = schema.encode_matrix(space, &kept);
    let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
    Inputs {
        target,
        pool,
        test_features,
        test_labels,
        failed_labels,
    }
}

/// One set-up, timed, its time recorded with the host factor.
fn timed_setup(
    pristine: &Kernel,
    shape: &Shape,
    seed: u64,
    clock: &mut HostClock,
    times: &mut Series,
) -> Inputs {
    clock.tick();
    let (inputs, ms) = timed(|| setup(pristine, shape, seed));
    times.push(ms, clock.factor());
    inputs
}

/// Iteration marks, with the host clock that is probed at each of them.
struct MarkState<'c> {
    clock: &'c mut HostClock,
    /// The configuration of the latest mark.
    last: Vec<u32>,
    /// The unit in progress: its start and host factor.
    open: Option<(Instant, f64)>,
    /// Every closed unit: wall ms and host factor.
    units: Vec<(f64, f64)>,
}

impl MarkState<'_> {
    fn close(&mut self, at: Instant) {
        if let Some((start, host)) = self.open.take() {
            self.units.push((ms_between(start, at), host));
        }
    }
}

/// A target wrapper that delegates every method and marks the first
/// `try_measure` call of each newly selected configuration: with
/// `n_batch = 1` and no faults, one mark per iteration.
struct Marked<'a, 'c> {
    inner: &'a dyn TuningTarget,
    state: Mutex<MarkState<'c>>,
}

impl TuningTarget for Marked<'_, '_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.inner.ideal_time(cfg)
    }
    fn ideal_times(&self, cfgs: &[Configuration]) -> Vec<f64> {
        self.inner.ideal_times(cfgs)
    }
    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.inner.measure(cfg, rng)
    }
    fn measure_averaged(
        &self,
        cfg: &Configuration,
        repeats: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> f64 {
        self.inner.measure_averaged(cfg, repeats, rng)
    }
    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        let now = Instant::now();
        let mut state = self.state.lock().expect("only this run takes the lock");
        if state.open.is_none() || state.last.as_slice() != cfg.levels() {
            state.last.clear();
            state.last.extend_from_slice(cfg.levels());
            state.close(now);
            state.clock.tick();
            let host = state.clock.factor();
            state.open = Some((Instant::now(), host));
        }
        drop(state);
        self.inner.try_measure(cfg, rng)
    }
    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.inner.lint_config(cfg)
    }
}

/// What one mode's run produced.
struct Outcome {
    /// One per iteration, in order.
    units: Vec<Sample>,
    labels: Vec<f64>,
    history: Vec<Snapshot>,
    annotations: usize,
    failed_annotations: usize,
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// The real `active::run`, with iteration boundaries marked from outside.
/// The unit of iteration `i` runs from the mark of the configuration it
/// selected to the next mark: that configuration's annotation, the refit,
/// the test-set evaluation, then the next iteration's scoring and
/// selection.
fn untraced(
    inputs: Inputs,
    config: &ActiveConfig,
    mode: usize,
    seed: u64,
    clock: &mut HostClock,
) -> Result<Outcome, String> {
    let marked = Marked {
        inner: &inputs.target,
        state: Mutex::new(MarkState {
            clock,
            last: Vec::new(),
            open: None,
            units: Vec::new(),
        }),
    };
    let run = active::run(
        &marked,
        STRATEGY,
        config,
        inputs.pool,
        &inputs.test_features,
        &inputs.test_labels,
        seed,
    );
    let end = Instant::now();
    let mut state = marked
        .state
        .into_inner()
        .expect("only this run takes the lock");
    state.close(end);
    if state.units.len() != config.n_max {
        return Err(format!(
            "saw {} distinct measured configurations, expected n_max = {}",
            state.units.len(),
            config.n_max
        ));
    }
    let units = state.units[config.n_init..]
        .iter()
        .enumerate()
        .map(|(position, &(ms, host))| Sample {
            mode,
            position,
            ms,
            host,
        })
        .collect();
    Ok(Outcome {
        units,
        labels: run.train.labels().to_vec(),
        history: run.history,
        annotations: run.measurement.annotations,
        failed_annotations: run.measurement.failed_annotations,
    })
}

/// Per-layer times of one traced replay, one sample per call, positioned
/// by iteration.
#[derive(Default)]
struct Layers {
    fit: Vec<Sample>,
    score: Vec<Sample>,
    select: Vec<Sample>,
    annotate: Vec<Sample>,
    eval: Vec<Sample>,
    fits: u64,
    rows_scored: u64,
    readings: usize,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Layers {
    /// Every layer called once per iteration.
    fn per_unit(&self) -> [&[Sample]; 5] {
        [
            &self.score,
            &self.select,
            &self.annotate,
            &self.fit,
            &self.eval,
        ]
    }
}

/// Test-set evaluation: `predict_batch_mean` plus RMSE@α per α.
fn evaluate(
    model: &RandomForest,
    train: &LabeledSet,
    wasted_cost: f64,
    test_features: &FeatureMatrix,
    test_labels: &[f64],
    alphas: &[f64],
) -> Snapshot {
    let preds = model.predict_batch_mean(test_features);
    Snapshot {
        n_train: train.len(),
        cumulative_cost: train.cumulative_cost() + wasted_cost,
        rmse: alphas
            .iter()
            .map(|&a| rmse_at_alpha(test_labels, &preds, a))
            .collect(),
    }
}

/// Algorithm 1 replayed through the layers' public functions, each call
/// timed: the same RNG streams and order of operations as `active::run`.
fn traced(
    inputs: Inputs,
    config: &ActiveConfig,
    mode: usize,
    seed: u64,
    clock: &mut HostClock,
) -> (Outcome, Layers) {
    let (hits_before, misses_before) = inputs.target.eval_cache().stats();
    let target: &dyn TuningTarget = &inputs.target;
    let mut pool = inputs.pool;
    let (tf, tl) = (&inputs.test_features, &inputs.test_labels);
    let mut layers = Layers::default();
    pool.retain(|cfg| target.lint_config(cfg) != ConfigLegality::Illegal);
    let schema = FeatureSchema::for_space(target.space());
    let mut annotator = Annotator::new(target, config.repeats, derive_seed(seed, 1))
        .with_aggregator(config.aggregator)
        .with_retry_policy(config.retry);
    let mut select_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 2));
    let mut pool_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 3));
    let forest_seed = derive_seed(seed, 4);

    let mut train = LabeledSet::new();
    while train.len() < config.n_init && !pool.is_empty() {
        let need = config.n_init - train.len();
        for (cfg, row) in pool.take_random(need, &mut pool_rng) {
            if let Ok(y) = annotator.try_evaluate(&cfg) {
                train.push(cfg, &row, y);
            }
        }
    }
    let fit = |train: &LabeledSet, iteration: u64| {
        RandomForest::fit(
            &config.forest,
            schema.kinds(),
            train.features(),
            train.labels(),
            derive_seed(forest_seed, iteration),
        )
    };
    let mut model = fit(&train, 0);
    layers.fits += 1;
    let mut history = vec![evaluate(
        &model,
        &train,
        annotator.stats().wasted_cost,
        tf,
        tl,
        &config.alphas,
    )];

    let mut units = Vec::new();
    let mut iteration = 0u64;
    while train.len() < config.n_max && !pool.is_empty() {
        clock.tick();
        let host = clock.factor();
        let position = iteration as usize;
        let sample = |ms| Sample {
            mode,
            position,
            ms,
            host,
        };
        let unit_start = Instant::now();
        iteration += 1;
        let goal = train.len() + config.n_batch.min(config.n_max - train.len());
        while train.len() < goal && !pool.is_empty() {
            let need = goal - train.len();
            layers.rows_scored += pool.len() as u64;
            let (preds, ms) = timed(|| model.predict_batch(pool.features()));
            layers.score.push(sample(ms));
            let (picked, ms) = timed(|| STRATEGY.select(&preds, need, &mut select_rng));
            layers.select.push(sample(ms));
            if picked.is_empty() {
                break;
            }
            for (cfg, row) in pool.take(&picked) {
                let (label, ms) = timed(|| annotator.try_evaluate(&cfg));
                layers.annotate.push(sample(ms));
                if let Ok(y) = label {
                    train.push(cfg, &row, y);
                }
            }
        }
        let (refit, ms) = timed(|| fit(&train, iteration));
        model = refit;
        layers.fit.push(sample(ms));
        layers.fits += 1;
        let done = train.len() >= config.n_max || pool.is_empty();
        if iteration.is_multiple_of(config.eval_every as u64) || done {
            let (snapshot, ms) = timed(|| {
                evaluate(
                    &model,
                    &train,
                    annotator.stats().wasted_cost,
                    tf,
                    tl,
                    &config.alphas,
                )
            });
            layers.eval.push(sample(ms));
            history.push(snapshot);
        }
        units.push(sample(ms_since(unit_start)));
    }
    let stats = *annotator.stats();
    layers.readings = stats.readings;
    let (hits, misses) = inputs.target.eval_cache().stats();
    layers.cache_hits = hits - hits_before;
    layers.cache_lookups = layers.cache_hits + misses - misses_before;
    let outcome = Outcome {
        units,
        labels: train.labels().to_vec(),
        history,
        annotations: stats.annotations,
        failed_annotations: stats.failed_annotations,
    };
    (outcome, layers)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_history(a: &[Snapshot], b: &[Snapshot]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.n_train == y.n_train
                && x.cumulative_cost.to_bits() == y.cumulative_cost.to_bits()
                && same_bits(&x.rmse, &y.rmse)
        })
}

fn mean_history_rmse(history: &[Snapshot], alpha_index: usize) -> f64 {
    history.iter().map(|s| s.rmse[alpha_index]).sum::<f64>() / history.len() as f64
}

fn relative_gap(exact: f64, fast: f64) -> f64 {
    (fast - exact) / exact.max(f64::EPSILON)
}

/// Each mode's mean-history RMSE in one run of DESIGN.md §14's equivalence
/// protocol on `target`: 160 distinct configurations, a fifth held out with
/// noise-free labels, PWU from 8 cold-start points in batches of 2 up to
/// 30, 16 trees, 3 repeats, RMSE at α = 0.05 every 5 iterations.
fn equivalence_rmse(target: &Kernel, seed: u64) -> Vec<f64> {
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, 100));
    let all = space.sample_distinct(160, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(128);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels: Vec<f64> = test_cfgs.iter().map(|c| target.ideal_time(c)).collect();
    let rmse = |fit_mode| {
        let config = ActiveConfig {
            n_init: 8,
            n_batch: 2,
            n_max: 30,
            forest: ForestConfig {
                n_trees: 16,
                fit_mode,
                ..ForestConfig::default()
            },
            eval_every: 5,
            alphas: vec![0.05],
            repeats: 3,
            ..ActiveConfig::default()
        };
        let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
        let run = active::run(
            target,
            STRATEGY,
            &config,
            pool,
            &test_features,
            &test_labels,
            seed,
        );
        mean_history_rmse(&run.history, 0)
    };
    MODES.iter().map(|&(_, fit_mode)| rmse(fit_mode)).collect()
}

/// Checks the fast engine against the exact one: the median, over
/// [`EQUIVALENCE_SEEDS`] runs of the §14 protocol with seeds derived from
/// `seed`, of the relative gap in mean-history RMSE must stay within §14's
/// bound. `own_gap` is the same gap in this run's paper-shape runs, shown
/// for information.
fn check_equivalence(report: &mut Report, pristine: &Kernel, seed: u64, own_gap: f64) {
    let target = pristine.clone();
    let mut gaps = Vec::new();
    for i in 0..EQUIVALENCE_SEEDS {
        if let [exact, fast] = equivalence_rmse(&target, derive_seed(seed, 200 + i))[..] {
            gaps.push(relative_gap(exact, fast));
        }
    }
    if gaps.is_empty() {
        return;
    }
    let typical = median(&gaps);
    report.check(
        "fast engine's median trajectory-RMSE gap to exact within the DESIGN.md 14 bound",
        typical.abs() <= EPS_MEAN,
        format!(
            "median relative gap {typical:+.4} over {} runs of the 14 protocol, bound {EPS_MEAN}; \
             this run's paper-shape gap {own_gap:+.4}",
            gaps.len()
        ),
    );
}

/// Runs the workload into `report`.
///
/// # Errors
/// Returns an error when the gesummv kernel is missing or a run cannot be
/// observed as expected; failed output checks are recorded on the report.
pub fn run(
    report: &mut Report,
    clock: &mut HostClock,
    scale: Scale,
    seed: u64,
    trace: bool,
) -> Result<(), String> {
    let shape = match scale {
        Scale::Full => Shape::paper(),
        Scale::Tiny => Shape::tiny(),
    };
    report.context("shape", format!("{shape:?}"));
    rayon::set_threads(1);
    report.context("pool_width", 1);
    report.context("state_fs", "none");
    let pristine = pwu_spapt::kernel_by_name("gesummv").ok_or("gesummv kernel is missing")?;
    let extra = shape.setups.saturating_sub(MODES.len());
    let mut setup_ms = Series::default();
    for _ in 0..extra / 2 {
        timed_setup(&pristine, &shape, seed, clock, &mut setup_ms);
    }
    let mut outcomes = Vec::new();
    for (mode_index, &(_, mode)) in MODES.iter().enumerate() {
        let inputs = timed_setup(&pristine, &shape, seed, clock, &mut setup_ms);
        let labelled = inputs.test_labels.len();
        report.count(
            "test label",
            labelled + inputs.failed_labels,
            inputs.failed_labels,
        );
        outcomes.push(untraced(
            inputs,
            &shape.config(mode),
            mode_index,
            seed,
            clock,
        )?);
    }
    for _ in 0..extra - extra / 2 {
        timed_setup(&pristine, &shape, seed, clock, &mut setup_ms);
    }
    report.setup(&setup_ms);
    let mut mean_rmse = Vec::new();
    let mut samples = Vec::new();
    for (&(mode_name, _), reference) in MODES.iter().zip(&outcomes) {
        report.count(
            "annotation",
            reference.annotations,
            reference.failed_annotations,
        );
        let iterations = shape.iterations();
        report.check(
            "observed iteration count equals n_max - n_init",
            reference.units.len() == iterations,
            format!(
                "{mode_name}: {} observed, {iterations} expected",
                reference.units.len()
            ),
        );
        mean_rmse.push(mean_history_rmse(&reference.history, ALPHA_05));
        samples.extend_from_slice(&reference.units);
    }
    report.units("iter_ms", &samples, shape.iterations());
    if let [exact, fast] = mean_rmse[..] {
        check_equivalence(report, &pristine, seed, relative_gap(exact, fast));
    }
    if trace {
        replay(report, clock, &pristine, &shape, seed, &outcomes, &samples);
    }
    Ok(())
}

/// The traced run's replays, one per mode, checked against the untraced
/// outcomes and reported as per-layer metrics.
fn replay(
    report: &mut Report,
    clock: &mut HostClock,
    pristine: &Kernel,
    shape: &Shape,
    seed: u64,
    outcomes: &[Outcome],
    untraced_units: &[Sample],
) {
    let n = shape.iterations();
    let mut annotate = Vec::new();
    let (mut unit_medians, mut replay_medians, mut layer_medians) = (vec![], vec![], vec![]);
    let (mut fits, mut rows_scored, mut readings, mut hits, mut lookups) = (0, 0, 0, 0, 0);
    for (mode, (&(mode_name, fit_mode), reference)) in MODES.iter().zip(outcomes).enumerate() {
        let config = shape.config(fit_mode);
        let (replayed, layers) = traced(setup(pristine, shape, seed), &config, mode, seed, clock);
        report.check(
            "traced replay reproduces labels and RMSE history",
            same_bits(&replayed.labels, &reference.labels)
                && same_history(&replayed.history, &reference.history),
            format!(
                "{mode_name}: {} labels, {} snapshots",
                replayed.labels.len(),
                replayed.history.len()
            ),
        );
        for band in 0..2 {
            unit_medians.push(band_series(untraced_units, mode, band, n).median());
            replay_medians.push(band_series(&replayed.units, mode, band, n).median());
            layer_medians.push(
                layers
                    .per_unit()
                    .iter()
                    .map(|calls| band_series(calls, mode, band, n).median())
                    .filter(|ms| ms.is_finite())
                    .sum::<f64>(),
            );
        }
        for (band, name) in ["early", "late"].into_iter().enumerate() {
            report.layer_timing(
                &format!("forest.fit_ms.{mode_name}.{name}"),
                "ms",
                band_series(&layers.fit, mode, band, n),
            );
        }
        report.layer_timing(
            &format!("forest.score_ms.{mode_name}"),
            "ms",
            all_series(&layers.score),
        );
        report.layer_timing(
            &format!("forest.eval_ms.{mode_name}"),
            "ms",
            all_series(&layers.eval),
        );
        report.layer_timing(
            &format!("core.select_ms.{mode_name}"),
            "ms",
            all_series(&layers.select),
        );
        annotate.extend_from_slice(&layers.annotate);
        fits += layers.fits;
        rows_scored += layers.rows_scored;
        readings += layers.readings;
        hits += layers.cache_hits;
        lookups += layers.cache_lookups;
    }
    report.layer_timing("measure.annotate_ms", "ms", all_series(&annotate));
    report.layer(
        "measure.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    let (unattributed, overhead) = attribution(&unit_medians, &replay_medians, &layer_medians);
    report.layer("unattributed_pct", unattributed);
    report.layer("trace.overhead_pct", overhead);
    report.layer("forest.fits", fits as f64);
    report.layer("forest.rows_scored", rows_scored as f64);
    report.layer("measure.readings", readings as f64);
}
