//! The observability contract, enforced end-to-end (DESIGN.md §13).
//!
//! Three claims are tested against a full checkpointed tuning run:
//!
//! 1. The **deterministic trace export is byte-identical** across pool
//!    widths 1/2/4/8 and across perturbed deal orders — the fork/splice
//!    protocol makes the recorded event stream schedule-invariant, and the
//!    deterministic-plane metric totals are commutative sums.
//! 2. **Tracing is observation only**: a run with the tracer enabled
//!    produces bit-identical trajectories and byte-identical checkpoint
//!    files to the same run with the tracer disabled.
//! 3. The **wall-clock sidecar never leaks into persisted state**: with
//!    the sidecar armed, checkpoint bytes are still identical and carry no
//!    trace artifacts, and the checkpoint text round-trips exactly.
//!
//! A fourth test reads the trace to pin where the loop fits its forest.
//!
//! Tracer, registry and pool width are process globals, so every test in
//! this binary serializes on one lock.

use std::sync::{Mutex, MutexGuard};

use pwu_core::{
    active, ActiveConfig, ActiveLoop, ActiveRun, CheckpointPolicy, EliteTest, Strategy,
};
use pwu_forest::{FitMode, ForestConfig, RandomForest};
use pwu_space::{Configuration, FeatureKind, FeatureMatrix, FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{kernel_by_name, FaultModel, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

/// Serializes tests against each other: they all mutate the global tracer,
/// the metrics registry and the pool width.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

fn fingerprint(run: &ActiveRun) -> [u64; 2] {
    [
        fnv1a(run.train.labels().iter().map(|y| y.to_bits())),
        fnv1a(
            run.history
                .iter()
                .flat_map(|s| s.rmse.iter().map(|r| r.to_bits())),
        ),
    ]
}

fn setup() -> (Kernel, Vec<Configuration>, FeatureMatrix, Vec<f64>) {
    let kernel = kernel_by_name("gesummv")
        .expect("kernel registered")
        .with_faults(FaultModel::light(0x0B5));
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(977);
    let all = space.sample_distinct(80, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(60);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    (kernel, pool_cfgs.to_vec(), test_features, test_labels)
}

fn config() -> ActiveConfig {
    ActiveConfig {
        n_init: 6,
        n_batch: 2,
        n_max: 14,
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        eval_every: 4,
        alphas: vec![0.05],
        repeats: 2,
        ..ActiveConfig::default()
    }
}

/// One checkpointed tuning run; returns `(trajectory fingerprint,
/// checkpoint file bytes)`. A fresh kernel clone per run keeps the eval
/// cache cold so memo warmth cannot mask a difference.
fn one_run(tag: &str) -> ([u64; 2], Vec<u8>) {
    let (kernel, pool_cfgs, test_features, test_labels) = setup();
    let schema = FeatureSchema::for_space(kernel.space());
    let path = std::env::temp_dir().join(format!(
        "pwu-obs-det-{}-{tag}.ckpt",
        std::process::id()
    ));
    let policy = CheckpointPolicy::new(&path, 2);
    let target = kernel.clone();
    let pool = Pool::new(target.space(), &schema, pool_cfgs.clone());
    let run = active::run_with_checkpoints(
        &target,
        Strategy::Pwu { alpha: 0.05 },
        &config(),
        pool,
        &test_features,
        &test_labels,
        4242,
        &policy,
    )
    .expect("checkpointed run must succeed");
    let bytes = std::fs::read(&path).expect("a checkpoint must have been written");
    let _ = std::fs::remove_file(&path);
    (fingerprint(&run), bytes)
}

/// Claim 1: identical deterministic-plane export bytes at every width and
/// under every deal-order perturbation the sanitizer can apply.
#[test]
fn deterministic_trace_is_byte_identical_across_widths_and_deal_orders() {
    let _guard = obs_lock();
    use rayon::sanitize::{self, DealMode};
    let width_before = rayon::current_num_threads();

    // Widths under the production deal, then deal perturbations at width 4.
    let schedules: [(usize, DealMode); 7] = [
        (1, DealMode::RoundRobin),
        (2, DealMode::RoundRobin),
        (4, DealMode::RoundRobin),
        (8, DealMode::RoundRobin),
        (4, DealMode::Blocked),
        (4, DealMode::Reversed),
        (4, DealMode::Shuffled(0xDEA1)),
    ];
    let mut reference: Option<String> = None;
    for (width, deal) in schedules {
        rayon::set_threads(width);
        sanitize::set_deal_mode(deal);
        pwu_obs::reset_metrics();
        pwu_obs::clear();
        pwu_obs::enable();
        let _ = one_run("trace");
        pwu_obs::disable();
        let export = pwu_obs::drain().deterministic_jsonl();
        for name in [
            "core.iteration",
            "pool.batch",
            "checkpoint.encode",
            "checkpoint.save",
        ] {
            assert!(
                export.contains(&format!("\"name\":\"{name}\"")),
                "trace must actually cover the run: no {name}"
            );
        }
        match &reference {
            None => reference = Some(export),
            Some(expected) => assert_eq!(
                *expected, export,
                "deterministic export drifted at width {width}, deal {deal:?}"
            ),
        }
    }
    sanitize::set_deal_mode(DealMode::RoundRobin);
    rayon::set_threads(width_before);
}

/// Claims 2 and 3: tracing on (sidecar armed) changes nothing the run
/// persists or returns, and no sidecar field reaches the checkpoint.
#[test]
fn tracing_and_sidecar_never_touch_trajectories_or_checkpoints() {
    let _guard = obs_lock();
    pwu_obs::disable();
    pwu_obs::clear();
    let (fp_off, bytes_off) = one_run("off");

    // Tracing on, sidecar armed: real `Instant` readings ride every event
    // — and must still be invisible here.
    pwu_obs::reset_metrics();
    pwu_obs::clear();
    pwu_obs::set_wallclock(true);
    pwu_obs::enable();
    let (fp_on, bytes_on) = one_run("on");
    pwu_obs::disable();
    pwu_obs::set_wallclock(false);
    let trace = pwu_obs::drain();
    assert!(!trace.is_empty(), "the traced run must record events");

    assert_eq!(fp_off, fp_on, "tracing changed the trajectory");
    assert_eq!(bytes_off, bytes_on, "tracing changed checkpoint bytes");

    // The sidecar lives only in trace exports: the persisted checkpoint
    // has no wall-clock artifacts, and its text round-trips exactly.
    let text = String::from_utf8(bytes_on).expect("checkpoints are text");
    assert!(!text.contains("wall_ns"), "sidecar leaked into a checkpoint");
    let checkpoint = pwu_core::ActiveCheckpoint::from_text(&text).expect("checkpoint parses");
    assert_eq!(
        pwu_core::with_integrity_footer(&checkpoint.to_text()),
        text,
        "checkpoint must round-trip"
    );

    // And with the sidecar armed, the full export carries timestamps while
    // the deterministic export stays clean of them.
    assert!(trace.full_jsonl().contains("wall_ns"));
    assert!(!trace.deterministic_jsonl().contains("wall_ns"));
}

/// Every predict/score span carries the fit-mode tag — `mode=exact` or
/// `mode=fast`, straight from [`FitMode::token`] — so a trace shows which
/// fold served each batch, and the `pwu-trace summarize` parser still
/// aggregates the tagged spans.
#[test]
fn predict_and_rescore_spans_carry_the_kernel_mode() {
    let _guard = obs_lock();
    for fit_mode in [FitMode::Exact, FitMode::Fast] {
        let want = fit_mode.token();
        let (kernel, pool_cfgs, test_features, test_labels) = setup();
        let schema = FeatureSchema::for_space(kernel.space());
        let pool = Pool::new(kernel.space(), &schema, pool_cfgs);
        let mut cfg = config();
        cfg.forest.fit_mode = fit_mode;
        pwu_obs::reset_metrics();
        pwu_obs::clear();
        pwu_obs::enable();
        let _ = active::run(
            &kernel,
            Strategy::Pwu { alpha: 0.05 },
            &cfg,
            pool,
            &test_features,
            &test_labels,
            99,
        );
        // Per-tree column scoring (`predict_columns`) must be tagged too.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i % 7), f64::from(i % 5)])
            .collect();
        let fx = FeatureMatrix::from_rows(2, &rows);
        let fy: Vec<f64> = rows.iter().map(|r| r[0] - r[1]).collect();
        let forest = RandomForest::fit(&cfg.forest, &[FeatureKind::Numeric; 2], &fx, &fy, 5);
        let _ = forest.predict_columns(&fx, &[0, 1]);
        pwu_obs::disable();
        let export = pwu_obs::drain().deterministic_jsonl();

        let scoring_opens: Vec<&str> = export
            .lines()
            .filter(|l| {
                l.contains("\"ph\":\"B\"")
                    && ["forest.predict_batch", "forest.predict_columns", "core.rescore"]
                        .iter()
                        .any(|n| l.contains(&format!("\"name\":\"{n}\"")))
            })
            .collect();
        for name in ["forest.predict_batch", "forest.predict_columns", "core.rescore"] {
            assert!(
                scoring_opens.iter().any(|l| l.contains(name)),
                "{fit_mode:?}: trace never recorded a {name} span"
            );
        }
        for line in &scoring_opens {
            assert!(
                line.contains(&format!("\"mode\":\"{want}\"")),
                "{fit_mode:?}: span not tagged mode={want}: {line}"
            );
        }
        let summary = pwu_obs::summarize(&export).expect("deterministic export must summarize");
        for name in ["forest.predict_batch", "forest.predict_columns", "core.rescore"] {
            assert!(
                summary.get(name).is_some_and(|s| s.count > 0),
                "{fit_mode:?}: summarize dropped the tagged {name} spans"
            );
        }
    }
}

/// Runs `f` with the tracer on and returns its deterministic export.
fn traced(f: impl FnOnce()) -> String {
    pwu_obs::reset_metrics();
    pwu_obs::clear();
    pwu_obs::enable();
    f();
    pwu_obs::disable();
    pwu_obs::drain().deterministic_jsonl()
}

/// The `"key":"value"` string field of one export line.
fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    line[start..].split('"').next()
}

/// The number of forest fits in a deterministic export. Every fit must run
/// inside a `core.refit` span, which counts the fits, and outside
/// `core.rescore` and `core.eval`, so those spans time scoring and
/// evaluation alone.
fn fits(export: &str) -> u64 {
    let mut open: Vec<&str> = Vec::new();
    for line in export.lines().skip(1) {
        let (Some(ph), Some(name)) = (field(line, "ph"), field(line, "name")) else {
            continue;
        };
        match ph {
            "B" => {
                if name == "forest.fit" {
                    assert!(
                        open.contains(&"core.refit"),
                        "a fit ran outside core.refit: {open:?}"
                    );
                    assert!(
                        !open
                            .iter()
                            .any(|n| *n == "core.rescore" || *n == "core.eval"),
                        "a fit ran inside a scoring or evaluation span: {open:?}"
                    );
                }
                open.push(name);
            }
            "E" => assert_eq!(open.pop(), Some(name), "unbalanced span end"),
            _ => {}
        }
    }
    let summary = pwu_obs::summarize(export).expect("deterministic export must summarize");
    let count = |name| summary.get(name).map_or(0, |s| s.count);
    assert_eq!(
        count("core.refit"),
        count("forest.fit"),
        "core.refit must open exactly where a fit runs"
    );
    count("forest.fit")
}

/// A refit only marks the from-scratch model stale, and the model is fitted
/// where it is read (DESIGN.md §8). A served step — restore, step,
/// checkpoint — fits once to score the pool, and once more when a snapshot
/// is due; stepping a finished checkpoint fits nothing. A batch run still
/// fits once for the cold start and once per iteration.
#[test]
fn a_served_step_fits_where_the_model_is_read() {
    let _guard = obs_lock();
    let (kernel, pool_cfgs, test_features, test_labels) = setup();
    let schema = FeatureSchema::for_space(kernel.space());
    let strategy = Strategy::Pwu { alpha: 0.05 };
    let mut cfg = config();
    cfg.eval_every = 2;
    let elite = EliteTest::new(&test_features, &test_labels, &cfg.alphas);

    let pool = Pool::new(kernel.space(), &schema, pool_cfgs.clone());
    let mut checkpoint = None;
    let export = traced(|| {
        checkpoint = Some(ActiveLoop::new(&kernel, &cfg, pool, &elite, 31).checkpoint());
    });
    assert_eq!(
        fits(&export),
        1,
        "the cold start fits once, for its snapshot"
    );
    let mut checkpoint = checkpoint.expect("the cold start ran");

    let mut done = false;
    while !done {
        let export = traced(|| {
            let mut active = ActiveLoop::from_checkpoint(&kernel, &cfg, &checkpoint, &elite)
                .expect("own checkpoint restores");
            done = active.step(strategy);
            checkpoint = active.checkpoint();
        });
        let snapshot = checkpoint.iteration % cfg.eval_every as u64 == 0 || done;
        assert_eq!(
            fits(&export),
            1 + u64::from(snapshot),
            "iteration {} (snapshot due: {snapshot})",
            checkpoint.iteration
        );
    }
    assert_eq!(checkpoint.iteration, 4, "the chain takes four steps");

    let export = traced(|| {
        let mut active = ActiveLoop::from_checkpoint(&kernel, &cfg, &checkpoint, &elite)
            .expect("own checkpoint restores");
        assert!(active.step(strategy), "the run is finished");
        assert_eq!(
            active.checkpoint(),
            checkpoint,
            "a finished step changes nothing"
        );
    });
    assert_eq!(
        fits(&export),
        0,
        "stepping a finished checkpoint fits nothing"
    );

    let pool = Pool::new(kernel.space(), &schema, pool_cfgs);
    let mut run = None;
    let export = traced(|| {
        run = Some(active::run(
            &kernel,
            strategy,
            &cfg,
            pool,
            &test_features,
            &test_labels,
            31,
        ));
    });
    assert_eq!(fits(&export), 1 + checkpoint.iteration, "one fit per model");
    let run = run.expect("the batch run ran");
    assert_eq!(run.history, checkpoint.history, "served chain = batch run");
}
