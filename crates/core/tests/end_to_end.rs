//! End-to-end active learning on the real simulated benchmarks.

use std::sync::atomic::{AtomicUsize, Ordering};

use pwu_core::experiment::run_experiment;
use pwu_core::{ActiveConfig, ActiveLoop, EliteTest, Protocol, Strategy};
use pwu_forest::ForestConfig;
use pwu_space::{
    ConfigLegality, Configuration, FeatureSchema, MeasureOutcome, ParamSpace, Pool, PoolLintCounts,
    TuningTarget,
};
use pwu_spapt::{kernel_by_name, BlockLegality, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

fn tiny_protocol(alpha: f64) -> Protocol {
    Protocol {
        surrogate_size: 500,
        pool_size: 380,
        active: ActiveConfig {
            n_init: 10,
            n_batch: 1,
            n_max: 70,
            forest: ForestConfig {
                n_trees: 24,
                ..ForestConfig::default()
            },
            eval_every: 10,
            alphas: vec![alpha],
            repeats: 3,
            ..ActiveConfig::default()
        },
        n_reps: 2,
    }
}

#[test]
fn full_loop_on_a_spapt_kernel() {
    let kernel = kernel_by_name("gesummv").expect("gesummv exists");
    let strategies = [
        Strategy::Pwu { alpha: 0.05 },
        Strategy::Pbus { fraction: 0.10 },
        Strategy::Uniform,
    ];
    let result = run_experiment(&kernel, &strategies, &tiny_protocol(0.05), 42);
    assert_eq!(result.target, "gesummv");
    assert_eq!(result.curves.len(), 3);
    for curve in &result.curves {
        // Learning happened and produced finite, positive costs.
        assert!(curve.rmse[0].iter().all(|r| r.is_finite() && *r >= 0.0));
        assert!(curve.cumulative_cost.iter().all(|c| *c > 0.0));
        // Final model ends with the full budget.
        assert_eq!(*curve.n_train.last().unwrap(), 70);
        // Fig 9 support: scatter and selection traces populated.
        assert!(!curve.test_scatter.is_empty());
        assert_eq!(curve.selections.len(), 60);
        assert!(curve
            .selections
            .iter()
            .all(|s| s.mean > 0.0 && s.std >= 0.0 && s.observed > 0.0));
    }
}

#[test]
fn full_loop_on_the_applications() {
    for target in [
        Box::new(pwu_apps::Kripke::new()) as Box<dyn TuningTarget>,
        Box::new(pwu_apps::Hypre::new()) as Box<dyn TuningTarget>,
    ] {
        // Application spaces are small (2304 / 3024 points); shrink the
        // surrogate accordingly.
        let protocol = Protocol {
            surrogate_size: 700,
            pool_size: 520,
            ..tiny_protocol(0.05)
        };
        let result = run_experiment(
            target.as_ref(),
            &[
                Strategy::Pwu { alpha: 0.05 },
                Strategy::Brs { fraction: 0.1 },
            ],
            &protocol,
            7,
        );
        for curve in &result.curves {
            assert!(curve.rmse[0].iter().all(|r| r.is_finite()));
            let first = curve.rmse[0][0];
            let last = *curve.rmse[0].last().unwrap();
            assert!(
                last <= first * 1.5,
                "{}: RMSE blew up {first} → {last}",
                target.name()
            );
        }
    }
}

#[test]
fn pwu_beats_uniform_on_elite_accuracy_for_fixed_budget() {
    // The paper's headline claim, verified in miniature with averaging:
    // for a fixed sample budget, PWU's elite RMSE is at or below Uniform's.
    let kernel = kernel_by_name("atax").expect("atax exists");
    let mut protocol = tiny_protocol(0.05);
    protocol.n_reps = 3;
    protocol.active.n_max = 90;
    let result = run_experiment(
        &kernel,
        &[Strategy::Pwu { alpha: 0.05 }, Strategy::Uniform],
        &protocol,
        1234,
    );
    let pwu = result.curve("PWU").unwrap();
    let uniform = result.curve("Uniform").unwrap();
    let pwu_final = *pwu.rmse[0].last().unwrap();
    let uniform_final = *uniform.rmse[0].last().unwrap();
    assert!(
        pwu_final <= uniform_final * 1.25,
        "PWU {pwu_final} should not lose badly to Uniform {uniform_final}"
    );
}

/// A SPAPT kernel that counts its `lint_config` calls.
struct CountingLint {
    kernel: Kernel,
    lints: AtomicUsize,
}

impl TuningTarget for CountingLint {
    fn name(&self) -> &str {
        self.kernel.name()
    }
    fn space(&self) -> &ParamSpace {
        self.kernel.space()
    }
    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.kernel.ideal_time(cfg)
    }
    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.kernel.measure(cfg, rng)
    }
    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        self.kernel.try_measure(cfg, rng)
    }
    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.lints.fetch_add(1, Ordering::Relaxed);
        self.kernel.lint_config(cfg)
    }
}

/// The cold start lints each pool configuration once, counts the verdicts
/// as it filters the pool, and never lets an illegal point reach the
/// training set. mm's one block may not be scalar-replaced (illegal) and
/// vectorizes only with a finding (flagged), so the pool holds all three
/// verdicts.
#[test]
fn the_cold_start_lints_each_pool_configuration_once() {
    let base = kernel_by_name("mm").expect("mm exists");
    let masks = base
        .blocks()
        .iter()
        .map(|b| BlockLegality {
            scalar_replace_ok: false,
            vectorize_clean: false,
            ..BlockLegality::permissive(b.nest.depth())
        })
        .collect();
    let target = CountingLint {
        kernel: base.with_legality(masks),
        lints: AtomicUsize::new(0),
    };
    let mut rng = Xoshiro256PlusPlus::new(0x11A7);
    let all = target.space().sample_distinct(260, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(200);
    let want = PoolLintCounts::tally(&target.kernel, pool_cfgs);
    assert!(
        want.legal > 0 && want.flagged > 0 && want.illegal > 0,
        "the pool must hold every verdict: {want:?}"
    );

    let config = ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: 20,
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        eval_every: 4,
        alphas: vec![0.05],
        repeats: 2,
        ..ActiveConfig::default()
    };
    let schema = FeatureSchema::for_space(target.space());
    let test_features = schema.encode_matrix(target.space(), test_cfgs);
    let test_labels: Vec<f64> = test_cfgs
        .iter()
        .map(|c| target.kernel.ideal_time(c))
        .collect();
    let elite = EliteTest::new(&test_features, &test_labels, &config.alphas);
    let pool = Pool::new(target.space(), &schema, pool_cfgs.to_vec());
    let mut active = ActiveLoop::new(&target, &config, pool, &elite, 9);
    assert_eq!(target.lints.load(Ordering::Relaxed), pool_cfgs.len());
    while !active.step(Strategy::Pwu { alpha: 0.05 }) {}
    let run = active.into_run();
    assert_eq!(run.lint, want);
    assert_eq!(run.train.len(), config.n_max);
    assert!(
        run.train
            .configs()
            .iter()
            .all(|c| target.kernel.lint_config(c) != ConfigLegality::Illegal),
        "an illegal configuration reached the training set"
    );
}
