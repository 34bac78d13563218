//! Memoized vs. direct measurement must be bit-identical.
//!
//! The evaluation cache (`pwu_spapt::EvalCache`) memoizes the base cost, the
//! pure, RNG-free half of measurement; `pwu_spapt::Uncached` is the same
//! kernel with every call re-deriving the base cost from scratch (the
//! pre-cache implementation). This suite drives both through identical
//! measurement schedules — every kernel in the 18-problem SPAPT suite,
//! random configurations, every fault preset, retry/quarantine paths
//! included — and demands the same `f64` bits, the same RNG stream
//! position, and the same measurement tallies.

use pwu_core::{Annotator, RetryPolicy};
use pwu_space::{Configuration, TuningTarget};
use pwu_spapt::{all_kernels, extended_kernels, kernel_by_name, FaultModel, Kernel, Uncached};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

/// The fault presets the measurement engine distinguishes: no model
/// attached, an attached-but-disabled model (must behave exactly like no
/// model), light transient faults, and the stress preset with a timeout —
/// the latter two exercise retry and quarantine.
fn fault_presets(seed: u64) -> Vec<(&'static str, Option<FaultModel>)> {
    vec![
        ("unattached", None),
        ("disabled", Some(FaultModel::none())),
        ("light", Some(FaultModel::light(derive_seed(seed, 1)))),
        (
            "stress+timeout",
            Some(FaultModel::stress(derive_seed(seed, 2)).with_timeout(2.0)),
        ),
    ]
}

fn with_preset(kernel: &Kernel, preset: &Option<FaultModel>) -> Kernel {
    match preset {
        None => kernel.clone(),
        Some(fm) => kernel.clone().with_faults(fm.clone()),
    }
}

/// Annotates `cfgs` on `target`, returning the per-configuration outcomes
/// (label bits or failure), the final RNG state, and the final tallies.
fn annotate_all(
    target: &dyn TuningTarget,
    cfgs: &[Configuration],
    repeats: usize,
    seed: u64,
) -> (Vec<Result<u64, String>>, [u64; 4], String) {
    let mut annotator = Annotator::new(target, repeats, seed).with_retry_policy(RetryPolicy {
        max_retries: 3,
        backoff_cost: 0.25,
    });
    let outcomes = cfgs
        .iter()
        .map(|cfg| {
            annotator
                .try_evaluate(cfg)
                .map(f64::to_bits)
                .map_err(|e| format!("{e:?}"))
        })
        .collect();
    (
        outcomes,
        annotator.rng_state(),
        format!("{:?}", annotator.stats()),
    )
}

#[test]
fn memoized_annotation_is_bit_identical_across_all_kernels_and_presets() {
    let mut failures_seen = 0usize;
    for (ki, kernel) in all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .enumerate()
    {
        let seed = derive_seed(0xE0_CAC4E, ki as u64);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let cfgs = kernel.space().sample_distinct(3, &mut rng);
        for (label, preset) in fault_presets(seed) {
            let cached = with_preset(&kernel, &preset);
            let direct = Uncached(with_preset(&kernel, &preset));
            let ann_seed = derive_seed(seed, 7);
            let (a, rng_a, stats_a) = annotate_all(&cached, &cfgs, 9, ann_seed);
            let (b, rng_b, stats_b) = annotate_all(&direct, &cfgs, 9, ann_seed);
            assert_eq!(
                a,
                b,
                "{}/{label}: labels or failures diverged",
                kernel.name()
            );
            assert_eq!(
                rng_a,
                rng_b,
                "{}/{label}: RNG stream position diverged",
                kernel.name()
            );
            assert_eq!(
                stats_a,
                stats_b,
                "{}/{label}: measurement tallies diverged",
                kernel.name()
            );
            failures_seen += a.iter().filter(|r| r.is_err()).count();
        }
    }
    // The stress preset must actually have pushed some annotations through
    // the retry/quarantine path, or the equivalence above proved nothing
    // about it.
    assert!(
        failures_seen > 0,
        "no annotation failed: the fault paths were not exercised"
    );
}

#[test]
fn every_measurement_entry_point_matches_the_uncached_path() {
    let kernel = kernel_by_name("gesummv").expect("gesummv exists");
    let kernel = kernel.with_faults(FaultModel::light(0xFEED));
    let direct = Uncached(kernel.clone());
    let mut rng = Xoshiro256PlusPlus::new(31);
    let cfgs = kernel.space().sample_distinct(8, &mut rng);
    let mut rng_a = Xoshiro256PlusPlus::new(99);
    let mut rng_b = Xoshiro256PlusPlus::new(99);
    for cfg in &cfgs {
        assert_eq!(
            kernel.ideal_time(cfg).to_bits(),
            direct.ideal_time(cfg).to_bits()
        );
        // Hitting the cache a second time replays the same bits.
        assert_eq!(
            kernel.ideal_time(cfg).to_bits(),
            direct.ideal_time(cfg).to_bits()
        );
        assert_eq!(kernel.lint_config(cfg), direct.lint_config(cfg));
        assert_eq!(
            kernel.measure(cfg, &mut rng_a).to_bits(),
            direct.measure(cfg, &mut rng_b).to_bits()
        );
        assert_eq!(
            format!("{:?}", kernel.try_measure(cfg, &mut rng_a)),
            format!("{:?}", direct.try_measure(cfg, &mut rng_b))
        );
        assert_eq!(
            kernel.measure_averaged(cfg, 35, &mut rng_a).to_bits(),
            direct.measure_averaged(cfg, 35, &mut rng_b).to_bits()
        );
        // The two streams must stay in lock-step the whole way.
        assert_eq!(rng_a.state(), rng_b.state());
    }
}

#[test]
fn cache_counters_show_one_model_evaluation_per_35_repeats() {
    let kernel = kernel_by_name("mm").expect("mm exists");
    let mut rng = Xoshiro256PlusPlus::new(5);
    let cfg = kernel.space().sample(&mut rng);
    let mut annotator = Annotator::new(&kernel, 35, 11);
    let _ = annotator.evaluate(&cfg);
    let (hits, misses) = kernel.eval_cache().stats();
    assert_eq!(misses, 1, "the base cost must be computed exactly once");
    assert_eq!(hits, 34, "the other 34 repeats must replay the memo");
    assert_eq!(kernel.eval_cache().len(), 1);

    // A clone starts cold: the memo is an optimization, never state.
    let clone = kernel.clone();
    assert!(clone.eval_cache().is_empty());
    assert_eq!(clone.eval_cache().stats(), (0, 0));

    // Linting comes straight from the evaluator's tables: it neither looks
    // the memo up nor fills it. The first base cost is then one miss and
    // the second one hit.
    let _ = clone.lint_config(&cfg);
    let _ = clone.is_aggressive(&cfg);
    assert!(clone.eval_cache().is_empty(), "linting filled the memo");
    assert_eq!(clone.eval_cache().stats(), (0, 0), "linting read the memo");
    let _ = clone.ideal_time(&cfg);
    assert_eq!(clone.eval_cache().stats(), (0, 1));
    let _ = clone.ideal_time(&cfg);
    assert_eq!(clone.eval_cache().stats(), (1, 1));
    assert_eq!(clone.eval_cache().len(), 1);
}

#[test]
fn builders_that_change_the_surface_discard_the_memo() {
    let kernel = kernel_by_name("atax").expect("atax exists");
    let mut rng = Xoshiro256PlusPlus::new(17);
    let cfg = kernel.space().sample(&mut rng);
    let on_a = kernel.ideal_time(&cfg);
    assert_eq!(kernel.eval_cache().len(), 1);
    let moved = kernel.with_machine(pwu_spapt::MachineModel::platform_b());
    assert!(
        moved.eval_cache().is_empty(),
        "with_machine must clear the memo"
    );
    let on_b = moved.ideal_time(&cfg);
    assert_ne!(
        on_a.to_bits(),
        on_b.to_bits(),
        "platform B must actually price the kernel differently"
    );
    assert_eq!(
        on_b.to_bits(),
        Uncached(moved.clone()).ideal_time(&cfg).to_bits(),
        "post-clear evaluations must match the uncached path on the new machine"
    );
}
