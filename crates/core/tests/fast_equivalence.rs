//! Statistical-equivalence harness for the fast fit engine (DESIGN.md §14).
//!
//! `FitMode::Fast` is *not* bit-compatible with the exact engine — its
//! contract is statistical: trajectories learn equally well, best-config
//! quality matches, and every run is still a pure function of its seed.
//! These tests are that contract, over the SPAPT kernel grid *and* the two
//! Platform B application targets, kripke and hypre (`cargo xtask fast`
//! drives them).
//!
//! ε calibration (measured on the committed protocol):
//! per-seed trajectory-RMSE gaps on gesummv peaked at |0.46| with a mean of
//! +0.08; per-kernel best-config deltas peaked at |1.25| (fdtd, one seed)
//! with a mean of +0.02. The bounds below are ~2× those worst cases — loose
//! enough to survive engine tweaks that stay within the contract, tight
//! enough to catch a broken split search (which shows up as 2–10× RMSE
//! inflation, orders above ε).

use pwu_apps::{Hypre, Kripke};
use pwu_core::{active, ActiveConfig, ActiveRun, Strategy};
use pwu_forest::{FitMode, ForestConfig};
use pwu_space::{FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{all_kernels, extended_kernels, kernel_by_name, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

/// Seeds for the per-seed trajectory comparison (ISSUE floor: ≥ 20).
const TRAJECTORY_SEEDS: u64 = 20;

/// `ε_seed` — per-seed bound on `|rmse_fast − rmse_exact| / rmse_exact` at
/// the trajectory mean. Individual runs differ (the engines select
/// different points after the first tie-break divergence), so this is a
/// worst-case envelope, not a bias bound.
const EPS_SEED: f64 = 1.0;

/// `ε_mean` — bound on the *mean signed* relative RMSE gap across all seeds.
/// This is the bias bound: a systematically worse fast engine fails here
/// long before any single seed breaches `EPS_SEED`.
const EPS_MEAN: f64 = 0.25;

/// `ε_quality` — bound on the mean signed relative best-config regret gap
/// across the 18-kernel harness.
const EPS_QUALITY: f64 = 0.25;

/// Per-kernel bound on the relative best-config quality gap.
const EPS_QUALITY_KERNEL: f64 = 2.5;

/// Seeds per application target (kripke, hypre) in the Platform B
/// extension of the harness.
const APP_SEEDS: u64 = 6;

/// Per-target bound on the *mean signed* relative RMSE gap over
/// [`APP_SEEDS`] seeds. Measured: kripke mean −0.06
/// (worst seed |0.16|), hypre mean −0.07 (worst |0.35|) — the fast engine
/// actually runs slightly *ahead* on both application surfaces. The bound
/// is ~4× the worst observed |mean|; the per-seed envelope stays at
/// [`EPS_SEED`] because the heavy-tailed application surfaces make single
/// seeds noisier than the kernel grid while the bias stays small.
const EPS_APP_MEAN: f64 = 0.30;

/// The small protocol shared by every equivalence run: 8 cold-start points,
/// 2 per batch up to 30, a 16-tree forest, 3 repeats per annotation.
fn protocol(mode: FitMode) -> ActiveConfig {
    ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: 30,
        forest: ForestConfig {
            n_trees: 16,
            fit_mode: mode,
            ..ForestConfig::default()
        },
        eval_every: 5,
        alphas: vec![0.05],
        repeats: 3,
        ..ActiveConfig::default()
    }
}

/// Deals a pool/test split and runs one tuning session in the given mode.
fn run_mode(target: &dyn TuningTarget, mode: FitMode, seed: u64) -> ActiveRun {
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(0xE0_0000 + seed);
    #[allow(clippy::cast_possible_truncation)]
    let want = 160.min(space.cardinality() as usize);
    let all = space.sample_distinct(want, &mut rng);
    let n_test = want / 5;
    let (pool_cfgs, test_cfgs) = all.split_at(want - n_test);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels: Vec<f64> = test_cfgs.iter().map(|c| target.ideal_time(c)).collect();
    let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
    active::run(
        target,
        Strategy::Pwu { alpha: 0.05 },
        &protocol(mode),
        pool,
        &test_features,
        &test_labels,
        seed,
    )
}

/// Trajectory RMSE at α = 0.05: the mean over every evaluation snapshot.
/// Averaging over the trajectory (instead of reading only the final point)
/// damps the per-snapshot noise of a 30-point protocol, so the per-seed
/// cross-engine gap measures the engines, not one snapshot's luck.
fn trajectory_rmse(run: &ActiveRun) -> f64 {
    let snaps = &run.history;
    assert!(!snaps.is_empty(), "non-empty history");
    snaps.iter().map(|s| s.rmse[0]).sum::<f64>() / snaps.len() as f64
}

/// The full 18-problem SPAPT harness: the paper's 12 kernels plus the 6
/// extended search problems.
fn harness_18() -> Vec<Kernel> {
    let mut k = all_kernels();
    k.extend(extended_kernels());
    k
}

/// The ideal time of the training point with the best *measured* label —
/// the configuration the tuner would hand back to the user.
fn best_config_quality(target: &dyn TuningTarget, run: &ActiveRun) -> f64 {
    let (best, _) = run
        .train
        .configs()
        .iter()
        .zip(run.train.labels())
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty training set");
    target.ideal_time(best)
}

/// FNV-1a over the bit patterns of a trajectory's labels + RMSE history,
/// for the bitwise determinism checks.
fn trajectory_fingerprint(run: &ActiveRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = run
        .train
        .labels()
        .iter()
        .map(|y| y.to_bits())
        .chain(
            run.history
                .iter()
                .flat_map(|s| s.rmse.iter().map(|r| r.to_bits())),
        )
        .chain(
            run.selections
                .iter()
                .flat_map(|s| [s.mean.to_bits(), s.std.to_bits(), s.observed.to_bits()]),
        );
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Trajectory RMSE equivalence over ≥ 20 seeds on a fixed kernel: the fast
/// engine's learned-model error must match the exact engine's within ε,
/// per seed and (much tighter) in expectation.
#[test]
fn fast_trajectories_match_exact_rmse_within_epsilon() {
    let kernel = kernel_by_name("gesummv").expect("kernel registered");
    let mut gaps = Vec::with_capacity(TRAJECTORY_SEEDS as usize);
    for seed in 0..TRAJECTORY_SEEDS {
        let exact = run_mode(&kernel, FitMode::Exact, seed);
        let fast = run_mode(&kernel, FitMode::Fast, seed);
        let (re, rf) = (trajectory_rmse(&exact), trajectory_rmse(&fast));
        assert!(re.is_finite() && rf.is_finite());
        let gap = (rf - re) / re.max(f64::EPSILON);
        eprintln!("seed {seed}: exact {re:.4} fast {rf:.4} gap {gap:+.4}");
        assert!(
            gap.abs() <= EPS_SEED,
            "seed {seed}: relative RMSE gap {gap:+.3} exceeds ε_seed {EPS_SEED} \
             (exact {re:.4}, fast {rf:.4})"
        );
        gaps.push(gap);
    }
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let worst = gaps.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    eprintln!("trajectory gaps: mean {mean:+.4}, worst |gap| {worst:.4}");
    assert!(
        mean.abs() <= EPS_MEAN,
        "systematic RMSE bias {mean:+.4} exceeds ε_mean {EPS_MEAN}"
    );
}

/// Best-config quality over the full 18-kernel harness: on every SPAPT
/// kernel, tuning with the fast engine must land on configurations as good
/// as the exact engine's, within ε on average.
#[test]
fn fast_best_config_quality_matches_exact_across_all_kernels() {
    let kernels = harness_18();
    assert!(
        kernels.len() >= 18,
        "harness must cover the 18-kernel suite"
    );
    let mut deltas = Vec::with_capacity(kernels.len());
    for (i, kernel) in kernels.iter().enumerate() {
        let seed = 900 + i as u64;
        let exact = run_mode(kernel, FitMode::Exact, seed);
        let fast = run_mode(kernel, FitMode::Fast, seed);
        let (qe, qf) = (
            best_config_quality(kernel, &exact),
            best_config_quality(kernel, &fast),
        );
        let delta = (qf - qe) / qe.max(f64::EPSILON);
        assert!(
            delta.abs() <= EPS_QUALITY_KERNEL,
            "{}: best-config quality gap {delta:+.3} exceeds {EPS_QUALITY_KERNEL} \
             (exact {qe:.4}, fast {qf:.4})",
            kernel.name()
        );
        eprintln!(
            "{}: exact {qe:.4} fast {qf:.4} delta {delta:+.4}",
            kernel.name()
        );
        deltas.push(delta);
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let worst = deltas.iter().fold(0.0f64, |m, d| m.max(d.abs()));
    eprintln!(
        "best-config deltas over {} kernels: mean {mean:+.4}, worst |Δ| {worst:.4}",
        deltas.len()
    );
    assert!(
        mean.abs() <= EPS_QUALITY,
        "systematic best-config bias {mean:+.4} exceeds ε_quality {EPS_QUALITY}"
    );
}

/// Fast trajectories are still a pure function of the seed: re-running the
/// same seed reproduces every label, RMSE, and selection trace bitwise, and
/// the `PWU_THREADS` width never leaks into the result.
#[test]
fn fast_trajectories_are_deterministic_and_width_invariant() {
    let kernel = kernel_by_name("atax").expect("kernel registered");
    for seed in [3u64, 11] {
        let base = trajectory_fingerprint(&run_mode(&kernel, FitMode::Fast, seed));
        let again = trajectory_fingerprint(&run_mode(&kernel, FitMode::Fast, seed));
        assert_eq!(base, again, "seed {seed}: fast run is not replayable");
        for width in [2usize, 4] {
            let before = rayon::current_num_threads();
            rayon::set_threads(width);
            let wide = trajectory_fingerprint(&run_mode(&kernel, FitMode::Fast, seed));
            rayon::set_threads(before);
            assert_eq!(
                base, wide,
                "seed {seed}: width {width} changed the fast trajectory"
            );
        }
    }
}

/// The harness itself must exercise a genuinely different engine: at least
/// one seed's fast trajectory must differ bitwise from its exact twin (they
/// are allowed — expected — to diverge), else the suite is vacuous.
#[test]
fn fast_and_exact_trajectories_differ() {
    let kernel = kernel_by_name("gesummv").expect("kernel registered");
    let any_diff = (0..3u64).any(|seed| {
        trajectory_fingerprint(&run_mode(&kernel, FitMode::Exact, seed))
            != trajectory_fingerprint(&run_mode(&kernel, FitMode::Fast, seed))
    });
    assert!(
        any_diff,
        "fast engine never diverged from exact — the fast path is not being taken"
    );
}

/// Platform B extension: the statistical-equivalence contract must also
/// hold on the two *application* targets (kripke's KBA sweep model and
/// hypre's AMG/Krylov model), whose response surfaces — categorical
/// dominance, divergent heavy tails — stress the fast engine differently
/// than the SPAPT kernel grid. Per-seed trajectory-RMSE gaps stay inside
/// [`EPS_SEED`], the per-target bias inside [`EPS_APP_MEAN`], and every
/// best-config quality gap inside [`EPS_QUALITY_KERNEL`].
#[test]
fn fast_equivalence_holds_on_application_targets() {
    let kripke = Kripke::new();
    let hypre = Hypre::new();
    let targets: [&dyn TuningTarget; 2] = [&kripke, &hypre];
    for target in targets {
        let mut gaps = Vec::with_capacity(APP_SEEDS as usize);
        for seed in 0..APP_SEEDS {
            let exact = run_mode(target, FitMode::Exact, seed);
            let fast = run_mode(target, FitMode::Fast, seed);
            let (re, rf) = (trajectory_rmse(&exact), trajectory_rmse(&fast));
            assert!(re.is_finite() && rf.is_finite());
            let gap = (rf - re) / re.max(f64::EPSILON);
            assert!(
                gap.abs() <= EPS_SEED,
                "{} seed {seed}: relative RMSE gap {gap:+.3} exceeds ε_seed {EPS_SEED} \
                 (exact {re:.4}, fast {rf:.4})",
                target.name()
            );
            gaps.push(gap);
            let (qe, qf) = (
                best_config_quality(target, &exact),
                best_config_quality(target, &fast),
            );
            let delta = (qf - qe) / qe.max(f64::EPSILON);
            assert!(
                delta.abs() <= EPS_QUALITY_KERNEL,
                "{} seed {seed}: best-config quality gap {delta:+.3} exceeds \
                 {EPS_QUALITY_KERNEL} (exact {qe:.4}, fast {qf:.4})",
                target.name()
            );
            eprintln!(
                "{} seed {seed}: rmse gap {gap:+.4}, quality delta {delta:+.4}",
                target.name()
            );
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        eprintln!("{}: mean rmse gap {mean:+.4}", target.name());
        assert!(
            mean.abs() <= EPS_APP_MEAN,
            "{}: systematic RMSE bias {mean:+.4} exceeds ε_app {EPS_APP_MEAN}",
            target.name()
        );
    }
}

/// Fast trajectories on the application targets are still a pure function
/// of the seed, byte-identical across pool widths.
#[test]
fn fast_application_trajectories_are_deterministic_and_width_invariant() {
    let kripke = Kripke::new();
    let hypre = Hypre::new();
    let targets: [&dyn TuningTarget; 2] = [&kripke, &hypre];
    for (i, target) in targets.into_iter().enumerate() {
        let seed = 40 + i as u64;
        let base = trajectory_fingerprint(&run_mode(target, FitMode::Fast, seed));
        let again = trajectory_fingerprint(&run_mode(target, FitMode::Fast, seed));
        assert_eq!(base, again, "{}: fast run is not replayable", target.name());
        for width in [2usize, 4] {
            let before = rayon::current_num_threads();
            rayon::set_threads(width);
            let wide = trajectory_fingerprint(&run_mode(target, FitMode::Fast, seed));
            rayon::set_threads(before);
            assert_eq!(
                base,
                wide,
                "{}: width {width} changed the fast trajectory",
                target.name()
            );
        }
    }
}
