//! The schedule-perturbation harness: the runtime half of the auditor.
//!
//! The static pass (see [`crate::scan`]) proves the *source* carries no
//! known determinism hazard; this module proves the *scheduler* cannot
//! create one. It re-runs the workspace's two parallel workhorses — a
//! forest fit and a miniature experiment cell — under perturbed thread
//! schedules (pool widths 1/2/4/8 × permuted deal orders, via the `rayon`
//! shim's `sanitize` hooks) and byte-compares the results. Any
//! order-sensitive reduction anywhere under those code paths shows up as a
//! byte diff; the sanitizer's footprint log additionally proves the
//! perturbations were real (the deal assignments differed) and that every
//! work item was produced exactly once.
//!
//! Each entry point is a pure function of its seed that serializes its
//! result to a canonical little-endian byte image — "the checkpoint" — so
//! callers compare runs with `assert_eq!(bytes_a, bytes_b)` and a failure
//! localizes to the first differing offset. The experiment-cell entry
//! additionally writes a *real* checkpoint file through
//! `pwu_core::CheckpointPolicy` and returns its raw bytes, tying the
//! harness to the exact durability format sessions resume from.

use std::path::Path;

use pwu_core::experiment::run_experiment;
use pwu_core::{active, ActiveConfig, CheckpointPolicy, Protocol, Strategy};
use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{kernel_by_name, FaultModel, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

/// One thread schedule to perturb the pool into.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Pool width (1 is the exact sequential path).
    pub width: usize,
    /// How items are dealt to workers.
    pub deal: rayon::sanitize::DealMode,
}

/// The width × deal-order grid the audit gate sweeps: widths 1/2/4/8, each
/// under the production deal order plus three perturbed ones.
#[must_use]
pub fn schedule_grid() -> Vec<Schedule> {
    use rayon::sanitize::DealMode;
    let mut out = Vec::new();
    for width in [1usize, 2, 4, 8] {
        for deal in [
            DealMode::RoundRobin,
            DealMode::Blocked,
            DealMode::Reversed,
            DealMode::Shuffled(0xA0D17),
        ] {
            out.push(Schedule { width, deal });
        }
    }
    out
}

/// Runs `f` under `schedule`, restoring the previous width and the
/// production deal order afterwards even if `f` panics.
pub fn run_under<T>(schedule: Schedule, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            rayon::set_threads(self.0);
            rayon::sanitize::set_deal_mode(rayon::sanitize::DealMode::RoundRobin);
        }
    }
    let restore = Restore(rayon::current_num_threads());
    rayon::set_threads(schedule.width);
    rayon::sanitize::set_deal_mode(schedule.deal);
    let out = f();
    drop(restore);
    out
}

/// Appends `v`'s IEEE bits to the byte image.
fn push_f64(bytes: &mut Vec<u8>, v: f64) {
    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed `usize` to the byte image.
fn push_usize(bytes: &mut Vec<u8>, v: usize) {
    bytes.extend_from_slice(&(v as u64).to_le_bytes());
}

/// The audit kernel: small space, light deterministic faults — enough
/// surface to exercise decode, legality, noise and retry paths without
/// dominating the gate's runtime.
fn audit_kernel(fault_seed: u64) -> Kernel {
    kernel_by_name("bicgkernel")
        .expect("bicgkernel is registered")
        .with_faults(FaultModel::light(fault_seed))
}

/// Fits a forest on deterministically sampled kernel data and serializes
/// every prediction the ensemble can make about a held-out probe set —
/// per-tree columns plus the (μ, σ) ensemble view — to a byte image.
///
/// The fit fans the trees out over the pool (`into_par_iter` in
/// `RandomForest::fit`), so this is the densest parallel reduction the
/// workspace has.
#[must_use]
pub fn forest_fit_bytes(seed: u64) -> Vec<u8> {
    let kernel = audit_kernel(0);
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let all = space.sample_distinct(170, &mut rng);
    let (train_cfgs, probe_cfgs) = all.split_at(130);
    let x = schema.encode_matrix(space, train_cfgs);
    let y: Vec<f64> = train_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    let probe = schema.encode_matrix(space, probe_cfgs);

    let config = ForestConfig {
        n_trees: 12,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&config, schema.kinds(), &x, &y, seed ^ 0x5EED);

    let mut bytes = Vec::new();
    for p in forest.predict_batch(&probe) {
        push_f64(&mut bytes, p.mean);
        push_f64(&mut bytes, p.std);
    }
    let all_trees: Vec<usize> = (0..config.n_trees).collect();
    for column in forest.predict_columns(&probe, &all_trees) {
        for v in column {
            push_f64(&mut bytes, v);
        }
    }
    bytes
}

/// Runs a miniature checkpointed active-learning session and returns
/// `(checkpoint file bytes, trajectory byte image)`.
///
/// `ckpt_path` is where the checkpoint file goes (callers own the temp
/// location); the file is removed before returning.
///
/// # Panics
/// Panics if the checkpointed run fails or the checkpoint is not written.
#[must_use]
pub fn checkpointed_cell_bytes(seed: u64, ckpt_path: &Path) -> (Vec<u8>, Vec<u8>) {
    let kernel = audit_kernel(0x7EAD);
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let all = space.sample_distinct(150, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(120);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels: Vec<f64> = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();

    let config = ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: 26,
        forest: ForestConfig {
            n_trees: 12,
            ..ForestConfig::default()
        },
        eval_every: 5,
        alphas: vec![0.05],
        repeats: 3,
        ..ActiveConfig::default()
    };
    let policy = CheckpointPolicy::new(ckpt_path, 2);
    let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
    let run = active::run_with_checkpoints(
        &kernel,
        Strategy::Pwu { alpha: 0.05 },
        &config,
        pool,
        &test_features,
        &test_labels,
        seed ^ 0xCE11,
        &policy,
    )
    .expect("checkpointed audit run must succeed");

    let ckpt = std::fs::read(ckpt_path).expect("a checkpoint must have been written");
    let _ = std::fs::remove_file(ckpt_path);

    let mut bytes = Vec::new();
    push_usize(&mut bytes, run.train.labels().len());
    for y in run.train.labels() {
        push_f64(&mut bytes, *y);
    }
    for s in &run.selections {
        push_f64(&mut bytes, s.mean);
        push_f64(&mut bytes, s.std);
        push_f64(&mut bytes, s.observed);
    }
    for snap in &run.history {
        for r in &snap.rmse {
            push_f64(&mut bytes, *r);
        }
    }
    (ckpt, bytes)
}

/// Runs a two-repetition, two-strategy miniature of the paper's experiment
/// protocol — the outermost parallel level of the workspace, with forest
/// fits nested *inside* pool workers — and serializes every numeric curve
/// to a byte image.
#[must_use]
pub fn experiment_cell_bytes(seed: u64) -> Vec<u8> {
    let kernel = audit_kernel(0xFA117);
    let protocol = Protocol {
        surrogate_size: 130,
        pool_size: 100,
        active: ActiveConfig {
            n_init: 6,
            n_batch: 2,
            n_max: 16,
            forest: ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            },
            eval_every: 4,
            alphas: vec![0.05],
            repeats: 3,
            ..ActiveConfig::default()
        },
        n_reps: 2,
    };
    let strategies = [Strategy::Pwu { alpha: 0.05 }, Strategy::MaxU];
    let result = run_experiment(&kernel, &strategies, &protocol, seed);

    let mut bytes = Vec::new();
    push_usize(&mut bytes, result.curves.len());
    push_usize(&mut bytes, result.dropped_test_configs);
    for curve in &result.curves {
        push_usize(&mut bytes, curve.n_train.len());
        for n in &curve.n_train {
            push_usize(&mut bytes, *n);
        }
        for per_alpha in &curve.rmse {
            for r in per_alpha {
                push_f64(&mut bytes, *r);
            }
        }
        for c in &curve.cumulative_cost {
            push_f64(&mut bytes, *c);
        }
        for s in &curve.selections {
            push_f64(&mut bytes, s.mean);
            push_f64(&mut bytes, s.std);
            push_f64(&mut bytes, s.observed);
        }
        for (mu, sigma) in &curve.test_scatter {
            push_f64(&mut bytes, *mu);
            push_f64(&mut bytes, *sigma);
        }
        push_usize(&mut bytes, curve.quarantined);
    }
    bytes
}
