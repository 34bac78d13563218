//! Regenerates the golden-snapshot constants used by the bit-identity tests
//! (`crates/forest/tests/golden_predictions.rs` and
//! `crates/core/tests/golden_trajectory.rs`).
//!
//! Run with `cargo run --release --example golden_gen`. The printed values
//! were captured from the implementation *before* the forest hot-path
//! refactor (flat feature matrix + presorted splitter); the golden tests pin
//! them so any future change that alters per-seed predictions or tuning
//! trajectories fails loudly instead of silently drifting.

use pwu_core::{active, ActiveConfig, Strategy};
use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{kernel_by_name, FaultModel};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

/// FNV-1a over a stream of u64 words — a stable trajectory fingerprint.
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

fn forest_goldens() {
    for name in ["gesummv", "mm"] {
        let kernel = kernel_by_name(name).expect("kernel registered");
        let space = kernel.space();
        let schema = FeatureSchema::for_space(space);
        for seed in [11u64, 22, 33] {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let cfgs = space.sample_distinct(260, &mut rng);
            let (train_cfgs, probe_cfgs) = cfgs.split_at(200);
            let x = schema.encode_matrix(space, train_cfgs);
            let mut label_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 7));
            let y: Vec<f64> = train_cfgs
                .iter()
                .map(|c| kernel.measure(c, &mut label_rng))
                .collect();
            let config = ForestConfig {
                n_trees: 32,
                ..ForestConfig::default()
            };
            let forest = RandomForest::fit(&config, schema.kinds(), &x, &y, derive_seed(seed, 5));
            let probes = schema.encode_matrix(space, &probe_cfgs[..6]);
            for i in 0..probes.n_rows() {
                let p = forest.predict_one_at(&probes, i);
                println!(
                    "GOLD forest {name} seed {seed} probe {i} mean {:#018x} std {:#018x}",
                    p.mean.to_bits(),
                    p.std.to_bits()
                );
            }
        }
    }
}

fn trajectory_goldens() {
    let kernel = kernel_by_name("gesummv")
        .expect("kernel registered")
        .with_faults(FaultModel::light(0x60_1D));
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(77);
    let all = space.sample_distinct(200, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(160);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels: Vec<f64> = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();

    let config = ActiveConfig {
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
    };
    let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
    let run = active::run(
        &kernel,
        Strategy::Pwu { alpha: 0.05 },
        &config,
        pool,
        &test_features,
        &test_labels,
        42,
    );
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
    println!(
        "GOLD trajectory from-scratch labels {labels_fp:#018x} selections {selections_fp:#018x} \
         history {history_fp:#018x} train {} quarantined {}",
        run.train.len(),
        run.quarantined.len()
    );
}

fn main() {
    forest_goldens();
    trajectory_goldens();
}
