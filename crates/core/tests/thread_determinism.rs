//! Thread-count invariance of a full tuning trajectory.
//!
//! The `rayon` shim's work pool promises bit-identical results at any width
//! (ordered reduction, per-index RNG streams, sequential fast path at width
//! 1). This test runs the same fault-injected, checkpointed tuning
//! trajectory at pool widths 1, 2 and 8 and demands byte-identical
//! checkpoint files and bitwise-identical trajectories.
//!
//! `PWU_THREADS` is read once per process, so widths are varied through
//! `rayon::set_threads`. The three runs execute sequentially inside this one
//! test; other tests in this binary may observe the transient widths, but
//! every parallel result in the workspace is width-invariant by
//! construction, so that cannot affect their outcomes.

use pwu_core::{active, ActiveConfig, ActiveRun, GenerationStore, Strategy};
use pwu_forest::ForestConfig;
use pwu_space::{Configuration, FeatureMatrix, FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{kernel_by_name, FaultModel, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

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

fn fingerprint(run: &ActiveRun) -> [u64; 3] {
    [
        fnv1a(run.train.labels().iter().map(|y| y.to_bits())),
        fnv1a(
            run.selections
                .iter()
                .flat_map(|s| [s.mean.to_bits(), s.std.to_bits(), s.observed.to_bits()]),
        ),
        fnv1a(
            run.history
                .iter()
                .flat_map(|s| s.rmse.iter().map(|r| r.to_bits())),
        ),
    ]
}

fn setup() -> (Kernel, Vec<Configuration>, FeatureMatrix, Vec<f64>) {
    let kernel = kernel_by_name("bicgkernel")
        .expect("kernel registered")
        .with_faults(FaultModel::light(0x7EAD));
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(1234);
    let all = space.sample_distinct(160, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(130);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    (kernel, pool_cfgs.to_vec(), test_features, test_labels)
}

#[test]
fn trajectory_and_checkpoints_are_identical_at_widths_1_2_and_8() {
    let (kernel, pool_cfgs, test_features, test_labels) = setup();
    let schema = FeatureSchema::for_space(kernel.space());
    let config = ActiveConfig {
        n_init: 8,
        n_batch: 2,
        n_max: 30,
        forest: ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        },
        eval_every: 5,
        alphas: vec![0.05],
        repeats: 3,
        ..ActiveConfig::default()
    };

    let before = rayon::current_num_threads();
    let mut reference: Option<([u64; 3], Vec<u8>)> = None;
    for width in [1usize, 2, 8] {
        rayon::set_threads(width);
        let dir =
            std::env::temp_dir().join(format!("pwu-thread-det-{}-w{width}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir);
        // A fresh kernel clone per width: the evaluation cache starts cold
        // every time, so a warm memo cannot mask a width-dependent bug.
        let target = kernel.clone();
        let pool = Pool::new(target.space(), &schema, pool_cfgs.clone());
        let run = active::run_with_checkpoints(
            &target,
            Strategy::Pwu { alpha: 0.05 },
            &config,
            pool,
            &test_features,
            &test_labels,
            42,
            &store,
        )
        .expect("checkpointed run must succeed");
        let fp = fingerprint(&run);
        // All three slot files: the last three generations of the run.
        let bytes: Vec<u8> = (0..3)
            .flat_map(|slot| std::fs::read(store.path_for(slot)).expect("every slot was written"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        match &reference {
            None => reference = Some((fp, bytes)),
            Some((ref_fp, ref_bytes)) => {
                assert_eq!(*ref_fp, fp, "trajectory drifted at width {width}");
                assert_eq!(
                    *ref_bytes, bytes,
                    "checkpoint bytes drifted at width {width}"
                );
            }
        }
    }
    rayon::set_threads(before);
}
