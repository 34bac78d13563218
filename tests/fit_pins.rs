//! Fit fingerprints: pins the exact bits of every tree both fit engines
//! grow, so a change to either engine's growth loop, split search or row
//! routing that moves a single split, gain or prediction fails here.
//!
//! Each pin is an FNV-1a hash over every tree's node count and
//! `(feature, gain bits)` splits, plus the bits of `predict_batch` on the
//! training rows. Inputs:
//!
//! - a mixed matrix at 400 and 1500 rows with a 6-level, a 120-level, a
//!   continuous and a tied wide (more than 256 distinct values) numeric
//!   column plus a 4-category column;
//! - 500-row samples of the gesummv and mm kernels and 400-row samples of
//!   the kripke and hypre application targets.
//!
//! Every input is fitted in both fit modes. The values are the same in
//! debug and release builds. If a pin moves, the failure message prints
//! every fingerprint; update the table only for an intended change to what
//! the engines grow.

use pwu_repro::apps::{Hypre, Kripke};
use pwu_repro::forest::reference;
use pwu_repro::forest::{FitMode, ForestConfig, Mtry, RandomForest, RegressionTree};
use pwu_repro::space::{FeatureKind, FeatureMatrix, FeatureSchema, TuningTarget};
use pwu_repro::spapt::kernel_by_name;
use pwu_repro::stats::{derive_seed, Xoshiro256PlusPlus};
use rand::Rng;

/// `(input/mode/stage, fingerprint)`.
const PINS: &[(&str, u64)] = &[
    ("mixed400/exact/fit", 0xc129ddd412907f63),
    ("mixed400/fast/fit", 0x1be38c4d4a04307a),
    ("mixed1500/exact/fit", 0x47f27d3eddc63ace),
    ("mixed1500/fast/fit", 0x864d76f48a36cf7a),
    ("gesummv500/exact/fit", 0x24565fb1dcaacee6),
    ("gesummv500/fast/fit", 0x08273a442b385212),
    ("mm500/exact/fit", 0x7c8cc97284f4079c),
    ("mm500/fast/fit", 0x55cf9fffaba0097d),
    ("kripke400/exact/fit", 0x8acf03895c7c55d8),
    ("kripke400/fast/fit", 0x46e04ffb2b2af7b9),
    ("hypre400/exact/fit", 0xf3a6f67f5baf413a),
    ("hypre400/fast/fit", 0x186e221b237f0b6f),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn fingerprint(forest: &RandomForest, x: &FeatureMatrix) -> u64 {
    let mut h = Fnv::new();
    for tree in forest.trees() {
        h.word(tree.n_nodes() as u64);
        for &(feature, gain) in tree.split_gains() {
            h.word(u64::from(feature));
            h.word(gain.to_bits());
        }
    }
    for p in &forest.predict_batch(x) {
        h.word(p.mean.to_bits());
        h.word(p.std.to_bits());
    }
    h.0
}

/// The mixed matrix: columns 6-level, 120-level, continuous, tied wide
/// (drawn from 1000 levels, so more than 256 distinct values with ties at
/// both sizes), and a 4-category column.
fn mixed(n: usize) -> (Vec<FeatureKind>, FeatureMatrix, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(0x5EED_0000 + n as u64);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = f64::from(rng.gen_range(0..6u32));
        let b = f64::from(rng.gen_range(0..120u32)) * 0.25;
        let c = rng.next_f64() * 10.0;
        let w = f64::from(rng.gen_range(0..1000u32)) * 0.5;
        let k = f64::from(rng.gen_range(0..4u32));
        let bump = if k == 2.0 { 3.0 } else { 0.0 };
        y.push(2.0 * a + 0.1 * b + 0.7 * c + 0.004 * w + bump + 0.5 * rng.next_f64());
        rows.push(vec![a, b, c, w, k]);
    }
    let kinds = vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical { n_categories: 4 },
    ];
    (kinds, FeatureMatrix::from_rows(5, &rows), y)
}

/// `n` distinct configurations of `target`, labelled by noisy measurement.
fn sample(
    target: &dyn TuningTarget,
    n: usize,
    seed: u64,
) -> (Vec<FeatureKind>, FeatureMatrix, Vec<f64>) {
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let cfgs = space.sample_distinct(n, &mut rng);
    let x = schema.encode_matrix(space, &cfgs);
    let mut label_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 7));
    let y = cfgs
        .iter()
        .map(|c| target.measure(c, &mut label_rng))
        .collect();
    (schema.kinds().to_vec(), x, y)
}

fn config(mode: FitMode) -> ForestConfig {
    ForestConfig {
        n_trees: 16,
        fit_mode: mode,
        ..ForestConfig::default()
    }
}

fn fingerprints() -> Vec<(String, u64)> {
    let gesummv = kernel_by_name("gesummv").expect("gesummv is registered");
    let mm = kernel_by_name("mm").expect("mm is registered");
    let inputs = [
        ("mixed400", mixed(400)),
        ("mixed1500", mixed(1500)),
        ("gesummv500", sample(&gesummv, 500, 31)),
        ("mm500", sample(&mm, 500, 32)),
        ("kripke400", sample(&Kripke::new(), 400, 33)),
        ("hypre400", sample(&Hypre::new(), 400, 34)),
    ];
    let mut out = Vec::new();
    for (name, (kinds, x, y)) in inputs {
        for mode in [FitMode::Exact, FitMode::Fast] {
            let forest = RandomForest::fit(&config(mode), &kinds, &x, &y, 41);
            out.push((
                format!("{name}/{}/fit", mode.token()),
                fingerprint(&forest, &x),
            ));
        }
    }
    out
}

#[test]
fn both_fit_engines_match_their_pins() {
    let got = fingerprints();
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, pinned, "fit fingerprints moved; got:\n{table}");
}

/// A 70-column exact tree matches the frozen reference bit for bit. Columns
/// 64 and up are binary and informative, so they are split on and then
/// found constant in descendants: the growth loop's constant-column mask
/// must not confuse them with columns 0..6.
#[test]
fn exact_tree_past_64_columns_matches_reference() {
    const D: usize = 70;
    let mut rng = Xoshiro256PlusPlus::new(70);
    let rows: Vec<Vec<f64>> = (0..240)
        .map(|_| {
            (0..D)
                .map(|f| {
                    let levels = if f >= 64 { 2 } else { 3 + (f as u32 % 5) };
                    f64::from(rng.gen_range(0..levels))
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| {
            r[0] + 0.8 * r[2]
                + 0.5 * r[6]
                + 2.0 * r[64]
                + 1.5 * r[66]
                + r[69]
                + 0.3 * rng.next_f64()
        })
        .collect();
    let kinds = vec![FeatureKind::Numeric; D];
    let x = FeatureMatrix::from_rows(D, &rows);
    let sample: Vec<u32> = (0..rows.len() as u32).chain(0..60).collect();
    for mtry in [Mtry::All, Mtry::Third] {
        let cfg = ForestConfig {
            mtry,
            ..ForestConfig::default()
        };
        let mut a_rng = Xoshiro256PlusPlus::new(5);
        let mut b_rng = Xoshiro256PlusPlus::new(5);
        let tree = RegressionTree::fit(&x, &y, &sample, &kinds, &cfg, &mut a_rng);
        let oracle = reference::fit_tree(&rows, &y, &sample, &kinds, &cfg, &mut b_rng);
        assert_eq!(tree.n_nodes(), oracle.n_nodes(), "{mtry:?}");
        let bits = |gains: &[(u32, f64)]| -> Vec<(u32, u64)> {
            gains.iter().map(|&(f, g)| (f, g.to_bits())).collect()
        };
        assert_eq!(
            bits(tree.split_gains()),
            bits(oracle.split_gains()),
            "{mtry:?}"
        );
        assert!(
            tree.split_gains().iter().any(|&(f, _)| f >= 64),
            "{mtry:?}: no split past column 64"
        );
        for (i, row) in rows.iter().enumerate() {
            let (p, q) = (tree.predict_leaf(row), oracle.predict_leaf(row));
            assert_eq!(p.mean.to_bits(), q.mean.to_bits(), "{mtry:?} row {i}");
            assert_eq!(p.count, q.count, "{mtry:?} row {i}");
        }
        assert_eq!(a_rng.next(), b_rng.next(), "{mtry:?}: RNG streams diverged");
    }
}
