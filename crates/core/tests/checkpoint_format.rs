//! The checkpoint text format, pinned byte for byte.
//!
//! Every durable checkpoint and every served digest (`fnv1a64` of the text)
//! depends on `ActiveCheckpoint::to_text` producing exactly these bytes, so
//! each pin records the length and FNV-1a 64 of the text for one fixed
//! checkpoint. An encoder that drifts by a single byte fails here even when
//! both sides of every other comparison drift together. The gesummv pins
//! also move if the trajectory itself moves (the goldens would then fail
//! too); the hand-built ones depend on the encoder alone.
//!
//! A property test then round-trips generated checkpoints both ways:
//! `from_text(to_text(c))` equals `c` with every `f64` compared by bits, and
//! `to_text(from_text(t))` reproduces `t`.
//!
//! Last, a reference formatter spells the format with `fmt::Write`, and
//! `to_text` must equal it on generated checkpoints whose rows are 1–64
//! wide, whose levels have every digit count up to `u32::MAX` and whose
//! `f64`s are of every class, so the encoder's table path, its general
//! path and its rows longer than the row buffer are all compared.

use proptest::prelude::*;
use pwu_core::active::{SelectionTrace, Snapshot};
use pwu_core::{
    bootstrap, fnv1a64, step_once, ActiveCheckpoint, ActiveConfig, MeasurementStats, Strategy,
};
use pwu_forest::{FitMode, ForestConfig};
use pwu_space::{FeatureSchema, Pool, PoolLintCounts, TuningTarget};
use pwu_stats::Xoshiro256PlusPlus;
use rand::RngCore;

/// `(length, fnv1a64)` of a checkpoint's text.
fn pin(checkpoint: &ActiveCheckpoint) -> (usize, u64) {
    let text = checkpoint.to_text();
    (text.len(), fnv1a64(text.as_bytes()))
}

/// A gesummv session: cold start, then five `step_once` calls.
fn gesummv_after_five_steps(fit_mode: FitMode) -> ActiveCheckpoint {
    let kernel = pwu_spapt::kernel_by_name("gesummv").expect("gesummv is registered");
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(0xF0_4A7);
    let all = space.sample_distinct(90, &mut rng);
    let (pool_cfgs, test_cfgs) = all.split_at(60);
    let test_features = schema.encode_matrix(space, test_cfgs);
    let test_labels: Vec<f64> = test_cfgs.iter().map(|c| kernel.ideal_time(c)).collect();
    let config = ActiveConfig {
        n_init: 6,
        n_batch: 2,
        n_max: 30,
        forest: ForestConfig {
            n_trees: 8,
            fit_mode,
            ..ForestConfig::default()
        },
        eval_every: 2,
        alphas: vec![0.01, 0.05],
        repeats: 2,
        ..ActiveConfig::default()
    };
    let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
    let mut checkpoint = bootstrap(&kernel, &config, pool, &test_features, &test_labels, 77);
    for _ in 0..5 {
        checkpoint = step_once(
            &kernel,
            Strategy::Pwu { alpha: 0.05 },
            &config,
            &checkpoint,
            &test_features,
            &test_labels,
        )
        .expect("the session steps")
        .checkpoint;
    }
    checkpoint
}

/// Every section empty; three alphas.
fn edge_empty() -> ActiveCheckpoint {
    ActiveCheckpoint {
        target_name: "edge-empty".into(),
        iteration: 0,
        forest_seed: 0,
        n_init: 0,
        n_batch: 0,
        n_max: 0,
        repeats: 0,
        fit_mode: FitMode::Exact,
        alphas: vec![0.01, 0.05, 0.1],
        annotator_rng: [0; 4],
        annotator_evaluations: 0,
        stats: MeasurementStats::default(),
        select_rng: [0; 4],
        pool_rng: [0; 4],
        lint: PoolLintCounts::default(),
        train_configs: Vec::new(),
        train_labels: Vec::new(),
        pool_configs: Vec::new(),
        quarantined: Vec::new(),
        history: Vec::new(),
        selections: Vec::new(),
    }
}

/// Extreme values everywhere: levels 0 and `u32::MAX`, the awkward `f64`
/// bit patterns (−0.0, a subnormal, ±∞, a NaN with a payload), `u64::MAX`
/// seeds and RNG words, and three alphas.
fn edge_extremes() -> ActiveCheckpoint {
    let neg_zero = -0.0f64;
    let subnormal = f64::from_bits(0x000F_0000_0000_0001);
    let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
    ActiveCheckpoint {
        target_name: "edge-extremes".into(),
        iteration: u64::MAX,
        forest_seed: u64::MAX,
        n_init: usize::MAX,
        n_batch: 1,
        n_max: usize::MAX,
        repeats: 0,
        fit_mode: FitMode::Fast,
        alphas: vec![neg_zero, f64::INFINITY, nan],
        annotator_rng: [u64::MAX; 4],
        annotator_evaluations: usize::MAX,
        stats: MeasurementStats {
            annotations: usize::MAX,
            readings: 0,
            compile_failures: 1,
            crashes: usize::MAX,
            bad_readings: 0,
            timeouts: 10,
            retries: 100,
            failed_annotations: 1000,
            wasted_cost: f64::NEG_INFINITY,
        },
        select_rng: [u64::MAX, 0, 1, u64::MAX - 1],
        pool_rng: [0x0123_4567_89AB_CDEF, u64::MAX, 0, 0xF],
        lint: PoolLintCounts {
            legal: usize::MAX,
            flagged: 0,
            illegal: 9,
        },
        train_configs: vec![vec![0], vec![u32::MAX, 0, u32::MAX], vec![9, 10, 99, 100]],
        train_labels: vec![neg_zero, subnormal, nan],
        pool_configs: vec![vec![u32::MAX], vec![0, 0]],
        quarantined: vec![vec![1_000_000_000, 4_000_000_000]],
        history: vec![
            Snapshot {
                n_train: 0,
                cumulative_cost: f64::INFINITY,
                rmse: vec![nan, subnormal, neg_zero],
            },
            Snapshot {
                n_train: usize::MAX,
                cumulative_cost: neg_zero,
                rmse: Vec::new(),
            },
        ],
        selections: vec![SelectionTrace {
            mean: f64::NEG_INFINITY,
            std: subnormal,
            observed: nan,
        }],
    }
}

#[test]
fn gesummv_checkpoints_keep_their_bytes() {
    assert_eq!(
        pin(&gesummv_after_five_steps(FitMode::Exact)),
        (3513, 0x1841175f29e88ac7),
        "exact-mode gesummv checkpoint text changed"
    );
    assert_eq!(
        pin(&gesummv_after_five_steps(FitMode::Fast)),
        (3512, 0xd5c48b936a6368c0),
        "fast-mode gesummv checkpoint text changed"
    );
}

#[test]
fn edge_checkpoints_keep_their_bytes() {
    assert_eq!(
        pin(&edge_empty()),
        (525, 0xefd4a38cdb18a637),
        "empty checkpoint text changed"
    );
    assert_eq!(
        pin(&edge_extremes()),
        (971, 0x7b9b0578057007f5),
        "extreme checkpoint text changed"
    );
}

#[test]
fn edge_checkpoints_round_trip_by_bits() {
    for checkpoint in [edge_empty(), edge_extremes()] {
        let text = checkpoint.to_text();
        let back = ActiveCheckpoint::from_text(&text).expect("the text parses");
        assert_same_bits(&back, &checkpoint);
        assert_eq!(back.to_text(), text);
    }
}

/// Every `f64` of a checkpoint, as bits, in a fixed order.
fn float_bits(c: &ActiveCheckpoint) -> Vec<u64> {
    let mut bits: Vec<u64> = c.alphas.iter().map(|a| a.to_bits()).collect();
    bits.push(c.stats.wasted_cost.to_bits());
    bits.extend(c.train_labels.iter().map(|y| y.to_bits()));
    for snap in &c.history {
        bits.push(snap.cumulative_cost.to_bits());
        bits.extend(snap.rmse.iter().map(|r| r.to_bits()));
    }
    for sel in &c.selections {
        bits.extend([sel.mean, sel.std, sel.observed].map(f64::to_bits));
    }
    bits
}

/// The checkpoint with every `f64` set to zero (so `==` compares the rest,
/// NaNs included, and [`float_bits`] compares the floats).
fn without_floats(c: &ActiveCheckpoint) -> ActiveCheckpoint {
    let mut c = c.clone();
    c.alphas.iter_mut().for_each(|a| *a = 0.0);
    c.stats.wasted_cost = 0.0;
    c.train_labels.iter_mut().for_each(|y| *y = 0.0);
    for snap in &mut c.history {
        snap.cumulative_cost = 0.0;
        snap.rmse.iter_mut().for_each(|r| *r = 0.0);
    }
    for sel in &mut c.selections {
        *sel = SelectionTrace {
            mean: 0.0,
            std: 0.0,
            observed: 0.0,
        };
    }
    c
}

fn assert_same_bits(a: &ActiveCheckpoint, b: &ActiveCheckpoint) {
    assert_eq!(float_bits(a), float_bits(b), "f64 bits differ");
    assert_eq!(
        without_floats(a),
        without_floats(b),
        "non-float fields differ"
    );
}

/// Mostly small levels (the common case), sometimes any `u32`.
fn level(word: u64) -> u32 {
    if word.is_multiple_of(4) {
        (word >> 32) as u32
    } else {
        (word % 17) as u32
    }
}

/// A generated checkpoint: shapes from the strategies, every word (levels,
/// counts, RNG states, `f64` bit patterns of any kind) from `seed`.
fn generated(
    seed: u64,
    shape: (usize, usize, usize, usize, usize),
    width: usize,
) -> ActiveCheckpoint {
    let (n_train, n_pool, n_quarantined, n_history, n_selections) = shape;
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut word = move || rng.next_u64();
    let float = f64::from_bits;
    let mut configs = |n: usize| -> Vec<Vec<u32>> {
        (0..n)
            .map(|_| (0..width).map(|_| level(word())).collect())
            .collect()
    };
    let train_configs = configs(n_train);
    let pool_configs = configs(n_pool);
    let quarantined = configs(n_quarantined);
    let n_alphas = (word() % 4) as usize;
    let alphas = (0..n_alphas).map(|_| float(word())).collect();
    let train_labels = (0..n_train).map(|_| float(word())).collect();
    let history = (0..n_history)
        .map(|_| Snapshot {
            n_train: word() as usize,
            cumulative_cost: float(word()),
            rmse: (0..n_alphas).map(|_| float(word())).collect(),
        })
        .collect();
    let selections = (0..n_selections)
        .map(|_| SelectionTrace {
            mean: float(word()),
            std: float(word()),
            observed: float(word()),
        })
        .collect();
    let name_chars = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    let target_name = (0..1 + word() % 12)
        .map(|_| char::from(name_chars[(word() % name_chars.len() as u64) as usize]))
        .collect();
    ActiveCheckpoint {
        target_name,
        iteration: word(),
        forest_seed: word(),
        n_init: word() as usize,
        n_batch: word() as usize,
        n_max: word() as usize,
        repeats: word() as usize,
        fit_mode: if word() % 2 == 0 {
            FitMode::Exact
        } else {
            FitMode::Fast
        },
        alphas,
        annotator_rng: [word(), word(), word(), word()],
        annotator_evaluations: word() as usize,
        stats: MeasurementStats {
            annotations: word() as usize,
            readings: word() as usize,
            compile_failures: word() as usize,
            crashes: word() as usize,
            bad_readings: word() as usize,
            timeouts: word() as usize,
            retries: word() as usize,
            failed_annotations: word() as usize,
            wasted_cost: float(word()),
        },
        select_rng: [word(), word(), word(), word()],
        pool_rng: [word(), word(), word(), word()],
        lint: PoolLintCounts {
            legal: word() as usize,
            flagged: word() as usize,
            illegal: word() as usize,
        },
        train_configs,
        train_labels,
        pool_configs,
        quarantined,
        history,
        selections,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn generated_checkpoints_round_trip_both_ways(
        seed in 0u64..=u64::MAX,
        shape in (0usize..12, 0usize..40, 0usize..4, 0usize..6, 0usize..12),
        width in 1usize..9,
    ) {
        let checkpoint = generated(seed, shape, width);
        let text = checkpoint.to_text();
        let back = ActiveCheckpoint::from_text(&text)
            .map_err(|e| TestCaseError::fail(format!("generated text must parse: {e}")))?;
        prop_assert_eq!(float_bits(&back), float_bits(&checkpoint));
        prop_assert_eq!(without_floats(&back), without_floats(&checkpoint));
        prop_assert_eq!(back.to_text(), text);
    }
}

/// The documented text format, spelled with `fmt::Write`: `{}` for every
/// decimal, `{:016x}` for every hex word, levels joined by commas and words
/// by spaces. `to_text` must write exactly these bytes.
fn reference_text(c: &ActiveCheckpoint) -> String {
    use std::fmt::Write as _;
    let hex = |v: f64| format!("{:016x}", v.to_bits());
    let words = |vs: &[f64]| vs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(" ");
    let levels = |ls: &[u32]| ls.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "pwu-active-checkpoint v2");
    let _ = writeln!(w, "target {}", c.target_name);
    let _ = writeln!(w, "iteration {}", c.iteration);
    let _ = writeln!(w, "forest-seed {}", c.forest_seed);
    let _ = writeln!(
        w,
        "counts {} {} {} {}",
        c.n_init, c.n_batch, c.n_max, c.repeats
    );
    let _ = writeln!(w, "fit-mode {}", c.fit_mode.token());
    let _ = writeln!(w, "alphas {}", words(&c.alphas));
    for (tag, s) in [
        ("annotator-rng", c.annotator_rng),
        ("select-rng", c.select_rng),
        ("pool-rng", c.pool_rng),
    ] {
        let _ = writeln!(
            w,
            "{tag} {:016x} {:016x} {:016x} {:016x}",
            s[0], s[1], s[2], s[3]
        );
    }
    let _ = writeln!(w, "annotator-evaluations {}", c.annotator_evaluations);
    let s = &c.stats;
    let _ = writeln!(
        w,
        "stats {} {} {} {} {} {} {} {} {}",
        s.annotations,
        s.readings,
        s.compile_failures,
        s.crashes,
        s.bad_readings,
        s.timeouts,
        s.retries,
        s.failed_annotations,
        hex(s.wasted_cost)
    );
    let _ = writeln!(
        w,
        "lint {} {} {}",
        c.lint.legal, c.lint.flagged, c.lint.illegal
    );
    let _ = writeln!(w, "train {}", c.train_configs.len());
    for (cfg, &label) in c.train_configs.iter().zip(&c.train_labels) {
        let _ = writeln!(w, "{} {}", levels(cfg), hex(label));
    }
    for (tag, configs) in [("pool", &c.pool_configs), ("quarantined", &c.quarantined)] {
        let _ = writeln!(w, "{tag} {}", configs.len());
        for cfg in configs {
            let _ = writeln!(w, "{}", levels(cfg));
        }
    }
    let _ = writeln!(w, "history {}", c.history.len());
    for snap in &c.history {
        let _ = writeln!(
            w,
            "{} {} {}",
            snap.n_train,
            hex(snap.cumulative_cost),
            words(&snap.rmse)
        );
    }
    let _ = writeln!(w, "selections {}", c.selections.len());
    for sel in &c.selections {
        let _ = writeln!(w, "{}", words(&[sel.mean, sel.std, sel.observed]));
    }
    w.push_str("end\n");
    out
}

/// A level of 1 to 10 decimal digits, the count drawn from `word`, up to
/// `u32::MAX`.
fn level_of_any_length(word: u64) -> u32 {
    let digits = (word % 10) as u32;
    let low = if digits == 0 { 0 } else { 10u64.pow(digits) };
    let high = (10u64.pow(digits + 1) - 1).min(u64::from(u32::MAX));
    (low + (word >> 8) % (high - low + 1)) as u32
}

/// An `f64` of a class drawn from `word`: ±0, a subnormal, a normal number,
/// ±∞, or a NaN of either sign with any payload, quiet or signalling.
fn float_of_any_class(word: u64) -> f64 {
    let sign = word & (1 << 63);
    let mantissa = (word >> 3) & 0x000F_FFFF_FFFF_FFFF;
    f64::from_bits(match word % 6 {
        0 => sign,
        1 => sign | mantissa.max(1),
        2 => sign | 0x3FF0_0000_0000_0000 | mantissa,
        3 => sign | 0x7FF0_0000_0000_0000,
        4 => sign | 0x7FF0_0000_0000_0000 | mantissa.max(1),
        _ => sign | (((word >> 7) % 0x7FE + 1) << 52) | mantissa,
    })
}

/// A generated checkpoint whose rows are `width` wide: every level of any
/// digit count, every `f64` of any class, and `width` alphas and RMSE
/// values per snapshot, so the level and hex rows run past the encoder's
/// row buffer.
fn generated_wide(
    seed: u64,
    shape: (usize, usize, usize, usize, usize),
    width: usize,
) -> ActiveCheckpoint {
    let mut c = generated(seed, shape, width);
    let mut rng = Xoshiro256PlusPlus::new(seed ^ 0x5EED);
    let mut word = move || rng.next_u64();
    let configs = [
        &mut c.train_configs,
        &mut c.pool_configs,
        &mut c.quarantined,
    ];
    for level in configs.into_iter().flatten().flatten() {
        *level = level_of_any_length(word());
    }
    let mut float = || float_of_any_class(word());
    c.alphas = (0..width).map(|_| float()).collect();
    c.stats.wasted_cost = float();
    c.train_labels.iter_mut().for_each(|y| *y = float());
    for snap in &mut c.history {
        snap.cumulative_cost = float();
        snap.rmse = (0..width).map(|_| float()).collect();
    }
    for sel in &mut c.selections {
        *sel = SelectionTrace {
            mean: float(),
            std: float(),
            observed: float(),
        };
    }
    c
}

#[test]
fn the_generators_reach_every_digit_count_and_float_class() {
    let mut lengths = [false; 11];
    let mut classes = std::collections::BTreeSet::new();
    let mut rng = Xoshiro256PlusPlus::new(3);
    for _ in 0..2000 {
        lengths[level_of_any_length(rng.next_u64()).to_string().len()] = true;
        let v = float_of_any_class(rng.next_u64());
        classes.insert((v.classify() as u8, v.is_nan(), v.is_sign_negative()));
    }
    assert!(lengths[1..].iter().all(|&seen| seen), "{lengths:?}");
    // Zero, subnormal, normal and infinite of each sign, and NaN of each.
    assert_eq!(classes.len(), 10, "{classes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn to_text_writes_what_the_reference_formatter_writes(
        seed in 0u64..=u64::MAX,
        shape in (0usize..6, 0usize..24, 0usize..3, 0usize..4, 0usize..6),
        width in 1usize..65,
    ) {
        let checkpoint = generated_wide(seed, shape, width);
        let text = checkpoint.to_text();
        prop_assert_eq!(&text, &reference_text(&checkpoint));
        let back = ActiveCheckpoint::from_text(&text)
            .map_err(|e| TestCaseError::fail(format!("generated text must parse: {e}")))?;
        prop_assert_eq!(float_bits(&back), float_bits(&checkpoint));
        prop_assert_eq!(without_floats(&back), without_floats(&checkpoint));
    }
}

#[test]
fn the_fixed_checkpoints_match_the_reference_formatter() {
    for checkpoint in [
        edge_empty(),
        edge_extremes(),
        gesummv_after_five_steps(FitMode::Fast),
    ] {
        assert_eq!(checkpoint.to_text(), reference_text(&checkpoint));
    }
}
