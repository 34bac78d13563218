//! Corruption property test: any truncation or bit flip of a footered
//! checkpoint file must surface as [`CheckpointError::Corrupt`] — never a
//! panic, and never a silently different checkpoint.
//!
//! Fifty seeds each pick an independent mutation (single-bit flip, byte
//! overwrite, truncation, or tail garbage) at a pseudo-random offset, so
//! the damage lands everywhere: the body, the hex-encoded labels, the
//! footer line, the final newline.
//!
//! The same fifty seeds then damage the newest slot of a three-generation
//! [`GenerationStore`], adding a torn overwrite to the mutations: recovery
//! must cost at most that one generation.
//!
//! Fifty more seeds mutate a bare body, with no footer to catch the damage,
//! and hand it straight to [`ActiveCheckpoint::from_text`]: byte damage, a
//! duplicated or deleted line, a section count moved by one, or a level
//! replaced by a token the standard parser reads otherwise than the
//! encoder writes. The parser must return a typed [`CheckpointError::Parse`]
//! or a checkpoint whose text parses back to the same bytes — never panic.

use std::fs;

use pwu_core::active::{SelectionTrace, Snapshot};
use pwu_core::checkpoint::{split_verified_body, with_integrity_footer};
use pwu_core::{ActiveCheckpoint, CheckpointError, GenerationStore, MeasurementStats};
use pwu_space::PoolLintCounts;
use pwu_stats::Xoshiro256PlusPlus;

/// A representative checkpoint with awkward payloads: subnormal bits,
/// multi-row configs, non-empty quarantine and history.
fn sample() -> ActiveCheckpoint {
    ActiveCheckpoint {
        target_name: "corruption-property".into(),
        iteration: 9,
        forest_seed: 0x5EED_CAFE,
        n_init: 6,
        n_batch: 2,
        n_max: 40,
        repeats: 3,
        fit_mode: pwu_forest::FitMode::Fast,
        alphas: vec![0.05],
        annotator_rng: [11, 12, 13, 14],
        annotator_evaluations: 31,
        stats: MeasurementStats {
            annotations: 31,
            readings: 93,
            compile_failures: 1,
            crashes: 2,
            bad_readings: 0,
            timeouts: 1,
            retries: 4,
            failed_annotations: 2,
            wasted_cost: 7.5,
        },
        select_rng: [21, 22, 23, 24],
        pool_rng: [31, 32, 33, 34],
        lint: PoolLintCounts {
            legal: 50,
            flagged: 3,
            illegal: 2,
        },
        train_configs: vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]],
        train_labels: vec![0.125, f64::from_bits(0x0000_0000_0000_0001), 3.75],
        pool_configs: vec![vec![1, 1, 1], vec![2, 2, 2]],
        quarantined: vec![vec![9, 9, 9]],
        history: vec![Snapshot {
            n_train: 6,
            cumulative_cost: 2.25,
            rmse: vec![0.4],
        }],
        selections: vec![SelectionTrace {
            mean: 0.5,
            std: 0.02,
            observed: 0.48,
        }],
    }
}

/// Applies the seed's mutation; returns `None` when the mutation is a
/// no-op (e.g. truncating zero bytes), so the caller can skip it.
fn mutate(file: &[u8], rng: &mut Xoshiro256PlusPlus) -> Option<Vec<u8>> {
    let mut bytes = file.to_vec();
    let len = bytes.len();
    #[allow(clippy::cast_possible_truncation)]
    let offset = (rng.next() % len as u64) as usize;
    match rng.next() % 4 {
        0 => {
            // Single-bit flip.
            bytes[offset] ^= 1 << (rng.next() % 8);
        }
        1 => {
            // Byte overwrite with an arbitrary value.
            #[allow(clippy::cast_possible_truncation)]
            let v = (rng.next() & 0xFF) as u8;
            if bytes[offset] == v {
                return None;
            }
            bytes[offset] = v;
        }
        2 => {
            // Truncation (a torn write).
            if offset == 0 {
                return None; // empty file is a different error class
            }
            bytes.truncate(offset);
        }
        _ => {
            // Garbage appended after the footer.
            bytes.extend_from_slice(b"garbage tail\n");
        }
    }
    Some(bytes)
}

#[test]
fn fifty_seeds_of_damage_all_surface_as_corrupt() {
    let checkpoint = sample();
    let dir = std::env::temp_dir().join(format!("pwu-corrupt-prop-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = GenerationStore::new(&dir);
    store.save(&checkpoint).unwrap();
    let path = store.path_for(checkpoint.iteration);
    let pristine = fs::read(&path).unwrap();

    // The unmutated slot verifies and round-trips exactly.
    let recovered = store.load_latest().unwrap().unwrap();
    assert_eq!(recovered.checkpoint, checkpoint);

    let mut exercised = 0;
    for seed in 0..50u64 {
        let mut rng = Xoshiro256PlusPlus::new(0xBAD5_EED0 + seed);
        let Some(damaged) = mutate(&pristine, &mut rng) else {
            continue;
        };
        exercised += 1;

        // In-memory verification: typed Corrupt, never a panic.
        match split_verified_body(&damaged) {
            Err(CheckpointError::Corrupt(_)) => {}
            Ok(body) => {
                // The only mutation the footer cannot see is one past it
                // (appended garbage) — and then the body must be untouched.
                let parsed = ActiveCheckpoint::from_text(body).unwrap();
                assert_eq!(parsed, checkpoint, "seed {seed}: silent corruption");
            }
            Err(other) => panic!("seed {seed}: wrong error class {other}"),
        }

        // File-based verification through the store's load path: the only
        // slot is damaged, so nothing is left to roll back to.
        fs::write(&path, &damaged).unwrap();
        match store.load_latest() {
            Err(CheckpointError::Corrupt(_)) => {}
            Ok(Some(r)) => assert_eq!(r.checkpoint, checkpoint, "seed {seed}: silent corruption"),
            other => panic!("seed {seed}: wrong outcome {other:?}"),
        }
    }
    assert!(exercised >= 40, "only {exercised} seeds produced damage");
    let _ = fs::remove_dir_all(&dir);
}

/// Generation `iteration` of the store test: each generation carries one
/// more history snapshot than the one before, so a slot's bytes change
/// length when it is overwritten — longer after `grow`, shorter without.
fn generation(iteration: u64, grow: bool) -> ActiveCheckpoint {
    let mut checkpoint = sample();
    checkpoint.iteration = iteration;
    let snapshots = if grow { iteration } else { 20 - iteration };
    for n in 0..snapshots {
        checkpoint.history.push(Snapshot {
            n_train: 6 + n as usize,
            cumulative_cost: 2.25 + n as f64,
            rmse: vec![0.4 / (n + 1) as f64],
        });
    }
    checkpoint
}

/// A torn overwrite: the first `k` bytes of `new` over the bytes `old` left
/// in the slot, with no length cut. `k` starts past the first byte where
/// the two differ, so the slot never still reads as `old`.
fn torn(new: &[u8], old: &[u8], rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    let first_diff = new.iter().zip(old).take_while(|(a, b)| a == b).count();
    #[allow(clippy::cast_possible_truncation)]
    let k = first_diff + 1 + (rng.next() % (new.len() - first_diff) as u64) as usize;
    let mut bytes = old.to_vec();
    bytes.resize(bytes.len().max(k), 0);
    bytes[..k].copy_from_slice(&new[..k]);
    bytes
}

#[test]
fn fifty_seeds_of_damage_to_the_newest_slot_cost_at_most_one_generation() {
    let base = std::env::temp_dir().join(format!("pwu-slot-damage-{}", std::process::id()));
    let mut exercised = 0;
    for seed in 0..50u64 {
        let mut rng = Xoshiro256PlusPlus::new(0x5107_DA3A + seed);
        let store = GenerationStore::new(base.join(seed.to_string()));
        // Generations 12..=15: 15 overwrites the slot 12 was in.
        let grow = seed % 2 == 0;
        let gens: Vec<ActiveCheckpoint> = (12..=15).map(|i| generation(i, grow)).collect();
        for checkpoint in &gens[..3] {
            store.save(checkpoint).unwrap();
        }
        let slot = store.path_for(15);
        let old = fs::read(&slot).unwrap();
        assert_eq!(store.save(&gens[3]).unwrap(), 15);
        let newest = fs::read(&slot).unwrap();
        assert_eq!(
            newest,
            with_integrity_footer(&gens[3].to_text()).into_bytes()
        );

        let damaged = if rng.next() % 5 == 4 {
            Some(torn(&newest, &old, &mut rng))
        } else {
            mutate(&newest, &mut rng)
        };
        let Some(damaged) = damaged else {
            continue;
        };
        exercised += 1;
        fs::write(&slot, &damaged).unwrap();
        match store.load_latest() {
            Ok(Some(r)) if r.generation == 15 => {
                // Damage the footer cannot see left the body untouched.
                assert_eq!(r.checkpoint, gens[3], "seed {seed}: silent corruption");
                assert_eq!(r.rolled_back, 0, "seed {seed}");
            }
            Ok(Some(r)) if r.generation == 14 && r.rolled_back == 1 => {
                assert_eq!(r.checkpoint, gens[2], "seed {seed}: wrong rollback");
                assert!(!slot.exists(), "seed {seed}: the damaged slot survived");
            }
            other => panic!("seed {seed}: expected generation 15 or 14, got {other:?}"),
        }

        // Damage every slot left: a typed Corrupt that removes nothing.
        let mut left = Vec::new();
        for path in (0..3)
            .map(|slot| store.path_for(slot))
            .filter(|p| p.exists())
        {
            let pristine = fs::read(&path).unwrap();
            let bytes = loop {
                match mutate(&pristine, &mut rng) {
                    Some(bytes) if split_verified_body(&bytes).is_err() => break bytes,
                    _ => {}
                }
            };
            fs::write(&path, &bytes).unwrap();
            left.push((path, bytes));
        }
        assert!(
            matches!(store.load_latest(), Err(CheckpointError::Corrupt(_))),
            "seed {seed}: every slot damaged must be Corrupt"
        );
        for (path, bytes) in &left {
            assert_eq!(
                &fs::read(path).unwrap(),
                bytes,
                "seed {seed}: a slot changed"
            );
        }
    }
    assert!(exercised >= 40, "only {exercised} seeds produced damage");
    let _ = fs::remove_dir_all(&base);
}

/// The level rows of `lines`: every line of the train, pool and
/// quarantined sections.
fn level_lines(lines: &[&str]) -> Vec<usize> {
    let mut rows = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if let Some((tag, count)) = lines[i].split_once(' ') {
            if matches!(tag, "train" | "pool" | "quarantined") {
                let count: usize = count.parse().expect("a pristine count");
                rows.extend(i + 1..=i + count);
                i += count;
            }
        }
        i += 1;
    }
    rows
}

/// Tokens the encoder never writes for a level: two the standard parser
/// reads as 7, and three it rejects.
const ODD_LEVELS: [&str; 5] = ["+7", "007", "-1", "4294967296", ""];

/// Applies mutation `kind` of the parser property to `body`, with offsets
/// and choices drawn from `rng`; `None` when the draw changes nothing.
fn mutate_body(body: &str, kind: u64, odd: &str, rng: &mut Xoshiro256PlusPlus) -> Option<String> {
    #[allow(clippy::cast_possible_truncation)]
    let mut pick = |n: usize| (rng.next() % n as u64) as usize;
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    match kind {
        0..=2 => {
            let mut bytes = body.as_bytes().to_vec();
            let offset = pick(bytes.len());
            match kind {
                0 => bytes[offset] ^= 1 << pick(8),
                #[allow(clippy::cast_possible_truncation)]
                1 => bytes[offset] = pick(256) as u8,
                _ => bytes.truncate(offset),
            }
            // Damage that leaves no UTF-8 reaches the parser as U+FFFD.
            return Some(String::from_utf8_lossy(&bytes).into_owned());
        }
        3 => {
            let at = pick(lines.len());
            let line = lines[at].clone();
            lines.insert(at, line);
        }
        4 => {
            lines.remove(pick(lines.len()));
        }
        5 => {
            let headers: Vec<usize> = (0..lines.len())
                .filter(|&i| {
                    lines[i].split_once(' ').is_some_and(|(tag, _)| {
                        matches!(
                            tag,
                            "train" | "pool" | "quarantined" | "history" | "selections"
                        )
                    })
                })
                .collect();
            let at = headers[pick(headers.len())];
            let (tag, count) = lines[at].split_once(' ').expect("a header");
            let count: usize = count.parse().expect("a pristine count");
            let moved = if count == 0 || pick(2) == 0 {
                count + 1
            } else {
                count - 1
            };
            lines[at] = format!("{tag} {moved}");
        }
        _ => {
            let rows = level_lines(&body.lines().collect::<Vec<_>>());
            let at = rows[pick(rows.len())];
            // A train row ends in its label; only the levels before it move.
            let (levels, label) = match lines[at].rsplit_once(' ') {
                Some((levels, label)) => (levels.to_string(), format!(" {label}")),
                None => (lines[at].clone(), String::new()),
            };
            let mut tokens: Vec<&str> = levels.split(',').collect();
            let t = pick(tokens.len());
            tokens[t] = odd;
            lines[at] = format!("{}{label}", tokens.join(","));
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    (text != body).then_some(text)
}

#[test]
fn fifty_seeds_of_damage_to_a_bare_body_parse_or_fail_typed() {
    // The sample with a pool and training set large enough that every
    // mutation has rows of several shapes to land on.
    let mut checkpoint = sample();
    for i in 0..24u32 {
        let row = vec![i % 7, 100 + i, 123_456_789 - i];
        if i % 3 == 0 {
            checkpoint.train_configs.push(row);
            checkpoint.train_labels.push(f64::from(i) * 0.75);
        } else {
            checkpoint.pool_configs.push(row);
        }
    }
    let body = checkpoint.to_text();
    assert_eq!(ActiveCheckpoint::from_text(&body).unwrap(), checkpoint);

    let (mut parsed, mut refused) = (0, 0);
    for seed in 0..50u64 {
        let mut rng = Xoshiro256PlusPlus::new(0x0DD_B0D1 + seed);
        // Every kind lands on seven or more seeds, and every odd token on
        // at least one.
        let (kind, odd) = (seed % 7, ODD_LEVELS[(seed / 7) as usize % ODD_LEVELS.len()]);
        let Some(damaged) = mutate_body(&body, kind, odd, &mut rng) else {
            continue;
        };
        match ActiveCheckpoint::from_text(&damaged) {
            Err(CheckpointError::Parse { .. }) => refused += 1,
            Ok(got) => {
                parsed += 1;
                let text = got.to_text();
                let back = ActiveCheckpoint::from_text(&text)
                    .unwrap_or_else(|e| panic!("seed {seed}: its own text fails: {e}"));
                assert_eq!(
                    back.to_text(),
                    text,
                    "seed {seed}: the text does not round-trip"
                );
            }
            Err(other) => panic!("seed {seed}: wrong error class {other}"),
        }
    }
    assert!(refused >= 30, "only {refused} seeds were refused");
    assert!(
        parsed >= 1,
        "no mutation parsed, so the round trip went unchecked"
    );
}
