//! Generated `meta.pwu` text: a damaged session spec is a typed error or a
//! spec that round-trips, never a panic.
//!
//! Fifty seeds each damage a spec body seven ways: a bit flip, a
//! truncation, a deleted line, a duplicated line, and one size replaced by
//! `-1`, by `18446744073709551616` (one past `u64::MAX`) or by nothing.
//! [`SessionSpec::from_text`] must return a [`ErrorKind::Corrupt`] error
//! or a spec whose text parses back to the same text. [`Session::attach`]
//! reads the damaged body under a valid integrity footer, so the damage
//! reaches the parser and the size checks, and must attach or return a
//! `Corrupt` error.

use std::fs;
use std::path::PathBuf;

use pwu_core::{fnv1a64, Strategy};
use pwu_forest::FitMode;
use pwu_serve::{ErrorKind, Session, SessionSpec};
use pwu_stats::Xoshiro256PlusPlus;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwu-spec-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A spec whose every line carries a value worth damaging.
fn spec() -> SessionSpec {
    SessionSpec {
        target: "atax".into(),
        strategy: Strategy::Pbus { fraction: 0.25 },
        n_init: 6,
        n_batch: 2,
        n_max: 24,
        repeats: 2,
        n_trees: 8,
        fit_mode: FitMode::Fast,
        eval_every: 3,
        pool_n: 60,
        test_n: 20,
        alpha: 0.05,
        seed: 0xC0FF_EE00_1234,
    }
}

/// The body with damage `kind` at a place drawn from `rng`.
fn damaged(body: &str, kind: u64, rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    let mut bytes = body.as_bytes().to_vec();
    let mut at = |n: usize| (rng.next() % n as u64) as usize;
    let mut lines: Vec<&str> = body.lines().collect();
    match kind {
        0 => {
            let i = at(bytes.len());
            bytes[i] ^= 1 << at(8);
        }
        1 => bytes.truncate(at(bytes.len())),
        2 => {
            lines.remove(at(lines.len()));
            bytes = lines.join("\n").into_bytes();
        }
        3 => {
            let i = at(lines.len());
            lines.insert(i, lines[i]);
            bytes = lines.join("\n").into_bytes();
        }
        _ => {
            let sizes = lines.iter().position(|l| l.starts_with("sizes ")).unwrap();
            let mut tokens: Vec<&str> = lines[sizes].split(' ').collect();
            let token = ["-1", "18446744073709551616", ""][(kind - 4) as usize];
            let i = 1 + at(tokens.len() - 1);
            tokens[i] = token;
            let line = tokens.join(" ");
            lines[sizes] = &line;
            bytes = lines.join("\n").into_bytes();
            bytes.push(b'\n');
        }
    }
    bytes
}

/// `body` followed by the integrity footer `meta.pwu` files carry.
fn footered(body: &[u8]) -> Vec<u8> {
    let mut file = body.to_vec();
    file.extend(format!("footer {} {:016x}\n", body.len(), fnv1a64(body)).into_bytes());
    file
}

#[test]
fn damaged_spec_text_is_a_typed_error_or_round_trips() {
    let body = spec().to_text();
    let dir = tmp("damage");
    fs::create_dir_all(&dir).unwrap();
    let (mut parsed, mut refused) = (0, 0);
    for seed in 0..50 {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        for kind in 0..7 {
            let bytes = damaged(&body, kind, &mut rng);
            if let Ok(text) = std::str::from_utf8(&bytes) {
                match SessionSpec::from_text(text) {
                    Ok(spec) => {
                        let again = SessionSpec::from_text(&spec.to_text())
                            .unwrap_or_else(|e| panic!("seed {seed} kind {kind}: {e}"));
                        assert_eq!(again.to_text(), spec.to_text(), "seed {seed} kind {kind}");
                        parsed += 1;
                    }
                    Err(e) => {
                        assert_eq!(e.kind, ErrorKind::Corrupt, "seed {seed} kind {kind}: {e}");
                        refused += 1;
                    }
                }
            }
            fs::write(dir.join("meta.pwu"), footered(&bytes)).unwrap();
            if let Err(e) = Session::attach(&dir) {
                assert_eq!(e.kind, ErrorKind::Corrupt, "seed {seed} kind {kind}: {e}");
            }
        }
    }
    // The damage reaches both outcomes.
    assert!(
        parsed > 0 && refused > 0,
        "parsed {parsed}, refused {refused}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
