//! The chaos harness: seeded process kills against a mixed fleet, proving
//! bit-identical resume.
//!
//! A mixed workload (SPAPT kernels + the kripke/hypre proxy apps) is driven
//! through the server one step op at a time. At seeded, randomized step
//! boundaries the server is killed — dropped with no orderly suspend, which
//! is exactly what `kill -9` leaves behind, because every committed step
//! persisted its generation *before* the response went out — then reopened
//! from the state directory. After every kill, every session must resume to
//! the bit-identical checkpoint an uninterrupted run would have at that
//! iteration (digests precomputed from the core `bootstrap`/`step_once`
//! chain, which `tests/service.rs` proves equals the continuous loop).
//!
//! `cargo xtask chaos` runs this file in release mode at full scale
//! (50 sessions, 20 kills); under `cargo test` (debug) the fleet shrinks to
//! keep tier-1 fast.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

use pwu_serve::protocol::Fields;
use pwu_serve::session::{SessionSpec, SessionTarget};
use pwu_serve::{parse_object, AdmissionPolicy, Server, WatchdogPolicy};
use pwu_space::TuningTarget;
use pwu_stats::Xoshiro256PlusPlus;

/// Full scale under `cargo xtask chaos` (release); shrunk for tier-1 debug
/// runs.
const FLEET: usize = if cfg!(debug_assertions) { 10 } else { 50 };
const KILLS: usize = if cfg!(debug_assertions) { 5 } else { 20 };

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwu-chaos-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn server_at(dir: &PathBuf) -> Server {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap()
}

fn send(server: &mut Server, line: &str) -> Fields {
    let (response, _) = server.handle_line(line);
    let fields =
        parse_object(&response).unwrap_or_else(|e| panic!("unparseable response '{response}': {e}"));
    assert_ne!(fields.str("error"), Some("internal"), "{response}");
    fields
}

/// The chaos workload's per-session spec: four committed steps to done.
fn chaos_spec(target: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        target: target.into(),
        n_init: 4,
        n_batch: 2,
        n_max: 12,
        repeats: 1,
        n_trees: 8,
        eval_every: 4,
        pool_n: 70,
        test_n: 30,
        seed,
        ..SessionSpec::default()
    }
}

fn create_line(id: &str, spec: &SessionSpec) -> String {
    format!(
        r#"{{"cmd":"create","session":"{id}","target":"{}","seed":{},"n_init":{},"n_batch":{},"n_max":{},"repeats":{},"n_trees":{},"eval_every":{},"pool_n":{},"test_n":{}}}"#,
        spec.target,
        spec.seed,
        spec.n_init,
        spec.n_batch,
        spec.n_max,
        spec.repeats,
        spec.n_trees,
        spec.eval_every,
        spec.pool_n,
        spec.test_n
    )
}

/// The mixed target roster: the paper's 12 SPAPT kernels plus the two proxy
/// apps, cycled across the fleet.
fn targets() -> Vec<String> {
    let mut names: Vec<String> = pwu_spapt::all_kernels()
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    names.push("kripke".into());
    names.push("hypre".into());
    names
}

fn digest_of(checkpoint: &pwu_core::ActiveCheckpoint) -> String {
    format!(
        "{:016x}",
        pwu_core::fnv1a64(checkpoint.to_text().as_bytes())
    )
}

/// The uninterrupted run's digest at every iteration: index 0 is the
/// bootstrap checkpoint, index i the checkpoint after i committed steps.
fn reference_chain(spec: &SessionSpec) -> Vec<String> {
    let target = SessionTarget::by_name(&spec.target).unwrap();
    let (pool, test_features, test_labels) = spec.materialize(target.as_target());
    let config = spec.active_config();
    let mut checkpoint = pwu_core::bootstrap(
        target.as_target(),
        &config,
        pool,
        &test_features,
        &test_labels,
        spec.seed,
    );
    let mut digests = vec![digest_of(&checkpoint)];
    loop {
        let out = pwu_core::step_once(
            target.as_target(),
            spec.strategy,
            &config,
            &checkpoint,
            &test_features,
            &test_labels,
        )
        .unwrap();
        checkpoint = out.checkpoint;
        digests.push(digest_of(&checkpoint));
        if out.done {
            break;
        }
    }
    digests
}

/// Checks a step/resume response against the reference chain.
fn assert_on_chain(id: &str, fields: &Fields, chains: &BTreeMap<String, Vec<String>>) {
    let iteration = usize::try_from(fields.u64("iteration").unwrap()).unwrap();
    let chain = &chains[id];
    assert!(
        iteration < chain.len(),
        "{id}: iteration {iteration} beyond the reference chain ({} entries)",
        chain.len()
    );
    assert_eq!(
        fields.str("digest"),
        Some(chain[iteration].as_str()),
        "{id}: digest diverged from the uninterrupted run at iteration {iteration}"
    );
}

#[test]
fn seeded_kills_resume_bit_identically_across_a_mixed_fleet() {
    let dir = tmp("fleet");
    let roster = targets();
    let specs: Vec<(String, SessionSpec)> = (0..FLEET)
        .map(|i| {
            let id = format!("c{i:02}");
            let spec = chaos_spec(&roster[i % roster.len()], 1000 + i as u64);
            (id, spec)
        })
        .collect();
    let chains: BTreeMap<String, Vec<String>> = specs
        .iter()
        .map(|(id, spec)| (id.clone(), reference_chain(spec)))
        .collect();

    let mut server = server_at(&dir);
    for (id, spec) in &specs {
        let created = send(&mut server, &create_line(id, spec));
        assert_on_chain(id, &created, &chains);
    }

    // Seeded kill schedule over step-op boundaries. Each session takes at
    // least (n_max - n_init) / n_batch committed steps, so every kill point
    // in [1, min_total_ops] is guaranteed to be reached.
    let min_total_ops = FLEET * 4;
    let mut rng = Xoshiro256PlusPlus::new(0xC4A0_5EED);
    let mut kill_at = BTreeSet::new();
    while kill_at.len() < KILLS {
        #[allow(clippy::cast_possible_truncation)]
        kill_at.insert((rng.next() % min_total_ops as u64) as usize + 1);
    }

    let mut op = 0usize;
    let mut kills_done = 0usize;
    let mut all_done = false;
    while !all_done {
        all_done = true;
        for (id, _) in &specs {
            let state = server.session(id).unwrap().state();
            if state == pwu_serve::SessionState::Done {
                continue;
            }
            all_done = false;
            let r = send(&mut server, &format!(r#"{{"cmd":"step","session":"{id}","n":1}}"#));
            assert_on_chain(id, &r, &chains);
            op += 1;
            if kill_at.contains(&op) {
                // Crash: no orderly suspend, no flush — the durable state is
                // whatever the committed steps already persisted.
                server = server_at(&dir);
                assert_eq!(server.session_count(), FLEET, "lost sessions at op {op}");
                kills_done += 1;
                for (id2, _) in &specs {
                    let resumed =
                        send(&mut server, &format!(r#"{{"cmd":"resume","session":"{id2}"}}"#));
                    assert_eq!(resumed.u64("rolled_back"), Some(0));
                    assert_on_chain(id2, &resumed, &chains);
                }
            }
        }
    }
    assert_eq!(kills_done, KILLS, "kill schedule not fully exercised");

    // Every session finished exactly where the uninterrupted run finishes.
    for (id, _) in &specs {
        let q = send(&mut server, &format!(r#"{{"cmd":"query","session":"{id}"}}"#));
        assert_eq!(q.str("state"), Some("done"), "{id}");
        let chain = &chains[id];
        assert_eq!(q.str("digest"), Some(chain[chain.len() - 1].as_str()), "{id}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_generation_rolls_back_and_still_converges() {
    let dir = tmp("rollback");
    let spec = chaos_spec("adi", 77);
    let chain = reference_chain(&spec);

    let mut server = server_at(&dir);
    send(&mut server, &create_line("r1", &spec));
    send(&mut server, r#"{"cmd":"step","session":"r1","n":2}"#);
    drop(server);

    // Damage the newest generation file: flip a byte mid-body, the way a
    // torn write or bad sector would.
    let session_dir = dir.join("r1");
    let damage_newest = || {
        let mut gens: Vec<PathBuf> = fs::read_dir(&session_dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("gen-") && n.ends_with(".ckpt"))
            })
            .collect();
        gens.sort();
        let newest = gens.last().unwrap();
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(newest, &bytes).unwrap();
    };
    damage_newest();

    // Resume detects the damage, rolls back one generation (iteration 1),
    // and the session still converges to the bit-identical final state.
    let mut server = server_at(&dir);
    let resumed = send(&mut server, r#"{"cmd":"resume","session":"r1"}"#);
    assert_eq!(resumed.u64("rolled_back"), Some(1));
    assert_eq!(resumed.u64("iteration"), Some(1));
    assert_eq!(resumed.str("digest"), Some(chain[1].as_str()));

    // A second damaged generation after the rollback rolls back to the
    // same recovered generation: the rollback discarded the damaged file,
    // so the next commit's prune kept the generation it recovered.
    let stepped = send(&mut server, r#"{"cmd":"step","session":"r1","n":1}"#);
    assert_eq!(stepped.u64("steps"), Some(1));
    drop(server);
    damage_newest();
    let mut server = server_at(&dir);
    let resumed = send(&mut server, r#"{"cmd":"resume","session":"r1"}"#);
    assert_eq!(resumed.u64("rolled_back"), Some(1));
    assert_eq!(resumed.u64("iteration"), Some(1));
    assert_eq!(resumed.str("digest"), Some(chain[1].as_str()));

    loop {
        let r = send(&mut server, r#"{"cmd":"step","session":"r1","n":1}"#);
        if r.str("state") == Some("done") {
            break;
        }
    }
    let q = send(&mut server, r#"{"cmd":"query","session":"r1"}"#);
    assert_eq!(q.str("digest"), Some(chain[chain.len() - 1].as_str()));
    let _ = fs::remove_dir_all(&dir);
}
