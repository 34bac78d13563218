//! End-to-end service behavior: protocol dispatch, admission, watchdogs,
//! request-scoped memos, resident bytes, crash re-attach and the serve ≡
//! core identity.

use std::fs;
use std::path::{Path, PathBuf};

use pwu_core::checkpoint::split_verified_body;
use pwu_core::{ActiveCheckpoint, GenerationStore, RetryPolicy, Strategy};
use pwu_serve::protocol::{Fields, Value};
use pwu_serve::session::{strategy_token, Session, SessionSpec};
use pwu_serve::{parse_object, AdmissionPolicy, ErrorKind, Server, SessionState, WatchdogPolicy};

/// A fresh scratch directory under the system temp root.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwu-serve-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The small spec every test uses (cheap but non-trivial: three committed
/// steps to done).
fn small_spec(target: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        target: target.into(),
        n_init: 4,
        n_batch: 2,
        n_max: 10,
        repeats: 1,
        n_trees: 8,
        eval_every: 5,
        pool_n: 40,
        test_n: 20,
        seed,
        ..SessionSpec::default()
    }
}

/// The create request line for [`small_spec`].
fn create_line(id: &str, target: &str, seed: u64) -> String {
    spec_create_line(id, &small_spec(target, seed))
}

/// The create request line for any spec, every field spelled out.
fn spec_create_line(id: &str, spec: &SessionSpec) -> String {
    format!(
        r#"{{"cmd":"create","session":"{id}","target":"{}","seed":{},"n_init":{},"n_batch":{},"n_max":{},"repeats":{},"n_trees":{},"eval_every":{},"pool_n":{},"test_n":{},"alpha":{},"strategy":"{}"}}"#,
        spec.target,
        spec.seed,
        spec.n_init,
        spec.n_batch,
        spec.n_max,
        spec.repeats,
        spec.n_trees,
        spec.eval_every,
        spec.pool_n,
        spec.test_n,
        spec.alpha,
        strategy_token(spec.strategy)
    )
}

fn server_at(dir: &PathBuf) -> Server {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap()
}

/// Sends one line and parses the response object.
fn send(server: &mut Server, line: &str) -> Fields {
    let (response, _) = server.handle_line(line);
    parse_object(&response).unwrap_or_else(|e| panic!("unparseable response '{response}': {e}"))
}

fn assert_err(fields: &Fields, kind: ErrorKind) {
    assert_eq!(
        fields.str("error"),
        Some(kind.token()),
        "expected a {} error, got {fields:?}",
        kind.token()
    );
}

/// The digest after every step of `spec`'s run straight through the core
/// API: the `bootstrap` + `step_once` chain.
fn core_digests(spec: &SessionSpec) -> Vec<String> {
    let target = pwu_serve::SessionTarget::by_name(&spec.target).unwrap();
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
    let mut digests = Vec::new();
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
        digests.push(format!(
            "{:016x}",
            pwu_core::fnv1a64(checkpoint.to_text().as_bytes())
        ));
        if out.done {
            return digests;
        }
    }
}

#[test]
fn served_session_is_bit_identical_to_the_core_loop() {
    // adi runs straight to done with a one-row elite slice. hypre has no
    // evaluation cache, so every create and resume re-labels its test set;
    // it records a snapshot of 20 elite rows (200 at α 0.10) every step,
    // suspends and resumes after every step, and restarts the server once.
    let hypre = SessionSpec {
        strategy: Strategy::Pwu { alpha: 0.10 },
        n_max: 12,
        eval_every: 1,
        pool_n: 60,
        test_n: 200,
        alpha: 0.10,
        ..small_spec("hypre", 43)
    };
    for (spec, interrupted) in [(small_spec("adi", 42), false), (hypre, true)] {
        let dir = tmp(&format!("identity-{}", spec.target));
        let mut server = server_at(&dir);
        let created = send(&mut server, &spec_create_line("s1", &spec));
        assert_eq!(created.str("state"), Some("active"));
        assert_eq!(server.session("s1").unwrap().spec(), &spec);

        // Drive the served session to done.
        let mut served_digests = Vec::new();
        loop {
            let r = send(&mut server, r#"{"cmd":"step","session":"s1","n":1}"#);
            let digest = r.str("digest").unwrap().to_string();
            served_digests.push(digest.clone());
            if r.str("state") == Some("done") {
                break;
            }
            if interrupted {
                send(&mut server, r#"{"cmd":"suspend","session":"s1"}"#);
                if served_digests.len() == 2 {
                    server = server_at(&dir);
                }
                let r = send(&mut server, r#"{"cmd":"resume","session":"s1"}"#);
                assert_eq!(r.str("digest"), Some(digest.as_str()));
            }
        }
        assert_eq!(served_digests, core_digests(&spec), "{}", spec.target);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A create whose pool and test set together exceed the target's space is
/// a typed `bad-request` naming both sizes, not a panic in the draw, and
/// the server keeps serving. A request that fills the space exactly is
/// accepted.
#[test]
fn create_larger_than_the_target_space_is_a_typed_bad_request() {
    let dir = tmp("oversized");
    let mut server = server_at(&dir);
    // kripke has 2304 configurations, hypre 3024; each request adds 20
    // test points.
    for (target, pool_n) in [("kripke", 2300), ("kripke", 2285), ("hypre", 3005)] {
        let line = create_line("big", target, 1)
            .replace(r#""pool_n":40"#, &format!(r#""pool_n":{pool_n}"#));
        let r = send(&mut server, &line);
        assert_err(&r, ErrorKind::BadRequest);
        let message = r.str("message").unwrap();
        assert!(
            message.contains("pool_n") && message.contains("test_n"),
            "{target} pool_n {pool_n}: error must name the sizes, got {message}"
        );
        assert_err(
            &send(&mut server, r#"{"cmd":"query","session":"big"}"#),
            ErrorKind::UnknownSession,
        );
    }
    let exact = create_line("exact", "kripke", 2).replace(r#""pool_n":40"#, r#""pool_n":2284"#);
    for line in [
        exact,
        create_line("ok", "kripke", 3),
        r#"{"cmd":"step","session":"ok","n":1}"#.to_string(),
    ] {
        let r = send(&mut server, &line);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A create asking for more repeats, trees or points than a session may
/// have is a typed `bad-request` that creates nothing, and the server goes
/// on answering. Each of these sizes fits adi's space, and 2^53 repeats or
/// trees once aborted the process on its first allocation.
#[test]
fn creates_past_the_size_bounds_are_typed_bad_requests() {
    let dir = tmp("size-bounds");
    let mut server = server_at(&dir);
    let two_53 = 1u64 << 53;
    for (field, small, big) in [
        ("repeats", 1, two_53),
        ("n_trees", 8, two_53),
        ("pool_n", 40, two_53),
        ("repeats", 1, 1001),
        ("n_trees", 8, 1025),
        ("pool_n", 40, 99_981),
    ] {
        let line = create_line("big", "adi", 1).replace(
            &format!(r#""{field}":{small},"#),
            &format!(r#""{field}":{big},"#),
        );
        assert_ne!(line, create_line("big", "adi", 1), "{field}");
        let r = send(&mut server, &line);
        assert_err(&r, ErrorKind::BadRequest);
        let message = r.str("message").unwrap();
        assert!(message.contains(field), "{field} {big}: {message}");
        assert_err(
            &send(&mut server, r#"{"cmd":"query","session":"big"}"#),
            ErrorKind::UnknownSession,
        );
    }
    let r = send(&mut server, r#"{"cmd":"stats"}"#);
    assert_eq!(r.u64("sessions"), Some(0), "{r:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A request line that is not UTF-8 is a typed `bad-request`, and the serve
/// loop answers the lines after it; `\r\n` ends a line as `\n` does.
#[test]
fn a_line_that_is_not_utf8_is_a_typed_bad_request_and_the_loop_goes_on() {
    let dir = tmp("not-utf8");
    let mut server = server_at(&dir);
    let mut input = b"{\"cmd\":\"stats\"}\n\xff\xfe{\"cmd\":\"stats\"}\n".to_vec();
    input.extend_from_slice(b"{\"cmd\":\"stats\"}\r\n{\"cmd\":\"stats\"}");
    let mut output = Vec::new();
    server.serve(input.as_slice(), &mut output).unwrap();
    let lines: Vec<Fields> = std::str::from_utf8(&output)
        .unwrap()
        .lines()
        .map(|line| parse_object(line).unwrap())
        .collect();
    assert_eq!(lines.len(), 4, "every line is answered");
    assert_err(&lines[1], ErrorKind::BadRequest);
    assert!(lines[1].str("message").unwrap().contains("utf-8"));
    for i in [0, 2, 3] {
        assert_eq!(lines[i].get("ok"), Some(&Value::Bool(true)), "{i}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A `meta.pwu` that verifies but holds invalid sizes, sizes past the
/// bounds a create may ask for, or sizes larger than its target's space
/// (their sum overflowing included), is corrupt: `Server::open` skips and
/// counts it rather than let a later `resume` derive it.
#[test]
fn open_skips_specs_the_target_space_cannot_supply_as_corrupt() {
    let dir = tmp("oversized-meta");
    let mut server = server_at(&dir);
    for id in ["big", "huge", "zero", "many", "fine"] {
        send(&mut server, &create_line(id, "kripke", 4));
    }
    drop(server);
    // The sizes line: n_init n_batch n_max repeats n_trees eval_every
    // pool_n test_n. The footer is recomputed, so each file verifies.
    let huge = format!("sizes 4 2 10 1 8 5 {} 20", usize::MAX);
    for (id, sizes) in [
        ("big", "sizes 4 2 10 1 8 5 2300 20"),
        ("huge", huge.as_str()),
        ("zero", "sizes 0 2 10 1 8 5 40 20"),
        ("many", "sizes 4 2 10 9007199254740992 8 5 40 20"),
    ] {
        let meta = dir.join(id).join("meta.pwu");
        let bytes = fs::read(&meta).unwrap();
        let body = pwu_core::checkpoint::split_verified_body(&bytes).unwrap();
        let edited = body.replacen("sizes 4 2 10 1 8 5 40 20", sizes, 1);
        assert_ne!(edited, body, "the spec must carry the create line's sizes");
        fs::write(&meta, pwu_core::checkpoint::with_integrity_footer(&edited)).unwrap();
        let err = Session::attach(&dir.join(id)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Corrupt, "{id}: {err:?}");
    }
    let mut server = server_at(&dir);
    assert_eq!(server.session_count(), 1);
    assert_eq!(server.stats().skipped_corrupt, 4);
    assert_err(
        &send(&mut server, r#"{"cmd":"resume","session":"big"}"#),
        ErrorKind::UnknownSession,
    );
    let r = send(&mut server, r#"{"cmd":"resume","session":"fine"}"#);
    assert_eq!(r.str("state"), Some("active"), "{r:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A create whose id names a directory skipped at open starts from an
/// empty store: the skipped session's slots, holding newer generations,
/// must not outrank the new session's after a restart.
#[test]
fn a_create_over_a_skipped_session_directory_starts_an_empty_store() {
    let dir = tmp("recreate-skipped");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("x", "adi", 61));
    send(&mut server, r#"{"cmd":"step","session":"x","n":2}"#);
    drop(server);
    let meta = dir.join("x").join("meta.pwu");
    let mut bytes = fs::read(&meta).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&meta, &bytes).unwrap();

    let mut server = server_at(&dir);
    assert_eq!(server.stats().skipped_corrupt, 1);
    let spec = small_spec("adi", 62);
    let chain = core_digests(&spec);
    let created = send(&mut server, &spec_create_line("x", &spec));
    assert_eq!(created.u64("generation"), Some(0), "{created:?}");
    let r = send(&mut server, r#"{"cmd":"step","session":"x","n":1}"#);
    assert_eq!(r.str("digest"), Some(chain[0].as_str()), "{r:?}");
    drop(server);

    let mut server = server_at(&dir);
    let r = send(&mut server, r#"{"cmd":"resume","session":"x"}"#);
    assert_eq!(r.u64("rolled_back"), Some(0), "{r:?}");
    assert_eq!(r.u64("generation"), Some(1), "{r:?}");
    assert_eq!(r.str("digest"), Some(chain[0].as_str()), "{r:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_sheds_load_with_typed_overloads() {
    let dir = tmp("admission");
    let admission = AdmissionPolicy {
        max_sessions: 2,
        max_resident: 1,
        max_steps_per_request: 3,
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    send(&mut server, &create_line("a", "adi", 1));
    // Resident bound: a second resident session is refused outright...
    assert_err(
        &send(&mut server, &create_line("b", "atax", 2)),
        ErrorKind::Overloaded,
    );
    // ...until the first is suspended.
    send(&mut server, r#"{"cmd":"suspend","session":"a"}"#);
    send(&mut server, &create_line("b", "atax", 2));
    // Registry bound: a third session is refused even though memory is free.
    send(&mut server, r#"{"cmd":"suspend","session":"b"}"#);
    assert_err(
        &send(&mut server, &create_line("c", "bicgkernel", 3)),
        ErrorKind::Overloaded,
    );
    // Resume past the resident bound is refused too.
    send(&mut server, r#"{"cmd":"resume","session":"a"}"#);
    assert_err(
        &send(&mut server, r#"{"cmd":"resume","session":"b"}"#),
        ErrorKind::Overloaded,
    );
    // Oversized step requests are shed, zero-step requests are bad.
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"a","n":4}"#),
        ErrorKind::Overloaded,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"a","n":0}"#),
        ErrorKind::BadRequest,
    );
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.u64("overloaded"), Some(4));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_degrades_runaways_and_resume_recovers_them() {
    let dir = tmp("watchdog");
    // Every step busts a zero deadline; one strike of grace, then degrade.
    let watchdog = WatchdogPolicy {
        max_step_cost: 0.0,
        grace: RetryPolicy {
            max_retries: 1,
            backoff_cost: 0.0,
        },
    };
    let mut server = Server::open(&dir, AdmissionPolicy::default(), watchdog).unwrap();
    let created = send(&mut server, &create_line("w", "adi", 7));
    let durable_digest = created.str("digest").unwrap().to_string();
    let generation = created.u64("generation").unwrap();
    let standing = |f: &Fields| {
        (
            f.str("digest").map(str::to_string),
            f.u64("iteration"),
            f.u64("n_train"),
        )
    };

    // Strike 1: shed but still active. Strike 2: degraded.
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_eq!(r.str("state"), Some("active"));
    assert_eq!(r.u64("steps"), Some(0));
    assert_eq!(r.u64("shed"), Some(1));
    // The shed step ran on a private copy: the resident state is untouched.
    let q = send(&mut server, r#"{"cmd":"query","session":"w"}"#);
    assert_eq!(standing(&q), standing(&created));
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_err(&r, ErrorKind::Degraded);
    let q = send(&mut server, r#"{"cmd":"query","session":"w"}"#);
    assert_eq!(q.str("state"), Some("degraded"));
    // Stepping a degraded session is a bad-state error, not a hang.
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#),
        ErrorKind::BadState,
    );

    // Nothing was committed: resume recovers the exact pre-strike state.
    let r = send(&mut server, r#"{"cmd":"resume","session":"w"}"#);
    assert_eq!(r.str("state"), Some("active"));
    assert_eq!(r.str("digest"), Some(durable_digest.as_str()));
    assert_eq!(r.u64("generation"), Some(generation));
    assert_eq!(r.u64("rolled_back"), Some(0));

    // Reopened under the default watchdog, the first committed step is
    // the core chain's first step: the strikes left no trace.
    drop(server);
    let mut server = server_at(&dir);
    send(&mut server, r#"{"cmd":"resume","session":"w"}"#);
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_eq!(r.u64("steps"), Some(1), "{r:?}");
    assert_eq!(
        r.str("digest"),
        Some(core_digests(&small_spec("adi", 7))[0].as_str())
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A kernel session's eval-cache memo is request-scoped: every request
/// that fills it (create, a committed step, a shed step, tick, resume)
/// empties it before it returns, and suspend finds it empty.
#[test]
fn a_served_session_keeps_no_memo_between_requests() {
    let dir = tmp("memo");
    // The memo's length, and its lookups so far (which survive a clear).
    let memo = |server: &Server| {
        let cache = server
            .session("m")
            .unwrap()
            .target()
            .cache()
            .expect("a kernel memo");
        let (hits, misses) = cache.stats();
        (cache.len(), hits + misses)
    };
    let mut server = server_at(&dir);
    let mut lookups = 0;
    for (request, fills) in [
        create_line("m", "adi", 61).replace(r#""n_max":10"#, r#""n_max":20"#),
        r#"{"cmd":"step","session":"m","n":1}"#.to_string(),
        r#"{"cmd":"tick"}"#.to_string(),
        r#"{"cmd":"suspend","session":"m"}"#.to_string(),
        r#"{"cmd":"resume","session":"m"}"#.to_string(),
    ]
    .into_iter()
    .zip([true, true, true, false, true])
    {
        let r = send(&mut server, &request);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{request}: {r:?}");
        let (len, after) = memo(&server);
        assert_eq!(len, 0, "{request} left {len} memo entries behind");
        assert_eq!(
            after > lookups,
            fills,
            "{request}: lookups {lookups} -> {after}"
        );
        lookups = after;
    }
    assert_eq!(server.stats().steps_committed, 2);
    drop(server);

    // Reopened with a zero deadline, the next step is shed, not committed.
    let watchdog = WatchdogPolicy {
        max_step_cost: 0.0,
        grace: RetryPolicy {
            max_retries: 3,
            backoff_cost: 0.0,
        },
    };
    let mut server = Server::open(&dir, AdmissionPolicy::default(), watchdog).unwrap();
    send(&mut server, r#"{"cmd":"resume","session":"m"}"#);
    let (len, lookups) = memo(&server);
    assert_eq!(len, 0, "a resume after a restart left {len} entries");
    let r = send(&mut server, r#"{"cmd":"step","session":"m","n":1}"#);
    assert_eq!((r.u64("steps"), r.u64("shed")), (Some(0), Some(1)), "{r:?}");
    let (len, after) = memo(&server);
    assert_eq!(len, 0, "a shed step left {len} memo entries behind");
    assert!(after > lookups, "the shed step measured nothing");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn protocol_and_registry_errors_are_typed() {
    let dir = tmp("errors");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("dup", "adi", 1));
    assert_err(
        &send(&mut server, &create_line("dup", "adi", 1)),
        ErrorKind::SessionExists,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"ghost"}"#),
        ErrorKind::UnknownSession,
    );
    assert_err(&send(&mut server, "not json"), ErrorKind::BadRequest);
    assert_err(
        &send(
            &mut server,
            r#"{"cmd":"create","session":"x","target":"nope"}"#,
        ),
        ErrorKind::BadRequest,
    );
    // Kill removes the durable directory; the id becomes unknown.
    send(&mut server, r#"{"cmd":"kill","session":"dup"}"#);
    assert!(!dir.join("dup").exists());
    assert_err(
        &send(&mut server, r#"{"cmd":"query","session":"dup"}"#),
        ErrorKind::UnknownSession,
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A `create` field that is present but mistyped or out of range is a
/// typed `bad-request` naming the field — never a session silently created
/// with the default — and the server keeps serving afterwards.
#[test]
fn mistyped_create_fields_are_typed_bad_requests() {
    let dir = tmp("mistyped");
    let mut server = server_at(&dir);
    let base = create_line("probe", "adi", 1);
    let cases = [
        ("seed", "-1"),
        ("seed", "2.5"),
        ("seed", "1e17"),
        ("seed", r#""7""#),
        ("alpha", r#""0.1""#),
        // Eq. 2 reads the best ⌊n·α⌋ test points: α = 0 is out of range.
        ("alpha", "0"),
        ("strategy", "1"),
        ("fit_mode", "1"),
    ];
    for (i, (key, value)) in cases.iter().enumerate() {
        let id = format!("bad{i}");
        // Swap the probe id for a fresh one, then override or append the
        // field under test (later keys would be duplicates, so splice).
        let mut line = base.replace("\"probe\"", &format!("\"{id}\""));
        let existing = format!("\"{key}\":");
        if let Some(at) = line.find(&existing) {
            let end = line[at..].find([',', '}']).map_or(line.len(), |e| at + e);
            line.replace_range(at..end, &format!("{existing}{value}"));
        } else {
            line.insert_str(line.len() - 1, &format!(",{existing}{value}"));
        }
        let r = send(&mut server, &line);
        assert_err(&r, ErrorKind::BadRequest);
        assert!(
            r.str("message").is_some_and(|m| m.contains(key)),
            "{key}={value}: error must name the field, got {r:?}"
        );
        let query = format!(r#"{{"cmd":"query","session":"{id}"}}"#);
        assert_err(&send(&mut server, &query), ErrorKind::UnknownSession);
        // Still serving: a well-formed create and step succeed.
        let ok_id = format!("ok{i}");
        let step = format!(r#"{{"cmd":"step","session":"{ok_id}","n":1}}"#);
        for line in [create_line(&ok_id, "adi", i as u64), step] {
            let r = send(&mut server, &line);
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_reattach_and_suspend_resume_are_bit_identical() {
    let dir = tmp("reattach");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("k1", "adi", 11));
    send(&mut server, &create_line("k2", "kripke", 12));
    send(&mut server, r#"{"cmd":"step","session":"k1","n":2}"#);
    send(&mut server, r#"{"cmd":"step","session":"k2","n":1}"#);
    let d1 = send(&mut server, r#"{"cmd":"query","session":"k1"}"#);
    let d2 = send(&mut server, r#"{"cmd":"query","session":"k2"}"#);
    let (digest1, digest2) = (
        d1.str("digest").unwrap().to_string(),
        d2.str("digest").unwrap().to_string(),
    );
    // Simulate a crash: drop the server (no orderly suspend) and reopen.
    drop(server);
    let mut server = server_at(&dir);
    assert_eq!(server.session_count(), 2);
    assert_eq!(
        server.session("k1").unwrap().state(),
        SessionState::Suspended
    );
    let r1 = send(&mut server, r#"{"cmd":"resume","session":"k1"}"#);
    let r2 = send(&mut server, r#"{"cmd":"resume","session":"k2"}"#);
    assert_eq!(r1.str("digest"), Some(digest1.as_str()));
    assert_eq!(r2.str("digest"), Some(digest2.as_str()));

    // Orderly suspend/resume round-trips too, and the session then runs to
    // done exactly as a never-suspended one would.
    send(&mut server, r#"{"cmd":"suspend","session":"k1"}"#);
    let r = send(&mut server, r#"{"cmd":"resume","session":"k1"}"#);
    assert_eq!(r.str("digest"), Some(digest1.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_loop_speaks_lines_and_honors_shutdown() {
    let dir = tmp("loop");
    let mut server = server_at(&dir);
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        create_line("s", "adi", 5),
        r#"{"cmd":"step","session":"s"}"#,
        r#"{"cmd":"shutdown"}"#,
        r#"{"cmd":"stats"}"# // after shutdown: must never be answered
    );
    let mut output = Vec::new();
    server.serve(input.as_bytes(), &mut output).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 3, "shutdown must stop the loop");
    for line in &lines {
        let f = parse_object(line).unwrap();
        assert_eq!(f.get("ok"), Some(&pwu_serve::protocol::Value::Bool(true)));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trace_verb_records_exports_and_unifies_stats() {
    let dir = tmp("trace");
    let mut server = server_at(&dir);
    let r = send(&mut server, r#"{"cmd":"trace","action":"start"}"#);
    assert_eq!(r.str("tracing"), Some("on"));
    send(&mut server, &create_line("tr1", "adi", 21));
    send(&mut server, r#"{"cmd":"step","session":"tr1","n":2}"#);
    send(&mut server, r#"{"cmd":"suspend","session":"tr1"}"#);
    send(&mut server, r#"{"cmd":"resume","session":"tr1"}"#);

    // Stats folds the registry snapshot into one coherent line: the serve.*
    // mirrors ride along with the per-server fields. Registry counters are
    // process-wide (other tests in this binary add to them), so compare >=.
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert!(stats.u64("serve.created").unwrap() >= stats.u64("created").unwrap());
    assert!(stats.u64("serve.steps_committed").unwrap() >= stats.u64("steps_committed").unwrap());

    // JSONL export: header line plus our session's lifecycle events.
    let out = dir.join("trace.jsonl");
    let line = format!(
        r#"{{"cmd":"trace","action":"export","path":"{}"}}"#,
        out.display()
    );
    let r = send(&mut server, &line);
    assert!(r.u64("events").unwrap() > 0);
    let text = fs::read_to_string(&out).unwrap();
    assert!(text.lines().next().unwrap().contains("pwu-trace-v1"));
    assert!(text.contains("serve.step"), "missing serve.step span");
    assert!(text.contains(r#""session":"tr1""#), "missing session arg");
    // `pwu-trace summarize` attributes the served run's checkpoint work:
    // encoding (create, steps), saving the generations, loading on resume,
    // and each step's parse of the resident body and restore of the loop;
    // and the evaluator derivation of the create and of the resume.
    let summary = pwu_obs::summarize(&text).expect("the export summarizes");
    for name in [
        "checkpoint.encode",
        "checkpoint.save",
        "checkpoint.load",
        "checkpoint.parse",
        "core.restore",
    ] {
        assert!(
            summary.get(name).is_some_and(|s| s.count > 0),
            "summarize lists no {name} span"
        );
    }
    assert!(
        summary
            .get("session.materialize")
            .is_some_and(|s| s.count >= 2),
        "the create and the resume each derive the evaluator in a session.materialize span"
    );
    assert!(
        text.lines()
            .filter(|l| l.contains(r#""name":"session.materialize""#))
            .any(|l| l.contains(r#""pool":"#) && l.contains(r#""test":"#)),
        "session.materialize carries its pool and test sizes"
    );

    // Chrome export of the (now drained, possibly refilled) buffer is a
    // JSON array Perfetto can load.
    send(&mut server, r#"{"cmd":"step","session":"tr1","n":1}"#);
    let out2 = dir.join("trace.chrome.json");
    let line = format!(
        r#"{{"cmd":"trace","action":"export","path":"{}","format":"chrome"}}"#,
        out2.display()
    );
    send(&mut server, &line);
    let chrome = fs::read_to_string(&out2).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));

    // Bad actions/formats/missing paths are typed protocol errors.
    assert_err(
        &send(&mut server, r#"{"cmd":"trace","action":"export"}"#),
        ErrorKind::BadRequest,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"trace","action":"pause"}"#),
        ErrorKind::BadRequest,
    );
    let r = send(&mut server, r#"{"cmd":"trace","action":"stop"}"#);
    assert_eq!(r.str("tracing"), Some("off"));
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite regression for the rayon shim's no-nested-pools rule: a
/// `fit_mode:"fast"` session fits its forest on the `PWU_THREADS` pool,
/// and the fleet tick *also* shards sessions over that pool — so at any
/// width above 1 every per-tree fit runs nested inside a pool worker and
/// must degrade to sequential instead of spawning (or deadlocking on) a
/// second thread tier. The fleet must complete and the digests must be
/// bit-identical to a width-1 run.
#[test]
fn fast_fleet_tick_nests_parallel_fits_without_deadlock_and_stays_width_invariant() {
    let fast_create = |id: &str, target: &str, seed: u64| {
        format!(
            r#"{{"cmd":"create","session":"{id}","target":"{target}","seed":{seed},"n_init":4,"n_batch":2,"n_max":10,"repeats":1,"n_trees":8,"eval_every":5,"pool_n":40,"test_n":20,"fit_mode":"fast"}}"#
        )
    };
    let mut digests_by_width: Vec<Vec<String>> = Vec::new();
    for width in [1usize, 4] {
        let dir = tmp(&format!("fast-tick-w{width}"));
        let before = rayon::current_num_threads();
        rayon::set_threads(width);
        let mut server = server_at(&dir);
        for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
            let created = send(
                &mut server,
                &fast_create(&format!("f{i}"), target, 300 + i as u64),
            );
            assert_eq!(created.str("fit_mode"), Some("fast"));
        }
        let stats = send(&mut server, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.u64("sessions_fast"), Some(3));
        assert_eq!(stats.u64("sessions_exact"), Some(0));
        for _ in 0..3 {
            let r = send(&mut server, r#"{"cmd":"tick"}"#);
            assert_eq!(r.u64("stepped"), Some(3), "tick stalled at width {width}");
        }
        let digests: Vec<String> = (0..3)
            .map(|i| {
                let q = send(
                    &mut server,
                    &format!(r#"{{"cmd":"query","session":"f{i}"}}"#),
                );
                assert_eq!(q.str("state"), Some("done"));
                q.str("digest").unwrap().to_string()
            })
            .collect();
        rayon::set_threads(before);
        digests_by_width.push(digests);
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(
        digests_by_width[0], digests_by_width[1],
        "fleet digests moved with the pool width"
    );
}

/// A checkpoint written under one fit mode must refuse to resume under the
/// other: the engines are bitwise-different, so continuing would silently
/// fork the trajectory. Simulates an operator flipping a durable session's
/// spec to `fast` (footer recomputed, so the file itself verifies).
#[test]
fn cross_mode_resume_is_refused_with_an_error_naming_the_fit_mode() {
    let dir = tmp("cross-mode");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("x", "adi", 31));
    send(&mut server, r#"{"cmd":"step","session":"x","n":1}"#);
    drop(server);

    let meta = dir.join("x").join("meta.pwu");
    let bytes = fs::read(&meta).unwrap();
    let body = pwu_core::checkpoint::split_verified_body(&bytes).unwrap();
    let flipped = body.replace("fit-mode exact", "fit-mode fast");
    assert_ne!(flipped, body, "spec must have carried the exact token");
    fs::write(&meta, pwu_core::checkpoint::with_integrity_footer(&flipped)).unwrap();

    let mut server = server_at(&dir);
    let q = send(&mut server, r#"{"cmd":"query","session":"x"}"#);
    assert_eq!(
        q.str("fit_mode"),
        Some("fast"),
        "echo must show the flipped mode"
    );
    send(&mut server, r#"{"cmd":"resume","session":"x"}"#);
    let r = send(&mut server, r#"{"cmd":"step","session":"x","n":1}"#);
    assert_err(&r, ErrorKind::Corrupt);
    let message = r.str("message").unwrap();
    assert!(
        message.contains("fit mode") && message.contains("exact") && message.contains("fast"),
        "error must name both fit modes: {message}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A session directory in the retired one-file-per-generation layout (its
/// checkpoints only in `gen-*.ckpt` files) is refused at resume with a typed
/// `corrupt` error naming that layout; nothing migrates it.
#[test]
fn a_session_in_the_retired_generation_file_layout_is_refused_at_resume() {
    let dir = tmp("retired-layout");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("old", "adi", 33));
    send(&mut server, r#"{"cmd":"step","session":"old","n":2}"#);
    drop(server);

    let store = GenerationStore::new(dir.join("old"));
    assert_eq!(newest_generation(&store), 2);
    for generation in 0..3 {
        let retired = dir.join("old").join(format!("gen-{generation:010}.ckpt"));
        fs::rename(store.path_for(generation), retired).unwrap();
    }

    let mut server = server_at(&dir);
    let r = send(&mut server, r#"{"cmd":"resume","session":"old"}"#);
    assert_err(&r, ErrorKind::Corrupt);
    let message = r.str("message").unwrap();
    assert!(
        message.contains("gen-*.ckpt") && message.contains("retired"),
        "the error must name the retired layout: {message}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tick_advances_the_whole_fleet_deterministically() {
    let dir = tmp("tick");
    let mut server = server_at(&dir);
    for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
        send(
            &mut server,
            &create_line(&format!("t{i}"), target, 100 + i as u64),
        );
    }
    // Tick the fleet to completion; (n_max - n_init) / n_batch = 3 steps.
    for round in 0..3 {
        let r = send(&mut server, r#"{"cmd":"tick"}"#);
        assert_eq!(r.u64("stepped"), Some(3));
        assert_eq!(r.u64("done"), Some(if round == 2 { 3 } else { 0 }));
    }
    let r = send(&mut server, r#"{"cmd":"tick"}"#);
    assert_eq!(r.u64("stepped"), Some(0));

    // The ticked fleet matches per-session stepping in a fresh server.
    let dir2 = tmp("tick-ref");
    let mut reference = server_at(&dir2);
    for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
        send(
            &mut reference,
            &create_line(&format!("t{i}"), target, 100 + i as u64),
        );
        send(
            &mut reference,
            &format!(r#"{{"cmd":"step","session":"t{i}","n":3}}"#),
        );
    }
    for i in 0..3 {
        let line = format!(r#"{{"cmd":"query","session":"t{i}"}}"#);
        let ticked = send(&mut server, &line);
        let stepped = send(&mut reference, &line);
        assert_eq!(ticked.str("digest"), stepped.str("digest"), "t{i}");
        assert_eq!(ticked.str("state"), Some("done"));
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

/// The integrity-footer checksum recorded in a durable file's last line.
fn footer_checksum(bytes: &[u8]) -> String {
    let text = std::str::from_utf8(bytes).expect("generations are text");
    let footer = text.lines().last().expect("a footer line");
    let words: Vec<&str> = footer.split(' ').collect();
    assert_eq!((words.len(), words[0]), (3, "footer"), "{footer}");
    words[2].to_string()
}

/// Asserts the response's `digest` is the footer checksum of generation
/// `generation` of session `id`, and `fnv1a64(to_text())` of the checkpoint
/// parsed from that file.
fn assert_digest_of_generation(fields: &Fields, dir: &Path, id: &str, generation: u64) {
    let digest = fields.str("digest").expect("the response carries a digest");
    let path = GenerationStore::new(dir.join(id)).path_for(generation);
    let bytes = fs::read(&path).expect("the generation file exists");
    assert_eq!(
        digest,
        footer_checksum(&bytes),
        "footer checksum of {}",
        path.display()
    );
    let checkpoint = verified(&path).expect("the generation verifies");
    let encoded = format!(
        "{:016x}",
        pwu_core::fnv1a64(checkpoint.to_text().as_bytes())
    );
    assert_eq!(digest, encoded, "fnv1a64(to_text()) of {}", path.display());
}

/// The checkpoint in slot file `path`, if its footer verifies and its body
/// parses.
fn verified(path: &Path) -> Option<ActiveCheckpoint> {
    let bytes = fs::read(path).ok()?;
    ActiveCheckpoint::from_text(split_verified_body(&bytes).ok()?).ok()
}

/// The newest generation on disk, found without the store's recovery: the
/// largest iteration among the slot files that verify.
fn newest_generation(store: &GenerationStore) -> u64 {
    (0..3)
        .filter_map(|slot| verified(&store.path_for(slot)))
        .map(|checkpoint| checkpoint.iteration)
        .max()
        .expect("the session has a generation")
}

/// Asserts the response's `digest` belongs to session `id`'s newest
/// generation, which is also the response's `generation`.
fn assert_digest_of_newest(fields: &Fields, dir: &Path, id: &str) -> String {
    let newest = newest_generation(&GenerationStore::new(dir.join(id)));
    assert_eq!(fields.u64("generation"), Some(newest), "{fields:?}");
    assert_digest_of_generation(fields, dir, id, newest);
    fields.str("digest").expect("checked above").to_string()
}

/// Every response that carries a `digest` carries the checksum of the
/// generation the session stands on: the newest durable one after create,
/// step, query, suspend/resume and restart/resume, the older one after a
/// resume that rolled back past a damaged newest generation. A step the
/// watchdog sheds leaves the digest unchanged.
#[test]
fn every_digest_is_the_checksum_of_the_durable_generation() {
    let dir = tmp("digest-contract");
    let mut server = server_at(&dir);
    let create = create_line("d", "adi", 51).replace(r#""n_max":10"#, r#""n_max":20"#);
    let created = send(&mut server, &create);
    let mut digest = assert_digest_of_newest(&created, &dir, "d");

    for n in [1, 3] {
        let r = send(
            &mut server,
            &format!(r#"{{"cmd":"step","session":"d","n":{n}}}"#),
        );
        assert_eq!(r.u64("steps"), Some(n), "{r:?}");
        let stepped = assert_digest_of_newest(&r, &dir, "d");
        assert_ne!(stepped, digest, "a committed step must move the digest");
        digest = stepped;
    }
    let q = send(&mut server, r#"{"cmd":"query","session":"d"}"#);
    assert_eq!(assert_digest_of_newest(&q, &dir, "d"), digest);

    let s = send(&mut server, r#"{"cmd":"suspend","session":"d"}"#);
    assert_eq!(
        s.str("digest"),
        None,
        "a suspended session holds no checkpoint"
    );
    let r = send(&mut server, r#"{"cmd":"resume","session":"d"}"#);
    assert_eq!(assert_digest_of_newest(&r, &dir, "d"), digest);

    drop(server);
    let mut server = server_at(&dir);
    let r = send(&mut server, r#"{"cmd":"resume","session":"d"}"#);
    assert_eq!(r.u64("rolled_back"), Some(0));
    assert_eq!(assert_digest_of_newest(&r, &dir, "d"), digest);

    // Damage the newest generation: resume rolls back to the older one and
    // reports that generation's checksum.
    send(&mut server, r#"{"cmd":"suspend","session":"d"}"#);
    let store = GenerationStore::new(dir.join("d"));
    let newest = newest_generation(&store);
    let older = newest - 1;
    let mut bytes = fs::read(store.path_for(newest)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    fs::write(store.path_for(newest), &bytes).unwrap();
    let r = send(&mut server, r#"{"cmd":"resume","session":"d"}"#);
    assert_eq!(r.u64("rolled_back"), Some(1));
    assert_eq!(r.u64("generation"), Some(older));
    assert_digest_of_generation(&r, &dir, "d", older);
    assert_ne!(r.str("digest"), Some(digest.as_str()));
    let _ = fs::remove_dir_all(&dir);

    // A shed step commits nothing, so the digest stays put.
    let dir = tmp("digest-shed");
    let watchdog = WatchdogPolicy {
        max_step_cost: 0.0,
        grace: RetryPolicy {
            max_retries: 3,
            backoff_cost: 0.0,
        },
    };
    let mut server = Server::open(&dir, AdmissionPolicy::default(), watchdog).unwrap();
    let created = send(&mut server, &create_line("w", "adi", 52));
    let digest = assert_digest_of_newest(&created, &dir, "w");
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_eq!((r.u64("steps"), r.u64("shed")), (Some(0), Some(1)), "{r:?}");
    assert_eq!(assert_digest_of_newest(&r, &dir, "w"), digest);
    let _ = fs::remove_dir_all(&dir);
}

/// The `stats` line's `resident_bytes`, and the summed body lengths
/// (footer excluded) of the resident sessions' newest slots.
fn resident_bytes(server: &mut Server, dir: &Path, ids: &[&str]) -> (Option<u64>, u64) {
    let on_disk = ids
        .iter()
        .filter(|id| server.session(id).unwrap().is_resident())
        .map(|id| {
            let store = GenerationStore::new(dir.join(id));
            let bytes = fs::read(store.path_for(newest_generation(&store))).unwrap();
            split_verified_body(&bytes).unwrap().len() as u64
        })
        .sum();
    let stats = send(server, r#"{"cmd":"stats"}"#);
    (stats.u64("resident_bytes"), on_disk)
}

/// A resident session holds the body of its newest generation, so the
/// `stats` line's `resident_bytes` is the summed body lengths of the
/// resident sessions' newest slots through create, step, suspend and
/// resume.
#[test]
fn resident_bytes_are_the_bodies_of_the_resident_generations() {
    let dir = tmp("resident-bytes");
    let mut server = server_at(&dir);
    let ids = ["a", "k"];
    send(&mut server, &create_line("a", "adi", 71));
    send(&mut server, &create_line("k", "kripke", 72));
    let (reported, on_disk) = resident_bytes(&mut server, &dir, &ids);
    assert!(on_disk > 0);
    assert_eq!(reported, Some(on_disk), "after create");

    send(&mut server, r#"{"cmd":"step","session":"a","n":1}"#);
    let (reported, stepped) = resident_bytes(&mut server, &dir, &ids);
    assert_ne!(stepped, on_disk, "a committed step changes the body");
    assert_eq!(reported, Some(stepped), "after a step");

    send(&mut server, r#"{"cmd":"suspend","session":"a"}"#);
    let (reported, suspended) = resident_bytes(&mut server, &dir, &ids);
    assert!(suspended < stepped);
    assert_eq!(reported, Some(suspended), "after suspend");

    send(&mut server, r#"{"cmd":"resume","session":"a"}"#);
    assert_eq!(
        resident_bytes(&mut server, &dir, &ids),
        (Some(stepped), stepped),
        "after resume"
    );
    let _ = fs::remove_dir_all(&dir);
}
