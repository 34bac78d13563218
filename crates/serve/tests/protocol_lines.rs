//! Generated protocol lines: a damaged request line gets one response that
//! parses, either `ok` or a typed `error`, and the server goes on to answer
//! the next line.
//!
//! Fifty generated cases each open a server holding one small session and
//! apply every kind of damage below to a valid request line drawn from
//! [`LINES`]: a flipped bit, a byte that is not UTF-8, a truncation, a
//! duplicated key, a field of the wrong type, the numbers −1, 1.5, 2^53 and
//! 1e308, a `\r\n` at the end or inside the line, a 1 MiB line, and a line
//! of arbitrary bytes. Each damaged line goes through [`Server::serve`]
//! on a byte reader, followed by a `stats` line, which must be answered.
//! A line of a megabyte of distinct keys must be answered in seconds, not
//! in the time a check per key against every earlier key takes. A line
//! longer than the server's cap gets a `bad-request` naming the cap, and
//! the server goes on; a line of exactly the cap reaches the parser.

use std::fs;
use std::io::{BufRead, BufReader, Cursor, Read};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use pwu_serve::protocol::{Fields, Value};
use pwu_serve::{parse_object, AdmissionPolicy, ErrorKind, Server, WatchdogPolicy};
use pwu_stats::Xoshiro256PlusPlus;

/// Valid request lines the damage starts from. The create is tiny (pool
/// 40, 8 trees, 2 repeats), so any create that survives damage stays
/// cheap. No line is a `shutdown`, which would end the loop before the
/// trailing `stats`, or a `trace` export, which would write wherever a
/// damaged path points.
const LINES: [&str; 8] = [
    r#"{"cmd":"create","session":"g","target":"adi","seed":3,"n_init":4,"n_batch":2,"n_max":8,"repeats":2,"n_trees":8,"eval_every":2,"pool_n":40,"test_n":20,"alpha":0.05,"strategy":"pwu:0.05"}"#,
    r#"{"cmd":"step","session":"s","n":1}"#,
    r#"{"cmd":"query","session":"s"}"#,
    r#"{"cmd":"suspend","session":"s"}"#,
    r#"{"cmd":"resume","session":"s"}"#,
    r#"{"cmd":"kill","session":"s"}"#,
    r#"{"cmd":"tick"}"#,
    r#"{"cmd":"stats"}"#,
];

/// The session every case's server holds before the damaged lines arrive.
const SETUP: &str = r#"{"cmd":"create","session":"s","target":"atax","seed":5,"n_init":4,"n_batch":2,"n_max":8,"repeats":2,"n_trees":8,"eval_every":2,"pool_n":40,"test_n":20}"#;

const STATS: &str = r#"{"cmd":"stats"}"#;

/// Kinds of damage; every case applies each.
const KINDS: u64 = 11;

/// The numbers a numeric field is replaced with.
const ODD_NUMBERS: [&str; 4] = ["-1", "1.5", "9007199254740992", "1e308"];

/// The `"key":value` fields of a flat request line.
fn fields(line: &str) -> Vec<&str> {
    line[1..line.len() - 1].split(',').collect()
}

/// `line` with field `at` replaced by `field`.
fn with_field(line: &str, at: usize, field: &str) -> String {
    let mut all = fields(line);
    all[at] = field;
    format!("{{{}}}", all.join(","))
}

/// Applies damage `kind` to `line`, with choices drawn from `rng`.
fn damage(line: &str, kind: u64, rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    #[allow(clippy::cast_possible_truncation)]
    let mut pick = |n: usize| (rng.next() % n as u64) as usize;
    let mut bytes = line.as_bytes().to_vec();
    match kind {
        0 => {
            let at = pick(bytes.len());
            bytes[at] ^= 1 << pick(8);
        }
        1 => {
            let at = pick(bytes.len());
            #[allow(clippy::cast_possible_truncation)]
            let byte = 0x80 + pick(0x80) as u8;
            bytes[at] = byte;
        }
        2 => bytes.truncate(pick(bytes.len())),
        3 => {
            let all = fields(line);
            let copy = all[pick(all.len())];
            bytes = format!("{},{copy}}}", &line[..line.len() - 1]).into_bytes();
        }
        4 => {
            let all = fields(line);
            let at = pick(all.len());
            let (key, value) = all[at].split_once(':').expect("a field");
            let other = if value.starts_with('"') {
                ["7", "true"][pick(2)]
            } else {
                [r#""7""#, "false"][pick(2)]
            };
            bytes = with_field(line, at, &format!("{key}:{other}")).into_bytes();
        }
        5 => {
            // A numeric field where the line has one, else any field.
            let all = fields(line);
            let numeric: Vec<usize> = (0..all.len()).filter(|&i| !all[i].ends_with('"')).collect();
            let at = if numeric.is_empty() {
                pick(all.len())
            } else {
                numeric[pick(numeric.len())]
            };
            let key = all[at].split_once(':').expect("a field").0;
            let number = ODD_NUMBERS[pick(ODD_NUMBERS.len())];
            bytes = with_field(line, at, &format!("{key}:{number}")).into_bytes();
        }
        6 => bytes.push(b'\r'),
        7 => {
            let at = pick(bytes.len() + 1);
            bytes.splice(at..at, *b"\r\n");
        }
        8 => {
            let at = pick(bytes.len() + 1);
            let byte = [b' ', b'x', b'9', b'"', 0xC3][pick(5)];
            bytes.splice(at..at, std::iter::repeat_n(byte, 1 << 20));
        }
        9 => {
            #[allow(clippy::cast_possible_truncation)]
            let arbitrary: Vec<u8> = (0..1 + pick(64)).map(|_| pick(256) as u8).collect();
            bytes = arbitrary;
        }
        _ => {
            // Partial lines: a byte deleted.
            bytes.remove(pick(bytes.len()));
        }
    }
    bytes
}

/// The lines `serve` answers in `input`: every line but a blank UTF-8 one.
fn answered_lines(input: &[u8]) -> usize {
    input
        .split(|&b| b == b'\n')
        .filter(|line| std::str::from_utf8(line).map_or(true, |l| !l.trim().is_empty()))
        .count()
}

/// Whether `response` is `ok`, or not `ok` with a typed error kind and a
/// message. `internal` is left out: it reports a failure of the server's
/// own I/O or checkpoints, which no damaged request line may cause.
fn is_typed(response: &Fields) -> bool {
    const ERROR_KINDS: [ErrorKind; 7] = [
        ErrorKind::BadRequest,
        ErrorKind::Overloaded,
        ErrorKind::UnknownSession,
        ErrorKind::SessionExists,
        ErrorKind::BadState,
        ErrorKind::Degraded,
        ErrorKind::Corrupt,
    ];
    match (response.get("ok"), response.str("error")) {
        (Some(Value::Bool(true)), None) => true,
        (Some(Value::Bool(false)), Some(token)) => {
            ERROR_KINDS.iter().any(|k| k.token() == token) && response.str("message").is_some()
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn damaged_request_lines_get_typed_responses_and_the_server_goes_on(
        seed in 0u64..=u64::MAX,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("pwu-serve-protocol-lines-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut server =
            Server::open(&dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap();
        let (setup, _) = server.handle_line(SETUP);
        prop_assert!(setup.contains(r#""ok":true"#), "{}", setup);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        for kind in 0..KINDS {
            #[allow(clippy::cast_possible_truncation)]
            let line = LINES[(rng.next() % LINES.len() as u64) as usize];
            let mut input = damage(line, kind, &mut rng);
            input.push(b'\n');
            input.extend_from_slice(STATS.as_bytes());
            input.push(b'\n');

            let mut output = Vec::new();
            server.serve(input.as_slice(), &mut output).unwrap();
            let output = String::from_utf8(output).unwrap();
            let responses: Vec<Fields> = output
                .lines()
                .map(|response| {
                    parse_object(response)
                        .unwrap_or_else(|e| panic!("kind {kind}: unparseable '{response}': {e}"))
                })
                .collect();
            prop_assert_eq!(responses.len(), answered_lines(&input), "kind {}", kind);
            for response in &responses {
                prop_assert!(is_typed(response), "kind {}: {:?}", kind, response);
            }
            let stats = responses.last().expect("the stats line is answered");
            prop_assert!(stats.u64("sessions").is_some(), "kind {}: {:?}", kind, stats);
            if kind == 1 {
                prop_assert_eq!(responses[0].str("error"), Some("bad-request"));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A line of 100 000 distinct keys (over a megabyte) and one duplicate is
/// a typed `bad-request` naming the duplicate, answered in a few seconds
/// even in a debug build: checking each key against every earlier one took
/// 14 s on a line of 90 000 keys in a release build.
#[test]
fn a_megabyte_of_distinct_keys_is_answered_promptly() {
    let dir = std::env::temp_dir().join(format!("pwu-serve-many-keys-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut server =
        Server::open(&dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap();
    let keys: Vec<String> = (0..100_000).map(|i| format!(r#""k{i}":1"#)).collect();
    let input = format!("{{{},\"k7\":2}}\n{STATS}\n", keys.join(","));
    assert!(input.len() > 1 << 20);

    let started = Instant::now();
    let mut output = Vec::new();
    server.serve(input.as_bytes(), &mut output).unwrap();
    let elapsed = started.elapsed();
    let output = String::from_utf8(output).unwrap();
    let responses: Vec<Fields> = output.lines().map(|l| parse_object(l).unwrap()).collect();
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].str("error"), Some("bad-request"));
    assert_eq!(responses[0].str("message"), Some("duplicate key 'k7'"));
    assert!(responses[1].u64("sessions").is_some());
    assert!(
        elapsed < Duration::from_secs(5),
        "a line of 100 000 keys took {elapsed:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The server's request-line cap in bytes (`MAX_LINE_BYTES` in server.rs).
const LINE_CAP: u64 = 2 << 20;

/// Serves `input` on a fresh server and parses every response.
fn serve_responses(name: &str, input: impl BufRead) -> Vec<Fields> {
    let dir = std::env::temp_dir().join(format!("pwu-serve-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut server =
        Server::open(&dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap();
    let mut output = Vec::new();
    server.serve(input, &mut output).unwrap();
    let _ = fs::remove_dir_all(&dir);
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| parse_object(l).unwrap())
        .collect()
}

/// `n` bytes of `x`, produced as they are read.
fn filler(n: u64) -> impl Read {
    std::io::repeat(b'x').take(n)
}

fn assert_cap_error(response: &Fields) {
    assert_eq!(response.str("error"), Some("bad-request"));
    assert_eq!(
        response.str("message"),
        Some(format!("request line longer than {LINE_CAP} bytes").as_str())
    );
}

#[test]
fn a_line_past_the_cap_is_refused_and_the_server_goes_on() {
    let input = filler(LINE_CAP + 1).chain(Cursor::new(format!("\n{STATS}\n")));
    let responses = serve_responses("past-cap", BufReader::new(input));
    assert_eq!(responses.len(), 2);
    assert_cap_error(&responses[0]);
    assert!(responses[1].u64("sessions").is_some(), "{:?}", responses[1]);
}

#[test]
fn a_line_of_exactly_the_cap_reaches_the_parser() {
    let padding = LINE_CAP - STATS.len() as u64;
    let input = STATS
        .as_bytes()
        .chain(std::io::repeat(b' ').take(padding))
        .chain(&b"\n"[..]);
    let responses = serve_responses("at-cap", BufReader::new(input));
    assert_eq!(responses.len(), 1);
    assert!(responses[0].u64("sessions").is_some(), "{:?}", responses[0]);
}

#[test]
fn an_over_long_last_line_without_a_newline_is_refused() {
    let input = Cursor::new(format!("{STATS}\n")).chain(filler(LINE_CAP + 1));
    let responses = serve_responses("last-line", BufReader::new(input));
    assert_eq!(responses.len(), 2);
    assert!(responses[0].u64("sessions").is_some(), "{:?}", responses[0]);
    assert_cap_error(&responses[1]);
}
