//! The framed wire protocol: one flat JSON object per line.
//!
//! The workspace is dependency-free, so this module carries its own parser
//! for the subset of JSON the service speaks: a single-level object whose
//! values are strings, numbers or booleans — no nesting, no arrays, no
//! null. One request per line in, one response per line out; the framing is
//! the newline, so a crashed client can never leave the server mid-message.
//!
//! Responses are built with [`ObjectWriter`] so every reply is a valid
//! object in a deterministic field order (insertion order — the server
//! never iterates a hash map to serialize).

use std::fmt;
use std::fmt::Write as _;

/// A scalar protocol value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

/// Error kinds a response can carry; each is one stable wire token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid protocol object or missed fields.
    BadRequest,
    /// Admission control refused the request; retry later or shed load.
    Overloaded,
    /// The named session does not exist.
    UnknownSession,
    /// A `create` named a session that already exists.
    SessionExists,
    /// The session is not in a state that allows this command.
    BadState,
    /// The session's watchdog tripped; the step was aborted and the
    /// session marked degraded.
    Degraded,
    /// Durable state on disk is damaged beyond rollback.
    Corrupt,
    /// An internal failure (I/O, panic during a step).
    Internal,
}

impl ErrorKind {
    /// The stable wire token for this kind.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnknownSession => "unknown-session",
            ErrorKind::SessionExists => "session-exists",
            ErrorKind::BadState => "bad-state",
            ErrorKind::Degraded => "degraded",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol-level error: kind plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The machine-readable kind.
    pub kind: ErrorKind,
    /// The human-readable explanation.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error of `kind` with `message`.
    #[must_use]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    /// Serializes as an `{"ok":false,...}` response line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.bool("ok", false);
        w.str("error", self.kind.token());
        w.str("message", &self.message);
        w.finish()
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.token(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// The parsed fields of one request object, in wire order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(Vec<(String, Value)>);

impl Fields {
    /// The raw value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`, if present and a string.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of `key`, if present and a number.
    #[must_use]
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value of `key` as a `u64`, rejecting negatives and
    /// fractions.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        let n = self.f64(key)?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Like [`Fields::u64`] but as a `usize`.
    #[must_use]
    pub fn usize(&self, key: &str) -> Option<usize> {
        usize::try_from(self.u64(key)?).ok()
    }
}

fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorKind::BadRequest, message)
}

/// Parses one `{"key":value,...}` line into [`Fields`].
///
/// # Errors
/// Returns a [`ErrorKind::BadRequest`] error describing the first syntax
/// problem: non-object lines, nested values, duplicate keys, trailing
/// garbage.
pub fn parse_object(line: &str) -> Result<Fields, ProtocolError> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut fields: Vec<(String, Value)> = Vec::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(bad("expected an object: line must start with '{'")),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(text, &mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                _ => return Err(bad(format!("expected ':' after key '{key}'"))),
            }
            skip_ws(&mut chars);
            let value = parse_value(text, &mut chars)?;
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => break,
                _ => return Err(bad("expected ',' or '}' after a value")),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(bad("trailing characters after the closing '}'"));
    }
    // One sort finds every duplicate, so a line of n keys costs n log n
    // compares where a scan per key would cost n². Lookups do not depend
    // on the fields' order.
    fields.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    if let Some(pair) = fields.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        return Err(bad(format!("duplicate key '{}'", pair[0].0)));
    }
    Ok(Fields(fields))
}

fn parse_string(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, ProtocolError> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err(bad("expected '\"'")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let Some((_, h)) = chars.next() else {
                            return Err(bad("truncated \\u escape"));
                        };
                        let d = h
                            .to_digit(16)
                            .ok_or_else(|| bad("non-hex digit in \\u escape"))?;
                        code = code * 16 + d;
                    }
                    // Surrogate halves are rejected rather than paired — the
                    // protocol never needs astral-plane escapes.
                    let c = char::from_u32(code)
                        .ok_or_else(|| bad("\\u escape is not a scalar value"))?;
                    out.push(c);
                }
                other => {
                    return Err(bad(format!("unsupported escape {other:?}")));
                }
            },
            Some((_, c)) if (c as u32) >= 0x20 => out.push(c),
            Some((_, _)) => return Err(bad("raw control character in string")),
            None => {
                let _ = text;
                return Err(bad("unterminated string"));
            }
        }
    }
}

fn parse_value(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<Value, ProtocolError> {
    match chars.peek().copied() {
        Some((_, '"')) => Ok(Value::Str(parse_string(text, chars)?)),
        Some((_, 't')) => {
            expect_word(chars, "true")?;
            Ok(Value::Bool(true))
        }
        Some((_, 'f')) => {
            expect_word(chars, "false")?;
            Ok(Value::Bool(false))
        }
        Some((start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while matches!(
                chars.peek(),
                Some((_, c)) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
            ) {
                let (i, c) = chars.next().expect("peeked");
                end = i + c.len_utf8();
            }
            let tok = &text[start..end];
            tok.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| bad(format!("bad number '{tok}'")))
        }
        Some((_, '{' | '[')) => Err(bad("nested objects/arrays are not supported")),
        _ => Err(bad("expected a string, number or boolean value")),
    }
}

fn expect_word(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    word: &str,
) -> Result<(), ProtocolError> {
    for expected in word.chars() {
        match chars.next() {
            Some((_, c)) if c == expected => {}
            _ => return Err(bad(format!("expected literal '{word}'"))),
        }
    }
    Ok(())
}

/// Escapes a string for embedding in a protocol line.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds one response object in insertion order.
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (shortest round-trip formatting).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            // JSON has no inf/NaN; the protocol encodes them as strings.
            let _ = write!(self.buf, "\"{value}\"");
        }
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a session; `fields` carries the session spec.
    Create {
        /// Client-chosen session id.
        session: String,
        /// Remaining request fields (target, strategy, sizes, seed).
        fields: Fields,
    },
    /// Advance a session by `n` iterations.
    Step {
        /// The session to step.
        session: String,
        /// Iterations requested (admission may refuse large values).
        n: usize,
    },
    /// Report a session's state without touching it.
    Query {
        /// The session to inspect.
        session: String,
    },
    /// Flush and unload a session from memory (it stays on disk).
    Suspend {
        /// The session to suspend.
        session: String,
    },
    /// Load a session from its last durable generation and mark it active.
    Resume {
        /// The session to resume.
        session: String,
    },
    /// Delete a session and its durable state.
    Kill {
        /// The session to kill.
        session: String,
    },
    /// Advance every active session by one iteration, sharded across the
    /// thread pool.
    Tick,
    /// Report server-wide statistics.
    Stats,
    /// Control the in-process tracer: start/stop recording or export the
    /// buffered trace to a file.
    Trace {
        /// Subcommand: `start`, `stop`, or `export`.
        action: String,
        /// Destination path (`export` only).
        path: Option<String>,
        /// Export format: `jsonl` (default) or `chrome` (`export` only).
        format: String,
    },
    /// Stop the serve loop after responding.
    Shutdown,
}

/// Reads optional field `key` through `get`: `Ok(None)` when absent, a typed
/// `bad-request` naming `want` when present but of the wrong type or range.
pub(crate) fn field<'a, T>(
    fields: &'a Fields,
    key: &str,
    get: impl Fn(&'a Fields, &str) -> Option<T>,
    want: &str,
) -> Result<Option<T>, ProtocolError> {
    match fields.get(key) {
        None => Ok(None),
        Some(_) => get(fields, key)
            .map(Some)
            .ok_or_else(|| bad(format!("field '{key}' must be {want}"))),
    }
}

/// Parses one request line.
///
/// # Errors
/// Returns a [`ErrorKind::BadRequest`] error on syntax problems, unknown
/// commands, missing required fields or optional fields that are present
/// but mistyped (an absent optional field keeps its default).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let fields = parse_object(line)?;
    let cmd = fields
        .str("cmd")
        .ok_or_else(|| bad("missing string field 'cmd'"))?
        .to_string();
    let session = |fields: &Fields| -> Result<String, ProtocolError> {
        let id = fields
            .str("session")
            .ok_or_else(|| bad("missing string field 'session'"))?;
        validate_session_id(id)?;
        Ok(id.to_string())
    };
    match cmd.as_str() {
        "create" => Ok(Request::Create {
            session: session(&fields)?,
            fields,
        }),
        "step" => Ok(Request::Step {
            session: session(&fields)?,
            n: field(&fields, "n", Fields::usize, "a non-negative integer")?.unwrap_or(1),
        }),
        "query" => Ok(Request::Query {
            session: session(&fields)?,
        }),
        "suspend" => Ok(Request::Suspend {
            session: session(&fields)?,
        }),
        "resume" => Ok(Request::Resume {
            session: session(&fields)?,
        }),
        "kill" => Ok(Request::Kill {
            session: session(&fields)?,
        }),
        "tick" => Ok(Request::Tick),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace {
            action: fields
                .str("action")
                .ok_or_else(|| bad("missing string field 'action' (start/stop/export)"))?
                .to_string(),
            path: fields.str("path").map(str::to_string),
            format: field(&fields, "format", Fields::str, "a string")?
                .unwrap_or("jsonl")
                .to_string(),
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!(
            "unknown command '{other}' (expected create/step/query/suspend/resume/kill/tick/stats/trace/shutdown)"
        ))),
    }
}

/// Checks that a session id is safe to use as a directory name: 1–64
/// characters from `[A-Za-z0-9._-]`, not starting with a dot.
///
/// # Errors
/// Returns a [`ErrorKind::BadRequest`] error otherwise.
pub fn validate_session_id(id: &str) -> Result<(), ProtocolError> {
    let ok_len = !id.is_empty() && id.len() <= 64;
    let ok_chars = id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok_len && ok_chars && !id.starts_with('.') {
        Ok(())
    } else {
        Err(bad(format!(
            "invalid session id '{id}': need 1-64 chars from [A-Za-z0-9._-], not starting with '.'"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let f =
            parse_object(r#"{"cmd":"create","n":3,"alpha":0.05,"warm":true,"s":"a b"}"#).unwrap();
        assert_eq!(f.str("cmd"), Some("create"));
        assert_eq!(f.usize("n"), Some(3));
        assert_eq!(f.f64("alpha"), Some(0.05));
        assert_eq!(f.get("warm"), Some(&Value::Bool(true)));
        assert_eq!(f.str("s"), Some("a b"));
        assert_eq!(f.str("missing"), None);
        assert!(parse_object("{}").unwrap().get("x").is_none());
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "",
            "step",
            "{\"a\":1",
            "{\"a\":1}x",
            "{\"a\":{}}",
            "{\"a\":[1]}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":nul}",
            "{\"a\":\"unterminated}",
        ] {
            let err = parse_object(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\r\u{1}f";
        let line = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let f = parse_object(&line).unwrap();
        assert_eq!(f.str("k"), Some(nasty));
    }

    #[test]
    fn negative_and_fractional_numbers_are_not_counts() {
        let f = parse_object(r#"{"a":-3,"b":1.5,"c":7}"#).unwrap();
        assert_eq!(f.u64("a"), None);
        assert_eq!(f.u64("b"), None);
        assert_eq!(f.u64("c"), Some(7));
        assert_eq!(f.f64("a"), Some(-3.0));
    }

    #[test]
    fn request_parsing_covers_all_commands() {
        assert!(matches!(
            parse_request(r#"{"cmd":"step","session":"s1","n":4}"#),
            Ok(Request::Step { n: 4, .. })
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"step","session":"s1"}"#),
            Ok(Request::Step { n: 1, .. })
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"tick"}"#),
            Ok(Request::Tick)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"trace","action":"export","path":"/tmp/t.jsonl"}"#),
            Ok(Request::Trace { format, .. }) if format == "jsonl"
        ));
        // A present but mistyped optional field is a bad request naming the
        // field, never its default.
        for (line, key) in [
            (r#"{"cmd":"step","session":"s1","n":"4"}"#, "'n'"),
            (r#"{"cmd":"step","session":"s1","n":-3}"#, "'n'"),
            (r#"{"cmd":"step","session":"s1","n":2.5}"#, "'n'"),
            (r#"{"cmd":"step","session":"s1","n":1e20}"#, "'n'"),
            (
                r#"{"cmd":"trace","action":"export","path":"t.jsonl","format":5}"#,
                "'format'",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line}");
            assert!(err.message.contains(key), "{line}: {}", err.message);
        }
        assert!(parse_request(r#"{"cmd":"trace"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"nope"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"kill"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"kill","session":"../etc"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"kill","session":".hidden"}"#).is_err());
    }

    #[test]
    fn object_writer_emits_parseable_lines() {
        let mut w = ObjectWriter::new();
        w.bool("ok", true);
        w.str("state", "active");
        w.u64("iteration", 12);
        w.f64("cost", 1.5);
        w.f64("inf", f64::INFINITY);
        let line = w.finish();
        let f = parse_object(&line).unwrap();
        assert_eq!(f.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(f.str("state"), Some("active"));
        assert_eq!(f.u64("iteration"), Some(12));
        assert_eq!(f.f64("cost"), Some(1.5));
        assert_eq!(f.str("inf"), Some("inf"));
    }

    #[test]
    fn error_lines_carry_typed_kinds() {
        let e = ProtocolError::new(ErrorKind::Overloaded, "queue full");
        let f = parse_object(&e.to_line()).unwrap();
        assert_eq!(f.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(f.str("error"), Some("overloaded"));
        assert_eq!(f.str("message"), Some("queue full"));
        assert!(e.to_string().contains("overloaded"));
    }
}
