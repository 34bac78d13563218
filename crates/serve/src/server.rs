//! The multi-session server: registry, dispatch, sharded ticks.
//!
//! One [`Server`] owns a state directory, a `BTreeMap` session registry
//! (sorted — serialization and parallel ticks iterate it in a
//! deterministic order), an admission policy and a watchdog policy.
//! [`Server::serve`] runs the framed line loop;
//! [`Server::handle`] is the same dispatch exposed for in-process use
//! (tests, the chaos harness and the load generator drive it directly).
//!
//! Crash safety is inherited, not bolted on: every committed step persisted
//! a generation before the response went out, so killing the process at
//! *any* point loses at most the uncommitted step in flight.
//! [`Server::open`] re-attaches every session directory it finds.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

use rayon::prelude::*;

use crate::admission::AdmissionPolicy;
use crate::protocol::{
    field, parse_request, ErrorKind, Fields, ObjectWriter, ProtocolError, Request,
};
use crate::session::{parse_strategy, session_dir, Session, SessionSpec, SessionState, StepReport};
use crate::watchdog::WatchdogPolicy;

/// Monotonic counters the `stats` command reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions created.
    pub created: usize,
    /// Steps committed (durable generations written by steps).
    pub steps_committed: usize,
    /// Step attempts discarded by the watchdog (strikes).
    pub steps_shed: usize,
    /// Sessions that entered the degraded state.
    pub degraded: usize,
    /// Requests refused by admission control.
    pub overloaded: usize,
    /// Successful resumes.
    pub resumes: usize,
    /// Damaged checkpoint slots removed across all resumes.
    pub rolled_back: usize,
    /// Session directories skipped at open because their spec was corrupt.
    pub skipped_corrupt: usize,
}

/// Registry mirrors of [`ServerStats`], registered once per process so the
/// serve `stats` verb, trace exports and `pwu-trace summarize` all report
/// the same unified counter snapshot. Deterministic plane: for a given
/// request stream every tally is schedule-invariant (the parallel `tick`
/// folds its shard reports in registry order, after the barrier).
struct ServeCounters {
    created: pwu_obs::Counter,
    steps_committed: pwu_obs::Counter,
    steps_shed: pwu_obs::Counter,
    degraded: pwu_obs::Counter,
    overloaded: pwu_obs::Counter,
    resumes: pwu_obs::Counter,
    rolled_back: pwu_obs::Counter,
    skipped_corrupt: pwu_obs::Counter,
}

/// The process-wide [`ServeCounters`] handles (registered on first use).
fn serve_counters() -> &'static ServeCounters {
    static COUNTERS: std::sync::OnceLock<ServeCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| ServeCounters {
        created: pwu_obs::counter("serve.created"),
        steps_committed: pwu_obs::counter("serve.steps_committed"),
        steps_shed: pwu_obs::counter("serve.steps_shed"),
        degraded: pwu_obs::counter("serve.degraded"),
        overloaded: pwu_obs::counter("serve.overloaded"),
        resumes: pwu_obs::counter("serve.resumes"),
        rolled_back: pwu_obs::counter("serve.rolled_back"),
        skipped_corrupt: pwu_obs::counter("serve.skipped_corrupt"),
    })
}

/// The longest request line [`Server::serve`] reads, in bytes before its
/// `\n`. Past it the rest of the line is discarded as it arrives, so a
/// client that never sends `\n` cannot grow the server.
const MAX_LINE_BYTES: usize = 2 << 20;

/// A multi-session tuning server rooted at a state directory.
#[derive(Debug)]
pub struct Server {
    state_dir: PathBuf,
    admission: AdmissionPolicy,
    watchdog: WatchdogPolicy,
    sessions: BTreeMap<String, Session>,
    stats: ServerStats,
}

impl Server {
    /// Opens a server over `state_dir`, re-attaching every session
    /// directory found there (each comes up suspended; `resume` loads it).
    /// Directories whose spec fails integrity verification are skipped and
    /// counted in [`ServerStats::skipped_corrupt`] — one damaged session
    /// must not block the rest of the fleet.
    ///
    /// # Errors
    /// Returns an I/O error when the state directory cannot be created or
    /// scanned.
    pub fn open(
        state_dir: impl Into<PathBuf>,
        admission: AdmissionPolicy,
        watchdog: WatchdogPolicy,
    ) -> std::io::Result<Self> {
        let state_dir = state_dir.into();
        fs::create_dir_all(&state_dir)?;
        let mut names: Vec<String> = fs::read_dir(&state_dir)?
            .filter_map(Result::ok)
            .filter(|e| e.path().join("meta.pwu").is_file())
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .collect();
        names.sort_unstable();
        let mut sessions = BTreeMap::new();
        let mut skipped_corrupt = 0;
        for name in names {
            match Session::attach(&session_dir(&state_dir, &name)) {
                Ok(session) => {
                    sessions.insert(name, session);
                }
                Err(_) => skipped_corrupt += 1,
            }
        }
        serve_counters().skipped_corrupt.add(skipped_corrupt as u64);
        pwu_obs::event(
            "serve.open",
            [
                ("sessions", pwu_obs::Arg::u(sessions.len() as u64)),
                ("skipped_corrupt", pwu_obs::Arg::u(skipped_corrupt as u64)),
            ],
        );
        Ok(Self {
            state_dir,
            admission,
            watchdog,
            sessions,
            stats: ServerStats {
                skipped_corrupt,
                ..ServerStats::default()
            },
        })
    }

    /// The state directory this server persists into.
    #[must_use]
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// The monotonic counters so far.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Registered session count (any state).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Read-only view of a session.
    #[must_use]
    pub fn session(&self, id: &str) -> Option<&Session> {
        self.sessions.get(id)
    }

    fn resident_count(&self) -> usize {
        self.sessions.values().filter(|s| s.is_resident()).count()
    }

    /// The summed packed row bytes of the resident sessions.
    fn resident_bytes(&self) -> usize {
        self.sessions.values().map(Session::resident_bytes).sum()
    }

    /// Runs the framed line loop until EOF or a `shutdown` request: one
    /// request per line in, one response per line out. A line is read as
    /// bytes up to its `\n`; one that is not UTF-8, or longer than 2 MiB
    /// (`MAX_LINE_BYTES`), is answered with a typed `bad-request`, like any
    /// other malformed request.
    ///
    /// # Errors
    /// Returns an I/O error when the transport fails; protocol errors are
    /// answered in-band and never abort the loop.
    pub fn serve(
        &mut self,
        mut reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<()> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let limit = MAX_LINE_BYTES as u64 + 1;
            if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
                break;
            }
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            let fits = line.len() <= MAX_LINE_BYTES;
            if !fits {
                reader.skip_until(b'\n')?;
            }
            // A `\r` before the `\n` is trimmed with the line's other
            // surrounding whitespace.
            let (response, shutdown) = match std::str::from_utf8(&line) {
                _ if !fits => (
                    ProtocolError::new(
                        ErrorKind::BadRequest,
                        format!("request line longer than {MAX_LINE_BYTES} bytes"),
                    )
                    .to_line(),
                    false,
                ),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle_line(line),
                Err(e) => (
                    ProtocolError::new(ErrorKind::BadRequest, e.to_string()).to_line(),
                    false,
                ),
            };
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if shutdown {
                break;
            }
        }
        Ok(())
    }

    /// Parses and dispatches one request line. Returns the response line
    /// and whether the serve loop should stop.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        match parse_request(line) {
            Ok(request) => self.handle(request),
            Err(e) => (e.to_line(), false),
        }
    }

    /// Dispatches one parsed request. Returns the response line and whether
    /// the serve loop should stop.
    pub fn handle(&mut self, request: Request) -> (String, bool) {
        let result = match request {
            Request::Create { session, fields } => self.create(&session, &fields),
            Request::Step { session, n } => self.step(&session, n),
            Request::Query { session } => self.query(&session),
            Request::Suspend { session } => self.suspend(&session),
            Request::Resume { session } => self.resume(&session),
            Request::Kill { session } => self.kill(&session),
            Request::Tick => Ok(self.tick()),
            Request::Stats => Ok(self.stats_line()),
            Request::Trace {
                action,
                path,
                format,
            } => self.trace(&action, path.as_deref(), &format),
            Request::Shutdown => {
                let mut w = ObjectWriter::new();
                w.bool("ok", true);
                w.str("bye", "shutting down");
                return (w.finish(), true);
            }
        };
        match result {
            Ok(line) => (line, false),
            Err(e) => {
                if e.kind == ErrorKind::Overloaded {
                    self.stats.overloaded += 1;
                    serve_counters().overloaded.incr();
                }
                if e.kind == ErrorKind::Degraded {
                    self.stats.degraded += 1;
                    serve_counters().degraded.incr();
                }
                (e.to_line(), false)
            }
        }
    }

    fn get_mut(&mut self, id: &str) -> Result<&mut Session, ProtocolError> {
        self.sessions.get_mut(id).ok_or_else(|| {
            ProtocolError::new(ErrorKind::UnknownSession, format!("no session '{id}'"))
        })
    }

    fn create(&mut self, id: &str, fields: &Fields) -> Result<String, ProtocolError> {
        if self.sessions.contains_key(id) {
            return Err(ProtocolError::new(
                ErrorKind::SessionExists,
                format!("session '{id}' already exists"),
            ));
        }
        self.admission.admit_create(self.sessions.len())?;
        self.admission.admit_resident(self.resident_count())?;
        let spec = spec_from_fields(fields)?;
        let _span = pwu_obs::span("serve.create", [("session", pwu_obs::Arg::s(id))]);
        let session = Session::create(&session_dir(&self.state_dir, id), spec)?;
        let line = session_line(id, &session).finish();
        self.sessions.insert(id.to_string(), session);
        self.stats.created += 1;
        serve_counters().created.incr();
        Ok(line)
    }

    fn step(&mut self, id: &str, n: usize) -> Result<String, ProtocolError> {
        self.admission.admit_steps(n)?;
        let watchdog = self.watchdog;
        let _span = pwu_obs::span(
            "serve.step",
            [
                ("session", pwu_obs::Arg::s(id)),
                ("n", pwu_obs::Arg::u(n as u64)),
            ],
        );
        let session = self.get_mut(id)?;
        let mut committed = 0u64;
        let mut shed = 0u64;
        let mut last = StepReport {
            committed: false,
            done: false,
            step_cost: 0.0,
            state: session.state(),
        };
        let mut error = None;
        for _ in 0..n {
            match session.step(&watchdog) {
                Ok(report) => {
                    if report.committed {
                        committed += 1;
                    } else if !report.done {
                        shed += 1;
                    }
                    last = report;
                    if report.done {
                        break;
                    }
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            self.stats.steps_committed += committed as usize;
            self.stats.steps_shed += shed as usize;
        }
        serve_counters().steps_committed.add(committed);
        serve_counters().steps_shed.add(shed);
        if let Some(e) = error {
            if committed == 0 {
                // handle() tallies the degraded/overloaded stats on the Err
                // path; no double count here.
                return Err(e);
            }
            // Partial progress: report what landed plus the error token.
            if e.kind == ErrorKind::Degraded {
                self.stats.degraded += 1;
                serve_counters().degraded.incr();
            }
            let mut w = session_line(id, self.get_mut(id)?);
            w.u64("steps", committed)
                .u64("shed", shed)
                .str("error", e.kind.token());
            return Ok(w.finish());
        }
        let mut w = session_line(id, self.get_mut(id)?);
        w.u64("steps", committed)
            .u64("shed", shed)
            .f64("step_cost", last.step_cost);
        Ok(w.finish())
    }

    fn query(&mut self, id: &str) -> Result<String, ProtocolError> {
        Ok(session_line(id, self.get_mut(id)?).finish())
    }

    fn suspend(&mut self, id: &str) -> Result<String, ProtocolError> {
        let session = self.get_mut(id)?;
        session.suspend();
        pwu_obs::event("serve.suspend", [("session", pwu_obs::Arg::s(id))]);
        Ok(session_line(id, session).finish())
    }

    fn resume(&mut self, id: &str) -> Result<String, ProtocolError> {
        let resident = self.resident_count();
        let session = self.get_mut(id)?;
        if !session.is_resident() {
            self.admission.admit_resident(resident)?;
        }
        let session = self.get_mut(id)?;
        let rolled_back = session.resume()?;
        pwu_obs::event(
            "serve.resume",
            [
                ("session", pwu_obs::Arg::s(id)),
                ("rolled_back", pwu_obs::Arg::u(rolled_back as u64)),
            ],
        );
        self.stats.resumes += 1;
        self.stats.rolled_back += rolled_back;
        serve_counters().resumes.incr();
        serve_counters().rolled_back.add(rolled_back as u64);
        let mut w = session_line(id, self.get_mut(id)?);
        w.u64("rolled_back", rolled_back as u64);
        Ok(w.finish())
    }

    fn kill(&mut self, id: &str) -> Result<String, ProtocolError> {
        let session = self.sessions.remove(id).ok_or_else(|| {
            ProtocolError::new(ErrorKind::UnknownSession, format!("no session '{id}'"))
        })?;
        session.destroy(&session_dir(&self.state_dir, id))?;
        pwu_obs::event("serve.kill", [("session", pwu_obs::Arg::s(id))]);
        let mut w = ObjectWriter::new();
        w.bool("ok", true);
        w.str("session", id);
        w.str("state", "killed");
        Ok(w.finish())
    }

    /// Advances every active session by one iteration, sharded across the
    /// `PWU_THREADS` pool. Sessions are fully independent (each owns its
    /// RNG streams inside its checkpoint), so the parallel tick is
    /// deterministic at any thread width.
    fn tick(&mut self) -> String {
        let watchdog = self.watchdog;
        let _span = pwu_obs::span(
            "serve.tick",
            [("sessions", pwu_obs::Arg::u(self.sessions.len() as u64))],
        );
        let entries: Vec<(String, Session)> =
            std::mem::take(&mut self.sessions).into_iter().collect();
        let processed: Vec<TickedSession> = entries
            .into_par_iter()
            .map(|(id, mut session)| {
                let report = if session.state() == SessionState::Active {
                    Some(session.step(&watchdog))
                } else {
                    None
                };
                (id, session, report)
            })
            .collect();
        let mut stepped = 0u64;
        let mut done = 0u64;
        let mut shed = 0u64;
        let mut degraded = 0u64;
        for (id, session, report) in processed {
            match report {
                Some(Ok(r)) => {
                    if r.committed {
                        stepped += 1;
                        self.stats.steps_committed += 1;
                        serve_counters().steps_committed.incr();
                    } else if !r.done {
                        shed += 1;
                        self.stats.steps_shed += 1;
                        serve_counters().steps_shed.incr();
                    }
                    if r.done {
                        done += 1;
                    }
                }
                Some(Err(e)) if e.kind == ErrorKind::Degraded => {
                    degraded += 1;
                    self.stats.degraded += 1;
                    serve_counters().degraded.incr();
                }
                Some(Err(_)) | None => {}
            }
            self.sessions.insert(id, session);
        }
        let mut w = ObjectWriter::new();
        w.bool("ok", true);
        w.u64("stepped", stepped);
        w.u64("done", done);
        w.u64("shed", shed);
        w.u64("degraded", degraded);
        w.u64("sessions", self.sessions.len() as u64);
        w.finish()
    }

    fn stats_line(&self) -> String {
        let s = self.stats;
        let mut w = ObjectWriter::new();
        w.bool("ok", true);
        w.u64("sessions", self.sessions.len() as u64);
        let fast = self
            .sessions
            .values()
            .filter(|s| s.spec().fit_mode == pwu_forest::FitMode::Fast)
            .count();
        w.u64("sessions_fast", fast as u64);
        w.u64("sessions_exact", (self.sessions.len() - fast) as u64);
        w.u64("resident", self.resident_count() as u64);
        w.u64("resident_bytes", self.resident_bytes() as u64);
        w.u64("created", s.created as u64);
        w.u64("steps_committed", s.steps_committed as u64);
        w.u64("steps_shed", s.steps_shed as u64);
        w.u64("degraded", s.degraded as u64);
        w.u64("overloaded", s.overloaded as u64);
        w.u64("resumes", s.resumes as u64);
        w.u64("rolled_back", s.rolled_back as u64);
        w.u64("skipped_corrupt", s.skipped_corrupt as u64);
        // The unified registry snapshot: every counter/gauge the rest of
        // the stack registered (measurement tallies, pool lint verdicts,
        // eval-cache hit rates, the serve.* mirrors above), keyed by its
        // dotted registry name. Process-wide, unlike the per-server fields.
        for metric in pwu_obs::snapshot() {
            match metric.value {
                pwu_obs::MetricValue::Count(v) => w.u64(metric.name, v),
                pwu_obs::MetricValue::Value(v) => w.f64(metric.name, v),
            };
        }
        w.finish()
    }

    /// Handles the `trace` verb: `start` clears stale buffers and arms the
    /// process-wide tracer, `stop` disarms it (buffered events stay until
    /// exported), `export` drains events plus the metrics snapshot to
    /// `path` as trace JSONL (`format:"jsonl"`, the full plane — sidecar
    /// timestamps included when armed) or a Chrome trace-event JSON
    /// array (`format:"chrome"`, Perfetto-loadable).
    fn trace(
        &mut self,
        action: &str,
        path: Option<&str>,
        format: &str,
    ) -> Result<String, ProtocolError> {
        let mut w = ObjectWriter::new();
        match action {
            "start" => {
                pwu_obs::clear();
                pwu_obs::enable();
                w.bool("ok", true);
                w.str("tracing", "on");
            }
            "stop" => {
                pwu_obs::disable();
                w.bool("ok", true);
                w.str("tracing", "off");
            }
            "export" => {
                let path = path.ok_or_else(|| {
                    ProtocolError::new(
                        ErrorKind::BadRequest,
                        "trace export needs a string field 'path'",
                    )
                })?;
                let trace = pwu_obs::drain();
                let text = match format {
                    "jsonl" => trace.full_jsonl(),
                    "chrome" => trace.chrome_json(),
                    other => {
                        return Err(ProtocolError::new(
                            ErrorKind::BadRequest,
                            format!("unknown trace format '{other}' (expected jsonl/chrome)"),
                        ))
                    }
                };
                fs::write(path, text).map_err(|e| {
                    ProtocolError::new(
                        ErrorKind::Internal,
                        format!("trace export to '{path}' failed: {e}"),
                    )
                })?;
                w.bool("ok", true);
                w.str("path", path);
                w.u64("events", trace.len() as u64);
            }
            other => {
                return Err(ProtocolError::new(
                    ErrorKind::BadRequest,
                    format!("unknown trace action '{other}' (expected start/stop/export)"),
                ))
            }
        }
        Ok(w.finish())
    }
}

/// One session after a tick shard: id, the session, and the step outcome
/// (`None` for sessions that were not active).
type TickedSession = (String, Session, Option<Result<StepReport, ProtocolError>>);

/// Starts the standard per-session response line; the caller appends its
/// extras and calls `finish()`.
fn session_line(id: &str, session: &Session) -> ObjectWriter {
    let mut w = ObjectWriter::new();
    w.bool("ok", true);
    w.str("session", id);
    w.str("state", session.state().token());
    w.str("fit_mode", session.spec().fit_mode.token());
    w.bool("resident", session.is_resident());
    w.u64("iteration", session.iteration());
    w.u64("generation", session.generation());
    w.u64("n_train", session.n_train() as u64);
    if let Some(digest) = session.digest() {
        w.str("digest", &digest);
    }
    w
}

/// Builds a [`SessionSpec`] from a `create` request's fields. Every field
/// is optional except `target`; a field that is present but mistyped or out
/// of range is a typed `bad-request`, never a silent default.
fn spec_from_fields(fields: &Fields) -> Result<SessionSpec, ProtocolError> {
    let mut spec = SessionSpec {
        target: fields
            .str("target")
            .ok_or_else(|| {
                ProtocolError::new(ErrorKind::BadRequest, "missing string field 'target'")
            })?
            .to_string(),
        ..SessionSpec::default()
    };
    let size = |key: &str, slot: &mut usize| -> Result<(), ProtocolError> {
        if let Some(v) = field(fields, key, Fields::usize, "a non-negative integer")? {
            *slot = v;
        }
        Ok(())
    };
    size("n_init", &mut spec.n_init)?;
    size("n_batch", &mut spec.n_batch)?;
    size("n_max", &mut spec.n_max)?;
    size("repeats", &mut spec.repeats)?;
    size("n_trees", &mut spec.n_trees)?;
    size("eval_every", &mut spec.eval_every)?;
    size("pool_n", &mut spec.pool_n)?;
    size("test_n", &mut spec.test_n)?;
    if let Some(alpha) = field(fields, "alpha", Fields::f64, "a number")? {
        spec.alpha = alpha;
    }
    if let Some(seed) = field(fields, "seed", Fields::u64, "an integer in 0..=2^53")? {
        spec.seed = seed;
    }
    spec.strategy = match field(fields, "strategy", Fields::str, "a string")? {
        Some(token) => parse_strategy(token)?,
        None => pwu_core::Strategy::Pwu { alpha: spec.alpha },
    };
    if let Some(token) = field(fields, "fit_mode", Fields::str, "a string")? {
        spec.fit_mode = pwu_forest::FitMode::parse(token).ok_or_else(|| {
            ProtocolError::new(
                ErrorKind::BadRequest,
                format!("unknown fit_mode '{token}' (exact, fast)"),
            )
        })?;
    }
    Ok(spec)
}
