//! `serve_sessions`: one client driving `pwu-serve`.
//!
//! The roster is the paper's 12 SPAPT kernels plus kripke and hypre, each
//! once per fit mode, created on the wire with the modes alternating. The
//! client is a closed loop: it sends the next request only after
//! `Server::handle_line` returned the previous one. It steps the fleet
//! round-robin with `step` (n = 1) until every session is done, restarting
//! the server every few rounds (drop it, `Server::open`, `resume` each
//! session) at pool width 1. Sessions start in staggered waves, as clients
//! arriving over time would, so early and late steps are spread over the
//! whole run.
//!
//! The traced run repeats the untraced one for reference, then replays the
//! same sessions through the layers a step goes through (`parse_request`,
//! `SessionSpec::materialize`, `pwu_core::step_once`, `GenerationStore`
//! save and load, `ActiveCheckpoint::to_text`), timing each call, and
//! checks that every replayed digest equals the served one. It also ticks
//! one roster copy to completion with back-to-back `tick` requests at pool
//! widths 1 and 2, for the pool's speedup.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pwu_core::checkpoint::GenerationStore;
use pwu_core::{fnv1a64, step_once, ActiveCheckpoint, Strategy};
use pwu_serve::protocol::{parse_object, parse_request, Fields, Value};
use pwu_serve::{AdmissionPolicy, Server, SessionSpec, SessionTarget, WatchdogPolicy};
use pwu_stats::derive_seed;

use crate::measure::{fs_type, median, ms_since, timed, HostClock, Series};
use crate::{all_series, attribution, band_series, Report, Sample, Scale, MODES};

/// The fleet's size and per-session shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Copies of the roster (14 targets, once per fit mode) in the fleet.
    pub copies: usize,
    /// Pool size per session.
    pub pool_n: usize,
    /// Held-out test-set size per session.
    pub test_n: usize,
    /// Cold-start size.
    pub n_init: usize,
    /// Training-set size at which a session is done.
    pub n_max: usize,
    /// Measurement repeats per annotation.
    pub repeats: usize,
    /// Forest size.
    pub n_trees: usize,
    /// Step rounds between server restarts.
    pub restart_every: usize,
    /// Timed set-ups (`Server::open` plus creating the fleet) per run, half
    /// before the measured run (the last one is measured) and half after,
    /// so the samples span the run.
    pub setups: usize,
}

impl Shape {
    /// The benchmark shape: 56 sessions, 2800 steps.
    #[must_use]
    pub fn full() -> Self {
        Self {
            copies: 2,
            pool_n: 1000,
            test_n: 300,
            n_init: 10,
            n_max: 60,
            repeats: 3,
            n_trees: 16,
            restart_every: 10,
            setups: 10,
        }
    }

    /// A reduced shape for the self-test.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            copies: 1,
            pool_n: 120,
            test_n: 40,
            n_init: 5,
            n_max: 20,
            repeats: 2,
            n_trees: 8,
            restart_every: 4,
            setups: 2,
        }
    }

    fn steps(&self) -> usize {
        self.n_max - self.n_init
    }

    /// Whether the `index`-th planned session takes part in 1-based step
    /// round `round`: the fleet starts in [`WAVES`] staggered waves.
    fn started(&self, index: usize, round: usize) -> bool {
        round > (index % WAVES) * self.steps().div_ceil(WAVES)
    }
}

/// Start waves of the fleet.
const WAVES: usize = 5;

/// One planned session.
#[derive(Debug, Clone)]
struct Planned {
    id: String,
    /// Index into [`MODES`].
    mode: usize,
    spec: SessionSpec,
}

/// The roster's targets: the paper's 12 SPAPT kernels, kripke and hypre.
fn roster() -> Vec<String> {
    let mut names: Vec<String> = pwu_spapt::all_kernels()
        .iter()
        .map(|k| pwu_space::TuningTarget::name(k).to_string())
        .collect();
    names.push("kripke".into());
    names.push("hypre".into());
    names
}

/// The fleet, in creation order: each target once per mode, modes
/// alternating, repeated `copies` times with distinct seeds.
fn plan(shape: &Shape, seed: u64) -> Vec<Planned> {
    let mut out = Vec::new();
    for copy in 0..shape.copies {
        for target in roster() {
            for (mode, &(mode_name, fit_mode)) in MODES.iter().enumerate() {
                let spec = SessionSpec {
                    target: target.clone(),
                    strategy: Strategy::Pwu { alpha: 0.05 },
                    n_init: shape.n_init,
                    n_batch: 1,
                    n_max: shape.n_max,
                    repeats: shape.repeats,
                    n_trees: shape.n_trees,
                    fit_mode,
                    eval_every: 5,
                    pool_n: shape.pool_n,
                    test_n: shape.test_n,
                    alpha: 0.05,
                    // The wire carries numbers as f64: keep seeds exact.
                    seed: derive_seed(seed, out.len() as u64) >> 11,
                };
                out.push(Planned {
                    id: format!("{target}-{mode_name}-{copy}"),
                    mode,
                    spec,
                });
            }
        }
    }
    out
}

fn create_line(p: &Planned) -> String {
    let s = &p.spec;
    format!(
        r#"{{"cmd":"create","session":"{}","target":"{}","fit_mode":"{}","seed":{},"n_init":{},"n_batch":{},"n_max":{},"repeats":{},"n_trees":{},"eval_every":{},"pool_n":{},"test_n":{}}}"#,
        p.id,
        s.target,
        s.fit_mode.token(),
        s.seed,
        s.n_init,
        s.n_batch,
        s.n_max,
        s.repeats,
        s.n_trees,
        s.eval_every,
        s.pool_n,
        s.test_n
    )
}

fn step_line(id: &str) -> String {
    format!(r#"{{"cmd":"step","session":"{id}","n":1}}"#)
}

fn session_line(cmd: &str, id: &str) -> String {
    format!(r#"{{"cmd":"{cmd}","session":"{id}"}}"#)
}

/// A state directory under the build output, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let base = exe.parent().ok_or("executable has no parent directory")?;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("perfbench-state-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh, empty subdirectory.
    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One client connected in-process to a server.
struct Client {
    dir: PathBuf,
    server: Server,
    /// Per command: requests sent and failed.
    sent: BTreeMap<String, (usize, usize)>,
    /// Failed requests by error kind.
    errors: BTreeMap<String, usize>,
    /// Each created session's digest.
    created: BTreeMap<String, String>,
}

impl Client {
    fn open(dir: &Path) -> Result<Self, String> {
        Ok(Self {
            dir: dir.to_path_buf(),
            server: open_server(dir)?,
            sent: BTreeMap::new(),
            errors: BTreeMap::new(),
            created: BTreeMap::new(),
        })
    }

    /// Sends one request line; returns the parsed response and the
    /// request's latency in ms.
    fn send(&mut self, cmd: &str, line: &str) -> (Fields, f64) {
        let start = Instant::now();
        let (response, _) = self.server.handle_line(line);
        let ms = ms_since(start);
        let fields = parse_object(&response).unwrap_or_default();
        let ok = fields.get("ok") == Some(&Value::Bool(true));
        let entry = self.sent.entry(cmd.to_string()).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            let kind = fields.str("error").unwrap_or("unparseable").to_string();
            *self.errors.entry(kind).or_default() += 1;
        }
        (fields, ms)
    }

    /// Drops the server and opens a new one over the same directory.
    fn restart(&mut self) -> Result<(), String> {
        self.server = open_server(&self.dir)?;
        Ok(())
    }

    fn into_counts(self, report: &mut Report) {
        for (cmd, (sent, failed)) in self.sent {
            report.count(&format!("{cmd} request"), sent, failed);
        }
        for (kind, n) in self.errors {
            report.context(&format!("errors.{kind}"), n);
        }
    }
}

fn open_server(dir: &Path) -> Result<Server, String> {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default())
        .map_err(|e| format!("Server::open {}: {e}", dir.display()))
}

fn ok(fields: &Fields) -> bool {
    fields.get("ok") == Some(&Value::Bool(true))
}

/// `Server::open` plus creating `fleet`, timed; returns the client, which
/// keeps each created session's digest.
fn setup_fleet(dir: &Path, fleet: &[Planned]) -> Result<(Client, f64), String> {
    let start = Instant::now();
    let mut client = Client::open(dir)?;
    for p in fleet {
        let (fields, _) = client.send("create", &create_line(p));
        let digest = fields.str("digest").map(str::to_string);
        let digest = digest.ok_or_else(|| format!("create {} failed: {fields:?}", p.id))?;
        client.created.insert(p.id.clone(), digest);
    }
    Ok((client, ms_since(start)))
}

/// Checks the server's `stats` counters against what the client saw.
fn check_stats(
    report: &mut Report,
    client: &mut Client,
    created: usize,
    steps: usize,
    resumes: usize,
) {
    let (fields, _) = client.send("stats", r#"{"cmd":"stats"}"#);
    let got = (
        fields.usize("created"),
        fields.usize("steps_committed"),
        fields.usize("resumes"),
    );
    report.check(
        "stats counters equal the expected create, step and resume counts",
        ok(&fields) && got == (Some(created), Some(steps), Some(resumes)),
        format!("got {got:?}, expected ({created}, {steps}, {resumes})"),
    );
}

/// What a served `serve_sessions` run produced.
struct Served {
    steps: Vec<Sample>,
    resume_ms: Series,
    /// Every session's digest after each committed step, in order.
    digests: BTreeMap<String, Vec<String>>,
}

/// The `serve_sessions` request sequence against a real server.
fn serve_sessions(
    report: &mut Report,
    clock: &mut HostClock,
    mut client: Client,
    fleet: &[Planned],
    shape: &Shape,
) -> Result<Served, String> {
    let mut served = Served {
        steps: Vec::new(),
        resume_ms: Series::default(),
        digests: BTreeMap::new(),
    };
    let mut done = vec![false; fleet.len()];
    let mut latest = client.created.clone();
    let (mut created, mut steps_since_open, mut resumes_since_open) = (fleet.len(), 0, 0);
    let (mut restarts, mut digest_mismatches, mut bad_steps) = (0, 0, 0);
    let mut round = 0;
    while done.iter().any(|d| !d) {
        round += 1;
        for (i, p) in fleet.iter().enumerate() {
            if done[i] || !shape.started(i, round) {
                continue;
            }
            clock.tick();
            let (fields, ms) = client.send("step", &step_line(&p.id));
            let (Some(iteration), Some(digest), Some(1)) = (
                fields.usize("iteration"),
                fields.str("digest"),
                fields.usize("steps"),
            ) else {
                bad_steps += 1;
                done[i] = true;
                continue;
            };
            steps_since_open += 1;
            done[i] = fields.str("state") == Some("done");
            served
                .digests
                .entry(p.id.clone())
                .or_default()
                .push(digest.to_string());
            latest.insert(p.id.clone(), digest.to_string());
            // `iteration` counts the session's steps from 1; the cold-start
            // points are not steps.
            served.steps.push(Sample {
                mode: p.mode,
                position: iteration.wrapping_sub(1),
                ms,
                host: clock.factor(),
            });
        }
        if round % shape.restart_every == 0 && done.iter().any(|d| !d) {
            check_stats(
                report,
                &mut client,
                created,
                steps_since_open,
                resumes_since_open,
            );
            client.restart()?;
            restarts += 1;
            (created, steps_since_open, resumes_since_open) = (0, 0, 0);
            for p in fleet {
                clock.tick();
                let (fields, ms) = client.send("resume", &session_line("resume", &p.id));
                resumes_since_open += 1;
                served.resume_ms.push(ms, clock.factor());
                if latest.get(&p.id).map(String::as_str) != fields.str("digest") {
                    digest_mismatches += 1;
                }
            }
        }
    }
    check_stats(
        report,
        &mut client,
        created,
        steps_since_open,
        resumes_since_open,
    );
    report.check(
        "every step request committed one step",
        bad_steps == 0,
        format!(
            "{} steps, {bad_steps} without a committed step",
            served.steps.len()
        ),
    );
    report.check(
        "each session's digest after a restart equals its digest before",
        restarts > 0 && digest_mismatches == 0,
        format!("{restarts} restarts, {digest_mismatches} mismatches"),
    );
    let expected = fleet.len() * shape.steps();
    report.check(
        "observed step count equals sessions x (n_max - n_init)",
        served.steps.len() == expected,
        format!("{} observed, {expected} expected", served.steps.len()),
    );
    client.into_counts(report);
    Ok(served)
}

/// Ticks `fleet` to completion on a fresh server at pool width `width`;
/// returns the tick latencies (ms) and every session's final digest.
fn tick_fleet(
    report: &mut Report,
    clock: &mut HostClock,
    dir: &Path,
    fleet: &[Planned],
    shape: &Shape,
    width: usize,
) -> Result<(Series, BTreeMap<String, String>), String> {
    rayon::set_threads(width);
    let (mut client, _) = setup_fleet(dir, fleet)?;
    let mut ticks = Series::default();
    let (mut attempted, mut lost, mut off) = (0, 0, 0);
    for tick in 1..=shape.steps() {
        clock.tick();
        let (fields, ms) = client.send("tick", r#"{"cmd":"tick"}"#);
        let stepped = fields.usize("stepped").unwrap_or(0);
        let shed = fields.usize("shed").unwrap_or(0) + fields.usize("degraded").unwrap_or(0);
        let all_done = fields.usize("done") == Some(fleet.len());
        attempted += stepped + shed;
        lost += shed;
        off += usize::from(stepped != fleet.len() || all_done != (tick == shape.steps()));
        ticks.push(ms, clock.factor());
    }
    report.count("tick session-step", attempted, lost);
    report.check(
        "every tick stepped every session, all done on the last",
        off == 0,
        format!("width {width}: {} ticks, {off} off", ticks.len()),
    );
    let mut digests = BTreeMap::new();
    for p in fleet {
        let (fields, _) = client.send("query", &session_line("query", &p.id));
        digests.insert(
            p.id.clone(),
            fields.str("digest").unwrap_or_default().to_string(),
        );
    }
    check_stats(
        report,
        &mut client,
        fleet.len(),
        fleet.len() * shape.steps(),
        0,
    );
    client.into_counts(report);
    rayon::set_threads(1);
    Ok((ticks, digests))
}

/// Per-layer times from a replay, one sample per call, positioned by the
/// session's step.
#[derive(Default)]
struct Layers {
    parse: Vec<Sample>,
    materialize: Vec<Sample>,
    step_once: Vec<Sample>,
    save: Vec<Sample>,
    /// `to_text` for a step's response digest.
    encode: Vec<Sample>,
    /// Resumes: `load_latest`, and `to_text` for the response digest.
    load: Series,
    resume_encode: Series,
    bytes: Vec<f64>,
    /// Replayed steps.
    units: Vec<Sample>,
    files_written: u64,
    bytes_written: u64,
    fits: u64,
    rows_scored: u64,
    readings: u64,
    /// Evaluation-cache hits and misses of targets since dropped.
    cache_dropped: (u64, u64),
}

impl Layers {
    /// Every layer a step calls once.
    fn per_step(&self) -> [&[Sample]; 5] {
        [
            &self.parse,
            &self.materialize,
            &self.step_once,
            &self.save,
            &self.encode,
        ]
    }
}

/// One session replayed through the layers a served step goes through.
struct Replayed {
    plan: Planned,
    target: SessionTarget,
    store: GenerationStore,
    checkpoint: ActiveCheckpoint,
}

fn digest_of(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

impl Replayed {
    /// Creates the session the way `Session::create` does (untimed).
    fn create(dir: &Path, plan: &Planned) -> Result<Self, String> {
        let target = SessionTarget::by_name(&plan.spec.target).map_err(|e| e.to_string())?;
        let (pool, tf, tl) = plan.spec.materialize(target.as_target());
        let checkpoint = pwu_core::bootstrap(
            target.as_target(),
            &plan.spec.active_config(),
            pool,
            &tf,
            &tl,
            plan.spec.seed,
        );
        let store = GenerationStore::new(dir.join(&plan.id));
        store.save(&checkpoint).map_err(|e| e.to_string())?;
        Ok(Self {
            plan: plan.clone(),
            target,
            store,
            checkpoint,
        })
    }

    /// One `step` request, layer by layer; returns the digest the
    /// response carries and whether the session is done.
    fn step(&mut self, layers: &mut Layers, host: f64) -> Result<(String, bool), String> {
        let position = self.checkpoint.iteration as usize;
        let sample = |ms| Sample {
            mode: self.plan.mode,
            position,
            ms,
            host,
        };
        let start = Instant::now();
        let line = step_line(&self.plan.id);
        let (request, ms) = timed(|| parse_request(&line));
        layers.parse.push(sample(ms));
        request.map_err(|e| e.to_string())?;
        let (materialized, ms) = timed(|| self.plan.spec.materialize(self.target.as_target()));
        layers.materialize.push(sample(ms));
        let (_, tf, tl) = materialized;
        let config = self.plan.spec.active_config();
        let (outcome, ms) = timed(|| {
            step_once(
                self.target.as_target(),
                self.plan.spec.strategy,
                &config,
                &self.checkpoint,
                &tf,
                &tl,
            )
        });
        layers.step_once.push(sample(ms));
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (generation, ms) = timed(|| self.store.save(&outcome.checkpoint));
        layers.save.push(sample(ms));
        let generation = generation.map_err(|e| e.to_string())?;
        let (text, ms) = timed(|| outcome.checkpoint.to_text());
        layers.encode.push(sample(ms));
        layers.units.push(sample(ms_since(start)));
        let file_bytes = fs::metadata(self.store.path_for(generation)).map_or(0, |m| m.len());
        layers.bytes.push(file_bytes as f64);
        layers.files_written += 1;
        layers.bytes_written += file_bytes;
        // step_once refits the restored model, then refits after the batch.
        layers.fits += 2;
        layers.rows_scored += self.checkpoint.pool_configs.len() as u64;
        layers.readings +=
            (outcome.checkpoint.stats.readings - self.checkpoint.stats.readings) as u64;
        self.checkpoint = outcome.checkpoint;
        Ok((digest_of(&text), outcome.done))
    }

    /// One `resume` after a restart: the restarted server attaches a fresh
    /// target, whose evaluation cache starts cold (untimed, as in
    /// `Server::open`); the request loads the newest generation and encodes
    /// it for the response's digest.
    fn resume(&mut self, layers: &mut Layers, host: f64) -> Result<String, String> {
        let fresh = SessionTarget::by_name(&self.plan.spec.target).map_err(|e| e.to_string())?;
        let dropped = std::mem::replace(&mut self.target, fresh);
        if let Some((hits, misses)) = dropped.cache().map(pwu_spapt::EvalCache::stats) {
            layers.cache_dropped.0 += hits;
            layers.cache_dropped.1 += misses;
        }
        let (recovered, ms) = timed(|| self.store.load_latest());
        layers.load.push(ms, host);
        let recovered = recovered
            .map_err(|e| e.to_string())?
            .ok_or("no generation to resume")?;
        self.checkpoint = recovered.checkpoint;
        let (text, ms) = timed(|| self.checkpoint.to_text());
        layers.resume_encode.push(ms, host);
        Ok(digest_of(&text))
    }
}

fn create_replay(dir: &Path, fleet: &[Planned]) -> Result<Vec<Replayed>, String> {
    fleet.iter().map(|p| Replayed::create(dir, p)).collect()
}

/// Evaluation-cache hits and misses of the sessions' current targets.
fn cache_stats(sessions: &[Replayed]) -> (u64, u64) {
    sessions
        .iter()
        .filter_map(|s| s.target.cache())
        .map(pwu_spapt::EvalCache::stats)
        .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
}

/// Records the layer metrics a replay measured. `cache` holds the
/// evaluation-cache hits and misses before and after the replay.
fn report_layers(
    report: &mut Report,
    layers: Layers,
    cache: ((u64, u64), (u64, u64)),
    served: &Served,
    steps: usize,
) {
    let ((h0, m0), (h1, m1)) = cache;
    let (h1, m1) = (h1 + layers.cache_dropped.0, m1 + layers.cache_dropped.1);
    let lookups = (h1 - h0) + (m1 - m0);
    report.layer(
        "measure.cache_hit_ratio",
        (h1 - h0) as f64 / lookups.max(1) as f64,
    );
    let (mut unit_medians, mut replay_medians, mut layer_medians) = (vec![], vec![], vec![]);
    for mode in 0..MODES.len() {
        for band in 0..2 {
            unit_medians.push(band_series(&served.steps, mode, band, steps).median());
            replay_medians.push(band_series(&layers.units, mode, band, steps).median());
            layer_medians.push(
                layers
                    .per_step()
                    .iter()
                    .map(|calls| band_series(calls, mode, band, steps).median())
                    .sum::<f64>(),
            );
        }
    }
    let (unattributed, overhead) = attribution(&unit_medians, &replay_medians, &layer_medians);
    report.layer("unattributed_pct", unattributed);
    report.layer("trace.overhead_pct", overhead);
    report.layer("checkpoint.bytes", median(&layers.bytes));
    report.layer("forest.fits", layers.fits as f64);
    report.layer("forest.rows_scored", layers.rows_scored as f64);
    report.layer("measure.readings", layers.readings as f64);
    report.layer("checkpoint.files_written", layers.files_written as f64);
    report.layer("checkpoint.bytes_written", layers.bytes_written as f64);
    let mut parse_us = all_series(&layers.parse);
    parse_us.raw.iter_mut().for_each(|ms| *ms *= 1e3);
    report.layer_timing("protocol.parse_us", "us", parse_us);
    report.layer_timing(
        "session.materialize_ms",
        "ms",
        all_series(&layers.materialize),
    );
    report.layer_timing("core.step_once_ms", "ms", all_series(&layers.step_once));
    report.layer_timing("checkpoint.save_ms", "ms", all_series(&layers.save));
    let mut encode = all_series(&layers.encode);
    encode.extend(&layers.resume_encode);
    report.layer_timing("checkpoint.encode_ms", "ms", encode);
    if !layers.load.is_empty() {
        report.layer_timing("checkpoint.load_ms", "ms", layers.load);
    }
}

/// Replays the `serve_sessions` sequence and checks it against `served`.
fn replay_sessions(
    report: &mut Report,
    clock: &mut HostClock,
    dir: &Path,
    fleet: &[Planned],
    shape: &Shape,
    served: &Served,
) -> Result<(), String> {
    let mut sessions = create_replay(dir, fleet)?;
    let cache_before = cache_stats(&sessions);
    let mut layers = Layers::default();
    let mut digests: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut latest: BTreeMap<String, String> = sessions
        .iter()
        .map(|s| (s.plan.id.clone(), digest_of(&s.checkpoint.to_text())))
        .collect();
    let mut resume_digests_ok = true;
    let mut done = vec![false; sessions.len()];
    let mut round = 0;
    while done.iter().any(|d| !d) {
        round += 1;
        for (i, s) in sessions.iter_mut().enumerate() {
            if !done[i] && shape.started(i, round) {
                clock.tick();
                let (digest, finished) = s.step(&mut layers, clock.factor())?;
                done[i] = finished;
                latest.insert(s.plan.id.clone(), digest.clone());
                digests.entry(s.plan.id.clone()).or_default().push(digest);
            }
        }
        if round % shape.restart_every == 0 && done.iter().any(|d| !d) {
            for s in &mut sessions {
                clock.tick();
                let digest = s.resume(&mut layers, clock.factor())?;
                resume_digests_ok &= latest.get(&s.plan.id) == Some(&digest);
            }
        }
    }
    report.check(
        "traced replay reproduces every served step digest",
        digests == served.digests && resume_digests_ok,
        format!("{} sessions", digests.len()),
    );
    let cache_after = cache_stats(&sessions);
    report_layers(
        report,
        layers,
        (cache_before, cache_after),
        served,
        shape.steps(),
    );
    Ok(())
}

/// Runs `serve_sessions` into `report`.
///
/// # Errors
/// Returns an error when the state directory or a server cannot be set up.
pub fn run(
    report: &mut Report,
    clock: &mut HostClock,
    scale: Scale,
    seed: u64,
    trace: bool,
) -> Result<(), String> {
    let shape = match scale {
        Scale::Full => Shape::full(),
        Scale::Tiny => Shape::tiny(),
    };
    report.context("shape", format!("{shape:?}"));
    let state = StateDir::new()?;
    let fs = fs_type(&state.0);
    report.context("state_fs", &fs);
    report.context("state_on_tmpfs", fs == "tmpfs");
    rayon::set_threads(1);
    report.context("pool_width", 1);
    let fleet = plan(&shape, seed);
    report.context("sessions", fleet.len());
    let before = shape.setups.div_ceil(2);
    let mut setup_ms = Series::default();
    let mut client = None;
    for i in 0..before {
        clock.tick();
        let (c, ms) = setup_fleet(&state.fresh(&format!("setup-{i}")), &fleet)?;
        setup_ms.push(ms, clock.factor());
        client = Some(c);
    }
    let served = serve_sessions(
        report,
        clock,
        client.ok_or("no set-up ran")?,
        &fleet,
        &shape,
    )?;
    for i in before..shape.setups {
        clock.tick();
        let ms = setup_fleet(&state.fresh(&format!("setup-{i}")), &fleet)?.1;
        setup_ms.push(ms, clock.factor());
    }
    report.setup(&setup_ms);
    report.units("step_ms", &served.steps, shape.steps());
    report.timing("resume_ms", "ms", served.resume_ms.clone());
    if trace {
        report.layer("serve.resume_ms", served.resume_ms.median());
        replay_sessions(
            report,
            clock,
            &state.fresh("replay"),
            &fleet,
            &shape,
            &served,
        )?;
        // One roster copy, ticked to completion at widths 1 and 2.
        let roster = &fleet[..roster().len() * MODES.len()];
        let (narrow, narrow_digests) =
            tick_fleet(report, clock, &state.fresh("tick-1"), roster, &shape, 1)?;
        let (wide, wide_digests) = tick_fleet(
            report,
            clock,
            &state.fresh("tick-2"),
            roster,
            &shape,
            TICK_WIDTH,
        )?;
        report.check(
            "final digests at width 1 and width 2 agree",
            narrow_digests == wide_digests,
            format!("{} sessions", wide_digests.len()),
        );
        let speedup =
            narrow.at_reference().iter().sum::<f64>() / wide.at_reference().iter().sum::<f64>();
        report.layer_timing("tick_ms.width1", "ms", narrow);
        report.layer_timing("tick_ms.width2", "ms", wide);
        report.layer("pool.speedup", speedup);
        report.layer("pool.efficiency", speedup / TICK_WIDTH as f64);
    }
    Ok(())
}

/// The pool width the tick comparison runs against width 1.
const TICK_WIDTH: usize = 2;
