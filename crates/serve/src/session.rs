//! One hosted tuning session: spec, state machine, durable generations.
//!
//! A session is an [`ActiveLoop`] advanced one iteration per step. Its
//! durable identity is two things in its directory:
//!
//! - `meta.pwu` — the [`SessionSpec`], written once at create time with the
//!   checkpoint integrity footer, so a restarted server can re-derive the
//!   target, the pool and the test set (all pure functions of the spec);
//! - `slot-{0,1,2}.ckpt` — a [`GenerationStore`] of checkpoints. Each
//!   committed step saves generation = its iteration into slot `iteration
//!   mod 3`, so the session resumes bit-identically from its last durable
//!   generation after any crash, and rolls back a generation if the newest
//!   slot is damaged.
//!
//! `meta.pwu` is written through [`write_durable`] (temp file, `sync_all`,
//! rename, parent-directory sync); a step overwrites its slot in place and
//! makes it durable with one `sync_data`. Both survive a power loss as well
//! as a crash. A committed step encodes its checkpoint once: the session
//! keeps the footer checksum of the generation it just saved (or, on
//! resume, of the one it verified) as the response digest.
//!
//! Between requests a loaded session holds the checkpoint of that
//! generation with its three level sections packed (`PackedRows`: one
//! byte buffer of LEB128 varints, about a byte per level where a parsed
//! section holds a heap vector per configuration), the digest, and its
//! Eq. 2 evaluator ([`EliteTest`], the test set's elite rows), built when
//! `create` or `resume` derives the spec. A step unpacks a private copy of
//! the checkpoint, restores an [`ActiveLoop`] from that copy by value,
//! steps it and captures the result by value; it parses no text, derives
//! nothing from the spec, and only a committed step replaces the resident
//! checkpoint. A kernel's [`EvalCache`] memo is request-scoped: `create`,
//! `resume` and every step attempt empty it before they return, because no
//! later request reads what an earlier one memoized.
//!
//! The state machine: `Active ⇄ Suspended` (suspend unloads the in-memory
//! checkpoint; resume reloads it from disk), `Active → Degraded` (watchdog
//! deadline exhausted or a panicking step), `Degraded → Active` (an explicit
//! resume reloads the last durable generation and clears the strikes),
//! `Active → Done` (the run reached `n_max`). Every transition leaves the
//! durable state either untouched or strictly newer — a step that panics or
//! busts its deadline commits nothing.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use pwu_apps::{Hypre, Kripke};
use pwu_core::checkpoint::{
    split_verified_body, sync_dir, with_integrity_footer, write_durable, GenerationStore, Saved,
};
use pwu_core::{ActiveCheckpoint, ActiveConfig, ActiveLoop, CheckpointError, EliteTest, Strategy};
use pwu_forest::{FitMode, ForestConfig};
use pwu_space::{FeatureMatrix, FeatureSchema, Pool, TuningTarget};
use pwu_spapt::{EvalCache, Kernel};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::protocol::{ErrorKind, ProtocolError};
use crate::watchdog::WatchdogPolicy;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Loaded in memory and steppable.
    Active,
    /// Durable on disk but unloaded; `resume` brings it back.
    Suspended,
    /// The watchdog gave up on it (deadline strikes exhausted or a step
    /// panicked); `resume` reloads the last durable generation and retries.
    Degraded,
    /// The run reached `n_max` (or drained its pool).
    Done,
}

impl SessionState {
    /// The stable wire token for this state.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            SessionState::Active => "active",
            SessionState::Suspended => "suspended",
            SessionState::Degraded => "degraded",
            SessionState::Done => "done",
        }
    }
}

/// The target a session tunes. Owned concretely (not as a trait object) so
/// the session can reach the kernel's [`EvalCache`] and empty it at the end
/// of every request that fills it.
#[derive(Debug, Clone)]
pub enum SessionTarget {
    /// A SPAPT kernel (owns an [`EvalCache`], empty between requests).
    /// Boxed — the kernel is an order of magnitude larger than the proxy
    /// apps and sessions are numerous.
    Kernel(Box<Kernel>),
    /// The Kripke proxy application.
    Kripke(Kripke),
    /// The Hypre proxy application.
    Hypre(Hypre),
}

impl SessionTarget {
    /// Resolves a benchmark name to a target.
    ///
    /// # Errors
    /// Returns a [`ErrorKind::BadRequest`] error for unknown names.
    pub fn by_name(name: &str) -> Result<Self, ProtocolError> {
        match name {
            "kripke" => Ok(SessionTarget::Kripke(Kripke::new())),
            "hypre" => Ok(SessionTarget::Hypre(Hypre::new())),
            other => pwu_spapt::kernel_by_name(other)
                .map(|k| SessionTarget::Kernel(Box::new(k)))
                .ok_or_else(|| {
                    ProtocolError::new(
                        ErrorKind::BadRequest,
                        format!("unknown target '{other}' (a SPAPT kernel, 'kripke' or 'hypre')"),
                    )
                }),
        }
    }

    /// The target as the trait object the core loop consumes.
    #[must_use]
    pub fn as_target(&self) -> &dyn TuningTarget {
        match self {
            SessionTarget::Kernel(k) => k.as_ref(),
            SessionTarget::Kripke(k) => k,
            SessionTarget::Hypre(h) => h,
        }
    }

    /// The kernel's eval-cache memo, when this target has one.
    #[must_use]
    pub fn cache(&self) -> Option<&EvalCache> {
        match self {
            SessionTarget::Kernel(k) => Some(k.eval_cache()),
            SessionTarget::Kripke(_) | SessionTarget::Hypre(_) => None,
        }
    }

    /// Empties the memo at the end of a request that filled it.
    fn end_request(&self) {
        if let Some(cache) = self.cache() {
            cache.clear();
        }
    }
}

/// The most measurement repeats a spec may ask for; the paper's protocol
/// takes 35.
pub const MAX_REPEATS: usize = 1000;

/// The largest forest a spec may ask for.
pub const MAX_TREES: usize = 1024;

/// The most configurations a spec may draw (`pool_n + test_n`); the paper's
/// protocol draws 10 000.
pub const MAX_POINTS: usize = 100_000;

/// Everything needed to re-derive a session's target, pool and test set.
///
/// The pool and test set are *not* persisted: they are pure functions of
/// `(target, pool_n, test_n, seed)` — the checkpoint holds the remaining
/// pool, and the test set is regenerated at create and at every resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Benchmark name (a SPAPT kernel, `kripke` or `hypre`).
    pub target: String,
    /// Sampling strategy.
    pub strategy: Strategy,
    /// Cold-start size.
    pub n_init: usize,
    /// Batch size per iteration.
    pub n_batch: usize,
    /// Training-set size to stop at.
    pub n_max: usize,
    /// Measurement repeats per annotation.
    pub repeats: usize,
    /// Forest size.
    pub n_trees: usize,
    /// Fit engine: `exact` (bitwise-reproducible, the default) or `fast`
    /// (statistical-equivalence contract, DESIGN.md §14). Baked into the
    /// spec because checkpoints written under one mode refuse to resume
    /// under the other.
    pub fit_mode: FitMode,
    /// Test-set evaluation cadence.
    pub eval_every: usize,
    /// Pool size drawn from the space.
    pub pool_n: usize,
    /// Held-out test-set size drawn from the space.
    pub test_n: usize,
    /// The α at which RMSE@α is recorded.
    pub alpha: f64,
    /// Master seed; every stream derives from it.
    pub seed: u64,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            target: String::new(),
            strategy: Strategy::Pwu { alpha: 0.05 },
            n_init: 5,
            n_batch: 1,
            n_max: 30,
            repeats: 3,
            n_trees: 16,
            fit_mode: FitMode::Exact,
            eval_every: 5,
            pool_n: 150,
            test_n: 60,
            alpha: 0.05,
            seed: 0,
        }
    }
}

/// Serializes a strategy as the protocol token (`pwu:0.05`, `uniform`, …).
#[must_use]
pub fn strategy_token(s: Strategy) -> String {
    match s {
        Strategy::Pwu { alpha } => format!("pwu:{alpha}"),
        Strategy::Pbus { fraction } => format!("pbus:{fraction}"),
        Strategy::Brs { fraction } => format!("brs:{fraction}"),
        Strategy::BestPerf => "bestperf".into(),
        Strategy::MaxU => "maxu".into(),
        Strategy::Uniform => "uniform".into(),
    }
}

/// Parses a strategy token (the inverse of [`strategy_token`]).
///
/// # Errors
/// Returns a [`ErrorKind::BadRequest`] error for unknown tokens or
/// out-of-range parameters.
pub fn parse_strategy(token: &str) -> Result<Strategy, ProtocolError> {
    let bad = |msg: String| ProtocolError::new(ErrorKind::BadRequest, msg);
    let (name, param) = match token.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (token, None),
    };
    let fraction = |p: Option<&str>, what: &str| -> Result<f64, ProtocolError> {
        let p = p.ok_or_else(|| {
            bad(format!(
                "strategy '{what}' needs a parameter, e.g. '{what}:0.1'"
            ))
        })?;
        let v: f64 = p
            .parse()
            .map_err(|_| bad(format!("bad {what} parameter '{p}'")))?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(bad(format!("{what} parameter {v} outside [0, 1]")))
        }
    };
    match name {
        "pwu" => Ok(Strategy::Pwu {
            alpha: fraction(param, "pwu")?,
        }),
        "pbus" => Ok(Strategy::Pbus {
            fraction: fraction(param, "pbus")?,
        }),
        "brs" => Ok(Strategy::Brs {
            fraction: fraction(param, "brs")?,
        }),
        "bestperf" => Ok(Strategy::BestPerf),
        "maxu" => Ok(Strategy::MaxU),
        "uniform" => Ok(Strategy::Uniform),
        other => Err(bad(format!(
            "unknown strategy '{other}' (pwu:A, pbus:F, brs:F, bestperf, maxu, uniform)"
        ))),
    }
}

impl SessionSpec {
    /// The `ActiveConfig` this spec describes.
    #[must_use]
    pub fn active_config(&self) -> ActiveConfig {
        ActiveConfig {
            n_init: self.n_init,
            n_batch: self.n_batch,
            n_max: self.n_max,
            forest: ForestConfig {
                n_trees: self.n_trees,
                fit_mode: self.fit_mode,
                ..ForestConfig::default()
            },
            eval_every: self.eval_every,
            alphas: vec![self.alpha],
            repeats: self.repeats,
            ..ActiveConfig::default()
        }
    }

    /// Sanity-checks the sizes before they hit the core loop's asserts or
    /// size an allocation: [`MAX_REPEATS`], [`MAX_TREES`] and [`MAX_POINTS`]
    /// bound what a session may ask for.
    ///
    /// # Errors
    /// Returns a [`ErrorKind::BadRequest`] error describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let bad = |msg: &str| ProtocolError::new(ErrorKind::BadRequest, msg);
        if self.n_init == 0 || self.n_batch == 0 || self.eval_every == 0 {
            return Err(bad("n_init, n_batch and eval_every must be positive"));
        }
        if self.n_max < self.n_init {
            return Err(bad("n_max must be at least n_init"));
        }
        if self.pool_n < self.n_max {
            return Err(bad("pool_n must be at least n_max"));
        }
        if self.test_n == 0 || self.pool_n.saturating_add(self.test_n) > MAX_POINTS {
            return Err(bad(&format!(
                "test_n must be positive and pool_n + test_n at most {MAX_POINTS}"
            )));
        }
        if !(1..=MAX_REPEATS).contains(&self.repeats) || !(1..=MAX_TREES).contains(&self.n_trees) {
            return Err(bad(&format!(
                "repeats must be in 1..={MAX_REPEATS} and n_trees in 1..={MAX_TREES}"
            )));
        }
        // Eq. 2 reads the best ⌊n·α⌋ test points: α = 0 would leave the
        // first snapshot nothing to evaluate.
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(bad("alpha must be in (0, 1]"));
        }
        Ok(())
    }

    /// Serializes as the `meta.pwu` text body (footer added by the caller).
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        // v2 added the `fit-mode` line; v1 specs predate the fast engine
        // and are not grandfathered (the service owns its own state dirs).
        let mut out = String::from("pwu-session-spec v2\n");
        let w = &mut out;
        let _ = writeln!(w, "target {}", self.target);
        let _ = writeln!(w, "strategy {}", strategy_token(self.strategy));
        let _ = writeln!(
            w,
            "sizes {} {} {} {} {} {} {} {}",
            self.n_init,
            self.n_batch,
            self.n_max,
            self.repeats,
            self.n_trees,
            self.eval_every,
            self.pool_n,
            self.test_n
        );
        let _ = writeln!(w, "fit-mode {}", self.fit_mode.token());
        let _ = writeln!(w, "alpha {:016x}", self.alpha.to_bits());
        let _ = writeln!(w, "seed {}", self.seed);
        out
    }

    /// Parses the `meta.pwu` text body.
    ///
    /// # Errors
    /// Returns a [`ErrorKind::Corrupt`] error on any malformed line —
    /// a damaged spec means the session directory cannot be trusted.
    pub fn from_text(text: &str) -> Result<Self, ProtocolError> {
        let corrupt = |msg: String| ProtocolError::new(ErrorKind::Corrupt, msg);
        let mut lines = text.lines();
        let mut need = |tag: &str| -> Result<String, ProtocolError> {
            let line = lines
                .next()
                .ok_or_else(|| corrupt(format!("spec is missing the '{tag}' line")))?;
            if tag.is_empty() {
                return Ok(line.to_string());
            }
            line.strip_prefix(tag)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| corrupt(format!("expected '{tag} ...', found '{line}'")))
        };
        if need("")? != "pwu-session-spec v2" {
            return Err(corrupt("bad spec magic".into()));
        }
        let target = need("target")?;
        let strategy = parse_strategy(&need("strategy")?)
            .map_err(|e| corrupt(format!("bad strategy: {}", e.message)))?;
        let sizes_line = need("sizes")?;
        let mut sizes = sizes_line.split_whitespace().map(|t| {
            t.parse::<usize>()
                .map_err(|e| corrupt(format!("bad size '{t}': {e}")))
        });
        let mut size = |what: &str| -> Result<usize, ProtocolError> {
            sizes
                .next()
                .ok_or_else(|| corrupt(format!("sizes line is missing {what}")))?
        };
        let n_init = size("n_init")?;
        let n_batch = size("n_batch")?;
        let n_max = size("n_max")?;
        let repeats = size("repeats")?;
        let n_trees = size("n_trees")?;
        let eval_every = size("eval_every")?;
        let pool_n = size("pool_n")?;
        let test_n = size("test_n")?;
        let fit_mode_token = need("fit-mode")?;
        let fit_mode = FitMode::parse(fit_mode_token.trim())
            .ok_or_else(|| corrupt(format!("unknown fit-mode '{fit_mode_token}'")))?;
        let alpha_hex = need("alpha")?;
        let alpha = u64::from_str_radix(alpha_hex.trim(), 16)
            .map(f64::from_bits)
            .map_err(|e| corrupt(format!("bad alpha '{alpha_hex}': {e}")))?;
        let seed = need("seed")?
            .trim()
            .parse()
            .map_err(|e| corrupt(format!("bad seed: {e}")))?;
        Ok(Self {
            target,
            strategy,
            n_init,
            n_batch,
            n_max,
            repeats,
            n_trees,
            fit_mode,
            eval_every,
            pool_n,
            test_n,
            alpha,
            seed,
        })
    }

    /// Draws the pool and test set this spec describes: `pool_n + test_n`
    /// distinct configurations from the space (seeded by `derive_seed(seed,
    /// 7)`), split pool-first — the same convention the experiment driver
    /// uses, and a pure function of the spec.
    #[must_use]
    pub fn materialize(&self, target: &dyn TuningTarget) -> (Pool, FeatureMatrix, Vec<f64>) {
        let space = target.space();
        let schema = FeatureSchema::for_space(space);
        let mut rng = Xoshiro256PlusPlus::new(derive_seed(self.seed, 7));
        let all = space.sample_distinct(self.pool_n + self.test_n, &mut rng);
        let (pool_cfgs, test_cfgs) = all.split_at(self.pool_n);
        let pool = Pool::new(space, &schema, pool_cfgs.to_vec());
        let test_features = schema.encode_matrix(space, test_cfgs);
        let test_labels: Vec<f64> = test_cfgs.iter().map(|c| target.ideal_time(c)).collect();
        (pool, test_features, test_labels)
    }

    /// Checks the sizes against the target's space, from which
    /// [`SessionSpec::materialize`] draws `pool_n + test_n` distinct
    /// configurations.
    fn check_space(&self, target: &dyn TuningTarget) -> Result<(), ProtocolError> {
        let space = target.space().cardinality();
        match self.pool_n.checked_add(self.test_n) {
            Some(n) if n as u128 <= space => Ok(()),
            _ => Err(ProtocolError::new(
                ErrorKind::BadRequest,
                format!(
                    "pool_n {} + test_n {} exceeds the {space} configurations of target '{}'",
                    self.pool_n, self.test_n, self.target
                ),
            )),
        }
    }

    /// [`SessionSpec::materialize`], with the test set ranked into the
    /// session's Eq. 2 evaluator: only its elite rows outlive this call.
    /// Traced as `session.materialize` (args `pool`, `test`), the share of
    /// a create or a resume that derives the evaluator.
    fn materialize_evaluator(&self, target: &dyn TuningTarget) -> (Pool, EliteTest) {
        let _span = pwu_obs::span(
            "session.materialize",
            [
                ("pool", pwu_obs::Arg::u(self.pool_n as u64)),
                ("test", pwu_obs::Arg::u(self.test_n as u64)),
            ],
        );
        let (pool, test_features, test_labels) = self.materialize(target);
        let elite = EliteTest::new(&test_features, &test_labels, &self.active_config().alphas);
        (pool, elite)
    }
}

/// What one watchdogged step attempt produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Whether the outcome was committed (checkpoint advanced + persisted).
    pub committed: bool,
    /// Whether the run is finished.
    pub done: bool,
    /// The step's annotation cost in cost units (0 when nothing ran).
    pub step_cost: f64,
    /// The session state after the attempt.
    pub state: SessionState,
}

/// The three level sections of a checkpoint (`train_configs`,
/// `pool_configs`, `quarantined`) as one byte buffer: each row is its
/// length followed by its levels, every number an unsigned LEB128 varint
/// (seven bits a byte, low bits first, the high bit set on every byte but
/// the last). A level below 128, which every served target's is, takes one
/// byte. Lossless for every row: ragged rows and levels up to `u32::MAX`
/// come back as they went in. It lives only in memory; disk keeps the text.
#[derive(Debug)]
struct PackedRows {
    bytes: Vec<u8>,
    /// Rows per section, in section order.
    rows: [usize; 3],
}

fn put_varint(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push((v as u8) | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// Reads the varint at `*at` and moves `*at` past it.
fn take_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl PackedRows {
    /// Moves the three level sections out of `checkpoint`, leaving them
    /// empty, and packs them into a buffer of exactly their size. The
    /// buffer is reserved at a byte a number, which is exact when every
    /// level and row length is below 128, as in every served checkpoint,
    /// and saves a sizing walk over the rows that costs as much as the
    /// write; a wider number grows the buffer, which is then cut to length.
    fn pack(checkpoint: &mut ActiveCheckpoint) -> Self {
        let sections = [
            std::mem::take(&mut checkpoint.train_configs),
            std::mem::take(&mut checkpoint.pool_configs),
            std::mem::take(&mut checkpoint.quarantined),
        ];
        let one_byte_each = sections.iter().flatten().map(|row| 1 + row.len()).sum();
        let mut bytes = Vec::with_capacity(one_byte_each);
        for row in sections.iter().flatten() {
            put_varint(&mut bytes, row.len() as u64);
            for &level in row {
                put_varint(&mut bytes, level.into());
            }
        }
        bytes.shrink_to_fit();
        Self {
            bytes,
            rows: sections.each_ref().map(Vec::len),
        }
    }

    /// Fills the three (empty) level sections of `checkpoint` with the
    /// rows [`PackedRows::pack`] moved out.
    fn unpack_into(&self, checkpoint: &mut ActiveCheckpoint) {
        let mut at = 0;
        let mut section = |n: usize| -> Vec<Vec<u32>> {
            (0..n)
                .map(|_| {
                    let len = take_varint(&self.bytes, &mut at) as usize;
                    (0..len)
                        .map(|_| take_varint(&self.bytes, &mut at) as u32)
                        .collect()
                })
                .collect()
        };
        checkpoint.train_configs = section(self.rows[0]);
        checkpoint.pool_configs = section(self.rows[1]);
        checkpoint.quarantined = section(self.rows[2]);
    }
}

/// What a loaded session keeps between requests: the checkpoint of the
/// durable generation it stands on, with its level sections moved into
/// [`PackedRows`] (its scalars, labels, history and selections stay as
/// they are), that generation's footer checksum as its digest, and its
/// Eq. 2 evaluator.
#[derive(Debug)]
struct Resident {
    checkpoint: ActiveCheckpoint,
    rows: PackedRows,
    digest: u64,
    elite: EliteTest,
}

impl Resident {
    /// The resident state of generation `checkpoint`, whose checksum is
    /// `digest`; packs the checkpoint's level sections by move.
    fn new(mut checkpoint: ActiveCheckpoint, digest: u64, elite: EliteTest) -> Self {
        let rows = PackedRows::pack(&mut checkpoint);
        Self {
            checkpoint,
            rows,
            digest,
            elite,
        }
    }

    /// Stands on the next generation, `checkpoint`, whose checksum is
    /// `digest`; packs its level sections by move.
    fn advance(&mut self, mut checkpoint: ActiveCheckpoint, digest: u64) {
        self.rows = PackedRows::pack(&mut checkpoint);
        self.checkpoint = checkpoint;
        self.digest = digest;
    }

    /// A private copy of the resident checkpoint, level sections unpacked.
    fn unpack(&self) -> ActiveCheckpoint {
        let mut checkpoint = self.checkpoint.clone();
        self.rows.unpack_into(&mut checkpoint);
        checkpoint
    }
}

/// Saves `checkpoint` as generation `checkpoint.iteration` of `store`,
/// encoding it once; the returned [`Saved`] carries its checksum.
fn save(store: &GenerationStore, checkpoint: &ActiveCheckpoint) -> Result<Saved, ProtocolError> {
    store.commit(checkpoint).map_err(|e| internal(&e))
}

/// One hosted session.
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    target: SessionTarget,
    store: GenerationStore,
    /// The in-memory checkpoint, its digest and its evaluator; `None`
    /// while suspended/unloaded.
    resident: Option<Resident>,
    state: SessionState,
    /// Consecutive over-budget step attempts.
    strikes: usize,
}

/// The spec file's name inside a session directory.
const META_FILE: &str = "meta.pwu";

impl Session {
    /// Creates a brand-new session under `dir`: runs the cold start, removes
    /// whatever `dir` held, writes `meta.pwu` and persists generation 0.
    ///
    /// # Errors
    /// Returns a typed error for bad specs and an [`ErrorKind::Internal`]
    /// error for I/O failures.
    pub fn create(dir: &Path, spec: SessionSpec) -> Result<Self, ProtocolError> {
        spec.validate()?;
        let target = SessionTarget::by_name(&spec.target)?;
        spec.check_space(target.as_target())?;
        let (pool, elite) = spec.materialize_evaluator(target.as_target());
        if pool.len() < spec.n_max {
            return Err(ProtocolError::new(
                ErrorKind::BadRequest,
                format!(
                    "pool of {} legal points cannot supply n_max = {} (space too small or too many illegal points)",
                    pool.len(),
                    spec.n_max
                ),
            ));
        }
        let config = spec.active_config();
        let checkpoint =
            ActiveLoop::new(target.as_target(), &config, pool, &elite, spec.seed).into_checkpoint();
        target.end_request();
        // A directory already here is no live session (the server refuses a
        // hosted id): one skipped at open or left by a crashed create. Its
        // slots would outrank this session's generations, so it goes first.
        match fs::remove_dir_all(dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(internal_io(&e)),
            _ => {}
        }
        fs::create_dir_all(dir).map_err(|e| internal_io(&e))?;
        if let Some(state_dir) = dir.parent() {
            sync_dir(state_dir).map_err(|e| internal_io(&e))?;
        }
        write_durable(
            &dir.join(META_FILE),
            with_integrity_footer(&spec.to_text()).as_bytes(),
        )
        .map_err(|e| internal_io(&e))?;
        let store = GenerationStore::new(dir);
        let saved = save(&store, &checkpoint)?;
        Ok(Self {
            spec,
            target,
            store,
            resident: Some(Resident::new(checkpoint, saved.checksum, elite)),
            state: SessionState::Active,
            strikes: 0,
        })
    }

    /// Attaches to an existing session directory after a restart: reads,
    /// verifies and checks `meta.pwu` as `create` checks a request, but
    /// opens no checkpoint slot — the session comes up
    /// [`SessionState::Suspended`] and a `resume` pays for the load.
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Corrupt`] error when the spec file is
    /// damaged, names no known target, or holds sizes that are invalid or
    /// exceed the target's space, and an [`ErrorKind::Internal`] error for
    /// I/O failures.
    pub fn attach(dir: &Path) -> Result<Self, ProtocolError> {
        let corrupt = |e: &dyn std::fmt::Display| {
            ProtocolError::new(ErrorKind::Corrupt, format!("{META_FILE}: {e}"))
        };
        let bytes = fs::read(dir.join(META_FILE)).map_err(|e| internal_io(&e))?;
        let body = split_verified_body(&bytes).map_err(|e| corrupt(&e))?;
        let spec = SessionSpec::from_text(body)?;
        let target = SessionTarget::by_name(&spec.target).map_err(|e| corrupt(&e.message))?;
        spec.validate()
            .and_then(|()| spec.check_space(target.as_target()))
            .map_err(|e| corrupt(&e.message))?;
        Ok(Self {
            spec,
            target,
            store: GenerationStore::new(dir),
            resident: None,
            state: SessionState::Suspended,
            strikes: 0,
        })
    }

    /// The session's spec.
    #[must_use]
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The session's target.
    #[must_use]
    pub fn target(&self) -> &SessionTarget {
        &self.target
    }

    /// The session's lifecycle state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// True when the session occupies memory (checkpoint loaded).
    #[must_use]
    pub fn is_resident(&self) -> bool {
        self.resident.is_some()
    }

    /// The length of the resident checkpoint's packed level rows (0 when
    /// unloaded).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.resident.as_ref().map_or(0, |r| r.rows.bytes.len())
    }

    /// The durable generation the loaded checkpoint was saved as or loaded
    /// from, which is its iteration (0 when unloaded, like
    /// [`Session::iteration`]).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.iteration()
    }

    /// Consecutive watchdog strikes so far.
    #[must_use]
    pub fn strikes(&self) -> usize {
        self.strikes
    }

    /// Iterations completed (0 when unloaded — query after resume for the
    /// durable value).
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.resident.as_ref().map_or(0, |r| r.checkpoint.iteration)
    }

    /// The resident checkpoint's training-set size (0 when unloaded).
    #[must_use]
    pub fn n_train(&self) -> usize {
        self.resident
            .as_ref()
            .map_or(0, |r| r.checkpoint.train_labels.len())
    }

    /// The resident checkpoint's digest, as 16 hex digits: the
    /// integrity-footer checksum of the newest durable generation, which
    /// equals `fnv1a64(checkpoint.to_text())` — the bit-identity
    /// fingerprint the chaos harness compares across kills. Kept from the
    /// save or the verified load, so reading it encodes nothing.
    #[must_use]
    pub fn digest(&self) -> Option<String> {
        self.resident.as_ref().map(|r| format!("{:016x}", r.digest))
    }

    /// Resumes the session from its last durable generation, keeping the
    /// checkpoint the load verified and parsed, then derives the spec once
    /// to rebuild the session's evaluator (also clears a degraded session's
    /// strikes — resume is the recovery path). Returns how many damaged
    /// slots the load removed ([`pwu_core::Recovered::rolled_back`]).
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Corrupt`] error when no generation survives
    /// on disk, or when the directory holds checkpoints in the retired
    /// `gen-*.ckpt` layout.
    pub fn resume(&mut self) -> Result<usize, ProtocolError> {
        let recovered = self
            .store
            .load_latest()
            .map_err(|e| ProtocolError::new(ErrorKind::Corrupt, e.to_string()))?
            .ok_or_else(|| {
                ProtocolError::new(
                    ErrorKind::Corrupt,
                    "session directory holds no generations at all",
                )
            })?;
        let done = recovered.checkpoint.train_configs.len() >= self.spec.n_max
            || recovered.checkpoint.pool_configs.is_empty();
        let (_, elite) = self.spec.materialize_evaluator(self.target.as_target());
        self.target.end_request();
        self.resident = Some(Resident::new(
            recovered.checkpoint,
            recovered.checksum,
            elite,
        ));
        self.strikes = 0;
        self.state = if done {
            SessionState::Done
        } else {
            SessionState::Active
        };
        Ok(recovered.rolled_back)
    }

    /// Suspends the session: drops the in-memory checkpoint (already
    /// durable — every committed step persisted a generation) and the
    /// evaluator.
    /// Suspending a done/degraded session just unloads it; its state token
    /// is preserved on resume via the durable checkpoint.
    pub fn suspend(&mut self) {
        self.resident = None;
        if self.state == SessionState::Active {
            self.state = SessionState::Suspended;
        }
    }

    /// Attempts one watchdogged step.
    ///
    /// The step unpacks a private copy of the resident checkpoint, restores
    /// an [`ActiveLoop`] from it and the evaluator, steps it and captures it,
    /// so it is *pure* until commit: a panic (isolated with
    /// `catch_unwind`) or an over-deadline cost discards the outcome and
    /// leaves the resident and durable state untouched. A panic degrades
    /// the session at once; an over-deadline cost records a strike, and the
    /// [`WatchdogPolicy::STRIKE_LIMIT`]-th consecutive strike degrades it.
    /// A committed step persists the captured checkpoint as the next
    /// generation and keeps it, packed. Every attempt that ran,
    /// whatever its outcome, empties the memo it filled.
    ///
    /// # Errors
    /// Returns an [`ErrorKind::BadState`] error unless the session is
    /// `Active`, a [`ErrorKind::Degraded`] error when this attempt degraded
    /// it, and an [`ErrorKind::Internal`] error when persisting fails.
    pub fn step(&mut self, watchdog: &WatchdogPolicy) -> Result<StepReport, ProtocolError> {
        match self.state {
            SessionState::Active => {}
            SessionState::Done => {
                return Ok(StepReport {
                    committed: false,
                    done: true,
                    step_cost: 0.0,
                    state: SessionState::Done,
                })
            }
            s => {
                return Err(ProtocolError::new(
                    ErrorKind::BadState,
                    format!("cannot step a {} session; resume it first", s.token()),
                ))
            }
        }
        let resident = self
            .resident
            .as_mut()
            .expect("active session must be resident");
        let config = self.spec.active_config();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut active = ActiveLoop::from_checkpoint(
                self.target.as_target(),
                &config,
                resident.unpack(),
                &resident.elite,
            )?;
            let before = active.cost();
            let done = active.step(self.spec.strategy);
            let step_cost = active.cost() - before;
            Ok::<_, CheckpointError>((active.into_checkpoint(), done, step_cost))
        }));
        self.target.end_request();
        let (checkpoint, done, step_cost) = match attempt {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => {
                // A mismatch between spec and checkpoint means the durable
                // state cannot be trusted.
                return Err(ProtocolError::new(ErrorKind::Corrupt, e.to_string()));
            }
            Err(_panic) => {
                // The step panicked (e.g. a NaN reading). Nothing was
                // committed; degrade immediately — panics are not
                // deadline strikes a bigger budget could fix.
                self.state = SessionState::Degraded;
                return Err(ProtocolError::new(
                    ErrorKind::Degraded,
                    "step panicked; session degraded (resume to retry from the last durable generation)",
                ));
            }
        };
        if watchdog.busted(step_cost) {
            self.strikes += 1;
            if self.strikes >= WatchdogPolicy::STRIKE_LIMIT {
                self.state = SessionState::Degraded;
                return Err(ProtocolError::new(
                    ErrorKind::Degraded,
                    format!(
                        "step cost {} busted the deadline {} on strike {}; session degraded",
                        step_cost, watchdog.max_step_cost, self.strikes
                    ),
                ));
            }
            return Ok(StepReport {
                committed: false,
                done: false,
                step_cost,
                state: self.state,
            });
        }
        self.strikes = 0;
        let saved = save(&self.store, &checkpoint)?;
        resident.advance(checkpoint, saved.checksum);
        if done {
            self.state = SessionState::Done;
        }
        Ok(StepReport {
            committed: true,
            done,
            step_cost,
            state: self.state,
        })
    }

    /// Deletes the session's durable state (directory and contents).
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Internal`] error for I/O failures.
    pub fn destroy(self, dir: &Path) -> Result<(), ProtocolError> {
        fs::remove_dir_all(dir).map_err(|e| internal_io(&e))
    }
}

fn internal_io(e: &std::io::Error) -> ProtocolError {
    ProtocolError::new(ErrorKind::Internal, e.to_string())
}

fn internal(e: &CheckpointError) -> ProtocolError {
    ProtocolError::new(ErrorKind::Internal, e.to_string())
}

/// The on-disk directory of session `id` under `state_dir`.
#[must_use]
pub fn session_dir(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwu_core::MeasurementStats;
    use pwu_space::PoolLintCounts;

    /// A checkpoint whose level sections are `sections`, every other field
    /// fixed.
    fn checkpoint_with(sections: [Vec<Vec<u32>>; 3]) -> ActiveCheckpoint {
        let [train_configs, pool_configs, quarantined] = sections;
        ActiveCheckpoint {
            target_name: "adi".into(),
            iteration: 7,
            forest_seed: 11,
            n_init: 5,
            n_batch: 1,
            n_max: 30,
            repeats: 3,
            fit_mode: FitMode::Fast,
            alphas: vec![0.05],
            annotator_rng: [1, 2, 3, 4],
            annotator_evaluations: 9,
            stats: MeasurementStats::default(),
            select_rng: [5, 6, 7, 8],
            pool_rng: [9, 10, 11, 12],
            lint: PoolLintCounts::default(),
            train_labels: (0..train_configs.len()).map(|i| i as f64 + 0.5).collect(),
            train_configs,
            pool_configs,
            quarantined,
            history: Vec::new(),
            selections: Vec::new(),
        }
    }

    #[test]
    fn varints_are_leb128() {
        for (v, bytes) in [
            (0, &[0x00][..]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xFF, 0x7F]),
            (16_384, &[0x80, 0x80, 0x01]),
            (u64::from(u32::MAX), &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out, bytes, "{v}");
            let mut at = 0;
            assert_eq!(take_varint(&out, &mut at), v);
            assert_eq!(at, out.len());
        }
    }

    #[test]
    fn packed_rows_unpack_to_the_checkpoint_they_packed() {
        const EDGES: [u32; 6] = [0, 127, 128, 16_383, 16_384, u32::MAX];
        let mut cases: Vec<[Vec<Vec<u32>>; 3]> = vec![
            [vec![], vec![], vec![]],
            [vec![EDGES.to_vec()], vec![vec![]], vec![]],
            [
                vec![],
                vec![vec![3, 1], vec![4], vec![1, 5, 9, 2, 6]],
                vec![vec![]; 2],
            ],
        ];
        let mut rng = Xoshiro256PlusPlus::new(31);
        let mut below = |n: u64| (rng.next() % n) as usize;
        for _ in 0..300 {
            cases.push(std::array::from_fn(|_| {
                (0..below(12))
                    .map(|_| {
                        (0..below(40))
                            .map(|_| match below(3) {
                                0 => EDGES[below(EDGES.len() as u64)],
                                1 => below(31) as u32,
                                _ => (below(1 << 32) as u32) >> below(32),
                            })
                            .collect()
                    })
                    .collect()
            }));
        }
        for sections in cases {
            let original = checkpoint_with(sections);
            let mut resident = original.clone();
            let rows = PackedRows::pack(&mut resident);
            assert!(resident.train_configs.is_empty());
            assert!(resident.pool_configs.is_empty());
            assert!(resident.quarantined.is_empty());
            assert_eq!(
                rows.bytes.capacity(),
                rows.bytes.len(),
                "no slack stays resident"
            );
            rows.unpack_into(&mut resident);
            assert_eq!(resident, original);
        }
        // A 16-level row of levels below 128 takes a byte a level, plus
        // its length.
        let mut gesummv = checkpoint_with([vec![], vec![vec![30; 16]; 1000], vec![]]);
        assert_eq!(PackedRows::pack(&mut gesummv).bytes.len(), 17_000);
    }

    #[test]
    fn spec_text_round_trips_bit_exactly() {
        let spec = SessionSpec {
            target: "adi".into(),
            strategy: Strategy::Pbus { fraction: 0.1 },
            fit_mode: FitMode::Fast,
            alpha: f64::from_bits(0x3FA9_9999_9999_999A),
            seed: 0xDEAD_BEEF,
            ..SessionSpec::default()
        };
        let back = SessionSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.alpha.to_bits(), spec.alpha.to_bits());
        assert_eq!(
            SessionSpec::from_text(&SessionSpec::default().to_text())
                .unwrap()
                .fit_mode,
            FitMode::Exact
        );
    }

    #[test]
    fn spec_parse_rejects_damage_with_corrupt_kind() {
        let spec = SessionSpec {
            target: "adi".into(),
            ..SessionSpec::default()
        };
        let text = spec.to_text();
        for broken in [
            "".to_string(),
            text.replacen("pwu-session-spec", "nope", 1),
            text.replacen("sizes", "sizes x", 1),
            text.replacen("fit-mode exact", "fit-mode warp", 1),
            text.lines().take(3).collect::<Vec<_>>().join("\n"),
        ] {
            let err = SessionSpec::from_text(&broken).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Corrupt, "{broken:?}");
        }
    }

    #[test]
    fn strategy_tokens_round_trip() {
        for s in [
            Strategy::Pwu { alpha: 0.05 },
            Strategy::Pbus { fraction: 0.1 },
            Strategy::Brs { fraction: 0.25 },
            Strategy::BestPerf,
            Strategy::MaxU,
            Strategy::Uniform,
        ] {
            assert_eq!(parse_strategy(&strategy_token(s)).unwrap(), s);
        }
        assert!(parse_strategy("pwu").is_err());
        assert!(parse_strategy("pwu:2.0").is_err());
        assert!(parse_strategy("magic").is_err());
    }

    #[test]
    fn spec_validation_catches_degenerate_sizes() {
        let ok = SessionSpec {
            target: "adi".into(),
            ..SessionSpec::default()
        };
        assert!(ok.validate().is_ok());
        for broken in [
            SessionSpec {
                n_init: 0,
                ..ok.clone()
            },
            SessionSpec {
                n_max: 2,
                ..ok.clone()
            },
            SessionSpec {
                pool_n: 10,
                ..ok.clone()
            },
            SessionSpec {
                test_n: 0,
                ..ok.clone()
            },
            SessionSpec {
                alpha: 1.5,
                ..ok.clone()
            },
            SessionSpec {
                alpha: 0.0,
                ..ok.clone()
            },
            SessionSpec {
                repeats: MAX_REPEATS + 1,
                ..ok.clone()
            },
            SessionSpec {
                repeats: 1 << 53,
                ..ok.clone()
            },
            SessionSpec {
                n_trees: MAX_TREES + 1,
                ..ok.clone()
            },
            SessionSpec {
                n_trees: 1 << 53,
                ..ok.clone()
            },
            SessionSpec {
                pool_n: MAX_POINTS,
                ..ok.clone()
            },
            SessionSpec {
                pool_n: 1 << 53,
                ..ok.clone()
            },
            SessionSpec {
                test_n: usize::MAX,
                ..ok.clone()
            },
        ] {
            assert_eq!(broken.validate().unwrap_err().kind, ErrorKind::BadRequest);
        }
        // The bounds themselves are allowed.
        let largest = SessionSpec {
            repeats: MAX_REPEATS,
            n_trees: MAX_TREES,
            pool_n: MAX_POINTS - ok.test_n,
            ..ok.clone()
        };
        assert!(largest.validate().is_ok());
    }

    #[test]
    fn unknown_targets_are_bad_requests() {
        assert!(SessionTarget::by_name("adi").is_ok());
        assert!(SessionTarget::by_name("kripke").is_ok());
        assert!(SessionTarget::by_name("hypre").is_ok());
        let err = SessionTarget::by_name("nope").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(SessionTarget::by_name("adi").unwrap().cache().is_some());
        assert!(SessionTarget::by_name("kripke").unwrap().cache().is_none());
    }
}
