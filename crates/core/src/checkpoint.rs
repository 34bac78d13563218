//! Checkpoint/resume for long active-learning runs.
//!
//! A real tuning campaign annotates hundreds of configurations at tens of
//! seconds each; the process hosting it will eventually be killed. An
//! [`ActiveCheckpoint`] captures everything Algorithm 1's iteration loop
//! mutates — the labeled set, the remaining pool, the quarantine list, all
//! three RNG streams (annotation, selection, pool sampling) and the
//! iteration counter — so [`crate::active::resume`] can continue the run
//! *bit-identically* to the run that saved it. The from-scratch forest is
//! deliberately not serialized: it is a pure function of the training set
//! and the iteration-derived seed, so resume refits it instead.
//!
//! The on-disk format is a hand-rolled line-oriented text file (the
//! workspace has no serialization dependency). Every `f64` is stored as its
//! IEEE-754 bit pattern in hex, so round-trips are exact — a resumed run
//! sees the same bits the killed run saw. Writes go through [`write_durable`]
//! (a synced temp file in the same directory, an atomic rename, then a sync
//! of the directory), so a crash or power loss mid-write leaves the previous
//! checkpoint intact rather than a torn file.
//!
//! Two integrity layers sit on top of the text format:
//!
//! - every file [`ActiveCheckpoint::save_atomic`] writes ends with a
//!   `footer <body-bytes> <fnv1a64>` line; [`ActiveCheckpoint::load_verified`]
//!   demands it and returns a typed [`CheckpointError::Corrupt`] — never a
//!   panic, never a silent misparse — when the file is truncated, bit-flipped
//!   or otherwise damaged;
//! - [`GenerationStore`] keeps the last few checkpoints as numbered
//!   generations (`gen-NNNN.ckpt`), so a corrupt newest generation rolls
//!   back to the previous durable one instead of losing the session.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

use pwu_forest::FitMode;
use pwu_space::PoolLintCounts;

use crate::active::{SelectionTrace, Snapshot};
use crate::annotator::MeasurementStats;

/// When and where a run saves checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (the temp file is written next to it).
    pub path: PathBuf,
    /// Save every this many iterations (a final save always happens when
    /// the run completes).
    pub every: u64,
}

impl CheckpointPolicy {
    /// Creates a policy saving to `path` every `every` iterations.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// Why a checkpoint could not be saved, loaded or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be read or written.
    Io(std::io::Error),
    /// The checkpoint file is malformed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The checkpoint does not belong to the given target/configuration.
    Mismatch(String),
    /// The checkpoint file is damaged: truncated, bit-flipped, missing its
    /// integrity footer, or failing the footer's length/checksum test.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A serializable snapshot of an in-flight active-learning run.
///
/// Captured at iteration boundaries (after the refit and any history
/// recording), so resuming replays the loop from the next iteration with
/// nothing lost and nothing repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveCheckpoint {
    /// Name of the target being tuned (verified on resume).
    pub target_name: String,
    /// Iterations completed.
    pub iteration: u64,
    /// The derived forest seed (refits use `derive_seed(forest_seed, i)`).
    pub forest_seed: u64,
    /// Cold-start size of the saving run (verified on resume).
    pub n_init: usize,
    /// Batch size of the saving run (verified on resume).
    pub n_batch: usize,
    /// Stop size of the saving run (verified on resume).
    pub n_max: usize,
    /// Measurement repeats of the saving run (verified on resume).
    pub repeats: usize,
    /// Forest fit engine of the saving run (verified on resume: the two
    /// engines produce bitwise-different forests, so resuming a run under
    /// the other engine would silently fork its trajectory).
    pub fit_mode: FitMode,
    /// RMSE@α levels of the saving run (verified bit-exactly on resume).
    pub alphas: Vec<f64>,
    /// Annotation RNG stream position.
    pub annotator_rng: [u64; 4],
    /// Annotations attempted so far.
    pub annotator_evaluations: usize,
    /// Measurement tally so far.
    pub stats: MeasurementStats,
    /// Selection RNG stream position.
    pub select_rng: [u64; 4],
    /// Pool-sampling RNG stream position.
    pub pool_rng: [u64; 4],
    /// Lint tally over the original pool.
    pub lint: PoolLintCounts,
    /// Labeled configurations (levels; features are re-encoded on resume).
    pub train_configs: Vec<Vec<u32>>,
    /// Labels aligned with `train_configs`.
    pub train_labels: Vec<f64>,
    /// Remaining pool configurations (levels).
    pub pool_configs: Vec<Vec<u32>>,
    /// Quarantined configurations (levels).
    pub quarantined: Vec<Vec<u32>>,
    /// Test-set evaluation snapshots recorded so far.
    pub history: Vec<Snapshot>,
    /// Selection traces recorded so far.
    pub selections: Vec<SelectionTrace>,
}

// v2 added the `fit-mode` line; older files are rejected at the magic with
// a parse error rather than resumed under a silently-assumed engine.
const MAGIC: &str = "pwu-active-checkpoint v2";

/// FNV-1a 64-bit hash — the checksum in the checkpoint integrity footer.
///
/// Public so sibling crates (`pwu-serve` session metadata) can stamp their
/// own durable files with the same footer convention.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the `footer <body-bytes> <fnv1a64>` integrity line to a durable
/// text body. The companion [`split_verified_body`] checks and strips it.
#[must_use]
pub fn with_integrity_footer(body: &str) -> String {
    let mut text = body.to_string();
    push_integrity_footer(&mut text);
    text
}

/// Appends the integrity footer line to `text`, all of which is the body,
/// and returns the body's checksum.
fn push_integrity_footer(text: &mut String) -> u64 {
    use fmt::Write as _;
    let checksum = fnv1a64(text.as_bytes());
    let len = text.len();
    let _ = writeln!(text, "footer {len} {checksum:016x}");
    checksum
}

/// Verifies the integrity footer on raw file bytes and returns the body.
///
/// # Errors
/// Returns [`CheckpointError::Corrupt`] when the bytes are not UTF-8, the
/// footer is missing or malformed, the recorded length does not match the
/// body, or the checksum disagrees — i.e. on any truncation or bit flip.
pub fn split_verified_body(bytes: &[u8]) -> Result<&str, CheckpointError> {
    verify_footer(bytes).map(|(body, _)| body)
}

/// [`split_verified_body`], also returning the verified checksum.
fn verify_footer(bytes: &[u8]) -> Result<(&str, u64), CheckpointError> {
    let corrupt = |msg: &str| CheckpointError::Corrupt(msg.to_string());
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt("file is not valid UTF-8"))?;
    let at = text
        .rfind("footer ")
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .ok_or_else(|| corrupt("missing integrity footer"))?;
    let (body, footer) = text.split_at(at);
    let mut it = footer.split_whitespace();
    let (Some("footer"), Some(len), Some(sum), None) = (it.next(), it.next(), it.next(), it.next())
    else {
        return Err(corrupt("malformed integrity footer"));
    };
    let len: usize = len
        .parse()
        .map_err(|_| corrupt("malformed footer length"))?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| corrupt("malformed footer checksum"))?;
    if body.len() != len {
        return Err(corrupt("body length does not match the footer"));
    }
    if fnv1a64(body.as_bytes()) != sum {
        return Err(corrupt("body checksum does not match the footer"));
    }
    Ok((body, sum))
}

/// Writes `bytes` to `path` so that a crash or a power loss leaves either
/// the previous file or the complete new one: the bytes go to a temp file
/// next to `path` (`write_all`, then `sync_all`), the temp file is renamed
/// over `path`, and the parent directory is synced so the rename itself is
/// durable. Every durable file of the workspace is written through here.
///
/// # Errors
/// Returns the first filesystem error.
pub fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Syncs directory `dir` (the empty path is the current directory), making
/// the entries created or renamed in it durable.
///
/// # Errors
/// Returns the error from opening or syncing the directory.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    fs::File::open(dir)?.sync_all()
}

/// Appends `v` in decimal, as `{v}` formats it.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `word` as 16 lowercase hex digits, as `{word:016x}` formats it.
fn push_hex(out: &mut String, word: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.extend(
        (0..16)
            .rev()
            .map(|nibble| char::from(DIGITS[(word >> (nibble * 4)) as usize & 0xf])),
    );
}

/// Appends configuration levels, comma-separated.
fn push_levels(out: &mut String, levels: &[u32]) {
    for (i, &level) in levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_decimal(out, u64::from(level));
    }
}

/// Appends `f64` bit patterns in hex, space-separated.
fn push_hex_floats(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_hex(out, v.to_bits());
    }
}

impl ActiveCheckpoint {
    /// Serializes to the line-oriented checkpoint text format.
    ///
    /// Every line is written straight into one pre-sized `String`. The
    /// per-row sections (levels, labels, history, selections) bypass the
    /// formatting machinery: their numbers go through small decimal and hex
    /// helpers, with no per-row or per-number temporaries. The bytes are
    /// pinned by `tests/checkpoint_format.rs`.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let _span = pwu_obs::span(
            "checkpoint.encode",
            [
                ("train", pwu_obs::Arg::u(self.train_configs.len() as u64)),
                ("pool", pwu_obs::Arg::u(self.pool_configs.len() as u64)),
            ],
        );
        let mut out = String::with_capacity(self.text_len_estimate());
        let w = &mut out;
        let _ = writeln!(w, "{MAGIC}");
        let _ = writeln!(w, "target {}", self.target_name);
        let _ = writeln!(w, "iteration {}", self.iteration);
        let _ = writeln!(w, "forest-seed {}", self.forest_seed);
        let _ = writeln!(
            w,
            "counts {} {} {} {}",
            self.n_init, self.n_batch, self.n_max, self.repeats
        );
        let _ = writeln!(w, "fit-mode {}", self.fit_mode.token());
        w.push_str("alphas ");
        push_hex_floats(w, &self.alphas);
        w.push('\n');
        for (tag, state) in [
            ("annotator-rng", &self.annotator_rng),
            ("select-rng", &self.select_rng),
            ("pool-rng", &self.pool_rng),
        ] {
            let _ = writeln!(
                w,
                "{tag} {:016x} {:016x} {:016x} {:016x}",
                state[0], state[1], state[2], state[3]
            );
        }
        let _ = writeln!(w, "annotator-evaluations {}", self.annotator_evaluations);
        let s = &self.stats;
        let _ = writeln!(
            w,
            "stats {} {} {} {} {} {} {} {} {:016x}",
            s.annotations,
            s.readings,
            s.compile_failures,
            s.crashes,
            s.bad_readings,
            s.timeouts,
            s.retries,
            s.failed_annotations,
            s.wasted_cost.to_bits()
        );
        let _ = writeln!(
            w,
            "lint {} {} {}",
            self.lint.legal, self.lint.flagged, self.lint.illegal
        );
        let _ = writeln!(w, "train {}", self.train_configs.len());
        for (cfg, label) in self.train_configs.iter().zip(&self.train_labels) {
            push_levels(w, cfg);
            w.push(' ');
            push_hex(w, label.to_bits());
            w.push('\n');
        }
        for (tag, configs) in [
            ("pool", &self.pool_configs),
            ("quarantined", &self.quarantined),
        ] {
            let _ = writeln!(w, "{tag} {}", configs.len());
            for cfg in configs {
                push_levels(w, cfg);
                w.push('\n');
            }
        }
        let _ = writeln!(w, "history {}", self.history.len());
        for snap in &self.history {
            push_decimal(w, snap.n_train as u64);
            w.push(' ');
            push_hex(w, snap.cumulative_cost.to_bits());
            w.push(' ');
            push_hex_floats(w, &snap.rmse);
            w.push('\n');
        }
        let _ = writeln!(w, "selections {}", self.selections.len());
        for sel in &self.selections {
            push_hex_floats(w, &[sel.mean, sel.std, sel.observed]);
            w.push('\n');
        }
        w.push_str("end\n");
        out
    }

    /// A generous estimate of [`ActiveCheckpoint::to_text`]'s length, so
    /// the encoder (and a store appending the footer) rarely regrows its
    /// buffer: 3 bytes per level, 17 per hex word, and slack for the header
    /// and section lines, long decimals and the footer.
    fn text_len_estimate(&self) -> usize {
        let configs = [&self.train_configs, &self.pool_configs, &self.quarantined];
        let levels: usize = configs.into_iter().flatten().map(|c| 3 * c.len() + 1).sum();
        let rmse: usize = self.history.iter().map(|s| 2 + s.rmse.len()).sum();
        let words = self.alphas.len() + self.train_labels.len() + rmse + 3 * self.selections.len();
        1024 + self.target_name.len() + levels + 17 * words
    }

    /// Parses the checkpoint text format.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Parse`] with a 1-based line number on any
    /// malformed line.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = Lines::new(text);
        lines.expect_exact(MAGIC)?;
        let target_name = lines.tagged_rest("target")?.to_string();
        let iteration = lines
            .tagged_rest("iteration")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad iteration: {e}")))?;
        let forest_seed = lines
            .tagged_rest("forest-seed")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad forest-seed: {e}")))?;
        let counts = lines.tagged_rest("counts")?.to_string();
        let mut it = counts.split_whitespace();
        let n_init = lines.next_usize(&mut it, "counts")?;
        let n_batch = lines.next_usize(&mut it, "counts")?;
        let n_max = lines.next_usize(&mut it, "counts")?;
        let repeats = lines.next_usize(&mut it, "counts")?;
        let fit_mode_token = lines.tagged_rest("fit-mode")?.trim().to_string();
        let fit_mode = FitMode::parse(&fit_mode_token)
            .ok_or_else(|| lines.err(format!("unknown fit-mode {fit_mode_token:?}")))?;
        let alphas_line = lines.tagged_rest("alphas")?.to_string();
        let alphas = alphas_line
            .split_whitespace()
            .map(|tok| lines.parse_hex_f64(tok))
            .collect::<Result<Vec<f64>, _>>()?;
        let annotator_rng = lines.rng_state("annotator-rng")?;
        let select_rng = lines.rng_state("select-rng")?;
        let pool_rng = lines.rng_state("pool-rng")?;
        let annotator_evaluations = lines
            .tagged_rest("annotator-evaluations")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad evaluations: {e}")))?;
        let stats_line = lines.tagged_rest("stats")?.to_string();
        let mut it = stats_line.split_whitespace();
        let stats = MeasurementStats {
            annotations: lines.next_usize(&mut it, "stats")?,
            readings: lines.next_usize(&mut it, "stats")?,
            compile_failures: lines.next_usize(&mut it, "stats")?,
            crashes: lines.next_usize(&mut it, "stats")?,
            bad_readings: lines.next_usize(&mut it, "stats")?,
            timeouts: lines.next_usize(&mut it, "stats")?,
            retries: lines.next_usize(&mut it, "stats")?,
            failed_annotations: lines.next_usize(&mut it, "stats")?,
            wasted_cost: {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err("stats line is missing wasted_cost".into()))?;
                lines.parse_hex_f64(tok)?
            },
        };
        let lint_line = lines.tagged_rest("lint")?.to_string();
        let mut it = lint_line.split_whitespace();
        let lint = PoolLintCounts {
            legal: lines.next_usize(&mut it, "lint")?,
            flagged: lines.next_usize(&mut it, "lint")?,
            illegal: lines.next_usize(&mut it, "lint")?,
        };

        let n_train = lines.counted_section("train")?;
        let mut train_configs = Vec::with_capacity(n_train);
        let mut train_labels = Vec::with_capacity(n_train);
        for _ in 0..n_train {
            let line = lines.next_line()?.to_string();
            let (levels, label) = line
                .rsplit_once(' ')
                .ok_or_else(|| lines.err("train line needs 'levels label'".into()))?;
            train_configs.push(lines.parse_levels(levels)?);
            train_labels.push(lines.parse_hex_f64(label)?);
        }
        let n_pool = lines.counted_section("pool")?;
        let mut pool_configs = Vec::with_capacity(n_pool);
        for _ in 0..n_pool {
            let line = lines.next_line()?.to_string();
            pool_configs.push(lines.parse_levels(&line)?);
        }
        let n_quarantined = lines.counted_section("quarantined")?;
        let mut quarantined = Vec::with_capacity(n_quarantined);
        for _ in 0..n_quarantined {
            let line = lines.next_line()?.to_string();
            quarantined.push(lines.parse_levels(&line)?);
        }
        let n_history = lines.counted_section("history")?;
        let mut history = Vec::with_capacity(n_history);
        for _ in 0..n_history {
            let line = lines.next_line()?.to_string();
            let mut it = line.split_whitespace();
            let n_train = lines.next_usize(&mut it, "history")?;
            let cumulative_cost = {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err("history line is missing cost".into()))?;
                lines.parse_hex_f64(tok)?
            };
            let rmse = it
                .map(|tok| lines.parse_hex_f64(tok))
                .collect::<Result<Vec<f64>, _>>()?;
            history.push(Snapshot {
                n_train,
                cumulative_cost,
                rmse,
            });
        }
        let n_selections = lines.counted_section("selections")?;
        let mut selections = Vec::with_capacity(n_selections);
        for _ in 0..n_selections {
            let line = lines.next_line()?.to_string();
            let mut it = line.split_whitespace();
            let mut next = |what: &str| -> Result<f64, CheckpointError> {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err(format!("selection line is missing {what}")))?;
                lines.parse_hex_f64(tok)
            };
            selections.push(SelectionTrace {
                mean: next("mean")?,
                std: next("std")?,
                observed: next("observed")?,
            });
        }
        lines.expect_exact("end")?;
        Ok(Self {
            target_name,
            iteration,
            forest_seed,
            n_init,
            n_batch,
            n_max,
            repeats,
            fit_mode,
            alphas,
            annotator_rng,
            annotator_evaluations,
            stats,
            select_rng,
            pool_rng,
            lint,
            train_configs,
            train_labels,
            pool_configs,
            quarantined,
            history,
            selections,
        })
    }

    /// Writes the checkpoint durably: serialize (with the integrity footer)
    /// and go through [`write_durable`], so a crash or a power loss leaves
    /// either the previous checkpoint or this one, never a torn file.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut text = self.to_text();
        let _span = pwu_obs::span(
            "checkpoint.save",
            [("train", pwu_obs::Arg::u(self.train_configs.len() as u64))],
        );
        push_integrity_footer(&mut text);
        write_durable(path, text.as_bytes())?;
        Ok(())
    }

    /// Loads a checkpoint, verifying the integrity footer first. Every
    /// on-disk writer ([`ActiveCheckpoint::save_atomic`],
    /// [`GenerationStore::save_body`]) appends the footer.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Corrupt`] if it is truncated, bit-flipped or
    /// missing its footer, and [`CheckpointError::Parse`] if a body that
    /// passed the checksum still fails to parse (i.e. a valid footer was
    /// stamped onto a malformed body — possible only for hand-built files).
    pub fn load_verified(path: &Path) -> Result<Self, CheckpointError> {
        Self::load_verified_with_checksum(path).map(|(checkpoint, _)| checkpoint)
    }

    /// [`ActiveCheckpoint::load_verified`], also returning the verified
    /// footer checksum.
    fn load_verified_with_checksum(path: &Path) -> Result<(Self, u64), CheckpointError> {
        let bytes = fs::read(path)?;
        let (body, checksum) = verify_footer(&bytes)?;
        Ok((Self::from_text(body)?, checksum))
    }
}

/// How many generations a [`GenerationStore`] retains.
const KEEP: usize = 2;

/// A directory of generation-numbered checkpoints (`gen-NNNNNNNNNN.ckpt`).
///
/// Each save lands in a fresh, higher-numbered file (atomically, footer
/// included) and then prunes all but the newest two generations. Loading
/// walks generations newest-first, *rolling back* past (and deleting) any
/// corrupt file, so a crash — even one that damages the newest checkpoint —
/// costs at most the work since the previous durable generation.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    dir: PathBuf,
}

/// What [`GenerationStore::load_latest`] recovered.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The generation number that loaded cleanly.
    pub generation: u64,
    /// Newer generations that were corrupt and rolled past.
    pub rolled_back: usize,
    /// The recovered checkpoint.
    pub checkpoint: ActiveCheckpoint,
    /// The integrity-footer checksum of the verified body, i.e.
    /// `fnv1a64(checkpoint.to_text())`.
    pub checksum: u64,
}

/// What [`GenerationStore::save_body`] made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saved {
    /// The new generation number.
    pub generation: u64,
    /// The integrity-footer checksum of the saved body.
    pub checksum: u64,
}

impl GenerationStore {
    /// A store rooted at `dir`, keeping the newest 2 generations.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of generation `generation`.
    #[must_use]
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:010}.ckpt"))
    }

    /// Existing generation numbers, ascending. A missing directory is an
    /// empty store; unrelated files are ignored.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("gen-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Saves `checkpoint` as the next generation and prunes old ones.
    /// Returns the new generation number.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure. Pruning
    /// failures are ignored — a stale extra generation is harmless.
    pub fn save(&self, checkpoint: &ActiveCheckpoint) -> Result<u64, CheckpointError> {
        self.save_body(checkpoint.to_text())
            .map(|saved| saved.generation)
    }

    /// Saves an already-encoded checkpoint body (the output of
    /// [`ActiveCheckpoint::to_text`]) as the next generation, durably and
    /// with the integrity footer, then prunes old generations. A caller
    /// that needs the body's checksum gets it from the returned [`Saved`]
    /// instead of encoding and hashing the checkpoint a second time.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure. Pruning
    /// failures are ignored — a stale extra generation is harmless.
    pub fn save_body(&self, mut body: String) -> Result<Saved, CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let gens = self.generations();
        let generation = gens.last().map_or(0, |g| g + 1);
        let _span = pwu_obs::span(
            "checkpoint.save",
            [("generation", pwu_obs::Arg::u(generation))],
        );
        let checksum = push_integrity_footer(&mut body);
        write_durable(&self.path_for(generation), body.as_bytes())?;
        for &old in gens.iter().rev().skip(KEEP - 1) {
            let _ = fs::remove_file(self.path_for(old));
        }
        Ok(Saved {
            generation,
            checksum,
        })
    }

    /// Loads the newest generation that passes integrity verification,
    /// rolling back past corrupt ones, and removes the corrupt ones it
    /// rolled past: the next save reuses their numbers, so its prune keeps
    /// the recovered generation. `Ok(None)` means the store holds no
    /// generations at all (nothing was ever saved).
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when a rolled-past generation cannot
    /// be removed, and [`CheckpointError::Corrupt`] (removing nothing) when
    /// generations exist but every one of them is damaged.
    pub fn load_latest(&self) -> Result<Option<Recovered>, CheckpointError> {
        let gens = self.generations();
        if gens.is_empty() {
            return Ok(None);
        }
        let mut rolled_back = 0usize;
        for &generation in gens.iter().rev() {
            let _span = pwu_obs::span(
                "checkpoint.load",
                [
                    ("generation", pwu_obs::Arg::u(generation)),
                    ("rolled_back", pwu_obs::Arg::u(rolled_back as u64)),
                ],
            );
            match ActiveCheckpoint::load_verified_with_checksum(&self.path_for(generation)) {
                Ok((checkpoint, checksum)) => {
                    for &damaged in &gens[gens.len() - rolled_back..] {
                        fs::remove_file(self.path_for(damaged))?;
                    }
                    return Ok(Some(Recovered {
                        generation,
                        rolled_back,
                        checkpoint,
                        checksum,
                    }));
                }
                Err(_) => rolled_back += 1,
            }
        }
        Err(CheckpointError::Corrupt(format!(
            "all {rolled_back} generation(s) under {} are damaged",
            self.dir.display()
        )))
    }
}

/// Line cursor with 1-based error positions.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines(),
            line_no: 0,
        }
    }

    fn err(&self, message: String) -> CheckpointError {
        CheckpointError::Parse {
            line: self.line_no,
            message,
        }
    }

    fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        self.line_no += 1;
        self.iter.next().ok_or(CheckpointError::Parse {
            line: self.line_no,
            message: "unexpected end of file".into(),
        })
    }

    fn expect_exact(&mut self, expected: &str) -> Result<(), CheckpointError> {
        let line = self.next_line()?;
        if line == expected {
            Ok(())
        } else {
            Err(self.err(format!("expected '{expected}', found '{line}'")))
        }
    }

    /// Consumes a `tag rest...` line and returns `rest`.
    fn tagged_rest(&mut self, tag: &str) -> Result<&'a str, CheckpointError> {
        let line = self.next_line()?;
        line.strip_prefix(tag)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .ok_or_else(|| self.err(format!("expected '{tag} ...', found '{line}'")))
    }

    /// Consumes a `tag <count>` section header and returns the count.
    fn counted_section(&mut self, tag: &str) -> Result<usize, CheckpointError> {
        let rest = self.tagged_rest(tag)?;
        rest.trim()
            .parse()
            .map_err(|e| self.err(format!("bad {tag} count: {e}")))
    }

    fn next_usize(
        &self,
        it: &mut SplitWhitespace<'_>,
        what: &str,
    ) -> Result<usize, CheckpointError> {
        let tok = it
            .next()
            .ok_or_else(|| self.err(format!("{what} line is missing a field")))?;
        tok.parse()
            .map_err(|e| self.err(format!("bad {what} field '{tok}': {e}")))
    }

    fn parse_hex_u64(&self, tok: &str) -> Result<u64, CheckpointError> {
        u64::from_str_radix(tok, 16).map_err(|e| self.err(format!("bad hex '{tok}': {e}")))
    }

    fn parse_hex_f64(&self, tok: &str) -> Result<f64, CheckpointError> {
        self.parse_hex_u64(tok).map(f64::from_bits)
    }

    fn rng_state(&mut self, tag: &str) -> Result<[u64; 4], CheckpointError> {
        let rest = self.tagged_rest(tag)?.to_string();
        let mut it = rest.split_whitespace();
        let mut state = [0u64; 4];
        for slot in &mut state {
            let tok = it
                .next()
                .ok_or_else(|| self.err(format!("{tag} needs four words")))?;
            *slot = self.parse_hex_u64(tok)?;
        }
        Ok(state)
    }

    fn parse_levels(&self, s: &str) -> Result<Vec<u32>, CheckpointError> {
        s.trim()
            .split(',')
            .map(|tok| {
                tok.parse()
                    .map_err(|e| self.err(format!("bad level '{tok}': {e}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ActiveCheckpoint {
        ActiveCheckpoint {
            target_name: "synthetic".into(),
            iteration: 17,
            forest_seed: 0xDEAD_BEEF,
            n_init: 10,
            n_batch: 2,
            n_max: 100,
            repeats: 35,
            fit_mode: FitMode::Fast,
            alphas: vec![0.05, 0.10],
            annotator_rng: [1, 2, 3, 4],
            annotator_evaluations: 42,
            stats: MeasurementStats {
                annotations: 42,
                readings: 1400,
                compile_failures: 3,
                crashes: 5,
                bad_readings: 1,
                timeouts: 2,
                retries: 8,
                failed_annotations: 4,
                wasted_cost: 12.375,
            },
            select_rng: [5, 6, 7, 8],
            pool_rng: [9, 10, 11, 12],
            lint: PoolLintCounts {
                legal: 90,
                flagged: 7,
                illegal: 3,
            },
            train_configs: vec![vec![0, 1, 2], vec![3, 4, 5]],
            // The second label is the smallest subnormal — an awkward bit
            // pattern that proves exact round-tripping through hex.
            train_labels: vec![0.25, f64::from_bits(0x0000_0000_0000_0001)],
            pool_configs: vec![vec![6, 7, 8]],
            quarantined: vec![vec![9, 9, 9]],
            history: vec![Snapshot {
                n_train: 10,
                cumulative_cost: 3.5,
                rmse: vec![0.1, 0.2],
            }],
            selections: vec![SelectionTrace {
                mean: 0.3,
                std: 0.01,
                observed: 0.29,
            }],
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cp = sample();
        let text = cp.to_text();
        let back = ActiveCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, cp);
        // Exact bits, including the subnormal label.
        assert_eq!(back.train_labels[1].to_bits(), cp.train_labels[1].to_bits());
    }

    /// Pins the text format byte for byte (`crates/core/tests/
    /// checkpoint_format.rs` pins more checkpoints the same way).
    #[test]
    fn sample_text_keeps_its_bytes() {
        let text = sample().to_text();
        assert_eq!(
            (text.len(), fnv1a64(text.as_bytes())),
            (689, 0x2049683ec3d7b93e)
        );
    }

    #[test]
    fn save_and_load_round_trip_via_disk() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let cp = sample();
        cp.save_atomic(&path).unwrap();
        let back = ActiveCheckpoint::load_verified(&path).unwrap();
        assert_eq!(back, cp);
        // The temp file was renamed away.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_save_replaces_previous_checkpoint() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replace.ckpt");
        let mut cp = sample();
        cp.save_atomic(&path).unwrap();
        cp.iteration = 18;
        cp.save_atomic(&path).unwrap();
        assert_eq!(ActiveCheckpoint::load_verified(&path).unwrap().iteration, 18);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cp = sample();
        let mut text = cp.to_text();
        // Corrupt the magic line.
        text = text.replacen("pwu-active-checkpoint", "bogus", 1);
        match ActiveCheckpoint::from_text(&text) {
            Err(CheckpointError::Parse { line: 1, .. }) => {}
            other => panic!("expected parse error on line 1, got {other:?}"),
        }
        // Truncated file.
        let cut: String = cp
            .to_text()
            .lines()
            .take(5)
            .map(|l| format!("{l}\n"))
            .collect();
        match ActiveCheckpoint::from_text(&cut) {
            Err(CheckpointError::Parse { line, ref message }) => {
                assert!(line >= 6, "line {line}");
                assert!(message.contains("end of file") || !message.is_empty());
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        // Garbage hex in a label.
        let bad = cp.to_text().replacen("stats", "stats zzz", 1);
        assert!(matches!(
            ActiveCheckpoint::from_text(&bad),
            Err(CheckpointError::Parse { .. })
        ));
    }

    #[test]
    fn verified_load_round_trips_and_rejects_damage() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verified.ckpt");
        let cp = sample();
        cp.save_atomic(&path).unwrap();
        assert_eq!(ActiveCheckpoint::load_verified(&path).unwrap(), cp);

        // A single flipped byte in the body fails the checksum.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Truncation (losing the footer, or part of it) is Corrupt too.
        let full = with_integrity_footer(&cp.to_text()).into_bytes();
        fs::write(&path, &full[..full.len() - 9]).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // A footer-less file is Corrupt too.
        fs::write(&path, cp.to_text()).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generation_store_numbers_prunes_and_rolls_back() {
        let dir = std::env::temp_dir().join("pwu-genstore-test");
        let _ = fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir);
        assert!(store.load_latest().unwrap().is_none());

        let mut cp = sample();
        for i in 0..4 {
            cp.iteration = 20 + i;
            assert_eq!(store.save(&cp).unwrap(), i);
        }
        // Only the two newest generations survive.
        assert_eq!(store.generations(), vec![2, 3]);
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 3);
        assert_eq!(got.rolled_back, 0);
        assert_eq!(got.checkpoint.iteration, 23);

        // Corrupt the newest generation: recovery rolls back to gen 2.
        let newest = store.path_for(3);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 2);
        assert_eq!(got.rolled_back, 1);
        assert_eq!(got.checkpoint.iteration, 22);

        // The rollback removed the damaged generation, so the next save
        // reuses its number and prunes nothing: damaging that one too
        // still rolls back to the generation recovered above.
        cp.iteration = 24;
        assert_eq!(store.save(&cp).unwrap(), 3);
        assert_eq!(store.generations(), vec![2, 3]);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 2);
        assert_eq!(got.rolled_back, 1);
        assert_eq!(got.checkpoint.iteration, 22);

        // Corrupt every generation: typed Corrupt, not a panic, and
        // nothing is removed.
        let older = store.path_for(2);
        fs::write(&older, b"not a checkpoint").unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(store.generations(), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_helpers_pin_format() {
        let body = "hello\n";
        let footered = with_integrity_footer(body);
        assert!(footered.starts_with(body));
        assert!(footered.contains("footer 6 "));
        assert_eq!(split_verified_body(footered.as_bytes()).unwrap(), body);
        // Non-UTF8 bytes are Corrupt, not a panic.
        assert!(matches!(
            split_verified_body(&[0xFF, 0xFE, b'f']),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_and_policy_validation() {
        let e = CheckpointError::Mismatch("different target".into());
        assert!(e.to_string().contains("mismatch"));
        let e = CheckpointError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let p = CheckpointPolicy::new("/tmp/x.ckpt", 5);
        assert_eq!(p.every, 5);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_checkpoint_interval_is_rejected() {
        let _ = CheckpointPolicy::new("/tmp/x.ckpt", 0);
    }
}
