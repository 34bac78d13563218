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
//! The text format is hand-rolled and line-oriented (the workspace has no
//! serialization dependency). Every `f64` is stored as its IEEE-754 bit
//! pattern in hex, so round-trips are exact — a resumed run sees the same
//! bits the killed run saw. [`ActiveCheckpoint::from_text`] reads every line
//! as [`ActiveCheckpoint::to_text`] writes it and refuses any other
//! spelling.
//!
//! [`GenerationStore`] is the only way a checkpoint reaches or leaves disk,
//! for batch runs and served sessions alike. It keeps the newest
//! generations in three slot files it overwrites in turn
//! (`slot-{iteration mod 3}.ckpt`), each ending in a `footer <body-bytes>
//! <fnv1a64>` line. Loading demands the footer, so a truncated, bit-flipped
//! or torn slot is a typed [`CheckpointError::Corrupt`] — never a panic,
//! never a silent misparse — and a damaged newest generation rolls back to
//! the previous durable one instead of losing the run.

use std::fmt;
use std::fs;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use pwu_forest::FitMode;
use pwu_space::PoolLintCounts;

use crate::active::{SelectionTrace, Snapshot};
use crate::annotator::MeasurementStats;

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
/// durable. A served session's spec (`meta.pwu`) is written here; no
/// checkpoint is, since [`GenerationStore`] overwrites its slot files in
/// place.
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

/// Bytes a row is built in before the writer appends it to the body. Every
/// row of the built-in targets fits (the widest, gemver's, is 36 levels
/// below 31); a longer row is appended in pieces.
const ROW_BYTES: usize = 256;

/// The decimal digits of 0–255, left-aligned, with the digit count in the
/// last byte. Every level of the built-in targets is below 31 (their
/// largest arity), so each is one lookup.
static DECIMAL_DIGITS: [[u8; 4]; 256] = decimal_digits();

/// The two lowercase hex digits of each byte.
static HEX_DIGITS: [[u8; 2]; 256] = hex_digits();

const fn decimal_digits() -> [[u8; 4]; 256] {
    let mut table = [[0u8; 4]; 256];
    let mut v = 0;
    while v < 256 {
        let (hundreds, tens, ones) = (
            b'0' + (v / 100) as u8,
            b'0' + (v / 10 % 10) as u8,
            b'0' + (v % 10) as u8,
        );
        table[v] = if v >= 100 {
            [hundreds, tens, ones, 3]
        } else if v >= 10 {
            [tens, ones, 0, 2]
        } else {
            [ones, 0, 0, 1]
        };
        v += 1;
    }
    table
}

const fn hex_digits() -> [[u8; 2]; 256] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [DIGITS[byte >> 4], DIGITS[byte & 0xf]];
        byte += 1;
    }
    table
}

/// Writes `v` in decimal, as `{v}` formats it, at the front of `buf` and
/// returns the digit count. `buf` holds at least 4 bytes and room for the
/// digits: a table lookup writes 4 whatever its digit count. It is small
/// enough to be inlined into the row loops; a value above the table takes
/// [`put_long_decimal`].
#[inline]
fn put_decimal(buf: &mut [u8], v: u64) -> usize {
    if v < 256 {
        let digits = &DECIMAL_DIGITS[v as usize];
        buf[..4].copy_from_slice(digits);
        usize::from(digits[3])
    } else {
        put_long_decimal(buf, v)
    }
}

/// [`put_decimal`] for a value of any size, one digit at a time. Cold, so
/// that it stays out of line and the table path inlines.
#[cold]
fn put_long_decimal(buf: &mut [u8], mut v: u64) -> usize {
    let (mut digits, mut at) = ([0u8; 20], 20);
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf[..20 - at].copy_from_slice(&digits[at..]);
    20 - at
}

/// Writes `word` as 16 lowercase hex digits, as `{word:016x}` formats it,
/// at the front of `buf`.
#[inline]
fn put_hex(buf: &mut [u8], word: u64) {
    for (pair, byte) in buf[..16].chunks_exact_mut(2).zip(word.to_be_bytes()) {
        pair.copy_from_slice(&HEX_DIGITS[usize::from(byte)]);
    }
}

/// The checkpoint body under construction, and the writer of its rows.
///
/// A row (a level, train, history or selection row, or the `alphas` line)
/// is built in a stack buffer from two static tables — the decimal digits
/// of 0–255 and the hex digits of each byte — and appended to the body in
/// one copy when it ends. A number above the table takes the general
/// decimal loop, and a row longer than the buffer is appended in pieces;
/// both write exactly what `{}` and `{:016x}` would. The list writers keep
/// the row's length in a local across the list. Header lines go straight
/// into [`RowWriter::body`] through `write!`, between rows. The body is
/// bytes until [`RowWriter::into_text`] checks that it is UTF-8, once: the
/// workspace forbids `unsafe`, and every byte a row writes is ASCII.
struct RowWriter {
    body: Vec<u8>,
    row: [u8; ROW_BYTES],
    len: usize,
}

impl RowWriter {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            body: Vec::with_capacity(capacity),
            row: [0; ROW_BYTES],
            len: 0,
        }
    }

    /// Where the next `n` (at most [`ROW_BYTES`]) bytes of the row go,
    /// appending the row built so far to the body first when the buffer
    /// cannot hold them.
    #[inline]
    fn room(&mut self, n: usize) -> usize {
        if self.len + n > ROW_BYTES {
            self.body.extend_from_slice(&self.row[..self.len]);
            self.len = 0;
        }
        self.len
    }

    fn byte(&mut self, byte: u8) {
        let at = self.room(1);
        self.row[at] = byte;
        self.len = at + 1;
    }

    fn decimal(&mut self, v: u64) {
        let at = self.room(20);
        self.len = at + put_decimal(&mut self.row[at..], v);
    }

    fn hex(&mut self, word: u64) {
        let at = self.room(16);
        put_hex(&mut self.row[at..], word);
        self.len = at + 16;
    }

    /// Configuration levels, comma-separated.
    fn levels(&mut self, levels: &[u32]) {
        let Self { body, row, len } = self;
        let mut at = *len;
        for (i, &level) in levels.iter().enumerate() {
            // A comma and at most ten digits.
            if at + 11 > ROW_BYTES {
                body.extend_from_slice(&row[..at]);
                at = 0;
            }
            row[at] = b',';
            at += usize::from(i > 0);
            at += put_decimal(&mut row[at..], u64::from(level));
        }
        *len = at;
    }

    /// `f64` bit patterns in hex, space-separated.
    fn hex_floats(&mut self, values: &[f64]) {
        let Self { body, row, len } = self;
        let mut at = *len;
        for (i, v) in values.iter().enumerate() {
            if at + 17 > ROW_BYTES {
                body.extend_from_slice(&row[..at]);
                at = 0;
            }
            row[at] = b' ';
            at += usize::from(i > 0);
            put_hex(&mut row[at..], v.to_bits());
            at += 16;
        }
        *len = at;
    }

    /// Ends the row with its newline and appends it to the body.
    fn end_row(&mut self) {
        let at = self.room(1);
        self.row[at] = b'\n';
        self.body.extend_from_slice(&self.row[..=at]);
        self.len = 0;
    }

    fn into_text(self) -> String {
        String::from_utf8(self.body).expect("checkpoint text is ASCII apart from the target name")
    }
}

impl ActiveCheckpoint {
    /// Serializes to the line-oriented checkpoint text format.
    ///
    /// Every line is written into one pre-sized body. The header lines go
    /// through `write!`; every row is built by a [`RowWriter`] from its
    /// digit tables and appended once. The bytes are pinned by
    /// `tests/checkpoint_format.rs`, which also holds the encoder to a
    /// reference formatter.
    #[must_use]
    pub fn to_text(&self) -> String {
        let _span = pwu_obs::span(
            "checkpoint.encode",
            [
                ("train", pwu_obs::Arg::u(self.train_configs.len() as u64)),
                ("pool", pwu_obs::Arg::u(self.pool_configs.len() as u64)),
            ],
        );
        let mut w = RowWriter::with_capacity(self.text_len_estimate());
        let out = &mut w.body;
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "target {}", self.target_name);
        let _ = writeln!(out, "iteration {}", self.iteration);
        let _ = writeln!(out, "forest-seed {}", self.forest_seed);
        let _ = writeln!(
            out,
            "counts {} {} {} {}",
            self.n_init, self.n_batch, self.n_max, self.repeats
        );
        let _ = writeln!(out, "fit-mode {}", self.fit_mode.token());
        out.extend_from_slice(b"alphas ");
        w.hex_floats(&self.alphas);
        w.end_row();
        let out = &mut w.body;
        for (tag, state) in [
            ("annotator-rng", &self.annotator_rng),
            ("select-rng", &self.select_rng),
            ("pool-rng", &self.pool_rng),
        ] {
            let _ = writeln!(
                out,
                "{tag} {:016x} {:016x} {:016x} {:016x}",
                state[0], state[1], state[2], state[3]
            );
        }
        let _ = writeln!(out, "annotator-evaluations {}", self.annotator_evaluations);
        let s = &self.stats;
        let _ = writeln!(
            out,
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
            out,
            "lint {} {} {}",
            self.lint.legal, self.lint.flagged, self.lint.illegal
        );
        let _ = writeln!(out, "train {}", self.train_configs.len());
        for (cfg, label) in self.train_configs.iter().zip(&self.train_labels) {
            w.levels(cfg);
            w.byte(b' ');
            w.hex(label.to_bits());
            w.end_row();
        }
        for (tag, configs) in [
            ("pool", &self.pool_configs),
            ("quarantined", &self.quarantined),
        ] {
            let _ = writeln!(w.body, "{tag} {}", configs.len());
            for cfg in configs {
                w.levels(cfg);
                w.end_row();
            }
        }
        let _ = writeln!(w.body, "history {}", self.history.len());
        for snap in &self.history {
            w.decimal(snap.n_train as u64);
            w.byte(b' ');
            w.hex(snap.cumulative_cost.to_bits());
            w.byte(b' ');
            w.hex_floats(&snap.rmse);
            w.end_row();
        }
        let _ = writeln!(w.body, "selections {}", self.selections.len());
        for sel in &self.selections {
            w.hex_floats(&[sel.mean, sel.std, sel.observed]);
            w.end_row();
        }
        w.body.extend_from_slice(b"end\n");
        w.into_text()
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
    /// Every line is read in one pass over the text, and only as
    /// [`ActiveCheckpoint::to_text`] writes it. Level and train rows are
    /// scanned straight off the bytes: levels in decimal, at most
    /// `u32::MAX`, joined by commas, and a label after one space. Every
    /// decimal has no sign and no leading zero, every hex word is 16
    /// lowercase hex digits, and the fields of a line are one space apart
    /// with none before the first or after the last. A line ends at its
    /// `\n`, so a `\r` before it is part of the line. Only the target name
    /// is free text. A section count larger than the lines left is a parse
    /// error, so no section reserves room for more rows than the text
    /// holds.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Parse`] with a 1-based line number on any
    /// malformed line, a line spelled any other way than `to_text` spells
    /// it included.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = Lines::new(text);
        let _span = pwu_obs::span(
            "checkpoint.parse",
            [
                ("bytes", pwu_obs::Arg::u(text.len() as u64)),
                ("lines", pwu_obs::Arg::u(lines.total as u64)),
            ],
        );
        lines.expect_exact(MAGIC)?;
        let target_name = lines.tagged_rest("target")?.to_string();
        let iteration = lines.tagged_decimal("iteration")?;
        let forest_seed = lines.tagged_decimal("forest-seed")?;
        let mut it = lines.tagged_rest("counts")?.split(' ');
        let n_init = lines.decimal(it.next(), "counts")?;
        let n_batch = lines.decimal(it.next(), "counts")?;
        let n_max = lines.decimal(it.next(), "counts")?;
        let repeats = lines.decimal(it.next(), "counts")?;
        lines.no_more(it, "counts")?;
        let fit_mode_token = lines.tagged_rest("fit-mode")?;
        let fit_mode = FitMode::parse(fit_mode_token)
            .ok_or_else(|| lines.err(format!("unknown fit-mode {fit_mode_token:?}")))?;
        let alphas = lines.tagged_rest("alphas")?;
        let alphas = lines.hex_list(alphas)?;
        let annotator_rng = lines.rng_state("annotator-rng")?;
        let select_rng = lines.rng_state("select-rng")?;
        let pool_rng = lines.rng_state("pool-rng")?;
        let annotator_evaluations = lines.tagged_decimal("annotator-evaluations")?;
        let mut it = lines.tagged_rest("stats")?.split(' ');
        let stats = MeasurementStats {
            annotations: lines.decimal(it.next(), "stats")?,
            readings: lines.decimal(it.next(), "stats")?,
            compile_failures: lines.decimal(it.next(), "stats")?,
            crashes: lines.decimal(it.next(), "stats")?,
            bad_readings: lines.decimal(it.next(), "stats")?,
            timeouts: lines.decimal(it.next(), "stats")?,
            retries: lines.decimal(it.next(), "stats")?,
            failed_annotations: lines.decimal(it.next(), "stats")?,
            wasted_cost: f64::from_bits(lines.hex(it.next(), "stats")?),
        };
        lines.no_more(it, "stats")?;
        let mut it = lines.tagged_rest("lint")?.split(' ');
        let lint = PoolLintCounts {
            legal: lines.decimal(it.next(), "lint")?,
            flagged: lines.decimal(it.next(), "lint")?,
            illegal: lines.decimal(it.next(), "lint")?,
        };
        lines.no_more(it, "lint")?;

        let n_train = lines.counted_section("train")?;
        let mut train_configs = Vec::with_capacity(n_train);
        let mut train_labels = Vec::with_capacity(n_train);
        for _ in 0..n_train {
            let (levels, label) = lines.train_row(train_configs.last().map_or(0, Vec::len))?;
            train_configs.push(levels);
            train_labels.push(label);
        }
        let pool_configs = lines.level_rows("pool")?;
        let quarantined = lines.level_rows("quarantined")?;
        let n_history = lines.counted_section("history")?;
        let mut history = Vec::with_capacity(n_history);
        for _ in 0..n_history {
            // `n_train cost ` and then the rmse list, empty or not.
            let mut it = lines.next_line()?.splitn(3, ' ');
            let n_train = lines.decimal(it.next(), "history")?;
            let cumulative_cost = f64::from_bits(lines.hex(it.next(), "history")?);
            let rmse = it
                .next()
                .ok_or_else(|| lines.err("history line is missing its rmse list".into()))?;
            history.push(Snapshot {
                n_train,
                cumulative_cost,
                rmse: lines.hex_list(rmse)?,
            });
        }
        let n_selections = lines.counted_section("selections")?;
        let mut selections = Vec::with_capacity(n_selections);
        for _ in 0..n_selections {
            let mut it = lines.next_line()?.split(' ');
            selections.push(SelectionTrace {
                mean: f64::from_bits(lines.hex(it.next(), "selection")?),
                std: f64::from_bits(lines.hex(it.next(), "selection")?),
                observed: f64::from_bits(lines.hex(it.next(), "selection")?),
            });
            lines.no_more(it, "selection")?;
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
}

/// How many slot files a [`GenerationStore`] rotates.
const SLOTS: u64 = 3;

/// A directory of three checkpoint slot files (`slot-0.ckpt` …
/// `slot-2.ckpt`) holding the newest generations.
///
/// Generation g is the saved checkpoint's `iteration` and lives in
/// `slot-{g mod 3}.ckpt`. A save overwrites that slot in place (footer
/// included), cuts it to exactly the new bytes and makes it durable with
/// one `sync_data`; only the save that creates a slot file also syncs the
/// directory. While one slot is being overwritten the other two still hold
/// the two previous generations complete, so a crash — even one that tears
/// the slot being written — costs at most the work since the previous
/// durable generation. Loading reads each slot's `iteration` line, verifies
/// newest-first and *rolls back* past (and removes) damaged slots.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    dir: PathBuf,
}

/// What [`GenerationStore::load_latest`] recovered.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The generation number that loaded cleanly.
    pub generation: u64,
    /// Damaged slots removed: the newer ones rolled past, and older ones
    /// that could hide a newer generation (see
    /// [`GenerationStore::load_latest`]).
    pub rolled_back: usize,
    /// The recovered checkpoint.
    pub checkpoint: ActiveCheckpoint,
    /// The integrity-footer checksum of the verified body, i.e.
    /// `fnv1a64(checkpoint.to_text())`.
    pub checksum: u64,
    /// The verified body the checkpoint was parsed from, i.e.
    /// `checkpoint.to_text()`, without the footer and at its exact length.
    pub body: String,
}

/// What [`GenerationStore::commit`] made durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Saved {
    /// The new generation number (the checkpoint's `iteration`).
    pub generation: u64,
    /// The integrity-footer checksum of the saved body.
    pub checksum: u64,
    /// The saved body, i.e. the checkpoint's `to_text()`, without the
    /// footer and at its exact length.
    pub body: String,
}

impl GenerationStore {
    /// A store rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of generation `generation`: its slot file.
    #[must_use]
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.slot_path(generation % SLOTS)
    }

    fn slot_path(&self, slot: u64) -> PathBuf {
        self.dir.join(format!("slot-{slot}.ckpt"))
    }

    /// The generation slot `slot` holds, read from its `iteration` line:
    /// `None` when the slot file does not exist, `Some(None)` when the line
    /// is unreadable or names a generation that belongs in another slot.
    ///
    /// # Errors
    /// Any failure to open or read the slot file other than its absence.
    fn slot_generation(&self, slot: u64) -> std::io::Result<Option<Option<u64>>> {
        let file = match fs::File::open(self.slot_path(slot)) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        // The `iteration` line is the third: magic, target, iteration. The
        // header lines are short, so a small buffer reads little more.
        let mut reader = BufReader::with_capacity(256, file);
        let mut line = Vec::new();
        for _ in 0..3 {
            line.clear();
            reader.read_until(b'\n', &mut line)?;
        }
        Ok(Some(
            std::str::from_utf8(&line)
                .ok()
                .and_then(|l| {
                    l.strip_suffix('\n')?
                        .strip_prefix("iteration ")?
                        .parse()
                        .ok()
                })
                .filter(|g: &u64| g % SLOTS == slot),
        ))
    }

    /// Whether generation `generation`'s slot passes the footer check.
    fn verifies(&self, generation: u64) -> bool {
        fs::read(self.path_for(generation)).is_ok_and(|bytes| verify_footer(&bytes).is_ok())
    }

    /// Refuses a store that already holds a slot file, with an
    /// [`std::io::ErrorKind::AlreadyExists`] I/O error naming it: a run
    /// that starts on such a store could see a generation left by another
    /// run outrank its own at the next load.
    pub(crate) fn refuse_held_slot(&self) -> Result<(), CheckpointError> {
        for slot in 0..SLOTS {
            let path = self.slot_path(slot);
            if path.try_exists()? {
                return Err(CheckpointError::Io(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!(
                        "{} already holds a checkpoint; a new run needs an empty store",
                        path.display()
                    ),
                )));
            }
        }
        Ok(())
    }

    /// Saves `checkpoint` as generation `checkpoint.iteration` and returns
    /// that generation.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, checkpoint: &ActiveCheckpoint) -> Result<u64, CheckpointError> {
        self.commit(checkpoint).map(|saved| saved.generation)
    }

    /// Saves `checkpoint` as generation `checkpoint.iteration`, encoding it
    /// once: its slot is overwritten with the body and the integrity
    /// footer, cut to that length and synced. A caller that needs the
    /// body or its checksum gets them from the returned [`Saved`] instead
    /// of encoding and hashing the checkpoint a second time.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure.
    pub fn commit(&self, checkpoint: &ActiveCheckpoint) -> Result<Saved, CheckpointError> {
        let generation = checkpoint.iteration;
        let mut body = checkpoint.to_text();
        let _span = pwu_obs::span(
            "checkpoint.save",
            [("generation", pwu_obs::Arg::u(generation))],
        );
        let len = body.len();
        let checksum = push_integrity_footer(&mut body);
        self.overwrite(&self.path_for(generation), body.as_bytes())?;
        body.truncate(len);
        body.shrink_to_fit();
        Ok(Saved {
            generation,
            checksum,
            body,
        })
    }

    /// Overwrites slot file `path` with `bytes` in place: write, cut to
    /// length, `sync_data`. A slot file this call creates also gets its
    /// directory synced, so its entry is durable too.
    fn overwrite(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let created = !path.exists();
        if created {
            fs::create_dir_all(&self.dir)?;
        }
        // No truncation at open: the new bytes go over the old in place, and
        // `set_len` cuts what is left only once they are written.
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.write_all(bytes)?;
        file.set_len(bytes.len() as u64)?;
        file.sync_data()?;
        if created {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Loads the newest generation that passes integrity verification.
    ///
    /// Each slot's `iteration` line is read once to order the slots; they
    /// are verified newest-first. Newer slots that fail, and slots whose
    /// `iteration` line is unreadable or names a generation that belongs in
    /// another slot, are rolled past and removed, so the next save recreates
    /// them. Once generation r verifies, the other slots may hold only r − 1
    /// and r − 2: a line damaged into a smaller generation its slot could
    /// hold (15 read as 12) reads as older, so a slot naming less than r − 2
    /// is removed too, and the one naming r − 2 is removed unless it
    /// verifies. Every removed slot counts in [`Recovered::rolled_back`], so
    /// an old slot found damaged reports a rollback too, and damage to the
    /// newest slot alone always does. `Ok(None)` means the store holds no slot at
    /// all (nothing was ever saved).
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] when a slot's `iteration` line
    /// cannot be read for any reason but the file's absence, or a damaged
    /// slot cannot be removed, and [`CheckpointError::Corrupt`] (removing
    /// nothing) when slots exist but every one of them is damaged, or when
    /// the directory holds only `gen-*.ckpt` files of the retired
    /// one-file-per-generation layout.
    pub fn load_latest(&self) -> Result<Option<Recovered>, CheckpointError> {
        let (mut placed, mut damaged) = (Vec::new(), Vec::new());
        for slot in 0..SLOTS {
            match self.slot_generation(slot)? {
                Some(Some(generation)) => placed.push(generation),
                Some(None) => damaged.push(self.slot_path(slot)),
                None => {}
            }
        }
        if placed.is_empty() && damaged.is_empty() {
            return self.refuse_retired_layout().map(|()| None);
        }
        placed.sort_unstable_by(|a, b| b.cmp(a));
        for (newer, &generation) in placed.iter().enumerate() {
            let _span = pwu_obs::span(
                "checkpoint.load",
                [
                    ("generation", pwu_obs::Arg::u(generation)),
                    (
                        "rolled_back",
                        pwu_obs::Arg::u((damaged.len() + newer) as u64),
                    ),
                ],
            );
            let Ok(bytes) = fs::read(self.path_for(generation)) else {
                continue;
            };
            let Ok((body, checksum)) = verify_footer(&bytes) else {
                continue;
            };
            let Ok(checkpoint) = ActiveCheckpoint::from_text(body) else {
                continue;
            };
            damaged.extend(placed[..newer].iter().map(|&g| self.path_for(g)));
            for &older in &placed[newer + 1..] {
                if older + 2 < generation || (older + 2 == generation && !self.verifies(older)) {
                    damaged.push(self.path_for(older));
                }
            }
            for path in &damaged {
                fs::remove_file(path)?;
            }
            return Ok(Some(Recovered {
                generation,
                rolled_back: damaged.len(),
                checkpoint,
                checksum,
                body: body.to_string(),
            }));
        }
        Err(CheckpointError::Corrupt(format!(
            "all {} slot(s) under {} are damaged",
            placed.len() + damaged.len(),
            self.dir.display()
        )))
    }

    /// Refuses a directory that holds no slot file but `gen-*.ckpt` files:
    /// checkpoints saved in the retired one-file-per-generation layout,
    /// which this store neither reads nor migrates.
    fn refuse_retired_layout(&self) -> Result<(), CheckpointError> {
        let retired = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("gen-") && n.ends_with(".ckpt"))
            });
        if retired {
            return Err(CheckpointError::Corrupt(format!(
                "{} holds gen-*.ckpt files of the retired one-file-per-generation layout, \
                 which is not read or migrated; only slot-*.ckpt files are",
                self.dir.display()
            )));
        }
        Ok(())
    }
}

/// Line cursor with 1-based error positions. It splits lines at `\n`,
/// keeping any other byte (a `\r` too) in the line, and knows how many are
/// left.
struct Lines<'a> {
    rest: &'a str,
    line_no: usize,
    /// Lines in the whole text: one per `\n`, plus an unterminated last one.
    total: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        Self {
            rest: text,
            line_no: 0,
            total: newlines + usize::from(!text.is_empty() && !text.ends_with('\n')),
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
        if self.rest.is_empty() {
            return Err(self.err("unexpected end of file".into()));
        }
        Ok(match self.rest.split_once('\n') {
            Some((line, rest)) => {
                self.rest = rest;
                line
            }
            None => std::mem::take(&mut self.rest),
        })
    }

    /// Consumes the first `len` bytes of the text, a whole line with its
    /// `\n`, which a row scanner has parsed.
    fn skip_line(&mut self, len: usize) {
        self.line_no += 1;
        self.rest = &self.rest[len..];
    }

    /// Consumes a `what` row that is not as `to_text` writes it and returns
    /// the parse error at its line.
    fn bad_row(&mut self, what: &str) -> CheckpointError {
        match self.next_line() {
            Ok(line) => self.err(format!("bad {what} row '{line}'")),
            Err(e) => e,
        }
    }

    fn expect_exact(&mut self, expected: &str) -> Result<(), CheckpointError> {
        let line = self.next_line()?;
        if line == expected {
            Ok(())
        } else {
            Err(self.err(format!("expected '{expected}', found '{line}'")))
        }
    }

    /// Consumes a `tag rest...` line and returns `rest`, everything after
    /// the one space that follows the tag.
    fn tagged_rest(&mut self, tag: &str) -> Result<&'a str, CheckpointError> {
        let line = self.next_line()?;
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected '{tag} ...', found '{line}'")))
    }

    /// Consumes a `tag <decimal>` line and returns the decimal.
    fn tagged_decimal<T: FromStr>(&mut self, tag: &str) -> Result<T, CheckpointError> {
        let rest = self.tagged_rest(tag)?;
        self.decimal(Some(rest), tag)
    }

    /// Consumes a `tag <count>` section header and returns the count. A
    /// section holds one line per row, so a count past the lines left is
    /// an error here, before anything is sized by it.
    fn counted_section(&mut self, tag: &str) -> Result<usize, CheckpointError> {
        let count: usize = self.tagged_decimal(tag)?;
        let left = self.total - self.line_no;
        if count > left {
            return Err(self.err(format!("{tag} count {count} exceeds the {left} lines left")));
        }
        Ok(count)
    }

    /// Consumes a `tag <count>` section of level rows.
    fn level_rows(&mut self, tag: &str) -> Result<Vec<Vec<u32>>, CheckpointError> {
        let n = self.counted_section(tag)?;
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut levels = Vec::with_capacity(rows.last().map_or(0, Vec::len));
            match scan_levels(self.rest.as_bytes(), &mut levels) {
                Some(end) if self.rest.as_bytes().get(end) == Some(&b'\n') => {
                    self.skip_line(end + 1);
                }
                _ => return Err(self.bad_row(tag)),
            }
            rows.push(levels);
        }
        Ok(rows)
    }

    /// Consumes one `levels label` train row; `dim` sizes its levels.
    fn train_row(&mut self, dim: usize) -> Result<(Vec<u32>, f64), CheckpointError> {
        let bytes = self.rest.as_bytes();
        let mut levels = Vec::with_capacity(dim);
        if let Some(end) = scan_levels(bytes, &mut levels) {
            let label = bytes.get(end + 1..end + 17).and_then(hex16);
            if let (Some(b' '), Some(word), Some(b'\n')) =
                (bytes.get(end), label, bytes.get(end + 17))
            {
                self.skip_line(end + 18);
                return Ok((levels, f64::from_bits(word)));
            }
        }
        Err(self.bad_row("train"))
    }

    /// Reads field `tok` of a `what` line as `{}` writes a decimal: ASCII
    /// digits with no sign and no leading zero.
    fn decimal<T: FromStr>(&self, tok: Option<&str>, what: &str) -> Result<T, CheckpointError> {
        let tok = tok.ok_or_else(|| self.err(format!("{what} line is missing a field")))?;
        let odd = tok.starts_with('+') || (tok.len() > 1 && tok.starts_with('0'));
        tok.parse()
            .ok()
            .filter(|_| !odd)
            .ok_or_else(|| self.err(format!("bad {what} field '{tok}'")))
    }

    /// Reads field `tok` of a `what` line as 16 lowercase hex digits.
    fn hex(&self, tok: Option<&str>, what: &str) -> Result<u64, CheckpointError> {
        let tok = tok.ok_or_else(|| self.err(format!("{what} line is missing a field")))?;
        hex16(tok.as_bytes()).ok_or_else(|| self.err(format!("bad hex word '{tok}'")))
    }

    /// Reads `f64` bit patterns in hex, one space apart; the empty list is
    /// the empty string.
    fn hex_list(&self, list: &str) -> Result<Vec<f64>, CheckpointError> {
        if list.is_empty() {
            return Ok(Vec::new());
        }
        list.split(' ')
            .map(|tok| self.hex(Some(tok), "hex list").map(f64::from_bits))
            .collect()
    }

    /// Errors when a `what` line has a field past the ones read off `it`.
    fn no_more<'t>(
        &self,
        mut it: impl Iterator<Item = &'t str>,
        what: &str,
    ) -> Result<(), CheckpointError> {
        match it.next() {
            None => Ok(()),
            Some(tok) => Err(self.err(format!("{what} line has an extra field '{tok}'"))),
        }
    }

    fn rng_state(&mut self, tag: &str) -> Result<[u64; 4], CheckpointError> {
        let mut it = self.tagged_rest(tag)?.split(' ');
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = self.hex(it.next(), tag)?;
        }
        self.no_more(it, tag)?;
        Ok(state)
    }
}

/// Reads levels as `to_text` writes them off the front of `bytes`:
/// decimals up to `u32::MAX` (at most ten digits) with no sign and no
/// leading zero, joined by commas. Returns the index of the byte after the
/// last digit, which the caller checks ends the row, or `None` when a level
/// is missing, has a leading zero or overflows a `u32`.
fn scan_levels(bytes: &[u8], levels: &mut Vec<u32>) -> Option<usize> {
    let mut at = 0;
    loop {
        let start = at;
        // Ten digits overflow no `u64`; an eleventh overflows a `u32`.
        let mut level = 0u64;
        while let Some(digit) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            if at - start == 10 {
                return None;
            }
            level = level * 10 + u64::from(digit);
            at += 1;
        }
        if at == start || (at - start > 1 && bytes[start] == b'0') {
            return None;
        }
        levels.push(u32::try_from(level).ok()?);
        if bytes.get(at) != Some(&b',') {
            return Some(at);
        }
        at += 1;
    }
}

/// Parses exactly 16 lowercase hex digits, as `to_text` writes a word.
fn hex16(word: &[u8]) -> Option<u64> {
    if word.len() != 16 {
        return None;
    }
    word.iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
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

    /// A section count past the lines left is a parse error at the
    /// section's line, raised before anything is sized by the count: the
    /// sections once reserved room for the count they read, so `train
    /// 4000000000` aborted the process on a 96 GB allocation.
    #[test]
    fn a_section_count_past_the_text_is_a_parse_error() {
        let text = sample().to_text();
        for (header, huge) in [
            ("train 2", "train 4000000000"),
            ("pool 1", "pool 4000000000"),
            ("pool 1", "pool 18446744073709551615"),
            ("selections 1", "selections 3"),
        ] {
            let line = text.lines().position(|l| l == header).unwrap() + 1;
            let damaged = text.replacen(&format!("{header}\n"), &format!("{huge}\n"), 1);
            match ActiveCheckpoint::from_text(&damaged) {
                Err(CheckpointError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{huge}: {message}");
                    assert!(message.contains("lines left"), "{huge}: {message}");
                }
                other => panic!("{huge}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// The parser reads only what `to_text` writes: a line spelled any
    /// other way is a parse error at its line, also where the standard
    /// parsers would read the values the line stands for, as they read the
    /// first three row spellings below and the header ones as the
    /// sample's. On every line but the free-text target name, a `\r`
    /// before the `\n`, a trailing space and a doubled space are errors
    /// too. Levels of ten digits up to `u32::MAX` are what `to_text` writes
    /// for the largest levels, so they parse.
    #[test]
    fn lines_not_as_to_text_writes_them_are_parse_errors() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        let mut variants: Vec<(usize, String)> = Vec::new();
        for (at, line) in lines.iter().enumerate() {
            if line.starts_with("target ") {
                continue;
            }
            variants.push((at, format!("{line}\r")));
            variants.push((at, format!("{line} ")));
            if line.contains(' ') {
                variants.push((at, line.replacen(' ', "  ", 1)));
            }
        }
        for (line, variant) in [
            ("0,1,2 3fd0000000000000", "+0,001,2 3FD0000000000000"),
            ("0,1,2 3fd0000000000000", "  0,1,2 +3fd0000000000000"),
            ("6,7,8", "6,7,0000000008"),
            ("0,1,2 3fd0000000000000", "0,1,2 3FD0000000000000"),
            ("6,7,8", "6,07,8"),
            ("6,7,8", "6,7,4294967296"),
            ("6,7,8", "6,-7,8"),
            ("6,7,8", "6,,8"),
            ("6,7,8", "6, 7,8"),
            ("0,1,2 3fd0000000000000", "0,1,2 13fd0000000000000"),
            ("iteration 17", "iteration +17"),
            ("forest-seed 3735928559", "forest-seed 03735928559"),
            ("counts 10 2 100 35", "counts 10 2 100 35 1"),
            ("lint 90 7 3", "lint 90 +7 3"),
            ("train 2", "train +2"),
            ("history 1", "history 01"),
        ] {
            let at = lines.iter().position(|l| *l == line).unwrap();
            variants.push((at, variant.to_string()));
        }
        for (at, variant) in variants {
            let mut damaged = lines.clone();
            damaged[at] = &variant;
            let damaged = damaged.join("\n") + "\n";
            match ActiveCheckpoint::from_text(&damaged) {
                Err(CheckpointError::Parse { line, .. }) => assert_eq!(line, at + 1, "{variant:?}"),
                other => panic!("{variant:?}: expected a parse error, got {other:?}"),
            }
        }
        let widest = text.replacen("6,7,8\n", "6,7,4294967295\n", 1);
        assert_eq!(
            ActiveCheckpoint::from_text(&widest).unwrap().pool_configs,
            vec![vec![6, 7, u32::MAX]]
        );
        // CRLF line ends fail at the first line.
        match ActiveCheckpoint::from_text(&text.replace('\n', "\r\n")) {
            Err(CheckpointError::Parse { line: 1, .. }) => {}
            other => panic!("expected a parse error at line 1, got {other:?}"),
        }
    }

    /// A slot that loses its footer check is a typed `Corrupt` at load: a
    /// flipped body byte, a truncation into the footer, no footer at all.
    #[test]
    fn verified_load_round_trips_and_rejects_damage() {
        let dir = std::env::temp_dir().join("pwu-verified-load-test");
        let _ = fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir);
        let cp = sample();
        store.save(&cp).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().checkpoint, cp);

        let full = with_integrity_footer(&cp.to_text()).into_bytes();
        let mut flipped = full.clone();
        flipped[40] ^= 0x20;
        for damaged in [
            flipped,
            full[..full.len() - 9].to_vec(),
            cp.to_text().into_bytes(),
        ] {
            fs::write(store.path_for(cp.iteration), &damaged).unwrap();
            assert!(matches!(
                store.load_latest(),
                Err(CheckpointError::Corrupt(_))
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `write_durable` replaces the file's bytes, a longer body by a
    /// shorter one too, and renames its `.tmp` file away.
    #[test]
    fn write_durable_replaces_the_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("pwu-write-durable-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.pwu");
        write_durable(&path, b"the first, longer body\n").unwrap();
        write_durable(&path, b"second\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second\n");
        assert!(!dir.join("meta.pwu.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The generations the slot files' `iteration` lines name, ascending.
    fn held(store: &GenerationStore) -> Vec<u64> {
        let mut gens: Vec<u64> = (0..SLOTS)
            .filter_map(|slot| store.slot_generation(slot).unwrap().flatten())
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Flips the middle byte of `path`: damage the footer check catches.
    fn flip_middle(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn generation_store_rotates_slots_and_rolls_back() {
        let dir = std::env::temp_dir().join("pwu-genstore-test");
        let _ = fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir);
        assert!(store.load_latest().unwrap().is_none());

        // The generation is the checkpoint's iteration; 23 overwrites the
        // slot 20 was in, cut to exactly its own bytes.
        let mut cp = sample();
        for i in 20..24 {
            cp.iteration = i;
            assert_eq!(store.save(&cp).unwrap(), i);
        }
        assert_eq!(held(&store), vec![21, 22, 23]);
        assert_eq!(store.path_for(23), store.path_for(20));
        assert_eq!(
            fs::read(store.path_for(23)).unwrap(),
            with_integrity_footer(&cp.to_text()).into_bytes()
        );
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 23);
        assert_eq!(got.rolled_back, 0);
        assert_eq!(got.checkpoint.iteration, 23);
        // The bodies a commit wrote and a load verified are the text, kept
        // at exactly its length.
        let saved = store.commit(&cp).unwrap();
        let got = store.load_latest().unwrap().unwrap();
        for body in [&saved.body, &got.body] {
            assert_eq!(body, &cp.to_text());
            assert_eq!(body.capacity(), body.len());
        }

        // Corrupt the newest generation: recovery rolls back to 22 and
        // removes the damaged slot.
        flip_middle(&store.path_for(23));
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 22);
        assert_eq!(got.rolled_back, 1);
        assert_eq!(got.checkpoint.iteration, 22);
        assert_eq!(held(&store), vec![21, 22]);

        // The next save is generation 23 again and recreates the damaged
        // slot, leaving 21 and 22 alone: damaging it too still rolls back
        // to the generation recovered above.
        cp.iteration = 23;
        assert_eq!(store.save(&cp).unwrap(), 23);
        assert_eq!(held(&store), vec![21, 22, 23]);
        flip_middle(&store.path_for(23));
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 22);
        assert_eq!(got.rolled_back, 1);
        assert_eq!(got.checkpoint.iteration, 22);

        // Corrupt every slot: typed Corrupt, not a panic, and nothing is
        // removed.
        flip_middle(&store.path_for(22));
        fs::write(store.path_for(21), b"not a checkpoint").unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(store.path_for(21).exists() && store.path_for(22).exists());
        assert_eq!(held(&store), vec![22]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A slot whose `iteration` line names a generation of another slot is
    /// damaged whatever its checksum says; one whose line was damaged into
    /// an older generation of its own slot is found and counted as rolled
    /// back; a directory holding only the retired `gen-*.ckpt` files is
    /// refused, not read as empty.
    #[test]
    fn misplaced_slots_and_the_retired_layout_are_refused() {
        let dir = std::env::temp_dir().join("pwu-genstore-misplaced-test");
        let _ = fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir);
        let mut cp = sample();
        for i in 30..32 {
            cp.iteration = i;
            store.save(&cp).unwrap();
        }
        fs::copy(store.path_for(31), store.path_for(32)).unwrap();
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!((got.generation, got.rolled_back), (31, 1));
        assert!(!store.path_for(32).exists());

        // 32 and 33 saved: the newest slot's line damaged into 30 (one byte)
        // or 27 (two) reads as an older generation of the same slot.
        for i in 32..34 {
            cp.iteration = i;
            store.save(&cp).unwrap();
        }
        for renumbered in ["iteration 30\n", "iteration 27\n"] {
            let text = fs::read_to_string(store.path_for(33)).unwrap();
            let damaged = text.replacen("iteration 33\n", renumbered, 1);
            assert_ne!(damaged, text);
            fs::write(store.path_for(33), damaged).unwrap();
            let got = store.load_latest().unwrap().unwrap();
            assert_eq!((got.generation, got.rolled_back), (32, 1), "{renumbered}");
            assert!(!store.path_for(33).exists(), "{renumbered}");
            assert_eq!(held(&store), vec![31, 32]);
            store.save(&cp).unwrap();
        }
        // Generation 31, two behind 33, is read and kept when it verifies.
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!((got.generation, got.rolled_back), (33, 0));
        assert_eq!(held(&store), vec![31, 32, 33]);
        fs::remove_dir_all(&dir).unwrap();

        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("gen-0000000017.ckpt"),
            with_integrity_footer(&cp.to_text()),
        )
        .unwrap();
        match store.load_latest() {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("gen-*.ckpt"), "{msg}"),
            other => panic!("expected the retired layout refused, got {other:?}"),
        }
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
    fn errors_display_their_kind() {
        let e = CheckpointError::Mismatch("different target".into());
        assert!(e.to_string().contains("mismatch"));
        let e = CheckpointError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
