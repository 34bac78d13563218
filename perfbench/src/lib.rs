//! End-to-end and per-layer benchmark of the PWU reproduction.
//!
//! Two closed-loop workloads drive the program's public entry points:
//! `al_paper` (Algorithm 1 through `pwu_core::active::run`) and
//! `serve_sessions` (`pwu_serve::Server::handle_line`). Every end-to-end
//! timing is a per-run median over many short units (iterations, step
//! requests), split by fit mode and by the early and late fifth of the run,
//! and taken at the reference host speed (see [`measure`]). A traced run
//! (`--trace 1`) repeats the untraced one for reference, then replays the
//! same work through each layer's public functions, timing every call from
//! outside the program. See `README.md` for the metric catalogue and what
//! each metric predicts.

pub mod al_paper;
pub mod measure;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use pwu_forest::FitMode;

use measure::{HostClock, Series, Timing};

/// The fit modes every workload compares, keyed by their metric label. The
/// benchmark names the fit modes here and nowhere else.
pub const MODES: &[(&str, FitMode)] = &[("exact", FitMode::Exact), ("fast", FitMode::Fast)];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 in the paper's protocol shape, once per fit mode.
    AlPaper,
    /// One client stepping a mixed fleet of served sessions, with restarts.
    ServeSessions,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 2] = [Workload::AlPaper, Workload::ServeSessions];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlPaper => "al_paper",
            Workload::ServeSessions => "serve_sessions",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark shape.
    Full,
    /// A reduced shape that finishes in seconds, for the self-test.
    Tiny,
}

/// The early and late bands of a run's units.
const BANDS: [&str; 2] = ["early", "late"];

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
#[must_use]
pub fn end_to_end_catalog() -> Vec<(String, &'static str)> {
    let mut out = vec![
        ("setup_s".to_string(), "s"),
        ("peak_rss_mb".to_string(), "MB"),
    ];
    for (mode, _) in MODES {
        for band in BANDS {
            out.push((format!("unit_ref_ms.{mode}.{band}"), "ms"));
        }
    }
    out
}

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
#[must_use]
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (mode, _) in MODES {
        for band in BANDS {
            out.push((format!("forest.fit_ms.{mode}.{band}"), "ms"));
        }
        out.push((format!("forest.score_ms.{mode}"), "ms"));
        out.push((format!("forest.eval_ms.{mode}"), "ms"));
        out.push((format!("core.select_ms.{mode}"), "ms"));
    }
    for (name, unit) in [
        ("measure.annotate_ms", "ms"),
        ("measure.cache_hit_ratio", "ratio"),
        ("session.materialize_ms", "ms"),
        ("core.step_once_ms", "ms"),
        ("checkpoint.encode_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("checkpoint.save_ms", "ms"),
        ("checkpoint.load_ms", "ms"),
        ("protocol.parse_us", "us"),
        ("serve.resume_ms", "ms"),
        ("pool.speedup", "x"),
        ("pool.efficiency", "ratio"),
        ("unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("forest.fits", "count"),
        ("forest.rows_scored", "count"),
        ("measure.readings", "count"),
        ("checkpoint.files_written", "count"),
        ("checkpoint.bytes_written", "bytes"),
        ("host.probe_before_ms", "ms"),
        ("host.probe_after_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// One timed unit: its fit mode, its 0-based position in its run or
/// session, its wall time and the host factor it ran under.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`MODES`].
    pub mode: usize,
    /// 0-based position of the unit in its run or session.
    pub position: usize,
    /// Wall time in ms.
    pub ms: f64,
    /// The host factor in force (see [`HostClock::factor`]).
    pub host: f64,
}

/// Every sample, as one series.
#[must_use]
pub fn all_series(samples: &[Sample]) -> Series {
    let mut out = Series::default();
    for s in samples {
        out.push(s.ms, s.host);
    }
    out
}

/// The samples of one fit mode and band, among units at positions `0..n`.
#[must_use]
pub fn band_series(samples: &[Sample], mode: usize, band: usize, n: usize) -> Series {
    let mut out = Series::default();
    for s in samples
        .iter()
        .filter(|s| s.mode == mode && measure::band(s.position, n) == Some(band))
    {
        out.push(s.ms, s.host);
    }
    out
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The observed values.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub trace: bool,
    context: Vec<(String, String)>,
    timings: Vec<Timing>,
    layer_timings: Vec<Timing>,
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    /// Every output check, in the order made.
    pub checks: Vec<Check>,
    counts: BTreeMap<String, (usize, usize)>,
}

impl Report {
    fn new(workload: Workload, trace: bool) -> Self {
        Self {
            workload,
            trace,
            context: Vec::new(),
            timings: Vec::new(),
            layer_timings: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            checks: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records one item of run context.
    pub fn context(&mut self, key: &str, value: impl Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records operations of one kind attempted and failed.
    pub fn count(&mut self, kind: &str, attempted: usize, failed: usize) {
        let entry = self.counts.entry(kind.to_string()).or_default();
        entry.0 += attempted;
        entry.1 += failed;
    }

    /// Records an output check. A check made again under the same name
    /// passes only if every instance passed; the first failure's detail
    /// is kept.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Display) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed && !passed => {
                c.passed = false;
                c.detail = detail.to_string();
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name: name.to_string(),
                passed,
                detail: detail.to_string(),
            }),
        }
    }

    /// Records timed units as the gated `unit_ref_ms.<mode>.<band>`
    /// metrics, printed under the workload's own unit name (`iter_ms`,
    /// `step_ms`) with an all-units line. Positions must run over `0..n`.
    pub fn units(&mut self, unit_name: &str, samples: &[Sample], n: usize) {
        let outside = samples.iter().filter(|s| s.position >= n).count();
        self.check(
            "every unit's position lies within its run",
            outside == 0,
            format!("{unit_name}: {outside} of {} outside 0..{n}", samples.len()),
        );
        for (mode, (mode_name, _)) in MODES.iter().enumerate() {
            for (b, band) in BANDS.into_iter().enumerate() {
                let series = band_series(samples, mode, b, n);
                self.end_to_end
                    .insert(format!("unit_ref_ms.{mode_name}.{band}"), series.median());
                self.timings.push(Timing::new(
                    format!("{unit_name}.{mode_name}.{band}"),
                    "ms",
                    series,
                ));
            }
        }
        self.timings
            .push(Timing::new(unit_name, "ms", all_series(samples)));
    }

    /// Records an end-to-end timing that is printed but not gated.
    pub fn timing(&mut self, name: &str, unit: &'static str, series: Series) {
        self.timings.push(Timing::new(name, unit, series));
    }

    /// Records the set-up times (ms) as `setup_s`, their median at the
    /// reference host speed.
    pub fn setup(&mut self, setup_ms: &Series) {
        let mut seconds = Series::default();
        for (ms, host) in setup_ms.raw.iter().zip(&setup_ms.host) {
            seconds.push(ms / 1e3, *host);
        }
        self.end_to_end.insert("setup_s".into(), seconds.median());
        self.timings.push(Timing::new("setup_s", "s", seconds));
    }

    /// Records a per-layer timing series; its median at the reference host
    /// speed is the metric.
    pub fn layer_timing(&mut self, name: &str, unit: &'static str, series: Series) {
        self.per_layer.insert(name.to_string(), series.median());
        self.layer_timings.push(Timing::new(name, unit, series));
    }

    /// Records a per-layer scalar.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }

    /// The metrics this run owes (per-layer when traced, end-to-end
    /// otherwise) and the values measured for them.
    fn owed(&self) -> (Vec<(String, &'static str)>, &BTreeMap<String, f64>) {
        if self.trace {
            (per_layer_catalog(), &self.per_layer)
        } else {
            (end_to_end_catalog(), &self.end_to_end)
        }
    }

    /// The value of a metric this run owes, if it was measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.owed().1.get(name).copied()
    }

    /// Every failed check and every metric this run owes that is missing or
    /// not a finite number (a layer the workload does not touch may be
    /// absent), one line each.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let (catalog, values) = self.owed();
        let failed = self
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| format!("check failed: {}: {}", c.name, c.detail));
        let missing = catalog
            .iter()
            .filter(|(name, _)| !values.get(name).map_or(self.trace, |v| v.is_finite()))
            .map(|(name, _)| format!("metric missing or not finite: {name}"));
        failed.chain(missing).collect()
    }

    /// Whether every check passed and every metric this run owes was
    /// measured.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems().is_empty()
    }

    /// The human-readable report followed by the one-line JSON result.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} (trace {})",
            self.workload.name(),
            u8::from(self.trace)
        );
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "context: {}", context.join(" "));
        let _ = writeln!(
            out,
            "end-to-end (untraced run; median and tail at the reference host speed, wall = wall-time median):"
        );
        for t in &self.timings {
            let _ = writeln!(out, "{}", t.line());
        }
        if let Some(v) = self.end_to_end.get("peak_rss_mb") {
            let _ = writeln!(out, "  {:<28} {:>6}  value={v:.2}", "peak_rss_mb", "MB");
        }
        if self.trace {
            let _ = writeln!(out, "per-layer (traced run):");
            for t in &self.layer_timings {
                let _ = writeln!(out, "{}", t.line());
            }
            for (name, unit) in per_layer_catalog() {
                if !self.layer_timings.iter().any(|t| t.name == name) {
                    let v = self.per_layer.get(&name).copied().unwrap_or(0.0);
                    let _ = writeln!(out, "  {name:<28} {unit:>6}  value={v:.4}");
                }
            }
        }
        let _ = writeln!(out, "operations (attempted / failed):");
        for (kind, (attempted, failed)) in &self.counts {
            let _ = writeln!(out, "  {kind:<28} {attempted} / {failed}");
        }
        let _ = writeln!(out, "checks:");
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  {verdict} {}: {}", c.name, c.detail);
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// this run owes (end-to-end untraced, per-layer traced).
    #[must_use]
    pub fn json(&self) -> String {
        let (catalog, values) = self.owed();
        let attempted: usize = self.counts.values().map(|c| c.0).sum();
        let failed: usize = self.counts.values().map(|c| c.1).sum();
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// The share of the untraced units' time that the traced replay's named
/// layers do not account for, and the tracing overhead, both in percent,
/// from per-mode, per-band medians at the reference host speed: `units` are
/// the untraced run's unit medians, `replayed` the replay's, and `layers`
/// the sum of the replay's per-call layer medians for one unit.
#[must_use]
pub fn attribution(units: &[f64], replayed: &[f64], layers: &[f64]) -> (f64, f64) {
    let total: f64 = units.iter().sum();
    let attributed: f64 = layers.iter().sum();
    let traced: f64 = replayed.iter().sum();
    (
        100.0 * (total - attributed) / total,
        100.0 * (traced - total) / total,
    )
}

/// Runs one workload and returns its report.
///
/// # Errors
/// Returns an error when the workload could not run at all (as opposed to
/// running with a failed check, which the report carries).
pub fn run(workload: Workload, seed: u64, scale: Scale, trace: bool) -> Result<Report, String> {
    let mut report = Report::new(workload, trace);
    report.context(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    report.check(
        "pwu_forest::FAST_PATH_COMPILED",
        pwu_forest::FAST_PATH_COMPILED,
        "the fast fit engine is compiled in",
    );
    let mut clock = HostClock::default();
    let probe_before = clock.fresh_median();
    match workload {
        Workload::AlPaper => al_paper::run(&mut report, &mut clock, scale, seed, trace)?,
        Workload::ServeSessions => serve::run(&mut report, &mut clock, scale, seed, trace)?,
    }
    let (attempted, failed) = report
        .counts
        .values()
        .fold((0, 0), |(a, f), c| (a + c.0, f + c.1));
    report.check(
        "every operation succeeded (annotations, labels, requests)",
        failed == 0,
        format!("{attempted} attempted, {failed} failed"),
    );
    let probe_after = clock.fresh_median();
    report.context("probe_before_ms", format!("{probe_before:.4}"));
    report.context("probe_after_ms", format!("{probe_after:.4}"));
    report.context(
        "host_factor_median",
        format!(
            "{:.3}",
            measure::median(&clock.readings) / measure::REFERENCE_PROBE_MS
        ),
    );
    report.context("probes", clock.readings.len());
    report.layer("host.probe_before_ms", probe_before);
    report.layer("host.probe_after_ms", probe_after);
    report
        .end_to_end
        .insert("peak_rss_mb".into(), measure::peak_rss_mb());
    Ok(report)
}
