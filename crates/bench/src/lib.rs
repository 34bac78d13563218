//! Shared machinery of the benchmark harness.
//!
//! The fig/table binaries in `src/bin/` regenerate every table and figure of
//! the paper; this library holds the pieces they share: benchmark registry,
//! scale selection (`--quick` / default / `--full`), and CSV output paths.

use std::path::PathBuf;

use pwu_core::{ActiveConfig, Protocol, Strategy};
use pwu_forest::ForestConfig;
use pwu_space::TuningTarget;
use pwu_stats::InvalidInput;

/// Where the harness mirrors every printed series as CSV.
#[must_use]
pub fn output_dir() -> PathBuf {
    PathBuf::from("target/paper")
}

/// Splits `--trace <path>` out of CLI args: returns the remaining args and
/// the requested export path. Callers pass the rest to their own parsing
/// (so the path is never mistaken for a kernel name), call
/// [`start_tracing`] before the run and [`export_trace`] after it.
#[must_use]
pub fn take_trace_flag(mut args: Vec<String>) -> (Vec<String>, Option<PathBuf>) {
    let Some(i) = args.iter().position(|a| a == "--trace") else {
        return (args, None);
    };
    if i + 1 >= args.len() {
        eprintln!("--trace needs a path; ignoring");
        args.remove(i);
        return (args, None);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    (args, Some(PathBuf::from(path)))
}

/// Arms the tracer for a `--trace` run, timing sidecar included: these
/// binaries exist to report real timings, and the sidecar is write-only by
/// contract.
pub fn start_tracing() {
    pwu_obs::clear();
    pwu_obs::set_wallclock(true);
    pwu_obs::enable();
}

/// Drains the tracer and writes the export to `path`: Chrome trace-event
/// JSON when the extension is `.json` (Perfetto-loadable), full-plane
/// JSONL otherwise (feed to `pwu-trace summarize`).
pub fn export_trace(path: &std::path::Path) {
    pwu_obs::disable();
    let trace = pwu_obs::drain();
    let text = if path.extension().is_some_and(|e| e == "json") {
        trace.chrome_json()
    } else {
        trace.full_jsonl()
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("trace: {} events -> {}", trace.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale: seconds per benchmark.
    Quick,
    /// Default scale: minutes for the full suite on one core.
    Default,
    /// Paper scale: pool 7000 / test 3000 / `n_max` 500 / 10 repetitions.
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` from CLI arguments.
    #[must_use]
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Default
        }
    }

    /// The protocol at this scale for a kernel-sized space.
    #[must_use]
    pub fn protocol(self, alpha: f64) -> Protocol {
        match self {
            Scale::Quick => Protocol::quick(alpha),
            Scale::Default => Protocol {
                surrogate_size: 2_600,
                pool_size: 2_000,
                active: ActiveConfig {
                    n_init: 10,
                    n_batch: 1,
                    n_max: 200,
                    forest: ForestConfig {
                        n_trees: 48,
                        ..ForestConfig::default()
                    },
                    eval_every: 5,
                    alphas: vec![alpha],
                    repeats: 5,
                    ..ActiveConfig::default()
                },
                n_reps: 5,
            },
            Scale::Full => Protocol::paper(alpha),
        }
    }

    /// Same protocol, clamped so it fits a small application space
    /// (kripke has 2304 points, hypre 3024).
    #[must_use]
    pub fn protocol_for(self, target: &dyn TuningTarget, alpha: f64) -> Protocol {
        let mut p = self.protocol(alpha);
        let card = target.space().cardinality();
        let max_surrogate = (card as usize).min(p.surrogate_size);
        if max_surrogate < p.surrogate_size {
            p.surrogate_size = max_surrogate;
            p.pool_size = max_surrogate * 7 / 10;
            p.active.n_max = p.active.n_max.min(p.pool_size / 2);
        }
        p
    }
}

/// All 14 benchmarks of the paper: 12 kernels + kripke + hypre.
#[must_use]
pub fn all_benchmarks() -> Vec<Box<dyn TuningTarget>> {
    let mut v: Vec<Box<dyn TuningTarget>> = pwu_spapt::all_kernels()
        .into_iter()
        .map(|k| Box::new(k) as Box<dyn TuningTarget>)
        .collect();
    v.push(Box::new(pwu_apps::Kripke::new()));
    v.push(Box::new(pwu_apps::Hypre::new()));
    v
}

/// Names of every registered benchmark, in registry order.
#[must_use]
pub fn benchmark_names() -> Vec<String> {
    all_benchmarks()
        .iter()
        .map(|t| t.name().to_string())
        .collect()
}

/// A benchmark by name (kernel, `kripke`, or `hypre`).
#[must_use]
pub fn benchmark_by_name(name: &str) -> Option<Box<dyn TuningTarget>> {
    all_benchmarks().into_iter().find(|t| t.name() == name)
}

/// A benchmark by name, or a typed error listing every valid name.
///
/// # Errors
/// Returns [`InvalidInput`] when `name` is not in the registry.
pub fn try_benchmark_by_name(name: &str) -> Result<Box<dyn TuningTarget>, InvalidInput> {
    benchmark_by_name(name).ok_or_else(|| {
        InvalidInput::new(
            "benchmark name",
            format!(
                "unknown benchmark `{name}`; valid names: {}",
                benchmark_names().join(", ")
            ),
        )
    })
}

/// The six strategies of the paper's figures.
#[must_use]
pub fn paper_strategies(alpha: f64) -> Vec<Strategy> {
    Strategy::paper_set(alpha)
}

/// Runs the paper's experiment (all six strategies) on one benchmark at the
/// given scale and α, printing progress to stderr.
///
/// # Panics
/// Panics if the benchmark name is unknown; use [`try_run_benchmark_curves`]
/// to handle that case gracefully.
#[must_use]
pub fn run_benchmark_curves(
    name: &str,
    scale: Scale,
    alpha: f64,
    seed: u64,
) -> pwu_core::ExperimentResult {
    match try_run_benchmark_curves(name, scale, alpha, seed) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`run_benchmark_curves`].
///
/// # Errors
/// Returns [`InvalidInput`] (listing every valid benchmark name) when `name`
/// is not in the registry.
pub fn try_run_benchmark_curves(
    name: &str,
    scale: Scale,
    alpha: f64,
    seed: u64,
) -> Result<pwu_core::ExperimentResult, InvalidInput> {
    let target = try_benchmark_by_name(name)?;
    let protocol = scale.protocol_for(target.as_ref(), alpha);
    let strategies = paper_strategies(alpha);
    eprintln!(
        "[{name}] pool {} / test {} / n_max {} / {} reps …",
        protocol.pool_size,
        protocol.surrogate_size - protocol.pool_size,
        protocol.active.n_max,
        protocol.n_reps
    );
    let start = std::time::Instant::now();
    let result =
        pwu_core::experiment::run_experiment(target.as_ref(), &strategies, &protocol, seed);
    eprintln!("[{name}] done in {:.1?}", start.elapsed());
    Ok(result)
}

/// Writes one benchmark's per-strategy series (`y` picked by `select`) as a
/// CSV with columns `n_train, <strategy…>`.
///
/// # Panics
/// Panics on I/O errors — the harness should fail loudly.
pub fn write_series_csv(
    path: &std::path::Path,
    result: &pwu_core::ExperimentResult,
    select: impl Fn(&pwu_core::StrategyCurve, usize) -> f64,
) {
    let n = result.curves[0].n_train.len();
    let mut header: Vec<String> = vec!["n_train".into()];
    header.extend(result.curves.iter().map(|c| c.strategy.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows = (0..n).map(|t| {
        let mut row = vec![result.curves[0].n_train[t].to_string()];
        row.extend(
            result
                .curves
                .iter()
                .map(|c| format!("{:.6e}", select(c, t))),
        );
        row
    });
    pwu_report::write_csv(path, &header_refs, rows).expect("CSV write failed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &[&str]| s.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(Scale::from_args(&args(&[])), Scale::Default);
        assert_eq!(Scale::from_args(&args(&["--quick"])), Scale::Quick);
        assert_eq!(Scale::from_args(&args(&["--full", "x"])), Scale::Full);
    }

    #[test]
    fn registry_has_fourteen_benchmarks() {
        let b = all_benchmarks();
        assert_eq!(b.len(), 14);
        assert!(benchmark_by_name("kripke").is_some());
        assert!(benchmark_by_name("hypre").is_some());
        assert!(benchmark_by_name("adi").is_some());
        assert!(benchmark_by_name("bogus").is_none());
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error_listing_valid_names() {
        assert!(try_benchmark_by_name("adi").is_ok());
        let err = match try_benchmark_by_name("bogus") {
            Ok(_) => panic!("bogus must not resolve"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("unknown benchmark `bogus`"), "{err}");
        for name in benchmark_names() {
            assert!(err.contains(&name), "error must list {name}: {err}");
        }
        let err = match try_run_benchmark_curves("bogus", Scale::Quick, 0.05, 1) {
            Ok(_) => panic!("bogus must not run"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("kripke"), "{err}");
    }

    #[test]
    fn protocols_fit_small_spaces() {
        let kripke = pwu_apps::Kripke::new();
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            let p = scale.protocol_for(&kripke, 0.05);
            p.validate();
            assert!(p.surrogate_size as u128 <= kripke.space().cardinality());
        }
    }

    #[test]
    fn full_scale_matches_paper_constants() {
        let p = Scale::Full.protocol(0.01);
        assert_eq!(p.surrogate_size, 10_000);
        assert_eq!(p.pool_size, 7_000);
        assert_eq!(p.active.n_init, 10);
        assert_eq!(p.active.n_batch, 1);
        assert_eq!(p.active.n_max, 500);
        assert_eq!(p.n_reps, 10);
    }
}
