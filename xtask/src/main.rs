//! Workspace automation entry point (`cargo xtask <command>`).
//!
//! Commands:
//! - `lint` — the CI lint gate: `cargo fmt --all -- --check` (the
//!   workspace must be rustfmt-clean), then `cargo clippy --workspace
//!   --all-targets` with warnings denied, then the `pwu-lint` kernel
//!   legality checker, which exits non-zero on any `Error`-level diagnostic.
//! - `faults` — the fault-injection and simulator gate: runs the whole
//!   `pwu-spapt` package (the deterministic fault model, the cost, cache,
//!   transform, cachesim cross-check and kernel unit tests, the property
//!   suite, and the suite holding the production evaluator bit-identical
//!   to its reference twin), the annotator's retry/quarantine tests and
//!   the end-to-end fault-tolerance suite, which drives the active-learning
//!   loop under ~20 % injected measurement failures.
//! - `perf` — regenerates `BENCH_forest.json` (forest hot-path),
//!   `BENCH_measure.json` (measurement engine), `BENCH_serve.json`
//!   (service load generator), and `BENCH_obs.json` (tracing overhead)
//!   with the before/after harnesses (`pwu-bench --bin perf`,
//!   `--bin serve_load`, and `--bin obs_overhead`, full mode). With
//!   `--check`, runs the harnesses in smoke mode (bounded sample counts,
//!   CI-budget runtime) to scratch files, validates every report schema,
//!   and fails if any benchmark's speedup regressed below 75 % of its
//!   committed baseline.
//! - `chaos` — the crash-safety gate: runs the whole `pwu-serve` package in
//!   release mode — its protocol, session, admission and watchdog unit
//!   tests, the binary's command-line tests, the service suite, and the
//!   chaos harness at full scale (a 50-session mixed SPAPT + kripke/hypre
//!   fleet, 20 seeded kills at randomized step boundaries, plus a
//!   corrupted-generation rollback scenario), asserting bit-identical
//!   resume against uninterrupted reference runs. See DESIGN.md §12. Then
//!   runs the `perfbench/` self-test (a reduced shape of every benchmark
//!   workload, which drives the service and replays its checkpoint store
//!   and digests through the public API), built under `target/perfbench`
//!   so nothing is written under `perfbench/`.
//! - `audit` — the determinism gate: runs the `pwu-audit` static scanner
//!   against the workspace and `audit.allow.toml` (non-zero on any
//!   unallowed finding *or* stale allowlist entry), then the scanner's own
//!   test suite and the schedule-perturbation harness, which re-runs the
//!   forest fit and a miniature experiment cell under pool widths 1/2/4/8 ×
//!   permuted deal orders and asserts byte-identical results, checkpoint
//!   files included, then the thread-pool shim's suite with its sanitizer
//!   hooks. See DESIGN.md §11 for the contract this enforces.
//! - `obs` — the observability gate: runs the `pwu-obs` unit suite (the
//!   timing sidecar dormant, disarmed and armed), the thread-pool
//!   fork/splice byte-identity test, and the trace-determinism suite
//!   (traces byte-identical across pool widths 1/2/4/8 × deal orders;
//!   tracing-on runs with the sidecar armed produce byte-identical
//!   checkpoints to tracing-off), then checks the committed
//!   `BENCH_obs.json` against the <5 % tracing overhead budget. See
//!   DESIGN.md §13 for the contract.
//! - `fast` — the fit-engine gate. Both fit modes grow trees through one
//!   loop, so it holds both contracts. It runs the root `fit_pins`
//!   fingerprints of both engines, then every test of the `pwu-forest` and
//!   `pwu-core` packages: their lib unit tests, every integration suite and
//!   their doctests. Among them, bitwise (DESIGN.md §9): the `pwu-forest`
//!   `golden_predictions`, `reference_equivalence`, `categorical_exactness`
//!   and `predict_tails` suites and `pwu-core`'s `golden_trajectory`,
//!   `checkpoint_format` and `thread_determinism`. Statistical (DESIGN.md
//!   §14): the `pwu-forest` fast-fit and flat-predict suites (deal-order
//!   perturbations included) and the `pwu-core` statistical-equivalence
//!   harness (trajectory RMSE over ≥20 seeds, 18-kernel best-config
//!   quality, determinism/width-invariance). Last, the `pwu-serve` fleet
//!   suite with fast sessions (nested parallel fit degrades on pool workers
//!   without deadlock).
//!
//! With no command, prints the full CI gate list and exits 0.

use std::process::{exit, Command};

/// Every CI gate, in the order a full run should execute them:
/// `(invocation, what it enforces)`.
const GATES: [(&str, &str); 9] = [
    ("cargo build --release", "the workspace compiles"),
    ("cargo test -q", "umbrella package tests only (tier-1): integration + fit and simulator pins"),
    ("cargo xtask lint", "rustfmt check + clippy -D warnings + pwu-lint kernel legality"),
    ("cargo xtask faults", "pwu-spapt package (simulator + twin equivalence) + fault-injection & retry/quarantine suites"),
    ("cargo xtask perf --check", "perf smoke run vs committed baselines"),
    ("cargo xtask audit", "determinism scan + schedule-perturbation harness"),
    ("cargo xtask chaos", "pwu-serve suites + seeded kill/resume chaos harness (full scale) + perfbench self-test"),
    ("cargo xtask obs", "trace byte-identity + tracing overhead budget"),
    ("cargo xtask fast", "fit pins + every pwu-forest and pwu-core test + serve fleet suite"),
];

fn main() {
    let command = std::env::args().nth(1).unwrap_or_default();
    match command.as_str() {
        "lint" => lint(),
        "faults" => faults(),
        "perf" => perf(std::env::args().any(|a| a == "--check")),
        "audit" => audit(),
        "chaos" => chaos(),
        "obs" => obs(),
        "fast" => fast(),
        "" => {
            println!("xtask: workspace CI gates, in order:");
            for (invocation, enforces) in GATES {
                println!("  {invocation:<28} {enforces}");
            }
        }
        other => {
            eprintln!("unknown xtask command {other:?}\n\nusage: cargo xtask <lint|faults|perf [--check]|audit|chaos|obs|fast>");
            exit(2);
        }
    }
}

/// Runs a step, exiting with its status code on failure.
fn run_step(description: &str, cmd: &mut Command) {
    println!("xtask: {description}");
    let status = cmd.status().unwrap_or_else(|e| {
        eprintln!("xtask: failed to spawn {description}: {e}");
        exit(1);
    });
    if !status.success() {
        eprintln!("xtask: step failed: {description}");
        exit(status.code().unwrap_or(1));
    }
}

fn lint() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "cargo fmt --all -- --check",
        Command::new(&cargo).args(["fmt", "--all", "--", "--check"]),
    );
    run_step(
        "cargo clippy --workspace --all-targets -- -D warnings",
        Command::new(&cargo).args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]),
    );
    run_step(
        "pwu-lint (kernel legality & invariant gate)",
        Command::new(&cargo).args(["run", "--release", "-p", "pwu-analyze", "--bin", "pwu-lint"]),
    );
    println!("xtask: lint gate passed");
}

/// The benchmark names `BENCH_forest.json` must cover to be a valid report.
/// Every entry's baseline is the frozen `pwu_forest::reference` path. The
/// `fast/fit` entries time `FitMode::Fast` (single-thread, then on a 4-wide
/// `PWU_THREADS` pool); `fast/predict_batch` scores a fast-fit forest with
/// its lane fold.
const PERF_BENCHMARKS: [&str; 6] = [
    "fit/n200_d8",
    "fit/n500_d20",
    "fast/fit/n500_d20",
    "fast/fit/n500_d20_t4",
    "fast/predict_batch/pool4000_d12",
    "predict_batch/pool4000_d12",
];

/// The benchmark names `BENCH_measure.json` must cover to be a valid report.
const MEASURE_BENCHMARKS: [&str; 3] = [
    "annotate/repeats35x8",
    "pool_lint/2000x6",
    "experiment_cell/mini",
];

/// The benchmark names `BENCH_serve.json` must cover to be a valid report.
const SERVE_BENCHMARKS: [&str; 2] = ["serve/step/mixed_fleet", "serve/recovery/resume_vs_replay"];

/// The benchmark names `BENCH_obs.json` must cover to be a valid report.
const OBS_BENCHMARKS: [&str; 1] = ["obs/experiment_cell/off_vs_on"];

/// The tracing-overhead budget `cargo xtask obs` enforces on the committed
/// `BENCH_obs.json`: speedup = (tracer off)/(tracer on) must stay ≥ 0.95,
/// i.e. leaving tracing on costs at most ~5 % on the experiment cell.
const OBS_SPEEDUP_FLOOR: f64 = 0.95;

/// The reports the perf harnesses write in one run:
/// `(committed path, schema marker, required benchmarks)`.
const PERF_REPORTS: [(&str, &str, &[&str]); 4] = [
    ("BENCH_forest.json", "pwu-bench-forest-v3", &PERF_BENCHMARKS),
    (
        "BENCH_measure.json",
        "pwu-bench-measure-v1",
        &MEASURE_BENCHMARKS,
    ),
    ("BENCH_serve.json", "pwu-bench-serve-v1", &SERVE_BENCHMARKS),
    ("BENCH_obs.json", "pwu-bench-obs-v1", &OBS_BENCHMARKS),
];

fn perf(check: bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    if !check {
        run_step(
            "perf harness (full mode) -> BENCH_forest.json + BENCH_measure.json",
            Command::new(&cargo).args(["run", "--release", "-p", "pwu-bench", "--bin", "perf"]),
        );
        run_step(
            "service load generator (full mode) -> BENCH_serve.json",
            Command::new(&cargo).args([
                "run",
                "--release",
                "-p",
                "pwu-bench",
                "--bin",
                "serve_load",
            ]),
        );
        run_step(
            "tracing-overhead harness (full mode) -> BENCH_obs.json",
            Command::new(&cargo).args([
                "run",
                "--release",
                "-p",
                "pwu-bench",
                "--bin",
                "obs_overhead",
            ]),
        );
        for (path, schema, required) in PERF_REPORTS {
            let report = read_report(path, schema, required);
            println!("xtask: {path} valid ({} benchmarks)", report.len());
        }
        return;
    }

    let forest_scratch = "target/BENCH_forest_check.json";
    let measure_scratch = "target/BENCH_measure_check.json";
    let serve_scratch = "target/BENCH_serve_check.json";
    let obs_scratch = "target/BENCH_obs_check.json";
    run_step(
        "perf harness (smoke mode, bounded runtime)",
        Command::new(&cargo).args([
            "run",
            "--release",
            "-p",
            "pwu-bench",
            "--bin",
            "perf",
            "--",
            "--smoke",
            "--out",
            forest_scratch,
            "--measure-out",
            measure_scratch,
        ]),
    );
    run_step(
        "service load generator (smoke mode)",
        Command::new(&cargo).args([
            "run",
            "--release",
            "-p",
            "pwu-bench",
            "--bin",
            "serve_load",
            "--",
            "--smoke",
            "--out",
            serve_scratch,
        ]),
    );
    run_step(
        "tracing-overhead harness (smoke mode)",
        Command::new(&cargo).args([
            "run",
            "--release",
            "-p",
            "pwu-bench",
            "--bin",
            "obs_overhead",
            "--",
            "--smoke",
            "--out",
            obs_scratch,
        ]),
    );
    let mut failed = false;
    for ((committed_path, schema, required), scratch) in
        PERF_REPORTS
            .into_iter()
            .zip([forest_scratch, measure_scratch, serve_scratch, obs_scratch])
    {
        let fresh = read_report(scratch, schema, required);
        let Ok(committed_text) = std::fs::read_to_string(committed_path) else {
            println!("xtask: no committed {committed_path} yet; smoke report is valid, skipping the regression comparison");
            continue;
        };
        let committed = parse_report(&committed_text, schema).unwrap_or_else(|| {
            eprintln!("xtask: committed {committed_path} does not match the {schema} schema");
            exit(1);
        });
        for (name, committed_speedup) in &committed {
            let Some((_, fresh_speedup)) = fresh.iter().find(|(n, _)| n == name) else {
                eprintln!("xtask: benchmark {name} missing from the fresh report");
                failed = true;
                continue;
            };
            let floor = speedup_floor(name, *committed_speedup);
            if *fresh_speedup < floor {
                eprintln!(
                    "xtask: perf regression in {name}: speedup {fresh_speedup:.2}x < floor {floor:.2}x (committed {committed_speedup:.2}x)"
                );
                failed = true;
            } else {
                println!(
                    "xtask: {name}: {fresh_speedup:.2}x >= floor {floor:.2}x (committed {committed_speedup:.2}x) ok"
                );
            }
        }
    }
    if failed {
        exit(1);
    }
    println!("xtask: perf check passed");
}

/// The per-benchmark regression floor. Every entry gates relative to its
/// committed baseline (75 %); the contracted fast-engine entries
/// additionally keep *absolute* floors — 75 % of what each is contracted
/// to deliver over `pwu_forest::reference` (fit: 3.0x; batch predict:
/// 2.0x) — so the gate can never ratchet below the contract even if a slow
/// number is committed.
fn speedup_floor(name: &str, committed_speedup: f64) -> f64 {
    let relative = 0.75 * committed_speedup;
    match name {
        "fast/fit/n500_d20" => relative.max(2.25),
        "fast/predict_batch/pool4000_d12" => relative.max(1.5),
        _ => relative,
    }
}

/// Reads and schema-validates a perf report, exiting on any problem.
fn read_report(path: &str, schema: &str, required: &[&str]) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("xtask: cannot read {path}: {e}");
        exit(1);
    });
    let report = parse_report(&text, schema).unwrap_or_else(|| {
        eprintln!("xtask: {path} does not match the {schema} schema");
        exit(1);
    });
    for &required in required {
        if !report.iter().any(|(n, _)| n == required) {
            eprintln!("xtask: {path} is missing benchmark {required}");
            exit(1);
        }
    }
    report
}

/// Extracts `(name, speedup)` pairs from a perf report with the given
/// schema marker. Returns `None` on a schema mismatch or malformed entry.
fn parse_report(text: &str, schema: &str) -> Option<Vec<(String, f64)>> {
    if !text.contains(&format!("\"schema\":\"{schema}\"")) {
        return None;
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("{\"name\":\"") {
        rest = &rest[i + 9..];
        let name_end = rest.find('"')?;
        let name = rest[..name_end].to_string();
        let entry_end = rest.find('}')?;
        let entry = &rest[..entry_end];
        let speedup_at = entry.find("\"speedup\":")?;
        let speedup: f64 = entry[speedup_at + 10..].trim().parse().ok()?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return None;
        }
        out.push((name, speedup));
        rest = &rest[entry_end..];
    }
    if out.is_empty() {
        return None;
    }
    Some(out)
}

fn audit() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "pwu-audit static determinism scan (workspace vs audit.allow.toml)",
        Command::new(&cargo).args(["run", "--release", "-p", "pwu-audit", "--bin", "pwu-audit"]),
    );
    run_step(
        "scanner + schedule-perturbation suites (pwu-audit tests)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-audit"]),
    );
    run_step(
        "thread-pool suite with its sanitizer hooks (rayon shim)",
        Command::new(&cargo).args(["test", "-q", "-p", "rayon"]),
    );
    println!("xtask: determinism audit gate passed");
}

fn chaos() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "pwu-serve package (release): unit, CLI and service suites + chaos harness (50 sessions / 20 seeded kills)",
        Command::new(&cargo).args(["test", "-q", "--release", "-p", "pwu-serve"]),
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits in the workspace root");
    run_step(
        "perfbench self-test (every benchmark workload, reduced shape)",
        Command::new(&cargo)
            .args([
                "test",
                "--release",
                "--locked",
                "--offline",
                "--manifest-path",
            ])
            .arg(root.join("perfbench/Cargo.toml"))
            .env("CARGO_TARGET_DIR", root.join("target/perfbench")),
    );
    println!("xtask: chaos gate passed");
}

fn obs() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "pwu-obs unit suite (sidecar dormant, disarmed and armed)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-obs"]),
    );
    run_step(
        "thread-pool fork/splice byte-identity (rayon shim)",
        Command::new(&cargo).args(["test", "-q", "-p", "rayon", "traces_are_byte_identical"]),
    );
    run_step(
        "trace-determinism suite (widths 1/2/4/8 x deal orders; on ≡ off checkpoints, sidecar armed)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-core", "--test", "obs_determinism"]),
    );
    // The committed overhead number must honor the budget, not just avoid
    // regressing: tracing that costs more than ~5% would get turned off in
    // practice, defeating the whole observability contract.
    let report = read_report("BENCH_obs.json", "pwu-bench-obs-v1", &OBS_BENCHMARKS);
    for (name, speedup) in &report {
        if *speedup < OBS_SPEEDUP_FLOOR {
            eprintln!(
                "xtask: tracing overhead budget blown in {name}: speedup {speedup:.3}x < {OBS_SPEEDUP_FLOOR}"
            );
            exit(1);
        }
        println!("xtask: {name}: {speedup:.3}x >= {OBS_SPEEDUP_FLOOR} ok");
    }
    println!("xtask: observability gate passed");
}

fn fast() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "fit fingerprints of both engines (root fit_pins)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-repro", "--test", "fit_pins"]),
    );
    run_step(
        "pwu-forest + pwu-core packages: lib unit tests, every integration suite, doctests",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-forest", "-p", "pwu-core"]),
    );
    run_step(
        "serve fleet suite with fast sessions (nested fit degrade)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-serve", "--test", "service"]),
    );
    println!("xtask: fit-engine gate passed");
}

fn faults() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    run_step(
        "pwu-spapt package: fault model, simulator unit tests, property and twin-equivalence suites",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-spapt"]),
    );
    run_step(
        "annotator retry/quarantine tests (pwu-core annotator::)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-core", "--lib", "annotator"]),
    );
    run_step(
        "end-to-end fault-tolerance suite (pwu-core fault_tolerance)",
        Command::new(&cargo).args(["test", "-q", "-p", "pwu-core", "--test", "fault_tolerance"]),
    );
    println!("xtask: fault-injection gate passed");
}
