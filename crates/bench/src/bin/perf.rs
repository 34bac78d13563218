//! Before/after perf harness for the forest hot-path overhaul (PR 4) and
//! the measurement-engine overhaul (memoized kernel evaluation).
//!
//! Times the historical implementation against the optimized path **in the
//! same process on the same data**, so the recorded speedups are
//! reproducible on any machine rather than being a snapshot of one
//! historical host. The forest benchmarks pit [`pwu_forest::reference`]
//! against the flat-matrix path; the measurement benchmarks pit
//! [`pwu_spapt::Uncached`] (re-derive the base cost on every repetition,
//! the pre-cache implementation) against the memoizing kernel: one
//! 35-repeat annotation pass, the pool-lint pass every strategy pays when
//! an experiment builds its pools, and one end-to-end experiment cell.
//!
//! Run via `cargo xtask perf`, or directly:
//!
//! ```text
//! cargo run --release -p pwu-bench --bin perf -- \
//!     [--smoke] [--out PATH] [--measure-out PATH]
//! ```
//!
//! `--smoke` keeps the workload sizes but drops the sample count, for quick
//! regression checks (`cargo xtask perf --check`). The forest results go to
//! `--out` (default `BENCH_forest.json`) under the `pwu-bench-forest-v3`
//! schema (v2 added the `fast/`-prefixed [`FitMode::Fast`] engine entries,
//! recorded in the same run as the exact entries so the interleaved-timing
//! methodology stays comparable; v3 added the fast *predict* entry, whose
//! baseline is the same frozen reference path); the measurement results go
//! to
//! `--measure-out` (default `BENCH_measure.json`) under
//! `pwu-bench-measure-v1`. Both reports are
//! `{"schema":...,"mode":...,"results":[{name, baseline_ns, optimized_ns,
//! speedup}, ...]}`; each number is the median of the timed samples, with
//! baseline and optimized calls interleaved so machine-speed drift cancels
//! out of the ratio.

use std::time::Instant;

use pwu_core::experiment::run_experiment;
use pwu_core::{Annotator, Protocol, Strategy};
use pwu_forest::{reference, FitMode, ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix, PoolLintCounts, TuningTarget};
use pwu_spapt::{kernel_by_name, FaultModel, Uncached};
use pwu_stats::{median, Xoshiro256PlusPlus};

/// Synthetic tuning-like data, in both layouts (bitwise-equal contents).
fn data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, FeatureMatrix, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d)
            .map(|f| (rng.next() as usize % (3 + f)) as f64)
            .collect();
        y.push(row.iter().sum::<f64>() + 0.05 * rng.next_f64());
        rows.push(row);
    }
    let matrix = FeatureMatrix::from_rows(d, &rows);
    (rows, matrix, y)
}

/// Median wall-clock nanoseconds of two routines timed **interleaved**
/// (one warm-up call each, then baseline/optimized alternating every
/// sample). Interleaving matters on a throttled single-core container:
/// cgroup CPU-quota and frequency drift move both series together, so the
/// reported *ratio* stays stable even when absolute times wander between
/// the start and end of a run.
fn time_pair(
    samples: usize,
    mut baseline: impl FnMut(),
    mut optimized: impl FnMut(),
) -> (f64, f64) {
    baseline();
    optimized();
    let mut vb = Vec::with_capacity(samples);
    let mut vo = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        baseline();
        vb.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        optimized();
        vo.push(start.elapsed().as_nanos() as f64);
    }
    (median(&vb), median(&vo))
}

struct Row {
    name: &'static str,
    baseline_ns: f64,
    optimized_ns: f64,
}

fn bench_fit(name: &'static str, n: usize, d: usize, samples: usize) -> Row {
    let (rows, matrix, y) = data(n, d, 11);
    let kinds = vec![FeatureKind::Numeric; d];
    let config = ForestConfig::default();
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            std::hint::black_box(reference::fit(&config, &kinds, &rows, &y, 7));
        },
        || {
            std::hint::black_box(RandomForest::fit(&config, &kinds, &matrix, &y, 7));
        },
    );
    Row {
        name,
        baseline_ns,
        optimized_ns,
    }
}

/// The fast engine vs the same single-thread reference baseline as
/// [`bench_fit`], at the stated pool width. Width 1 is the honest
/// algorithmic speedup (counting-sort split search, no per-node sort); the
/// `_t4` entry additionally runs the per-tree fit on a 4-wide pool, which
/// only helps on hosts with free cores (this container is single-core, so
/// its committed number mostly measures pool overhead — see DESIGN.md §14).
fn bench_fit_fast(name: &'static str, n: usize, d: usize, width: usize, samples: usize) -> Row {
    let (rows, matrix, y) = data(n, d, 11);
    let kinds = vec![FeatureKind::Numeric; d];
    let exact = ForestConfig::default();
    let fast = ForestConfig {
        fit_mode: FitMode::Fast,
        ..ForestConfig::default()
    };
    let before = rayon::current_num_threads();
    rayon::set_threads(width);
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            std::hint::black_box(reference::fit(&exact, &kinds, &rows, &y, 7));
        },
        || {
            std::hint::black_box(RandomForest::fit(&fast, &kinds, &matrix, &y, 7));
        },
    );
    rayon::set_threads(before);
    Row {
        name,
        baseline_ns,
        optimized_ns,
    }
}

fn bench_predict_batch(samples: usize) -> Row {
    let d = 12;
    let (_, x, y) = data(300, d, 21);
    let kinds = vec![FeatureKind::Numeric; d];
    let forest = RandomForest::fit(&ForestConfig::default(), &kinds, &x, &y, 3);
    let (pool_rows, pool, _) = data(4000, d, 22);
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            std::hint::black_box(reference::predict_batch(&forest, &pool_rows));
        },
        || {
            std::hint::black_box(forest.predict_batch(&pool));
        },
    );
    Row {
        name: "predict_batch/pool4000_d12",
        baseline_ns,
        optimized_ns,
    }
}

/// Fast-mode batch prediction (flat layout, lane fold) vs the frozen
/// reference path scoring the same fast-fitted trees row by row — the
/// baseline `predict_batch/pool4000_d12` uses for an exact forest.
fn bench_fast_batch_predict(samples: usize) -> Row {
    let d = 12;
    let (_, x, y) = data(500, d, 21);
    let kinds = vec![FeatureKind::Numeric; d];
    let fast_cfg = ForestConfig {
        fit_mode: FitMode::Fast,
        ..ForestConfig::default()
    };
    let fast = RandomForest::fit(&fast_cfg, &kinds, &x, &y, 3);
    let (pool_rows, pool, _) = data(4000, d, 22);
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            std::hint::black_box(reference::predict_batch(&fast, &pool_rows));
        },
        || {
            std::hint::black_box(fast.predict_batch(&pool));
        },
    );
    Row {
        name: "fast/predict_batch/pool4000_d12",
        baseline_ns,
        optimized_ns,
    }
}

/// One full annotation pass — 8 configurations × 35 repeats on gesummv with
/// light fault injection, the paper's measurement protocol for one batch.
/// The baseline re-derives the base cost on all 35 repeats; the memoizing
/// kernel pays for one model evaluation per configuration plus 35 noise
/// draws. Both sides start from a cold cache every sample (fresh clone), so
/// the reported ratio is the *first-annotation* speedup, not a warm-cache
/// replay.
fn bench_annotate(samples: usize) -> Row {
    let kernel = kernel_by_name("gesummv")
        .expect("gesummv exists")
        .with_faults(FaultModel::light(0xBE_7C4));
    let direct = Uncached(kernel.clone());
    let mut rng = Xoshiro256PlusPlus::new(41);
    let cfgs = kernel.space().sample_distinct(8, &mut rng);
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            let target = direct.clone();
            let mut annotator = Annotator::new(&target, 35, 9);
            for cfg in &cfgs {
                std::hint::black_box(annotator.try_evaluate(cfg).ok());
            }
        },
        || {
            let target = kernel.clone();
            let mut annotator = Annotator::new(&target, 35, 9);
            for cfg in &cfgs {
                std::hint::black_box(annotator.try_evaluate(cfg).ok());
            }
        },
    );
    Row {
        name: "annotate/repeats35x8",
        baseline_ns,
        optimized_ns,
    }
}

/// The pool-classification pass an experiment repetition pays once per
/// strategy: lint 2000 pool configurations six times (the six strategies of
/// the paper's comparison all tally the shared pool). The memo computes
/// each configuration's decode exactly once across all six passes.
fn bench_pool_lint(samples: usize) -> Row {
    let kernel = kernel_by_name("atax").expect("atax exists");
    let direct = Uncached(kernel.clone());
    let mut rng = Xoshiro256PlusPlus::new(43);
    let cfgs = kernel.space().sample_distinct(2000, &mut rng);
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            let target = direct.clone();
            for _ in 0..6 {
                std::hint::black_box(PoolLintCounts::tally(&target, &cfgs));
            }
        },
        || {
            let target = kernel.clone();
            for _ in 0..6 {
                std::hint::black_box(PoolLintCounts::tally(&target, &cfgs));
            }
        },
    );
    Row {
        name: "pool_lint/2000x6",
        baseline_ns,
        optimized_ns,
    }
}

/// One cell of the experiment grid — `run_experiment` on one kernel with a
/// miniature protocol (two strategies, one repetition, 35-repeat
/// annotations). End-to-end: sampling, test labeling, pool linting, the
/// active-learning loops, forest fits and all; the memo removes the
/// repeated base-cost evaluations that dominate its measurement half.
fn bench_experiment_cell(samples: usize) -> Row {
    let kernel = kernel_by_name("mvt")
        .expect("mvt exists")
        .with_faults(FaultModel::light(0xCE_11));
    let direct = Uncached(kernel.clone());
    let strategies = [Strategy::Pwu { alpha: 0.05 }, Strategy::Uniform];
    let mut protocol = Protocol::quick(0.05);
    protocol.surrogate_size = 80;
    protocol.pool_size = 56;
    protocol.n_reps = 1;
    protocol.active.n_init = 6;
    protocol.active.n_batch = 2;
    protocol.active.n_max = 16;
    protocol.active.repeats = 35;
    protocol.active.forest = ForestConfig {
        n_trees: 16,
        ..ForestConfig::default()
    };
    let (baseline_ns, optimized_ns) = time_pair(
        samples,
        || {
            let target = direct.clone();
            std::hint::black_box(run_experiment(&target, &strategies, &protocol, 7));
        },
        || {
            let target = kernel.clone();
            std::hint::black_box(run_experiment(&target, &strategies, &protocol, 7));
        },
    );
    Row {
        name: "experiment_cell/mini",
        baseline_ns,
        optimized_ns,
    }
}

fn write_json(path: &str, schema: &str, mode: &str, results: &[Row]) -> std::io::Result<()> {
    let mut out = format!("{{\"schema\":\"{schema}\",\"mode\":\"{mode}\",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},\"speedup\":{:.3}}}",
            r.name,
            r.baseline_ns,
            r.optimized_ns,
            r.baseline_ns / r.optimized_ns
        ));
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

fn print_table(results: &[Row]) {
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "benchmark", "baseline", "optimized", "speedup"
    );
    for r in results {
        println!(
            "{:<28} {:>11.2} ms {:>11.2} ms {:>8.2}x",
            r.name,
            r.baseline_ns / 1e6,
            r.optimized_ns / 1e6,
            r.baseline_ns / r.optimized_ns
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_value = |flag: &str, default: &'static str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map_or(default, String::as_str)
            .to_string()
    };
    let out_path = arg_value("--out", "BENCH_forest.json");
    let measure_path = arg_value("--measure-out", "BENCH_measure.json");
    let (mode, samples) = if smoke { ("smoke", 5) } else { ("full", 15) };

    eprintln!("[perf] mode {mode}: {samples} samples per benchmark, median reported");
    let forest_results = [
        bench_fit("fit/n200_d8", 200, 8, samples),
        bench_fit("fit/n500_d20", 500, 20, samples),
        bench_fit_fast("fast/fit/n500_d20", 500, 20, 1, samples),
        bench_fit_fast("fast/fit/n500_d20_t4", 500, 20, 4, samples),
        bench_predict_batch(samples),
        bench_fast_batch_predict(samples),
    ];
    print_table(&forest_results);
    write_json(&out_path, "pwu-bench-forest-v3", mode, &forest_results)
        .expect("write forest benchmark report");
    eprintln!("[perf] wrote {out_path}");

    // The measurement engine: smoke mode halves the already-bounded sample
    // count the same way, keeping `cargo xtask perf --check` inside a CI
    // budget (the experiment cell is the expensive one).
    let measure_results = [
        bench_annotate(samples),
        bench_pool_lint(samples),
        bench_experiment_cell(samples),
    ];
    print_table(&measure_results);
    write_json(
        &measure_path,
        "pwu-bench-measure-v1",
        mode,
        &measure_results,
    )
    .expect("write measurement benchmark report");
    eprintln!("[perf] wrote {measure_path}");
}
