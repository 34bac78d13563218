//! Tracing-overhead harness for the observability stack (`pwu-obs`).
//!
//! Times one end-to-end experiment cell (the same miniature protocol the
//! `perf` binary uses) with the tracer **disabled** against the identical
//! cell with the tracer **enabled** (deterministic plane; the wall-clock
//! sidecar stays disarmed, as in production traces). The traced side pays
//! for every span/event the stack records — tuning-loop stages, forest
//! fits, annotator retries, pool deals — plus the per-sample drain, so the
//! reported ratio is the honest price of leaving tracing on.
//!
//! The target is <5% overhead (speedup = off/on ≥ 0.95); `cargo xtask obs`
//! enforces the committed number and `cargo xtask perf --check` guards it
//! against regression like every other perf report.
//!
//! Run via `cargo xtask perf`, or directly:
//!
//! ```text
//! cargo run --release -p pwu-bench --bin obs_overhead -- [--smoke] [--out PATH]
//! ```

use std::time::Instant;

use pwu_core::experiment::run_experiment;
use pwu_core::{Protocol, Strategy};
use pwu_forest::ForestConfig;
use pwu_spapt::{kernel_by_name, FaultModel};
use pwu_stats::median;

/// The miniature experiment-cell workload shared with the `perf` binary's
/// `experiment_cell/mini` benchmark.
fn mini_protocol() -> Protocol {
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
    protocol
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_obs.json", String::as_str);
    let (mode, samples) = if smoke { ("smoke", 5) } else { ("full", 15) };
    eprintln!("[obs] mode {mode}: {samples} samples per side, median reported");

    let kernel = kernel_by_name("mvt")
        .expect("mvt exists")
        .with_faults(FaultModel::light(0xCE_11));
    let strategies = [Strategy::Pwu { alpha: 0.05 }, Strategy::Uniform];
    let protocol = mini_protocol();
    let cell = || {
        let target = kernel.clone();
        std::hint::black_box(run_experiment(&target, &strategies, &protocol, 7));
    };

    // Interleaved off/on samples so machine drift cancels out of the ratio
    // (same discipline as the perf binary). The traced side drains its
    // buffer every sample — that bookkeeping is part of the honest cost —
    // and the event count is reported so a silent no-op tracer cannot pass.
    pwu_obs::set_wallclock(false);
    pwu_obs::disable();
    pwu_obs::clear();
    cell();
    pwu_obs::enable();
    cell();
    let warmup_events = pwu_obs::drain().len();
    pwu_obs::disable();

    let mut off_ns = Vec::with_capacity(samples);
    let mut on_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        pwu_obs::disable();
        let start = Instant::now();
        cell();
        off_ns.push(start.elapsed().as_nanos() as f64);
        pwu_obs::enable();
        let start = Instant::now();
        cell();
        let _ = pwu_obs::drain();
        on_ns.push(start.elapsed().as_nanos() as f64);
    }
    pwu_obs::disable();
    assert!(warmup_events > 0, "traced cell must record events");

    let off_med = median(&off_ns);
    let on_med = median(&on_ns);
    let speedup = off_med / on_med;
    let overhead_pct = (on_med / off_med - 1.0) * 100.0;
    println!(
        "obs/experiment_cell/off_vs_on: off {:.2} ms, on {:.2} ms, {warmup_events} events, overhead {overhead_pct:+.2}% ({speedup:.3}x)",
        off_med / 1e6,
        on_med / 1e6,
    );

    // `speedup` must be the LAST field of the entry — the xtask report
    // parser requires it.
    let report = format!(
        concat!(
            "{{\"schema\":\"pwu-bench-obs-v1\",\"mode\":\"{}\",\"results\":[",
            "{{\"name\":\"obs/experiment_cell/off_vs_on\",\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},",
            "\"events\":{},\"overhead_pct\":{:.3},\"speedup\":{:.3}}}",
            "]}}\n"
        ),
        mode, off_med, on_med, warmup_events, overhead_pct, speedup,
    );
    std::fs::write(out, report).expect("report must be writable");
    println!("wrote {out}");
}
