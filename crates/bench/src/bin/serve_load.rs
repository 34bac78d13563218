//! Load generator for the `pwu-serve` tuning service (PR 7).
//!
//! Replays a mixed workload — SPAPT kernel sessions plus the kripke/hypre
//! proxy apps — through the in-process [`pwu_serve::Server`] dispatch and
//! reports two service-level numbers to `BENCH_serve.json` (schema
//! `pwu-bench-serve-v1`):
//!
//! - `serve/step/mixed_fleet` — per-step request latency with warm
//!   eval-cache memos (normal operation, the optimized side) against the
//!   same fleet stepped with its memos cleared before every request (the
//!   cold baseline). The entry carries the warm p50/p99 in `p50_ns` /
//!   `p99_ns`.
//! - `serve/recovery/resume_vs_replay` — wall-clock to recover the whole
//!   fleet from its durable generations (`Server::open` + `resume` each)
//!   against replaying every session from scratch to the same iteration,
//!   which is what a crash would cost without checkpoints. The entry
//!   carries the recovery time in `recovery_ms`.
//!
//! Both are ratios of interleaved same-process measurements, so they hold
//! up on a throttled single-core container; neither depends on thread
//! count. Run via `cargo xtask perf`, or directly:
//!
//! ```text
//! cargo run --release -p pwu-bench --bin serve_load -- [--smoke] [--out PATH] [--trace PATH]
//! ```

use std::fs;
use std::time::Instant;

use pwu_serve::session::SessionSpec;
use pwu_serve::{AdmissionPolicy, Server, WatchdogPolicy};

/// Sessions take `(n_max - n_init) / n_batch` = 4 committed steps to done.
const STEPS_PER_SESSION: usize = 4;

/// The mixed roster the fleet cycles through: ten kernels (warm-cache
/// beneficiaries) and the two proxy apps.
const ROSTER: [&str; 12] = [
    "adi",
    "atax",
    "bicgkernel",
    "correlation",
    "dgemv3",
    "gemver",
    "gesummv",
    "jacobi",
    "lu",
    "mm",
    "kripke",
    "hypre",
];

fn spec_for(target: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        target: target.into(),
        n_init: 4,
        n_batch: 2,
        n_max: 12,
        repeats: 1,
        n_trees: 8,
        eval_every: 4,
        pool_n: 60,
        test_n: 40,
        seed,
        ..SessionSpec::default()
    }
}

fn fleet(n_sessions: usize, seed_base: u64) -> Vec<(String, SessionSpec)> {
    (0..n_sessions)
        .map(|i| {
            (
                format!("load{i:02}"),
                spec_for(ROSTER[i % ROSTER.len()], seed_base + i as u64),
            )
        })
        .collect()
}

fn open(dir: &str) -> Server {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default())
        .expect("state dir must open")
}

fn create_all(server: &mut Server, sessions: &[(String, SessionSpec)]) {
    for (id, spec) in sessions {
        let line = format!(
            r#"{{"cmd":"create","session":"{id}","target":"{}","seed":{},"n_init":{},"n_batch":{},"n_max":{},"repeats":{},"n_trees":{},"eval_every":{},"pool_n":{},"test_n":{}}}"#,
            spec.target,
            spec.seed,
            spec.n_init,
            spec.n_batch,
            spec.n_max,
            spec.repeats,
            spec.n_trees,
            spec.eval_every,
            spec.pool_n,
            spec.test_n
        );
        let (response, _) = server.handle_line(&line);
        assert!(
            response.contains("\"ok\":true"),
            "create failed: {response}"
        );
    }
}

/// Steps every session to done, one request per step, returning each
/// request's latency in nanoseconds. With `cold`, every kernel memo is
/// cleared before every request, simulating a server that cannot keep
/// caches warm.
fn step_fleet(server: &mut Server, sessions: &[(String, SessionSpec)], cold: bool) -> Vec<f64> {
    let mut samples = Vec::with_capacity(sessions.len() * STEPS_PER_SESSION);
    for _ in 0..STEPS_PER_SESSION {
        for (id, _) in sessions {
            if cold {
                if let Some(cache) = server.session(id).expect("registered").target().cache() {
                    cache.clear();
                }
            }
            let line = format!(r#"{{"cmd":"step","session":"{id}","n":1}}"#);
            let start = Instant::now();
            let (response, _) = server.handle_line(&line);
            #[allow(clippy::cast_precision_loss)]
            samples.push(start.elapsed().as_nanos() as f64);
            assert!(response.contains("\"ok\":true"), "step failed: {response}");
        }
    }
    samples
}

/// Percentile (nearest-rank) of a sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, trace) = pwu_bench::take_trace_flag(args);
    if trace.is_some() {
        pwu_bench::start_tracing();
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_serve.json", String::as_str);
    let (n_sessions, passes, recovery_samples) = if smoke { (6, 1, 2) } else { (12, 2, 4) };

    // -- serve/step/mixed_fleet: cold vs warm per-request latency ----------
    // Cold and warm fleets run identical specs in separate state dirs, one
    // step-request apart, so machine drift cancels out of the ratio.
    let mut cold_samples = Vec::new();
    let mut warm_samples = Vec::new();
    for pass in 0..passes {
        let sessions = fleet(n_sessions, 9000 + 100 * pass as u64);
        let (cold_dir, warm_dir) = ("target/serve-load/cold", "target/serve-load/warm");
        let _ = fs::remove_dir_all(cold_dir);
        let _ = fs::remove_dir_all(warm_dir);
        let mut cold_server = open(cold_dir);
        let mut warm_server = open(warm_dir);
        create_all(&mut cold_server, &sessions);
        create_all(&mut warm_server, &sessions);
        cold_samples.extend(step_fleet(&mut cold_server, &sessions, true));
        warm_samples.extend(step_fleet(&mut warm_server, &sessions, false));
        let _ = fs::remove_dir_all(cold_dir);
    }
    cold_samples.sort_unstable_by(f64::total_cmp);
    warm_samples.sort_unstable_by(f64::total_cmp);
    let cold_p50 = percentile(&cold_samples, 50.0);
    let warm_p50 = percentile(&warm_samples, 50.0);
    let warm_p99 = percentile(&warm_samples, 99.0);
    let step_speedup = cold_p50 / warm_p50;
    println!(
        "serve/step/mixed_fleet: cold p50 {cold_p50:.0} ns, warm p50 {warm_p50:.0} ns, warm p99 {warm_p99:.0} ns ({step_speedup:.3}x)"
    );

    // -- serve/recovery/resume_vs_replay -----------------------------------
    // The warm state dir now holds the finished fleet. Recovery = reopen +
    // resume everything from durable generations; replay = rebuild the same
    // fleet from nothing, which is the no-checkpoint alternative.
    let sessions = fleet(n_sessions, 9000 + 100 * (passes as u64 - 1));
    let mut recover_ns = Vec::with_capacity(recovery_samples);
    let mut replay_ns = Vec::with_capacity(recovery_samples);
    for _ in 0..recovery_samples {
        let start = Instant::now();
        let mut server = open("target/serve-load/warm");
        for (id, _) in &sessions {
            let (response, _) =
                server.handle_line(&format!(r#"{{"cmd":"resume","session":"{id}"}}"#));
            assert!(
                response.contains("\"ok\":true"),
                "resume failed: {response}"
            );
        }
        #[allow(clippy::cast_precision_loss)]
        recover_ns.push(start.elapsed().as_nanos() as f64);
        drop(server);

        let replay_dir = "target/serve-load/replay";
        let _ = fs::remove_dir_all(replay_dir);
        let start = Instant::now();
        let mut server = open(replay_dir);
        create_all(&mut server, &sessions);
        step_fleet(&mut server, &sessions, false);
        #[allow(clippy::cast_precision_loss)]
        replay_ns.push(start.elapsed().as_nanos() as f64);
        let _ = fs::remove_dir_all(replay_dir);
    }
    let recover_med = median(&mut recover_ns);
    let replay_med = median(&mut replay_ns);
    let recovery_speedup = replay_med / recover_med;
    let recovery_ms = recover_med / 1e6;
    println!(
        "serve/recovery/resume_vs_replay: replay {replay_med:.0} ns, recover {recover_med:.0} ns = {recovery_ms:.2} ms ({recovery_speedup:.3}x)"
    );
    let _ = fs::remove_dir_all("target/serve-load");

    // `speedup` must be the LAST field of each entry — the xtask report
    // parser requires it.
    let report = format!(
        concat!(
            "{{\"schema\":\"pwu-bench-serve-v1\",\"mode\":\"{}\",\"results\":[",
            "{{\"name\":\"serve/step/mixed_fleet\",\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},",
            "\"p50_ns\":{:.1},\"p99_ns\":{:.1},\"speedup\":{:.3}}},",
            "{{\"name\":\"serve/recovery/resume_vs_replay\",\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},",
            "\"recovery_ms\":{:.3},\"speedup\":{:.3}}}",
            "]}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        cold_p50,
        warm_p50,
        warm_p50,
        warm_p99,
        step_speedup,
        replay_med,
        recover_med,
        recovery_ms,
        recovery_speedup,
    );
    fs::write(out, report).expect("report must be writable");
    println!("wrote {out}");
    if let Some(path) = trace {
        pwu_bench::export_trace(&path);
    }
}
