//! Load generator for the `pwu-serve` tuning service.
//!
//! Creates a mixed fleet — SPAPT kernel sessions plus the kripke/hypre
//! proxy apps — through the in-process [`pwu_serve::Server`] dispatch,
//! steps every session to done, and reports one service-level number to
//! `BENCH_serve.json` (schema `pwu-bench-serve-v1`):
//!
//! - `serve/recovery/resume_vs_replay` — wall-clock to recover the whole
//!   fleet from its durable generations (`Server::open` + `resume` each)
//!   against replaying every session from scratch to the same iteration,
//!   which is what a crash would cost without checkpoints. The entry
//!   carries the recovery time in `recovery_ms`.
//!
//! It is a ratio of interleaved same-process measurements, so it holds up
//! on a throttled single-core container and does not depend on thread
//! count. Served-step latency is measured end to end by `perfbench`
//! (`serve_sessions`), not here. Run via `cargo xtask perf`, or directly:
//!
//! ```text
//! cargo run --release -p pwu-bench --bin serve_load -- [--smoke] [--out PATH] [--trace PATH]
//! ```

use std::fs;
use std::time::Instant;

use pwu_serve::session::SessionSpec;
use pwu_serve::{AdmissionPolicy, Server, WatchdogPolicy};
use pwu_stats::median;

/// Sessions take `(n_max - n_init) / n_batch` = 4 committed steps to done.
const STEPS_PER_SESSION: usize = 4;

/// The mixed roster the fleet cycles through: ten SPAPT kernels and the
/// two proxy apps.
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

/// Steps every session to done, one request per step.
fn step_fleet(server: &mut Server, sessions: &[(String, SessionSpec)]) {
    for _ in 0..STEPS_PER_SESSION {
        for (id, _) in sessions {
            let line = format!(r#"{{"cmd":"step","session":"{id}","n":1}}"#);
            let (response, _) = server.handle_line(&line);
            assert!(response.contains("\"ok\":true"), "step failed: {response}");
        }
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
    let (n_sessions, seed_base, recovery_samples) =
        if smoke { (6, 9000, 2) } else { (12, 9100, 4) };

    // The finished fleet whose durable generations every recovery reads.
    let sessions = fleet(n_sessions, seed_base);
    let fleet_dir = "target/serve-load/fleet";
    let _ = fs::remove_dir_all(fleet_dir);
    let mut server = open(fleet_dir);
    create_all(&mut server, &sessions);
    step_fleet(&mut server, &sessions);
    drop(server);

    // -- serve/recovery/resume_vs_replay -----------------------------------
    // Recovery = reopen + resume everything from durable generations;
    // replay = rebuild the same fleet from nothing, which is the
    // no-checkpoint alternative.
    let mut recover_ns = Vec::with_capacity(recovery_samples);
    let mut replay_ns = Vec::with_capacity(recovery_samples);
    for _ in 0..recovery_samples {
        let start = Instant::now();
        let mut server = open(fleet_dir);
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
        step_fleet(&mut server, &sessions);
        #[allow(clippy::cast_precision_loss)]
        replay_ns.push(start.elapsed().as_nanos() as f64);
        let _ = fs::remove_dir_all(replay_dir);
    }
    let recover_med = median(&recover_ns);
    let replay_med = median(&replay_ns);
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
            "{{\"name\":\"serve/recovery/resume_vs_replay\",\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},",
            "\"recovery_ms\":{:.3},\"speedup\":{:.3}}}",
            "]}}\n"
        ),
        if smoke { "smoke" } else { "full" },
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
