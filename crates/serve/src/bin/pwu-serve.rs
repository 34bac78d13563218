//! The `pwu-serve` binary: a framed stdin/stdout tuning server.
//!
//! Usage: `pwu-serve [--state-dir DIR] [--max-step-cost C]`
//!
//! Reads one request object per line from stdin, writes one response object
//! per line to stdout, until EOF or a `shutdown` request. State persists
//! under the state directory (default `target/serve-state`); restarting the
//! binary re-attaches every session found there.

use std::io::{BufReader, Write as _};
use std::process::ExitCode;

use pwu_serve::{AdmissionPolicy, Server, WatchdogPolicy};

fn main() -> ExitCode {
    let mut state_dir = String::from("target/serve-state");
    let mut watchdog = WatchdogPolicy::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => {
                let Some(dir) = args.next() else {
                    return usage("--state-dir needs a value");
                };
                state_dir = dir;
            }
            "--max-step-cost" => {
                // `>=` is false for NaN, which would switch the watchdog off.
                let Some(cost) = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|c| *c >= 0.0)
                else {
                    return usage("--max-step-cost needs a non-negative number (inf disables it)");
                };
                watchdog = WatchdogPolicy {
                    max_step_cost: cost,
                };
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let mut server = match Server::open(&state_dir, AdmissionPolicy::default(), watchdog) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pwu-serve: cannot open state dir '{state_dir}': {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "pwu-serve: {} session(s) attached under '{state_dir}' ({} corrupt skipped)",
        server.session_count(),
        server.stats().skipped_corrupt
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match server.serve(BufReader::new(stdin.lock()), stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pwu-serve: transport error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    let mut err = std::io::stderr().lock();
    if !problem.is_empty() {
        let _ = writeln!(err, "pwu-serve: {problem}");
    }
    let _ = writeln!(
        err,
        "usage: pwu-serve [--state-dir DIR] [--max-step-cost C]\n\
         \n\
         Speaks one flat JSON object per line over stdin/stdout:\n\
         \x20 {{\"cmd\":\"create\",\"session\":\"s1\",\"target\":\"adi\",\"seed\":42}}\n\
         \x20 {{\"cmd\":\"step\",\"session\":\"s1\",\"n\":4}}\n\
         \x20 {{\"cmd\":\"query\"|\"suspend\"|\"resume\"|\"kill\",\"session\":\"s1\"}}\n\
         \x20 {{\"cmd\":\"tick\"}}  {{\"cmd\":\"stats\"}}  {{\"cmd\":\"shutdown\"}}\n\
         \x20 {{\"cmd\":\"trace\",\"action\":\"start\"|\"stop\"}}\n\
         \x20 {{\"cmd\":\"trace\",\"action\":\"export\",\"path\":\"t.jsonl\",\"format\":\"jsonl\"|\"chrome\"}}"
    );
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
