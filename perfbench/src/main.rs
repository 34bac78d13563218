//! Command line: `pwu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Each workload does a fixed amount of work, so `--seconds` is accepted for
//! the calling convention and otherwise unused.

use std::process::ExitCode;

use pwu_perfbench::{run, Scale, Workload};

const USAGE: &str = "usage: pwu-perfbench --workload <al_paper|serve_sessions> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    seconds.ok_or("missing --seconds")?;
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args.workload, args.seed, Scale::Full, args.trace) {
        Ok(report) => {
            print!("{}", report.render());
            let problems = report.problems();
            for problem in &problems {
                eprintln!("{problem}");
            }
            if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
