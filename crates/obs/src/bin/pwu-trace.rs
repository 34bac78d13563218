//! `pwu-trace` — turn a `pwu-trace-v1` JSONL export into per-stage tables.
//!
//! ```text
//! pwu-trace summarize <trace.jsonl>        per-span cost/latency table + metrics
//! pwu-trace diff <base.jsonl> <new.jsonl>  compare two runs; exit 1 on regression
//! pwu-trace top <trace.jsonl> [N]          heaviest spans (wall time, else extent)
//! ```
//!
//! Works on both planes: deterministic traces have no wall column (the
//! sidecar is stripped), full traces show sidecar milliseconds. `PCT`
//! defaults to 10 and must be a non-negative number or `inf`, which makes
//! the diff report-only; `N` defaults to 10. Any other argument is a usage
//! error (exit 2).

use std::process::exit;

use pwu_obs::{diff_summaries, summarize, Summary};

fn usage() -> ! {
    eprintln!("usage: pwu-trace <summarize FILE | diff BASE NEW [--threshold PCT] | top FILE [N]>");
    exit(2);
}

/// The fractional regression threshold from `diff`'s optional
/// `--threshold PCT` (NaN and negative percentages are refused).
fn threshold(args: &[String]) -> f64 {
    match args {
        [] => 0.10,
        [flag, pct] if flag == "--threshold" => match pct.parse::<f64>() {
            Ok(pct) if pct >= 0.0 => pct / 100.0,
            _ => usage(),
        },
        _ => usage(),
    }
}

fn load(path: &str) -> Summary {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pwu-trace: cannot read {path}: {e}");
        exit(2);
    });
    summarize(&text).unwrap_or_else(|| {
        eprintln!("pwu-trace: {path} is not a pwu-trace-v1 export");
        exit(2);
    })
}

#[allow(clippy::cast_precision_loss)]
fn wall_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn print_summary(s: &Summary) {
    println!(
        "{:<30} {:>8} {:>14} {:>10} {:>12}",
        "span", "count", "cost", "extent", "wall ms"
    );
    for stat in &s.spans {
        let wall = if stat.wall_total_ns > 0 {
            format!("{:.3}", wall_ms(stat.wall_total_ns))
        } else {
            "-".to_string()
        };
        println!(
            "{:<30} {:>8} {:>14.3} {:>10} {:>12}",
            stat.name, stat.count, stat.cost_total, stat.seq_extent, wall
        );
    }
    if !s.metrics.is_empty() {
        println!("\n{:<40} {:>15} plane", "metric", "value");
        for (name, plane, value) in &s.metrics {
            println!("{name:<40} {value:>15} {plane}");
        }
    }
    println!("\n{} events total", s.events);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] if cmd == "summarize" => {
            print_summary(&load(path));
        }
        [cmd, base, new, rest @ ..] if cmd == "diff" => {
            let threshold = threshold(rest);
            let base = load(base);
            let new = load(new);
            let report = diff_summaries(&base, &new, threshold);
            print!("{}", report.text);
            if report.regressed {
                eprintln!(
                    "pwu-trace: regression over {:.0}% threshold",
                    threshold * 100.0
                );
                exit(1);
            }
            println!("no regression over {:.0}% threshold", threshold * 100.0);
        }
        [cmd, path, rest @ ..] if cmd == "top" => {
            let n = match rest {
                [] => 10,
                [n] => n.parse::<usize>().unwrap_or_else(|_| usage()),
                _ => usage(),
            };
            let s = load(path);
            let mut spans = s.spans.clone();
            spans.sort_by(|a, b| {
                (b.wall_total_ns, b.seq_extent, b.count).cmp(&(
                    a.wall_total_ns,
                    a.seq_extent,
                    a.count,
                ))
            });
            println!(
                "{:<30} {:>8} {:>14} {:>10} {:>12}",
                "span", "count", "cost", "extent", "wall ms"
            );
            for stat in spans.iter().take(n) {
                println!(
                    "{:<30} {:>8} {:>14.3} {:>10} {:>12.3}",
                    stat.name,
                    stat.count,
                    stat.cost_total,
                    stat.seq_extent,
                    wall_ms(stat.wall_total_ns)
                );
            }
        }
        _ => usage(),
    }
}
