//! `pwu-trace` as a process: a malformed `diff --threshold` or `top N`
//! is a usage error (exit 2), never a silent default that disables the
//! regression check.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a one-span deterministic trace whose span costs `cost`.
fn trace(tag: &str, cost: u32) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("pwu-trace-cli-{}-{tag}.jsonl", std::process::id()));
    let text = format!(
        "{{\"schema\":\"pwu-trace-v1\",\"plane\":\"deterministic\"}}\n\
         {{\"seq\":0,\"ph\":\"B\",\"name\":\"stage\",\"args\":{{\"cost\":{cost}}}}}\n\
         {{\"seq\":1,\"ph\":\"E\",\"name\":\"stage\"}}\n"
    );
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

fn pwu_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pwu-trace"))
        .args(args)
        .output()
        .expect("pwu-trace runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = pwu_trace(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("usage: pwu-trace"),
        "{args:?} must print the usage"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

/// The span's cost went from 1 to 3: a 200% regression.
#[test]
fn diff_threshold_must_be_a_non_negative_percentage_or_inf() {
    let base = trace("diff-base", 1);
    let new = trace("diff-new", 3);
    let (base, new) = (base.to_str().unwrap(), new.to_str().unwrap());

    assert_eq!(pwu_trace(&["diff", base, new]).status.code(), Some(1));
    let generous = pwu_trace(&["diff", base, new, "--threshold", "250"]);
    assert_eq!(generous.status.code(), Some(0));
    let report_only = pwu_trace(&["diff", base, new, "--threshold", "inf"]);
    assert_eq!(
        report_only.status.code(),
        Some(0),
        "inf makes the diff report-only"
    );
    assert!(String::from_utf8_lossy(&report_only.stdout).contains("3.00x"));

    for bad in [
        &["--threshold", "NaN"][..],
        &["--threshold", "nan"],
        &["--threshold", "abc"],
        &["--threshold", "-50"],
        &["--threshold", "-inf"],
        &["--threshold"],
        &["--thresh", "20"],
        &["--threshold", "20", "extra"],
    ] {
        let mut args = vec!["diff", base, new];
        args.extend_from_slice(bad);
        assert_usage_error(&args);
    }
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(new);
}

#[test]
fn top_n_must_be_a_count() {
    let path = trace("top", 1);
    let path = path.to_str().unwrap();
    let out = pwu_trace(&["top", path, "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("stage"));
    assert_eq!(pwu_trace(&["top", path]).status.code(), Some(0));
    for bad in ["xyz", "-1", "2.5"] {
        assert_usage_error(&["top", path, bad]);
    }
    assert_usage_error(&["top", path, "3", "4"]);
    let _ = std::fs::remove_file(path);
}
