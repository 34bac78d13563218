//! The `pwu-serve` binary's command line: `--max-step-cost` takes a
//! non-negative number or `inf`; anything else is a usage error (exit 1),
//! never a watchdog that sheds every step or silently switches off.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Runs `pwu-serve --max-step-cost <cost>` over a scratch state directory,
/// asking it to shut down at once.
fn serve_with_cost(cost: &str, name: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("pwu-serve-cli-{name}-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_pwu-serve"))
        .arg("--state-dir")
        .arg(&dir)
        .args(["--max-step-cost", cost])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pwu-serve spawns");
    // A rejected argument exits before reading stdin, so the write may fail.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"{\"cmd\":\"shutdown\"}\n");
    let output = child.wait_with_output().expect("pwu-serve exits");
    let _ = std::fs::remove_dir_all(&dir);
    output
}

#[test]
fn max_step_cost_rejects_nan_and_negative_values() {
    for (i, cost) in ["-1", "-0.5", "NaN", "nan", "-inf", "ten"]
        .iter()
        .enumerate()
    {
        let out = serve_with_cost(cost, &format!("bad{i}"));
        assert_eq!(out.status.code(), Some(1), "--max-step-cost {cost}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--max-step-cost") && stderr.contains("usage:"),
            "--max-step-cost {cost}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "--max-step-cost {cost} must serve nothing"
        );
    }
    for (i, cost) in ["0", "2.5", "inf"].iter().enumerate() {
        let out = serve_with_cost(cost, &format!("ok{i}"));
        assert_eq!(out.status.code(), Some(0), "--max-step-cost {cost}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("\"bye\""),
            "--max-step-cost {cost}: {stdout}"
        );
    }
}
