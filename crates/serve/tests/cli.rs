//! The `pwu-serve` binary's command line: `--max-step-cost` takes a
//! non-negative number or `inf`; anything else is a usage error (exit 1),
//! never a watchdog that sheds every step or silently switches off. The
//! binary is also where a process-wide trace is safe to take: this suite's
//! other tests run in their own processes.

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

/// How many `name` spans a JSONL trace export opened.
fn spans(export: &str, name: &str) -> usize {
    let opened = format!(r#""ph":"B","name":"{name}""#);
    export.lines().filter(|l| l.contains(&opened)).count()
}

/// A served step restores its loop from the resident checkpoint without
/// parsing checkpoint text; only a resume, which loads a slot from disk,
/// parses one.
#[test]
fn a_traced_step_parses_no_checkpoint_and_a_resume_parses_one() {
    let dir = std::env::temp_dir().join(format!("pwu-serve-cli-parse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (steps, resumed) = (dir.join("steps.jsonl"), dir.join("resume.jsonl"));
    let export = |path: &std::path::Path| {
        format!(
            r#"{{"cmd":"trace","action":"export","path":"{}","format":"jsonl"}}"#,
            path.display()
        )
    };
    let requests = [
        r#"{"cmd":"create","session":"s","target":"adi","seed":5,"n_init":4,"n_batch":2,"n_max":12,"repeats":1,"n_trees":8,"pool_n":40,"test_n":20}"#.to_string(),
        r#"{"cmd":"trace","action":"start"}"#.into(),
        r#"{"cmd":"step","session":"s","n":3}"#.into(),
        export(&steps),
        r#"{"cmd":"suspend","session":"s"}"#.into(),
        r#"{"cmd":"resume","session":"s"}"#.into(),
        export(&resumed),
        r#"{"cmd":"shutdown"}"#.into(),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_pwu-serve"))
        .arg("--state-dir")
        .arg(dir.join("state"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pwu-serve spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all((requests.join("\n") + "\n").as_bytes())
        .expect("pwu-serve reads its requests");
    let output = child.wait_with_output().expect("pwu-serve exits");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.lines().all(|l| l.contains(r#""ok":true"#)),
        "every request succeeds: {stdout}"
    );
    let steps = std::fs::read_to_string(&steps).expect("the step trace was exported");
    let resumed = std::fs::read_to_string(&resumed).expect("the resume trace was exported");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(spans(&steps, "core.restore"), 3, "three steps ran traced");
    assert_eq!(
        spans(&steps, "checkpoint.parse"),
        0,
        "a step parses no text"
    );
    assert_eq!(spans(&resumed, "checkpoint.load"), 1);
    assert_eq!(
        spans(&resumed, "checkpoint.parse"),
        1,
        "a resume parses once"
    );
}
