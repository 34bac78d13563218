//! Scanner integration tests: each known-bad fixture fires its rule exactly
//! once (and nothing else), the workspace self-audits clean modulo the
//! checked-in allowlist, and the `pwu-audit` CLI exits with the documented
//! status codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use pwu_audit::allow;
use pwu_audit::scan::{scan_workspace, Rule};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn each_fixture_fires_its_rule_exactly_once() {
    let findings = scan_workspace(&fixtures_dir());
    let expected: [(Rule, &str, usize); 8] = [
        (Rule::HashIter, "hash_iter.rs", 9),
        (Rule::FloatCmp, "float_cmp.rs", 5),
        (Rule::RngEntropy, "rng_entropy.rs", 6),
        (Rule::Ambient, "ambient.rs", 5),
        (Rule::Wallclock, "wallclock.rs", 5),
        (Rule::FloatReduce, "float_reduce.rs", 8),
        (Rule::UnsafeNoSafety, "unsafe_no_safety.rs", 5),
        (Rule::AtomicTally, "atomic_tally.rs", 10),
    ];
    assert_eq!(
        findings.len(),
        expected.len(),
        "one finding per fixture and nothing more; got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    for (rule, file, line) in expected {
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        assert_eq!(
            hits.len(),
            1,
            "rule `{}` must fire exactly once across the fixtures; got {hits:?}",
            rule.name()
        );
        assert_eq!(
            hits[0].file,
            file,
            "rule `{}` fired in the wrong file",
            rule.name()
        );
        assert_eq!(
            hits[0].line,
            line,
            "rule `{}` fired on the wrong line of {file}",
            rule.name()
        );
    }
}

#[test]
fn workspace_self_audit_is_clean_modulo_allowlist() {
    let root = workspace_root();
    let findings = scan_workspace(&root);
    // The workspace carries *intentional*, allowlisted hazards (timing
    // harness clocks, diagnostic tallies, the frozen forest reference).
    // Zero findings would mean the scanner stopped seeing, not that the
    // code got cleaner.
    assert!(
        !findings.is_empty(),
        "expected allowlisted findings; an empty scan means the scanner broke"
    );
    let allow_text = std::fs::read_to_string(root.join("audit.allow.toml"))
        .expect("audit.allow.toml at the workspace root");
    let entries = allow::parse(&allow_text).expect("checked-in allowlist parses");
    let audit = allow::apply(findings, &entries);
    assert!(
        audit.unallowed.is_empty(),
        "unallowed findings:\n{}",
        audit
            .unallowed
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        audit.stale.is_empty(),
        "stale allowlist entries: {:?}",
        audit.stale
    );
    assert!(audit.is_clean());
}

#[test]
fn cli_exits_nonzero_on_the_bad_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwu-audit"))
        .arg("--root")
        .arg(fixtures_dir())
        .output()
        .expect("spawn pwu-audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "fixtures must fail the gate; stdout:\n{stdout}"
    );
    for rule in Rule::all() {
        assert!(
            stdout.contains(rule.name()),
            "report must name rule `{}`; stdout:\n{stdout}",
            rule.name()
        );
    }
}

#[test]
fn cli_exits_zero_on_the_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwu-audit"))
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("spawn pwu-audit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must pass the gate; stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_exits_two_on_a_malformed_allowlist() {
    let bad = std::env::temp_dir().join(format!("pwu-audit-bad-allow-{}.toml", std::process::id()));
    std::fs::write(
        &bad,
        "[[allow]]\nfile = \"x.rs\"\nrule = \"no-such-rule\"\nreason = \"r\"\n",
    )
    .expect("write temp allowlist");
    let out = Command::new(env!("CARGO_BIN_EXE_pwu-audit"))
        .arg("--root")
        .arg(fixtures_dir())
        .arg("--allow")
        .arg(&bad)
        .output()
        .expect("spawn pwu-audit");
    let _ = std::fs::remove_file(&bad);
    assert_eq!(
        out.status.code(),
        Some(2),
        "parse errors are usage errors; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
