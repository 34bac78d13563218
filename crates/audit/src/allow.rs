//! The `audit.allow.toml` allowlist: intentional determinism hazards are
//! *annotated*, not silenced.
//!
//! Each entry names a file, a rule, an optional `contains` substring of the
//! flagged source line, and a mandatory human-readable `reason`. The gate
//! fails on any finding no entry covers **and** on any entry no finding
//! uses — a stale allowlist is itself a finding, so entries cannot outlive
//! the hazards they justify.
//!
//! The file is a small TOML subset parsed in-tree (the workspace is
//! offline, dependency-free by policy): `[[allow]]` tables with
//! `key = "basic string"` pairs and `#` comments. That subset is all the
//! format needs; anything else is a parse error.
//!
//! ```toml
//! [[allow]]
//! file = "crates/forest/src/reference.rs"
//! rule = "float-cmp"
//! reason = "frozen pre-overhaul reference; must reproduce the historical comparator"
//! ```

use crate::scan::{Finding, Rule};

/// One allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Root-relative `/`-separated path the entry covers.
    pub file: String,
    /// Rule name (see [`Rule::name`]).
    pub rule: String,
    /// Optional substring the flagged (trimmed) source line must contain.
    pub contains: Option<String>,
    /// Mandatory justification.
    pub reason: String,
}

/// The result of matching findings against the allowlist.
#[derive(Debug)]
pub struct Audit {
    /// Findings covered by an entry, with the entry index that covered them.
    pub allowed: Vec<(Finding, usize)>,
    /// Findings no entry covers — these fail the gate.
    pub unallowed: Vec<Finding>,
    /// Entries that covered nothing — stale, these also fail the gate.
    pub stale: Vec<AllowEntry>,
}

impl Audit {
    /// True when the gate passes: nothing unallowed, nothing stale.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unallowed.is_empty() && self.stale.is_empty()
    }
}

/// Parses the allowlist text. Errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    struct Raw {
        file: Option<String>,
        rule: Option<String>,
        contains: Option<String>,
        reason: Option<String>,
        line: usize,
    }
    let mut raws: Vec<Raw> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            raws.push(Raw {
                file: None,
                rule: None,
                contains: None,
                reason: None,
                line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `[[allow]]` or `key = \"value\"`"
            ));
        };
        let Some(entry) = raws.last_mut() else {
            return Err(format!("line {lineno}: key outside any [[allow]] table"));
        };
        let value = parse_basic_string(value.trim())
            .ok_or_else(|| format!("line {lineno}: value must be a double-quoted string"))?;
        let slot = match key.trim() {
            "file" => &mut entry.file,
            "rule" => &mut entry.rule,
            "contains" => &mut entry.contains,
            "reason" => &mut entry.reason,
            other => return Err(format!("line {lineno}: unknown key {other:?}")),
        };
        if slot.is_some() {
            return Err(format!("line {lineno}: duplicate key {:?}", key.trim()));
        }
        *slot = Some(value);
    }
    let mut entries = Vec::with_capacity(raws.len());
    for raw in raws {
        let at = raw.line;
        let file = raw
            .file
            .ok_or_else(|| format!("entry at line {at}: missing `file`"))?;
        let rule = raw
            .rule
            .ok_or_else(|| format!("entry at line {at}: missing `rule`"))?;
        if Rule::by_name(&rule).is_none() {
            return Err(format!("entry at line {at}: unknown rule {rule:?}"));
        }
        let reason = raw
            .reason
            .ok_or_else(|| format!("entry at line {at}: missing `reason`"))?;
        if reason.trim().is_empty() {
            return Err(format!("entry at line {at}: empty `reason`"));
        }
        entries.push(AllowEntry {
            file,
            rule,
            contains: raw.contains,
            reason,
        });
    }
    Ok(entries)
}

/// Unquotes a TOML basic string, handling `\"` and `\\` escapes.
fn parse_basic_string(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            // An unescaped quote inside means the suffix strip was wrong.
            return None;
        }
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Splits findings into allowed / unallowed and reports stale entries.
#[must_use]
pub fn apply(findings: Vec<Finding>, entries: &[AllowEntry]) -> Audit {
    let mut used = vec![false; entries.len()];
    let mut allowed = Vec::new();
    let mut unallowed = Vec::new();
    for finding in findings {
        let covering = entries.iter().position(|e| {
            e.file == finding.file
                && e.rule == finding.rule.name()
                && e.contains
                    .as_ref()
                    .is_none_or(|c| finding.excerpt.contains(c.as_str()))
        });
        match covering {
            Some(i) => {
                used[i] = true;
                allowed.push((finding, i));
            }
            None => unallowed.push(finding),
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    Audit {
        allowed,
        unallowed,
        stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Rule;

    fn finding(file: &str, rule: Rule, excerpt: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line: 1,
            rule,
            excerpt: excerpt.to_string(),
        }
    }

    #[test]
    fn parses_entries_and_rejects_malformed_input() {
        let good = r#"
# comment
[[allow]]
file = "a/b.rs"
rule = "ambient"
contains = "Instant::now"
reason = "timing harness"
"#;
        let entries = parse(good).expect("valid allowlist");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "a/b.rs");
        assert_eq!(entries[0].contains.as_deref(), Some("Instant::now"));

        assert!(parse("file = \"x\"").is_err(), "key outside table");
        assert!(parse("[[allow]]\nfile = \"x\"\nrule = \"nope\"\nreason = \"r\"").is_err());
        assert!(
            parse("[[allow]]\nfile = \"x\"\nrule = \"ambient\"").is_err(),
            "missing reason"
        );
        assert!(parse("[[allow]]\nfile = \"x\"\nrule = \"ambient\"\nreason = \"\"").is_err());
    }

    #[test]
    fn apply_partitions_and_reports_stale_entries() {
        let entries = parse(
            r#"
[[allow]]
file = "a.rs"
rule = "ambient"
reason = "tooling"
[[allow]]
file = "never.rs"
rule = "hash-iter"
reason = "stale on purpose"
"#,
        )
        .expect("valid");
        let audit = apply(
            vec![
                finding("a.rs", Rule::Ambient, "let t = Instant::now();"),
                finding("b.rs", Rule::Ambient, "let t = Instant::now();"),
            ],
            &entries,
        );
        assert_eq!(audit.allowed.len(), 1);
        assert_eq!(audit.unallowed.len(), 1);
        assert_eq!(audit.unallowed[0].file, "b.rs");
        assert_eq!(audit.stale.len(), 1);
        assert_eq!(audit.stale[0].file, "never.rs");
        assert!(!audit.is_clean());
    }

    #[test]
    fn contains_narrows_the_match() {
        let entries = parse(
            r#"
[[allow]]
file = "a.rs"
rule = "ambient"
contains = "CARGO"
reason = "cargo resolution"
"#,
        )
        .expect("valid");
        let audit = apply(
            vec![
                finding("a.rs", Rule::Ambient, "env::var(\"CARGO\")"),
                finding("a.rs", Rule::Ambient, "env::var(\"HOME\")"),
            ],
            &entries,
        );
        assert_eq!(audit.allowed.len(), 1);
        assert_eq!(audit.unallowed.len(), 1);
        assert!(audit.stale.is_empty());
    }
}
