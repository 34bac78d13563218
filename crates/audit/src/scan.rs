//! The static determinism-lint pass: a dependency-free, line/token-level
//! scanner over the workspace's Rust sources.
//!
//! The scanner is deliberately *not* a parser. Like the `pwu-lint` kernel
//! gate from PR 1 it works on stripped source lines — comments, string
//! literals and char literals are blanked first, so rule patterns can only
//! match real code tokens — and it tracks just enough per-file context
//! (identifiers bound to hash containers, `#[cfg(test)]` item spans) to keep
//! the rules precise on this codebase. That makes every rule auditable by
//! eye and keeps the gate fast enough to run on every CI invocation.
//!
//! What it flags, and why each pattern threatens the determinism contract
//! (DESIGN.md §11):
//!
//! - **`hash-iter`** — iterating a `HashMap`/`HashSet`. Iteration order is
//!   seeded per-process; any result that observes it is unstable across
//!   runs. Keyed lookups (`get`/`insert`/`contains_key`/`entry`) are fine
//!   and never flagged.
//! - **`float-cmp`** — `partial_cmp(..).unwrap()`-style float comparisons.
//!   `total_cmp` is the canonical deterministic comparator: it is total
//!   (no NaN panic path) and orders every bit pattern the same way on every
//!   platform.
//! - **`rng-entropy`** — RNG construction from ambient entropy
//!   (`thread_rng`, `from_entropy`, `OsRng`, …) instead of the seeded
//!   Xoshiro generators in `pwu-stats`.
//! - **`ambient`** — reads of ambient process state: environment variables
//!   outside the documented `PWU_*` set. CLI arguments (`env::args`) are
//!   exempt — they are explicit program input, not ambient state.
//! - **`wallclock`** — wall/monotonic clock reads (`SystemTime::now`,
//!   `Instant::now`, `.elapsed(`, `UNIX_EPOCH`). The only sanctioned home
//!   for timing in result-adjacent code is the `pwu-obs` wall-clock
//!   sidecar, which reads no clock until armed at run time and is
//!   write-only when armed (DESIGN.md §13); that sidecar and the benchmark harnesses are
//!   allowlisted with reasons, everything else fails the gate.
//! - **`float-reduce`** — float reductions (`sum`/`product`/`fold`/
//!   `reduce`) over an iteration order that is not index-stable: hash-map
//!   `values()`/`keys()` chains or parallel iterators. Float addition does
//!   not associate, so reduction order is observable through rounding.
//! - **`unsafe-no-safety`** — an `unsafe` token with no `// SAFETY:`
//!   comment within the three preceding lines. (The workspace forbids
//!   `unsafe` outright; the rule exists so the gate survives a future
//!   relaxation of that policy.)
//! - **`atomic-tally`** — shared atomic accumulation (`fetch_add`/
//!   `fetch_sub`). Tallies observed mid-flight depend on thread
//!   interleaving; they are legitimate only as pure diagnostics and must be
//!   allowlisted as such.
//!
//! Scope: `*.rs` files under the scan root, minus `target`, `.git`,
//! `tests`, `examples`, `benches` and `fixtures` directories and minus
//! `#[cfg(test)]` items — test scaffolding may freely read clocks and
//! temp dirs without affecting any result the contract covers.

use std::collections::BTreeSet;
use std::path::Path;

/// One determinism-lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-container iteration (order is per-process seeded).
    HashIter,
    /// Float ordering through `partial_cmp` + unwrap/expect.
    FloatCmp,
    /// RNG constructed from ambient entropy.
    RngEntropy,
    /// Ambient environment read outside the `PWU_*` contract.
    Ambient,
    /// Wall/monotonic clock read outside the `pwu-obs` wallclock sidecar.
    Wallclock,
    /// Float reduction over a non-index-stable iteration order.
    FloatReduce,
    /// `unsafe` without an adjacent `// SAFETY:` justification.
    UnsafeNoSafety,
    /// Shared atomic tally (schedule-dependent when observed mid-flight).
    AtomicTally,
}

impl Rule {
    /// Every rule, in reporting order.
    #[must_use]
    pub fn all() -> [Rule; 8] {
        [
            Rule::HashIter,
            Rule::FloatCmp,
            Rule::RngEntropy,
            Rule::Ambient,
            Rule::Wallclock,
            Rule::FloatReduce,
            Rule::UnsafeNoSafety,
            Rule::AtomicTally,
        ]
    }

    /// The stable kebab-case name used in reports and `audit.allow.toml`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::FloatCmp => "float-cmp",
            Rule::RngEntropy => "rng-entropy",
            Rule::Ambient => "ambient",
            Rule::Wallclock => "wallclock",
            Rule::FloatReduce => "float-reduce",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::AtomicTally => "atomic-tally",
        }
    }

    /// Looks a rule up by its [`Rule::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.name() == name)
    }

    /// One-line remediation hint shown next to findings.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            Rule::HashIter => "iterate a sorted view (BTreeMap/BTreeSet or a sorted Vec) in result-affecting code",
            Rule::FloatCmp => "use f64::total_cmp: total, panic-free, and identical on every platform",
            Rule::RngEntropy => "route randomness through the seeded pwu_stats::Xoshiro256PlusPlus",
            Rule::Ambient => "thread explicit inputs through instead of reading env (PWU_* vars are the documented exception)",
            Rule::Wallclock => "route timing through the pwu-obs wallclock sidecar (armed at run time, write-only) or allowlist the harness with a reason",
            Rule::FloatReduce => "reduce in index order (collect ordered, then sum) — float addition does not associate",
            Rule::UnsafeNoSafety => "precede the unsafe block with a // SAFETY: comment stating the invariant",
            Rule::AtomicTally => "keep atomic tallies diagnostic-only and allowlist them with a justification",
        }
    }
}

/// One flagged source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// The trimmed original source line (allowlist `contains` matches this).
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.excerpt
        )
    }
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 6] = ["target", ".git", "tests", "examples", "benches", "fixtures"];

/// Scans every `*.rs` file under `root` (see module docs for the scope
/// rules) and returns findings ordered by `(file, line, rule)`.
#[must_use]
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    walk(root, root, &mut findings);
    findings
}

fn walk(root: &Path, dir: &Path, findings: &mut Vec<Finding>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(root, &path, findings);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            findings.extend(scan_file(&rel, &text));
        }
    }
}

/// Scans one file's text; `rel` is the root-relative path used in findings.
#[must_use]
pub fn scan_file(rel: &str, text: &str) -> Vec<Finding> {
    let original: Vec<&str> = text.lines().collect();
    let stripped = strip_source(text);
    let live = live_lines(&stripped);
    let tracked = hash_bindings(&stripped, &live);

    let mut findings = Vec::new();
    let mut push = |line: usize, rule: Rule| {
        findings.push(Finding {
            file: rel.to_string(),
            line: line + 1,
            rule,
            excerpt: original.get(line).map_or("", |l| l.trim()).to_string(),
        });
    };

    for (i, s) in stripped.iter().enumerate() {
        if !live[i] {
            continue;
        }
        if tracked.iter().any(|ident| hash_iteration_on(s, ident)) {
            push(i, Rule::HashIter);
        }
        if s.contains("partial_cmp") {
            let window: String = stripped[i..stripped.len().min(i + 3)].join(" ");
            if window.contains(".unwrap()") || window.contains(".expect(") {
                push(i, Rule::FloatCmp);
            }
        }
        const ENTROPY: [&str; 6] = [
            "thread_rng",
            "from_entropy",
            "OsRng",
            "getrandom",
            "rand::random",
            "RandomState",
        ];
        if ENTROPY.iter().any(|p| s.contains(p)) {
            push(i, Rule::RngEntropy);
        }
        const AMBIENT: [&str; 4] = ["env::var", "env::vars(", "env::var_os", "env::temp_dir"];
        // The PWU_ exemption matches the *original* line: the variable name
        // lives in a string literal, which stripping blanks.
        if AMBIENT.iter().any(|p| s.contains(p))
            && !original.get(i).is_some_and(|l| l.contains("PWU_"))
        {
            push(i, Rule::Ambient);
        }
        const WALLCLOCK: [&str; 4] = [
            "SystemTime::now",
            "Instant::now",
            ".elapsed(",
            "UNIX_EPOCH",
        ];
        if WALLCLOCK.iter().any(|p| s.contains(p)) {
            push(i, Rule::Wallclock);
        }
        const UNORDERED_SOURCES: [&str; 4] = ["par_iter", "into_par_iter", ".values()", ".keys()"];
        const REDUCERS: [&str; 5] = [".sum()", ".sum::<", ".product()", ".fold(", ".reduce("];
        if UNORDERED_SOURCES.iter().any(|p| s.contains(p))
            && REDUCERS.iter().any(|p| s.contains(p))
        {
            push(i, Rule::FloatReduce);
        }
        if contains_word(s, "unsafe") {
            let has_safety = original[i.saturating_sub(3)..=i]
                .iter()
                .any(|l| l.contains("SAFETY:"));
            if !has_safety {
                push(i, Rule::UnsafeNoSafety);
            }
        }
        if s.contains("fetch_add(") || s.contains("fetch_sub(") {
            push(i, Rule::AtomicTally);
        }
    }
    findings
}

/// Blanks comments, string literals and char literals, preserving line
/// structure, so rule patterns only ever match code tokens. Handles nested
/// block comments, escape sequences, raw strings (`r"…"`, `r#"…"#`) and
/// byte-string variants; lifetimes are kept (only `'x'`-shaped char
/// literals are blanked).
fn strip_source(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let mut prev_ident = false;
    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            prev_ident = false;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            prev_ident = false;
            continue;
        }
        // Raw / byte strings: r"…", r#"…"#, br"…", b"…" — only when the
        // prefix letter starts a token (not mid-identifier).
        if (c == 'r' || c == 'b') && !prev_ident {
            let mut j = i;
            if chars[j] == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                j += 1;
            }
            if chars[j] == 'r' || chars[j] == 'b' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' && (chars[j] != 'b' || hashes == 0) {
                    // Scan to the closing quote + hashes.
                    let mut m = k + 1;
                    'raw: while m < n {
                        if chars[m] == '\n' {
                            out.push('\n');
                        }
                        if chars[m] == '"' {
                            let mut h = 0usize;
                            while m + 1 + h < n && h < hashes && chars[m + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                m += 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    i = m;
                    prev_ident = false;
                    continue;
                }
            }
        }
        // Plain string literal.
        if c == '"' {
            i += 1;
            while i < n {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        out.push('\n');
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            prev_ident = false;
            continue;
        }
        // Char literal ('x' or '\x…') vs lifetime ('a).
        if c == '\'' && !prev_ident {
            if i + 2 < n && chars[i + 1] == '\\' {
                let mut j = i + 2;
                while j < n && j < i + 8 && chars[j] != '\'' {
                    j += 1;
                }
                if j < n && chars[j] == '\'' {
                    i = j + 1;
                    prev_ident = false;
                    continue;
                }
            } else if i + 2 < n && chars[i + 2] == '\'' {
                i += 3;
                prev_ident = false;
                continue;
            }
        }
        out.push(c);
        prev_ident = c.is_alphanumeric() || c == '_';
        i += 1;
    }
    out.split('\n').map(str::to_string).collect()
}

/// Marks which stripped lines are *live* (outside `#[cfg(test)]` items).
/// After a `#[cfg(test)]` attribute, the next brace-carrying item and its
/// whole body are dead.
fn live_lines(stripped: &[String]) -> Vec<bool> {
    let mut live = vec![true; stripped.len()];
    let mut pending = false;
    let mut depth = 0usize;
    let mut in_dead_item = false;
    for (i, s) in stripped.iter().enumerate() {
        if in_dead_item {
            live[i] = false;
            for c in s.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            in_dead_item = false;
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }
        if s.contains("#[cfg(test)]") {
            pending = true;
            live[i] = false;
            continue;
        }
        if pending {
            live[i] = false;
            if s.contains('{') {
                for c in s.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                pending = false;
                if depth > 0 {
                    in_dead_item = true;
                }
            } else if s.contains(';') {
                // `#[cfg(test)] mod tests;` — the body lives elsewhere.
                pending = false;
            }
        }
    }
    live
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: `let`
/// bindings whose line mentions a hash container, and `name: HashMap<…>`
/// patterns (struct fields, fn params). Over-approximation is fine — the
/// allowlist is the escape hatch, not rule precision.
fn hash_bindings(stripped: &[String], live: &[bool]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, s) in stripped.iter().enumerate() {
        if !live[i] {
            continue;
        }
        if !contains_word(s, "HashMap") && !contains_word(s, "HashSet") {
            continue;
        }
        // `let [mut] name …` with a hash container anywhere on the line.
        if let Some(p) = find_word(s, "let") {
            let rest = s[p + 3..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                out.insert(ident);
            }
        }
        // `name: [&][std::collections::]HashMap<…>` (field / param decls).
        for container in ["HashMap", "HashSet"] {
            let mut start = 0;
            while let Some(p) = s[start..].find(container) {
                let at = start + p;
                let mut head = s[..at].trim_end();
                head = head.strip_suffix("std::collections::").unwrap_or(head);
                head = head.strip_suffix("collections::").unwrap_or(head);
                head = head.trim_end_matches(['&', ' ']);
                if let Some(h) = head.strip_suffix(':') {
                    let h = h.trim_end();
                    let ident: String = h
                        .chars()
                        .rev()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<String>()
                        .chars()
                        .rev()
                        .collect();
                    if !ident.is_empty() && !ident.chars().next().unwrap().is_numeric() {
                        out.insert(ident);
                    }
                }
                start = at + container.len();
            }
        }
    }
    out
}

/// Methods that observe a container's iteration order.
const ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
];

/// True when `s` iterates `ident` (method call or `for … in ident`).
fn hash_iteration_on(s: &str, ident: &str) -> bool {
    let mut start = 0;
    while let Some(p) = s[start..].find(ident) {
        let at = start + p;
        let end = at + ident.len();
        let before_ok = at == 0 || !is_ident_char(s[..at].chars().last().unwrap());
        let after_ok = s[end..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            let rest = &s[end..];
            if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                return true;
            }
            // `for x in ident {` / `for x in &ident {` (bare loop over the
            // container itself).
            let mut head = s[..at].trim_end();
            head = head.strip_suffix("&mut").unwrap_or(head).trim_end();
            head = head.strip_suffix('&').unwrap_or(head).trim_end();
            if (head.ends_with(" in") || head == "in")
                && (rest.trim_start().starts_with('{') || rest.trim().is_empty())
            {
                return true;
            }
        }
        start = end;
    }
    false
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Substring match with identifier-boundary checks on both sides.
fn contains_word(s: &str, w: &str) -> bool {
    find_word(s, w).is_some()
}

/// Byte offset of the first boundary-delimited occurrence of `w` in `s`.
fn find_word(s: &str, w: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(p) = s[start..].find(w) {
        let at = start + p;
        let before_ok = at == 0 || !is_ident_char(s[..at].chars().last().unwrap());
        let after_ok = s[at + w.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + w.len();
    }
    None
}
