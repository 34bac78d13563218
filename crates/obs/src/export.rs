//! Trace exports and trace analysis.
//!
//! Three serializations of one drained [`Trace`]:
//!
//! - **Deterministic JSONL** — the byte-identity artifact. Sequence
//!   numbers are assigned by position, the wall-clock sidecar is stripped,
//!   and only deterministic-plane metrics are appended, so the bytes are
//!   identical across `PWU_THREADS` widths and deal orders.
//! - **Full JSONL** — everything: sidecar `wall_ns` fields when armed and
//!   both metric planes. This is what `--trace <path>` writes.
//! - **Chrome trace-event JSON** — loadable in Perfetto / `chrome://tracing`;
//!   timestamps come from the sidecar when present, else sequence numbers.
//!
//! The module also parses its own JSONL back ([`summarize`]) into a
//! per-span cost/latency table used by the `pwu-trace` CLI (`summarize`,
//! `diff`, `top`).

use crate::registry::{Metric, MetricValue, Plane};
use crate::tracer::{Arg, Event, Phase};

/// A drained event log plus a metrics snapshot, ready to export.
#[derive(Debug)]
pub struct Trace {
    events: Vec<Event>,
    metrics: Vec<Metric>,
}

/// Serializes a string as a JSON string literal (with quotes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes an `f64` deterministically: shortest round-trip decimal for
/// finite values (identical for identical bit patterns), `null` otherwise.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_arg(a: &Arg) -> String {
    match a {
        Arg::U64(v) => format!("{v}"),
        Arg::F64(v) => json_f64(*v),
        Arg::Str(s) => json_str(s),
    }
}

fn args_object(args: &[(&'static str, Arg)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(&json_arg(v));
    }
    out.push('}');
    out
}

fn metric_value(v: MetricValue) -> String {
    match v {
        MetricValue::Count(c) => format!("{c}"),
        MetricValue::Value(f) => json_f64(f),
    }
}

impl Trace {
    pub(crate) fn new(events: Vec<Event>, metrics: Vec<Metric>) -> Self {
        Trace { events, metrics }
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn jsonl(&self, deterministic: bool) -> String {
        let plane = if deterministic {
            "deterministic"
        } else {
            "full"
        };
        let mut out = format!("{{\"schema\":\"pwu-trace-v1\",\"plane\":\"{plane}\"}}\n");
        for (seq, ev) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "{{\"seq\":{seq},\"ph\":\"{}\",\"name\":{}",
                ev.ph.letter(),
                json_str(ev.name)
            ));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":");
                out.push_str(&args_object(&ev.args));
            }
            if !deterministic {
                if let Some(ns) = ev.wall_ns {
                    out.push_str(&format!(",\"wall_ns\":{ns}"));
                }
            }
            out.push_str("}\n");
        }
        for m in &self.metrics {
            if deterministic && m.plane != Plane::Deterministic {
                continue;
            }
            out.push_str(&format!(
                "{{\"metric\":{},\"plane\":\"{}\",\"value\":{}}}\n",
                json_str(m.name),
                m.plane.token(),
                metric_value(m.value)
            ));
        }
        out
    }

    /// The byte-identity export: sidecar stripped, deterministic-plane
    /// metrics only. This is what the determinism gate compares.
    #[must_use]
    pub fn deterministic_jsonl(&self) -> String {
        self.jsonl(true)
    }

    /// The complete export: sidecar timings (when armed) and both metric
    /// planes.
    #[must_use]
    pub fn full_jsonl(&self) -> String {
        self.jsonl(false)
    }

    /// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
    /// Timestamps are sidecar microseconds when present, else sequence
    /// numbers (one "microsecond" per event).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (seq, ev) in self.events.iter().enumerate() {
            if seq > 0 {
                out.push_str(",\n");
            }
            let ts = ev
                .wall_ns
                .map_or_else(|| format!("{seq}"), |ns| format!("{}", ns / 1000));
            let ph = match ev.ph {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"{ph}\",\"pid\":0,\"tid\":0,\"ts\":{ts}",
                json_str(ev.name)
            ));
            if ev.ph == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":");
                out.push_str(&args_object(&ev.args));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Parsing our own JSONL back (for the pwu-trace CLI).
// ---------------------------------------------------------------------------

/// Extracts the string value of `"key":"..."` from a flat JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Our own identifiers never contain escapes; stop at the first quote.
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts a numeric value of `"key":123` / `"key":1.5` from a JSON line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Aggregate statistics for one span/event name in a parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Event name.
    pub name: String,
    /// Number of occurrences (span opens plus instants).
    pub count: u64,
    /// Sum of the `cost` argument over all occurrences (cost-units).
    pub cost_total: f64,
    /// Total enclosed events across all spans of this name (sequence-number
    /// extent) — the deterministic "how much happened inside" measure.
    pub seq_extent: u64,
    /// Total sidecar wall time, nanoseconds (0 when the trace carries no
    /// sidecar).
    pub wall_total_ns: u64,
}

/// A parsed per-name summary of one trace file.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-name statistics, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Metric lines carried in the trace: `(name, plane, value-as-text)`.
    pub metrics: Vec<(String, String, String)>,
    /// Total number of events in the trace.
    pub events: u64,
}

impl Summary {
    /// Looks up a span stat by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Parses a `pwu-trace-v1` JSONL export (either plane) into per-name
/// aggregates. Returns `None` when the text is not a pwu trace.
#[must_use]
pub fn summarize(text: &str) -> Option<Summary> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if !header.contains("\"schema\":\"pwu-trace-v1\"") {
        return None;
    }
    let mut stats: std::collections::BTreeMap<String, SpanStat> = std::collections::BTreeMap::new();
    let mut open: Vec<(String, u64, Option<u64>)> = Vec::new();
    let mut metrics = Vec::new();
    let mut events = 0u64;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(name) = field_str(line, "metric") {
            let plane = field_str(line, "plane").unwrap_or("?").to_string();
            let value = line.rsplit_once("\"value\":").map_or_else(
                || "?".to_string(),
                |(_, v)| v.trim_end_matches('}').to_string(),
            );
            metrics.push((name.to_string(), plane, value));
            continue;
        }
        let (Some(ph), Some(name)) = (field_str(line, "ph"), field_str(line, "name")) else {
            continue;
        };
        events += 1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seq = field_num(line, "seq").unwrap_or(0.0) as u64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let wall = field_num(line, "wall_ns").map(|v| v as u64);
        let entry = stats.entry(name.to_string()).or_insert_with(|| SpanStat {
            name: name.to_string(),
            count: 0,
            cost_total: 0.0,
            seq_extent: 0,
            wall_total_ns: 0,
        });
        match ph {
            "B" | "I" => {
                entry.count += 1;
                if let Some(cost) = field_num(line, "cost") {
                    entry.cost_total += cost;
                }
                if ph == "B" {
                    open.push((name.to_string(), seq, wall));
                }
            }
            "E" => {
                // Match the innermost open span with this name.
                if let Some(pos) = open.iter().rposition(|(n, _, _)| n == name) {
                    let (_, begin_seq, begin_wall) = open.remove(pos);
                    entry.seq_extent += seq.saturating_sub(begin_seq);
                    if let (Some(b), Some(e)) = (begin_wall, wall) {
                        entry.wall_total_ns += e.saturating_sub(b);
                    }
                }
            }
            _ => {}
        }
    }
    Some(Summary {
        spans: stats.into_values().collect(),
        metrics,
        events,
    })
}

/// The outcome of comparing two trace summaries.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Human-readable per-span comparison table.
    pub text: String,
    /// True when any span's cost or wall time grew beyond the threshold.
    pub regressed: bool,
}

fn ratio_flag(base: f64, new: f64, threshold: f64) -> (f64, bool) {
    if base <= 0.0 {
        return (1.0, false);
    }
    let r = new / base;
    (r, r > 1.0 + threshold)
}

/// Compares two summaries (`base` vs `new`); a span regresses when its
/// cost total or wall total grows by more than `threshold` (fractional,
/// e.g. `0.10` = 10%).
#[must_use]
pub fn diff_summaries(base: &Summary, new: &Summary, threshold: f64) -> DiffReport {
    let mut text = format!(
        "{:<28} {:>10} {:>10} {:>12} {:>12} {:>8}\n",
        "span", "count A", "count B", "cost A", "cost B", "ratio"
    );
    let mut regressed = false;
    let mut names: Vec<&str> = base
        .spans
        .iter()
        .chain(new.spans.iter())
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let zero = SpanStat {
            name: name.to_string(),
            count: 0,
            cost_total: 0.0,
            seq_extent: 0,
            wall_total_ns: 0,
        };
        let a = base.get(name).unwrap_or(&zero);
        let b = new.get(name).unwrap_or(&zero);
        let (cost_ratio, cost_bad) = ratio_flag(a.cost_total, b.cost_total, threshold);
        #[allow(clippy::cast_precision_loss)]
        let (wall_ratio, wall_bad) =
            ratio_flag(a.wall_total_ns as f64, b.wall_total_ns as f64, threshold);
        let bad = cost_bad || wall_bad;
        regressed |= bad;
        let shown_ratio = if a.wall_total_ns > 0 {
            wall_ratio
        } else {
            cost_ratio
        };
        text.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>12.3} {:>12.3} {:>7.2}x{}\n",
            name,
            a.count,
            b.count,
            a.cost_total,
            b.cost_total,
            shown_ratio,
            if bad { "  <-- REGRESSED" } else { "" }
        ));
    }
    DiffReport { text, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_back_header_events_and_metrics() {
        let text = concat!(
            "{\"schema\":\"pwu-trace-v1\",\"plane\":\"full\"}\n",
            "{\"seq\":0,\"ph\":\"B\",\"name\":\"stage\",\"args\":{\"cost\":2.5},\"wall_ns\":100}\n",
            "{\"seq\":1,\"ph\":\"I\",\"name\":\"mark\"}\n",
            "{\"seq\":2,\"ph\":\"E\",\"name\":\"stage\",\"wall_ns\":350}\n",
            "{\"metric\":\"m.count\",\"plane\":\"deterministic\",\"value\":9}\n",
        );
        let s = summarize(text).expect("must parse");
        assert_eq!(s.events, 3);
        let stage = s.get("stage").unwrap();
        assert_eq!(stage.count, 1);
        assert!((stage.cost_total - 2.5).abs() < 1e-12);
        assert_eq!(stage.seq_extent, 2);
        assert_eq!(stage.wall_total_ns, 250);
        assert_eq!(
            s.metrics,
            vec![(
                "m.count".to_string(),
                "deterministic".to_string(),
                "9".to_string()
            )]
        );
        assert!(summarize("not a trace\n").is_none());
    }
}
