//! `pwu-obs` — two-plane observability for the tuning stack.
//!
//! The crate gives every layer of the workspace (core loop, forest,
//! measurement, thread pool, service) one shared instrumentation surface
//! with two strictly separated planes:
//!
//! - **Deterministic plane.** Structured span/instant events keyed by
//!   monotonic sequence numbers and cost-units, plus registry counters
//!   whose totals are schedule-invariant. A deterministic trace export is
//!   *itself* part of the bit-identity contract (DESIGN.md §11/§13): the
//!   bytes are identical across `PWU_THREADS` widths and deal orders, and
//!   enabling tracing never changes any tuning result.
//! - **Timing sidecar.** Opt-in wall-clock capture, always compiled and
//!   dormant until armed by [`set_wallclock`]. Captured nanoseconds are
//!   write-only: they ride on events into the full/Chrome exports and are
//!   excluded from the deterministic export, the registry, and every
//!   persisted artifact.
//!
//! Events recorded on pool worker threads land in per-item branch buffers
//! (forked by the rayon shim via [`fork_run`]) and are spliced back into
//! the parent context in input-index order ([`splice`]), so the final
//! linear event sequence — and therefore the sequence numbers assigned at
//! export — is independent of scheduling. Width 1 is the sequential path
//! and produces the identical order by construction.
//!
//! Tracing is off by default behind one atomic flag; a disabled span or
//! event costs a single relaxed load. Registry counters are always live
//! (plain commutative `u64` adds) and are snapshotted into every export.

mod export;
mod registry;
mod tracer;

pub use export::{diff_summaries, summarize, SpanStat, Summary, Trace};
pub use registry::{
    counter, counter_diag, gauge, reset_metrics, snapshot, Counter, Gauge, Metric, MetricValue,
    Plane,
};
pub use tracer::{
    clear, disable, drain, enable, event, fork_run, is_enabled, set_wallclock, span, splice, Arg,
    BranchEvents, Span,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global tracer/registry state.
    pub(crate) fn obs_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = obs_guard();
        clear();
        reset_metrics();
        disable();
        {
            let _s = span("quiet.span", [("n", Arg::u(3))]);
            event("quiet.event", []);
        }
        let trace = drain();
        assert!(trace.is_empty(), "disabled tracer must stay silent");
    }

    #[test]
    fn spans_nest_and_export_deterministically() {
        let _g = obs_guard();
        clear();
        reset_metrics();
        enable();
        {
            let _outer = span("outer", [("iter", Arg::u(1))]);
            event("point", [("cost", Arg::f(1.5)), ("tag", Arg::s("mm"))]);
            {
                let _inner = span("inner", []);
            }
        }
        disable();
        let trace = drain();
        let text = trace.deterministic_jsonl();
        // Other tests in this binary may have registered metrics; only the
        // header and event lines are under test here.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"metric\":"))
            .collect();
        assert_eq!(lines.len(), 6, "header + 5 events: {text}");
        assert!(lines[0].contains("\"schema\":\"pwu-trace-v1\""));
        assert!(lines[1].contains("\"seq\":0") && lines[1].contains("\"ph\":\"B\""));
        assert!(lines[2].contains("\"cost\":1.5") && lines[2].contains("\"tag\":\"mm\""));
        assert!(lines[4].contains("\"ph\":\"E\"") && lines[4].contains("\"inner\""));
        assert!(lines[5].contains("\"ph\":\"E\"") && lines[5].contains("\"outer\""));
        // The deterministic export never carries wall-clock fields.
        assert!(!text.contains("wall_ns"));
    }

    #[test]
    fn fork_splice_reproduces_the_sequential_order() {
        let _g = obs_guard();
        clear();
        enable();
        // Sequential reference: three items recorded inline.
        for i in 0..3u64 {
            event("item", [("i", Arg::u(i))]);
        }
        disable();
        let sequential = drain().deterministic_jsonl();

        clear();
        enable();
        // Forked: record each item into a branch (out of order), splice in
        // index order — the export must match the sequential bytes.
        let mut branches: Vec<(usize, BranchEvents)> = [2u64, 0, 1]
            .iter()
            .map(|&i| {
                let ((), b) = fork_run(|| event("item", [("i", Arg::u(i))]));
                (usize::try_from(i).unwrap(), b)
            })
            .collect();
        branches.sort_by_key(|(i, _)| *i);
        splice(branches.into_iter().map(|(_, b)| b));
        disable();
        let forked = drain().deterministic_jsonl();
        assert_eq!(sequential, forked, "splice order must equal inline order");
    }

    #[test]
    fn registry_counters_split_planes() {
        let _g = obs_guard();
        clear();
        reset_metrics();
        let det = counter("test.det");
        let diag = counter_diag("test.diag");
        det.add(4);
        diag.add(7);
        let g = gauge("test.gauge");
        g.set(2.5);
        enable();
        disable();
        let trace = drain();
        let det_text = trace.deterministic_jsonl();
        assert!(det_text.contains("\"metric\":\"test.det\"") && det_text.contains(":4"));
        assert!(det_text.contains("\"metric\":\"test.gauge\""));
        assert!(
            !det_text.contains("test.diag"),
            "diagnostic metrics must stay out of the deterministic export"
        );
        let full_text = trace.full_jsonl();
        assert!(full_text.contains("test.diag") && full_text.contains(":7"));
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let _g = obs_guard();
        clear();
        reset_metrics();
        enable();
        {
            let _s = span("stage", [("n", Arg::u(2))]);
            event("mark", []);
        }
        disable();
        let chrome = drain().chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""), "instants map to ph:i: {chrome}");
        assert!(chrome.trim_end().ends_with("]}"));
    }

    #[test]
    fn summarize_pairs_spans_and_diff_flags_regressions() {
        let _g = obs_guard();
        clear();
        reset_metrics();
        enable();
        for i in 0..3u64 {
            let _s = span("work", [("cost", Arg::f(2.0 + i as f64))]);
            event("tick", []);
        }
        disable();
        let text = drain().full_jsonl();
        let summary = summarize(&text).expect("own export must parse");
        let work = summary.spans.iter().find(|s| s.name == "work").unwrap();
        assert_eq!(work.count, 3);
        assert!((work.cost_total - 9.0).abs() < 1e-12, "cost {}", work.cost_total);
        let tick = summary.spans.iter().find(|s| s.name == "tick").unwrap();
        assert_eq!(tick.count, 3);

        // A doubled-cost run must be flagged by the diff.
        let mut slower = summary.clone();
        for s in &mut slower.spans {
            s.cost_total *= 2.0;
        }
        let report = diff_summaries(&summary, &slower, 0.10);
        assert!(report.regressed, "2x cost must regress: {}", report.text);
        let report = diff_summaries(&summary, &summary.clone(), 0.10);
        assert!(!report.regressed, "identical runs must not regress");
    }

    /// The sidecar is write-only when armed, and dormant until armed: the
    /// process default (`None`: `set_wallclock` never called, so this case
    /// must run first) and a disarmed flag read no clock, and the Chrome
    /// export falls back to sequence-number timestamps.
    #[test]
    fn wallclock_sidecar_is_write_only() {
        let _g = obs_guard();
        for arm in [None, Some(false), Some(true)] {
            clear();
            reset_metrics();
            if let Some(on) = arm {
                set_wallclock(on);
            }
            enable();
            {
                let _s = span("timed", []);
                event("tick", []);
            }
            disable();
            set_wallclock(false);
            let trace = drain();
            assert!(
                !trace.deterministic_jsonl().contains("wall_ns"),
                "deterministic export must strip the sidecar"
            );
            let armed = arm == Some(true);
            assert_eq!(
                trace.full_jsonl().contains("wall_ns"),
                armed,
                "full export must carry sidecar timings exactly when armed ({arm:?})"
            );
            if !armed {
                let chrome = trace.chrome_json();
                let ts: Vec<&str> = chrome
                    .split("\"ts\":")
                    .skip(1)
                    .filter_map(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                    .collect();
                assert_eq!(ts, ["0", "1", "2"], "unarmed ts must be sequence numbers");
            }
        }
    }
}
