//! The structured-event tracer: global enable flag, per-thread branch
//! buffers, span guards, and the fork/splice protocol the thread pool uses
//! to keep traces schedule-invariant.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::export::Trace;
use crate::registry;

/// One structured argument value on an event.
///
/// Only values that are themselves bit-deterministic may go on the
/// deterministic plane: counts, indices, cost-units, identifiers. Wall
/// times never travel as args — they ride the sidecar field instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer (counts, indices, sizes).
    U64(u64),
    /// Float (cost-units, scores); serialized via shortest round-trip
    /// formatting, which is deterministic for any given bit pattern.
    F64(f64),
    /// Short identifier (kernel name, session id, strategy).
    Str(String),
}

impl Arg {
    /// Unsigned-integer argument.
    #[must_use]
    pub fn u(v: u64) -> Self {
        Arg::U64(v)
    }

    /// Float argument (cost-units and other deterministic f64s).
    #[must_use]
    pub fn f(v: f64) -> Self {
        Arg::F64(v)
    }

    /// String argument.
    #[must_use]
    pub fn s(v: impl Into<String>) -> Self {
        Arg::Str(v.into())
    }
}

/// Event phase, mirroring the Chrome trace-event phases we export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Span begin.
    Begin,
    /// Span end.
    End,
    /// Point-in-time event.
    Instant,
}

impl Phase {
    pub(crate) fn letter(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
        }
    }
}

/// One recorded event. Sequence numbers are *not* stored here — they are
/// assigned by position when a [`Trace`] is exported, after all branch
/// buffers have been spliced into one deterministic linear order.
#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub(crate) ph: Phase,
    pub(crate) name: &'static str,
    pub(crate) args: Vec<(&'static str, Arg)>,
    /// Sidecar timestamp (nanoseconds since the process anchor). `None`
    /// unless the sidecar is armed. Excluded from the deterministic export.
    pub(crate) wall_ns: Option<u64>,
}

/// Master switch: a disabled tracer records nothing and costs one relaxed
/// atomic load per instrumentation site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arm switch for the timing sidecar; off by default.
static WALLCLOCK: AtomicBool = AtomicBool::new(false);

/// Events recorded outside any branch (the main/caller thread).
static ROOT: Mutex<Vec<Event>> = Mutex::new(Vec::new());

std::thread_local! {
    /// Stack of branch buffers installed on this thread by [`fork_run`].
    /// While non-empty, events go to the top buffer instead of [`ROOT`].
    static BRANCHES: RefCell<Vec<Vec<Event>>> = const { RefCell::new(Vec::new()) };
}

/// Turns event recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns event recording off (already-recorded events stay buffered until
/// [`drain`] or [`clear`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the tracer is currently recording.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms or disarms the wall-clock sidecar. It starts disarmed, and while
/// disarmed no event reads a clock.
pub fn set_wallclock(on: bool) {
    WALLCLOCK.store(on, Ordering::SeqCst);
}

/// Sidecar timestamp for the event being recorded, if the sidecar is
/// armed. This is the only function in the crate that can touch a clock,
/// and its output is write-only: it lands on the event's `wall_ns` field
/// and nowhere else.
fn wall_now() -> Option<u64> {
    use std::sync::OnceLock;
    use std::time::Instant;
    if !WALLCLOCK.load(Ordering::Relaxed) {
        return None;
    }
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    Some(u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Appends an event to the current context: the innermost installed
/// branch buffer on this thread, or the global root otherwise.
fn record(ev: Event) {
    let overflow = BRANCHES.with(|b| {
        let mut stack = b.borrow_mut();
        match stack.last_mut() {
            Some(top) => {
                top.push(ev);
                None
            }
            None => Some(ev),
        }
    });
    if let Some(ev) = overflow {
        ROOT.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ev);
    }
}

/// Records an instant (point-in-time) event with the given args.
///
/// No-op while the tracer is disabled. Args must be deterministic values
/// (see [`Arg`]); never record thread ids, widths, deal orders, clock
/// readings, or addresses.
pub fn event<const N: usize>(name: &'static str, args: [(&'static str, Arg); N]) {
    if !is_enabled() {
        return;
    }
    record(Event {
        ph: Phase::Instant,
        name,
        args: args.into_iter().collect(),
        wall_ns: wall_now(),
    });
}

/// An active span: records `Begin` on creation (via [`span`]) and `End`
/// when dropped, so early returns and unwinding still close it.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    active: bool,
}

/// Opens a span. While the tracer is disabled the returned guard is inert.
pub fn span<const N: usize>(name: &'static str, args: [(&'static str, Arg); N]) -> Span {
    if !is_enabled() {
        return Span {
            name,
            active: false,
        };
    }
    record(Event {
        ph: Phase::Begin,
        name,
        args: args.into_iter().collect(),
        wall_ns: wall_now(),
    });
    Span { name, active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            record(Event {
                ph: Phase::End,
                name: self.name,
                args: Vec::new(),
                wall_ns: wall_now(),
            });
        }
    }
}

/// Events recorded by one forked unit of work, awaiting [`splice`].
/// Opaque: the only thing a holder can do is put it back in order.
#[derive(Debug)]
pub struct BranchEvents(Vec<Event>);

/// Runs `f` with a fresh branch buffer installed on this thread and
/// returns its result together with everything it recorded.
///
/// This is the worker half of the schedule-invariance protocol: the
/// thread pool forks one branch per item, and nested (degraded) batches
/// inside `f` record into the same branch in their natural sequential
/// order. If `f` panics the buffer is discarded and the panic propagates.
pub fn fork_run<T>(f: impl FnOnce() -> T) -> (T, BranchEvents) {
    struct PopOnUnwind;
    impl Drop for PopOnUnwind {
        fn drop(&mut self) {
            BRANCHES.with(|b| {
                b.borrow_mut().pop();
            });
        }
    }
    BRANCHES.with(|b| b.borrow_mut().push(Vec::new()));
    let guard = PopOnUnwind;
    let out = f();
    std::mem::forget(guard);
    let events = BRANCHES.with(|b| {
        b.borrow_mut()
            .pop()
            .expect("fork_run installed a branch buffer")
    });
    (out, BranchEvents(events))
}

/// Splices branch buffers back into the current context, in the order
/// given. The caller (the thread pool) passes branches in input-index
/// order, which makes the final linear event sequence identical to the
/// sequential path regardless of which worker ran which item.
pub fn splice(branches: impl IntoIterator<Item = BranchEvents>) {
    let mut all: Vec<Event> = branches.into_iter().flat_map(|b| b.0).collect();
    if all.is_empty() {
        return;
    }
    let overflow = BRANCHES.with(|b| {
        let mut stack = b.borrow_mut();
        match stack.last_mut() {
            Some(top) => {
                top.append(&mut all);
                false
            }
            None => true,
        }
    });
    if overflow {
        ROOT.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut all);
    }
}

/// Takes every buffered root event plus a metrics snapshot as a [`Trace`].
///
/// Call from a quiesced point (no pool batches in flight); events still
/// sitting in un-spliced branches are not included.
#[must_use]
pub fn drain() -> Trace {
    let events = std::mem::take(&mut *ROOT.lock().unwrap_or_else(PoisonError::into_inner));
    Trace::new(events, registry::snapshot())
}

/// Discards all buffered root events without exporting them.
pub fn clear() {
    ROOT.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}
