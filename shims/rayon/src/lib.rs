//! Offline stand-in for `rayon`: a real `std::thread`-based chunked work
//! pool behind the parallel-iterator entry points this workspace uses.
//!
//! `par_iter`/`into_par_iter` return a [`ParIter`] whose `map(...).collect()`
//! chain fans the mapped items out over scoped worker threads and reduces the
//! results **in input order**, so the collected output is identical for any
//! thread count — bit-for-bit, because each item is mapped by a pure closure
//! and the reduction never reorders or re-associates anything.
//!
//! Determinism contract:
//!
//! - **Ordered reduction.** Every item keeps its input index; workers return
//!   `(index, result)` pairs and the results are scattered back into an
//!   index-addressed output vector. Scheduling can interleave arbitrarily
//!   without affecting what ends up where.
//! - **One thread is the sequential path.** With an effective thread count
//!   of 1 (or a single item) the pool is bypassed entirely and the items are
//!   mapped by a plain sequential `Iterator` chain on the calling thread —
//!   the exact pre-thread-pool code path.
//! - **No nested pools.** A `map`/`collect` issued from inside a worker
//!   (e.g. a forest fit inside a parallel experiment repetition) runs
//!   sequentially on that worker; the outermost parallel level already owns
//!   the cores, so nesting would only oversubscribe them.
//!
//! The pool width comes from the `PWU_THREADS` environment variable, read
//! once; unset, it falls back to [`std::thread::available_parallelism`]
//! (at most [`MAX_THREADS`]).
//! Every value gives a defined width: the value is trimmed and read as a
//! decimal integer; `0`, a negative number and anything unparsable give
//! width 1, and a number above [`MAX_THREADS`] gives [`MAX_THREADS`], so no
//! batch asks the OS for more than that many threads. `PWU_THREADS=1`
//! forces the sequential path. [`set_threads`] overrides the width at
//! runtime for thread-count-invariance tests, within the same bounds.
//!
//! The pool also exposes the [`sanitize`] hooks used by the `pwu-audit`
//! schedule-perturbation harness: per-batch access-footprint capture (which
//! worker was dealt which item indices, and the order results were
//! scattered back) and perturbed deal orders ([`sanitize::DealMode`]). The
//! hooks are always compiled and dormant until armed at run time: the
//! default deal mode is the production round-robin and capture is off.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Global pool width; 0 means "not yet initialized from the environment".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The widest pool `PWU_THREADS` or [`set_threads`] can ask for: a batch
/// spawns one scoped thread per worker, and a refused spawn panics. Eight
/// times the widest width any test or gate uses (8).
pub const MAX_THREADS: usize = 64;

std::thread_local! {
    /// True on pool worker threads, where nested parallelism must degrade
    /// to sequential execution instead of spawning a second tier of threads.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Reads `PWU_THREADS`, falling back to the machine's available parallelism.
fn threads_from_env() -> usize {
    match std::env::var("PWU_THREADS") {
        Ok(v) => threads_from_str(&v),
        Err(_) => std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(MAX_THREADS),
    }
}

/// The pool width a `PWU_THREADS` value asks for: `0` and anything that is
/// not a decimal integer give 1 (sequential, the safe floor); a number
/// above [`MAX_THREADS`], however large, gives [`MAX_THREADS`].
fn threads_from_str(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) => n.clamp(1, MAX_THREADS),
        Err(e) if *e.kind() == std::num::IntErrorKind::PosOverflow => MAX_THREADS,
        Err(_) => 1,
    }
}

/// The number of worker threads `map(...).collect()` chains may use.
#[must_use]
pub fn current_num_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = threads_from_env();
            // A racing initializer stores the same value; last write wins
            // harmlessly.
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the pool width at runtime (clamped to `1..=MAX_THREADS`).
///
/// Exists for the thread-count-invariance test suites, which compare runs at
/// several widths inside one process; `PWU_THREADS` is only read once, so an
/// environment round-trip cannot vary the width mid-process. Safe to call at
/// any time: results are deterministic at every width, so racing callers can
/// only affect scheduling, never output.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Concurrency-sanitizer hooks for the `pwu-audit` harness: schedule
/// perturbation and access-footprint capture, dormant until armed.
///
/// The pool's determinism claim is that scheduling can never move a
/// result. This module makes the claim *testable*: [`set_deal_mode`]
/// perturbs which worker receives which items (the only scheduling degree
/// of freedom the pool controls), and capture records each batch's exact
/// deal plus the order results were scattered back — so a harness can
/// prove both that outputs survived a genuinely different schedule and
/// that every item was produced exactly once.
pub mod sanitize {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// How a batch's item indices are dealt to workers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DealMode {
        /// Production order: index `i` goes to worker `i % width`.
        RoundRobin,
        /// Contiguous blocks: worker `w` gets one `ceil(n/width)` chunk.
        Blocked,
        /// Round-robin over the reversed index sequence.
        Reversed,
        /// Round-robin over a seeded Fisher–Yates permutation.
        Shuffled(u64),
    }

    /// One recorded `map(...).collect()` batch that ran on the pool.
    #[derive(Debug, Clone)]
    pub struct BatchRecord {
        /// Number of items in the batch.
        pub n_items: usize,
        /// Worker count actually used.
        pub width: usize,
        /// Per-worker item indices, in each worker's execution order.
        pub deal: Vec<Vec<usize>>,
        /// Item indices in the order their results were scattered into the
        /// output (worker join order) — the observed reduction order.
        pub fill_order: Vec<usize>,
    }

    static MODE: Mutex<DealMode> = Mutex::new(DealMode::RoundRobin);
    static CAPTURE: AtomicBool = AtomicBool::new(false);
    static LOG: Mutex<Vec<BatchRecord>> = Mutex::new(Vec::new());
    static NESTED_DEGRADES: AtomicU64 = AtomicU64::new(0);

    /// Sets the deal order for subsequent pool batches.
    pub fn set_deal_mode(mode: DealMode) {
        *MODE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = mode;
    }

    /// The deal order currently in force.
    #[must_use]
    pub fn deal_mode() -> DealMode {
        *MODE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Starts recording batch footprints (clears any previous log).
    pub fn start_capture() {
        LOG.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        CAPTURE.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns everything captured since
    /// [`start_capture`].
    #[must_use]
    pub fn take_captures() -> Vec<BatchRecord> {
        CAPTURE.store(false, Ordering::SeqCst);
        std::mem::take(
            &mut LOG
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Times a nested parallel call degraded to sequential on a worker
    /// since process start (diagnostic counter for the audit tests).
    #[must_use]
    pub fn nested_degrades() -> u64 {
        NESTED_DEGRADES.load(Ordering::Relaxed)
    }

    pub(crate) fn note_nested_degrade() {
        NESTED_DEGRADES.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn capturing() -> bool {
        CAPTURE.load(Ordering::SeqCst)
    }

    pub(crate) fn record(batch: BatchRecord) {
        LOG.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(batch);
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Deals `items` to `width` workers, each tagged with its input index
    /// for the ordered reduction. Round-robin (the production deal, so
    /// monotone per-item costs still balance) moves item `i` straight into
    /// bucket `i % width`; a perturbed mode plans its deal as `(bucket,
    /// index)` pairs in dealing order, then moves each item accordingly.
    pub(crate) fn deal<T>(items: Vec<T>, width: usize) -> Vec<Vec<(usize, T)>> {
        let n = items.len();
        let mut buckets: Vec<Vec<(usize, T)>> = (0..width)
            .map(|_| Vec::with_capacity(n.div_ceil(width)))
            .collect();
        let perturbed: Vec<(usize, usize)> = match deal_mode() {
            DealMode::RoundRobin => {
                for (i, item) in items.into_iter().enumerate() {
                    buckets[i % width].push((i, item));
                }
                return buckets;
            }
            DealMode::Blocked => {
                let chunk = n.div_ceil(width);
                (0..n).map(|i| (i / chunk, i)).collect()
            }
            DealMode::Reversed => (0..n)
                .rev()
                .enumerate()
                .map(|(k, i)| (k % width, i))
                .collect(),
            DealMode::Shuffled(seed) => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut state = seed;
                for i in (1..n).rev() {
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
                    .into_iter()
                    .enumerate()
                    .map(|(k, i)| (k % width, i))
                    .collect()
            }
        };
        let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
        for (bucket, i) in perturbed {
            buckets[bucket].push((i, slots[i].take().expect("each index dealt exactly once")));
        }
        buckets
    }
}

/// Maps `items` through `f` on the pool, returning results in input order.
///
/// Sequential when the effective width is 1, the batch is trivial, or the
/// caller is itself a pool worker (no nested pools).
fn map_collect_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    // Trace the batch identically on every path: the span and its args
    // record only the input size — never the width, deal order, or which
    // path ran — so the event stream cannot observe scheduling.
    let _batch_span = pwu_obs::span("pool.batch", [("items", pwu_obs::Arg::u(n as u64))]);
    let width = current_num_threads().min(n);
    if width <= 1 || IN_WORKER.with(std::cell::Cell::get) {
        if n > 1 && IN_WORKER.with(std::cell::Cell::get) {
            sanitize::note_nested_degrade();
        }
        // The exact sequential path: a plain iterator chain, no indexing,
        // no threads. Events record inline into the caller's context, in
        // item order — the reference order the parallel path must equal.
        return items.into_iter().map(f).collect();
    }
    // Worker-side tracing: fork one branch buffer per item so events from
    // any worker interleaving can be spliced back in input-index order.
    let tracing = pwu_obs::is_enabled();
    let capture = sanitize::capturing();
    let buckets = sanitize::deal(items, width);
    let deal: Vec<Vec<usize>> = if capture {
        buckets
            .iter()
            .map(|b| b.iter().map(|(i, _)| *i).collect())
            .collect()
    } else {
        Vec::new()
    };
    let mut fill_order: Vec<usize> = Vec::new();
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut branch_slots: Vec<Option<pwu_obs::BranchEvents>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    bucket
                        .into_iter()
                        .map(|(i, item)| {
                            if tracing {
                                let (u, events) = pwu_obs::fork_run(|| f(item));
                                (i, u, Some(events))
                            } else {
                                (i, f(item), None)
                            }
                        })
                        .collect::<Vec<(usize, U, Option<pwu_obs::BranchEvents>)>>()
                })
            })
            .collect();
        // Join every worker before re-raising any panic: unwinding out of
        // the scope with other panicked workers still unjoined would
        // double-panic and abort.
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, u, events) in pairs {
                        assert!(
                            slots[i].is_none(),
                            "sanitizer: item {i} produced twice — the reduction is not index-unique"
                        );
                        if capture {
                            fill_order.push(i);
                        }
                        slots[i] = Some(u);
                        branch_slots[i] = events;
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            // Re-raise with the original payload, as the sequential path
            // would have.
            std::panic::resume_unwind(payload);
        }
    });
    if tracing {
        // Splice per-item event branches back in input-index order: the
        // resulting linear event stream is exactly what the sequential
        // path records, whatever the deal order or join interleaving was.
        pwu_obs::splice(branch_slots.into_iter().flatten());
    }
    if capture {
        sanitize::record(sanitize::BatchRecord {
            n_items: n,
            width,
            deal,
            fill_order,
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is produced by exactly one worker"))
        .collect()
}

/// A batch of items awaiting a parallel `map(...).collect()`.
///
/// The batch is materialized eagerly (the workspace only ever parallelizes
/// index ranges, slices and small vectors, so this is cheap) because the
/// items must be dealt to worker threads by value.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Attaches the mapping closure; the work happens in `collect`.
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped batch; [`ParMap::collect`] runs it on the pool.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F> ParMap<T, F> {
    /// Maps every item on the pool and collects the results in input order.
    pub fn collect<C, U>(self) -> C
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
        C: FromIterator<U>,
    {
        map_collect_vec(self.items, self.f).into_iter().collect()
    }
}

/// Traits mirroring `rayon::prelude`.
pub mod prelude {
    use super::ParIter;

    /// Mirror of `rayon`'s by-value parallel iterator entry point.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;

        /// Converts `self` into a parallel iterator over the pool.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;

        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Mirror of `rayon`'s by-reference parallel iterator entry point.
    pub trait IntoParallelRefIterator<'data> {
        /// Element type (a reference with lifetime `'data`).
        type Item: Send + 'data;

        /// Iterates `&self` in parallel over the pool.
        fn par_iter(&'data self) -> ParIter<Self::Item>;
    }

    impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
        <&'data C as IntoIterator>::Item: Send + 'data,
    {
        type Item = <&'data C as IntoIterator>::Item;

        fn par_iter(&'data self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, set_threads, threads_from_str, MAX_THREADS};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that mutate the global pool width. Results are
    /// width-invariant, but assertions *about* the width would race.
    fn width_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The per-item branch fork/splice keeps the recorded event stream —
    /// and therefore the deterministic export bytes — identical at every
    /// pool width, including the width-1 sequential bypass.
    #[test]
    fn traces_are_byte_identical_across_widths() {
        let _guard = width_guard();
        let mut exports: Vec<String> = Vec::new();
        for width in [1, 2, 4, 8] {
            set_threads(width);
            pwu_obs::clear();
            pwu_obs::enable();
            let doubled: Vec<u64> = (0..33u64)
                .into_par_iter()
                .map(|i| {
                    pwu_obs::event("shim.item", [("i", pwu_obs::Arg::u(i))]);
                    i * 2
                })
                .collect();
            pwu_obs::disable();
            assert_eq!(doubled[32], 64);
            exports.push(pwu_obs::drain().deterministic_jsonl());
        }
        set_threads(1);
        assert!(
            exports[0].contains("shim.item") && exports[0].contains("pool.batch"),
            "trace must carry the batch span and item events"
        );
        for (k, export) in exports.iter().enumerate().skip(1) {
            assert_eq!(*export, exports[0], "trace bytes moved at width index {k}");
        }
    }

    #[test]
    fn ranges_and_slices_iterate() {
        let _guard = width_guard();
        let squares: Vec<u64> = (0u64..5).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);

        let rows = [vec![1.0, 2.0], vec![3.0]];
        let lens: Vec<usize> = rows.par_iter().map(Vec::len).collect();
        assert_eq!(lens, vec![2, 1]);

        let slice: &[i32] = &[5, 6, 7];
        let doubled: Vec<i32> = slice.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![10, 12, 14]);
    }

    #[test]
    fn output_order_is_input_order_at_every_width() {
        let _guard = width_guard();
        let expected: Vec<usize> = (0..257).map(|i| i * 3).collect();
        for width in [1, 2, 3, 8, 64] {
            set_threads(width);
            assert_eq!(current_num_threads(), width);
            let got: Vec<usize> = (0..257usize).into_par_iter().map(|i| i * 3).collect();
            assert_eq!(got, expected, "order broke at width {width}");
        }
        set_threads(1);
    }

    #[test]
    fn nested_calls_degrade_to_sequential_and_stay_correct() {
        let _guard = width_guard();
        set_threads(4);
        let table: Vec<Vec<usize>> = (0..6usize)
            .into_par_iter()
            .map(|i| {
                (0..5usize)
                    .into_par_iter()
                    .map(move |j| i * 10 + j)
                    .collect()
            })
            .collect();
        for (i, row) in table.iter().enumerate() {
            let expected: Vec<usize> = (0..5).map(|j| i * 10 + j).collect();
            assert_eq!(*row, expected);
        }
        set_threads(1);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let _guard = width_guard();
        set_threads(4);
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    assert!(i != 33, "boom at {i}");
                    i
                })
                .collect();
        });
        assert!(caught.is_err(), "the worker panic must surface");
        set_threads(1);
    }

    /// The join-all re-raise must surface the *original* panic payload, not
    /// a pool-internal wrapper — callers downcast payloads to decide what
    /// failed (the fault-tolerance suites do exactly this).
    #[test]
    fn panic_payload_is_preserved_verbatim() {
        let _guard = width_guard();
        set_threads(4);
        let payload = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    assert!(i != 33, "boom at {i}");
                    i
                })
                .collect();
        })
        .expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("payload must be the original assert message");
        assert!(
            message.contains("boom at 33"),
            "payload was rewritten: {message:?}"
        );
        set_threads(1);
    }

    /// With several panicking workers, every worker is still joined (no
    /// abort-on-double-panic) and one of the original payloads surfaces.
    #[test]
    fn multiple_worker_panics_join_all_and_surface_one_payload() {
        let _guard = width_guard();
        set_threads(4);
        let payload = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    assert!(i % 7 != 3, "boom at {i}");
                    i
                })
                .collect();
        })
        .expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("assert payload is a String");
        assert!(
            message.contains("boom at "),
            "unexpected payload {message:?}"
        );
        set_threads(1);
    }

    /// A panic raised inside a *nested* (worker-degraded-to-sequential)
    /// parallel call unwinds through the outer pool without deadlocking and
    /// keeps its payload.
    #[test]
    fn nested_panic_unwinds_without_deadlock() {
        let _guard = width_guard();
        set_threads(4);
        let payload = std::panic::catch_unwind(|| {
            let _: Vec<Vec<usize>> = (0..8usize)
                .into_par_iter()
                .map(|i| {
                    (0..8usize)
                        .into_par_iter()
                        .map(move |j| {
                            assert!((i, j) != (5, 2), "inner boom at {i},{j}");
                            i * 10 + j
                        })
                        .collect()
                })
                .collect();
        })
        .expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("assert payload is a String");
        assert!(message.contains("inner boom at 5,2"), "payload {message:?}");
        set_threads(1);
    }

    /// Three levels of nesting stay correct: only the outermost level may
    /// own pool workers, everything below runs sequentially on them.
    #[test]
    fn triple_nested_calls_stay_sequential_and_correct() {
        let _guard = width_guard();
        set_threads(8);
        let cube: Vec<Vec<Vec<usize>>> = (0..4usize)
            .into_par_iter()
            .map(|i| {
                (0..3usize)
                    .into_par_iter()
                    .map(move |j| {
                        (0..2usize)
                            .into_par_iter()
                            .map(move |k| i * 100 + j * 10 + k)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for (i, plane) in cube.iter().enumerate() {
            for (j, row) in plane.iter().enumerate() {
                for (k, v) in row.iter().enumerate() {
                    assert_eq!(*v, i * 100 + j * 10 + k);
                }
            }
        }
        set_threads(1);
    }

    mod sanitize_hooks {
        use super::super::sanitize::{self, DealMode};
        use super::super::set_threads;
        use super::width_guard;
        use crate::prelude::*;

        /// Every deal mode yields the same collected output, the captured
        /// footprints prove the deals actually differed, and each records
        /// every index exactly once.
        #[test]
        fn deal_modes_perturb_the_schedule_but_never_the_result() {
            let _guard = width_guard();
            set_threads(4);
            let expected: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
            let mut seen_deals: Vec<Vec<Vec<usize>>> = Vec::new();
            for mode in [
                DealMode::RoundRobin,
                DealMode::Blocked,
                DealMode::Reversed,
                DealMode::Shuffled(0xFEED),
            ] {
                sanitize::set_deal_mode(mode);
                sanitize::start_capture();
                let got: Vec<u64> = (0..97u64).into_par_iter().map(|i| i * i + 1).collect();
                let captures = sanitize::take_captures();
                assert_eq!(got, expected, "result moved under {mode:?}");
                // Other tests in this binary may run unguarded batches while
                // capture is on; ours is the only 97-item one.
                let ours: Vec<_> = captures.iter().filter(|b| b.n_items == 97).collect();
                assert_eq!(ours.len(), 1, "one 97-item batch expected under {mode:?}");
                let batch = ours[0];
                assert_eq!(batch.width, 4);
                let mut all: Vec<usize> = batch.deal.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..97).collect::<Vec<_>>(),
                    "deal must cover each index once"
                );
                let mut filled = batch.fill_order.clone();
                filled.sort_unstable();
                assert_eq!(
                    filled,
                    (0..97).collect::<Vec<_>>(),
                    "every index reduced exactly once"
                );
                seen_deals.push(batch.deal.clone());
            }
            sanitize::set_deal_mode(DealMode::RoundRobin);
            set_threads(1);
            // The perturbations must be real: at least the reversed and
            // shuffled deals differ from round-robin.
            assert!(
                seen_deals[1..].iter().any(|d| *d != seen_deals[0]),
                "no deal mode actually changed the schedule"
            );
        }

        /// Nested calls on workers are visible to the sanitizer as degrade
        /// events — the instrumented proof that no second thread tier runs.
        #[test]
        fn nested_degrades_are_counted() {
            let _guard = width_guard();
            set_threads(4);
            let before = sanitize::nested_degrades();
            let _: Vec<Vec<usize>> = (0..6usize)
                .into_par_iter()
                .map(|i| (0..5usize).into_par_iter().map(move |j| i + j).collect())
                .collect();
            let after = sanitize::nested_degrades();
            assert!(
                after >= before + 6,
                "each inner batch on a worker must count as a degrade ({before} -> {after})"
            );
            set_threads(1);
        }
    }

    /// Every `PWU_THREADS` value gives a width in `1..=MAX_THREADS`. Only
    /// the parse runs: no batch is ever run at a huge width.
    #[test]
    fn every_pwu_threads_value_has_a_defined_width() {
        for (value, width) in [
            ("0", 1),
            ("", 1),
            ("abc", 1),
            ("-1", 1),
            ("2.5", 1),
            ("+3", 3),
            (" 3 ", 3),
            ("8", 8),
            ("65", MAX_THREADS),
            // One past u64::MAX.
            ("18446744073709551616", MAX_THREADS),
        ] {
            assert_eq!(threads_from_str(value), width, "PWU_THREADS={value:?}");
        }
        let _guard = width_guard();
        set_threads(usize::MAX);
        assert_eq!(current_num_threads(), MAX_THREADS);
        set_threads(0);
        assert_eq!(current_num_threads(), 1);
    }

    #[test]
    fn empty_and_single_item_batches_work() {
        let _guard = width_guard();
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|b| b + 1).collect();
        assert!(none.is_empty());
        let one: Vec<u8> = vec![41u8].into_par_iter().map(|b| b + 1).collect();
        assert_eq!(one, vec![42]);
    }
}
