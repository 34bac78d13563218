//! The schedule-perturbation gate: the workspace's parallel workhorses must
//! produce byte-identical results under every pool width (1/2/4/8) and every
//! perturbed deal order the sanitizer can impose — including the exact
//! checkpoint file bytes a session would resume from. A final footprint test
//! proves the perturbations were real (the deals actually differed) and that
//! the pool's reduction stayed index-unique, so the byte-identity tests are
//! not vacuously passing on an unperturbed schedule.

use std::path::PathBuf;
use std::sync::Mutex;

use pwu_audit::harness::{self, run_under, schedule_grid, Schedule};
use rayon::sanitize::{self, DealMode};

/// Pool width and deal mode are process-global; every test in this binary
/// serializes on this lock (`into_inner`: an earlier failed test must not
/// poison the rest of the gate).
static SCHEDULE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SCHEDULE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn reference<T>(f: impl FnOnce() -> T) -> T {
    run_under(
        Schedule {
            width: 1,
            deal: DealMode::RoundRobin,
        },
        f,
    )
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwu-audit-perturb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn forest_fit_is_byte_identical_across_the_schedule_grid() {
    let _guard = lock();
    let want = reference(|| harness::forest_fit_bytes(42));
    assert!(!want.is_empty(), "the reference image must be non-empty");
    for schedule in schedule_grid() {
        let got = run_under(schedule, || harness::forest_fit_bytes(42));
        assert_eq!(got, want, "forest fit diverged under {schedule:?}");
    }
}

#[test]
fn checkpointed_cell_is_byte_identical_across_the_schedule_grid() {
    let _guard = lock();
    let ref_dir = temp_store("ref");
    let (want_ckpt, want_traj) = reference(|| harness::checkpointed_cell_bytes(7, &ref_dir));
    assert!(
        !want_ckpt.is_empty(),
        "the slot files must have been written"
    );
    assert!(
        !want_traj.is_empty(),
        "the trajectory image must be non-empty"
    );
    for (i, schedule) in schedule_grid().into_iter().enumerate() {
        let dir = temp_store(&i.to_string());
        let (ckpt, traj) = run_under(schedule, || harness::checkpointed_cell_bytes(7, &dir));
        assert_eq!(
            ckpt, want_ckpt,
            "slot file bytes diverged under {schedule:?}"
        );
        assert_eq!(traj, want_traj, "trajectory diverged under {schedule:?}");
    }
}

#[test]
fn experiment_cell_is_byte_identical_across_the_schedule_grid() {
    let _guard = lock();
    let want = reference(|| harness::experiment_cell_bytes(2020));
    assert!(!want.is_empty(), "the reference image must be non-empty");
    for schedule in schedule_grid() {
        let got = run_under(schedule, || harness::experiment_cell_bytes(2020));
        assert_eq!(got, want, "experiment cell diverged under {schedule:?}");
    }
}

#[test]
fn perturbed_deals_differ_and_reductions_stay_index_unique() {
    let _guard = lock();
    let capture = |deal: DealMode| {
        run_under(Schedule { width: 4, deal }, || {
            sanitize::start_capture();
            let _ = harness::forest_fit_bytes(42);
            sanitize::take_captures()
        })
    };

    let baseline = capture(DealMode::RoundRobin);
    assert!(
        !baseline.is_empty(),
        "the forest fit must run batches on the pool"
    );
    // Footprint invariants on every batch: the deal partitions 0..n and the
    // fill order is a permutation of 0..n (each item produced exactly once).
    let check_footprints = |records: &[sanitize::BatchRecord], label: &str| {
        for rec in records {
            let mut dealt: Vec<usize> = rec.deal.iter().flatten().copied().collect();
            dealt.sort_unstable();
            assert_eq!(
                dealt,
                (0..rec.n_items).collect::<Vec<_>>(),
                "{label}: deal must partition 0..{}",
                rec.n_items
            );
            let mut filled = rec.fill_order.clone();
            filled.sort_unstable();
            assert_eq!(
                filled,
                (0..rec.n_items).collect::<Vec<_>>(),
                "{label}: each item must be produced exactly once"
            );
        }
    };
    check_footprints(&baseline, "round-robin");

    for deal in [
        DealMode::Blocked,
        DealMode::Reversed,
        DealMode::Shuffled(0xA0D17),
    ] {
        let perturbed = capture(deal);
        check_footprints(&perturbed, &format!("{deal:?}"));
        assert_eq!(
            perturbed.len(),
            baseline.len(),
            "{deal:?}: the same deterministic batch sequence must run"
        );
        // The perturbation must be real: at least one multi-item batch must
        // have been dealt differently than under the production order.
        let differed = baseline
            .iter()
            .zip(&perturbed)
            .any(|(a, b)| a.n_items > 1 && a.width > 1 && a.deal != b.deal);
        assert!(
            differed,
            "{deal:?}: no batch was dealt differently — the perturbation was vacuous"
        );
    }
}

#[test]
fn nested_parallelism_degrades_are_observed_in_the_experiment_cell() {
    let _guard = lock();
    let before = sanitize::nested_degrades();
    run_under(
        Schedule {
            width: 4,
            deal: DealMode::RoundRobin,
        },
        || {
            let _ = harness::experiment_cell_bytes(2020);
        },
    );
    // The experiment protocol nests forest fits inside pool workers; the
    // sanitizer must have seen those inner batches degrade to sequential
    // rather than deadlock or re-enter the pool.
    assert!(
        sanitize::nested_degrades() > before,
        "expected nested parallel calls to degrade (and be counted) under width 4"
    );
}
