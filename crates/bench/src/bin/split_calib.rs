//! Calibration micro-bench for the fast engine's per-node adaptive split
//! strategy (`pwu_forest::fast`): times the two counting-column split
//! searches — stack gather + insertion sort ("small") and flat-array
//! accumulate ("dense") — over an `(n_seg, n_ranks)` grid, through the
//! engine's own hidden `calib` surface so the numbers reflect the
//! production code.
//!
//! This is how the dispatch boundary `SMALL_MAX = 8` was picked: the
//! insertion sort stops winning past ~a dozen rows. Diagnostic only: the
//! output is a table on stdout, not a gated BENCH report — rerun it when
//! the strategies change and adjust the constant if a region flips.
//!
//! ```text
//! cargo run --release -p pwu-bench --bin split_calib [-- --iters N]
//! ```

use std::time::Instant;

use pwu_forest::fast::calib;
use pwu_stats::Xoshiro256PlusPlus;

/// One synthetic counting-column problem: `n_seg` rows drawn over
/// `n_ranks` distinct values, rank-correlated targets.
struct Problem {
    rank_value: Vec<f64>,
    ranks_f: Vec<u32>,
    y: Vec<f64>,
    seg: Vec<u32>,
    total: f64,
    inv: Vec<f64>,
}

impl Problem {
    fn new(n_seg: usize, n_ranks: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let rank_value: Vec<f64> = (0..n_ranks).map(|k| k as f64 * 1.25).collect();
        let ranks_f: Vec<u32> = (0..n_seg)
            .map(|_| (rng.next() % n_ranks as u64) as u32)
            .collect();
        let y: Vec<f64> = ranks_f
            .iter()
            .map(|&k| f64::from(k) * 0.4 + rng.next_f64())
            .collect();
        let seg: Vec<u32> = (0..n_seg as u32).collect();
        let total: f64 = y.iter().sum();
        let inv: Vec<f64> = (0..=n_seg)
            .map(|k| if k == 0 { 0.0 } else { 1.0 / k as f64 })
            .collect();
        Self {
            rank_value,
            ranks_f,
            y,
            seg,
            total,
            inv,
        }
    }
}

/// Median nanoseconds per call over `iters` timed batches of `BATCH` calls.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 64;
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);

    // Calibration stack capacity: large enough to measure the small path
    // well past its production cutoff (calib::SMALL_MAX).
    const CAL_CAP: usize = 32;
    let seg_sizes = [4usize, 6, 8, 12, 16, 24, 32, 64, 128, 256];
    let rank_counts = [8usize, 32, 128, 256];

    println!(
        "production cutoff: small at n_seg <= {}, dense above",
        calib::SMALL_MAX
    );
    println!(
        "{:>6} {:>7} {:>12} {:>12}  winner",
        "n_seg", "n_ranks", "small ns", "dense ns"
    );
    for &nr in &rank_counts {
        let mut scratch = calib::Scratch::new(nr);
        for &n in &seg_sizes {
            let p = Problem::new(n, nr, 0xCA_11B + (n as u64) * 1009 + nr as u64);
            let small_ns = (n <= CAL_CAP).then(|| {
                time_ns(iters, || {
                    std::hint::black_box(calib::small::<CAL_CAP>(
                        &p.rank_value,
                        &p.ranks_f,
                        &p.y,
                        &p.seg,
                        p.total,
                        1,
                        &p.inv,
                    ));
                })
            });
            let dense_ns = time_ns(iters, || {
                std::hint::black_box(calib::dense(
                    &p.rank_value,
                    &p.ranks_f,
                    &p.y,
                    &p.seg,
                    p.total,
                    1,
                    &p.inv,
                    &mut scratch,
                ));
            });
            let winner = if small_ns.is_some_and(|s| s <= dense_ns) {
                "small"
            } else {
                "dense"
            };
            let small = small_ns.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
            println!("{n:>6} {nr:>7} {small:>12} {dense_ns:>12.0}  {winner}");
        }
    }
}
