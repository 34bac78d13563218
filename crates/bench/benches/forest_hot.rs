//! Hot-path micro-benchmarks for the flat-matrix forest.
//!
//! Unlike `src/bin/perf.rs` (the tracked before/after harness), this bench
//! only times the *optimized* path at several sizes — it is the quick local
//! probe for "did my change cost anything?". Uses the criterion shim's
//! warm-up control and JSON sink: results land in `target/forest_hot.json`.

use criterion::Criterion;
use std::hint::black_box;

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

fn data(n: usize, d: usize, seed: u64) -> (FeatureMatrix, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut x = FeatureMatrix::new(d);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; d];
    for _ in 0..n {
        for (f, v) in row.iter_mut().enumerate() {
            *v = (rng.next() as usize % (3 + f)) as f64;
        }
        y.push(row.iter().sum::<f64>() + 0.05 * rng.next_f64());
        x.push_row(&row);
    }
    (x, y)
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit");
    group.sample_size(10).warm_up_iters(2);
    for &(n, d) in &[(200usize, 8usize), (500, 20), (1000, 12)] {
        let (x, y) = data(n, d, 1);
        let kinds = vec![FeatureKind::Numeric; d];
        group.bench_function(format!("n{n}_d{d}"), |b| {
            b.iter(|| RandomForest::fit(&ForestConfig::default(), &kinds, black_box(&x), &y, 7));
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_batch");
    group.sample_size(20).warm_up_iters(2);
    let d = 12;
    let (x, y) = data(300, d, 2);
    let kinds = vec![FeatureKind::Numeric; d];
    let forest = RandomForest::fit(&ForestConfig::default(), &kinds, &x, &y, 3);
    for &n_pool in &[1000usize, 4000] {
        let (pool, _) = data(n_pool, d, 4);
        group.bench_function(format!("pool{n_pool}_d{d}"), |b| {
            b.iter(|| forest.predict_batch(black_box(&pool)));
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_fit(&mut c);
    bench_predict(&mut c);
    let out = std::path::Path::new("target").join("forest_hot.json");
    if let Err(e) = c.write_json(&out) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        eprintln!("results written to {}", out.display());
    }
}
