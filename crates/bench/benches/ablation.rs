//! Ablation benchmarks for the design choices flagged in `DESIGN.md`:
//! the forest size and the batch size.
//!
//! Criterion reports the runtime cost of each variant; the accuracy side of
//! the ablations is covered by the integration tests and the fig binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pwu_core::experiment::run_experiment;
use pwu_core::{ActiveConfig, Protocol, Strategy};
use pwu_forest::{ForestConfig, Mtry, RandomForest};
use pwu_stats::Xoshiro256PlusPlus;

fn data(n: usize, d: usize) -> (pwu_space::FeatureMatrix, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(1);
    let mut x = pwu_space::FeatureMatrix::new(d);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; d];
    for _ in 0..n {
        for v in row.iter_mut() {
            *v = rng.next_f64() * 4.0;
        }
        y.push(row.iter().sum::<f64>() + 0.5);
        x.push_row(&row);
    }
    (x, y)
}

/// Forest size: how the per-iteration cost scales with the tree count.
fn ablation_forest_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_forest_size");
    group.sample_size(10);
    let (x, y) = data(300, 16);
    let kinds = vec![pwu_space::FeatureKind::Numeric; 16];
    for &n_trees in &[16usize, 64, 128] {
        let cfg = ForestConfig {
            n_trees,
            ..ForestConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("fit", n_trees), &n_trees, |b, _| {
            b.iter(|| RandomForest::fit(&cfg, &kinds, black_box(&x), &y, 3));
        });
    }
    for mtry in [Mtry::Sqrt, Mtry::Third, Mtry::All] {
        let cfg = ForestConfig {
            mtry,
            ..ForestConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("fit_mtry", format!("{mtry:?}")),
            &mtry,
            |b, _| {
                b.iter(|| RandomForest::fit(&cfg, &kinds, black_box(&x), &y, 3));
            },
        );
    }
    group.finish();
}

/// Batch size: `n_batch` 1 (the paper) vs greedy top-k batches.
fn ablation_batch_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_batch_size");
    group.sample_size(10);
    let kernel = pwu_spapt::kernel_by_name("gesummv").expect("gesummv exists");
    for &n_batch in &[1usize, 5, 10] {
        let protocol = Protocol {
            surrogate_size: 400,
            pool_size: 300,
            active: ActiveConfig {
                n_init: 10,
                n_batch,
                n_max: 60,
                forest: ForestConfig {
                    n_trees: 16,
                    ..ForestConfig::default()
                },
                eval_every: 50,
                alphas: vec![0.05],
                repeats: 1,
                ..ActiveConfig::default()
            },
            n_reps: 1,
        };
        let strategies = [Strategy::Pwu { alpha: 0.05 }];
        group.bench_with_input(BenchmarkId::new("pwu", n_batch), &n_batch, |b, _| {
            b.iter(|| run_experiment(black_box(&kernel), &strategies, &protocol, 11));
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_forest_size, ablation_batch_size);
criterion_main!(benches);
