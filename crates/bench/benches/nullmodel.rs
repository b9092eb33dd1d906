//! Micro-benchmarks of the null models: the O(max_degree) analytical
//! recurrence vs. the naive double sum (Theorem 2's recurrence, see
//! `docs/ARCHITECTURE.md`), the exact hypergeometric variant, and the
//! simulation estimator (serial vs crossbeam-parallel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scpm_core::nullmodel::{simulate_expected, simulate_expected_parallel, AnalyticalModel};
use scpm_core::ExactModel;
use scpm_datasets::dblp_like;
use scpm_quasiclique::QcConfig;

fn bench_analytical(c: &mut Criterion) {
    let dataset = dblp_like(0.05, 5);
    let g = dataset.graph.graph();
    let cfg = QcConfig::new(0.5, 10);
    let model = AnalyticalModel::new(g, &cfg);
    let exact = ExactModel::new(g, &cfg);
    let sigma = g.num_vertices() / 20;
    let mut group = c.benchmark_group("expected_epsilon");
    group.bench_with_input(BenchmarkId::new("recurrence", sigma), &sigma, |b, &s| {
        b.iter(|| model.expected_uncached(s))
    });
    group.bench_with_input(
        BenchmarkId::new("naive_double_sum", sigma),
        &sigma,
        |b, &s| b.iter(|| model.expected_naive(s)),
    );
    group.bench_with_input(
        BenchmarkId::new("hypergeometric_exact", sigma),
        &sigma,
        |b, &s| b.iter(|| exact.expected_uncached(s)),
    );
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let dataset = dblp_like(0.02, 5);
    let g = dataset.graph.graph();
    let cfg = QcConfig::new(0.5, 10);
    let sigma = g.num_vertices() / 20;
    let mut group = c.benchmark_group("sim_exp");
    group.sample_size(10);
    group.bench_function("r10_serial", |b| {
        b.iter(|| simulate_expected(g, &cfg, sigma, 10, 7).mean)
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("r10_parallel", threads),
            &threads,
            |b, &t| b.iter(|| simulate_expected_parallel(g, &cfg, sigma, 10, 7, t).mean),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_analytical, bench_simulation);
criterion_main!(benches);
