//! Micro-benchmarks of the frequent itemset substrate: Eclat across
//! support thresholds, plus tidset intersections, on a DBLP-like
//! attribute distribution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scpm_datasets::dblp_like;
use scpm_itemset::{eclat, EclatConfig, Tidset};

fn bench_eclat(c: &mut Criterion) {
    let dataset = dblp_like(0.02, 3);
    let g = &dataset.graph;
    let mut group = c.benchmark_group("eclat");
    group.sample_size(10);
    for min_support in [50usize, 100, 200] {
        group.bench_with_input(
            BenchmarkId::new("dblp_like_0.02", min_support),
            &min_support,
            |b, &ms| {
                let cfg = EclatConfig {
                    min_support: ms,
                    max_size: 3,
                };
                b.iter(|| eclat(g, &cfg).len())
            },
        );
    }
    group.finish();
}

fn bench_tidset_intersection(c: &mut Criterion) {
    let a = Tidset::from_sorted((0..100_000).step_by(2).collect());
    let b = Tidset::from_sorted((0..100_000).step_by(3).collect());
    c.bench_function("tidset_intersect_100k", |bch| {
        bch.iter(|| a.intersect(&b).support())
    });
    c.bench_function("tidset_intersect_count_100k", |bch| {
        bch.iter(|| a.intersect_count(&b))
    });
}

criterion_group!(benches, bench_eclat, bench_tidset_intersection);
criterion_main!(benches);
