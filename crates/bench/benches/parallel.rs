//! Parallel-driver benchmarks: the work-stealing scheduler on the skewed
//! synthetic DBLP workload (the paper's Figure 10 speedup story), across
//! thread counts and split depths. `split0` schedules one task per
//! level-1 branch, the branch-level shape.
//!
//! The workload is deliberately *skewed*: the Zipf attribute model gives
//! the synthetic DBLP graph a few hub terms whose level-1 branches dwarf
//! the rest, which is exactly where branch-level scheduling flatlines and
//! subtree stealing keeps scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scpm_core::{run_parallel_with, ParallelConfig, ScpmParams};
use scpm_datasets::dblp_like;

fn params() -> ScpmParams {
    ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(3)
}

fn bench_work_stealing(c: &mut Criterion) {
    let dataset = dblp_like(0.02, 21);
    let g = &dataset.graph;
    let mut group = c.benchmark_group("parallel_work_stealing");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        for split_depth in [0usize, 2] {
            let id = BenchmarkId::new(format!("split{split_depth}"), threads);
            group.bench_with_input(id, &threads, |b, &t| {
                let config = ParallelConfig::new(t).with_split_depth(split_depth);
                b.iter(|| run_parallel_with(g, params(), &config))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_work_stealing);
criterion_main!(benches);
