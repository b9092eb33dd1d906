//! E-SPD — parallel speedup of the SCPM drivers on the skewed synthetic
//! DBLP workload (the paper's parallel-scalability story).
//!
//! ```text
//! cargo run --release -p scpm-bench --bin exp_speedup [scale] [seed] [max_threads]
//! ```
//!
//! Two complementary views are reported:
//!
//! 1. **Measured wall-clock** of the work-stealing scheduler
//!    (`run_parallel_with`) at 1, 2, 4, … `max_threads` threads. Only
//!    meaningful on a multi-core machine — a 1-core container reports flat
//!    times for every configuration. The retired branch-level driver's
//!    measured rows are recorded in `docs/PARALLELISM.md`.
//! 2. **Modeled makespan** from the scheduler's exact work decomposition
//!    ([`run_parallel_traced`]): each task's quasi-clique-search node count
//!    is a hardware-independent cost proxy, and greedy longest-task-first
//!    assignment of those costs onto `p` workers bounds what `p` real cores
//!    could achieve (the familiar `max(T₁/p, t_max)` list-scheduling
//!    picture; spawn ordering is ignored, so the model slightly flatters
//!    deep splits). Branch-level scheduling is modeled from the
//!    `split_depth = 0` trace — its largest unit is an entire hub-attribute
//!    branch, which is exactly the serialization the subtree scheduler
//!    removes.
//!
//! Output is TSV: `view  driver  threads  value  speedup`.

use scpm_bench::{arg_f64, arg_usize, row, timed};
use scpm_core::{
    run_parallel_traced, run_parallel_with, ParallelConfig, Scpm, ScpmParams, SubtreeTrace,
};
use scpm_datasets::dblp_like;

fn params() -> ScpmParams {
    ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(3)
}

/// Greedy longest-first assignment of task costs onto `p` workers; returns
/// the resulting makespan in cost units.
fn lpt_makespan(weights: &[u64], p: usize) -> u64 {
    let mut sorted: Vec<u64> = weights.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; p.max(1)];
    for w in sorted {
        let min = loads.iter_mut().min().expect("at least one worker");
        *min += w;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Modeled speedup over the serial total for one work decomposition.
fn modeled(view: &str, traces: &[SubtreeTrace], threads: &[usize]) {
    let weights: Vec<u64> = traces.iter().map(SubtreeTrace::work).collect();
    let total: u64 = weights.iter().sum();
    let largest = weights.iter().copied().max().unwrap_or(0);
    eprintln!(
        "# {view}: {} tasks, total work {total}, largest task {largest} ({:.1}%)",
        weights.len(),
        100.0 * largest as f64 / total.max(1) as f64
    );
    for &p in threads {
        let makespan = lpt_makespan(&weights, p).max(1);
        row!(
            "modeled",
            view,
            p,
            makespan,
            format!("{:.2}", total as f64 / makespan as f64)
        );
    }
}

fn main() {
    let scale = arg_f64(1, 0.02);
    let seed = arg_usize(2, 21) as u64;
    let max_threads = arg_usize(3, 8).max(1);
    let mut threads = Vec::new();
    let mut p = 1;
    while p <= max_threads {
        threads.push(p);
        p *= 2;
    }

    let dataset = dblp_like(scale, seed);
    let g = &dataset.graph;
    println!(
        "# dblp-like scale={scale} seed={seed} vertices={} edges={} attrs={}",
        g.num_vertices(),
        g.num_edges(),
        g.num_attributes()
    );
    println!("# columns: view\tdriver\tthreads\tvalue\tspeedup");

    // Measured wall-clock (flat on a 1-core container; see module docs).
    let (_, serial_secs) = timed(|| Scpm::new(g, params()).run());
    row!(
        "measured",
        "serial",
        1,
        format!("{serial_secs:.3}s"),
        "1.00"
    );
    for &t in &threads {
        let config = ParallelConfig::new(t);
        let (_, secs) = timed(|| run_parallel_with(g, params(), &config));
        row!(
            "measured",
            "work_stealing",
            t,
            format!("{secs:.3}s"),
            format!("{:.2}", serial_secs / secs)
        );
    }

    // Modeled makespans from the exact work decompositions. split_depth=0
    // is precisely the branch-level unit structure; split_depth=2 is the
    // default work-stealing granularity.
    let (_, branch_trace) =
        run_parallel_traced(g, params(), &ParallelConfig::new(2).with_split_depth(0));
    modeled("branch_level", &branch_trace, &threads);
    let (_, subtree_trace) = run_parallel_traced(g, params(), &ParallelConfig::new(2));
    modeled("work_stealing", &subtree_trace, &threads);
}
