//! Two-way representation differential at the full-pipeline level: the
//! sorted-slice and bitset representations must produce byte-identical
//! catalogs and identical semantic counters under every thread count.
//! Complements the engine-level proptest
//! (`crates/quasiclique/tests/proptest_engine.rs`) by exercising the
//! parallel driver, the per-attribute-set reduction and the counter
//! plumbing through `ScpmStats::merge`.

use scpm_core::{run_parallel_with, ParallelConfig, Scpm, ScpmParams, ScpmResult, ScpmStats};
use scpm_datasets::dblp_like;
use scpm_graph::figure1::figure1;
use scpm_graph::AttributedGraph;
use scpm_quasiclique::Representation;

/// Everything a run reports except wall-clock, as one comparable string.
fn fingerprint(r: &ScpmResult) -> String {
    format!("{:?}|{:?}", r.reports, r.patterns)
}

/// Counters with the wall-clock field neutralized for exact comparison.
fn counters(r: &ScpmResult) -> ScpmStats {
    let mut s = r.stats;
    s.elapsed = std::time::Duration::ZERO;
    s
}

fn sweep(g: &AttributedGraph, params: ScpmParams) {
    // The serial bitset path is the reference everything else must hit.
    let reference = Scpm::new(g, params.clone().with_repr(Representation::Bitset)).run();
    let ref_print = fingerprint(&reference);
    let ref_stats = counters(&reference);
    assert!(
        ref_stats.qc_probes_elided > 0,
        "bitset run elided no probes — the batched kernels never engaged"
    );
    assert!(ref_stats.qc_batch_ops <= ref_stats.qc_kernel_ops);

    for threads in [1usize, 2, 4] {
        let config = ParallelConfig::new(threads);
        let mut per_repr: Vec<(Representation, ScpmStats)> = Vec::new();
        for repr in [Representation::Slice, Representation::Bitset] {
            let run = run_parallel_with(g, params.clone().with_repr(repr), &config);
            assert_eq!(
                fingerprint(&run),
                ref_print,
                "{repr:?} catalog diverges at {threads} threads"
            );
            let stats = counters(&run);
            // The semantic counters (tree shape, prune events, report and
            // pattern counts) never depend on representation or threads.
            assert_eq!(
                (stats.qc_nodes_coverage, stats.qc_nodes_topk),
                (ref_stats.qc_nodes_coverage, ref_stats.qc_nodes_topk),
                "{repr:?} search tree diverges at {threads} threads"
            );
            per_repr.push((repr, stats));
        }
        let slice = per_repr[0].1;
        // The batched promotion kernels exist only on the bitset path.
        assert_eq!(slice.qc_probes_elided, 0, "slice elided probes");
        assert_eq!(slice.qc_batch_ops, 0, "slice ran batched sweeps");
        // On every thread count the bitset totals equal the serial
        // reference on *every* counter (u64 sums commute across the merge
        // order).
        assert_eq!(per_repr[1].1, ref_stats, "bitset at {threads} threads");
    }
}

#[test]
fn figure1_backends_and_threads_agree() {
    sweep(
        &figure1(),
        ScpmParams::new(3, 0.6, 4).with_eps_min(0.5).with_top_k(5),
    );
}

#[test]
fn planted_partition_backends_and_threads_agree() {
    let dataset = dblp_like(0.01, 21);
    sweep(
        &dataset.graph,
        ScpmParams::new(8, 0.5, 8)
            .with_eps_min(0.1)
            .with_top_k(3)
            .with_max_attrs(3),
    );
}
