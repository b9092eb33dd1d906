//! Top-k consistency (§3.2.3) and parallel-driver equivalence on dataset
//! graphs: the work-stealing scheduler (at every split depth) and the
//! shared null-model cache must both be invisible in the output.

use std::sync::Arc;

use proptest::prelude::*;
use scpm_core::{
    run_naive, run_parallel, run_parallel_with, AnalyticalModel, NullModelCache, ParallelConfig,
    Scpm, ScpmParams, ScpmResult, DEFAULT_SPLIT_DEPTH,
};
use scpm_datasets::{dblp_like, lastfm_like};
use scpm_graph::generators::erdos_renyi::gnm;
use scpm_quasiclique::QcConfig;

fn pattern_rows(r: &ScpmResult) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut v: Vec<(Vec<u32>, Vec<u32>)> = r
        .patterns
        .iter()
        .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn top_k_is_prefix_of_larger_k() {
    let dataset = dblp_like(0.01, 5);
    let g = &dataset.graph;
    let base = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.2)
        .with_max_attrs(2);
    let run_k = |k: usize| Scpm::new(g, base.clone().with_top_k(k)).run();
    let k2 = run_k(2);
    let k5 = run_k(5);
    // For every qualifying attribute set, the k=2 patterns must be the two
    // best of the k=5 list.
    for rep in k2.reports.iter().filter(|r| r.qualified) {
        let p2: Vec<_> = k2.patterns_for(&rep.attrs);
        let p5: Vec<_> = k5.patterns_for(&rep.attrs);
        assert!(p2.len() <= 2);
        assert!(p5.len() >= p2.len(), "k=5 returned fewer than k=2");
        for (a, b) in p2.iter().zip(p5.iter()) {
            assert_eq!(a.clique.size(), b.clique.size(), "{:?}", rep.attrs);
            assert!(
                (a.clique.min_degree_ratio - b.clique.min_degree_ratio).abs() < 1e-12,
                "{:?}",
                rep.attrs
            );
        }
    }
}

#[test]
fn top_k_matches_naive_ranking() {
    let dataset = dblp_like(0.01, 7);
    let g = &dataset.graph;
    let params = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.2)
        .with_top_k(3)
        .with_max_attrs(2);
    let scpm = Scpm::new(g, params.clone()).run();
    let naive = run_naive(g, &params);
    assert_eq!(pattern_rows(&scpm), pattern_rows(&naive));
}

#[test]
fn patterns_are_quasi_cliques_of_induced_graphs() {
    use scpm_graph::induced::InducedSubgraph;
    use scpm_quasiclique::QcConfig;
    let dataset = lastfm_like(0.005, 3);
    let g = &dataset.graph;
    let params = ScpmParams::new(8, 0.5, 5)
        .with_eps_min(0.1)
        .with_top_k(4)
        .with_max_attrs(2);
    let result = Scpm::new(g, params).run();
    let cfg = QcConfig::new(0.5, 5);
    assert!(!result.patterns.is_empty(), "expected some patterns");
    for p in &result.patterns {
        // Q ⊆ V(S).
        let vs = g.vertices_with_all(&p.attrs);
        assert!(
            p.clique
                .vertices
                .iter()
                .all(|v| vs.binary_search(v).is_ok()),
            "pattern vertices outside V(S)"
        );
        // Q satisfies the degree property inside G(S).
        let sub = InducedSubgraph::extract(g.graph(), &vs);
        let locals: Vec<u32> = p
            .clique
            .vertices
            .iter()
            .map(|&v| sub.to_local(v).unwrap())
            .collect();
        let mut sorted = locals.clone();
        sorted.sort_unstable();
        assert!(
            cfg.is_quasi_clique(&sub.graph, &sorted),
            "pattern is not a quasi-clique of G(S)"
        );
    }
}

/// Byte-level fingerprint of everything a run reports (the counters are
/// compared separately because `elapsed` is wall-clock).
fn fingerprint(r: &ScpmResult) -> String {
    format!("{:?}|{:?}", r.reports, r.patterns)
}

#[test]
fn determinism_sweep_on_planted_partition_graph() {
    // The synthetic DBLP stand-in is a planted-partition graph (dense
    // attribute-correlated communities over a preferential-attachment
    // background) with a skewed attribute-support distribution — the
    // workload where work stealing actually redistributes subtrees.
    let dataset = dblp_like(0.01, 21);
    let g = &dataset.graph;
    let params = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(3);
    let serial = Scpm::new(g, params.clone()).run();
    let reference = fingerprint(&serial);
    for threads in [1usize, 2, 4, 8] {
        for split_depth in [0usize, DEFAULT_SPLIT_DEPTH] {
            let config = ParallelConfig::new(threads).with_split_depth(split_depth);
            let run = run_parallel_with(g, params.clone(), &config);
            assert_eq!(
                fingerprint(&run),
                reference,
                "threads {threads}, split_depth {split_depth}"
            );
            let mut stats = run.stats;
            stats.elapsed = serial.stats.elapsed;
            assert_eq!(
                stats, serial.stats,
                "threads {threads}, split_depth {split_depth}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The shared null-model cache is transparent: a cached model returns
    /// exactly the values a fresh uncached evaluation produces, for any
    /// graph, quasi-clique configuration, and support.
    #[test]
    fn shared_null_cache_equals_uncached_model(
        seed in 0u64..1_000,
        sigma in 0usize..=80,
        gamma_tenths in 1usize..=10,
        min_size in 2usize..8,
    ) {
        let g = gnm(80, 240, seed);
        let cfg = QcConfig::new(gamma_tenths as f64 / 10.0, min_size);
        let cache = Arc::new(NullModelCache::new());
        let shared_a = AnalyticalModel::new(&g, &cfg).with_cache(cache.clone());
        let shared_b = AnalyticalModel::new(&g, &cfg).with_cache(cache.clone());
        let fresh = AnalyticalModel::new(&g, &cfg);

        let first = shared_a.expected(sigma);
        prop_assert_eq!(first, fresh.expected_uncached(sigma));
        // A second model on the same cache sees the identical value, and
        // the lookup is served from the memo.
        let hits_before = cache.hits();
        prop_assert_eq!(shared_b.expected(sigma), first);
        prop_assert!(cache.hits() > hits_before);
        prop_assert_eq!(cache.misses(), 1);
    }
}

#[test]
fn parallel_equals_serial_on_dataset() {
    let dataset = dblp_like(0.01, 21);
    let g = &dataset.graph;
    let params = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(3);
    let serial = Scpm::new(g, params.clone()).run();
    for threads in [2, 4, 8] {
        let parallel = run_parallel(g, params.clone(), threads);
        assert_eq!(
            pattern_rows(&serial),
            pattern_rows(&parallel),
            "threads {threads}"
        );
        // Identical report lists, same order (branch-ordered merge).
        let s: Vec<_> = serial.reports.iter().map(|r| r.attrs.clone()).collect();
        let p: Vec<_> = parallel.reports.iter().map(|r| r.attrs.clone()).collect();
        assert_eq!(s, p, "threads {threads}");
    }
}
