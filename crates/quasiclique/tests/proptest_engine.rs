//! Property tests: the search engine must agree with the exponential
//! reference implementation on arbitrary small graphs, for both search
//! orders, all pruning-flag combinations, and all three mining modes; the
//! greedy witness pass must only ever return quasi-cliques, and the
//! two-hop core peel must keep every quasi-clique vertex.

use proptest::prelude::*;
use scpm_graph::builder::GraphBuilder;
use scpm_graph::csr::CsrGraph;
use scpm_quasiclique::{bruteforce, reduce, witness};
use scpm_quasiclique::{pattern_order, Miner, PruneFlags, QcConfig, Representation, SearchOrder};

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    (4usize..=10).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..(n * (n - 1) / 2)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

fn qc_params() -> impl Strategy<Value = QcConfig> {
    (
        prop_oneof![Just(0.5), Just(0.6), Just(0.75), Just(1.0)],
        3usize..=5,
    )
        .prop_map(|(gamma, min_size)| QcConfig::new(gamma, min_size))
}

// The case count follows `PROPTEST_CASES` (256 when unset).
proptest! {
    #[test]
    fn maximal_enumeration_matches_bruteforce(g in small_graph(), cfg in qc_params()) {
        let expect = bruteforce::maximal_quasi_cliques(&g, &cfg);
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let out = Miner::new(&g, cfg).with_order(order).enumerate_maximal();
            let mut got: Vec<Vec<u32>> = out.cliques.iter().map(|q| q.vertices.clone()).collect();
            got.sort();
            prop_assert_eq!(&got, &expect, "order {:?}", order);
        }
    }

    #[test]
    fn coverage_matches_bruteforce(g in small_graph(), cfg in qc_params()) {
        let expect = bruteforce::coverage(&g, &cfg);
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let out = Miner::new(&g, cfg).with_order(order).coverage();
            prop_assert_eq!(&out.covered, &expect, "order {:?}", order);
        }
    }

    #[test]
    fn coverage_equals_union_of_maximal(g in small_graph(), cfg in qc_params()) {
        let out = Miner::new(&g, cfg).enumerate_maximal();
        let mut union: Vec<u32> = out.cliques.iter().flat_map(|q| q.vertices.iter().copied()).collect();
        union.sort_unstable();
        union.dedup();
        let cov = Miner::new(&g, cfg).coverage();
        prop_assert_eq!(cov.covered, union);
    }

    /// `pattern_order` is total (ties in size and ratio fall back to the
    /// vertex sets), so the engine's top-k must be exactly the prefix of
    /// brute force's ranking, vertex sets included, in both orders.
    #[test]
    fn top_k_is_prefix_of_full_ranking(g in small_graph(), cfg in qc_params(), k in 1usize..=4) {
        let expect = bruteforce::top_k(&g, &cfg, k);
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            let got = Miner::new(&g, cfg).with_order(order).top_k(k);
            prop_assert_eq!(&got.cliques, &expect, "order {:?}", order);
        }
    }

    #[test]
    fn pruning_flags_are_semantically_inert(g in small_graph(), cfg in qc_params(),
                                            bits in 0u32..256) {
        let baseline = {
            let mut s: Vec<Vec<u32>> = Miner::new(&g, cfg).enumerate_maximal()
                .cliques.into_iter().map(|q| q.vertices).collect();
            s.sort();
            s
        };
        let flags = PruneFlags {
            feasibility: bits & 1 != 0,
            bounds: bits & 2 != 0,
            critical: bits & 4 != 0,
            cover_vertex: bits & 8 != 0,
            lookahead: bits & 16 != 0,
            covered_candidate: bits & 32 != 0,
            diameter2: bits & 64 != 0,
            witnesses: bits & 128 != 0,
        };
        let mut got: Vec<Vec<u32>> = Miner::new(&g, cfg).with_prune(flags).enumerate_maximal()
            .cliques.into_iter().map(|q| q.vertices).collect();
        got.sort();
        prop_assert_eq!(got, baseline, "flags {:?}", flags);
        // Coverage must also be invariant under the flags.
        let cov_base = Miner::new(&g, cfg).coverage().covered;
        let cov = Miner::new(&g, cfg).with_prune(flags).coverage().covered;
        prop_assert_eq!(cov, cov_base);
    }

    /// End-to-end two-way differential: the sorted-slice and bitset
    /// engines must emit identical `MiningOutcome`s — same cliques, same
    /// coverage, same search tree (all semantic counters equal; only the
    /// modeled kernel costs may differ) — in every mode, for every flag
    /// combination.
    #[test]
    fn bitset_and_slice_outcomes_are_identical(g in small_graph(), cfg in qc_params(),
                                               bits in 0u32..256, k in 1usize..=4) {
        let flags = PruneFlags {
            feasibility: bits & 1 != 0,
            bounds: bits & 2 != 0,
            critical: bits & 4 != 0,
            cover_vertex: bits & 8 != 0,
            lookahead: bits & 16 != 0,
            covered_candidate: bits & 32 != 0,
            diameter2: bits & 64 != 0,
            witnesses: bits & 128 != 0,
        };
        let slice = Miner::new(&g, cfg).with_prune(flags).with_repr(Representation::Slice);
        let packed = Miner::new(&g, cfg).with_prune(flags).with_repr(Representation::Bitset);

        let (s, p) = (slice.enumerate_maximal(), packed.enumerate_maximal());
        prop_assert_eq!(&s.cliques, &p.cliques, "maximal, flags {:?}", flags);
        prop_assert_eq!(s.stats.semantic(), p.stats.semantic(), "maximal stats, flags {:?}", flags);
        // Fused-kernel counters: the engine's hot loops report them only
        // on the bitset path; the (representation-independent) packed
        // containment filter contributes equally to both. Hence the
        // bitset run always reports at least the slice run's counts, and
        // the fused kernels (incremental exdeg updates included) must not
        // disturb any semantic counter.
        prop_assert!(
            s.stats.fused_ops <= p.stats.fused_ops,
            "maximal fused_ops slice {} > bitset {}, flags {:?}",
            s.stats.fused_ops, p.stats.fused_ops, flags
        );
        // The batched promotion kernels exist only on the bitset path.
        prop_assert_eq!(s.stats.probes_elided, 0, "slice maximal probes_elided, flags {:?}", flags);
        prop_assert_eq!(s.stats.batch_ops, 0, "slice maximal batch_ops, flags {:?}", flags);
        prop_assert!(
            p.stats.batch_ops <= p.stats.kernel_ops,
            "maximal batch_ops {} > kernel_ops {}, flags {:?}",
            p.stats.batch_ops, p.stats.kernel_ops, flags
        );

        let (s, p) = (slice.coverage(), packed.coverage());
        prop_assert_eq!(&s.covered, &p.covered, "coverage, flags {:?}", flags);
        prop_assert_eq!(s.stats.semantic(), p.stats.semantic(), "coverage stats, flags {:?}", flags);
        // Coverage mode never runs the containment filter, so the slice
        // path must report no fused-kernel work at all there.
        prop_assert_eq!(s.stats.fused_ops, 0, "slice coverage fused_ops, flags {:?}", flags);
        prop_assert_eq!(s.stats.blocks_skipped, 0, "slice coverage blocks_skipped, flags {:?}", flags);
        prop_assert_eq!(s.stats.probes_elided, 0, "slice coverage probes_elided, flags {:?}", flags);
        prop_assert_eq!(s.stats.batch_ops, 0, "slice coverage batch_ops, flags {:?}", flags);

        let (s, p) = (slice.top_k(k), packed.top_k(k));
        prop_assert_eq!(&s.cliques, &p.cliques, "top-{}, flags {:?}", k, flags);
        prop_assert_eq!(s.stats.semantic(), p.stats.semantic(), "top-k stats, flags {:?}", flags);
        prop_assert!(
            s.stats.fused_ops <= p.stats.fused_ops,
            "top-k fused_ops slice {} > bitset {}, flags {:?}",
            s.stats.fused_ops, p.stats.fused_ops, flags
        );
        prop_assert_eq!(s.stats.probes_elided, 0, "slice top-k probes_elided, flags {:?}", flags);
        prop_assert_eq!(s.stats.batch_ops, 0, "slice top-k batch_ops, flags {:?}", flags);
    }

    /// The greedy witness pass is sound over γ ∈ [0.5, 1] and several
    /// minimum sizes: every witness is a quasi-clique, and coverage is the
    /// brute-force `K` with the pass on and off, in both orders and both
    /// representations.
    #[test]
    fn witnesses_are_quasi_cliques_and_keep_coverage(g in small_graph(),
                                                     percent in 50u32..=100,
                                                     min_size in 2usize..=6) {
        let cfg = QcConfig::new(percent as f64 / 100.0, min_size);
        for w in witness::witnesses(&g, &cfg) {
            prop_assert!(cfg.is_quasi_clique(&g, &w), "witness {:?}, cfg {:?}", w, cfg);
        }
        let expect = bruteforce::coverage(&g, &cfg);
        let off = PruneFlags { witnesses: false, ..PruneFlags::default() };
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            for repr in [Representation::Slice, Representation::Bitset] {
                let miner = |flags| Miner::new(&g, cfg).with_order(order).with_repr(repr).with_prune(flags);
                prop_assert_eq!(&miner(PruneFlags::default()).coverage().covered, &expect,
                                "witnesses on, {:?} {:?}", order, repr);
                prop_assert_eq!(&miner(off).coverage().covered, &expect,
                                "witnesses off, {:?} {:?}", order, repr);
            }
        }
    }

    /// The two-hop core peel is sound over γ ∈ [0.5, 1] and several
    /// minimum sizes: its survivors contain `K`, and with it on (the
    /// default `diameter2`) coverage, top-k and maximal enumeration equal
    /// brute force in both orders and both representations.
    #[test]
    fn two_hop_core_keeps_every_quasi_clique(g in small_graph(),
                                             percent in 50u32..=100,
                                             min_size in 2usize..=6,
                                             k in 1usize..=4) {
        let cfg = QcConfig::new(percent as f64 / 100.0, min_size);
        let cover = bruteforce::coverage(&g, &cfg);
        let survivors = reduce::two_hop_core(&g, &cfg);
        prop_assert!(cover.iter().all(|v| survivors.binary_search(v).is_ok()),
                     "cover {:?} not within survivors {:?}, cfg {:?}", cover, survivors, cfg);
        let maximal = bruteforce::maximal_quasi_cliques(&g, &cfg);
        let top = bruteforce::top_k(&g, &cfg, k);
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            for repr in [Representation::Slice, Representation::Bitset] {
                let miner = Miner::new(&g, cfg).with_order(order).with_repr(repr);
                prop_assert_eq!(&miner.coverage().covered, &cover, "{:?} {:?}", order, repr);
                let mut got: Vec<Vec<u32>> = miner.enumerate_maximal()
                    .cliques.into_iter().map(|q| q.vertices).collect();
                got.sort();
                prop_assert_eq!(&got, &maximal, "{:?} {:?}", order, repr);
                prop_assert_eq!(&miner.top_k(k).cliques, &top, "{:?} {:?}", order, repr);
            }
        }
    }

    #[test]
    fn emitted_patterns_satisfy_definition(g in small_graph(), cfg in qc_params()) {
        let out = Miner::new(&g, cfg).enumerate_maximal();
        for q in &out.cliques {
            prop_assert!(cfg.is_quasi_clique(&g, &q.vertices));
            prop_assert!(q.min_degree_ratio >= cfg.gamma - 1e-9);
            // Reported ratio/density must be consistent with direct
            // recomputation on the input graph.
            prop_assert!((q.min_degree_ratio - QcConfig::min_degree_ratio(&g, &q.vertices)).abs() < 1e-12);
            prop_assert!((q.edge_density - QcConfig::edge_density(&g, &q.vertices)).abs() < 1e-12);
        }
    }

    #[test]
    fn ranking_is_sorted(g in small_graph(), cfg in qc_params()) {
        let out = Miner::new(&g, cfg).enumerate_maximal();
        for w in out.cliques.windows(2) {
            prop_assert_ne!(pattern_order(&w[0], &w[1]), std::cmp::Ordering::Greater);
        }
    }
}
