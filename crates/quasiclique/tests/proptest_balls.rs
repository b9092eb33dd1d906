//! Property tests for coverage ball by ball (part of the diameter-2 rule,
//! `PruneFlags::diameter2`): for γ ≥ 0.5 the coverage search decides each
//! vertex left uncovered by the witnesses in its own closed two-hop ball.
//! The covered set must be brute force's on small graphs, and the
//! whole-graph search's (the diameter-2 rule off) on random graphs too
//! large for brute force, in both orders and both representations.

use proptest::prelude::*;
use scpm_graph::builder::GraphBuilder;
use scpm_graph::csr::CsrGraph;
use scpm_quasiclique::bruteforce;
use scpm_quasiclique::{Miner, PruneFlags, QcConfig, Representation, SearchOrder};

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    (4usize..=12).prop_flat_map(|n| {
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

/// `n` vertices (24–60) holding 2–5 overlapping dense groups of 6–14
/// vertices (edge probability 0.5–0.9) over sparse background edges
/// (probability 0.03–0.12), drawn from a SplitMix64 stream seeded by the
/// case. Dense enough to hold many quasi-cliques, too large for brute
/// force.
fn planted_graph() -> impl Strategy<Value = CsrGraph> {
    (24u32..=60, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = GraphBuilder::new(n as usize);
        let groups = 2 + (next() * 4.0) as u32;
        for _ in 0..groups {
            let size = 6 + (next() * 9.0) as u32;
            let start = (next() * n as f64) as u32;
            let p = 0.5 + 0.4 * next();
            for i in 0..size {
                for j in i + 1..size {
                    if next() < p {
                        b.add_edge((start + i) % n, (start + j) % n);
                    }
                }
            }
        }
        let background = 0.03 + 0.09 * next();
        for u in 0..n {
            for v in u + 1..n {
                if next() < background {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    })
}

/// γ from 0.50 (exactly) to 1.00 in steps of 0.01.
fn gamma() -> impl Strategy<Value = f64> {
    (50u32..=100).prop_map(|percent| percent as f64 / 100.0)
}

// The case count follows `PROPTEST_CASES` (256 when unset).
proptest! {
    /// Ball coverage equals brute force's `K` with the witnesses on and
    /// off, in both orders and both representations; so does the
    /// whole-graph search the next test compares it with.
    #[test]
    fn ball_coverage_matches_bruteforce(g in small_graph(), gamma in gamma(),
                                        min_size in 2usize..=6) {
        let cfg = QcConfig::new(gamma, min_size);
        let expect = bruteforce::coverage(&g, &cfg);
        let all = PruneFlags::default();
        for flags in [
            all,
            PruneFlags { witnesses: false, ..all },
            PruneFlags { diameter2: false, ..all },
        ] {
            for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
                for repr in [Representation::Slice, Representation::Bitset] {
                    let out = Miner::new(&g, cfg)
                        .with_prune(flags)
                        .with_order(order)
                        .with_repr(repr)
                        .coverage();
                    prop_assert_eq!(&out.covered, &expect, "{:?} {:?} {:?} {:?}",
                                    cfg, flags, order, repr);
                }
            }
        }
    }

    /// Ball coverage equals the whole-graph search's on planted graphs of
    /// up to 60 vertices, and its search counters are the same under both
    /// representations.
    #[test]
    fn ball_coverage_equals_whole_graph(g in planted_graph(), gamma in gamma(),
                                        min_size in 3usize..=8) {
        let cfg = QcConfig::new(gamma, min_size);
        let all = PruneFlags::default();
        let whole_graph = PruneFlags { diameter2: false, ..all };
        let expect = Miner::new(&g, cfg).with_prune(whole_graph).coverage().covered;
        for flags in [all, PruneFlags { witnesses: false, ..all }] {
            for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
                let run = |repr| Miner::new(&g, cfg)
                    .with_prune(flags)
                    .with_order(order)
                    .with_repr(repr)
                    .coverage();
                let (slice, packed) = (run(Representation::Slice), run(Representation::Bitset));
                prop_assert_eq!(&slice.covered, &expect, "{:?} {:?} {:?}", cfg, flags, order);
                prop_assert_eq!(&packed.covered, &expect, "{:?} {:?} {:?}", cfg, flags, order);
                prop_assert_eq!(slice.stats.semantic(), packed.stats.semantic(),
                                "{:?} {:?} {:?}", cfg, flags, order);
            }
        }
    }
}
