//! Directed regressions for the batched promotion kernels on the paper's
//! Figure 1: exact expected promotion outcomes (the emitted maximal
//! sets) and exact probe counts, pinned per representation.
//!
//! These are deliberately brittle: any change to child-generation bump
//! extraction, critical-vertex forcing, or the cover partition shifts
//! `edge_tests` / `probes_elided` / `batch_ops` and must be re-derived
//! consciously, not absorbed silently. On Figure 1 every batched site
//! elides exactly the point probes the slice path performs there, so the
//! decomposition `slice.edge_tests = bitset.edge_tests +
//! bitset.probes_elided` holds exactly (it is *not* a general invariant:
//! short-circuited maximality checks can break it on other graphs).

use scpm_graph::builder::graph_from_edges;
use scpm_graph::figure1::{figure1, paper_vertex};
use scpm_quasiclique::{Miner, PruneFlags, QcConfig, Representation};

fn paper_set(vs: &[u32]) -> Vec<u32> {
    let mut s: Vec<u32> = vs.iter().map(|&v| paper_vertex(v)).collect();
    s.sort_unstable();
    s
}

/// The five Table-1 maximal 0.6-quasi-cliques of Figure 1.
fn table1_sets() -> Vec<Vec<u32>> {
    let mut e = vec![
        paper_set(&[3, 4, 5, 6]),
        paper_set(&[6, 7, 8, 9, 10, 11]),
        paper_set(&[3, 4, 6, 7]),
        paper_set(&[3, 5, 6, 7]),
        paper_set(&[3, 6, 7, 8]),
    ];
    e.sort();
    e
}

fn sorted_sets(out: &scpm_quasiclique::MiningOutcome) -> Vec<Vec<u32>> {
    let mut s: Vec<Vec<u32>> = out.cliques.iter().map(|q| q.vertices.clone()).collect();
    s.sort();
    s
}

/// Exact probe counts for every representation and mode under the
/// default pruning flags. The slice path answers each promotion query
/// point-wise (`edge_tests`); the bitset path answers the same queries
/// with row-AND sweeps (`probes_elided` + `batch_ops` words) and only
/// the seed-child membership probes and short-circuited maximality
/// checks remain as point probes. Coverage is pinned twice: without the
/// greedy witness pass (the full promotion workload of the search) and
/// with it (the default, where pre-covered vertices prune from the root).
/// Both run ball by ball (γ = 0.6), so their counters sum the searches of
/// the two-hop balls of the vertices left uncovered.
#[test]
fn figure1_probe_counts_are_pinned() {
    let g = figure1();
    let cfg = QcConfig::new(0.6, 4);
    // (mode, edge_tests, probes_elided, batch_ops, forced_critical,
    //  pruned_cover, nodes_visited)
    let slice_expect = [
        ("maximal", 243, 0, 0, 5, 20, 33),
        ("coverage", 206, 0, 0, 2, 22, 23),
        ("coverage_witnesses", 45, 0, 0, 1, 9, 5),
        ("top2", 243, 0, 0, 5, 20, 33),
    ];
    let bitset_expect = [
        ("maximal", 31, 212, 72, 5, 20, 33),
        ("coverage", 22, 184, 59, 2, 22, 23),
        ("coverage_witnesses", 6, 39, 11, 1, 9, 5),
        ("top2", 31, 212, 72, 5, 20, 33),
    ];
    for (repr, expect) in [
        (Representation::Slice, &slice_expect),
        (Representation::Bitset, &bitset_expect),
    ] {
        let m = Miner::new(g.graph(), cfg).with_repr(repr);
        let no_witnesses = Miner::new(g.graph(), cfg)
            .with_repr(repr)
            .with_prune(PruneFlags {
                witnesses: false,
                ..PruneFlags::default()
            });
        for (mode, stats) in [
            ("maximal", m.enumerate_maximal().stats),
            ("coverage", no_witnesses.coverage().stats),
            ("coverage_witnesses", m.coverage().stats),
            ("top2", m.top_k(2).stats),
        ] {
            let &(emode, edge_tests, probes_elided, batch_ops, forced, cover, nodes) =
                expect.iter().find(|e| e.0 == mode).expect("mode in table");
            assert_eq!(mode, emode);
            assert_eq!(
                (
                    stats.edge_tests,
                    stats.probes_elided,
                    stats.batch_ops,
                    stats.forced_critical,
                    stats.pruned_cover,
                    stats.nodes_visited,
                ),
                (edge_tests, probes_elided, batch_ops, forced, cover, nodes),
                "{repr:?} {mode}"
            );
        }
    }
}

/// Critical-vertex forcing in isolation (all other optional prunes off):
/// forcing fires 11 times on Figure 1's maximal enumeration, the
/// promotion outcome is still exactly Table 1, and the batched path
/// answers all but 4 of the 283 promotion probes in bulk.
#[test]
fn critical_forcing_promotes_exact_sets() {
    let g = figure1();
    let cfg = QcConfig::new(0.6, 4);
    let flags = PruneFlags {
        feasibility: true,
        bounds: true,
        critical: true,
        cover_vertex: false,
        lookahead: false,
        covered_candidate: false,
        diameter2: false,
        witnesses: false,
    };
    let slice = Miner::new(g.graph(), cfg)
        .with_repr(Representation::Slice)
        .with_prune(flags)
        .enumerate_maximal();
    let bitset = Miner::new(g.graph(), cfg)
        .with_repr(Representation::Bitset)
        .with_prune(flags)
        .enumerate_maximal();
    assert_eq!(sorted_sets(&slice), table1_sets());
    assert_eq!(sorted_sets(&bitset), table1_sets());
    assert_eq!(slice.stats.forced_critical, 11);
    assert_eq!(bitset.stats.forced_critical, 11);
    assert_eq!(slice.stats.nodes_visited, 43);
    assert_eq!(bitset.stats.nodes_visited, 43);
    assert_eq!(
        (slice.stats.edge_tests, slice.stats.probes_elided),
        (283, 0)
    );
    assert_eq!(
        (bitset.stats.edge_tests, bitset.stats.probes_elided),
        (4, 279)
    );
    assert_eq!(bitset.stats.batch_ops, 98);
    // Site-by-site: every elided probe is one the slice path performed.
    assert_eq!(
        slice.stats.edge_tests,
        bitset.stats.edge_tests + bitset.stats.probes_elided
    );
}

/// Bump extraction on a hand-derivable micro-graph — two triangles
/// sharing vertex 2 at γ=1: the only promotions that survive are the two
/// triangles themselves, and the batched child generation answers 24 of
/// the 28 promotion probes in 12 swept words.
#[test]
fn bump_extraction_promotes_exact_sets() {
    let g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)]);
    let cfg = QcConfig::new(1.0, 3);
    let expect: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![2, 3, 4]];
    let slice = Miner::new(&g, cfg)
        .with_repr(Representation::Slice)
        .enumerate_maximal();
    let bitset = Miner::new(&g, cfg)
        .with_repr(Representation::Bitset)
        .enumerate_maximal();
    assert_eq!(sorted_sets(&slice), expect);
    assert_eq!(sorted_sets(&bitset), expect);
    assert_eq!(slice.stats.forced_critical, 2);
    assert_eq!(bitset.stats.forced_critical, 2);
    assert_eq!(
        (
            slice.stats.edge_tests,
            slice.stats.probes_elided,
            slice.stats.batch_ops
        ),
        (28, 0, 0)
    );
    assert_eq!(
        (
            bitset.stats.edge_tests,
            bitset.stats.probes_elided,
            bitset.stats.batch_ops
        ),
        (4, 24, 12)
    );
    assert_eq!(slice.stats.nodes_visited, 5);
    assert_eq!(bitset.stats.nodes_visited, 5);
}
