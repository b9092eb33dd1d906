//! Theorem 3 lifted to the whole graph is exact: an engine that restricts
//! every parentless mining set to the global `z`-core (`Scpm::engine`)
//! must give the same cover, ε, coverage counters and top-k as an
//! unfiltered `CorrelationEngine::new`, for every attribute set, with and
//! without a parent cover, for γ from 0.50 to 1.00, `min_size` 2–8, both
//! search orders, both representations and vertex pruning on and off.
//!
//! A second, directed test covers the one evaluation the filter changes:
//! a set with fewer than `min_size` vertices in the core but at least
//! `min_size` in all short-circuits instead of running an empty search. A
//! memo recorded by a recording mine and replayed by an update mine must
//! still give a fresh mine's reports, patterns and counters.
//!
//! Case count honors `PROPTEST_CASES` (CI pins it).

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scpm_core::{
    CorrelationEngine, DirtySet, MiningState, NullModelCache, ParallelConfig, Scpm, ScpmParams,
    ScpmResult,
};
use scpm_graph::attributed::{AttrId, AttributedGraph, AttributedGraphBuilder};
use scpm_graph::kcore::k_core_mask;
use scpm_graph::{DeltaOp, GraphDelta, VertexId};
use scpm_quasiclique::{Representation, SearchOrder};

const ATTRS: usize = 4;

/// A random attributed graph with a dense part (so quasi-cliques exist at
/// `min_size` up to 8) and a sparse part (so the core leaves vertices out).
fn attributed_graph() -> impl Strategy<Value = AttributedGraph> {
    (10usize..=22).prop_flat_map(|n| {
        let dense = n * 2 / 3;
        (
            proptest::collection::vec((0..dense as u32, 0..dense as u32), 0..dense * dense / 2),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..n),
            proptest::collection::vec(0u8..(1 << ATTRS), n),
        )
            .prop_map(move |(inner, outer, labels)| {
                let mut b = AttributedGraphBuilder::new(n);
                for a in 0..ATTRS {
                    b.intern_attr(&format!("a{a}"));
                }
                for (u, v) in inner.into_iter().chain(outer) {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                for (v, mask) in labels.into_iter().enumerate() {
                    for a in 0..ATTRS {
                        if mask & (1 << a) != 0 {
                            b.add_attr(v as VertexId, a as AttrId);
                        }
                    }
                }
                b.build()
            })
    })
}

fn thresholds() -> impl Strategy<Value = (f64, usize, usize)> {
    (
        prop_oneof![Just(0.5), Just(0.6), Just(0.75), Just(0.9), Just(1.0)],
        2usize..=8,
        1usize..=3,
    )
}

/// Every non-empty attribute set, smallest first.
fn attribute_sets() -> Vec<Vec<AttrId>> {
    let mut sets: Vec<Vec<AttrId>> = (1u32..(1 << ATTRS))
        .map(|mask| {
            (0..ATTRS as AttrId)
                .filter(|&a| mask & (1 << a) != 0)
                .collect()
        })
        .collect();
    sets.sort_by_key(|s| s.len());
    sets
}

/// Checks the filtered and unfiltered engines on every attribute set of
/// `g` under one parameter combination.
fn assert_engines_agree(
    g: &AttributedGraph,
    params: &ScpmParams,
    k: usize,
) -> Result<(), TestCaseError> {
    let scpm = Scpm::new(g, params.clone());
    let filtered = scpm.engine();
    let unfiltered = CorrelationEngine::new(
        g,
        params.quasi_clique,
        params.search_order,
        params.qc_prune,
        params.repr,
        params.prune.vertex_pruning,
    );
    // Covers of the unfiltered engine, per attribute set, for the parent
    // covers of larger sets.
    let mut covers: Vec<(Vec<AttrId>, Vec<VertexId>)> = Vec::new();
    for attrs in attribute_sets() {
        let vertices = g.vertices_with_all(&attrs);
        let parent_cover = (attrs.len() > 1).then(|| {
            let cover_of = |s: &[AttrId]| covers.iter().find(|(a, _)| a == s).unwrap().1.clone();
            let (first, second) = (&attrs[..attrs.len() - 1], &attrs[1..]);
            let (x, y) = (cover_of(first), cover_of(second));
            x.into_iter().filter(|v| y.contains(v)).collect::<Vec<_>>()
        });
        for cover in [None, parent_cover.as_deref()] {
            let a = filtered.epsilon(&vertices, cover);
            let b = unfiltered.epsilon(&vertices, cover);
            prop_assert_eq!(&a.covered, &b.covered, "{:?} cover {:?}", attrs, cover);
            prop_assert_eq!(a.epsilon, b.epsilon, "{:?}", attrs);
            prop_assert_eq!(a.stats, b.stats, "{:?} cover {:?}", attrs, cover);
            let ta = filtered.top_k(&vertices, cover, k);
            let tb = unfiltered.top_k(&vertices, cover, k);
            prop_assert_eq!(&ta.0, &tb.0, "{:?} top-{}", attrs, k);
            prop_assert_eq!(ta.1, tb.1, "{:?} top-{} counters", attrs, k);
            // The reuse path the lattice driver takes for qualifying sets.
            if let (Some(sa), Some(sb)) = (&a.sub, &b.sub) {
                prop_assert_eq!(filtered.top_k_on(sa, k), unfiltered.top_k_on(sb, k));
            }
        }
        let cover = unfiltered.epsilon(&vertices, None).covered;
        covers.push((attrs, cover));
    }
    Ok(())
}

proptest! {
    #[test]
    fn global_core_filter_leaves_every_evaluation_unchanged(
        g in attributed_graph(),
        (gamma, min_size, k) in thresholds(),
    ) {
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            for repr in [Representation::Slice, Representation::Bitset] {
                for vertex_pruning in [true, false] {
                    let mut params = ScpmParams::new(1, gamma, min_size)
                        .with_order(order)
                        .with_repr(repr);
                    params.prune.vertex_pruning = vertex_pruning;
                    assert_engines_agree(&g, &params, k)?;
                }
            }
        }
    }
}

fn fingerprint(r: &ScpmResult) -> String {
    let mut stats = r.stats;
    stats.elapsed = Default::default();
    format!("{:?}|{:?}|{stats:?}", r.reports, r.patterns)
}

/// A 6-clique carrying `hub`, and a path of 8 vertices carrying `hub` and
/// `thin`. At γ 0.5 and `min_size` 4 (`z` 2) the path lies outside the
/// global core except where a delta closes it into a cycle, so
/// `|V(thin) ∩ C| < min_size ≤ |V(thin)|`.
fn clique_and_path() -> AttributedGraph {
    let mut b = AttributedGraphBuilder::new(14);
    let (hub, thin) = (b.intern_attr("hub"), b.intern_attr("thin"));
    for u in 0..6u32 {
        b.add_attr(u, hub);
        for v in u + 1..6 {
            b.add_edge(u, v);
        }
    }
    for v in 6..14u32 {
        b.add_attr(v, hub);
        b.add_attr(v, thin);
        if v > 6 {
            b.add_edge(v - 1, v);
        }
    }
    b.add_edge(5, 6);
    b.build()
}

#[test]
fn a_set_mostly_outside_the_core_short_circuits_and_replays_identically() {
    let g = clique_and_path();
    // εmin = δmin = 0: every set qualifies, so the old path ran a top-k
    // search on the thin set's all-peeled subgraph.
    let params = ScpmParams::new(2, 0.5, 4)
        .with_eps_min(0.0)
        .with_delta_min(0.0)
        .with_top_k(2);
    let thin = g.attr_id("thin").unwrap();
    let core = k_core_mask(g.graph(), params.quasi_clique.min_required_degree());
    let in_core = g
        .vertices_with(thin)
        .iter()
        .filter(|&&v| core.contains(v))
        .count();
    assert!(in_core < 4 && g.support(thin) >= 4);

    // The filtered engine short-circuits; the unfiltered one searches an
    // all-peeled graph. Both report nothing covered with zero counters.
    let scpm = Scpm::new(&g, params.clone());
    let filtered = scpm.engine().epsilon(g.vertices_with(thin), None);
    assert!(filtered.sub.is_none() && filtered.covered.is_empty());
    assert_eq!(filtered.stats, Default::default());

    let config = ParallelConfig::new(1);
    let fresh = |graph: &AttributedGraph| {
        Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
            .run_scheduled(&config)
    };
    let (state, recorded, _) = MiningState::record(
        Arc::new(g.clone()),
        Arc::new(NullModelCache::new()),
        &params,
        &config,
    );
    assert_eq!(fingerprint(&recorded), fingerprint(&fresh(&g)));
    let thin_report = recorded.report_for(&[thin]).unwrap();
    assert!(thin_report.qualified && thin_report.covered == 0);

    // Two deltas. The first grows the core by an attribute-free vertex
    // tied to the clique: the thin set stays clean and replays its
    // short-circuited record. The second closes the path into a cycle,
    // which pulls the whole path into the core and re-evaluates the set.
    let mut graph = Arc::new(g);
    let mut memo = Arc::clone(state.memo());
    let steps = [
        vec![
            DeltaOp::AddVertices(1),
            DeltaOp::AddEdge(0, 14),
            DeltaOp::AddEdge(1, 14),
        ],
        vec![DeltaOp::AddEdge(6, 13)],
    ];
    for (step, ops) in steps.into_iter().enumerate() {
        let applied = GraphDelta { ops }.apply(&graph).unwrap();
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let next = Arc::new(applied.graph);
        let (state, updated, incr) =
            MiningState::update(memo, Arc::clone(&next), dirty, &params, &config);
        assert_eq!(
            fingerprint(&updated),
            fingerprint(&fresh(&next)),
            "step {step}"
        );
        if step == 0 {
            assert!(incr.reused > 0, "the clean sets must replay");
        }
        let core = k_core_mask(next.graph(), 2);
        let in_core = next
            .vertices_with(thin)
            .iter()
            .filter(|&&v| core.contains(v))
            .count();
        assert_eq!(in_core, if step == 0 { 0 } else { 8 }, "step {step}");
        memo = Arc::clone(state.memo());
        graph = next;
    }
}
