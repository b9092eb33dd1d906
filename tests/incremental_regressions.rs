//! Directed incremental-mining regressions on the paper's Figure 1 graph.
//!
//! Each test applies one hand-crafted delta whose effect on the Table-1
//! catalog is known in advance — a new pattern appears, an existing one
//! dies, only ε of a survivor moves, a clean set crosses δmin, or nothing
//! mined is touched at all — and asserts four things:
//!
//! 1. **Dirty-set exactness**: `DirtySet::from_delta` marks exactly the
//!    attribute sets whose `V(S)` or `G(S)` changed (Theorems 3–5 justify
//!    leaving the rest untouched), no more and no fewer.
//! 2. **Catalog effect**: the predicted pattern-level change happened.
//! 3. **Byte-identity**: the incremental catalog equals a full re-mine.
//! 4. **Work accounting**: live plus reused kernel operations add up to
//!    the run's `qc_kernel_ops`.

use std::sync::Arc;

use scpm_core::{
    checkpoint, recover, replay_mine, DataDir, DirtySet, EvalMemo, IncrementalCtx,
    IncrementalStats, NullModelCache, ParallelConfig, Scpm, ScpmParams, ScpmResult,
};
use scpm_graph::attributed::AttributedGraph;
use scpm_graph::csr::VertexId;
use scpm_graph::figure1::figure1;
use scpm_graph::GraphDelta;
use scpm_serve::PatternCatalog;

/// Table-1 parameters: σmin = 3, γmin = 0.6, min_size = 4, εmin = 0.5.
fn table1_params() -> ScpmParams {
    ScpmParams::new(3, 0.6, 4).with_eps_min(0.5)
}

fn catalog_json(graph: &AttributedGraph, params: &ScpmParams, result: ScpmResult) -> String {
    PatternCatalog::build(graph, params, result, 0)
        .full_json()
        .render()
}

fn full_mine(graph: &AttributedGraph, params: &ScpmParams) -> ScpmResult {
    Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
        .run_scheduled(&ParallelConfig::new(1))
}

fn record_mine(graph: &AttributedGraph, params: &ScpmParams) -> (ScpmResult, EvalMemo) {
    let mut scpm = Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
        .with_incremental(IncrementalCtx::recording());
    let result = scpm.run_scheduled(&ParallelConfig::new(1));
    let (memo, _) = scpm.take_incremental().unwrap().into_parts();
    (result, memo)
}

/// Applies `delta` to Figure 1, mines it incrementally off a recorded
/// memo, asserts byte-identity with a full re-mine and complete work
/// accounting, and returns the updated graph, its result, the dirty set,
/// and the incremental stats.
fn drive(delta: &str) -> (AttributedGraph, ScpmResult, DirtySet, IncrementalStats) {
    drive_with(delta, &table1_params())
}

/// [`drive`] under explicit parameters.
fn drive_with(
    delta: &str,
    params: &ScpmParams,
) -> (AttributedGraph, ScpmResult, DirtySet, IncrementalStats) {
    let base = figure1();
    let params = params.clone();
    let (_, memo) = record_mine(&base, &params);
    let applied = GraphDelta::parse(delta).unwrap().apply(&base).unwrap();
    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    let mut scpm = Scpm::with_cache(
        &applied.graph,
        params.clone(),
        Arc::new(NullModelCache::new()),
    )
    .with_incremental(IncrementalCtx::update(
        Arc::new(memo),
        DirtySet::from_delta(&applied.graph, &applied),
    ));
    let result = scpm.run_scheduled(&ParallelConfig::new(1));
    let (_, stats) = scpm.take_incremental().unwrap().into_parts();
    assert_eq!(
        catalog_json(&applied.graph, &params, result.clone()),
        catalog_json(&applied.graph, &params, full_mine(&applied.graph, &params)),
        "incremental catalog diverged from full re-mine"
    );
    assert_eq!(
        stats.live_kernel_ops + stats.reused_kernel_ops,
        result.stats.qc_kernel_ops,
        "every kernel operation is either live or reused"
    );
    (applied.graph, result, dirty, stats)
}

/// Giving paper-vertex 4 attribute C and wiring edge 1–4 turns the C
/// vertices {1,3,4,6} into a γ=0.6 quasi-clique of size 4: a pattern that
/// did not exist in Table 1 is born. The dirty region is exactly the
/// sets containing C plus the subsets of F(1) ∩ F(4) = {A, C}.
#[test]
fn delta_creating_a_new_pattern() {
    let base = figure1();
    let params = table1_params();
    let base_result = full_mine(&base, &params);
    let c = base.attr_id("C").unwrap();
    let base_c = base_result.report_for(&[c]).unwrap();
    assert_eq!(base_c.epsilon, 0.0, "Figure 1 has ε({{C}}) = 0");
    assert!(!base_c.qualified);

    // Paper labels 4 and 1 are ids 3 and 0.
    let (graph, result, dirty, _) = drive("a 3 C\ne 0 3\n");

    let a = graph.attr_id("A").unwrap();
    let b = graph.attr_id("B").unwrap();
    let d = graph.attr_id("D").unwrap();
    // Exactly C is dirty by assignment; exactly one novel-edge cap {A, C}.
    assert_eq!(dirty.dirty_attr_ids(), vec![c]);
    assert_eq!(dirty.num_edge_caps(), 1);
    assert!(dirty.is_dirty(&[c]));
    assert!(dirty.is_dirty(&[a]), "edge 1-4 changes G({{A}})");
    assert!(dirty.is_dirty(&[a, c]));
    assert!(!dirty.is_dirty(&[b]), "B is untouched by this delta");
    assert!(!dirty.is_dirty(&[d]), "D gains no vertex and no edge");
    assert!(!dirty.is_dirty(&[a, b]));

    let new_c = result.report_for(&[c]).unwrap();
    assert_eq!(new_c.support, 4);
    assert_eq!(new_c.epsilon, 1.0, "all four C vertices are now covered");
    assert!(new_c.qualified);
    assert!(
        result.patterns.iter().any(|p| p.attrs == vec![c]),
        "a {{C}} pattern must be born"
    );
    assert!(
        result.patterns.len() > base_result.patterns.len(),
        "the catalog must grow"
    );
}

/// Appending seven isolated vertices that all carry B dilutes
/// ε({B}) = 6/6 down to 6/13 < εmin: the {B} pattern dies. The kill is
/// exactly scoped — the new vertices carry only B, so V({A,B}) is
/// unchanged and the {A,B} pattern survives. Only sets containing B are
/// dirty; there are no new edges, so no edge caps at all.
#[test]
fn delta_killing_an_existing_pattern() {
    let base = figure1();
    let params = table1_params();
    let base_result = full_mine(&base, &params);
    let b = base.attr_id("B").unwrap();
    let base_b = base_result.report_for(&[b]).unwrap();
    assert_eq!(
        base_b.epsilon, 1.0,
        "Figure 1(d): all six B vertices covered"
    );
    assert!(base_b.qualified);
    assert!(base_result.patterns.iter().any(|p| p.attrs == vec![b]));

    let delta = "v 7\n".to_string() + &(11..18).map(|v| format!("a {v} B\n")).collect::<String>();
    let (graph, result, dirty, _) = drive(&delta);

    let a = graph.attr_id("A").unwrap();
    assert_eq!(dirty.dirty_attr_ids(), vec![b]);
    assert_eq!(dirty.num_edge_caps(), 0, "no edges were inserted");
    assert!(dirty.is_dirty(&[b]));
    assert!(dirty.is_dirty(&[a, b]), "supersets of B are dirty");
    assert!(!dirty.is_dirty(&[a]), "V(A) and G(A) are unchanged");

    let new_b = result.report_for(&[b]).unwrap();
    assert_eq!(new_b.support, 13);
    assert!((new_b.epsilon - 6.0 / 13.0).abs() < 1e-12);
    assert!(!new_b.qualified, "ε({{B}}) = 6/13 < 0.5 disqualifies B");
    assert!(
        result.patterns.iter().all(|p| p.attrs != vec![b]),
        "the {{B}} pattern must die"
    );
    let ab_qualified = result.report_for(&[a, b]).map(|r| r.qualified);
    assert_eq!(
        ab_qualified,
        Some(true),
        "{{A,B}} keeps ε = 1: the kill must not leak to supersets"
    );
    assert!(result.patterns.len() < base_result.patterns.len());
}

/// One isolated vertex carrying A moves ε({A}) from 9/11 to 9/12 without
/// touching any quasi-clique: the survivor's ε changes, its patterns do
/// not. Only sets containing A are dirty.
#[test]
fn delta_changing_only_epsilon_of_a_survivor() {
    let base = figure1();
    let params = table1_params();
    let base_result = full_mine(&base, &params);
    let a = base.attr_id("A").unwrap();
    assert!((base_result.report_for(&[a]).unwrap().epsilon - 9.0 / 11.0).abs() < 1e-12);

    let (graph, result, dirty, _) = drive("v 1\na 11 A\n");

    let b = graph.attr_id("B").unwrap();
    let c = graph.attr_id("C").unwrap();
    assert_eq!(dirty.dirty_attr_ids(), vec![a]);
    assert_eq!(dirty.num_edge_caps(), 0);
    assert!(dirty.is_dirty(&[a]));
    assert!(dirty.is_dirty(&[a, b]));
    assert!(!dirty.is_dirty(&[b]));
    assert!(!dirty.is_dirty(&[b, c]));

    let new_a = result.report_for(&[a]).unwrap();
    assert_eq!(new_a.support, 12);
    assert!((new_a.epsilon - 9.0 / 12.0).abs() < 1e-12);
    assert!(new_a.qualified, "ε = 0.75 still clears εmin = 0.5");
    assert_eq!(
        result.patterns.len(),
        base_result.patterns.len(),
        "no quasi-clique changed, so no pattern may appear or die"
    );
    for (p, q) in result.patterns.iter().zip(&base_result.patterns) {
        assert_eq!(p.attrs, q.attrs);
        assert_eq!(p.clique.vertices, q.clique.vertices);
    }
}

/// An appended vertex with no attributes, wired to vertex 1, has an empty
/// attribute intersection with its endpoint: no mined set's `V(S)` or
/// `G(S)` changes, the dirty set is empty, and the update replays every
/// examined set without a single live evaluation.
#[test]
fn delta_touching_no_mined_attributes_dirties_nothing() {
    let base = figure1();
    let params = table1_params();
    let examined = full_mine(&base, &params).stats.attribute_sets_examined;

    let (_, result, dirty, stats) = drive("v 1\ne 11 0\n");

    assert!(dirty.is_empty(), "empty caps must be dropped entirely");
    assert_eq!(dirty.num_edge_caps(), 0);
    assert_eq!(stats.reevaluated, 0, "nothing may be evaluated live");
    assert_eq!(stats.reused, examined, "every examined set must replay");
    assert_eq!(result.patterns.len(), 7, "Table 1 is untouched");
}

/// Two appended attribute-less vertices joined by an edge dirty nothing,
/// but they lower every `exp(σ)` of the null model, so δ_lb({B}) rises
/// from 1.84 to 2.74. With δmin = 2 the clean set {B} replays its memo
/// record yet newly qualifies — there is no cached top-k for it, so its
/// top-k search runs live and must be counted as live work.
#[test]
fn delta_moving_a_clean_set_across_delta_min() {
    let params = table1_params().with_delta_min(2.0);
    let base = figure1();
    let b = base.attr_id("B").unwrap();
    let base_b = full_mine(&base, &params).report_for(&[b]).unwrap().clone();
    assert!(base_b.delta_lb < 2.0 && !base_b.qualified, "{base_b:?}");

    let (_, result, dirty, stats) = drive_with("v 2\ne 11 12\n", &params);

    assert!(dirty.is_empty(), "the new vertices carry no attributes");
    let new_b = result.report_for(&[b]).unwrap();
    assert_eq!(new_b.epsilon, base_b.epsilon, "ε of a clean set is fixed");
    assert!(new_b.delta_lb >= 2.0 && new_b.qualified, "{new_b:?}");
    assert!(result.patterns.iter().any(|p| p.attrs == vec![b]));
    assert_eq!(stats.reevaluated, 0, "every set replays its record");
    assert!(stats.live_kernel_ops > 0, "the new top-k search ran live");
}

/// Recovery folds a whole journal into one dirty region and one mine.
/// Delta 1 wires paper vertices 5 and 8 while `F(5) ∩ F(8) = {A}`, so the
/// mined set {B} is clean after it; delta 2 gives vertex 5 attribute B,
/// which puts the new edge inside `G({B})` and makes {5, 6, 7, 8} a
/// γ = 0.6 quasi-clique of {B} and {A, B}. The recovered catalog and every
/// counter must equal a fresh mine of the final graph, with each lattice
/// set evaluated once.
#[test]
fn recovery_over_an_edge_whose_cap_grows_in_a_later_delta() {
    let root = std::env::temp_dir().join("scpm_incremental_regressions_recovery");
    let _ = std::fs::remove_dir_all(&root);
    let dir = DataDir::open(&root).unwrap();
    let base = figure1();
    let params = table1_params();
    let (base_result, memo) = record_mine(&base, &params);
    let mut journal = checkpoint(&dir, 0, &base, &memo, &params).unwrap();
    // Paper labels 5 and 8 are ids 4 and 7.
    journal
        .append(&GraphDelta::parse("e 4 7\n").unwrap())
        .unwrap();
    journal
        .append(&GraphDelta::parse("a 4 B\n").unwrap())
        .unwrap();
    drop(journal);

    let recovered = replay_mine(recover(&dir).unwrap(), &params, &ParallelConfig::new(1)).unwrap();
    assert!(recovered.memo_replayed, "{:?}", recovered.memo_note);
    assert_eq!(recovered.generation, 2);
    let graph = recovered.mining.graph();
    let full = full_mine(graph, &params);
    assert_eq!(
        catalog_json(graph, &params, recovered.result.clone()),
        catalog_json(graph, &params, full.clone()),
        "recovered catalog diverged from a fresh mine"
    );
    let (mut got, mut want) = (recovered.result.stats, full.stats);
    got.elapsed = Default::default();
    want.elapsed = Default::default();
    assert_eq!(got, want);

    let b = graph.attr_id("B").unwrap();
    let born: Vec<VertexId> = vec![4, 5, 6, 7];
    let has_born = |result: &ScpmResult| {
        result
            .patterns
            .iter()
            .any(|p| p.attrs == vec![b] && p.clique.vertices == born)
    };
    assert!(
        !has_born(&base_result),
        "{{5,6,7,8}} is not a B pattern before"
    );
    assert!(has_born(&recovered.result), "delta 2 creates the B pattern");

    let incr = recovered.incremental;
    assert_eq!(
        incr.reused + incr.reevaluated,
        recovered.result.stats.attribute_sets_examined,
        "one mine: each set replayed or evaluated once ({incr:?})"
    );
    assert!(incr.reused > 0, "sets outside the region replay ({incr:?})");
}
