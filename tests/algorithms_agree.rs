//! Cross-algorithm consistency: SCPM, SCORP and the naive baseline must
//! agree on qualifying attribute sets and emitted patterns whenever their
//! parameter semantics coincide.

use scpm_core::{run_naive, Scorp, Scpm, ScpmParams, ScpmResult};
use scpm_datasets::{citeseer_like, dblp_like};
use scpm_graph::figure1::figure1;

/// Qualified reports, canonicalized.
fn qualified(r: &ScpmResult) -> Vec<(Vec<u32>, usize, i64)> {
    let mut v: Vec<(Vec<u32>, usize, i64)> = r
        .reports
        .iter()
        .filter(|rep| rep.qualified)
        .map(|rep| {
            (
                rep.attrs.clone(),
                rep.support,
                (rep.epsilon * 1e9).round() as i64,
            )
        })
        .collect();
    v.sort();
    v
}

fn patterns(r: &ScpmResult) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut v: Vec<(Vec<u32>, Vec<u32>)> = r
        .patterns
        .iter()
        .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn four_algorithms_agree_on_figure1() {
    let g = figure1();
    // δmin = 0 and k = ∞ puts all three algorithms on the same semantics.
    let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
    let dfs = Scpm::new(&g, params.clone()).run();
    let scorp = Scorp::new(&g, params.clone()).run();
    let naive = run_naive(&g, &params);

    let q = qualified(&dfs);
    assert_eq!(q, qualified(&scorp), "scorp");
    assert_eq!(q, qualified(&naive), "naive");

    let p = patterns(&dfs);
    assert_eq!(p, patterns(&scorp), "scorp");
    assert_eq!(p, patterns(&naive), "naive");
    assert_eq!(p.len(), 7, "Table 1 has seven rows");
}

#[test]
fn dfs_and_naive_agree_on_dblp_like() {
    // The naive oracle enumerates every frequent set and every maximal
    // quasi-clique, so the pruned depth-first walk must match it on a
    // non-trivial δmin and top-k while examining no more sets.
    let dataset = dblp_like(0.01, 3);
    let g = &dataset.graph;
    let params = ScpmParams::new(8, 0.5, 6)
        .with_eps_min(0.1)
        .with_delta_min(1.0)
        .with_top_k(3)
        .with_max_attrs(3);
    let dfs = Scpm::new(g, params.clone()).run();
    let naive = run_naive(g, &params);
    assert!(!qualified(&dfs).is_empty(), "fixture must qualify some set");
    assert_eq!(qualified(&dfs), qualified(&naive));
    assert_eq!(patterns(&dfs), patterns(&naive));
    assert!(dfs.stats.attribute_sets_examined <= naive.stats.attribute_sets_examined);
}

#[test]
fn scorp_and_scpm_agree_when_semantics_coincide_on_citeseer_like() {
    let dataset = citeseer_like(0.005, 5);
    let g = &dataset.graph;
    // Unbounded k, δmin = 0: SCORP ≡ SCPM semantically.
    let params = ScpmParams::new(10, 0.5, 5)
        .with_eps_min(0.2)
        .with_max_attrs(2);
    let scorp = Scorp::new(g, params.clone()).run();
    let scpm = Scpm::new(g, params).run();
    assert_eq!(qualified(&scorp), qualified(&scpm));
    assert_eq!(patterns(&scorp), patterns(&scpm));
}

#[test]
fn topk_patterns_are_prefix_of_scorp_complete_enumeration() {
    let g = figure1();
    let base = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
    let complete = Scorp::new(&g, base.clone()).run();
    let top1 = Scpm::new(&g, base.with_top_k(1)).run();
    // Every top-k pattern appears in the complete enumeration.
    let all = patterns(&complete);
    for p in patterns(&top1) {
        assert!(all.contains(&p), "pattern {p:?} missing from SCORP output");
    }
    // And per attribute set the top-1 is the largest.
    for rep in complete.reports.iter().filter(|r| r.qualified) {
        let full: Vec<_> = complete.patterns_for(&rep.attrs);
        let best: Vec<_> = top1.patterns_for(&rep.attrs);
        assert_eq!(best.len(), 1, "{:?}", rep.attrs);
        let max_size = full.iter().map(|p| p.clique.size()).max().unwrap();
        assert_eq!(best[0].clique.size(), max_size, "{:?}", rep.attrs);
    }
}

#[test]
fn delta_threshold_separates_scpm_from_scorp() {
    let dataset = dblp_like(0.01, 11);
    let g = &dataset.graph;
    let base = ScpmParams::new(8, 0.5, 6)
        .with_eps_min(0.05)
        .with_top_k(2)
        .with_max_attrs(2);
    // A harsh δmin: SCPM filters to statistically significant sets only;
    // SCORP (which predates δ) keeps reporting by ε alone.
    let strict = base.clone().with_delta_min(1e6);
    let scpm = Scpm::new(g, strict.clone()).run();
    let scorp = Scorp::new(g, strict).run();
    let scpm_q = qualified(&scpm).len();
    let scorp_q = qualified(&scorp).len();
    assert!(
        scpm_q <= scorp_q,
        "δmin must only shrink SCPM's qualifying sets ({scpm_q} vs {scorp_q})"
    );
}
