//! Pruning rules must be semantically inert: disabling Theorem 3 (vertex
//! pruning), Theorem 4 (ε bound), Theorem 5 (δ bound) or any quasi-clique
//! engine pruning must never change SCPM's output, only its cost.

use scpm_core::{Scpm, ScpmParams, ScpmPruneFlags, ScpmResult};
use scpm_datasets::dblp_like;
use scpm_graph::figure1::figure1;
use scpm_quasiclique::PruneFlags;

type ReportRows = Vec<(Vec<u32>, usize, i64, bool)>;
type PatternRows = Vec<(Vec<u32>, Vec<u32>)>;

fn canonical(r: &ScpmResult) -> (ReportRows, PatternRows) {
    let mut reports: Vec<(Vec<u32>, usize, i64, bool)> = r
        .reports
        .iter()
        .filter(|rep| rep.qualified)
        .map(|rep| {
            (
                rep.attrs.clone(),
                rep.support,
                (rep.epsilon * 1e9) as i64,
                rep.qualified,
            )
        })
        .collect();
    reports.sort();
    let mut patterns: Vec<(Vec<u32>, Vec<u32>)> = r
        .patterns
        .iter()
        .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
        .collect();
    patterns.sort();
    (reports, patterns)
}

fn scpm_flag_variants() -> Vec<ScpmPruneFlags> {
    let mut out = Vec::new();
    for vertex in [true, false] {
        for eps in [true, false] {
            for delta in [true, false] {
                out.push(ScpmPruneFlags {
                    vertex_pruning: vertex,
                    eps_pruning: eps,
                    delta_pruning: delta,
                });
            }
        }
    }
    out
}

#[test]
fn figure1_invariant_under_scpm_flag_combinations() {
    let g = figure1();
    let base = ScpmParams::new(3, 0.6, 4)
        .with_eps_min(0.5)
        .with_delta_min(0.5);
    let baseline = canonical(&Scpm::new(&g, base.clone()).run());
    for flags in scpm_flag_variants() {
        let mut params = base.clone();
        params.prune = flags;
        let got = canonical(&Scpm::new(&g, params).run());
        assert_eq!(got, baseline, "flags {flags:?}");
    }
}

#[test]
fn dataset_invariant_under_scpm_flag_combinations() {
    let dataset = dblp_like(0.01, 5);
    let g = &dataset.graph;
    let base = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.2)
        .with_delta_min(1.0)
        .with_top_k(3)
        .with_max_attrs(2);
    let baseline = canonical(&Scpm::new(g, base.clone()).run());
    assert!(
        !baseline.0.is_empty(),
        "test needs a non-trivial qualifying output"
    );
    for flags in scpm_flag_variants() {
        let mut params = base.clone();
        params.prune = flags;
        let got = canonical(&Scpm::new(g, params).run());
        assert_eq!(got, baseline, "flags {flags:?}");
    }
}

#[test]
fn dataset_invariant_under_engine_flag_combinations() {
    let dataset = dblp_like(0.01, 9);
    let g = &dataset.graph;
    let base = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(2);
    let baseline = canonical(&Scpm::new(g, base.clone()).run());
    // At dataset scale, keep at least one degree-based rule (feasibility or
    // bounds) active: with both off the set-enumeration tree is exponential
    // in the candidate count and the run would not finish in test time.
    // (The full 2^8 flag matrix, including all-off, is exercised on small
    // graphs by the quasiclique proptests.)
    for feasibility in [true, false] {
        for bounds in [true, false] {
            if !feasibility && !bounds {
                continue;
            }
            for flip in [
                "lookahead",
                "diameter2",
                "critical",
                "cover",
                "witnesses",
                "none",
            ] {
                let mut params = base.clone();
                params.qc_prune = PruneFlags {
                    feasibility,
                    bounds,
                    lookahead: flip != "lookahead",
                    diameter2: flip != "diameter2",
                    critical: flip != "critical",
                    cover_vertex: flip != "cover",
                    covered_candidate: true,
                    witnesses: flip != "witnesses",
                };
                let got = canonical(&Scpm::new(g, params).run());
                assert_eq!(
                    got, baseline,
                    "feasibility={feasibility} bounds={bounds} flipped={flip}"
                );
            }
        }
    }
}

#[test]
fn pruning_reduces_work() {
    let dataset = dblp_like(0.01, 5);
    let g = &dataset.graph;
    let base = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.2)
        .with_delta_min(1.0)
        .with_top_k(3)
        .with_max_attrs(2);
    let pruned = Scpm::new(g, base.clone()).run();
    let mut no_prune = base.clone();
    no_prune.prune = ScpmPruneFlags {
        vertex_pruning: false,
        eps_pruning: false,
        delta_pruning: false,
    };
    let unpruned = Scpm::new(g, no_prune).run();
    assert!(
        pruned.stats.attribute_sets_examined <= unpruned.stats.attribute_sets_examined,
        "pruning must not increase examined sets"
    );
    assert!(
        pruned.stats.qc_nodes_coverage <= unpruned.stats.qc_nodes_coverage,
        "Theorem 3 must not increase coverage work"
    );
}
