//! The SCORP baseline (Silva, Meira & Zaki, MLG 2010 — reference \[16\] of
//! the paper).
//!
//! SCORP introduced structural correlation pattern mining; SCPM (§2.2)
//! extends it with normalization-based pruning (Theorem 5), the coverage
//! search strategies of §3.2.2, and top-k pattern enumeration (§3.2.3).
//! This module reconstructs SCORP as the intermediate baseline between the
//! naive algorithm and SCPM:
//!
//! * attribute sets are enumerated depth-first with support and Theorem-4
//!   (ε upper bound) pruning — Theorem 3 vertex pruning is available since
//!   it already appears in \[16\],
//! * **no** δ-based pruning (the normalized structural correlation is the
//!   VLDB'12 contribution) — δ_lb is still *reported* so result rows stay
//!   comparable,
//! * the **complete** set of patterns of each qualifying attribute set is
//!   enumerated instead of the top-k (no size-bound search-space
//!   reduction).
//!
//! Given the same parameters (and `δmin = 0`), SCORP's qualifying sets and
//! pattern rows match SCPM's with unbounded `k`; only the work differs.
//! The performance gap between the two is exactly what Figure 8(f) shows
//! when `k` grows.

use std::time::Instant;

use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_graph::csr::{intersect_into, VertexId};
use scpm_itemset::Tidset;
use scpm_quasiclique::pattern_order;

use crate::correlation::CorrelationEngine;
use crate::nullmodel::AnalyticalModel;
use crate::params::ScpmParams;
use crate::pattern::{AttributeSetReport, Pattern, ScpmResult};

/// The SCORP miner. Construct once per graph/parameter combination and
/// call [`Scorp::run`].
pub struct Scorp<'g> {
    graph: &'g AttributedGraph,
    params: ScpmParams,
    model: AnalyticalModel,
}

/// An attribute set queued for extension.
struct Entry {
    attrs: Vec<AttrId>,
    tids: Tidset,
    cover: Vec<VertexId>,
}

impl<'g> Scorp<'g> {
    /// Binds SCORP to a graph and parameter set. The `δmin`, `k` and
    /// search-order fields of `params` are ignored (SCORP predates them);
    /// everything else is honored.
    pub fn new(graph: &'g AttributedGraph, params: ScpmParams) -> Self {
        let model = AnalyticalModel::new(graph.graph(), &params.quasi_clique);
        Scorp {
            graph,
            params,
            model,
        }
    }

    /// Runs SCORP and returns reports, the complete pattern set of every
    /// qualifying attribute set, and counters.
    pub fn run(&self) -> ScpmResult {
        let start = Instant::now();
        let engine = CorrelationEngine::new(
            self.graph,
            self.params.quasi_clique,
            self.params.search_order,
            self.params.qc_prune,
            self.params.repr,
            self.params.prune.vertex_pruning,
        );
        let mut result = ScpmResult::default();
        let mut level1 = Vec::new();
        for a in self.graph.attributes() {
            if self.graph.support(a) < self.params.sigma_min {
                continue;
            }
            let tids = Tidset::from_sorted(self.graph.vertices_with(a).to_vec());
            if let Some(entry) = self.evaluate(&engine, vec![a], tids, None, &mut result) {
                level1.push(entry);
            }
        }
        self.enumerate_class(&engine, &level1, &mut result);
        result.stats.elapsed = start.elapsed();
        result
    }

    /// Evaluates one attribute set: ε via coverage, the complete maximal
    /// pattern set when it qualifies, and the Theorem-4 extension gate.
    fn evaluate(
        &self,
        engine: &CorrelationEngine<'g>,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        result: &mut ScpmResult,
    ) -> Option<Entry> {
        let support = tids.support();
        let outcome = engine.epsilon(tids.as_slice(), parent_cover);
        result.stats.attribute_sets_examined += 1;
        result.stats.add_coverage(&outcome.stats);
        let epsilon = outcome.epsilon;
        let delta_lb = self.model.normalize(epsilon, support);
        let qualified = epsilon >= self.params.eps_min;

        if attrs.len() >= self.params.min_attrs {
            result.reports.push(AttributeSetReport {
                attrs: attrs.clone(),
                support,
                covered: outcome.covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                result.stats.attribute_sets_qualified += 1;
                // Complete maximal enumeration — SCORP has no top-k bound.
                let restricted = if self.params.prune.vertex_pruning {
                    let mut buf = Vec::new();
                    intersect_into(tids.as_slice(), &outcome.covered, &mut buf);
                    buf
                } else {
                    tids.as_slice().to_vec()
                };
                let (mut cliques, stats) = engine.enumerate_all(&restricted);
                result.stats.add_topk(&stats);
                cliques.sort_by(pattern_order);
                for clique in cliques {
                    result.patterns.push(Pattern {
                        attrs: attrs.clone(),
                        clique,
                    });
                }
            }
        } else if qualified {
            result.stats.attribute_sets_qualified += 1;
        }

        if attrs.len() >= self.params.max_attrs {
            return None;
        }
        // Theorem 4 only.
        let covered_count = outcome.covered.len() as f64;
        if self.params.prune.eps_pruning
            && covered_count < self.params.eps_min * self.params.sigma_min as f64
        {
            result.stats.pruned_eps_bound += 1;
            return None;
        }
        Some(Entry {
            attrs,
            tids,
            cover: outcome.covered,
        })
    }

    /// Prefix-class DFS over attribute sets (identical traversal to SCPM's
    /// Algorithm 3; only the per-set work differs).
    fn enumerate_class(
        &self,
        engine: &CorrelationEngine<'g>,
        class: &[Entry],
        result: &mut ScpmResult,
    ) {
        let mut cover_buf: Vec<VertexId> = Vec::new();
        for (i, base) in class.iter().enumerate() {
            let mut next: Vec<Entry> = Vec::new();
            for sibling in class.iter().skip(i + 1) {
                let tids = base.tids.intersect(&sibling.tids);
                if tids.support() < self.params.sigma_min {
                    result.stats.pruned_support += 1;
                    continue;
                }
                let mut attrs = base.attrs.clone();
                attrs.push(*sibling.attrs.last().expect("non-empty attribute set"));
                let parent_cover = if self.params.prune.vertex_pruning {
                    intersect_into(&base.cover, &sibling.cover, &mut cover_buf);
                    Some(cover_buf.as_slice())
                } else {
                    None
                };
                if let Some(entry) = self.evaluate(engine, attrs, tids, parent_cover, result) {
                    next.push(entry);
                }
            }
            if !next.is_empty() {
                self.enumerate_class(engine, &next, result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Scpm;
    use scpm_graph::figure1::figure1;

    fn table1_params() -> ScpmParams {
        ScpmParams::new(3, 0.6, 4).with_eps_min(0.5)
    }

    fn sorted_patterns(r: &ScpmResult) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut v: Vec<(Vec<u32>, Vec<u32>)> = r
            .patterns
            .iter()
            .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn scorp_reproduces_table1() {
        let g = figure1();
        let result = Scorp::new(&g, table1_params()).run();
        assert_eq!(result.patterns.len(), 7);
    }

    #[test]
    fn scorp_matches_scpm_with_unbounded_k_and_no_delta() {
        let g = figure1();
        let params = table1_params(); // δmin = 0, k unbounded by default
        let scorp = Scorp::new(&g, params.clone()).run();
        let scpm = Scpm::new(&g, params).run();
        assert_eq!(sorted_patterns(&scorp), sorted_patterns(&scpm));
        // Same qualifying sets.
        let q = |r: &ScpmResult| {
            let mut v: Vec<Vec<u32>> = r
                .reports
                .iter()
                .filter(|rep| rep.qualified)
                .map(|rep| rep.attrs.clone())
                .collect();
            v.sort();
            v
        };
        assert_eq!(q(&scorp), q(&scpm));
    }

    #[test]
    fn scorp_ignores_delta_threshold() {
        let g = figure1();
        // A δmin that disqualifies everything under SCPM must not change
        // SCORP's qualifying sets (SCORP predates normalization).
        let params = table1_params().with_delta_min(f64::INFINITY);
        let scorp = Scorp::new(&g, params.clone()).run();
        assert!(scorp.reports.iter().any(|r| r.qualified));
        let scpm = Scpm::new(&g, params).run();
        assert!(scpm.reports.iter().all(|r| !r.qualified));
    }

    #[test]
    fn scorp_reports_delta_for_comparison() {
        let g = figure1();
        let result = Scorp::new(&g, table1_params()).run();
        let a = g.attr_id("A").unwrap();
        let rep = result.report_for(&[a]).unwrap();
        assert!(rep.delta_lb > 0.0);
    }

    #[test]
    fn scorp_theorem4_gate_prunes_hopeless_extensions() {
        let g = figure1();
        let result = Scorp::new(&g, table1_params()).run();
        // {C} and {D} have |K| = 0 < εmin·σmin and must be gate-pruned.
        assert_eq!(result.stats.pruned_eps_bound, 2);
    }
}
