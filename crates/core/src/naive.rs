//! The naive baseline (§3.1): Eclat enumerates every frequent attribute
//! set, and the complete set of maximal quasi-cliques is mined from each
//! induced subgraph — no structural-correlation pruning, no coverage
//! shortcuts, no top-k search-space reduction.
//!
//! The result is semantically identical to [`Scpm`](crate::Scpm) (same
//! reports, same qualifying sets, same patterns); only the running time
//! differs, which is exactly the comparison of Figure 8.

use std::time::Instant;

use scpm_itemset::{eclat_visit, EclatConfig};

use crate::correlation::CorrelationEngine;
use crate::nullmodel::AnalyticalModel;
use crate::params::ScpmParams;
use crate::pattern::{AttributeSetReport, Pattern, ScpmResult};

use scpm_graph::attributed::AttributedGraph;
use scpm_quasiclique::pattern_order;

/// Runs the naive algorithm with the same parameters as SCPM.
pub fn run_naive(graph: &AttributedGraph, params: &ScpmParams) -> ScpmResult {
    let start = Instant::now();
    let model = AnalyticalModel::new(graph.graph(), &params.quasi_clique);
    // No Theorem-3 restriction for the naive baseline.
    let engine = CorrelationEngine::new(
        graph,
        params.quasi_clique,
        params.search_order,
        params.qc_prune,
        params.repr,
        false,
    );
    let mut result = ScpmResult::default();
    let eclat_cfg = EclatConfig {
        min_support: params.sigma_min,
        max_size: params.max_attrs,
    };
    eclat_visit(graph, &eclat_cfg, |itemset| {
        result.stats.attribute_sets_examined += 1;
        let support = itemset.support();
        // Full maximal quasi-clique enumeration of G(S).
        let (cliques, stats) = engine.enumerate_all(itemset.tids.as_slice());
        result.stats.add_coverage(&stats);
        let mut covered: Vec<u32> = cliques
            .iter()
            .flat_map(|q| q.vertices.iter().copied())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        let epsilon = if support == 0 {
            0.0
        } else {
            covered.len() as f64 / support as f64
        };
        let delta_lb = model.normalize(epsilon, support);
        let qualified = epsilon >= params.eps_min && delta_lb >= params.delta_min;
        if itemset.items.len() >= params.min_attrs {
            result.reports.push(AttributeSetReport {
                attrs: itemset.items.clone(),
                support,
                covered: covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                result.stats.attribute_sets_qualified += 1;
                // The enumeration is already sorted by `pattern_order`;
                // keep the best k.
                let mut ranked = cliques;
                ranked.sort_by(pattern_order);
                for clique in ranked.into_iter().take(params.k) {
                    result.patterns.push(Pattern {
                        attrs: itemset.items.clone(),
                        clique,
                    });
                }
            }
        } else if qualified {
            result.stats.attribute_sets_qualified += 1;
        }
    });
    result.stats.elapsed = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Scpm;
    use scpm_graph::figure1::figure1;

    /// Qualified reports only: SCPM's Theorem-4/5 gates legitimately skip
    /// *examining* supersets of hopeless sets, so the full report lists
    /// differ; the qualifying sets and their measurements must not.
    fn sorted_reports(r: &ScpmResult) -> Vec<(Vec<u32>, usize, u64, bool)> {
        let mut v: Vec<(Vec<u32>, usize, u64, bool)> = r
            .reports
            .iter()
            .filter(|rep| rep.qualified)
            .map(|rep| {
                (
                    rep.attrs.clone(),
                    rep.support,
                    (rep.epsilon * 1e12) as u64,
                    rep.qualified,
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Every report SCPM produced must agree with naive's measurement for
    /// the same attribute set.
    fn assert_shared_reports_agree(scpm: &ScpmResult, naive: &ScpmResult) {
        for rep in &scpm.reports {
            let other = naive
                .report_for(&rep.attrs)
                .unwrap_or_else(|| panic!("naive missing {:?}", rep.attrs));
            assert_eq!(rep.support, other.support);
            assert!((rep.epsilon - other.epsilon).abs() < 1e-12);
            assert!(
                (rep.delta_lb - other.delta_lb).abs() < 1e-9
                    || (rep.delta_lb.is_infinite() && other.delta_lb.is_infinite())
            );
            assert_eq!(rep.qualified, other.qualified);
        }
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
    fn naive_matches_scpm_on_figure1() {
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
        let scpm = Scpm::new(&g, params.clone()).run();
        let naive = run_naive(&g, &params);
        assert_eq!(sorted_reports(&scpm), sorted_reports(&naive));
        assert_eq!(sorted_patterns(&scpm), sorted_patterns(&naive));
        assert_shared_reports_agree(&scpm, &naive);
    }

    #[test]
    fn naive_matches_scpm_with_delta_threshold() {
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4)
            .with_eps_min(0.1)
            .with_delta_min(1.0)
            .with_top_k(2);
        let scpm = Scpm::new(&g, params.clone()).run();
        let naive = run_naive(&g, &params);
        assert_eq!(sorted_reports(&scpm), sorted_reports(&naive));
        assert_eq!(sorted_patterns(&scpm), sorted_patterns(&naive));
        assert_shared_reports_agree(&scpm, &naive);
    }

    #[test]
    fn naive_table1_pattern_count() {
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
        let naive = run_naive(&g, &params);
        assert_eq!(naive.patterns.len(), 7);
    }
}
