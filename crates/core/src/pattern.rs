//! Output types of structural correlation pattern mining.

use std::time::Duration;

use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_graph::csr::VertexId;
use scpm_quasiclique::{QuasiClique, SearchStats};

/// A structural correlation pattern `(S, Q)` (Definition 3): a quasi-clique
/// `Q` from the subgraph induced by the attribute set `S`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern {
    /// Sorted attribute ids of `S`.
    pub attrs: Vec<AttrId>,
    /// The quasi-clique, in global vertex ids.
    pub clique: QuasiClique,
}

impl Pattern {
    /// Formats the pattern like the paper's tables:
    /// `({attr, attr}, {v, v, ...})  size  γ`.
    pub fn display(&self, g: &AttributedGraph) -> String {
        let vertices: Vec<String> = self.clique.vertices.iter().map(|v| v.to_string()).collect();
        format!(
            "({}, {{{}}}) size={} gamma={:.2}",
            g.format_attr_set(&self.attrs),
            vertices.join(","),
            self.clique.size(),
            self.clique.min_degree_ratio
        )
    }
}

/// Per-attribute-set measurements: support, structural correlation and its
/// normalization.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributeSetReport {
    /// Sorted attribute ids.
    pub attrs: Vec<AttrId>,
    /// Support `σ(S) = |V(S)|`.
    pub support: usize,
    /// Number of covered vertices `|K_S|`.
    pub covered: usize,
    /// Structural correlation `ε(S) = |K_S| / |V(S)|`.
    pub epsilon: f64,
    /// Normalized structural correlation `δ_lb = ε / max-exp(σ)`.
    pub delta_lb: f64,
    /// Whether the set passed both `εmin` and `δmin` (patterns were
    /// emitted for it).
    pub qualified: bool,
}

/// Counters describing an SCPM (or naive) run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScpmStats {
    /// Attribute sets whose structural correlation was computed.
    pub attribute_sets_examined: u64,
    /// Attribute sets passing both `εmin` and `δmin`.
    pub attribute_sets_qualified: u64,
    /// Candidate extensions rejected by the support threshold.
    pub pruned_support: u64,
    /// Always 0: no driver increments it since the breadth-first
    /// (Apriori all-subsets) lattice driver was removed. Kept so the
    /// `/mine` stats schema and its `pruned_apriori` JSON key stay stable.
    pub pruned_apriori: u64,
    /// Extensions suppressed by Theorem 4 (`ε` upper bound).
    pub pruned_eps_bound: u64,
    /// Extensions suppressed by Theorem 5 (`δ` upper bound).
    pub pruned_delta_bound: u64,
    /// Total quasi-clique search nodes across all coverage computations.
    pub qc_nodes_coverage: u64,
    /// Total quasi-clique search nodes across all top-k computations.
    pub qc_nodes_topk: u64,
    /// Point adjacency/membership queries answered by the quasi-clique
    /// engine's hot loops, summed over all searches of the run.
    pub qc_edge_tests: u64,
    /// Modeled engine hot-loop work: elements touched by slice scans or
    /// `u64` words touched by bitset kernels (see
    /// [`SearchStats::kernel_ops`](scpm_quasiclique::SearchStats)). The
    /// hardware-independent figure `exp_perf` compares across
    /// representations.
    pub qc_kernel_ops: u64,
    /// Fused single-pass kernel invocations, summed over all searches
    /// (bitset hot path plus the shared packed containment filter); see
    /// [`SearchStats::fused_ops`](scpm_quasiclique::SearchStats).
    pub qc_fused_ops: u64,
    /// Always 0: no search increments
    /// [`SearchStats::blocks_skipped`](scpm_quasiclique::SearchStats)
    /// since the `VertexBitset` summary hierarchy was removed. Kept so the
    /// `/mine` stats schema and its `qc_blocks_skipped` JSON key stay
    /// stable.
    pub qc_blocks_skipped: u64,
    /// Point probes the batched row-AND promotion kernels answered in
    /// bulk (bitset path only), summed over all searches; see
    /// [`SearchStats::probes_elided`](scpm_quasiclique::SearchStats).
    pub qc_probes_elided: u64,
    /// `u64` words touched by the batched promotion sweeps, summed over
    /// all searches; see
    /// [`SearchStats::batch_ops`](scpm_quasiclique::SearchStats).
    pub qc_batch_ops: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl ScpmStats {
    /// Merges counters from another run segment (parallel workers).
    pub fn merge(&mut self, other: &ScpmStats) {
        self.attribute_sets_examined += other.attribute_sets_examined;
        self.attribute_sets_qualified += other.attribute_sets_qualified;
        self.pruned_support += other.pruned_support;
        self.pruned_apriori += other.pruned_apriori;
        self.pruned_eps_bound += other.pruned_eps_bound;
        self.pruned_delta_bound += other.pruned_delta_bound;
        self.qc_nodes_coverage += other.qc_nodes_coverage;
        self.qc_nodes_topk += other.qc_nodes_topk;
        self.qc_edge_tests += other.qc_edge_tests;
        self.qc_kernel_ops += other.qc_kernel_ops;
        self.qc_fused_ops += other.qc_fused_ops;
        self.qc_blocks_skipped += other.qc_blocks_skipped;
        self.qc_probes_elided += other.qc_probes_elided;
        self.qc_batch_ops += other.qc_batch_ops;
        // `elapsed` is wall-clock and set by the driver, not summed.
    }

    /// Folds one coverage search's counters into the run totals.
    pub fn add_coverage(&mut self, s: &SearchStats) {
        self.qc_nodes_coverage += s.nodes_visited;
        self.add_work(s);
    }

    /// Folds one top-k search's counters into the run totals.
    pub fn add_topk(&mut self, s: &SearchStats) {
        self.qc_nodes_topk += s.nodes_visited;
        self.add_work(s);
    }

    /// The work counters both search kinds share.
    fn add_work(&mut self, s: &SearchStats) {
        self.qc_edge_tests += s.edge_tests;
        self.qc_kernel_ops += s.kernel_ops;
        self.qc_fused_ops += s.fused_ops;
        self.qc_blocks_skipped += s.blocks_skipped;
        self.qc_probes_elided += s.probes_elided;
        self.qc_batch_ops += s.batch_ops;
    }
}

/// Full result of a mining run.
#[derive(Clone, Debug, Default)]
pub struct ScpmResult {
    /// One report per examined attribute set (support ≥ σmin), in
    /// enumeration order.
    pub reports: Vec<AttributeSetReport>,
    /// Patterns of all qualifying attribute sets.
    pub patterns: Vec<Pattern>,
    /// Run counters.
    pub stats: ScpmStats,
}

impl ScpmResult {
    /// Reports sorted by descending support.
    pub fn top_by_support(&self, limit: usize) -> Vec<&AttributeSetReport> {
        self.top_by(limit, |r| r.support as f64)
    }

    /// Reports sorted by descending structural correlation.
    pub fn top_by_epsilon(&self, limit: usize) -> Vec<&AttributeSetReport> {
        self.top_by(limit, |r| r.epsilon)
    }

    /// Reports sorted by descending normalized structural correlation.
    pub fn top_by_delta(&self, limit: usize) -> Vec<&AttributeSetReport> {
        self.top_by(limit, |r| r.delta_lb)
    }

    fn top_by(
        &self,
        limit: usize,
        key: impl Fn(&AttributeSetReport) -> f64,
    ) -> Vec<&AttributeSetReport> {
        let mut refs: Vec<&AttributeSetReport> = self.reports.iter().collect();
        refs.sort_by(|a, b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.attrs.cmp(&b.attrs))
        });
        refs.truncate(limit);
        refs
    }

    /// The largest pattern (by size, then density), if any.
    pub fn largest_pattern(&self) -> Option<&Pattern> {
        self.patterns
            .iter()
            .min_by(|a, b| scpm_quasiclique::pattern_order(&a.clique, &b.clique))
    }

    /// Looks up the report of an exact attribute set.
    pub fn report_for(&self, attrs: &[AttrId]) -> Option<&AttributeSetReport> {
        self.reports.iter().find(|r| r.attrs == attrs)
    }

    /// Patterns belonging to one attribute set.
    pub fn patterns_for(&self, attrs: &[AttrId]) -> Vec<&Pattern> {
        self.patterns.iter().filter(|p| p.attrs == attrs).collect()
    }

    /// Patterns whose quasi-clique contains vertex `v` — the serving
    /// layer's "which patterns cover user v?" query. Clique vertex lists
    /// are sorted, so each pattern is a binary search.
    pub fn patterns_covering(&self, v: VertexId) -> Vec<&Pattern> {
        self.patterns
            .iter()
            .filter(|p| p.clique.vertices.binary_search(&v).is_ok())
            .collect()
    }

    /// Reports whose normalized structural correlation reaches
    /// `delta_min`, in enumeration order.
    pub fn reports_with_min_delta(&self, delta_min: f64) -> Vec<&AttributeSetReport> {
        self.reports
            .iter()
            .filter(|r| r.delta_lb >= delta_min)
            .collect()
    }
}

/// Convenience for tests and examples: patterns as
/// `(attr names, vertex set)` pairs.
pub fn describe_patterns(
    g: &AttributedGraph,
    patterns: &[Pattern],
) -> Vec<(Vec<String>, Vec<VertexId>)> {
    patterns
        .iter()
        .map(|p| {
            (
                p.attrs
                    .iter()
                    .map(|&a| g.attr_name(a).to_string())
                    .collect(),
                p.clique.vertices.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(attrs: Vec<AttrId>, support: usize, eps: f64, delta: f64) -> AttributeSetReport {
        AttributeSetReport {
            attrs,
            support,
            covered: (support as f64 * eps) as usize,
            epsilon: eps,
            delta_lb: delta,
            qualified: true,
        }
    }

    #[test]
    fn search_stats_roll_up_into_their_own_fields() {
        let s = SearchStats {
            nodes_visited: 1,
            edge_tests: 2,
            kernel_ops: 3,
            fused_ops: 4,
            blocks_skipped: 5,
            probes_elided: 6,
            batch_ops: 7,
            // Prune and emission events have no run-level counter.
            pruned_feasibility: 100,
            emitted: 100,
            ..SearchStats::default()
        };
        let work = ScpmStats {
            qc_edge_tests: 2,
            qc_kernel_ops: 3,
            qc_fused_ops: 4,
            qc_blocks_skipped: 5,
            qc_probes_elided: 6,
            qc_batch_ops: 7,
            ..ScpmStats::default()
        };

        let mut coverage = ScpmStats::default();
        coverage.add_coverage(&s);
        assert_eq!(
            coverage,
            ScpmStats {
                qc_nodes_coverage: 1,
                ..work
            }
        );

        let mut topk = ScpmStats::default();
        topk.add_topk(&s);
        assert_eq!(
            topk,
            ScpmStats {
                qc_nodes_topk: 1,
                ..work
            }
        );
    }

    #[test]
    fn top_by_orderings() {
        let result = ScpmResult {
            reports: vec![
                report(vec![0], 100, 0.1, 5.0),
                report(vec![1], 50, 0.9, 1.0),
                report(vec![2], 75, 0.5, 9.0),
            ],
            patterns: Vec::new(),
            stats: ScpmStats::default(),
        };
        let by_sup: Vec<usize> = result.top_by_support(2).iter().map(|r| r.support).collect();
        assert_eq!(by_sup, vec![100, 75]);
        let by_eps: Vec<f64> = result.top_by_epsilon(3).iter().map(|r| r.epsilon).collect();
        assert_eq!(by_eps, vec![0.9, 0.5, 0.1]);
        let by_delta: Vec<f64> = result.top_by_delta(1).iter().map(|r| r.delta_lb).collect();
        assert_eq!(by_delta, vec![9.0]);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = ScpmStats {
            attribute_sets_examined: 3,
            pruned_support: 1,
            ..Default::default()
        };
        let b = ScpmStats {
            attribute_sets_examined: 4,
            pruned_eps_bound: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.attribute_sets_examined, 7);
        assert_eq!(a.pruned_support, 1);
        assert_eq!(a.pruned_eps_bound, 2);
    }

    #[test]
    fn covering_and_delta_queries() {
        let clique = |vertices: Vec<VertexId>| QuasiClique {
            vertices,
            min_degree_ratio: 1.0,
            edge_density: 1.0,
        };
        let result = ScpmResult {
            reports: vec![
                report(vec![0], 10, 0.5, 2.0),
                report(vec![1], 8, 0.4, 0.5),
                report(vec![2], 6, 0.9, 3.5),
            ],
            patterns: vec![
                Pattern {
                    attrs: vec![0],
                    clique: clique(vec![1, 3, 5]),
                },
                Pattern {
                    attrs: vec![2],
                    clique: clique(vec![2, 3, 4]),
                },
            ],
            stats: ScpmStats::default(),
        };
        assert_eq!(result.patterns_covering(3).len(), 2);
        assert_eq!(result.patterns_covering(5).len(), 1);
        assert!(result.patterns_covering(9).is_empty());
        let deltas: Vec<f64> = result
            .reports_with_min_delta(2.0)
            .iter()
            .map(|r| r.delta_lb)
            .collect();
        assert_eq!(deltas, vec![2.0, 3.5]); // enumeration order, inclusive
        assert_eq!(result.reports_with_min_delta(0.0).len(), 3);
    }

    #[test]
    fn report_lookup() {
        let result = ScpmResult {
            reports: vec![report(vec![1, 2], 10, 0.5, 2.0)],
            patterns: Vec::new(),
            stats: ScpmStats::default(),
        };
        assert!(result.report_for(&[1, 2]).is_some());
        assert!(result.report_for(&[1]).is_none());
    }
}
