//! The SCPM algorithm (Algorithms 2 and 3 of the paper).
//!
//! SCPM traverses the attribute-set lattice depth-first using vertical
//! tidset intersections (the Eclat prefix-class scheme the paper builds
//! on), computes the structural correlation of each frequent attribute set
//! via coverage search, emits top-k patterns for qualifying sets, and
//! prunes extensions with Theorems 4 and 5. Theorem 3 shrinks each induced
//! graph before mining: to the parents' covered vertices, or, for a set
//! without parents, to the `z`-core of the whole graph, computed once per
//! [`Scpm`].

use std::sync::Arc;
use std::time::Instant;

use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_graph::bitadj::VertexBitset;
use scpm_graph::csr::{intersect_into, VertexId};
use scpm_graph::kcore::k_core_mask;
use scpm_itemset::Tidset;

use crate::correlation::CorrelationEngine;
use crate::incremental::{EvalRecord, IncrementalCtx};
use crate::nullmodel::{AnalyticalModel, NullModelCache};
use crate::params::ScpmParams;
use crate::pattern::{AttributeSetReport, Pattern, ScpmResult};

/// Largest mining subgraph (by vertex count) an [`EnumEntry`] keeps alive
/// for child projection. Entries survive until their branch (or scheduler
/// task class) completes, so an uncapped frontier over hub attributes
/// would pin many large CSR copies simultaneously; over-cap entries store
/// `None` and their children fall back to global extraction (identical
/// results, pre-projection cost).
const PROJECT_RETAIN_MAX_VERTICES: usize = 1 << 14;

/// An attribute set queued for extension: its attributes, tidset `V(S)`,
/// covered set `K_S`, and (when one was built and is under
/// [`PROJECT_RETAIN_MAX_VERTICES`]) its mining subgraph `G[mining(S)]` —
/// children project their subgraphs out of it instead of re-extracting
/// from the global graph (`Arc` because the work-stealing driver shares
/// entries across workers).
#[derive(Clone, Debug)]
pub(crate) struct EnumEntry {
    pub attrs: Vec<AttrId>,
    pub tids: Tidset,
    pub cover: Vec<VertexId>,
    pub sub: Option<Arc<scpm_graph::induced::InducedSubgraph>>,
    /// Incremental runs only: whether this entry was replayed from the
    /// previous generation's memo, so its cover — and therefore the mining
    /// set it restricts its children to — is bit-identical to the previous
    /// run's. A child may only replay its own memo record when *both*
    /// parents are stable; entries evaluated live are conservatively
    /// unstable. Non-incremental runs never read the flag.
    pub stable: bool,
}

/// The SCPM miner. Construct once per graph/parameter combination and call
/// [`Scpm::run`].
///
/// ```
/// use scpm_core::{Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// // Figure 1 with Table 1's parameters: σmin = 3, γmin = 0.6,
/// // min_size = 4, εmin = 0.5 — exactly seven patterns qualify.
/// let g = figure1();
/// let result = Scpm::new(&g, ScpmParams::new(3, 0.6, 4).with_eps_min(0.5)).run();
/// assert_eq!(result.patterns.len(), 7);
/// assert_eq!(result.stats.attribute_sets_qualified, 3); // {A}, {B}, {A,B}
/// ```
pub struct Scpm<'g> {
    graph: &'g AttributedGraph,
    params: ScpmParams,
    model: AnalyticalModel,
    /// The `z`-core of the whole graph, shared by every engine of the run.
    core: Arc<VertexBitset>,
    incr: Option<IncrementalCtx>,
}

impl<'g> Scpm<'g> {
    /// Binds the algorithm to a graph and parameter set (building the
    /// analytical null model of Theorem 2 once).
    pub fn new(graph: &'g AttributedGraph, params: ScpmParams) -> Self {
        let model = AnalyticalModel::new(graph.graph(), &params.quasi_clique);
        Self::bind(graph, params, model)
    }

    /// The in-memory constructors' common tail: peels the global `z`-core
    /// (`O(n + m)`, once per graph version and parameter set).
    fn bind(graph: &'g AttributedGraph, params: ScpmParams, model: AnalyticalModel) -> Self {
        let z = params.quasi_clique.min_required_degree();
        let core = Arc::new(k_core_mask(graph.graph(), z));
        Self::with_model(graph, params, model, core)
    }

    /// Like [`Scpm::new`], but memoizing `exp(σ)` in a caller-provided
    /// [`NullModelCache`]. Repeated runs over the *same graph* — parameter
    /// sweeps, the experiment binaries, the parallel driver's workers —
    /// share one cache so each support value is evaluated once globally.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use scpm_core::{NullModelCache, Scpm, ScpmParams};
    /// use scpm_graph::figure1::figure1;
    ///
    /// let g = figure1();
    /// let cache = Arc::new(NullModelCache::new());
    /// let params = ScpmParams::new(3, 0.6, 4);
    /// let first = Scpm::with_cache(&g, params.clone(), cache.clone()).run();
    /// let warm = Scpm::with_cache(&g, params, cache.clone()).run();
    ///
    /// // The second run found every exp(σ) it needed already memoized.
    /// assert!(cache.hits() > 0);
    /// assert_eq!(first.reports.len(), warm.reports.len());
    /// ```
    pub fn with_cache(
        graph: &'g AttributedGraph,
        params: ScpmParams,
        cache: Arc<NullModelCache>,
    ) -> Self {
        let model = AnalyticalModel::new(graph.graph(), &params.quasi_clique).with_cache(cache);
        Self::bind(graph, params, model)
    }

    /// Binds the algorithm to a graph with a caller-supplied null model
    /// instead of deriving one from `graph`'s topology. This is the
    /// out-of-core driver's constructor: [`crate::segments`] evaluates
    /// attribute sets on per-segment *working* graphs (only the edges
    /// among the segment roots' core vertices), but ε must still be
    /// normalized against the **full** graph's degree distribution — a
    /// model built from the working graph would skew `exp(σ)` and flip δ
    /// decisions.
    /// For the same reason `core` is the **full** graph's `z`-core with
    /// `z = ⌈γ(min_size−1)⌉`: a working graph's own core is smaller.
    ///
    /// The caller is responsible for `model` and `core` describing the same
    /// vertex universe `graph` was built over.
    pub fn with_model(
        graph: &'g AttributedGraph,
        params: ScpmParams,
        model: AnalyticalModel,
        core: Arc<VertexBitset>,
    ) -> Self {
        debug_assert_eq!(core.universe(), graph.num_vertices());
        Scpm {
            graph,
            params,
            model,
            core,
            incr: None,
        }
    }

    /// Attaches an incremental context (see [`crate::incremental`]): a
    /// recording context fills an evaluation memo during an otherwise
    /// ordinary run; an update context additionally replays memo records
    /// for attribute sets outside the delta's dirty region. The run's
    /// reports, patterns and counters are byte-identical either way.
    pub fn with_incremental(mut self, ctx: IncrementalCtx) -> Self {
        self.incr = Some(ctx);
        self
    }

    /// Detaches the incremental context after a run, yielding the memo
    /// recorded for the next generation and this run's reuse counters.
    pub fn take_incremental(&mut self) -> Option<IncrementalCtx> {
        self.incr.take()
    }

    /// The shared `exp(σ)` memo of this run's null model.
    pub fn null_cache(&self) -> &Arc<NullModelCache> {
        self.model.cache()
    }

    /// The underlying null model (shared with examples and benches).
    pub fn model(&self) -> &AnalyticalModel {
        &self.model
    }

    /// The bound parameters.
    pub fn params(&self) -> &ScpmParams {
        &self.params
    }

    /// The bound graph.
    pub fn graph(&self) -> &AttributedGraph {
        self.graph
    }

    /// A correlation engine bound to this run's graph and parameters
    /// (useful for ad-hoc ε evaluations outside a full run). It restricts
    /// every mining set to the global `z`-core; its results equal an
    /// unfiltered [`CorrelationEngine::new`]'s.
    pub fn engine(&self) -> CorrelationEngine<'g> {
        CorrelationEngine::new(
            self.graph,
            self.params.quasi_clique,
            self.params.search_order,
            self.params.qc_prune,
            self.params.repr,
            self.params.prune.vertex_pruning,
        )
        .with_core(Arc::clone(&self.core))
    }

    /// Runs SCPM and returns all reports, patterns and counters.
    pub fn run(&self) -> ScpmResult {
        let start = Instant::now();
        let engine = self.engine();
        let mut result = ScpmResult::default();
        let level1 = self.level1_entries(&engine, &mut result);
        self.enumerate_class(&engine, &level1, &mut result);
        result.stats.elapsed = start.elapsed();
        result
    }

    /// Level 1 of Algorithm 2: frequent single attributes, their ε/δ and
    /// the survivors of the extension gates.
    pub(crate) fn level1_entries(
        &self,
        engine: &CorrelationEngine<'g>,
        result: &mut ScpmResult,
    ) -> Vec<EnumEntry> {
        let mut entries = Vec::new();
        for a in self.graph.attributes() {
            if self.graph.support(a) < self.params.sigma_min {
                continue;
            }
            let tids = Tidset::from_sorted(self.graph.vertices_with(a).to_vec());
            if let Some(entry) = self.evaluate(engine, vec![a], tids, None, None, true, result) {
                entries.push(entry);
            }
        }
        entries
    }

    /// Evaluates one attribute set: computes ε and δ_lb (projecting the
    /// mining subgraph from `parent_sub` when the caller holds one),
    /// records the report, emits top-k patterns when the set qualifies
    /// (reusing the coverage subgraph), and returns an [`EnumEntry`] when
    /// the Theorem 4/5 gates allow extension.
    ///
    /// Under an update context, a clean set with stable parents and a memo
    /// record takes its cover, coverage counters and any cached top-k from
    /// the record instead of searching (see [`crate::incremental`]).
    /// `parents_stable` must be true only when every parent entry's cover
    /// is bit-identical to the previous generation's (level 1 has no
    /// parents and passes `true`). Replay is sound because a clean set's
    /// `V(S)` and `G(S)` are unchanged, so ε and `K_S` are too, and stable
    /// parents make the restricted mining set — and with it every search
    /// counter — bit-identical. A parentless set's mining set is cut to
    /// the global `z`-core, which a delta elsewhere may move; the search
    /// still sees the same `z`-core of `G(S)`, so its counters do not
    /// move either (see [`crate::correlation`]). δ_lb and the Theorem-5
    /// floor are always recomputed against the current null model, so
    /// qualification may flip even for a replayed set; one that turns
    /// qualified without a cached top-k runs its top-k search live (the
    /// global-extraction search is byte-equivalent to the projected one a
    /// full mine would run).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn evaluate(
        &self,
        engine: &CorrelationEngine<'g>,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        parent_sub: Option<&scpm_graph::induced::InducedSubgraph>,
        parents_stable: bool,
        result: &mut ScpmResult,
    ) -> Option<EnumEntry> {
        let support = tids.support();
        let memo = self
            .incr
            .as_ref()
            .and_then(|ctx| ctx.replayable(&attrs, parents_stable).cloned());
        let replayed = memo.is_some();
        // The only branch: the record (cover, ε, coverage counters, any
        // cached top-k) comes from the memo or from a live coverage search,
        // which also yields the mining subgraph. Everything below is shared.
        let (mut record, sub) = match memo {
            Some(record) => {
                debug_assert_eq!(
                    support, record.support,
                    "replayed a set whose support changed — dirty-set bug"
                );
                (record, None)
            }
            None => {
                let o = engine.epsilon_projected(tids.as_slice(), parent_cover, parent_sub);
                let record = EvalRecord {
                    support,
                    epsilon: o.epsilon,
                    covered: o.covered,
                    coverage_stats: o.stats,
                    sub_built: o.sub.is_some(),
                    topk: None,
                };
                (record, o.sub)
            }
        };
        let coverage_ops = record.coverage_stats.kernel_ops;
        let (mut live_ops, mut reused_ops) = if replayed {
            (0, coverage_ops)
        } else {
            (coverage_ops, 0)
        };
        result.stats.attribute_sets_examined += 1;
        result.stats.add_coverage(&record.coverage_stats);
        let epsilon = record.epsilon;
        let delta_lb = self.model.normalize(epsilon, support);
        let qualified = epsilon >= self.params.eps_min && delta_lb >= self.params.delta_min;

        if attrs.len() >= self.params.min_attrs {
            result.reports.push(AttributeSetReport {
                attrs: attrs.clone(),
                support,
                covered: record.covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                result.stats.attribute_sets_qualified += 1;
                if record.sub_built {
                    let (cliques, tk_stats) = match record.topk.take() {
                        Some(cached) => {
                            reused_ops += cached.1.kernel_ops;
                            cached
                        }
                        None => {
                            // The top-k search runs on the same mining set
                            // as the coverage search — reuse its subgraph
                            // verbatim when this evaluation built one.
                            let live = match sub.as_deref() {
                                Some(sub) => engine.top_k_on(sub, self.params.k),
                                None => engine.top_k(tids.as_slice(), parent_cover, self.params.k),
                            };
                            live_ops += live.1.kernel_ops;
                            live
                        }
                    };
                    result.stats.add_topk(&tk_stats);
                    for clique in &cliques {
                        result.patterns.push(Pattern {
                            attrs: attrs.clone(),
                            clique: clique.clone(),
                        });
                    }
                    record.topk = Some((cliques, tk_stats));
                }
            }
        } else if qualified {
            result.stats.attribute_sets_qualified += 1;
        }

        if let Some(ctx) = &self.incr {
            ctx.count(replayed, live_ops, reused_ops);
            ctx.store(
                &attrs,
                EvalRecord {
                    covered: record.covered.clone(),
                    ..record
                },
            );
        }

        // Extension gates (Theorems 4 and 5): `|K_S|` bounds `ε`/`δ` of any
        // superset with support ≥ σmin.
        if attrs.len() >= self.params.max_attrs {
            return None;
        }
        let covered_count = record.covered.len() as f64;
        let sigma_min = self.params.sigma_min as f64;
        if self.params.prune.eps_pruning && covered_count < self.params.eps_min * sigma_min {
            result.stats.pruned_eps_bound += 1;
            return None;
        }
        if self.params.prune.delta_pruning {
            let exp_floor = self.model.expected(self.params.sigma_min);
            if covered_count < self.params.delta_min * exp_floor * sigma_min {
                result.stats.pruned_delta_bound += 1;
                return None;
            }
        }
        // Retain the mining subgraph for child projection only when it is
        // modestly sized: a frontier entry lives until its whole branch
        // (or, under the work-stealing driver, its task class) drains, so
        // retaining hub-attribute subgraphs without a cap would hold many
        // large CSR copies at once. Children of an over-cap entry — and of
        // a replayed entry, which has no subgraph — extract from the
        // global graph: identical results, pre-projection cost.
        let sub = sub.filter(|s| s.num_vertices() <= PROJECT_RETAIN_MAX_VERTICES);
        Some(EnumEntry {
            attrs,
            tids,
            cover: record.covered,
            sub,
            stable: replayed,
        })
    }

    /// Algorithm 3 over a prefix class: every entry is extended with each
    /// later entry of the same class, depth-first.
    pub(crate) fn enumerate_class(
        &self,
        engine: &CorrelationEngine<'g>,
        class: &[EnumEntry],
        result: &mut ScpmResult,
    ) {
        for i in 0..class.len() {
            self.enumerate_branch(engine, class, i, result);
        }
    }

    /// One branch of Algorithm 3: extends `class[i]` with every later
    /// sibling, then recurses into the new class.
    pub(crate) fn enumerate_branch(
        &self,
        engine: &CorrelationEngine<'g>,
        class: &[EnumEntry],
        i: usize,
        result: &mut ScpmResult,
    ) {
        let next = self.extend_branch(engine, class, i, result);
        if !next.is_empty() {
            self.enumerate_class(engine, &next, result);
        }
    }

    /// The extension step of one branch, *without* the recursion: evaluates
    /// every `class[i] ∪ {sibling}` (emitting their reports/patterns into
    /// `result` in sibling order) and returns the surviving child class.
    /// [`Scpm::enumerate_branch`] recurses on the return value; the
    /// work-stealing driver instead turns each child branch into a
    /// stealable task.
    pub(crate) fn extend_branch(
        &self,
        engine: &CorrelationEngine<'g>,
        class: &[EnumEntry],
        i: usize,
        result: &mut ScpmResult,
    ) -> Vec<EnumEntry> {
        let mut next: Vec<EnumEntry> = Vec::new();
        let mut cover_buf: Vec<VertexId> = Vec::new();
        for j in (i + 1)..class.len() {
            if let Some(entry) = self.extend_pair(engine, class, i, j, &mut cover_buf, result) {
                next.push(entry);
            }
        }
        next
    }

    /// One iteration of the extension loop: evaluates
    /// `class[i] ∪ {class[j]}`'s new attribute, emitting its report into
    /// `result` and returning the child [`EnumEntry`] when the set stays
    /// extensible. `cover_buf` is caller-provided scratch for the
    /// Theorem 3 cover intersection. This is the work-stealing driver's
    /// finest task granularity.
    pub(crate) fn extend_pair(
        &self,
        engine: &CorrelationEngine<'g>,
        class: &[EnumEntry],
        i: usize,
        j: usize,
        cover_buf: &mut Vec<VertexId>,
        result: &mut ScpmResult,
    ) -> Option<EnumEntry> {
        self.extend_pair_refs(engine, &class[i], &class[j], cover_buf, result)
    }

    /// [`Scpm::extend_pair`] on explicit entry references. The out-of-core
    /// driver ([`crate::segments`]) calls this with `sibling` entries it
    /// materializes one at a time from spilled covers and the mapped
    /// inverted index, so a root's whole sibling class never has to be
    /// resident at once.
    pub(crate) fn extend_pair_refs(
        &self,
        engine: &CorrelationEngine<'g>,
        base: &EnumEntry,
        sibling: &EnumEntry,
        cover_buf: &mut Vec<VertexId>,
        result: &mut ScpmResult,
    ) -> Option<EnumEntry> {
        // Fused intersect-and-threshold: the σmin gate abandons the merge
        // as soon as the remaining tids cannot reach it.
        let Some(tids) = base
            .tids
            .intersect_min_support(&sibling.tids, self.params.sigma_min)
        else {
            result.stats.pruned_support += 1;
            return None;
        };
        let mut attrs = base.attrs.clone();
        attrs.push(*sibling.attrs.last().expect("non-empty attribute set"));
        // Theorem 3: the child's cover is contained in both parents'.
        let parent_cover = if self.params.prune.vertex_pruning {
            intersect_into(&base.cover, &sibling.cover, cover_buf);
            Some(cover_buf.as_slice())
        } else {
            None
        };
        // The child's mining set is contained in `base`'s (the tidset
        // shrinks, and the cover restriction lies inside `base`'s mining
        // set), so the child subgraph projects out of `base.sub`.
        self.evaluate(
            engine,
            attrs,
            tids,
            parent_cover,
            base.sub.as_deref(),
            base.stable && sibling.stable,
            result,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::figure1::{figure1, paper_vertex};

    fn table1_params() -> ScpmParams {
        ScpmParams::new(3, 0.6, 4).with_eps_min(0.5)
    }

    #[test]
    fn figure1_qualifying_sets_match_table1() {
        let g = figure1();
        let scpm = Scpm::new(&g, table1_params());
        let result = scpm.run();
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let mut qualified: Vec<Vec<AttrId>> = result
            .reports
            .iter()
            .filter(|r| r.qualified)
            .map(|r| r.attrs.clone())
            .collect();
        qualified.sort();
        let mut expect = vec![vec![a], vec![b], vec![a, b]];
        expect.sort();
        assert_eq!(qualified, expect);
    }

    #[test]
    fn figure1_pattern_rows_match_table1() {
        let g = figure1();
        let result = Scpm::new(&g, table1_params()).run();
        // Table 1 has exactly 7 rows.
        assert_eq!(result.patterns.len(), 7);
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let set = |labels: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = labels.iter().map(|&l| paper_vertex(l)).collect();
            v.sort_unstable();
            v
        };
        let mut rows: Vec<(Vec<AttrId>, Vec<u32>)> = result
            .patterns
            .iter()
            .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
            .collect();
        rows.sort();
        let mut expect = vec![
            (vec![a], set(&[6, 7, 8, 9, 10, 11])),
            (vec![a], set(&[3, 4, 5, 6])),
            (vec![a], set(&[3, 4, 6, 7])),
            (vec![a], set(&[3, 5, 6, 7])),
            (vec![a], set(&[3, 6, 7, 8])),
            (vec![b], set(&[6, 7, 8, 9, 10, 11])),
            (vec![a, b], set(&[6, 7, 8, 9, 10, 11])),
        ];
        expect.sort();
        assert_eq!(rows, expect);
    }

    #[test]
    fn figure1_epsilon_and_support_columns() {
        let g = figure1();
        let result = Scpm::new(&g, table1_params()).run();
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let ra = result.report_for(&[a]).unwrap();
        assert_eq!(ra.support, 11);
        assert!((ra.epsilon - 9.0 / 11.0).abs() < 1e-12);
        let rab = result.report_for(&[a, b]).unwrap();
        assert_eq!(rab.support, 6);
        assert!((rab.epsilon - 1.0).abs() < 1e-12);
        let rb = result.report_for(&[b]).unwrap();
        assert_eq!(rb.support, 6);
        assert!((rb.epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eps_min_filters_but_does_not_block_extension() {
        // With εmin = 0.9 the set {A} (ε = 0.82) must not qualify, yet
        // {A,B} (ε = 1.0) must still be found.
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.9);
        let result = Scpm::new(&g, params).run();
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        assert!(!result.report_for(&[a]).unwrap().qualified);
        assert!(result.report_for(&[a, b]).unwrap().qualified);
    }

    #[test]
    fn top_k_limits_patterns_per_set() {
        let g = figure1();
        let params = table1_params().with_top_k(1);
        let result = Scpm::new(&g, params).run();
        let a = g.attr_id("A").unwrap();
        let pa = result.patterns_for(&[a]);
        assert_eq!(pa.len(), 1);
        // The largest pattern for {A} is the size-6 quasi-clique.
        assert_eq!(pa[0].clique.size(), 6);
    }

    #[test]
    fn min_attrs_suppresses_singleton_reports() {
        let g = figure1();
        let params = table1_params().with_min_attrs(2);
        let result = Scpm::new(&g, params).run();
        assert!(result.reports.iter().all(|r| r.attrs.len() >= 2));
        // {A,B} still present.
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        assert!(result.report_for(&[a, b]).is_some());
    }

    #[test]
    fn max_attrs_limits_depth() {
        let g = figure1();
        let params = ScpmParams::new(1, 0.6, 4).with_max_attrs(1);
        let result = Scpm::new(&g, params).run();
        assert!(result.reports.iter().all(|r| r.attrs.len() == 1));
    }

    #[test]
    fn stats_counters_track_run() {
        let g = figure1();
        let result = Scpm::new(&g, table1_params()).run();
        // Level 1 examines {A}, {B}, {C}, {D} (E is infrequent); {C} and
        // {D} have |K| = 0 and are Theorem-4 pruned, so only {A,B} is
        // examined at level 2.
        assert_eq!(result.stats.attribute_sets_examined, 5);
        assert_eq!(result.stats.pruned_eps_bound, 2);
        assert_eq!(result.stats.attribute_sets_qualified, 3);
        assert!(result.stats.qc_nodes_coverage > 0);
        assert!(result.stats.elapsed.as_nanos() > 0);
    }
}
