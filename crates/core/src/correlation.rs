//! Structural correlation computation (Definition 2 and §3.2.2).
//!
//! For an attribute set `S` with induced vertex set `V(S)`, the structural
//! correlation is `ε(S) = |K_S| / |V(S)|` where `K_S` is the set of
//! vertices of `G(S)` covered by γ-quasi-cliques. Coverage is computed by
//! the quasi-clique engine in coverage mode — no full enumeration needed.
//!
//! Theorem 3 (vertex pruning) is applied here, twice over:
//!
//! - **Globally, before extraction.** Every vertex of a γ-quasi-clique of
//!   size ≥ `min_size` has at least `z = ⌈γ(min_size−1)⌉` neighbours in it,
//!   so the search keeps only the `z`-core of `G[mining(S)]`. `G(S)` is an
//!   induced subgraph of `G`, so that core lies inside the `z`-core `C` of
//!   `G`; and since `G[mining(S) ∩ C]` still contains it, its own `z`-core
//!   is the same vertex set with the same edges. An engine built by
//!   [`crate::Scpm`] therefore drops `V(S) \ C` before extracting — an
//!   `O(|V(S)|)` mask filter — and the search sees the very graph, the
//!   very survivors and the very counters it saw on all of `G[V(S)]`. A
//!   set with fewer than `min_size` vertices in `C` short-circuits with no
//!   search at all (the search would have peeled everything).
//! - **Down the lattice.** For `S ⊇ S_parent`, `K_S ⊆ K_parent ⊆ C`, so
//!   vertices of `V(S) \ K_parent` can be deleted from the mining graph
//!   before the search.
//!
//! Either way the deleted vertices still count in the support denominator:
//! `ε(S)` divides by `|V(S)|`.
//!
//! **Incremental projection.** The mining vertex set of a child attribute
//! set is always contained in its parent's (`V(S ∪ {a}) ⊆ V(S)`, and the
//! cover restriction only shrinks it further), so when the lattice driver
//! hands down the parent's already-extracted [`InducedSubgraph`], the
//! child's subgraph is *projected* out of the parent's compact CSR
//! ([`InducedSubgraph::project`]) instead of re-extracted from the global
//! graph — and the coverage subgraph is reused verbatim by the top-k
//! search of the same attribute set. Both constructions are byte-identical
//! to a fresh global extraction (tested), so every downstream guarantee
//! (determinism sweep, files→mine byte-identity) is unaffected.

use std::cell::RefCell;
use std::sync::Arc;

use scpm_graph::attributed::AttributedGraph;
use scpm_graph::bitadj::VertexBitset;
use scpm_graph::csr::{intersect_into, VertexId};
use scpm_graph::induced::{InducedSubgraph, RankMap};
use scpm_quasiclique::{
    EngineScratch, Miner, MiningMode, MiningOutcome, PruneFlags, QcConfig, QuasiClique,
    Representation, SearchOrder, SearchStats,
};

/// Result of one structural correlation evaluation.
#[derive(Clone, Debug)]
pub struct CorrelationOutcome {
    /// Covered vertices `K_S`, sorted global ids.
    pub covered: Vec<VertexId>,
    /// `ε(S) = |K_S| / |V(S)|` (0 when the support is 0).
    pub epsilon: f64,
    /// Counters of the coverage search (zeroed when the evaluation
    /// short-circuited below `min_size`).
    pub stats: SearchStats,
    /// The extracted mining subgraph `G[mining(S)]`, when one was built
    /// (`None` when the evaluation short-circuited). The lattice driver
    /// stashes it on the enumeration entry so child evaluations project
    /// from it and the same set's top-k search reuses it.
    pub sub: Option<Arc<InducedSubgraph>>,
}

impl CorrelationOutcome {
    fn short_circuit() -> Self {
        CorrelationOutcome {
            covered: Vec::new(),
            epsilon: 0.0,
            stats: SearchStats::default(),
            sub: None,
        }
    }
}

/// Evaluates `ε` and mines top-k patterns on induced subgraphs.
///
/// The engine owns reusable quasi-clique scratch memory, so repeated
/// evaluations (one per attribute set in a mining run) recycle their
/// buffers; the parallel driver gives each worker its own engine. That
/// interior scratch makes the engine `Send` but not `Sync` — share the
/// graph, not the engine.
///
/// ```
/// use scpm_core::{Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// let scpm = Scpm::new(&g, ScpmParams::new(3, 0.6, 4));
/// let engine = scpm.engine();
///
/// // ε({A}) = 9/11: nine of A's eleven vertices are covered by
/// // 0.6-quasi-cliques of size ≥ 4 inside G({A}).
/// let a = g.attr_id("A").unwrap();
/// let outcome = engine.epsilon(g.vertices_with(a), None);
/// assert_eq!(outcome.covered.len(), 9);
/// assert!((outcome.epsilon - 9.0 / 11.0).abs() < 1e-12);
/// ```
pub struct CorrelationEngine<'g> {
    graph: &'g AttributedGraph,
    cfg: QcConfig,
    order: SearchOrder,
    prune: PruneFlags,
    repr: Representation,
    /// Apply Theorem 3 restriction when a parent cover is provided.
    vertex_pruning: bool,
    /// The `z`-core of the whole graph, applied to mining sets that have
    /// no parent cover (`None`: no global filter).
    core: Option<Arc<VertexBitset>>,
    /// Reusable quasi-clique search buffers, recycled across evaluations.
    scratch: RefCell<EngineScratch>,
    /// Reusable parent-local keep set for subgraph projection.
    keep: RefCell<VertexBitset>,
    /// Reusable vertex → rank map shared by extraction and projection.
    ranks: RefCell<RankMap>,
}

impl<'g> CorrelationEngine<'g> {
    /// Creates an engine bound to an attributed graph.
    pub fn new(
        graph: &'g AttributedGraph,
        cfg: QcConfig,
        order: SearchOrder,
        prune: PruneFlags,
        repr: Representation,
        vertex_pruning: bool,
    ) -> Self {
        CorrelationEngine {
            graph,
            cfg,
            order,
            prune,
            repr,
            vertex_pruning,
            core: None,
            scratch: RefCell::new(EngineScratch::new()),
            keep: RefCell::new(VertexBitset::empty(0)),
            ranks: RefCell::new(RankMap::default()),
        }
    }

    /// Restricts every mining set without a parent cover to `core`, the
    /// `z`-core of the whole graph (see the module docs). Exact: every
    /// output and counter is unchanged; only extraction shrinks.
    pub(crate) fn with_core(mut self, core: Arc<VertexBitset>) -> Self {
        self.core = Some(core);
        self
    }

    /// The mining vertex set for `S`: `V(S)` restricted by the parent cover
    /// when Theorem 3 is active, and otherwise by the global core.
    fn mining_set(
        &self,
        vertices: &[VertexId],
        parent_cover: Option<&[VertexId]>,
    ) -> Vec<VertexId> {
        match (parent_cover, &self.core) {
            // The cover lies inside the core already.
            (Some(cover), _) if self.vertex_pruning => {
                let mut out = Vec::with_capacity(cover.len().min(vertices.len()));
                intersect_into(vertices, cover, &mut out);
                out
            }
            (_, Some(core)) => vertices
                .iter()
                .copied()
                .filter(|&v| core.contains(v))
                .collect(),
            (_, None) => vertices.to_vec(),
        }
    }

    /// Computes `ε(S)` given `V(S)` (sorted global ids) and, optionally,
    /// the parents' covered set for Theorem 3 restriction. Extracts the
    /// mining subgraph from the global graph; lattice drivers that hold
    /// the parent's subgraph should use [`Self::epsilon_projected`].
    pub fn epsilon(
        &self,
        vertices: &[VertexId],
        parent_cover: Option<&[VertexId]>,
    ) -> CorrelationOutcome {
        self.epsilon_projected(vertices, parent_cover, None)
    }

    /// Like [`Self::epsilon`], but carving the mining subgraph out of
    /// `parent`'s (the enclosing attribute set's already-extracted
    /// subgraph) when one is supplied — the incremental-projection fast
    /// path of the lattice DFS. Output is identical either way.
    pub fn epsilon_projected(
        &self,
        vertices: &[VertexId],
        parent_cover: Option<&[VertexId]>,
        parent: Option<&InducedSubgraph>,
    ) -> CorrelationOutcome {
        if vertices.is_empty() {
            return CorrelationOutcome::short_circuit();
        }
        let mining = self.mining_set(vertices, parent_cover);
        if mining.len() < self.cfg.min_size {
            return CorrelationOutcome::short_circuit();
        }
        let sub = Arc::new(self.subgraph_for(&mining, parent));
        let outcome = self.run_miner(&sub.graph, MiningMode::Coverage);
        let covered: Vec<VertexId> = outcome
            .covered
            .iter()
            .map(|&local| sub.to_original(local))
            .collect();
        let epsilon = covered.len() as f64 / vertices.len() as f64;
        CorrelationOutcome {
            covered,
            epsilon,
            stats: outcome.stats,
            sub: Some(sub),
        }
    }

    /// Extracts `G[mining]`, projecting from `parent`'s compact CSR when
    /// the mining set is contained in it (always the case on the lattice
    /// paths; falls back to a global extraction otherwise).
    fn subgraph_for(
        &self,
        mining: &[VertexId],
        parent: Option<&InducedSubgraph>,
    ) -> InducedSubgraph {
        if let Some(parent) = parent {
            let mut keep = self.keep.borrow_mut();
            keep.reset(parent.num_vertices());
            // Merge `mining` against the parent's (sorted) global-id list,
            // packing matched parent-local ids.
            let originals = &parent.original;
            let mut matched = 0usize;
            let (mut i, mut j) = (0usize, 0usize);
            while i < mining.len() && j < originals.len() {
                match mining[i].cmp(&originals[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        keep.insert(j as VertexId);
                        matched += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            debug_assert_eq!(
                matched,
                mining.len(),
                "lattice child mining set must be contained in the parent's"
            );
            if matched == mining.len() {
                return parent.project_with(&keep, &mut self.ranks.borrow_mut());
            }
        }
        self.extract(mining)
    }

    /// Extracts `G[set]` from the global graph, reusing the engine's
    /// rank scratch.
    fn extract(&self, set: &[VertexId]) -> InducedSubgraph {
        InducedSubgraph::extract_with(self.graph.graph(), set, &mut self.ranks.borrow_mut())
    }

    /// Mines the top-`k` patterns of `G(S)` (size primary, density
    /// secondary), with the same Theorem 3 restriction as [`Self::epsilon`].
    /// Returns cliques in global ids plus the search counters.
    pub fn top_k(
        &self,
        vertices: &[VertexId],
        parent_cover: Option<&[VertexId]>,
        k: usize,
    ) -> (Vec<QuasiClique>, SearchStats) {
        if k == 0 || vertices.is_empty() {
            return (Vec::new(), SearchStats::default());
        }
        let mining = self.mining_set(vertices, parent_cover);
        if mining.len() < self.cfg.min_size {
            return (Vec::new(), SearchStats::default());
        }
        let sub = self.extract(&mining);
        self.top_k_on(&sub, k)
    }

    /// Mines the top-`k` patterns on an already-extracted mining subgraph
    /// — the reuse path for drivers that just ran [`Self::epsilon`] on the
    /// same attribute set (same mining set ⇒ same subgraph, no second
    /// extraction).
    pub fn top_k_on(&self, sub: &InducedSubgraph, k: usize) -> (Vec<QuasiClique>, SearchStats) {
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let outcome = self.run_miner(&sub.graph, MiningMode::TopK(k));
        relabel(sub, outcome)
    }

    /// Enumerates *all* maximal quasi-cliques of `G(S)` (used by the naive
    /// baseline; no Theorem 3 restriction is applied).
    pub fn enumerate_all(&self, vertices: &[VertexId]) -> (Vec<QuasiClique>, SearchStats) {
        if vertices.len() < self.cfg.min_size {
            return (Vec::new(), SearchStats::default());
        }
        let sub = self.extract(vertices);
        let outcome = self.run_miner(&sub.graph, MiningMode::EnumerateMaximal);
        relabel(&sub, outcome)
    }

    /// Runs one configured search over `g`, reusing the engine's scratch.
    fn run_miner(&self, g: &scpm_graph::csr::CsrGraph, mode: MiningMode) -> MiningOutcome {
        Miner::new(g, self.cfg)
            .with_order(self.order)
            .with_prune(self.prune)
            .with_repr(self.repr)
            .run_with(mode, &mut self.scratch.borrow_mut())
    }
}

/// Maps a mining outcome's cliques back to global vertex ids.
fn relabel(sub: &InducedSubgraph, outcome: MiningOutcome) -> (Vec<QuasiClique>, SearchStats) {
    let cliques = outcome
        .cliques
        .into_iter()
        .map(|q| QuasiClique {
            vertices: sub.to_original_set(&q.vertices),
            min_degree_ratio: q.min_degree_ratio,
            edge_density: q.edge_density,
        })
        .collect();
    (cliques, outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::figure1::{figure1, paper_vertex};

    fn engine(g: &AttributedGraph) -> CorrelationEngine<'_> {
        CorrelationEngine::new(
            g,
            QcConfig::new(0.6, 4),
            SearchOrder::Dfs,
            PruneFlags::default(),
            Representation::default(),
            true,
        )
    }

    #[test]
    fn figure1_epsilon_values_match_paper() {
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let c = g.attr_id("C").unwrap();

        let va = g.vertices_with(a).to_vec();
        let out_a = eng.epsilon(&va, None);
        assert!((out_a.epsilon - 9.0 / 11.0).abs() < 1e-12);

        let vc = g.vertices_with(c).to_vec();
        assert_eq!(eng.epsilon(&vc, None).epsilon, 0.0);

        let vab = g.vertices_with_all(&[a, b]);
        let out_ab = eng.epsilon(&vab, None).epsilon;
        assert!((out_ab - 1.0).abs() < 1e-12);

        let vb = g.vertices_with(b).to_vec();
        assert!((eng.epsilon(&vb, None).epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theorem3_restriction_preserves_epsilon() {
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let va = g.vertices_with(a).to_vec();
        let k_a = eng.epsilon(&va, None).covered;
        let vab = g.vertices_with_all(&[a, b]);
        let with_parent = eng.epsilon(&vab, Some(&k_a));
        let without = eng.epsilon(&vab, None);
        assert_eq!(with_parent.covered, without.covered);
        assert_eq!(with_parent.epsilon, without.epsilon);
    }

    #[test]
    fn projection_equals_global_extraction() {
        // ε of {A,B} computed by projecting from {A}'s subgraph must be
        // byte-identical to the global-extraction path, with and without a
        // parent cover.
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let va = g.vertices_with(a).to_vec();
        let parent_out = eng.epsilon(&va, None);
        let parent_sub = parent_out.sub.as_deref().expect("parent subgraph built");
        let vab = g.vertices_with_all(&[a, b]);

        let direct = eng.epsilon(&vab, None);
        let projected = eng.epsilon_projected(&vab, None, Some(parent_sub));
        assert_eq!(direct.covered, projected.covered);
        assert_eq!(direct.epsilon, projected.epsilon);
        assert_eq!(direct.stats, projected.stats);
        let (ds, ps) = (direct.sub.unwrap(), projected.sub.unwrap());
        assert_eq!(ds.graph, ps.graph);
        assert_eq!(ds.original, ps.original);

        let with_cover = eng.epsilon(&vab, Some(&parent_out.covered));
        let with_cover_proj =
            eng.epsilon_projected(&vab, Some(&parent_out.covered), Some(parent_sub));
        assert_eq!(with_cover.covered, with_cover_proj.covered);
        assert_eq!(
            with_cover.sub.unwrap().graph,
            with_cover_proj.sub.unwrap().graph
        );
    }

    #[test]
    fn top_k_on_reuses_coverage_subgraph() {
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let va = g.vertices_with(a).to_vec();
        let out = eng.epsilon(&va, None);
        let (via_sub, _) = eng.top_k_on(out.sub.as_deref().unwrap(), 2);
        let (direct, _) = eng.top_k(&va, None, 2);
        assert_eq!(via_sub, direct);
    }

    #[test]
    fn top_k_patterns_for_attribute_a() {
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let va = g.vertices_with(a).to_vec();
        let (top, _) = eng.top_k(&va, None, 2);
        assert_eq!(top.len(), 2);
        let six: Vec<u32> = (6..=11).map(paper_vertex).collect();
        assert_eq!(top[0].vertices, six);
        let clique: Vec<u32> = (3..=6).map(paper_vertex).collect();
        assert_eq!(top[1].vertices, clique);
    }

    #[test]
    fn enumerate_all_counts_five_for_a() {
        let g = figure1();
        let eng = engine(&g);
        let a = g.attr_id("A").unwrap();
        let (all, _) = eng.enumerate_all(g.vertices_with(a));
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let g = figure1();
        let eng = engine(&g);
        assert_eq!(eng.epsilon(&[], None).epsilon, 0.0);
        assert_eq!(eng.epsilon(&[0, 1], None).epsilon, 0.0); // below min_size
        assert!(eng.top_k(&[], None, 3).0.is_empty());
    }
}
