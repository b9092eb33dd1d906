//! Induced-subgraph extraction.
//!
//! Given a sorted vertex subset `W ⊆ V`, the induced subgraph `G[W]` keeps
//! exactly the edges with both endpoints in `W`. Mining algorithms operate
//! on the *relabeled* graph (local ids `0..|W|`) and map results back via
//! [`InducedSubgraph::original`].
//!
//! Both constructions — [`InducedSubgraph::extract`] from a graph and
//! [`InducedSubgraph::project`] from a parent subgraph — run one kernel: a
//! dense vertex → local-rank map. The members' slots are set to their
//! ranks, each member's neighbor list is walked once emitting the rank of
//! every neighbor that has one, and exactly the touched slots are reset.
//! That is `O(|W| + Σ_{v ∈ W} deg(v))` per call with no `O(|V|)` clear, so
//! hot callers keep one [`RankMap`] across calls (`extract_with`,
//! `project_with`). Ranks are monotone on a sorted member list, so every
//! emitted row is sorted.

use crate::bitadj::VertexBitset;
use crate::csr::{CsrGraph, VertexId};

/// Rank-map slot value of a vertex outside the current member set.
const NOT_A_MEMBER: VertexId = VertexId::MAX;

/// Reusable vertex → local-rank scratch for induced-subgraph extraction.
///
/// Every slot holds a sentinel between calls: a call ranks its members and
/// resets exactly those slots before returning, so reuse costs nothing
/// beyond the call's own work. The map grows to the largest vertex id it
/// has seen (4 bytes per vertex) and never shrinks.
#[derive(Debug, Default)]
pub struct RankMap {
    rank: Vec<VertexId>,
}

/// The extraction kernel: `G[members]` relabeled by member rank.
///
/// `members` yields ascending vertex ids of `g`, all below `bound`. Also
/// returns the number of loop steps taken — one per member plus one per
/// neighbor scanned — which the complexity tests hold to
/// `|W| + Σ_{v ∈ W} deg(v)`.
fn induce<I>(g: &CsrGraph, members: I, bound: usize, ranks: &mut RankMap) -> (CsrGraph, usize)
where
    I: Iterator<Item = VertexId> + Clone,
{
    let rank = &mut ranks.rank;
    if rank.len() < bound {
        rank.resize(bound, NOT_A_MEMBER);
    }
    let mut k = 0;
    for v in members.clone() {
        rank[v as usize] = k as VertexId;
        k += 1;
    }
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0usize);
    let mut neighbors: Vec<VertexId> = Vec::new();
    let mut steps = 0usize;
    for v in members.clone() {
        steps += 1;
        for &w in g.neighbors(v) {
            steps += 1;
            match rank.get(w as usize) {
                Some(&r) if r != NOT_A_MEMBER => neighbors.push(r),
                _ => {}
            }
        }
        offsets.push(neighbors.len());
    }
    for v in members {
        rank[v as usize] = NOT_A_MEMBER;
    }
    (CsrGraph::from_parts(offsets, neighbors), steps)
}

/// A relabeled induced subgraph together with its vertex mapping.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph with local vertex ids `0..k`.
    pub graph: CsrGraph,
    /// `original[local] = global id`; sorted ascending (so local order
    /// preserves global order).
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Extracts `G[W]` for a sorted, duplicate-free vertex set `W`, in
    /// `O(|W| + Σ_{v ∈ W} deg(v))` plus a one-off rank array of
    /// `max(W) + 1` slots. Callers extracting repeatedly should hold a
    /// [`RankMap`] and use [`Self::extract_with`].
    pub fn extract(g: &CsrGraph, set: &[VertexId]) -> Self {
        Self::extract_with(g, set, &mut RankMap::default())
    }

    /// [`Self::extract`] reusing the caller's rank scratch.
    pub fn extract_with(g: &CsrGraph, set: &[VertexId], ranks: &mut RankMap) -> Self {
        Self::extract_counted(g, set, ranks).0
    }

    fn extract_counted(g: &CsrGraph, set: &[VertexId], ranks: &mut RankMap) -> (Self, usize) {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let bound = set.last().map_or(0, |&v| v as usize + 1);
        let (graph, steps) = induce(g, set.iter().copied(), bound, ranks);
        let sub = InducedSubgraph {
            graph,
            original: set.to_vec(),
        };
        (sub, steps)
    }

    /// Carves a *child* induced subgraph out of this one: keeps exactly the
    /// parent-local vertices in `keep` and relabels them `0..keep.count()`.
    ///
    /// This is the incremental-projection fast path of the lattice DFS:
    /// when a child attribute set's vertex set is contained in its parent's
    /// (always true — `V(S ∪ {a}) ⊆ V(S)`, and the Theorem-3 cover
    /// restriction only shrinks it further), the child's subgraph is the
    /// extraction kernel run over the parent's compact CSR, in
    /// `O(|keep| + Σ_{v ∈ keep} deg_parent(v))` on an already-small graph
    /// (plus the walk of `keep`'s words). The result is **identical** to
    /// [`InducedSubgraph::extract`] on the corresponding global vertex set
    /// (local order preserves global order in both constructions).
    pub fn project(&self, keep: &VertexBitset) -> InducedSubgraph {
        self.project_with(keep, &mut RankMap::default())
    }

    /// [`Self::project`] reusing the caller's rank scratch.
    pub fn project_with(&self, keep: &VertexBitset, ranks: &mut RankMap) -> InducedSubgraph {
        self.project_counted(keep, ranks).0
    }

    fn project_counted(&self, keep: &VertexBitset, ranks: &mut RankMap) -> (Self, usize) {
        debug_assert_eq!(keep.universe(), self.num_vertices());
        let (graph, steps) = induce(&self.graph, keep.iter(), self.num_vertices(), ranks);
        let original = keep.iter().map(|v| self.original[v as usize]).collect();
        (InducedSubgraph { graph, original }, steps)
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Maps a local vertex id back to the global id.
    #[inline]
    pub fn to_original(&self, local: VertexId) -> VertexId {
        self.original[local as usize]
    }

    /// Maps a set of local ids back to (sorted) global ids.
    pub fn to_original_set(&self, locals: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = locals.iter().map(|&l| self.to_original(l)).collect();
        out.sort_unstable();
        out
    }

    /// Maps a global id to its local id, if present.
    pub fn to_local(&self, global: VertexId) -> Option<VertexId> {
        self.original
            .binary_search(&global)
            .ok()
            .map(|i| i as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-2, 1-3, 2-3
        graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn extract_preserves_internal_edges_only() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // triangle 1-2-3
        assert!(sub.graph.has_edge(0, 1)); // local 0=1, 1=2
        assert_eq!(sub.to_original(0), 1);
        assert_eq!(sub.to_original_set(&[0, 2]), vec![1, 3]);
    }

    #[test]
    fn extract_empty_and_single() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        let sub1 = InducedSubgraph::extract(&g, &[2]);
        assert_eq!(sub1.num_vertices(), 1);
        assert_eq!(sub1.graph.num_edges(), 0);
    }

    #[test]
    fn extract_disconnected_subset() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 3]);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn to_local_roundtrip() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 2, 3]);
        for local in 0..sub.num_vertices() as VertexId {
            let global = sub.to_original(local);
            assert_eq!(sub.to_local(global), Some(local));
        }
        assert_eq!(sub.to_local(1), None);
    }

    #[test]
    fn project_equals_extract() {
        let g = diamond();
        let parent = InducedSubgraph::extract(&g, &[0, 1, 2, 3]);
        // Keep parent-locals {1, 2, 3} = globals {1, 2, 3}.
        let keep = VertexBitset::from_sorted(4, &[1, 2, 3]);
        let child = parent.project(&keep);
        let direct = InducedSubgraph::extract(&g, &[1, 2, 3]);
        assert_eq!(child.graph, direct.graph);
        assert_eq!(child.original, direct.original);
    }

    #[test]
    fn project_chains_through_relabeled_parents() {
        let g = diamond();
        // Parent locals 0,1,2; keep parent-locals {0, 2} = globals {1, 3}.
        let parent = InducedSubgraph::extract(&g, &[1, 2, 3]);
        let keep = VertexBitset::from_sorted(3, &[0, 2]);
        let child = parent.project(&keep);
        let direct = InducedSubgraph::extract(&g, &[1, 3]);
        assert_eq!(child.graph, direct.graph);
        assert_eq!(child.original, direct.original);
        assert_eq!(child.graph.num_edges(), 1); // edge 1-3
    }

    #[test]
    fn project_empty_keep() {
        let g = diamond();
        let parent = InducedSubgraph::extract(&g, &[0, 1, 2]);
        let child = parent.project(&VertexBitset::empty(3));
        assert_eq!(child.num_vertices(), 0);
    }

    #[test]
    fn whole_graph_extraction_is_identity() {
        let g = diamond();
        let sub = InducedSubgraph::extract(&g, &[0, 1, 2, 3]);
        assert_eq!(sub.graph, g);
    }

    #[test]
    fn reused_rank_map_matches_fresh_calls() {
        let g = diamond();
        let mut ranks = RankMap::default();
        for set in [&[1u32, 2, 3][..], &[0, 3], &[], &[2], &[0, 1, 2, 3]] {
            let reused = InducedSubgraph::extract_with(&g, set, &mut ranks);
            let fresh = InducedSubgraph::extract(&g, set);
            assert_eq!(reused.graph, fresh.graph);
            assert_eq!(reused.original, fresh.original);
        }
        assert!(ranks.rank.iter().all(|&r| r == NOT_A_MEMBER));
        let parent = InducedSubgraph::extract(&g, &[0, 1, 2, 3]);
        let keep = VertexBitset::from_sorted(4, &[0, 2, 3]);
        let projected = parent.project_with(&keep, &mut ranks);
        assert_eq!(projected.graph, parent.project(&keep).graph);
        assert!(ranks.rank.iter().all(|&r| r == NOT_A_MEMBER));
    }

    // Complexity contract: both constructions take at most
    // `|W| + Σ_{v ∈ W} deg(v)` loop steps. A merge that rescans the member
    // list per vertex takes Θ(|W|²) here: on the star every leaf's only
    // neighbor is the hub, which sorts last.

    /// `Σ deg(v)` over `members` in `g`.
    fn degree_sum(g: &CsrGraph, members: impl Iterator<Item = VertexId>) -> usize {
        members.map(|v| g.degree(v)).sum()
    }

    fn wide_star(leaves: u32) -> CsrGraph {
        graph_from_edges(leaves as usize + 1, (0..leaves).map(|l| (l, leaves)))
    }

    fn complete_bipartite(a: u32, b: u32) -> CsrGraph {
        graph_from_edges(
            (a + b) as usize,
            (0..a).flat_map(|u| (a..a + b).map(move |v| (u, v))),
        )
    }

    fn assert_extract_linear(g: &CsrGraph, set: &[VertexId]) -> InducedSubgraph {
        let (sub, steps) = InducedSubgraph::extract_counted(g, set, &mut RankMap::default());
        let bound = set.len() + degree_sum(g, set.iter().copied());
        assert!(steps <= bound, "extract took {steps} steps, bound {bound}");
        sub
    }

    fn assert_project_linear(parent: &InducedSubgraph, keep: &VertexBitset) {
        let (child, steps) = parent.project_counted(keep, &mut RankMap::default());
        let bound = keep.count() + degree_sum(&parent.graph, keep.iter());
        assert!(steps <= bound, "project took {steps} steps, bound {bound}");
        let globals: Vec<VertexId> = keep.iter().map(|l| parent.to_original(l)).collect();
        assert_eq!(child.original, globals);
    }

    #[test]
    fn extract_and_project_are_linear_on_a_wide_star() {
        let leaves = 100_000;
        let g = wide_star(leaves);
        let all: Vec<VertexId> = g.vertices().collect();
        let parent = assert_extract_linear(&g, &all);
        assert_eq!(parent.graph, g);
        let n = all.len();
        assert_project_linear(&parent, &VertexBitset::from_sorted(n, &all));
        let even_leaves_and_hub: Vec<VertexId> = (0..leaves).step_by(2).chain([leaves]).collect();
        assert_extract_linear(&g, &even_leaves_and_hub);
        assert_project_linear(&parent, &VertexBitset::from_sorted(n, &even_leaves_and_hub));
    }

    #[test]
    fn extract_and_project_are_linear_on_a_complete_bipartite_graph() {
        let (a, b) = (400, 40);
        let g = complete_bipartite(a, b);
        let all: Vec<VertexId> = g.vertices().collect();
        let parent = assert_extract_linear(&g, &all);
        assert_eq!(parent.graph, g);
        let n = all.len();
        assert_project_linear(&parent, &VertexBitset::from_sorted(n, &all));
        let half: Vec<VertexId> = all.iter().copied().filter(|v| v % 2 == 1).collect();
        let sub = assert_extract_linear(&g, &half);
        assert_eq!(sub.graph.num_edges(), (a / 2 * b / 2) as usize);
        assert_project_linear(&parent, &VertexBitset::from_sorted(n, &half));
    }
}
