//! The running example of the paper (Figure 1): an 11-vertex attributed
//! graph whose pattern set under (σmin=3, γmin=0.6, min_size=4, εmin=0.5)
//! is exactly Table 1.
//!
//! The paper draws the graph but does not list its edges; this module
//! contains a reconstruction that satisfies every constraint stated in the
//! text:
//!
//! * `{3,4,5,6}` is a clique (the 1-quasi-clique of Figure 1(c)),
//! * `{6,...,11}` is a 0.6-quasi-clique of size 6 (Figure 1(d)),
//! * `K_{A} = {3,...,11}` so `ε({A}) = 9/11 ≈ 0.82`,
//! * `ε({C}) = 0` and `ε({A,B}) = 1`,
//! * the maximal γ=0.6 quasi-cliques of size ≥ 4 induced by `{A}` are the
//!   seven rows of Table 1.

use crate::attributed::{AttributedGraph, AttributedGraphBuilder};
use crate::csr::VertexId;

/// Paper vertex labels are 1-based; this crate's ids are 0-based.
/// `paper_vertex(v)` converts a paper label to a [`VertexId`].
pub fn paper_vertex(label: u32) -> VertexId {
    assert!((1..=11).contains(&label), "Figure 1 has vertices 1..=11");
    label - 1
}

/// Converts a 0-based id back to the paper's 1-based label.
pub fn paper_label(v: VertexId) -> u32 {
    v + 1
}

/// Edges of Figure 1(b), in the paper's 1-based labels.
pub const FIGURE1_EDGES: [(u32, u32); 19] = [
    (1, 2),
    (1, 3),
    (2, 3),
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (4, 5),
    (4, 6),
    (5, 6),
    (6, 7),
    (6, 8),
    (6, 9),
    (7, 8),
    (7, 10),
    (8, 11),
    (9, 10),
    (9, 11),
    (10, 11),
];

/// Attribute table of Figure 1(a), in the paper's 1-based labels.
pub const FIGURE1_ATTRS: [(u32, &[&str]); 11] = [
    (1, &["A", "C"]),
    (2, &["A"]),
    (3, &["A", "C", "D"]),
    (4, &["A", "D"]),
    (5, &["A", "E"]),
    (6, &["A", "B", "C"]),
    (7, &["A", "B", "E"]),
    (8, &["A", "B"]),
    (9, &["A", "B"]),
    (10, &["A", "B", "D"]),
    (11, &["A", "B"]),
];

/// Builds the Figure 1 attributed graph.
pub fn figure1() -> AttributedGraph {
    let mut b = AttributedGraphBuilder::new(11);
    for &(u, v) in &FIGURE1_EDGES {
        b.add_edge(paper_vertex(u), paper_vertex(v));
    }
    for &(v, names) in &FIGURE1_ATTRS {
        for name in names {
            b.add_attr_named(paper_vertex(v), name);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper() {
        let g = figure1();
        assert_eq!(g.num_vertices(), 11);
        assert_eq!(g.num_edges(), 19);
        assert_eq!(g.num_attributes(), 5); // A..E
    }

    #[test]
    fn supports_match_paper() {
        let g = figure1();
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let c = g.attr_id("C").unwrap();
        assert_eq!(g.support(a), 11);
        assert_eq!(g.support(b), 6);
        assert_eq!(g.support(c), 3);
        // σ({A,B}) = 6 per Table 1.
        assert_eq!(g.vertices_with_all(&[a, b]).len(), 6);
    }

    #[test]
    fn clique_3456_present() {
        let g = figure1();
        let ids: Vec<VertexId> = [3, 4, 5, 6].iter().map(|&l| paper_vertex(l)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    g.graph().has_edge(ids[i], ids[j]),
                    "expected clique edge {}-{}",
                    paper_label(ids[i]),
                    paper_label(ids[j])
                );
            }
        }
    }

    #[test]
    fn subgraph_6_to_11_has_min_degree_3() {
        let g = figure1();
        let set: Vec<VertexId> = (6..=11).map(paper_vertex).collect();
        for &v in &set {
            let d = g.graph().degree_within(v, &set);
            assert!(d >= 3, "vertex {} has degree {d} < 3", paper_label(v));
        }
    }

    #[test]
    fn b_vertices_are_6_to_11() {
        let g = figure1();
        let b = g.attr_id("B").unwrap();
        let expect: Vec<VertexId> = (6..=11).map(paper_vertex).collect();
        assert_eq!(g.vertices_with(b), expect.as_slice());
    }

    #[test]
    fn paper_vertex_roundtrip() {
        for label in 1..=11 {
            assert_eq!(paper_label(paper_vertex(label)), label);
        }
    }

    #[test]
    #[should_panic(expected = "vertices 1..=11")]
    fn paper_vertex_rejects_zero() {
        paper_vertex(0);
    }
}
