//! Property tests for the packed-bitset layer: `BitAdjacency` /
//! `VertexBitset` must agree with the `CsrGraph`/sorted-slice reference on
//! random graphs, `InducedSubgraph::project` must equal a fresh
//! `extract`, and the galloping tidset intersection must match the naive
//! k-way merge.

use std::collections::BTreeSet;

use proptest::prelude::*;
use scpm_graph::attributed::{AttributedGraph, AttributedGraphBuilder};
use scpm_graph::bitadj::{
    difference_is_empty, gather_intersect_popcount, words_for, BitAdjacency, VertexBitset,
};
use scpm_graph::builder::GraphBuilder;
use scpm_graph::csr::{intersect_adaptive_into, intersect_count, intersect_into, CsrGraph};
use scpm_graph::induced::InducedSubgraph;

fn random_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..=80).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..(3 * n)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

fn subset_of(n: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<bool>(), n).prop_map(|keep| {
        keep.iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u32)
            .collect()
    })
}

fn attributed_graph() -> impl Strategy<Value = AttributedGraph> {
    (4usize..=40, 2usize..=6).prop_flat_map(|(n, num_attrs)| {
        let edge = (0..n as u32, 0..n as u32);
        let assign = (0..n as u32, 0..num_attrs as u32);
        (
            proptest::collection::vec(edge, 0..(2 * n)),
            proptest::collection::vec(assign, 0..(3 * n)),
        )
            .prop_map(move |(edges, assigns)| {
                let mut b = AttributedGraphBuilder::new(n);
                for a in 0..num_attrs {
                    b.intern_attr(&format!("a{a}"));
                }
                for (u, v) in edges {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                for (v, a) in assigns {
                    b.add_attr(v, a);
                }
                b.build()
            })
    })
}

// Case count follows `PROPTEST_CASES` (default 256), so the release-mode
// CI step can run these properties wider than the debug test pass.
proptest! {
    #[test]
    fn bit_adjacency_agrees_with_csr(g in random_graph()) {
        let adj = BitAdjacency::from_csr(&g);
        prop_assert_eq!(adj.num_vertices(), g.num_vertices());
        for u in 0..g.num_vertices() as u32 {
            prop_assert_eq!(adj.degree(u), g.degree(u), "degree of {}", u);
            for v in 0..g.num_vertices() as u32 {
                prop_assert_eq!(adj.has_edge(u, v), g.has_edge(u, v), "edge {}-{}", u, v);
            }
        }
    }

    #[test]
    fn bitset_kernels_agree_with_slices(g in random_graph(), raw in subset_of(80)) {
        let n = g.num_vertices();
        let set: Vec<u32> = raw.into_iter().filter(|&v| (v as usize) < n).collect();
        let bits = VertexBitset::from_sorted(n, &set);
        prop_assert_eq!(bits.count(), set.len());
        prop_assert_eq!(bits.to_vec(), set.clone());
        let adj = BitAdjacency::from_csr(&g);
        for u in 0..n as u32 {
            // Popcount row ∧ set over the row's active words must equal
            // the sorted-slice merge count.
            prop_assert_eq!(
                gather_intersect_popcount(adj.row(u), bits.words(), adj.row_active(u)),
                intersect_count(g.neighbors(u), &set),
                "degree within the set of {}", u
            );
        }
    }

    #[test]
    fn bitset_set_algebra_matches_reference(a in subset_of(100), b in subset_of(100)) {
        let ba = VertexBitset::from_sorted(100, &a);
        let bb = VertexBitset::from_sorted(100, &b);
        prop_assert_eq!(ba.to_vec(), a.clone());
        prop_assert_eq!(ba.count(), a.len());
        prop_assert_eq!(ba.is_empty(), a.is_empty());
        let mut expect_and = Vec::new();
        intersect_into(&a, &b, &mut expect_and);
        let inter = VertexBitset::from_sorted(100, &expect_and);
        let is_subset = a.iter().all(|v| b.contains(v));
        prop_assert_eq!(ba.is_subset_of(&bb), is_subset);
        prop_assert!(inter.is_subset_of(&ba) && inter.is_subset_of(&bb));
        for v in 0..100u32 {
            prop_assert_eq!(ba.contains(v), a.contains(&v), "member {}", v);
        }
    }

    /// Both kernels the search runs must equal their per-member
    /// references across random densities: `difference_is_empty` ==
    /// "every member of `a` is in `b`", and the gather restricted to
    /// either operand's tracked active words == `|a ∩ b|`.
    #[test]
    fn fused_kernels_equal_composed_primitives(
        a in subset_of(700),
        b in subset_of(700),
    ) {
        let n = 700; // 11 words: two 4-word blocks and a ragged tail
        let (mut ba, mut bb) = (VertexBitset::empty(n), VertexBitset::empty(n));
        let (mut active_a, mut active_b) = (Vec::new(), Vec::new());
        for &v in &a {
            ba.insert_tracked(v, &mut active_a);
        }
        for &v in &b {
            bb.insert_tracked(v, &mut active_b);
        }
        let mut inter = Vec::new();
        intersect_into(&a, &b, &mut inter);

        prop_assert_eq!(
            difference_is_empty(ba.words(), bb.words()),
            inter.len() == a.len()
        );
        prop_assert_eq!(ba.is_subset_of(&bb), inter.len() == a.len());
        prop_assert_eq!(
            gather_intersect_popcount(ba.words(), bb.words(), &active_b),
            inter.len()
        );
        prop_assert_eq!(
            gather_intersect_popcount(ba.words(), bb.words(), &active_a),
            inter.len()
        );
    }

    /// Random sequences of `insert`, `insert_tracked`, `remove` and
    /// `clear_active` keep the set canonical and equal to a `BTreeSet`
    /// reference. The active-word list always covers every nonzero word,
    /// so `clear_active` empties the set; until a `remove` empties a
    /// listed word it is exactly the nonzero words, each once — the
    /// contract `gather_intersect_popcount` relies on. (Plain `insert`
    /// does not track; the harness lists its newly nonzero words itself.)
    #[test]
    fn mutation_sequences_match_btreeset(
        n in 1usize..=700,
        ops in proptest::collection::vec((0u8..4, 0u32..700), 0..200),
    ) {
        let mut bits = VertexBitset::empty(n);
        let mut active = Vec::new();
        let mut reference = BTreeSet::new();
        let mut removed_since_clear = false;
        for (op, v) in ops {
            let v = v % n as u32;
            let wi = v as usize / 64;
            match op {
                0 => {
                    if bits.words()[wi] == 0 {
                        active.push(wi as u32);
                    }
                    bits.insert(v);
                    reference.insert(v);
                }
                1 => {
                    bits.insert_tracked(v, &mut active);
                    reference.insert(v);
                }
                2 => {
                    bits.remove(v);
                    reference.remove(&v);
                    removed_since_clear = true;
                }
                _ => {
                    bits.clear_active(&mut active);
                    prop_assert!(active.is_empty());
                    reference.clear();
                    removed_since_clear = false;
                }
            }
            prop_assert!(bits.canonical());
            prop_assert_eq!(bits.universe(), n);
            let members: Vec<u32> = reference.iter().copied().collect();
            prop_assert_eq!(bits.iter().collect::<Vec<_>>(), members);
            prop_assert_eq!(bits.count(), reference.len());
            prop_assert_eq!(bits.is_empty(), reference.is_empty());
            for u in [0, v, n as u32 - 1] {
                prop_assert_eq!(bits.contains(u), reference.contains(&u));
            }
            let nonzero: Vec<u32> = (0..bits.words().len() as u32)
                .filter(|&i| bits.words()[i as usize] != 0)
                .collect();
            let mut listed = active.clone();
            listed.sort_unstable();
            if removed_since_clear {
                listed.dedup();
                prop_assert!(
                    nonzero.iter().all(|w| listed.binary_search(w).is_ok()),
                    "nonzero words {:?} not all listed in {:?}", nonzero, listed
                );
            } else {
                prop_assert_eq!(&listed, &nonzero);
            }
        }
        prop_assert_eq!(bits.words().len(), words_for(n));
    }

    /// `BitAdjacency::row_active` lists exactly the nonzero words of each
    /// row, and a gather restricted to it reproduces the per-member
    /// intersection count.
    #[test]
    fn row_active_lists_match_rows(g in random_graph(), raw in subset_of(80)) {
        let n = g.num_vertices();
        let set: Vec<u32> = raw.into_iter().filter(|&v| (v as usize) < n).collect();
        let bits = VertexBitset::from_sorted(n, &set);
        let adj = BitAdjacency::from_csr(&g);
        for u in 0..n as u32 {
            let row = adj.row(u);
            let expect: Vec<u32> = (0..row.len() as u32).filter(|&wi| row[wi as usize] != 0).collect();
            prop_assert_eq!(adj.row_active(u), &expect[..], "row {}", u);
            let within = set.iter().filter(|&&v| adj.has_edge(u, v)).count();
            prop_assert_eq!(
                gather_intersect_popcount(row, bits.words(), adj.row_active(u)),
                within,
                "gather over row {}", u
            );
        }
    }

    #[test]
    fn project_equals_extract(g in random_graph(), raw_parent in subset_of(80), raw_child in subset_of(80)) {
        let n = g.num_vertices();
        let parent_set: Vec<u32> = raw_parent.into_iter().filter(|&v| (v as usize) < n).collect();
        let parent = InducedSubgraph::extract(&g, &parent_set);
        // A child set ⊆ parent set, expressed in parent-local ids.
        let keep_locals: Vec<u32> = raw_child
            .into_iter()
            .filter(|&l| (l as usize) < parent_set.len())
            .collect();
        let keep = VertexBitset::from_sorted(parent.num_vertices(), &keep_locals);
        let child = parent.project(&keep);
        let child_globals: Vec<u32> = keep_locals.iter().map(|&l| parent.to_original(l)).collect();
        let direct = InducedSubgraph::extract(&g, &child_globals);
        prop_assert_eq!(child.graph, direct.graph);
        prop_assert_eq!(child.original, direct.original);
    }

    #[test]
    fn galloping_tidset_intersection_matches_naive(
        g in attributed_graph(),
        pick in proptest::collection::vec(0u32..6, 1..4),
    ) {
        let attrs: Vec<u32> = pick
            .into_iter()
            .filter(|&a| (a as usize) < g.num_attributes())
            .collect();
        if attrs.is_empty() {
            return Ok(());
        }
        // Naive reference: unordered linear merges, no galloping.
        let mut expect: Vec<u32> = g.vertices_with(attrs[0]).to_vec();
        let mut tmp = Vec::new();
        for &a in &attrs[1..] {
            intersect_into(&expect, g.vertices_with(a), &mut tmp);
            std::mem::swap(&mut expect, &mut tmp);
        }
        prop_assert_eq!(g.vertices_with_all(&attrs), expect.clone());
        let mut out = Vec::new();
        let mut scratch = vec![99u32; 7]; // dirty scratch must not leak through
        g.vertices_with_all_into(&attrs, &mut out, &mut scratch);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn adaptive_intersection_matches_linear(a in subset_of(400), b in subset_of(60)) {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        intersect_adaptive_into(&a, &b, &mut fast);
        intersect_into(&a, &b, &mut slow);
        prop_assert_eq!(&fast, &slow);
        intersect_adaptive_into(&b, &a, &mut fast);
        prop_assert_eq!(&fast, &slow);
    }
}
