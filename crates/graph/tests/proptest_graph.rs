//! Property-based tests for the graph substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;
use scpm_graph::attributed::AttributedGraphBuilder;
use scpm_graph::builder::GraphBuilder;
use scpm_graph::components::Components;
use scpm_graph::csr::{intersect_count, intersect_into, VertexId};
use scpm_graph::induced::{InducedSubgraph, RankMap};
use scpm_graph::kcore::CoreDecomposition;
use scpm_graph::snapshot;
use scpm_graph::traversal::{bfs_distances, UNREACHABLE};

/// `G[set]` by brute force over the raw edge list (duplicates and
/// self-loops dropped): every edge with both endpoints in `set`, relabeled
/// by position in `set`, as sorted adjacency rows.
fn brute_force_induced(edges: &[(u32, u32)], set: &[VertexId]) -> Vec<Vec<VertexId>> {
    let local = |v: VertexId| set.binary_search(&v).ok().map(|i| i as VertexId);
    let distinct: BTreeSet<(u32, u32)> = edges
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    let mut rows = vec![Vec::new(); set.len()];
    for (u, v) in distinct {
        if let (Some(lu), Some(lv)) = (local(u), local(v)) {
            rows[lu as usize].push(lv);
            rows[lv as usize].push(lu);
        }
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

/// Strategy: a random edge list over `n` vertices.
fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..(n * 3)))
    })
}

proptest! {
    #[test]
    fn csr_degree_sums_to_twice_edges((n, edges) in edges_strategy(40)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v { b.add_edge(u, v); }
        }
        let g = b.build();
        let deg_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
    }

    #[test]
    fn csr_adjacency_is_symmetric((n, edges) in edges_strategy(30)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v { b.add_edge(u, v); }
        }
        let g = b.build();
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn induced_subgraph_edges_match_membership((n, edges) in edges_strategy(25), mask in proptest::collection::vec(any::<bool>(), 25)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges.iter().copied() {
            if u != v { b.add_edge(u, v); }
        }
        let g = b.build();
        let subset: Vec<VertexId> = (0..n as u32).filter(|&v| mask[v as usize]).collect();
        let sub = InducedSubgraph::extract(&g, &subset);
        // Every subgraph edge corresponds to a global edge between members.
        for (lu, lv) in sub.graph.edges() {
            let gu = sub.to_original(lu);
            let gv = sub.to_original(lv);
            prop_assert!(g.has_edge(gu, gv));
        }
        // Count global edges within the subset and compare.
        let mut expect = 0usize;
        for (i, &u) in subset.iter().enumerate() {
            for &v in subset.iter().skip(i + 1) {
                if g.has_edge(u, v) { expect += 1; }
            }
        }
        prop_assert_eq!(sub.graph.num_edges(), expect);
    }

    #[test]
    fn extract_equals_brute_force_edge_filter(
        (n, edges) in edges_strategy(30),
        masks in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 30), 1..4),
        single in 0u32..30,
    ) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            if u != v { b.add_edge(u, v); }
        }
        let g = b.build();
        let mut sets: Vec<Vec<VertexId>> = masks
            .iter()
            .map(|mask| (0..n as u32).filter(|&v| mask[v as usize]).collect())
            .collect();
        sets.push(Vec::new());
        sets.push(vec![single % n as u32]);
        sets.push((0..n as u32).collect());
        // One rank map across every set: each call must leave it clean.
        let mut ranks = RankMap::default();
        for set in &sets {
            let expect = brute_force_induced(&edges, set);
            for sub in [
                InducedSubgraph::extract(&g, set),
                InducedSubgraph::extract_with(&g, set, &mut ranks),
            ] {
                prop_assert_eq!(&sub.original, set);
                prop_assert_eq!(sub.num_vertices(), set.len());
                for (l, row) in expect.iter().enumerate() {
                    prop_assert_eq!(sub.graph.neighbors(l as VertexId), &row[..]);
                }
            }
        }
    }

    #[test]
    fn intersect_count_matches_naive(
        mut a in proptest::collection::vec(0u32..200, 0..60),
        mut b in proptest::collection::vec(0u32..200, 0..60),
    ) {
        a.sort_unstable(); a.dedup();
        b.sort_unstable(); b.dedup();
        let naive = a.iter().filter(|x| b.contains(x)).count();
        prop_assert_eq!(intersect_count(&a, &b), naive);
        let mut out = Vec::new();
        intersect_into(&a, &b, &mut out);
        prop_assert_eq!(out.len(), naive);
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn builder_idempotent_on_duplicate_edges((n, edges) in edges_strategy(20)) {
        let mut b1 = GraphBuilder::new(n);
        let mut b2 = GraphBuilder::new(n);
        for (u, v) in edges.iter().copied() {
            if u != v {
                b1.add_edge(u, v);
                b2.add_edge(u, v);
                b2.add_edge(v, u); // duplicate in the other direction
            }
        }
        prop_assert_eq!(b1.build(), b2.build());
    }

    #[test]
    fn components_agree_with_bfs_reachability((n, edges) in edges_strategy(25)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges { if u != v { b.add_edge(u, v); } }
        let g = b.build();
        let comp = Components::of(&g);
        // Same component ⟺ finite BFS distance.
        for u in g.vertices() {
            let dist = bfs_distances(&g, u);
            for v in g.vertices() {
                prop_assert_eq!(comp.same(u, v), dist[v as usize] != UNREACHABLE,
                    "u={} v={}", u, v);
            }
        }
        // Sizes partition the vertex set.
        prop_assert_eq!(comp.sizes().iter().sum::<usize>(), n);
    }

    #[test]
    fn core_numbers_are_consistent((n, edges) in edges_strategy(30)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges { if u != v { b.add_edge(u, v); } }
        let g = b.build();
        let d = CoreDecomposition::of(&g);
        // Core number ≤ degree, and the k-core subgraph has min degree ≥ k
        // within itself.
        for v in g.vertices() {
            prop_assert!(d.core[v as usize] as usize <= g.degree(v));
        }
        for k in 1..=d.degeneracy {
            let core = d.k_core(k);
            for &v in &core {
                let deg_in = g.degree_within(v, &core);
                prop_assert!(deg_in >= k as usize,
                    "v={} k={} deg_in={}", v, k, deg_in);
            }
        }
        // The (degeneracy+1)-core is empty.
        prop_assert!(d.k_core(d.degeneracy + 1).is_empty());
    }

    #[test]
    fn snapshot_roundtrips_random_attributed_graphs(
        (n, edges) in edges_strategy(20),
        attrs in proptest::collection::vec((0u32..20, 0u32..8), 0..40),
    ) {
        let mut b = AttributedGraphBuilder::new(n);
        for (u, v) in edges { if u != v { b.add_edge(u, v); } }
        for a in 0..8u32 { b.intern_attr(&format!("attr-{a}")); }
        for (v, a) in attrs {
            if (v as usize) < n { b.add_attr(v, a); }
        }
        let g = b.build();
        let g2 = snapshot::decode(snapshot::encode(&g)).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.num_attributes(), g.num_attributes());
        for v in g.graph().vertices() {
            prop_assert_eq!(g2.attributes_of(v), g.attributes_of(v));
        }
        for (u, v) in g.graph().edges() {
            prop_assert!(g2.graph().has_edge(u, v));
        }
    }

    #[test]
    fn mapped_snapshot_agrees_with_owned_decode(
        (n, edges) in edges_strategy(20),
        attrs in proptest::collection::vec((0u32..20, 0u32..8), 0..40),
    ) {
        // The zero-copy reader and the heap decoder are two independent
        // implementations of the same format; for any graph they must
        // agree on every accessor.
        let mut b = AttributedGraphBuilder::new(n);
        for (u, v) in edges { if u != v { b.add_edge(u, v); } }
        for a in 0..8u32 { b.intern_attr(&format!("attr-{a}")); }
        for (v, a) in attrs {
            if (v as usize) < n { b.add_attr(v, a); }
        }
        let g = b.build();
        let bytes = snapshot::encode(&g);
        let owned = snapshot::decode(&bytes).unwrap();
        let mapped = snapshot::MappedSnapshot::from_bytes(&bytes).unwrap();
        mapped.validate().unwrap();
        prop_assert_eq!(mapped.num_vertices(), owned.num_vertices());
        prop_assert_eq!(mapped.num_edges(), owned.num_edges());
        prop_assert_eq!(mapped.num_attributes(), owned.num_attributes());
        for v in owned.graph().vertices() {
            prop_assert_eq!(mapped.neighbors(v).unwrap(), owned.graph().neighbors(v));
            prop_assert_eq!(mapped.attributes_of(v).unwrap(), owned.attributes_of(v));
        }
        for a in 0..owned.num_attributes() as u32 {
            prop_assert_eq!(mapped.vertices_with(a).unwrap(), owned.vertices_with(a));
            prop_assert_eq!(mapped.support(a).unwrap(), owned.support(a));
            prop_assert_eq!(mapped.attr_name(a).unwrap(), owned.attr_name(a));
        }
        let materialized = mapped.to_graph().unwrap();
        let (enc_mapped, enc_owned) =
            (snapshot::encode(&materialized), snapshot::encode(&owned));
        prop_assert_eq!(
            enc_mapped.as_ref(),
            enc_owned.as_ref(),
            "materialized graph drifted from the owned decode"
        );
    }

    #[test]
    fn snapshot_decoder_never_panics_on_corruption(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes: decoding must return an error or a graph, never
        // panic. Three escalating shapes: raw noise (dies at the magic),
        // noise behind a valid header (dies at the checksum), and noise
        // behind a valid header *and* a resealed checksum (reaches the
        // structural validation layer).
        let _ = snapshot::decode(bytes::Bytes::from(raw.clone()));
        let mut with_header = b"SCPMSNAP".to_vec();
        with_header.extend_from_slice(&snapshot::VERSION.to_le_bytes());
        with_header.extend_from_slice(&raw);
        let _ = snapshot::decode(bytes::Bytes::from(with_header.clone()));
        let sum = snapshot::fnv1a64(&with_header);
        with_header.extend_from_slice(&sum.to_le_bytes());
        let _ = snapshot::decode(bytes::Bytes::from(with_header));
    }

    #[test]
    fn interchange_writers_and_parsers_roundtrip(
        (n, edges) in edges_strategy(20),
        attrs in proptest::collection::vec((0u32..20, 0u32..8), 0..40),
    ) {
        // Names deliberately include separators and quotes to exercise
        // the quoting layer.
        let names = ["plain", "two words", "comma,name", "q\"uote", "tab\tname",
                     "x", "y", "z"];
        let mut b = AttributedGraphBuilder::new(n);
        for (u, v) in edges { if u != v { b.add_edge(u, v); } }
        for name in names { b.intern_attr(name); }
        for (v, a) in attrs {
            if (v as usize) < n { b.add_attr(v, a); }
        }
        let g = b.build();

        let mut edge_buf = Vec::new();
        scpm_graph::io::write_edge_list(g.graph(), &mut edge_buf).unwrap();
        let mut attr_buf = Vec::new();
        scpm_graph::io::write_attr_table(&g, &mut attr_buf).unwrap();

        let mut src = scpm_graph::io::RawSource::new();
        src.read_edge_list(edge_buf.as_slice()).unwrap();
        src.read_attr_table(attr_buf.as_slice()).unwrap();

        // Vertex tokens are ids; every vertex appears in the attr table.
        prop_assert!(src.vertices.all_numeric());
        prop_assert_eq!(src.vertices.len(), n);
        prop_assert_eq!(src.edges.len(), g.num_edges());
        prop_assert_eq!(src.self_loops, 0);
        // Every pair survives with its exact name (quoting round-trips).
        let total_pairs: usize = g.graph().vertices()
            .map(|v| g.attributes_of(v).len()).sum();
        prop_assert_eq!(src.pairs.len(), total_pairs);
        for &(v, a) in &src.pairs {
            let vid: u32 = src.vertices.name(v).parse().unwrap();
            let name = src.attributes.name(a);
            let orig = g.attr_id(name);
            prop_assert!(orig.is_some(), "attribute {:?} lost", name);
            prop_assert!(g.attributes_of(vid).contains(&orig.unwrap()));
        }
    }
}
