//! k-core decomposition (Batagelj–Zaveršnik bucket peeling, `O(n + m)`).
//!
//! The core number of a vertex is the largest `k` such that the vertex
//! belongs to a subgraph where every vertex has degree ≥ `k`. The
//! quasi-clique vertex reduction of §3.2.2 is exactly a single `z`-core
//! peel; the full decomposition exposes the whole hierarchy, which the
//! graph-stats CLI reports and the datasets use for calibration (a planted
//! community of size `s` and density `p_in` shows up as an
//! `≈ p_in·(s−1)`-core).
//!
//! [`peel_to_core`] is the single-threshold peel on its own: the one queue
//! loop behind the quasi-clique engine's per-search `z`-core, the miner's
//! global `z`-core and the out-of-core driver's core over a mapped CSR. It
//! reads adjacency through a fallible accessor, so a corrupt mapped graph
//! surfaces as an error instead of a panic.

use crate::bitadj::VertexBitset;
use crate::csr::{CsrGraph, VertexId};

/// The `k`-core of a graph on the vertices `0..n`, as a membership mask:
/// every vertex of degree below `k` is removed, and every vertex that drops
/// below `k` as its neighbours go, to a fixpoint. `neighbors(v)` returns
/// `v`'s neighbour list; the first error it returns ends the peel.
///
/// `O(n + m)` time. Besides the mask it holds one degree word per vertex
/// and a queue of removed vertices; it never copies the adjacency.
///
/// ```
/// use scpm_graph::builder::graph_from_edges;
/// use scpm_graph::kcore::peel_to_core;
///
/// // A triangle 0-1-2 with a tail 2-3-4: the 2-core is the triangle.
/// let g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
/// let core = peel_to_core(5, 2, |v| Ok::<_, ()>(g.neighbors(v))).unwrap();
/// assert_eq!(core.to_vec(), vec![0, 1, 2]);
/// ```
pub fn peel_to_core<'a, E>(
    n: usize,
    k: usize,
    mut neighbors: impl FnMut(VertexId) -> Result<&'a [VertexId], E>,
) -> Result<VertexBitset, E> {
    let mut alive = VertexBitset::empty(n);
    if k == 0 {
        (0..n as VertexId).for_each(|v| alive.insert(v));
        return Ok(alive);
    }
    let mut degree: Vec<u32> = Vec::with_capacity(n);
    let mut queue: Vec<VertexId> = Vec::new();
    for v in 0..n as VertexId {
        let d = neighbors(v)?.len();
        degree.push(d as u32);
        if d < k {
            queue.push(v);
        } else {
            alive.insert(v);
        }
    }
    while let Some(v) = queue.pop() {
        for &u in neighbors(v)? {
            if alive.contains(u) {
                degree[u as usize] -= 1;
                if (degree[u as usize] as usize) < k {
                    alive.remove(u);
                    queue.push(u);
                }
            }
        }
    }
    Ok(alive)
}

/// [`peel_to_core`] over an in-memory graph.
pub fn k_core_mask(g: &CsrGraph, k: usize) -> VertexBitset {
    let Ok(core) = peel_to_core(g.num_vertices(), k, |v| {
        Ok::<_, std::convert::Infallible>(g.neighbors(v))
    });
    core
}

/// Core numbers of every vertex plus the decomposition order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `core[v]` = core number of vertex `v`.
    pub core: Vec<u32>,
    /// The degeneracy: the maximum core number (0 for an empty graph).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// Computes core numbers by peeling minimum-degree vertices with
    /// bucketed counting sort.
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return CoreDecomposition {
                core: Vec::new(),
                degeneracy: 0,
            };
        }
        let max_deg = g.max_degree();
        let mut degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();

        // Counting sort of vertices by degree.
        let mut bin = vec![0usize; max_deg + 2];
        for &d in &degree {
            bin[d] += 1;
        }
        let mut start = 0usize;
        for b in bin.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        // vert: vertices in degree order; pos: index of each vertex in vert.
        let mut vert = vec![0 as VertexId; n];
        let mut pos = vec![0usize; n];
        {
            let mut next = bin.clone();
            for v in 0..n {
                let d = degree[v];
                pos[v] = next[d];
                vert[next[d]] = v as VertexId;
                next[d] += 1;
            }
        }

        let mut core = vec![0u32; n];
        for i in 0..n {
            let v = vert[i];
            core[v as usize] = degree[v as usize] as u32;
            for &u in g.neighbors(v) {
                let du = degree[u as usize];
                if du > degree[v as usize] {
                    // Move u to the front of its bucket, then shrink its
                    // degree by one.
                    let pu = pos[u as usize];
                    let pw = bin[du];
                    let w = vert[pw];
                    if u != w {
                        vert.swap(pu, pw);
                        pos[u as usize] = pw;
                        pos[w as usize] = pu;
                    }
                    bin[du] += 1;
                    degree[u as usize] -= 1;
                }
            }
        }
        let degeneracy = core.iter().copied().max().unwrap_or(0);
        CoreDecomposition { core, degeneracy }
    }

    /// Sorted vertices of the `k`-core (possibly empty).
    pub fn k_core(&self, k: u32) -> Vec<VertexId> {
        self.core
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::csr::CsrGraph;

    /// Reference implementation: repeatedly peel vertices with degree < k
    /// and check membership.
    fn kcore_naive(g: &CsrGraph, k: usize) -> Vec<VertexId> {
        let mut alive: Vec<bool> = vec![true; g.num_vertices()];
        loop {
            let mut changed = false;
            for v in g.vertices() {
                if alive[v as usize] {
                    let d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| alive[u as usize])
                        .count();
                    if d < k {
                        alive[v as usize] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (0..g.num_vertices() as VertexId)
            .filter(|&v| alive[v as usize])
            .collect()
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 with path 2-3-4.
        let g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let d = CoreDecomposition::of(&g);
        assert_eq!(d.core, vec![2, 2, 2, 1, 1]);
        assert_eq!(d.degeneracy, 2);
        assert_eq!(d.k_core(2), vec![0, 1, 2]);
        assert_eq!(d.k_core(1), vec![0, 1, 2, 3, 4]);
        assert!(d.k_core(3).is_empty());
    }

    #[test]
    fn clique_core_numbers() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(5, edges);
        let d = CoreDecomposition::of(&g);
        assert!(d.core.iter().all(|&c| c == 4));
        assert_eq!(d.degeneracy, 4);
    }

    #[test]
    fn matches_naive_peeling_on_random_graphs() {
        for seed in 0..5u64 {
            let g = crate::generators::erdos_renyi::gnm(40, 90, seed);
            let d = CoreDecomposition::of(&g);
            for k in 0..=d.degeneracy + 1 {
                assert_eq!(
                    d.k_core(k),
                    kcore_naive(&g, k as usize),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn core_matches_reduce_vertices_threshold() {
        // The quasi-clique vertex reduction with threshold z keeps exactly
        // the z-core.
        let g = crate::generators::erdos_renyi::gnm(50, 120, 3);
        let d = CoreDecomposition::of(&g);
        for z in 1..=3u32 {
            let core = d.k_core(z);
            let peeled = kcore_naive(&g, z as usize);
            assert_eq!(core, peeled);
        }
    }

    #[test]
    fn single_peel_matches_decomposition_and_naive() {
        for seed in 0..5u64 {
            let g = crate::generators::erdos_renyi::gnm(60, 150, seed);
            let d = CoreDecomposition::of(&g);
            for k in 0..=d.degeneracy + 1 {
                let mask = k_core_mask(&g, k as usize);
                assert!(mask.canonical());
                assert_eq!(mask.to_vec(), d.k_core(k), "seed {seed} k {k}");
                assert_eq!(mask.to_vec(), kcore_naive(&g, k as usize));
            }
        }
    }

    #[test]
    fn peel_stops_at_the_first_accessor_error() {
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut calls = 0;
        let out = peel_to_core(4, 2, |v| {
            calls += 1;
            if v == 3 {
                Err("bad row")
            } else {
                Ok(g.neighbors(v))
            }
        });
        assert_eq!(out, Err("bad row"));
        assert_eq!(calls, 4);
        assert!(k_core_mask(&CsrGraph::empty(0), 3).is_empty());
    }

    #[test]
    fn empty_and_isolated() {
        let d = CoreDecomposition::of(&CsrGraph::empty(0));
        assert_eq!(d.degeneracy, 0);
        let d = CoreDecomposition::of(&CsrGraph::empty(3));
        assert_eq!(d.core, vec![0, 0, 0]);
        assert_eq!(d.k_core(0), vec![0, 1, 2]);
        assert!(d.k_core(1).is_empty());
    }
}
