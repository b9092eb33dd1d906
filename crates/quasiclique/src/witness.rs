//! Greedy quasi-clique witnesses for the coverage search.
//!
//! The coverage search (§3.2.2 of the paper) prunes a subtree once every
//! vertex of `X ∪ cand(X)` is already covered, so the sooner the covered
//! set `K` fills up, the less of the tree it explores. Before the exact
//! search starts, the engine runs this cheap greedy pass over the reduced
//! graph and marks the vertices of every quasi-clique it finds as covered;
//! the exact search then only has to decide the vertices still open.
//!
//! Seeds are visited in descending degree, ties by smaller id, skipping
//! seeds already covered. From a seed, `S` starts as the seed's closed
//! two-hop neighbourhood; the pass then repeatedly drops the non-seed
//! vertex of minimum degree within `S` (ties by smaller id). It succeeds as
//! soon as `|S| ≥ min_size` and every member has degree within `S` of at
//! least [`QcConfig::required_degree`]`(|S|)`, and gives up when
//! `|S| < min_size` or the seed's degree within `S` falls below
//! [`QcConfig::min_required_degree`].
//!
//! Each witness is a γ-quasi-clique of the graph it was peeled from, and
//! quasi-cliqueness depends only on induced degrees, so every vertex it
//! covers belongs to `K`. Pre-covering it changes which subtrees the
//! covered-candidate rule prunes, never `K` itself.
//!
//! Cost per seed: building `S` and its degrees is `O(Σ_{w∈S} deg(w))`, and
//! peeling makes one degree-bucket move per removed edge end, so the pass
//! never scans `S` for its minimum. Within a bucket the smallest id is kept
//! on top of a heap, which adds a logarithmic factor to each move.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::QcConfig;
use scpm_graph::csr::{CsrGraph, VertexId};

/// Reusable buffers of the witness pass, grown to the largest graph seen
/// and kept across calls.
#[derive(Debug, Default)]
pub(crate) struct WitnessScratch {
    /// Seeds in visiting order.
    seeds: Vec<VertexId>,
    /// `mark[v] == gen` iff `v` is currently a member of `S`.
    mark: Vec<u32>,
    gen: u32,
    /// Degree within `S`, valid for current members.
    deg: Vec<u32>,
    /// Every vertex that entered `S` for the current seed, seed first.
    members: Vec<VertexId>,
    /// `buckets[d]`: non-seed members last seen at degree `d`, smallest id
    /// on top. Entries whose vertex left `S` or changed degree are stale
    /// and skipped when they surface.
    buckets: Vec<BinaryHeap<Reverse<VertexId>>>,
    /// Members of the last witness found.
    witness: Vec<VertexId>,
}

/// Runs the pass over `g`, marks every witness vertex in `covered`, and
/// returns how many vertices it newly covered.
pub(crate) fn cover(
    g: &CsrGraph,
    cfg: &QcConfig,
    s: &mut WitnessScratch,
    covered: &mut [bool],
) -> usize {
    run(g, cfg, s, covered, |_| {})
}

/// Every witness the pass finds in `g`, each sorted, in discovery order.
///
/// This is the pass the coverage search runs on its reduced graph before
/// searching (see the module docs); each returned set satisfies
/// [`QcConfig::is_quasi_clique`] on `g`.
///
/// ```
/// use scpm_graph::builder::graph_from_edges;
/// use scpm_quasiclique::{witness, QcConfig};
///
/// // A triangle with a pendant vertex: the peel drops the pendant.
/// let g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
/// assert_eq!(witness::witnesses(&g, &QcConfig::new(1.0, 3)), vec![vec![0, 1, 2]]);
/// ```
pub fn witnesses(g: &CsrGraph, cfg: &QcConfig) -> Vec<Vec<VertexId>> {
    let mut covered = vec![false; g.num_vertices()];
    let mut found = Vec::new();
    run(g, cfg, &mut WitnessScratch::default(), &mut covered, |w| {
        let mut w = w.to_vec();
        w.sort_unstable();
        found.push(w);
    });
    found
}

fn run(
    g: &CsrGraph,
    cfg: &QcConfig,
    s: &mut WitnessScratch,
    covered: &mut [bool],
    mut on_witness: impl FnMut(&[VertexId]),
) -> usize {
    let n = g.num_vertices();
    s.mark.clear();
    s.mark.resize(n, 0);
    s.gen = 0;
    s.deg.resize(n, 0);
    s.seeds.clear();
    s.seeds.extend(0..n as VertexId);
    s.seeds.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
    let mut newly = 0;
    for i in 0..n {
        let seed = s.seeds[i];
        if covered[seed as usize] || !s.peel_from(g, cfg, seed) {
            continue;
        }
        for &v in &s.witness {
            if !covered[v as usize] {
                covered[v as usize] = true;
                newly += 1;
            }
        }
        on_witness(&s.witness);
    }
    newly
}

impl WitnessScratch {
    /// Peels the closed two-hop neighbourhood of `seed`; on success leaves
    /// the quasi-clique in `self.witness` and returns `true`.
    fn peel_from(&mut self, g: &CsrGraph, cfg: &QcConfig, seed: VertexId) -> bool {
        self.gen += 1;
        let gen = self.gen;
        let mark = &mut self.mark;
        let members = &mut self.members;
        members.clear();
        mark[seed as usize] = gen;
        members.push(seed);
        // Expanding the seed appends exactly its neighbours (CSR rows have
        // no self-loops or duplicates), so `members[..=deg(seed)]` is the
        // closed one-hop set whose expansion closes the two-hop set.
        for i in 0..=g.degree(seed) {
            for &w in g.neighbors(members[i]) {
                if mark[w as usize] != gen {
                    mark[w as usize] = gen;
                    members.push(w);
                }
            }
        }
        let mut max_deg = 0;
        for &v in members.iter() {
            let d = g
                .neighbors(v)
                .iter()
                .filter(|&&w| mark[w as usize] == gen)
                .count();
            self.deg[v as usize] = d as u32;
            max_deg = max_deg.max(d);
        }
        if self.buckets.len() <= max_deg {
            self.buckets.resize_with(max_deg + 1, BinaryHeap::new);
        }
        for &v in &members[1..] {
            self.buckets[self.deg[v as usize] as usize].push(Reverse(v));
        }

        let z = cfg.min_required_degree();
        let mut size = members.len();
        let mut low = 0usize;
        let found = loop {
            let seed_deg = self.deg[seed as usize];
            if size < cfg.min_size || (seed_deg as usize) < z {
                break false;
            }
            // Lowest live bucket entry: the non-seed member to drop next.
            let next = loop {
                let Some(&Reverse(v)) = self.buckets.get(low).and_then(|b| b.peek()) else {
                    if low >= max_deg {
                        break None;
                    }
                    low += 1;
                    continue;
                };
                if mark[v as usize] == gen && self.deg[v as usize] as usize == low {
                    break Some(v);
                }
                self.buckets[low].pop();
            };
            let min_deg = next.map_or(seed_deg, |v| self.deg[v as usize].min(seed_deg));
            if min_deg as usize >= cfg.required_degree(size) {
                break true;
            }
            // A lone seed has degree 0 = required_degree(1), so a failed
            // check always leaves a non-seed member to drop.
            let Some(v) = next else { break false };
            self.buckets[low].pop();
            mark[v as usize] = 0;
            size -= 1;
            for &u in g.neighbors(v) {
                if mark[u as usize] == gen {
                    let d = &mut self.deg[u as usize];
                    *d -= 1;
                    if u != seed {
                        self.buckets[*d as usize].push(Reverse(u));
                        low = low.min(*d as usize);
                    }
                }
            }
        };
        for bucket in &mut self.buckets[..=max_deg] {
            bucket.clear();
        }
        if found {
            self.witness.clear();
            self.witness
                .extend(members.iter().filter(|&&v| mark[v as usize] == gen));
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::engine::{Miner, PruneFlags};
    use scpm_graph::builder::graph_from_edges;

    #[test]
    fn witnesses_covering_the_reduced_graph_leave_nothing_to_search() {
        // Two K5s joined by the path 4-10-11-5: the z = 3 core peel drops
        // the path, and one witness per K5 covers all ten survivors, so
        // the exact search stops before its root.
        let mut edges = vec![(4, 10), (10, 11), (11, 5)];
        for base in [0u32, 5] {
            for u in 0..5 {
                for v in (u + 1)..5 {
                    edges.push((base + u, base + v));
                }
            }
        }
        let g = graph_from_edges(12, edges);
        let cfg = QcConfig::new(1.0, 4);
        let expect = bruteforce::coverage(&g, &cfg);
        assert_eq!(expect, (0..10).collect::<Vec<_>>());
        let on = Miner::new(&g, cfg).coverage();
        assert_eq!(on.covered, expect);
        assert_eq!(on.stats.nodes_visited, 0, "{:?}", on.stats);
        let off = Miner::new(&g, cfg)
            .with_prune(PruneFlags {
                witnesses: false,
                ..PruneFlags::default()
            })
            .coverage();
        assert_eq!(off.covered, expect);
        assert!(off.stats.nodes_visited > 0);
    }

    #[test]
    fn peels_pendant_paths_off_a_clique() {
        // K4 on {0..3} with a path 3-4-5 hanging off it.
        let g = graph_from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        );
        assert_eq!(
            witnesses(&g, &QcConfig::new(1.0, 4)),
            vec![vec![0, 1, 2, 3]]
        );
    }

    #[test]
    fn covered_seeds_are_skipped_and_cover_counts_new_vertices() {
        // Two disjoint triangles: one witness each, six vertices covered.
        let g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let cfg = QcConfig::new(1.0, 3);
        assert_eq!(witnesses(&g, &cfg), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let mut covered = vec![false; 6];
        covered[0] = true;
        let newly = cover(&g, &cfg, &mut WitnessScratch::default(), &mut covered);
        assert_eq!(newly, 5);
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn gives_up_when_the_seed_loses_its_degree() {
        // A path has no triangle: every seed fails.
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(witnesses(&g, &QcConfig::new(1.0, 3)).is_empty());
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        // Two triangles sharing vertex 2 (the peel from 2 keeps {2, 3, 4};
        // seeds 0 and 1 then lose their partner first and give up), then a
        // smaller graph through the same scratch.
        let big = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)]);
        let small = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let cfg = QcConfig::new(1.0, 3);
        assert_eq!(witnesses(&big, &cfg), vec![vec![2, 3, 4]]);
        let mut s = WitnessScratch::default();
        for (g, want) in [(&big, 3), (&small, 3), (&big, 3)] {
            let mut covered = vec![false; g.num_vertices()];
            assert_eq!(cover(g, &cfg, &mut s, &mut covered), want);
        }
    }
}
