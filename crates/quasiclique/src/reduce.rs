//! Global vertex reduction before the quasi-clique search ("vertex
//! pruning" in the paper's §3.2.2), in two passes.
//!
//! **`z`-core.** A vertex with degree below `z = ⌈γ·(min_size−1)⌉` cannot
//! belong to any qualifying quasi-clique; removing it may push neighbors
//! below the threshold, so removal is iterated to a fixpoint (a `z`-core
//! peeling, [`reduce_vertices`]).
//!
//! **Two-hop core.** For `γ ≥ 0.5` every γ-quasi-clique `Q` has diameter
//! at most 2, so `Q ⊆ N₂[v]` for every `v ∈ Q`, where `N₂[v]` is `v`'s
//! closed two-hop ball. Every member of `Q` has at least
//! `required_degree(|Q|) ≥ z` neighbours inside `Q`, so `Q` lies in the
//! `z`-core of `G[N₂[v]]`, and that core has at least `min_size` vertices.
//! [`two_hop_core`] keeps `v` only while both hold, with balls taken over
//! the vertices still alive; by induction on the removals no vertex of
//! any quasi-clique is ever dropped. It runs as a worklist fixpoint: when
//! `v` is removed, the alive members of `v`'s ball — exactly the vertices
//! whose own ball contained `v` — are queued again. The rule is monotone
//! in the alive set, so the fixpoint does not depend on the queue order.
//!
//! Cost of the two-hop pass: checking `v` builds the ball from the
//! neighbour lists of `N₁[v]`, counts each member's degree within the
//! ball, and peels the ball's `z`-core, scanning each member's list at
//! most three times: `O(Σ_{u∈ball(v)} (1 + deg u))`. Every vertex is
//! checked once up front and again only when a member of its ball is
//! removed, so the number of checks is at most
//! `n + Σ_{removed r} |ball(r)|`.

use std::collections::VecDeque;

use crate::config::QcConfig;
use scpm_graph::bitadj::VertexBitset;
use scpm_graph::csr::{CsrGraph, VertexId};
use scpm_graph::kcore::k_core_mask;

/// Returns the sorted vertex list surviving iterated degree-threshold
/// peeling: the `z`-core of `g` ([`scpm_graph::kcore::peel_to_core`]).
pub fn reduce_vertices(g: &CsrGraph, cfg: &QcConfig) -> Vec<VertexId> {
    k_core_mask(g, cfg.min_required_degree()).to_vec()
}

/// Reusable buffers of the two-hop core peel, grown to the largest graph
/// seen and kept across calls (a warm call allocates nothing).
#[derive(Debug, Default)]
pub(crate) struct PeelScratch {
    /// Survivors of the last pass that removed anything.
    pub(crate) keep: VertexBitset,
    alive: Vec<bool>,
    queued: Vec<bool>,
    /// First in, first out: a vertex re-queued by a removal waits for the
    /// rest of the round, so one re-check answers for every removal in its
    /// ball meanwhile (a stack re-checked four times as often on a
    /// 394-vertex coverage graph).
    work: VecDeque<VertexId>,
    /// `stamp[u] == gen` iff `u` is in the ball being checked and not yet
    /// peeled from its core.
    stamp: Vec<u32>,
    gen: u32,
    /// Degree within the ball's core, valid for stamped vertices.
    deg: Vec<u32>,
    /// Members of the ball being checked, centre first.
    ball: Vec<VertexId>,
    /// Ball members below `z`, not yet peeled.
    low: Vec<VertexId>,
}

/// Runs the two-hop core peel over `g` and returns how many vertices it
/// removed; when that is nonzero, `s.keep` holds the survivors. Inert
/// (returns 0) for `γ < 0.5`, where a quasi-clique may be wider than two
/// hops.
pub(crate) fn two_hop_peel(g: &CsrGraph, cfg: &QcConfig, s: &mut PeelScratch) -> usize {
    run(g, cfg, s, |_, _| {}).0
}

/// Sorted survivors of the two-hop core peel (see the module docs); every
/// vertex of `g` when `γ < 0.5`.
///
/// This is the pass the search engine runs on its `z`-core before
/// searching (with [`crate::PruneFlags::diameter2`] on). Every vertex of
/// every γ-quasi-clique of `g` survives it.
///
/// ```
/// use scpm_graph::builder::graph_from_edges;
/// use scpm_quasiclique::{reduce, reduce_vertices, QcConfig};
///
/// // A triangle 0-1-2 and a hexagon 2-3-4-5-6-7 sharing vertex 2. The
/// // 2-core keeps everything, but the two-hop ball of 5 is the path
/// // 3-4-5-6-7, whose 2-core is empty; the hexagon unravels from there.
/// let g = graph_from_edges(
///     8,
///     [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 2)],
/// );
/// let cfg = QcConfig::new(1.0, 3);
/// assert_eq!(reduce_vertices(&g, &cfg).len(), 8);
/// assert_eq!(reduce::two_hop_core(&g, &cfg), vec![0, 1, 2]);
/// ```
pub fn two_hop_core(g: &CsrGraph, cfg: &QcConfig) -> Vec<VertexId> {
    let mut s = PeelScratch::default();
    run(g, cfg, &mut s, |_, _| {});
    (0..g.num_vertices() as VertexId)
        .filter(|&v| s.alive[v as usize])
        .collect()
}

/// The peel loop. Calls `on_check(v, removed)` after every check and
/// returns the number of removed vertices and of loop steps taken — one
/// per ball member plus one per neighbour scanned — which the complexity
/// test holds to the documented bound.
fn run(
    g: &CsrGraph,
    cfg: &QcConfig,
    s: &mut PeelScratch,
    mut on_check: impl FnMut(VertexId, bool),
) -> (usize, usize) {
    let n = g.num_vertices();
    s.alive.clear();
    s.alive.resize(n, true);
    let z = cfg.min_required_degree();
    if cfg.gamma < 0.5 || z == 0 {
        return (0, 0);
    }
    s.queued.clear();
    s.queued.resize(n, true);
    s.stamp.clear();
    s.stamp.resize(n, 0);
    s.gen = 0;
    s.deg.resize(n, 0);
    s.work.clear();
    s.work.extend(0..n as VertexId);
    // A `z`-core input (what the engine passes) is the core of any ball
    // that reaches all of it.
    let core_input = (0..n as VertexId).all(|v| g.degree(v) >= z);
    let (mut removed, mut steps) = (0, 0);
    while let Some(v) = s.work.pop_front() {
        s.queued[v as usize] = false;
        let keep = s.check(g, cfg.min_size, z, v, core_input, &mut steps);
        on_check(v, !keep);
        if keep {
            continue;
        }
        s.alive[v as usize] = false;
        removed += 1;
        for &u in &s.ball[1..] {
            if !s.queued[u as usize] {
                s.queued[u as usize] = true;
                s.work.push_back(u);
            }
        }
    }
    if removed > 0 {
        s.keep.reset(n);
        for v in 0..n as VertexId {
            if s.alive[v as usize] {
                s.keep.insert(v);
            }
        }
    }
    (removed, steps)
}

impl PeelScratch {
    /// Readies the buffers for [`PeelScratch::ball_core`] over `g`, every
    /// vertex alive. `g` must be a `z`-core (every graph the engine
    /// searches is one).
    pub(crate) fn begin_balls(&mut self, g: &CsrGraph, cfg: &QcConfig) {
        let n = g.num_vertices();
        debug_assert!((0..n as VertexId).all(|u| g.degree(u) >= cfg.min_required_degree()));
        self.alive.clear();
        self.alive.resize(n, true);
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.gen = 0;
        self.deg.resize(n, 0);
    }

    /// Leaves `v` out of every later ball.
    pub(crate) fn drop_vertex(&mut self, v: VertexId) {
        self.alive[v as usize] = false;
    }

    /// Puts the `z`-core of `G[N₂[v]]`, `v`'s closed two-hop ball in `g`,
    /// into `core`, sorted, and returns `true`; returns `false` when `v`
    /// is not in that core or it has fewer than `min_size` vertices, so no
    /// quasi-clique of `g` holds `v`. Vertices dropped since
    /// [`PeelScratch::begin_balls`] readied the buffers for `g` are left
    /// out. `O(Σ_{u∈ball(v)} (1 + deg u))`, like one check of the two-hop
    /// peel.
    pub(crate) fn ball_core(
        &mut self,
        g: &CsrGraph,
        cfg: &QcConfig,
        v: VertexId,
        core: &mut Vec<VertexId>,
    ) -> bool {
        let z = cfg.min_required_degree();
        if !self.check(g, cfg.min_size, z, v, true, &mut 0) {
            return false;
        }
        core.clear();
        let (stamp, gen) = (&self.stamp, self.gen);
        core.extend(self.ball.iter().filter(|&&u| stamp[u as usize] == gen));
        core.sort_unstable();
        true
    }

    /// Whether `v` lies in a `z`-core of at least `min_size` vertices of
    /// its alive two-hop ball. Leaves the whole ball in `self.ball`. When
    /// `g` is a `z`-core, a ball that reaches every vertex (possible only
    /// before the first removal) passes as soon as it is full: on dense
    /// graphs, where the peel rarely removes anything, that skips most of
    /// the scan.
    fn check(
        &mut self,
        g: &CsrGraph,
        min_size: usize,
        z: usize,
        v: VertexId,
        core_input: bool,
        steps: &mut usize,
    ) -> bool {
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        let gen = self.gen;
        let (alive, stamp, ball) = (&self.alive, &mut self.stamp, &mut self.ball);
        let n = alive.len();
        ball.clear();
        stamp[v as usize] = gen;
        ball.push(v);
        // `ball[..one]` is the closed one-hop set; expanding it closes the
        // two-hop ball.
        for &w in g.neighbors(v) {
            if alive[w as usize] {
                stamp[w as usize] = gen;
                ball.push(w);
            }
        }
        let one = ball.len();
        *steps += g.degree(v);
        for i in 1..one {
            if core_input && ball.len() == n {
                break;
            }
            for &w in g.neighbors(ball[i]) {
                *steps += 1;
                if alive[w as usize] && stamp[w as usize] != gen {
                    stamp[w as usize] = gen;
                    ball.push(w);
                }
            }
        }
        *steps += ball.len();
        if ball.len() < min_size {
            return false;
        }
        if core_input && ball.len() == n {
            return true;
        }
        let low = &mut self.low;
        low.clear();
        for &u in ball.iter() {
            let nbrs = g.neighbors(u);
            *steps += nbrs.len();
            let d = nbrs.iter().filter(|&&w| stamp[w as usize] == gen).count();
            self.deg[u as usize] = d as u32;
            if d < z {
                low.push(u);
            }
        }
        // Peel the ball to its `z`-core; give up as soon as the centre
        // goes or too few members can remain.
        let mut dropped = low.len();
        for &u in low.iter() {
            stamp[u as usize] = 0;
        }
        while let Some(u) = low.pop() {
            if u == v || ball.len() - dropped < min_size {
                return false;
            }
            for &w in g.neighbors(u) {
                *steps += 1;
                if stamp[w as usize] == gen {
                    let d = &mut self.deg[w as usize];
                    *d -= 1;
                    if (*d as usize) < z {
                        stamp[w as usize] = 0;
                        low.push(w);
                        dropped += 1;
                    }
                }
            }
        }
        // Every pop checked the centre and the size, and nothing is left.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::engine::{Miner, PruneFlags};
    use scpm_graph::builder::graph_from_edges;
    use scpm_graph::induced::InducedSubgraph;

    #[test]
    fn peeling_removes_low_degree_chains() {
        // Triangle 0-1-2 with a pendant path 2-3-4.
        let g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let cfg = QcConfig::new(1.0, 3); // z = 2
        assert_eq!(reduce_vertices(&g, &cfg), vec![0, 1, 2]);
    }

    #[test]
    fn peeling_cascades() {
        // Path 0-1-2-3: z=2 kills endpoints, then everything.
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let cfg = QcConfig::new(1.0, 3);
        assert!(reduce_vertices(&g, &cfg).is_empty());
    }

    #[test]
    fn z_zero_keeps_everything() {
        let g = graph_from_edges(3, [(0, 1)]);
        let cfg = QcConfig::new(0.5, 1); // z = 0
        assert_eq!(reduce_vertices(&g, &cfg), vec![0, 1, 2]);
    }

    /// Closed two-hop ball of `v` over the `alive` vertices, sorted.
    fn ball_of(g: &CsrGraph, alive: &[bool], v: VertexId) -> Vec<VertexId> {
        let mut ball = vec![v];
        for &w in g.neighbors(v) {
            if alive[w as usize] {
                ball.push(w);
                ball.extend(g.neighbors(w).iter().filter(|&&x| alive[x as usize]));
            }
        }
        ball.sort_unstable();
        ball.dedup();
        ball
    }

    /// The peel's fixpoint by whole sweeps, each ball's core taken by
    /// [`reduce_vertices`] on the extracted ball.
    fn reference_core(g: &CsrGraph, cfg: &QcConfig) -> Vec<VertexId> {
        let n = g.num_vertices();
        let mut alive = vec![true; n];
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n as VertexId {
                if !alive[v as usize] {
                    continue;
                }
                let ball = ball_of(g, &alive, v);
                let sub = InducedSubgraph::extract(g, &ball);
                let core = reduce_vertices(&sub.graph, cfg);
                let centre = sub.to_local(v).unwrap();
                if core.len() < cfg.min_size || !core.contains(&centre) {
                    alive[v as usize] = false;
                    changed = true;
                }
            }
        }
        (0..n as VertexId).filter(|&v| alive[v as usize]).collect()
    }

    /// Runs the peel, replays its checks against independently computed
    /// balls, and asserts the documented bounds: at most
    /// `n + Σ_{removed r} |ball(r)|` checks, each within
    /// `3·Σ_{u∈ball(v)} (1 + deg u)` steps. Returns the survivors.
    fn assert_peel_within_bound(g: &CsrGraph, cfg: &QcConfig) -> Vec<VertexId> {
        let mut checks = Vec::new();
        let mut s = PeelScratch::default();
        let (removed, steps) = run(g, cfg, &mut s, |v, r| checks.push((v, r)));
        let n = g.num_vertices();
        let mut alive = vec![true; n];
        let (mut check_bound, mut step_bound) = (n, 0);
        for &(v, r) in &checks {
            let ball = ball_of(g, &alive, v);
            step_bound += 3 * ball.iter().map(|&u| 1 + g.degree(u)).sum::<usize>();
            if r {
                alive[v as usize] = false;
                check_bound += ball.len();
            }
        }
        assert!(
            checks.len() <= check_bound,
            "{} checks, bound {check_bound}",
            checks.len()
        );
        assert!(steps <= step_bound, "{steps} steps, bound {step_bound}");
        assert_eq!(removed, checks.iter().filter(|c| c.1).count());
        assert_eq!(s.alive, alive);
        (0..n as VertexId).filter(|&v| alive[v as usize]).collect()
    }

    /// K4 on {0..3} and a hexagon 3-4-5-6-7-8 through vertex 3.
    fn clique_with_hexagon() -> CsrGraph {
        graph_from_edges(
            9,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 3),
            ],
        )
    }

    /// `rings` hexagons `5r..=5r+5`, consecutive ones sharing a vertex: a
    /// 2-core of girth 6, so every two-hop ball is a tree.
    fn hexagon_chain(rings: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for b in (0..rings).map(|r| 5 * r) {
            edges.extend((b..b + 5).map(|u| (u, u + 1)));
            edges.push((b, b + 5));
        }
        graph_from_edges(5 * rings as usize + 1, edges)
    }

    fn complete(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(n as usize, edges)
    }

    /// A seeded G(n, p) graph (SplitMix64 stream).
    fn random_graph(n: u32, per_mille: u64, seed: u64) -> CsrGraph {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if next() % 1000 < per_mille {
                    edges.push((u, v));
                }
            }
        }
        graph_from_edges(n as usize, edges)
    }

    #[test]
    fn peeled_search_skips_the_removed_vertices() {
        // The 2-core keeps the hexagon, the two-hop peel drops it. The
        // search then visits exactly the nodes it visits over the K4
        // alone, and fewer than with the diameter-2 rule off; the cover is
        // brute force's either way.
        let g = clique_with_hexagon();
        let cfg = QcConfig::new(0.6, 4); // z = 2
        assert_eq!(reduce_vertices(&g, &cfg), (0..9).collect::<Vec<_>>());
        assert_eq!(two_hop_core(&g, &cfg), vec![0, 1, 2, 3]);
        let no_witnesses = PruneFlags {
            witnesses: false,
            ..PruneFlags::default()
        };
        let expect = bruteforce::coverage(&g, &cfg);
        assert_eq!(expect, vec![0, 1, 2, 3]);
        let peeled = Miner::new(&g, cfg).with_prune(no_witnesses).coverage();
        assert_eq!(peeled.covered, expect);
        let k4 = Miner::new(&complete(4), cfg)
            .with_prune(no_witnesses)
            .coverage();
        assert_eq!(peeled.stats, k4.stats);
        let off = Miner::new(&g, cfg)
            .with_prune(PruneFlags {
                diameter2: false,
                ..no_witnesses
            })
            .coverage();
        assert_eq!(off.covered, expect);
        assert!(
            peeled.stats.nodes_visited < off.stats.nodes_visited,
            "{} !< {}",
            peeled.stats.nodes_visited,
            off.stats.nodes_visited
        );
    }

    #[test]
    fn two_hop_peel_is_inert_below_one_half() {
        // A hexagon is a 0.4-quasi-clique of diameter 3: every vertex has
        // degree 2 = ⌈0.4·5⌉. Its two-hop balls are 5-vertex paths with
        // empty 2-cores, so the rule would drop it; below γ = 0.5 the peel
        // must not run.
        let g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let cfg = QcConfig::new(0.4, 6);
        let all: Vec<VertexId> = (0..6).collect();
        assert_eq!(bruteforce::coverage(&g, &cfg), all);
        assert_eq!(two_hop_core(&g, &cfg), all);
        assert_eq!(two_hop_peel(&g, &cfg, &mut PeelScratch::default()), 0);
        assert_eq!(Miner::new(&g, cfg).coverage().covered, all);
        // At γ = 0.5 the same hexagon is no quasi-clique (⌈0.5·5⌉ = 3), and
        // the peel removes it.
        assert!(two_hop_core(&g, &QcConfig::new(0.5, 6)).is_empty());
    }

    #[test]
    fn two_hop_peel_holds_its_cost_bound() {
        let cfg = QcConfig::new(0.6, 4);
        assert!(assert_peel_within_bound(&hexagon_chain(40), &cfg).is_empty());
        assert_eq!(assert_peel_within_bound(&complete(12), &cfg).len(), 12);
        assert_eq!(
            assert_peel_within_bound(&clique_with_hexagon(), &cfg),
            vec![0, 1, 2, 3]
        );
        // K5 plus a pendant vertex: every ball reaches all six vertices,
        // but the graph is no 2-core, so a full ball proves nothing.
        let mut edges: Vec<(u32, u32)> = (0..5)
            .flat_map(|u| ((u + 1)..5).map(move |v| (u, v)))
            .collect();
        edges.push((0, 5));
        assert_eq!(
            assert_peel_within_bound(&graph_from_edges(6, edges), &cfg),
            vec![0, 1, 2, 3, 4]
        );
        for seed in 0..8 {
            let g = random_graph(60, 80, seed);
            for (gamma, min_size) in [(0.5, 3), (0.6, 4), (0.8, 5), (1.0, 4)] {
                let cfg = QcConfig::new(gamma, min_size);
                assert_eq!(
                    assert_peel_within_bound(&g, &cfg),
                    reference_core(&g, &cfg),
                    "seed {seed}, {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let cfg = QcConfig::new(0.6, 4);
        let graphs = [
            hexagon_chain(5),
            complete(7),
            clique_with_hexagon(),
            random_graph(50, 100, 3),
        ];
        let mut s = PeelScratch::default();
        for g in graphs.iter().chain(graphs.iter().rev()) {
            let removed = two_hop_peel(g, &cfg, &mut s);
            let fresh = two_hop_core(g, &cfg);
            assert_eq!(removed, g.num_vertices() - fresh.len());
            if removed > 0 {
                assert_eq!(s.keep.iter().collect::<Vec<_>>(), fresh);
            }
        }
    }
}
