//! The quasi-clique search engine (Algorithm 1 of the paper, with the
//! pruning arsenal of the Quick algorithm \[10\]).
//!
//! The engine traverses the set-enumeration tree of candidate quasi-cliques
//! `(X, candExts(X))` in either BFS (queue) or DFS (stack) order and
//! supports three modes:
//!
//! * **maximal enumeration** — all maximal γ-quasi-cliques,
//! * **coverage** — the set `K` of vertices contained in *some*
//!   quasi-clique (what the structural correlation `ε` needs; maximality is
//!   irrelevant for coverage, which enables the covered-candidate pruning
//!   of §3.2.2),
//! * **top-k** — the `k` best patterns by size (primary) and density
//!   (secondary), with the iteratively-rising size bound of §3.2.3.
//!
//! Pruning rules (all individually switchable for ablations; disabling any
//! rule changes running time, never results):
//!
//! * iterated vertex reduction (degree `< z` peeling) before the search,
//! * per-node degree feasibility bounds on members and candidates
//!   ([`member_feasible`], [`candidate_feasible`]),
//! * extension-size interval bounds (`[t_min, t_max]` from the members'
//!   attainable degrees, [`extension_interval`]) with
//!   interval-narrowed candidate filtering,
//! * critical-vertex forcing: when a member's attainable degree exactly
//!   meets the requirement at the smallest feasible size, all its
//!   candidate neighbors are moved into `X` at once
//!   ([`critical_member`]),
//! * cover-vertex pruning: a candidate `u` adjacent to all of `X` *covers*
//!   the candidates in `N(u)`; subtrees rooted at covered candidates only
//!   contain quasi-cliques extendable by `u` (hence non-maximal) and are
//!   skipped,
//! * lookahead: if `X ∪ cands` is itself a quasi-clique the subtree
//!   collapses to a single emission,
//! * diameter-2 rule for `γ ≥ 0.5`, three times: before the search a
//!   two-hop core peel drops every vertex outside a `z`-core of its own
//!   two-hop ball ([`crate::reduce`]); each seed's candidates are
//!   restricted to its two-hop neighbourhood; and coverage runs ball by
//!   ball: after the witnesses, each vertex `v` still uncovered is decided
//!   by a search of its closed two-hop ball `N₂[v]` alone — every
//!   quasi-clique holding `v` lies in that ball — with the ball's own
//!   `z`-core, two-hop peel and witnesses, and every vertex the ball
//!   covers is marked,
//! * greedy witnesses (coverage mode): before the search, greedily peeled
//!   quasi-cliques pre-cover part of `K` ([`crate::witness`]),
//! * covered-candidate subtree pruning (coverage mode),
//! * size-bound subtree pruning (top-k mode).

use std::collections::VecDeque;

use crate::bounds::{candidate_feasible_in, critical_member, extension_interval, SizeInterval};
use crate::config::{QcConfig, Representation};
use crate::node::{candidate_feasible, member_feasible, SearchNode};
use crate::reduce::{reduce_vertices, two_hop_peel, PeelScratch};
use crate::witness::{self, WitnessScratch};
use scpm_graph::bitadj::{gather_intersect_popcount, BitAdjacency, VertexBitset};
use scpm_graph::csr::{CsrGraph, VertexId};
use scpm_graph::induced::{InducedSubgraph, RankMap};

/// Largest reduced-subgraph vertex count the engine will pack into a
/// [`BitAdjacency`] matrix (the matrix is `n²` bits — 8 MiB at this cap).
/// Beyond it, a [`Representation::Bitset`] run transparently falls back to
/// the slice path for that subgraph; results are identical either way.
pub const BITADJ_MAX_VERTICES: usize = 1 << 13;

/// Traversal order of the candidate tree (§3.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOrder {
    /// Depth-first (stack): extends sets as far as possible first.
    Dfs,
    /// Breadth-first (queue): visits smaller sets before larger ones.
    Bfs,
}

/// Switches for the individual pruning rules (used by ablation benches;
/// disabling any rule must not change results, only running time).
#[derive(Clone, Copy, Debug)]
pub struct PruneFlags {
    /// Degree-feasibility filtering of members and candidates.
    pub feasibility: bool,
    /// Extension-size interval bounds and interval-narrowed candidate
    /// filtering (Quick's upper/lower size bounds).
    pub bounds: bool,
    /// Critical-vertex forcing (requires `bounds`; inert without it).
    pub critical: bool,
    /// Cover-vertex subtree pruning.
    pub cover_vertex: bool,
    /// Emission of `X ∪ cands` when it already is a quasi-clique.
    pub lookahead: bool,
    /// Subtree pruning once all of `X ∪ cands` is covered (coverage mode).
    pub covered_candidate: bool,
    /// The diameter-2 rule (γ ≥ 0.5): the two-hop core peel before the
    /// search ([`crate::reduce`]), the candidate restriction to each
    /// seed's two-hop neighborhood, and, in coverage mode, coverage ball by
    /// ball: each vertex left uncovered by the witnesses is decided by a
    /// search of its closed two-hop ball alone instead of one search over
    /// the whole reduced graph.
    pub diameter2: bool,
    /// Greedy witness pass before the search (coverage mode): vertices of
    /// greedily peeled quasi-cliques start out covered, so the
    /// covered-candidate rule fires from the root ([`crate::witness`]).
    pub witnesses: bool,
}

impl Default for PruneFlags {
    fn default() -> Self {
        PruneFlags {
            feasibility: true,
            bounds: true,
            critical: true,
            cover_vertex: true,
            lookahead: true,
            covered_candidate: true,
            diameter2: true,
            witnesses: true,
        }
    }
}

impl PruneFlags {
    /// All rules off — the unpruned set-enumeration baseline.
    pub fn none() -> Self {
        PruneFlags {
            feasibility: false,
            bounds: false,
            critical: false,
            cover_vertex: false,
            lookahead: false,
            covered_candidate: false,
            diameter2: false,
            witnesses: false,
        }
    }
}

/// Counters describing one search run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes popped from the work list.
    pub nodes_visited: u64,
    /// Nodes killed by member-infeasibility.
    pub pruned_feasibility: u64,
    /// Nodes killed by an empty extension-size interval.
    pub pruned_interval: u64,
    /// Critical-vertex events (each moves ≥ 1 candidate into `X`).
    pub forced_critical: u64,
    /// Subtrees skipped by cover-vertex pruning.
    pub pruned_cover: u64,
    /// Successful lookaheads (each collapses a subtree).
    pub pruned_lookahead: u64,
    /// Nodes skipped because every vertex was already covered.
    pub pruned_covered: u64,
    /// Nodes skipped by the top-k size bound.
    pub pruned_size_bound: u64,
    /// Sets emitted (before maximality post-filtering).
    pub emitted: u64,
    /// Point adjacency/membership queries answered in the hot loops. Since
    /// the batched promotion kernels landed this is representation-
    /// *dependent*: the bitset path answers its promotion queries with
    /// row-AND sweeps instead (each elided point probe is counted in
    /// [`SearchStats::probes_elided`]), so its `edge_tests` is what
    /// remains — seed-child membership probes and the short-circuited
    /// maximality checks.
    pub edge_tests: u64,
    /// Modeled hot-loop work: elements touched by slice scans/merges, or
    /// `u64` words touched by bitset kernels. The hardware-independent
    /// cost figure `exp_perf` tracks when comparing
    /// [`Representation::Slice`] against [`Representation::Bitset`].
    /// The greedy witness pass and the two-hop core peel are excluded:
    /// they run identically under both representations and are not part
    /// of the search hot loops.
    pub kernel_ops: u64,
    /// Fused single-pass kernel invocations: gathered exdeg popcounts,
    /// and-not scans, and incremental exdeg updates on the bitset path,
    /// plus the packed containment filter's subset checks (which run —
    /// and count — identically under both representations).
    pub fused_ops: u64,
    /// Always 0: nothing increments it since the `VertexBitset` summary
    /// hierarchy (and the containment filter's summary fast-reject that
    /// counted here) was removed. Kept so the `qc_blocks_skipped` stats
    /// field and its `/mine` JSON key stay stable.
    pub blocks_skipped: u64,
    /// Point probes the batched row-AND promotion kernels answered in
    /// bulk instead — exactly the `edge_tests` the slice path performs at
    /// the same sites (child-generation bump extraction, critical-vertex
    /// forcing, the cover partition). Zero on the slice path.
    pub probes_elided: u64,
    /// `u64` words touched by the batched promotion sweeps (also counted
    /// in [`SearchStats::kernel_ops`]; this separates the batching work
    /// from the rest of the kernel model). Zero on the slice path.
    pub batch_ops: u64,
}

impl SearchStats {
    /// This run's counters with the representation-dependent work model
    /// zeroed — everything that must be *identical* between the slice and
    /// bitset paths (tree shape, prune events, emissions).
    pub fn semantic(&self) -> SearchStats {
        SearchStats {
            edge_tests: 0,
            kernel_ops: 0,
            fused_ops: 0,
            blocks_skipped: 0,
            probes_elided: 0,
            batch_ops: 0,
            ..*self
        }
    }
}

/// A quasi-clique reported by the miner, in the ids of the *input* graph.
#[derive(Clone, Debug, PartialEq)]
pub struct QuasiClique {
    /// Sorted member vertices.
    pub vertices: Vec<VertexId>,
    /// `min_v deg_Q(v) / (|Q|−1)` — the paper's `γ` column.
    pub min_degree_ratio: f64,
    /// `|E(Q)| / C(|Q|,2)`.
    pub edge_density: f64,
}

impl QuasiClique {
    /// Number of member vertices.
    pub fn size(&self) -> usize {
        self.vertices.len()
    }
}

/// Ranking used for top-k selection: larger first, then denser (by minimum
/// degree ratio), then lexicographically smaller vertex set for
/// determinism.
pub fn pattern_order(a: &QuasiClique, b: &QuasiClique) -> std::cmp::Ordering {
    b.size()
        .cmp(&a.size())
        .then(
            b.min_degree_ratio
                .partial_cmp(&a.min_degree_ratio)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
        .then_with(|| a.vertices.cmp(&b.vertices))
}

/// What the search should produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MiningMode {
    /// Enumerate every maximal quasi-clique.
    EnumerateMaximal,
    /// Compute the covered vertex set `K`.
    Coverage,
    /// Keep the best `k` patterns.
    TopK(usize),
}

/// The quasi-clique miner.
pub struct Miner<'g> {
    input: &'g CsrGraph,
    cfg: QcConfig,
    /// Traversal order.
    pub order: SearchOrder,
    /// Pruning switches.
    pub prune: PruneFlags,
    /// Hot-loop representation (packed bitsets by default; the slice
    /// baseline is kept for A/B runs — results are identical).
    pub repr: Representation,
}

/// Reusable scratch memory for repeated searches.
///
/// Holds every buffer a search needs: the per-vertex stamps, packed sets
/// and index maps sized by the (reduced) input graph, the work list, the
/// per-node temporaries (exdeg arrays, filter and cover partitions), a
/// free list of search-node buffers, the buffers of the witness pass and
/// the two-hop core peel, and the covered marks and ball buffers of
/// coverage ball by ball. A caller running many searches — the SCPM
/// drivers evaluate one induced subgraph per attribute set — can allocate
/// one `EngineScratch` and pass it to [`Miner::run_with`]; buffers are then
/// reused, not reallocated, between nodes and between runs, so a warm
/// search allocates only per run and per ball (the reduced graphs and the
/// results), never per node. [`Miner::run`] creates a throwaway scratch, so
/// single-shot callers never see this type.
#[derive(Debug, Default)]
pub struct EngineScratch {
    cand_mark: Stamp,
    nbr_mark: Stamp,
    cover_mark: Stamp,
    covered: Vec<bool>,
    work: VecDeque<SearchNode>,
    /// Packed adjacency of the current reduced subgraph (bitset path).
    adj: BitAdjacency,
    /// Candidate set of the node being processed, packed (bitset path;
    /// plays the role `cand_mark` has on the slice path).
    cand_bits: VertexBitset,
    /// Nonzero word indices of `cand_bits`, rebuilt by `pack_cands`
    /// (feeds the gathered popcount kernels).
    cand_active: Vec<u32>,
    /// Auxiliary packed set (emitted set in `single_extendable`).
    aux_bits: VertexBitset,
    /// Nonzero word indices of `aux_bits`.
    aux_active: Vec<u32>,
    /// Candidates dropped by one reduction round, packed (incremental
    /// exdeg updates subtract their contribution instead of recomputing).
    removed_bits: VertexBitset,
    /// Nonzero word indices of `removed_bits`.
    removed_active: Vec<u32>,
    /// Member set `X`, packed for the batched promotion kernels (critical
    /// forcing and child-generation `x_indeg` bumps).
    x_bits: VertexBitset,
    /// Nonzero word indices of `x_bits`.
    x_active: Vec<u32>,
    /// Vertex → candidate-index map (valid only for vertices currently in
    /// the candidate set; stale entries elsewhere are never read).
    cand_pos: Vec<u32>,
    /// Vertex → member-index map (valid only for vertices in `x_bits`).
    x_pos: Vec<u32>,
    /// Per-vertex counters for `single_extendable`, zeroed via `touched`.
    counts: Vec<u32>,
    touched: Vec<VertexId>,
    /// Rank scratch for re-extracting the reduced survivors (kept
    /// all-sentinel between runs, so `reset` leaves it alone).
    ranks: RankMap,
    /// Buffers of the greedy witness pass (it resets them itself).
    witness: WitnessScratch,
    /// Buffers of the two-hop core peel (it resets them itself).
    peel: PeelScratch,
    /// Per-node temporaries, lent to one `Ctx::process` call at a time.
    temps: NodeTemps,
    /// Free lists of cleared vertex/degree lists for search nodes and
    /// emitted sets, by capacity class (see [`POOL_CLASSES`]).
    pool: [Vec<Vec<u32>>; POOL_CLASSES],
    /// Bytes the lists in `pool` hold (capacity plus header), at most
    /// [`POOL_MAX_BYTES`].
    pool_bytes: usize,
    /// Two-hop reach of a seed (`Ctx::seed_child`).
    reach: Vec<VertexId>,
    /// Candidates moved into `X` by one critical-vertex forcing.
    forced: Vec<VertexId>,
    /// Outside vertices that may extend an emitted set, and the set's
    /// members that need the extension to be their neighbour
    /// (`Ctx::single_extendable`).
    extenders: Vec<VertexId>,
    deficient: Vec<VertexId>,
    /// Sizes of the buffered top-k sets, sorted descending.
    topk_sizes: Vec<usize>,
    /// Coverage ball by ball: the covered marks over the whole reduced
    /// graph, the buffers that collect each ball's `z`-core, and that core.
    ball_covered: Vec<bool>,
    ball_peel: PeelScratch,
    ball: Vec<VertexId>,
}

/// Capacity classes of the [`EngineScratch`] free lists: class `c` holds
/// lists of capacity exactly `2^c`, up to [`POOL_MAX_CAPACITY`]. A request
/// for `len` elements takes a list of class `⌈log2 len⌉`, which never
/// needs to grow, so a warm search replaying the same requests finds every
/// list it needs, and a class never holds more lists than were live at
/// once.
const POOL_CLASSES: usize = 7;

/// Largest capacity the free lists keep. Longer lists (the root's and the
/// seeds' wide candidate sets) are allocated exactly and freed after use,
/// so a wide search leaves no wide lists behind.
const POOL_MAX_CAPACITY: usize = 1 << (POOL_CLASSES - 1);

/// Most bytes the free lists keep. A breadth-first search whose frontier
/// outgrows it allocates the excess and frees it again, so a scratch never
/// retains more than this however wide a past search was.
const POOL_MAX_BYTES: usize = 4 << 20;

/// Most work-list slots a scratch keeps between searches: as many as fit
/// in [`POOL_MAX_BYTES`]. A search may grow the list past it (under BFS
/// the list holds the whole frontier); the excess is freed afterwards.
const WORK_MAX_SLOTS: usize = POOL_MAX_BYTES / std::mem::size_of::<SearchNode>();

/// Bytes a list of capacity `cap` holds: its elements and its header.
fn pooled_size(cap: usize) -> usize {
    cap * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>()
}

/// The per-node temporaries of `Ctx::process`, kept in [`EngineScratch`]
/// so a warm search reuses their allocations.
#[derive(Debug, Default)]
struct NodeTemps {
    /// `|N(x[i]) ∩ cands|` for every member.
    x_exdeg: Vec<u32>,
    /// `|N(cands[j]) ∩ cands|` for every candidate.
    cands_exdeg: Vec<u32>,
    /// Ascending indices of the candidates one filter round keeps.
    keep: Vec<usize>,
    /// Candidate indices in pivot order (uncovered first).
    order: Vec<u32>,
    /// Candidate indices the cover vertex covers.
    covered: Vec<u32>,
    /// `(candidate, indeg)` pairs of a slice-path child, sorted by vertex.
    pairs: Vec<(VertexId, u32)>,
}

impl EngineScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all buffers for a search over an `n`-vertex graph, keeping
    /// their allocations.
    fn reset(&mut self, n: usize) {
        self.cand_mark.reset(n);
        self.nbr_mark.reset(n);
        self.cover_mark.reset(n);
        self.covered.clear();
        self.covered.resize(n, false);
        self.work.clear();
        self.cand_bits.reset(n);
        self.cand_active.clear();
        self.aux_bits.reset(n);
        self.aux_active.clear();
        self.removed_bits.reset(n);
        self.removed_active.clear();
        self.x_bits.reset(n);
        self.x_active.clear();
        self.cand_pos.clear();
        self.cand_pos.resize(n, 0);
        self.x_pos.clear();
        self.x_pos.resize(n, 0);
        self.counts.clear();
        self.counts.resize(n, 0);
        self.touched.clear();
        self.topk_sizes.clear();
    }

    /// An empty list with room for `len` elements, from the free lists
    /// when one of the right class is there.
    fn buffer(&mut self, len: usize) -> Vec<u32> {
        if len > POOL_MAX_CAPACITY {
            return Vec::with_capacity(len);
        }
        let cap = len.next_power_of_two();
        match self.pool[cap.trailing_zeros() as usize].pop() {
            Some(buf) => {
                self.pool_bytes -= pooled_size(buf.capacity());
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// An empty node with room for `x_len` members and `c_len` candidates.
    fn node(&mut self, x_len: usize, c_len: usize) -> SearchNode {
        SearchNode {
            x: self.buffer(x_len),
            x_indeg: self.buffer(x_len),
            cands: self.buffer(c_len),
            cands_indeg: self.buffer(c_len),
        }
    }

    /// Makes room for `extra` more elements in `list`, moving it into a
    /// list of a large enough class rather than growing it in place (which
    /// would reallocate on every warm run).
    fn reserve(&mut self, list: &mut Vec<u32>, extra: usize) {
        let len = list.len() + extra;
        if list.capacity() < len {
            let mut bigger = self.buffer(len);
            bigger.extend_from_slice(list);
            let old = std::mem::replace(list, bigger);
            self.recycle(old);
        }
    }

    /// Returns `buf` to its capacity class's free list, unless its
    /// capacity is not one of the classes' or the free lists are full.
    fn recycle(&mut self, mut buf: Vec<u32>) {
        let cap = buf.capacity();
        let bytes = pooled_size(cap);
        if !cap.is_power_of_two()
            || cap > POOL_MAX_CAPACITY
            || self.pool_bytes + bytes > POOL_MAX_BYTES
        {
            return;
        }
        buf.clear();
        self.pool[cap.trailing_zeros() as usize].push(buf);
        self.pool_bytes += bytes;
    }

    /// Returns a finished node's lists to the free list.
    fn recycle_node(&mut self, node: SearchNode) {
        self.recycle(node.x);
        self.recycle(node.x_indeg);
        self.recycle(node.cands);
        self.recycle(node.cands_indeg);
    }
}

/// Outcome of one search run.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// Result sets (empty in coverage mode; see `covered`).
    pub cliques: Vec<QuasiClique>,
    /// Sorted covered vertices (coverage mode only; empty otherwise).
    pub covered: Vec<VertexId>,
    /// Search counters.
    pub stats: SearchStats,
}

impl MiningOutcome {
    fn empty(stats: SearchStats) -> Self {
        MiningOutcome {
            cliques: Vec::new(),
            covered: Vec::new(),
            stats,
        }
    }
}

impl<'g> Miner<'g> {
    /// Creates a miner over `input` with default order (DFS) and all
    /// prunings enabled.
    pub fn new(input: &'g CsrGraph, cfg: QcConfig) -> Self {
        Miner {
            input,
            cfg,
            order: SearchOrder::Dfs,
            prune: PruneFlags::default(),
            repr: Representation::default(),
        }
    }

    /// Sets the traversal order, builder-style.
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the pruning switches, builder-style.
    pub fn with_prune(mut self, prune: PruneFlags) -> Self {
        self.prune = prune;
        self
    }

    /// Sets the hot-loop representation, builder-style.
    pub fn with_repr(mut self, repr: Representation) -> Self {
        self.repr = repr;
        self
    }

    /// Enumerates all maximal γ-quasi-cliques.
    pub fn enumerate_maximal(&self) -> MiningOutcome {
        self.run(MiningMode::EnumerateMaximal)
    }

    /// Computes the covered vertex set `K` (vertices in at least one
    /// quasi-clique).
    pub fn coverage(&self) -> MiningOutcome {
        self.run(MiningMode::Coverage)
    }

    /// Returns the `k` best patterns by size then density.
    pub fn top_k(&self, k: usize) -> MiningOutcome {
        self.run(MiningMode::TopK(k))
    }

    /// Runs the configured search with one-shot scratch memory.
    pub fn run(&self, mode: MiningMode) -> MiningOutcome {
        self.run_with(mode, &mut EngineScratch::new())
    }

    /// Runs the configured search reusing the caller's [`EngineScratch`]
    /// (identical output to [`Miner::run`]; only allocation traffic
    /// differs).
    pub fn run_with(&self, mode: MiningMode, scratch: &mut EngineScratch) -> MiningOutcome {
        let mut stats = SearchStats::default();
        if let MiningMode::TopK(0) = mode {
            return MiningOutcome::empty(stats);
        }
        let Some(sub) = self.reduce(self.input, scratch) else {
            return MiningOutcome::empty(stats);
        };
        let n = sub.num_vertices();
        match mode {
            MiningMode::Coverage => {
                let covered = if self.prune.diameter2 && self.cfg.gamma >= 0.5 {
                    self.cover_by_balls(&sub.graph, scratch, &mut stats);
                    &scratch.ball_covered
                } else {
                    scratch.reset(n);
                    self.witness(&sub.graph, scratch);
                    self.search(&sub.graph, mode, scratch, &mut stats);
                    &scratch.covered
                };
                let covered_globals: Vec<VertexId> = covered
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c)
                    .map(|(i, _)| sub.to_original(i as VertexId))
                    .collect();
                MiningOutcome {
                    cliques: Vec::new(),
                    covered: covered_globals,
                    stats,
                }
            }
            MiningMode::EnumerateMaximal | MiningMode::TopK(_) => {
                scratch.reset(n);
                let emitted = self.search(&sub.graph, mode, scratch, &mut stats);
                let maximal = containment_filter(emitted, n, &mut stats);
                let mut cliques = self.score(&sub, maximal);
                if let MiningMode::TopK(k) = mode {
                    cliques.sort_by(pattern_order);
                    cliques.truncate(k);
                }
                MiningOutcome {
                    cliques,
                    covered: Vec::new(),
                    stats,
                }
            }
        }
    }

    /// The `z`-core of `input` and, under the diameter-2 rule, its two-hop
    /// core (inert for γ < 0.5), re-extracted so the search works on a
    /// compact graph whose every vertex could be in a quasi-clique. `None`
    /// when fewer than `min_size` vertices survive.
    fn reduce(&self, input: &CsrGraph, scratch: &mut EngineScratch) -> Option<InducedSubgraph> {
        let survivors = reduce_vertices(input, &self.cfg);
        self.reduce_core(input, &survivors, scratch)
    }

    /// [`Miner::reduce`] once the `z`-core is known: `core` is a sorted
    /// vertex set of `input` whose induced subgraph is a `z`-core.
    fn reduce_core(
        &self,
        input: &CsrGraph,
        core: &[VertexId],
        scratch: &mut EngineScratch,
    ) -> Option<InducedSubgraph> {
        if core.len() < self.cfg.min_size {
            return None;
        }
        let sub = InducedSubgraph::extract_with(input, core, &mut scratch.ranks);
        if !self.prune.diameter2 || two_hop_peel(&sub.graph, &self.cfg, &mut scratch.peel) == 0 {
            return Some(sub);
        }
        let sub = sub.project_with(&scratch.peel.keep, &mut scratch.ranks);
        (sub.num_vertices() >= self.cfg.min_size).then_some(sub)
    }

    /// Coverage ball by ball over the reduced graph `g` (the diameter-2
    /// rule, γ ≥ 0.5): the witnesses cover what they can, then each vertex
    /// `v` still uncovered, in id order, gets one coverage search of its
    /// closed two-hop ball `G[N₂[v]]` — reduced on its own, with the marks
    /// of earlier balls carried in — and every vertex that search covers
    /// is marked. Exact: a γ-quasi-clique with γ ≥ 0.5 has diameter ≤ 2,
    /// so every one that holds `v` lies in `N₂[v]`, and a quasi-clique of
    /// an induced subgraph is one of `g`. Once its ball is searched, `v`
    /// leaves every later ball: each quasi-clique holding `v` lies in the
    /// ball and has been marked, so no vertex still open needs `v`. Leaves
    /// `K` in `scratch.ball_covered`.
    fn cover_by_balls(&self, g: &CsrGraph, scratch: &mut EngineScratch, stats: &mut SearchStats) {
        let n = g.num_vertices();
        let mut covered = std::mem::take(&mut scratch.ball_covered);
        covered.clear();
        covered.resize(n, false);
        if self.prune.witnesses {
            witness::cover(g, &self.cfg, &mut scratch.witness, &mut covered);
        }
        let mut ball = std::mem::take(&mut scratch.ball);
        scratch.ball_peel.begin_balls(g, &self.cfg);
        let mut live = n;
        for v in 0..n as VertexId {
            if covered[v as usize] {
                continue;
            }
            // `v` must survive the ball's own reduction, or no quasi-clique
            // holds it.
            if scratch.ball_peel.ball_core(g, &self.cfg, v, &mut ball) {
                // A core that holds every live vertex makes this ball's
                // search the whole-graph search: its marks complete `K`
                // (every quasi-clique holding a dropped vertex is marked
                // already), and the loop ends with it.
                let whole = ball.len() == live;
                if whole && live == n {
                    // The core is `g` itself, already reduced and witnessed:
                    // search it in place.
                    scratch.reset(n);
                    scratch.covered.copy_from_slice(&covered);
                    self.search(g, MiningMode::Coverage, scratch, stats);
                    covered.copy_from_slice(&scratch.covered);
                    break;
                }
                if let Some(sub) = self
                    .reduce_core(g, &ball, scratch)
                    .filter(|sub| sub.to_local(v).is_some())
                {
                    scratch.reset(sub.num_vertices());
                    for (mark, &u) in scratch.covered.iter_mut().zip(&sub.original) {
                        *mark = covered[u as usize];
                    }
                    self.witness(&sub.graph, scratch);
                    self.search(&sub.graph, MiningMode::Coverage, scratch, stats);
                    for (&mark, &u) in scratch.covered.iter().zip(&sub.original) {
                        covered[u as usize] |= mark;
                    }
                    if whole {
                        break;
                    }
                }
            }
            // Every quasi-clique holding `v` lies in its ball, and the
            // search has marked all their vertices, so a vertex still
            // uncovered is in none of them: later balls leave `v` out.
            scratch.ball_peel.drop_vertex(v);
            live -= 1;
        }
        scratch.ball = ball;
        scratch.ball_covered = covered;
    }

    /// The greedy witness pass over `g` (coverage mode, with the witnesses
    /// switched on): marks the vertices of greedily peeled quasi-cliques in
    /// `scratch.covered`, which must be sized for `g`.
    fn witness(&self, g: &CsrGraph, scratch: &mut EngineScratch) {
        if self.prune.witnesses {
            witness::cover(g, &self.cfg, &mut scratch.witness, &mut scratch.covered);
        }
    }

    /// One search over the reduced graph `g`, on a scratch already `reset`
    /// for it: packs the adjacency and walks the candidate tree. Coverage
    /// marks land in `scratch.covered`, and may be set on entry (vertices
    /// known to be covered, by the witnesses or earlier balls); the emitted
    /// sets (maximal and top-k modes) are returned.
    fn search(
        &self,
        g: &CsrGraph,
        mode: MiningMode,
        scratch: &mut EngineScratch,
        stats: &mut SearchStats,
    ) -> Vec<Vec<VertexId>> {
        let n = g.num_vertices();
        // Pack the adjacency once for the whole search; oversized graphs
        // fall back to the slice kernels (identical results, see
        // `BITADJ_MAX_VERTICES`).
        let bits_on = self.repr != Representation::Slice && n <= BITADJ_MAX_VERTICES;
        if bits_on {
            scratch.adj.rebuild(g);
            // One pass packs the rows, a second lists each row's nonzero
            // words (reused by every gathered kernel of the search).
            stats.kernel_ops += (2 * n * scratch.adj.stride()) as u64;
        } else {
            scratch.adj.clear();
        }
        let mut ctx = Ctx::new(g, self.cfg, self.prune, self.order, mode, bits_on, scratch);
        ctx.search(stats);
        ctx.emitted
    }

    /// Maps local sets back to input ids and computes their densities.
    fn score(&self, sub: &InducedSubgraph, sets: Vec<Vec<VertexId>>) -> Vec<QuasiClique> {
        let mut out: Vec<QuasiClique> = sets
            .into_iter()
            .map(|locals| {
                let ratio = QcConfig::min_degree_ratio(&sub.graph, &locals);
                let density = QcConfig::edge_density(&sub.graph, &locals);
                QuasiClique {
                    vertices: sub.to_original_set(&locals),
                    min_degree_ratio: ratio,
                    edge_density: density,
                }
            })
            .collect();
        out.sort_by(pattern_order);
        out
    }
}

/// Removes sets contained in another set of the collection, leaving only
/// maximal elements. `n` is the local-id universe of the sets.
///
/// Sets are visited largest-first, so a set can only ever be contained in
/// an already-kept one; each containment test is a fused packed-word
/// subset check ([`VertexBitset::is_subset_of`], blocked with per-block
/// early exit) against the kept sets' bitsets instead of an `O(m)`
/// sorted-slice merge. Output order (descending size, then lexicographic)
/// is unchanged from the slice implementation.
fn containment_filter(
    mut sets: Vec<Vec<VertexId>>,
    n: usize,
    stats: &mut SearchStats,
) -> Vec<Vec<VertexId>> {
    sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    let mut kept: Vec<Vec<VertexId>> = Vec::new();
    let mut kept_bits: Vec<VertexBitset> = Vec::new();
    let mut probe = VertexBitset::empty(n);
    for set in sets {
        probe.reset(n);
        for &v in &set {
            probe.insert(v);
        }
        let contained = kept_bits.iter().any(|bigger| {
            stats.fused_ops += 1;
            probe.is_subset_of(bigger)
        });
        if contained {
            continue;
        }
        kept_bits.push(probe.clone());
        kept.push(set);
    }
    kept
}

/// Whether sorted `a ⊆` sorted `b`.
fn is_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    scpm_graph::csr::intersect_count(a, b) == a.len()
}

/// Keeps `v[keep[0]], v[keep[1]], …` in place. `keep` must ascend, so each
/// element moves only towards the front over already-read slots.
fn compact<T: Copy>(v: &mut Vec<T>, keep: &[usize]) {
    for (i, &j) in keep.iter().enumerate() {
        v[i] = v[j];
    }
    v.truncate(keep.len());
}

/// Sets `v` to `len` zeros, keeping its allocation.
fn zeroed(v: &mut Vec<u32>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

/// Per-run search context over the reduced local graph. Every buffer the
/// search touches per node lives in the borrowed [`EngineScratch`], so
/// repeated nodes and runs reuse its allocations.
struct Ctx<'a> {
    g: &'a CsrGraph,
    cfg: QcConfig,
    prune: PruneFlags,
    order: SearchOrder,
    mode: MiningMode,
    /// Whether the packed kernels are active (`scratch.adj` is populated).
    bits_on: bool,
    /// Reusable buffers (stamps, bitsets, work list, node free list).
    s: &'a mut EngineScratch,
    /// Emitted local sets, each sorted (maximal / top-k modes).
    emitted: Vec<Vec<VertexId>>,
    /// Vertices not yet covered (coverage early exit); the scratch may
    /// come with some already covered.
    remaining: usize,
    /// Current size bound for top-k (size of the k-th best so far).
    topk_bound: usize,
}

/// Generation-stamped membership array: `O(1)` set/test/clear.
#[derive(Debug, Default)]
struct Stamp {
    gen: u32,
    marks: Vec<u32>,
}

impl Stamp {
    /// Prepares the stamp for a graph of `n` vertices, keeping capacity.
    fn reset(&mut self, n: usize) {
        self.gen = 0;
        self.marks.clear();
        self.marks.resize(n, 0);
    }

    /// Starts a new generation: every mark reads as unset. When the
    /// counter wraps, the marks are zeroed so no stale stamp can equal a
    /// reused generation.
    fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.marks.fill(0);
            self.gen = 1;
        }
    }

    #[inline]
    fn set(&mut self, v: VertexId) {
        self.marks[v as usize] = self.gen;
    }

    #[inline]
    fn get(&self, v: VertexId) -> bool {
        self.marks[v as usize] == self.gen
    }
}

/// Outcome of the per-node reduction pipeline.
enum Reduction {
    /// Subtree is dead; stop processing the node.
    Dead,
    /// Node survived; proceed to emission and child generation.
    Alive,
}

impl<'a> Ctx<'a> {
    fn new(
        g: &'a CsrGraph,
        cfg: QcConfig,
        prune: PruneFlags,
        order: SearchOrder,
        mode: MiningMode,
        bits_on: bool,
        scratch: &'a mut EngineScratch,
    ) -> Self {
        let remaining = scratch.covered.iter().filter(|&&c| !c).count();
        Ctx {
            g,
            cfg,
            prune,
            order,
            mode,
            bits_on,
            s: scratch,
            emitted: Vec::new(),
            remaining,
            topk_bound: 0,
        }
    }

    fn search(&mut self, stats: &mut SearchStats) {
        let n = self.g.num_vertices();
        let mut work = std::mem::take(&mut self.s.work);
        let mut root = self.s.node(0, n);
        root.cands.extend(0..n as VertexId);
        root.cands_indeg.resize(n, 0);
        work.push_back(root);
        while let Some(node) = match self.order {
            SearchOrder::Dfs => work.pop_back(),
            SearchOrder::Bfs => work.pop_front(),
        } {
            if matches!(self.mode, MiningMode::Coverage) && self.remaining == 0 {
                break; // everything already covered
            }
            self.process(node, &mut work, stats);
        }
        // Recycle what a coverage early exit left queued, and hand the
        // empty work list back for the next run, no larger than the free
        // lists' byte cap: a wide BFS frontier is not kept for the rest of
        // the scratch's life.
        for node in work.drain(..) {
            self.s.recycle_node(node);
        }
        work.shrink_to(WORK_MAX_SLOTS);
        self.s.work = work;
    }

    /// Feasibility fixpoint, interval bounds, and critical-vertex forcing,
    /// iterated until the node is stable or dead. On `Alive`, `t.x_exdeg`
    /// and `t.cands_exdeg` reflect the final node shape.
    fn reduce_node(
        &mut self,
        node: &mut SearchNode,
        t: &mut NodeTemps,
        cands_ready: &mut bool,
        stats: &mut SearchStats,
    ) -> Reduction {
        let NodeTemps {
            x_exdeg,
            cands_exdeg,
            keep,
            ..
        } = t;
        loop {
            // Feasibility / bounds fixpoint over the candidate set.
            let mut interval = SizeInterval {
                t_min: self.cfg.min_size.saturating_sub(node.x.len()),
                t_max: node.cands.len(),
            };
            if self.prune.feasibility || self.prune.bounds {
                loop {
                    let x_len = node.x.len();
                    let c_len = node.cands.len();
                    if self.prune.bounds {
                        match extension_interval(&self.cfg, &node.x_indeg, x_exdeg, x_len, c_len) {
                            None => {
                                stats.pruned_feasibility += 1;
                                return Reduction::Dead;
                            }
                            Some(iv) => {
                                interval = iv;
                                if iv.is_empty() {
                                    stats.pruned_interval += 1;
                                    return Reduction::Dead;
                                }
                            }
                        }
                    } else {
                        for (&indeg, &exdeg) in node.x_indeg.iter().zip(x_exdeg.iter()) {
                            if !member_feasible(
                                &self.cfg,
                                indeg as usize,
                                exdeg as usize,
                                x_len,
                                c_len,
                            ) {
                                stats.pruned_feasibility += 1;
                                return Reduction::Dead;
                            }
                        }
                    }
                    if !*cands_ready {
                        self.compute_cands_exdegs(node, cands_exdeg, stats);
                        *cands_ready = true;
                    }
                    keep.clear();
                    for (j, (&indeg, &exdeg)) in
                        node.cands_indeg.iter().zip(cands_exdeg.iter()).enumerate()
                    {
                        let ok = if self.prune.bounds {
                            candidate_feasible_in(
                                &self.cfg,
                                indeg as usize,
                                exdeg as usize,
                                x_len,
                                interval,
                            )
                        } else {
                            candidate_feasible(
                                &self.cfg,
                                indeg as usize,
                                exdeg as usize,
                                x_len,
                                c_len,
                            )
                        };
                        if ok {
                            keep.push(j);
                        }
                    }
                    if keep.len() == c_len {
                        break;
                    }
                    if self.bits_on {
                        self.filter_candidates_incremental(node, keep, x_exdeg, cands_exdeg, stats);
                    } else {
                        compact(&mut node.cands, keep);
                        compact(&mut node.cands_indeg, keep);
                        zeroed(cands_exdeg, node.cands.len());
                        x_exdeg.iter_mut().for_each(|d| *d = 0);
                        self.pack_cands(node, stats);
                        self.compute_x_exdegs(node, x_exdeg, stats);
                        self.compute_cands_exdegs(node, cands_exdeg, stats);
                    }
                }
            }

            // Critical-vertex forcing: move all candidate neighbors of a
            // critical member into X, then re-reduce.
            if self.prune.critical && self.prune.bounds && !node.cands.is_empty() {
                if let Some(i) =
                    critical_member(&self.cfg, &node.x_indeg, x_exdeg, node.x.len(), interval)
                {
                    self.force_candidates(node, i, stats);
                    stats.forced_critical += 1;
                    zeroed(x_exdeg, node.x.len());
                    zeroed(cands_exdeg, node.cands.len());
                    self.pack_cands(node, stats);
                    self.compute_x_exdegs(node, x_exdeg, stats);
                    self.compute_cands_exdegs(node, cands_exdeg, stats);
                    *cands_ready = true;
                    continue;
                }
            }
            return Reduction::Alive;
        }
    }

    /// Applies one candidate-filter round on the bitset path without a
    /// full exdeg recomputation: packs the dropped candidates (tracking
    /// their nonzero words as it goes), and subtracts
    /// `|N(·) ∩ removed|` from every surviving exdeg with a gathered fused
    /// kernel. The resulting values are identical to a recomputation
    /// against the filtered candidate set (exdegs are sums over disjoint
    /// candidate subsets), so the search tree is unchanged — only the
    /// modeled kernel cost drops from `O(stride · (|X| + |C|))` to
    /// `O(active(removed) · (|X| + |C|))`.
    fn filter_candidates_incremental(
        &mut self,
        node: &mut SearchNode,
        keep: &[usize],
        x_exdeg: &mut [u32],
        cands_exdeg: &mut Vec<u32>,
        stats: &mut SearchStats,
    ) {
        // Pack the dropped candidates (tracked insertion; the previous
        // round's words are unpacked in O(previous active) first) and keep
        // `cand_bits` in sync for `seed_child` and later rounds.
        let cleared = self.s.removed_active.len();
        self.s.removed_bits.clear_active(&mut self.s.removed_active);
        let mut ki = 0usize;
        let mut removed = 0usize;
        for (j, &c) in node.cands.iter().enumerate() {
            if ki < keep.len() && keep[ki] == j {
                ki += 1;
            } else {
                self.s
                    .removed_bits
                    .insert_tracked(c, &mut self.s.removed_active);
                self.s.cand_bits.remove(c);
                removed += 1;
            }
        }
        let active: &[u32] = &self.s.removed_active;
        let removed_words = self.s.removed_bits.words();
        let mut gathered = 0usize;
        for (i, &u) in node.x.iter().enumerate() {
            x_exdeg[i] -= self.gathered_degree(u, removed_words, active, &mut gathered);
        }
        compact(&mut node.cands, keep);
        compact(&mut node.cands_indeg, keep);
        compact(cands_exdeg, keep);
        for (j, &v) in node.cands.iter().enumerate() {
            cands_exdeg[j] -= self.gathered_degree(v, removed_words, active, &mut gathered);
        }
        let vertices = node.x.len() + node.cands.len();
        stats.kernel_ops += (cleared + 2 * removed + gathered) as u64;
        stats.fused_ops += vertices as u64;
    }

    /// Moves every candidate neighbor of member `member_idx` into `X`,
    /// maintaining the indeg bookkeeping of members and remaining
    /// candidates.
    ///
    /// Bitset path: fully batched — the forced/rest partition and every
    /// indeg bump come from `row ∧ set` word sweeps over the packed
    /// candidate and member sets instead of per-vertex point probes (the
    /// elided probes and the words swept are counted in
    /// [`SearchStats::probes_elided`] / [`SearchStats::batch_ops`]). The
    /// slice path keeps its stamp-probe loops; both produce identical
    /// bookkeeping, hence an identical search tree.
    fn force_candidates(
        &mut self,
        node: &mut SearchNode,
        member_idx: usize,
        stats: &mut SearchStats,
    ) {
        let v = node.x[member_idx];
        if self.bits_on {
            self.force_candidates_batched(node, v, stats);
            return;
        }
        self.mark_neighbors(v, stats);
        let mut forced = std::mem::take(&mut self.s.forced);
        forced.clear();
        // The rest is compacted in place: slot `kept` is always at or
        // before the slot `j` being read.
        let mut kept = 0usize;
        for j in 0..node.cands.len() {
            let c = node.cands[j];
            if self.marked_adjacent(v, c, stats) {
                forced.push(c);
            } else {
                node.cands[kept] = c;
                node.cands_indeg[kept] = node.cands_indeg[j];
                kept += 1;
            }
        }
        debug_assert!(!forced.is_empty(), "critical member must have exdeg > 0");
        node.cands.truncate(kept);
        node.cands_indeg.truncate(kept);
        self.s.reserve(&mut node.x, forced.len());
        self.s.reserve(&mut node.x_indeg, forced.len());
        for &w in &forced {
            self.mark_neighbors(w, stats);
            let mut w_indeg = 0u32;
            for (i, &u) in node.x.iter().enumerate() {
                if self.marked_adjacent(w, u, stats) {
                    node.x_indeg[i] += 1;
                    w_indeg += 1;
                }
            }
            node.x.push(w);
            node.x_indeg.push(w_indeg);
            for (j, &c) in node.cands.iter().enumerate() {
                if self.marked_adjacent(w, c, stats) {
                    node.cands_indeg[j] += 1;
                }
            }
        }
        self.s.forced = forced;
    }

    /// The bitset arm of [`Ctx::force_candidates`]: the packed candidate
    /// set (`cand_bits`, in sync with `node.cands`) is partitioned by one
    /// sweep of `row(v)`, and each forced vertex's member/candidate bumps
    /// are one `row ∧ X` and one `row ∧ rest` sweep. Forced vertices join
    /// the packed member set as they are appended, so later forced
    /// vertices count earlier ones exactly as the point-probe loop does.
    fn force_candidates_batched(
        &mut self,
        node: &mut SearchNode,
        v: VertexId,
        stats: &mut SearchStats,
    ) {
        let mut batch = 0u64;
        let mut forced = std::mem::take(&mut self.s.forced);
        forced.clear();
        let c_len = node.cands.len();
        // The rest is compacted in place, as in the slice arm.
        let mut kept = 0usize;
        {
            let row = self.s.adj.row(v);
            let cand_words = self.s.cand_bits.words();
            let mut j = 0usize;
            // Candidates ascend and `cand_active` lists their words in
            // ascending order, so walking set bits word by word visits
            // node.cands[0..] in order — `j` is the candidate index.
            for &wi in &self.s.cand_active {
                let wi = wi as usize;
                let cw = cand_words[wi];
                if cw == 0 {
                    continue;
                }
                batch += 1;
                let m = row[wi] & cw;
                let mut bits = cw;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let c = (wi * 64 + bit) as VertexId;
                    debug_assert_eq!(node.cands[j], c);
                    if m & (1u64 << bit) != 0 {
                        forced.push(c);
                    } else {
                        node.cands[kept] = c;
                        node.cands_indeg[kept] = node.cands_indeg[j];
                        kept += 1;
                    }
                    j += 1;
                }
            }
            debug_assert_eq!(j, c_len);
        }
        node.cands.truncate(kept);
        node.cands_indeg.truncate(kept);
        self.s.reserve(&mut node.x, forced.len());
        self.s.reserve(&mut node.x_indeg, forced.len());
        stats.probes_elided += c_len as u64;
        debug_assert!(!forced.is_empty(), "critical member must have exdeg > 0");
        // Forced vertices leave the packed candidate set (keeping it in
        // sync with `rest` for the candidate-side sweeps below).
        for &w in &forced {
            self.s.cand_bits.remove(w);
        }
        // Pack X with its vertex → index map; build the rest-index map.
        let cleared = self.s.x_active.len();
        self.s.x_bits.clear_active(&mut self.s.x_active);
        for (i, &u) in node.x.iter().enumerate() {
            self.s.x_pos[u as usize] = i as u32;
            self.s.x_bits.insert_tracked(u, &mut self.s.x_active);
        }
        for (j, &c) in node.cands.iter().enumerate() {
            self.s.cand_pos[c as usize] = j as u32;
        }
        stats.kernel_ops += (cleared + forced.len() + node.x.len() + node.cands.len()) as u64;
        for &w in &forced {
            let mut w_indeg = 0u32;
            {
                let row = self.s.adj.row(w);
                let x_words = self.s.x_bits.words();
                for &wi in &self.s.x_active {
                    let wi = wi as usize;
                    if x_words[wi] == 0 {
                        continue;
                    }
                    batch += 1;
                    let mut m = row[wi] & x_words[wi];
                    while m != 0 {
                        let bit = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let u = wi * 64 + bit;
                        node.x_indeg[self.s.x_pos[u] as usize] += 1;
                        w_indeg += 1;
                    }
                }
            }
            stats.probes_elided += node.x.len() as u64;
            self.s.x_pos[w as usize] = node.x.len() as u32;
            node.x.push(w);
            node.x_indeg.push(w_indeg);
            self.s.x_bits.insert_tracked(w, &mut self.s.x_active);
            let row = self.s.adj.row(w);
            let cand_words = self.s.cand_bits.words();
            for &wi in &self.s.cand_active {
                let wi = wi as usize;
                if cand_words[wi] == 0 {
                    continue;
                }
                batch += 1;
                let mut m = row[wi] & cand_words[wi];
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let c = wi * 64 + bit;
                    node.cands_indeg[self.s.cand_pos[c] as usize] += 1;
                }
            }
            stats.probes_elided += node.cands.len() as u64;
        }
        self.s.forced = forced;
        stats.batch_ops += batch;
        stats.kernel_ops += batch;
    }

    /// Prepares point-adjacency queries against `N(v)`: stamp-marks the
    /// neighbor list on the slice path, a no-op on the bitset path (the
    /// packed row is already available). Pair with
    /// [`Ctx::marked_adjacent`].
    #[inline]
    fn mark_neighbors(&mut self, v: VertexId, stats: &mut SearchStats) {
        if !self.bits_on {
            self.s.nbr_mark.begin();
            for &u in self.g.neighbors(v) {
                self.s.nbr_mark.set(u);
            }
            stats.kernel_ops += self.g.degree(v) as u64;
        }
    }

    /// Whether `w ∈ N(v)`, `v` being the vertex last passed to
    /// [`Ctx::mark_neighbors`]. `O(1)` on both paths (stamp lookup vs
    /// packed-row probe).
    #[inline]
    fn marked_adjacent(&self, v: VertexId, w: VertexId, stats: &mut SearchStats) -> bool {
        stats.edge_tests += 1;
        stats.kernel_ops += 1;
        if self.bits_on {
            self.s.adj.has_edge(v, w)
        } else {
            self.s.nbr_mark.get(w)
        }
    }

    /// Visits one node, then returns its lists to the free list.
    fn process(
        &mut self,
        mut node: SearchNode,
        work: &mut VecDeque<SearchNode>,
        stats: &mut SearchStats,
    ) {
        stats.nodes_visited += 1;
        let mut temps = std::mem::take(&mut self.s.temps);
        self.expand(&mut node, &mut temps, work, stats);
        self.s.temps = temps;
        self.s.recycle_node(node);
    }

    /// Prunes, reduces and emits `node`, and pushes its children onto
    /// `work`.
    fn expand(
        &mut self,
        node: &mut SearchNode,
        t: &mut NodeTemps,
        work: &mut VecDeque<SearchNode>,
        stats: &mut SearchStats,
    ) {
        // Covered-candidate pruning (coverage mode).
        if matches!(self.mode, MiningMode::Coverage) && self.prune.covered_candidate {
            let all_covered = node
                .x
                .iter()
                .chain(node.cands.iter())
                .all(|&v| self.s.covered[v as usize]);
            if all_covered {
                stats.pruned_covered += 1;
                return;
            }
        }

        // Top-k size bound (§3.2.3: prune when the subtree cannot produce a
        // pattern larger than the current k-th best).
        if let MiningMode::TopK(k) = self.mode {
            if self.emitted.len() >= k && node.upper_size() < self.topk_bound {
                stats.pruned_size_bound += 1;
                return;
            }
        }

        // Degree bookkeeping: exdeg of members and candidates w.r.t. the
        // candidate set. The candidate side is computed lazily — a node
        // the member-side bounds kill never pays for it.
        zeroed(&mut t.x_exdeg, node.x.len());
        zeroed(&mut t.cands_exdeg, node.cands.len());
        self.pack_cands(node, stats);
        self.compute_x_exdegs(node, &mut t.x_exdeg, stats);
        let mut cands_ready = false;

        if let Reduction::Dead = self.reduce_node(node, t, &mut cands_ready, stats) {
            return;
        }
        let NodeTemps {
            x_exdeg,
            cands_exdeg,
            order,
            covered,
            pairs,
            ..
        } = t;
        if !cands_ready {
            self.compute_cands_exdegs(node, cands_exdeg, stats);
        }

        // Lookahead: emit X ∪ cands when it is a quasi-clique.
        if self.prune.lookahead && node.upper_size() >= self.cfg.min_size {
            let req = self.cfg.required_degree(node.upper_size()) as u32;
            let x_ok = (0..node.x.len()).all(|i| node.x_indeg[i] + x_exdeg[i] >= req);
            let c_ok = (0..node.cands.len()).all(|j| node.cands_indeg[j] + cands_exdeg[j] >= req);
            if x_ok && c_ok {
                let mut set = self.s.buffer(node.upper_size());
                set.extend_from_slice(&node.x);
                set.extend_from_slice(&node.cands);
                self.emit(set, stats);
                stats.pruned_lookahead += 1;
                return;
            }
        }

        // Emit X itself when it is a quasi-clique.
        if node.x.len() >= self.cfg.min_size {
            let req = self.cfg.required_degree(node.x.len()) as u32;
            if node.x_indeg.iter().all(|&d| d >= req) {
                let mut set = self.s.buffer(node.x.len());
                set.extend_from_slice(&node.x);
                self.emit(set, stats);
            }
        }

        // Cover-vertex pruning: a candidate u with X ⊆ N(u) covers
        // CV = N(u) ∩ cands. Any quasi-clique whose candidate part lies
        // inside CV extends by u (every member is a neighbor of u, and
        // ⌈γ·s⌉ ≤ ⌈γ·(s−1)⌉ + 1 for γ ≤ 1), hence is not maximal —
        // subtrees rooted at covered candidates are skipped. Covered
        // candidates are ordered last so they remain reachable from the
        // subtrees of uncovered pivots.
        let x_len = node.x.len();
        let c_len = node.cands.len();
        let mut skip_from = c_len;
        order.clear();
        let best = if self.prune.cover_vertex {
            (0..c_len)
                .filter(|&j| node.cands_indeg[j] as usize == x_len && cands_exdeg[j] > 0)
                .max_by_key(|&j| (cands_exdeg[j], std::cmp::Reverse(node.cands[j])))
        } else {
            None
        };
        if let Some(jbest) = best {
            // Stable partition of the candidate indices: uncovered pivots
            // go straight into `order`, covered ones into `covered`, which
            // is appended last.
            let cv = node.cands[jbest];
            covered.clear();
            if self.bits_on {
                // Batched: one sweep of row(cv) over the packed candidate
                // words. Candidates ascend, so walking set bits word by
                // word visits candidate indices in order — no point probes.
                let row = self.s.adj.row(cv);
                let cand_words = self.s.cand_bits.words();
                let mut j = 0u32;
                let mut batch = 0u64;
                for &wi in &self.s.cand_active {
                    let wi = wi as usize;
                    let cw = cand_words[wi];
                    if cw == 0 {
                        continue;
                    }
                    batch += 1;
                    let m = row[wi] & cw;
                    let mut bits = cw;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if m & (1u64 << bit) != 0 {
                            covered.push(j);
                        } else {
                            order.push(j);
                        }
                        j += 1;
                    }
                }
                debug_assert_eq!(j as usize, c_len);
                stats.probes_elided += c_len as u64;
                stats.batch_ops += batch;
                stats.kernel_ops += batch;
            } else {
                self.s.cover_mark.begin();
                for &u in self.g.neighbors(cv) {
                    self.s.cover_mark.set(u);
                }
                stats.kernel_ops += (self.g.degree(cv) + c_len) as u64;
                stats.edge_tests += c_len as u64;
                for (j, &c) in node.cands.iter().enumerate() {
                    if self.s.cover_mark.get(c) {
                        covered.push(j as u32);
                    } else {
                        order.push(j as u32);
                    }
                }
            }
            skip_from = order.len();
            stats.pruned_cover += covered.len() as u64;
            order.extend_from_slice(covered);
        } else {
            order.extend(0..c_len as u32);
        }

        // Expand children: pivot on each unskipped candidate in processing
        // order; the child's candidates are the ones later in the order.
        let is_seed = node.x.is_empty();
        let use_diameter = self.prune.diameter2 && self.cfg.gamma >= 0.5;
        // Rank of each candidate *vertex* in the processing order, for the
        // seed fast path's membership test (`u32::MAX` = not a candidate).
        let rank: Option<Vec<u32>> = if is_seed && use_diameter {
            let mut r = vec![u32::MAX; self.g.num_vertices()];
            for (pos, &j) in order.iter().enumerate() {
                r[node.cands[j as usize] as usize] = pos as u32;
            }
            Some(r)
        } else {
            None
        };
        // Batched bitset child generation packs X once per node (with its
        // vertex → index map) and builds the candidate index map; pivots
        // are then *removed* from the packed candidate set one by one, so
        // at pivot `pos` the packed set is exactly the candidates at
        // later positions — the child's candidate set — and one `row(v)`
        // sweep yields the member bumps, the candidate bumps, and the
        // ascending candidate order for free (no sort, no point probes).
        if self.bits_on && rank.is_none() && skip_from > 0 {
            let cleared = self.s.x_active.len();
            self.s.x_bits.clear_active(&mut self.s.x_active);
            for (i, &u) in node.x.iter().enumerate() {
                self.s.x_pos[u as usize] = i as u32;
                self.s.x_bits.insert_tracked(u, &mut self.s.x_active);
            }
            for (j, &c) in node.cands.iter().enumerate() {
                self.s.cand_pos[c as usize] = j as u32;
            }
            stats.kernel_ops += (cleared + node.x.len() + node.cands.len()) as u64;
        }
        let first_child = work.len();
        for (pos, &jidx) in order.iter().enumerate().take(skip_from) {
            let idx = jidx as usize;
            let v = node.cands[idx];
            if let Some(rank) = &rank {
                // Fast path for root children: a quasi-clique with γ ≥ 0.5
                // has diameter ≤ 2, so the seed's candidates come from its
                // two-hop neighborhood — no scan over the full candidate
                // list (which is the entire graph at the root).
                work.push_back(self.seed_child(v, pos as u32, rank, stats));
                continue;
            }
            if self.bits_on {
                work.push_back(self.pivot_child_batched(node, v, order.len() - pos - 1, stats));
                continue;
            }
            self.mark_neighbors(v, stats);

            let remaining = order.len() - pos - 1;
            let mut child = self.s.node(x_len + 1, remaining);
            child.x.extend_from_slice(&node.x);
            child.x.push(v);
            child.x_indeg.extend_from_slice(&node.x_indeg);
            for (i, &u) in node.x.iter().enumerate() {
                if self.marked_adjacent(v, u, stats) {
                    child.x_indeg[i] += 1;
                }
            }
            child.x_indeg.push(node.cands_indeg[idx]);

            pairs.clear();
            for &jnext in order.iter().skip(pos + 1) {
                let j = jnext as usize;
                let w = node.cands[j];
                let bump = self.marked_adjacent(v, w, stats) as u32;
                pairs.push((w, node.cands_indeg[j] + bump));
            }
            // Keep candidate lists ascending: each node re-derives its own
            // cover ordering, and sorted lists keep emission cheap.
            pairs.sort_unstable_by_key(|&(w, _)| w);
            child.cands.extend(pairs.iter().map(|&(w, _)| w));
            child.cands_indeg.extend(pairs.iter().map(|&(_, d)| d));
            work.push_back(child);
        }
        // Stack: reverse the new children so the first pivot is processed
        // first, matching the canonical DFS order {1}, {1,2}, {1,2,3}, ...
        // DFS only pushes and pops at the back, so the deque never wraps
        // and `make_contiguous` moves nothing.
        if self.order == SearchOrder::Dfs {
            work.make_contiguous()[first_child..].reverse();
        }
    }

    /// Builds the root child `({v}, two-hop(v) ∩ later-ranked candidates)`.
    ///
    /// Relies on the candidate set still being packed/stamped from the
    /// last `pack_cands` call (`cand_bits` on the bitset path,
    /// `cand_mark` on the slice path); `rank` maps vertex ids to their
    /// position in the root's processing order (`u32::MAX` = not a
    /// candidate).
    fn seed_child(
        &mut self,
        v: VertexId,
        pos: u32,
        rank: &[u32],
        stats: &mut SearchStats,
    ) -> SearchNode {
        // Collect the two-hop reach of v (excluding v itself) — a
        // neighbor-list traversal with a visited stamp on both paths.
        self.s.nbr_mark.begin();
        self.s.nbr_mark.set(v);
        let mut reach = std::mem::take(&mut self.s.reach);
        reach.clear();
        for &u in self.g.neighbors(v) {
            if !self.s.nbr_mark.get(u) {
                self.s.nbr_mark.set(u);
                reach.push(u);
            }
        }
        stats.kernel_ops += self.g.degree(v) as u64;
        let first_hop = reach.len();
        for i in 0..first_hop {
            let u = reach[i];
            for &w in self.g.neighbors(u) {
                if !self.s.nbr_mark.get(w) {
                    self.s.nbr_mark.set(w);
                    reach.push(w);
                }
            }
            stats.kernel_ops += self.g.degree(u) as u64;
        }
        stats.kernel_ops += reach.len() as u64;
        let bits_on = self.bits_on;
        let cand_bits = &self.s.cand_bits;
        let cand_mark = &self.s.cand_mark;
        reach.retain(|&w| {
            let is_cand = if bits_on {
                cand_bits.contains(w)
            } else {
                cand_mark.get(w)
            };
            is_cand && rank[w as usize] != u32::MAX && rank[w as usize] > pos
        });
        reach.sort_unstable();
        // Sized by the filtered reach: every root child is queued at once,
        // so over-sized lists here would add up over all seeds.
        let mut child = self.s.node(1, reach.len());
        child.x.push(v);
        child.x_indeg.push(0);
        child.cands.extend_from_slice(&reach);
        self.s.reach = reach;
        let found = child.cands.len() as u64;
        stats.edge_tests += found;
        if self.bits_on {
            stats.kernel_ops += found;
            let adj = &self.s.adj;
            child
                .cands_indeg
                .extend(child.cands.iter().map(|&w| adj.has_edge(v, w) as u32));
        } else {
            let nv = self.g.neighbors(v);
            stats.kernel_ops += found * (1 + usize::BITS - nv.len().leading_zeros()) as u64;
            child.cands_indeg.extend(
                child
                    .cands
                    .iter()
                    .map(|w| nv.binary_search(w).is_ok() as u32),
            );
        }
        child
    }

    /// Builds the child node of pivot `v` on the bitset path, fully
    /// batched: the caller has packed `X` (with `x_pos`) and built
    /// `cand_pos`, and removes pivots from the packed candidate set in
    /// processing order — so after `self.s.cand_bits.remove(v)` the packed
    /// set is exactly the child's candidate set (`later` vertices). One
    /// `row(v) ∧ X` sweep bumps the member indegs; one `row(v) ∧ cands`
    /// sweep emits the child's candidates *already ascending* with their
    /// indeg bumps read off the AND word — replacing `|X| + later` point
    /// probes (counted in [`SearchStats::probes_elided`]) and the
    /// per-child sort with `batch_ops` word touches.
    fn pivot_child_batched(
        &mut self,
        node: &SearchNode,
        v: VertexId,
        later: usize,
        stats: &mut SearchStats,
    ) -> SearchNode {
        let mut batch = 0u64;
        self.s.cand_bits.remove(v);
        let mut child = self.s.node(node.x.len() + 1, later);
        child.x.extend_from_slice(&node.x);
        child.x_indeg.extend_from_slice(&node.x_indeg);
        {
            let row = self.s.adj.row(v);
            let x_words = self.s.x_bits.words();
            for &wi in &self.s.x_active {
                let wi = wi as usize;
                if x_words[wi] == 0 {
                    continue;
                }
                batch += 1;
                let mut m = row[wi] & x_words[wi];
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let u = wi * 64 + bit;
                    child.x_indeg[self.s.x_pos[u] as usize] += 1;
                }
            }
        }
        stats.probes_elided += node.x.len() as u64;
        child.x.push(v);
        child
            .x_indeg
            .push(node.cands_indeg[self.s.cand_pos[v as usize] as usize]);
        let row = self.s.adj.row(v);
        let cand_words = self.s.cand_bits.words();
        for &wi in &self.s.cand_active {
            let wi = wi as usize;
            let cw = cand_words[wi];
            if cw == 0 {
                continue;
            }
            batch += 1;
            let m = row[wi] & cw;
            let mut bits = cw;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let w = (wi * 64 + bit) as VertexId;
                let j = self.s.cand_pos[w as usize] as usize;
                child.cands.push(w);
                child
                    .cands_indeg
                    .push(node.cands_indeg[j] + ((m >> bit) & 1) as u32);
            }
        }
        debug_assert_eq!(child.cands.len(), later);
        stats.probes_elided += later as u64;
        stats.batch_ops += batch;
        stats.kernel_ops += batch;
        child
    }

    /// Gathered fused popcount `|row(v) ∩ set_words|` over the sparser of
    /// the row's precomputed active-word list and `active` (the packed
    /// set's) — the word-level galloping idiom every bitset exdeg kernel
    /// shares. Adds the touched word count to `gathered`.
    #[inline]
    fn gathered_degree(
        &self,
        v: VertexId,
        set_words: &[u64],
        active: &[u32],
        gathered: &mut usize,
    ) -> u32 {
        let ra = self.s.adj.row_active(v);
        let list = if ra.len() <= active.len() { ra } else { active };
        *gathered += list.len();
        gather_intersect_popcount(self.s.adj.row(v), set_words, list) as u32
    }

    /// Packs/stamps the candidate set of `node` for the per-vertex exdeg
    /// kernels ([`Ctx::compute_x_exdegs`] / [`Ctx::compute_cands_exdegs`])
    /// and leaves it behind for [`Ctx::seed_child`].
    ///
    /// Bitset path: tracked insertion into `cand_bits` — each word is
    /// recorded in `cand_active` the first time it becomes nonzero, so the
    /// active-word list is a free by-product and the previous node's words
    /// are unpacked in `O(previous active)`, not `O(stride)`. Slice path:
    /// generation-stamp the candidates.
    fn pack_cands(&mut self, node: &SearchNode, stats: &mut SearchStats) {
        if self.bits_on {
            let cleared = self.s.cand_active.len();
            self.s.cand_bits.clear_active(&mut self.s.cand_active);
            for &v in &node.cands {
                self.s.cand_bits.insert_tracked(v, &mut self.s.cand_active);
            }
            stats.kernel_ops += (cleared + node.cands.len()) as u64;
        } else {
            self.s.cand_mark.begin();
            for &v in &node.cands {
                self.s.cand_mark.set(v);
            }
            stats.kernel_ops += node.cands.len() as u64;
        }
    }

    /// `exdeg = |N(·) ∩ cands|` for every member of `X`, against the
    /// candidate set packed by [`Ctx::pack_cands`].
    ///
    /// Bitset path: one gathered fused AND+popcount per member over the
    /// sparser of the member's row-active list and the candidate set's
    /// active list — sparse sides cost their nonzero words, never the
    /// full `⌈n/64⌉` stride. Slice path: neighbor-list scans against the
    /// candidate stamps.
    fn compute_x_exdegs(
        &mut self,
        node: &SearchNode,
        x_exdeg: &mut [u32],
        stats: &mut SearchStats,
    ) {
        if self.bits_on {
            let active: &[u32] = &self.s.cand_active;
            let cand_words = self.s.cand_bits.words();
            let mut gathered = 0usize;
            for (i, &u) in node.x.iter().enumerate() {
                x_exdeg[i] = self.gathered_degree(u, cand_words, active, &mut gathered);
            }
            stats.kernel_ops += gathered as u64;
            stats.fused_ops += node.x.len() as u64;
        } else {
            let mut ops = 0usize;
            for (i, &u) in node.x.iter().enumerate() {
                let mut d = 0;
                for &w in self.g.neighbors(u) {
                    d += self.s.cand_mark.get(w) as u32;
                }
                x_exdeg[i] = d;
                ops += self.g.degree(u);
            }
            stats.kernel_ops += ops as u64;
        }
    }

    /// `exdeg = |N(·) ∩ cands|` for every candidate, against the
    /// candidate set packed by [`Ctx::pack_cands`]. Computed *lazily*: a
    /// node killed by the member-side feasibility/interval check (which
    /// needs only `x_exdeg` and the candidate count) never pays for it.
    fn compute_cands_exdegs(
        &mut self,
        node: &SearchNode,
        cands_exdeg: &mut [u32],
        stats: &mut SearchStats,
    ) {
        if self.bits_on {
            let active: &[u32] = &self.s.cand_active;
            let cand_words = self.s.cand_bits.words();
            let mut gathered = 0usize;
            for (j, &v) in node.cands.iter().enumerate() {
                cands_exdeg[j] = self.gathered_degree(v, cand_words, active, &mut gathered);
            }
            stats.kernel_ops += gathered as u64;
            stats.fused_ops += node.cands.len() as u64;
        } else {
            let mut ops = 0usize;
            for (j, &v) in node.cands.iter().enumerate() {
                let mut d = 0;
                for &w in self.g.neighbors(v) {
                    d += self.s.cand_mark.get(w) as u32;
                }
                cands_exdeg[j] = d;
                ops += self.g.degree(v);
            }
            stats.kernel_ops += ops as u64;
        }
    }

    /// Whether `{u, w}` is an edge of the reduced graph: `O(1)` row probe
    /// on the bitset path, binary search on the slice path.
    #[inline]
    fn edge(&self, u: VertexId, w: VertexId, stats: &mut SearchStats) -> bool {
        stats.edge_tests += 1;
        if self.bits_on {
            stats.kernel_ops += 1;
            self.s.adj.has_edge(u, w)
        } else {
            let d = self.g.degree(u).min(self.g.degree(w));
            stats.kernel_ops += 1 + (usize::BITS - d.leading_zeros()) as u64;
            self.g.has_edge(u, w)
        }
    }

    /// Handles a found quasi-clique (degree property + min size hold).
    /// `set` may arrive unsorted (X grows in pivot order, and critical
    /// forcing appends out of order); it is sorted here. A set that is not
    /// kept goes back to the free list.
    fn emit(&mut self, mut set: Vec<VertexId>, stats: &mut SearchStats) {
        set.sort_unstable();
        debug_assert!(self.cfg.is_quasi_clique(self.g, &set));
        stats.emitted += 1;
        match self.mode {
            MiningMode::Coverage => {
                for &v in &set {
                    if !self.s.covered[v as usize] {
                        self.s.covered[v as usize] = true;
                        self.remaining -= 1;
                    }
                }
            }
            MiningMode::EnumerateMaximal => {
                if !self.single_extendable(&set, stats) {
                    self.emitted.push(set);
                    return;
                }
            }
            MiningMode::TopK(k) => {
                // Drop buffered subsets of the new set; skip the new set if
                // a buffered superset exists.
                if !self.single_extendable(&set, stats)
                    && !self.emitted.iter().any(|kept| is_subset(&set, kept))
                {
                    self.emitted.retain(|kept| !is_subset(kept, &set));
                    self.emitted.push(set);
                    let sizes = &mut self.s.topk_sizes;
                    sizes.clear();
                    sizes.extend(self.emitted.iter().map(Vec::len));
                    sizes.sort_unstable_by(|a, b| b.cmp(a));
                    if sizes.len() >= k {
                        self.topk_bound = sizes[k - 1];
                    }
                    return;
                }
            }
        }
        self.s.recycle(set);
    }

    /// Whether a single vertex outside `set` extends it to a larger
    /// quasi-clique (then `set` is certainly not maximal). `set` sorted.
    ///
    /// Set-neighbor counts of the outside vertices accumulate in a scratch
    /// counter array (zeroed through the `touched` list afterwards); on
    /// the bitset path the outside neighbors come from `row(u) ∧ ¬set`
    /// word scans, on the slice path from neighbor-list scans against a
    /// stamp.
    fn single_extendable(&mut self, set: &[VertexId], stats: &mut SearchStats) -> bool {
        let req = self.cfg.required_degree(set.len() + 1);
        self.s.touched.clear();
        if self.bits_on {
            let cleared = self.s.aux_active.len();
            self.s.aux_bits.clear_active(&mut self.s.aux_active);
            for &u in set {
                self.s.aux_bits.insert_tracked(u, &mut self.s.aux_active);
            }
            stats.kernel_ops += (cleared + set.len()) as u64;
            stats.fused_ops += set.len() as u64;
            for &u in set {
                let row = self.s.adj.row(u);
                let set_words = self.s.aux_bits.words();
                // Fused and-not scan over the row's *active* words only
                // (zero row words contribute nothing to `row ∧ ¬set`):
                // counts outside neighbors without materializing the
                // difference, paying `min(deg, stride)` not `stride`.
                let row_active = self.s.adj.row_active(u);
                stats.kernel_ops += row_active.len() as u64;
                for &wi in row_active {
                    let wi = wi as usize;
                    let mut m = row[wi] & !set_words[wi];
                    while m != 0 {
                        let w = (wi * 64 + m.trailing_zeros() as usize) as VertexId;
                        m &= m - 1;
                        if self.s.counts[w as usize] == 0 {
                            self.s.touched.push(w);
                        }
                        self.s.counts[w as usize] += 1;
                    }
                }
            }
        } else {
            self.s.nbr_mark.begin();
            for &u in set {
                self.s.nbr_mark.set(u);
            }
            stats.kernel_ops += set.len() as u64;
            for &u in set {
                stats.kernel_ops += self.g.degree(u) as u64;
                for &w in self.g.neighbors(u) {
                    if !self.s.nbr_mark.get(w) {
                        if self.s.counts[w as usize] == 0 {
                            self.s.touched.push(w);
                        }
                        self.s.counts[w as usize] += 1;
                    }
                }
            }
        }
        // Outside vertices adjacent to enough members to survive at size
        // |set| + 1.
        let mut extenders = std::mem::take(&mut self.s.extenders);
        extenders.clear();
        extenders.extend(
            self.s
                .touched
                .iter()
                .copied()
                .filter(|&w| self.s.counts[w as usize] as usize >= req),
        );
        // Zero the counters through the touched list, keeping the scratch
        // clean for the next emission.
        for &w in &self.s.touched {
            self.s.counts[w as usize] = 0;
        }
        let mut extendable = false;
        if !extenders.is_empty() {
            // Members whose degree would fall below the requirement unless
            // the new vertex is their neighbor.
            let mut deficient = std::mem::take(&mut self.s.deficient);
            deficient.clear();
            if self.bits_on {
                let active: &[u32] = &self.s.aux_active;
                let set_words = self.s.aux_bits.words();
                let mut gathered = 0usize;
                deficient.extend(set.iter().copied().filter(|&u| {
                    (self.gathered_degree(u, set_words, active, &mut gathered) as usize) < req
                }));
                stats.kernel_ops += gathered as u64;
                stats.fused_ops += set.len() as u64;
            } else {
                deficient.extend(set.iter().copied().filter(|&u| {
                    stats.kernel_ops += (self.g.degree(u).min(set.len())) as u64;
                    self.g.degree_within(u, set) < req
                }));
            }
            extendable = extenders
                .iter()
                .any(|&w| deficient.iter().all(|&u| self.edge(u, w, stats)));
            self.s.deficient = deficient;
        }
        self.s.extenders = extenders;
        extendable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::builder::graph_from_edges;
    use scpm_graph::figure1::{figure1, paper_vertex};

    fn sets(outcome: &MiningOutcome) -> Vec<Vec<VertexId>> {
        let mut s: Vec<Vec<VertexId>> =
            outcome.cliques.iter().map(|q| q.vertices.clone()).collect();
        s.sort();
        s
    }

    fn paper_set(labels: &[u32]) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = labels.iter().map(|&l| paper_vertex(l)).collect();
        v.sort_unstable();
        v
    }

    /// Every 2^8 combination of the pruning switches.
    fn all_flag_combinations() -> Vec<PruneFlags> {
        let mut out = Vec::new();
        for bits in 0u32..256 {
            out.push(PruneFlags {
                feasibility: bits & 1 != 0,
                bounds: bits & 2 != 0,
                critical: bits & 4 != 0,
                cover_vertex: bits & 8 != 0,
                lookahead: bits & 16 != 0,
                covered_candidate: bits & 32 != 0,
                diameter2: bits & 64 != 0,
                witnesses: bits & 128 != 0,
            });
        }
        out
    }

    #[test]
    fn figure1_maximal_quasicliques_match_table1() {
        let g = figure1();
        let miner = Miner::new(g.graph(), QcConfig::new(0.6, 4));
        let out = miner.enumerate_maximal();
        let expect: Vec<Vec<VertexId>> = {
            let mut e = vec![
                paper_set(&[3, 4, 5, 6]),
                paper_set(&[6, 7, 8, 9, 10, 11]),
                paper_set(&[3, 4, 6, 7]),
                paper_set(&[3, 5, 6, 7]),
                paper_set(&[3, 6, 7, 8]),
            ];
            e.sort();
            e
        };
        assert_eq!(sets(&out), expect);
    }

    #[test]
    fn figure1_coverage_is_vertices_3_to_11() {
        let g = figure1();
        let miner = Miner::new(g.graph(), QcConfig::new(0.6, 4));
        let out = miner.coverage();
        let expect: Vec<VertexId> = (3..=11).map(paper_vertex).collect();
        assert_eq!(out.covered, expect);
    }

    #[test]
    fn figure1_bfs_equals_dfs() {
        let g = figure1();
        let cfg = QcConfig::new(0.6, 4);
        let dfs = Miner::new(g.graph(), cfg).with_order(SearchOrder::Dfs);
        let bfs = Miner::new(g.graph(), cfg).with_order(SearchOrder::Bfs);
        assert_eq!(
            sets(&dfs.enumerate_maximal()),
            sets(&bfs.enumerate_maximal())
        );
        assert_eq!(dfs.coverage().covered, bfs.coverage().covered);
    }

    #[test]
    fn figure1_top_k() {
        let g = figure1();
        let miner = Miner::new(g.graph(), QcConfig::new(0.6, 4));
        let top2 = miner.top_k(2);
        assert_eq!(top2.cliques.len(), 2);
        // Largest first: the size-6 pattern, then the clique (ratio 1.0
        // beats the 0.67 sets).
        assert_eq!(top2.cliques[0].vertices, paper_set(&[6, 7, 8, 9, 10, 11]));
        assert_eq!(top2.cliques[1].vertices, paper_set(&[3, 4, 5, 6]));
        assert!((top2.cliques[1].min_degree_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clique_with_gamma_one() {
        let g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)]);
        // Two triangles sharing vertex 2.
        let miner = Miner::new(&g, QcConfig::new(1.0, 3));
        let out = miner.enumerate_maximal();
        assert_eq!(sets(&out), vec![vec![0, 1, 2], vec![2, 3, 4]]);
        let cov = miner.coverage();
        assert_eq!(cov.covered, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn no_quasicliques_in_sparse_graph() {
        let g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)]);
        let miner = Miner::new(&g, QcConfig::new(0.5, 3));
        assert!(miner.enumerate_maximal().cliques.is_empty());
        assert!(miner.coverage().covered.is_empty());
        assert!(miner.top_k(3).cliques.is_empty());
    }

    #[test]
    fn all_prune_flag_combinations_agree_on_figure1() {
        let g = figure1();
        let cfg = QcConfig::new(0.6, 4);
        let baseline_sets = sets(
            &Miner::new(g.graph(), cfg)
                .with_prune(PruneFlags::none())
                .enumerate_maximal(),
        );
        let baseline_cov = Miner::new(g.graph(), cfg)
            .with_prune(PruneFlags::none())
            .coverage()
            .covered;
        for flags in all_flag_combinations() {
            let miner = Miner::new(g.graph(), cfg).with_prune(flags);
            assert_eq!(sets(&miner.enumerate_maximal()), baseline_sets, "{flags:?}");
            assert_eq!(miner.coverage().covered, baseline_cov, "{flags:?}");
        }
    }

    #[test]
    fn cover_vertex_prunes_on_dense_graph() {
        // Complete graph K6: the cover vertex covers every other candidate.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(6, edges);
        let miner = Miner::new(&g, QcConfig::new(1.0, 3));
        let out = miner.enumerate_maximal();
        assert_eq!(sets(&out), vec![(0..6).collect::<Vec<_>>()]);
        // The lookahead collapses the root; cover pruning may or may not
        // fire before that. Run without lookahead to see cover pruning.
        let flags = PruneFlags {
            lookahead: false,
            ..PruneFlags::default()
        };
        let out = Miner::new(&g, QcConfig::new(1.0, 3))
            .with_prune(flags)
            .run(MiningMode::EnumerateMaximal);
        assert_eq!(sets(&out), vec![(0..6).collect::<Vec<_>>()]);
        assert!(out.stats.pruned_cover > 0, "stats: {:?}", out.stats);
    }

    #[test]
    fn critical_forcing_fires_on_sparse_quasiclique() {
        // A 5-cycle with a chord is a 0.5-quasi-clique of size 5; vertices
        // have exactly the required degree, making members critical early.
        let g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let cfg = QcConfig::new(0.5, 5);
        let out = Miner::new(&g, cfg).enumerate_maximal();
        assert_eq!(sets(&out), vec![vec![0, 1, 2, 3, 4]]);
        let no_lookahead = PruneFlags {
            lookahead: false,
            ..PruneFlags::default()
        };
        let out2 = Miner::new(&g, cfg)
            .with_prune(no_lookahead)
            .enumerate_maximal();
        assert_eq!(sets(&out2), vec![vec![0, 1, 2, 3, 4]]);
        assert!(out2.stats.forced_critical > 0, "stats: {:?}", out2.stats);
    }

    #[test]
    fn bounds_kill_conflicting_nodes() {
        // Two triangles joined by one edge: no 0.9-quasi-clique of size 4.
        let g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]);
        let out = Miner::new(&g, QcConfig::new(0.9, 4)).enumerate_maximal();
        assert!(out.cliques.is_empty());
    }

    #[test]
    fn prune_flags_do_not_change_results() {
        let g = figure1();
        let cfg = QcConfig::new(0.6, 4);
        let baseline = sets(&Miner::new(g.graph(), cfg).enumerate_maximal());
        for (f, l, d) in [
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ] {
            let flags = PruneFlags {
                feasibility: f,
                lookahead: l,
                diameter2: d,
                ..PruneFlags::default()
            };
            let out = Miner::new(g.graph(), cfg)
                .with_prune(flags)
                .enumerate_maximal();
            assert_eq!(sets(&out), baseline, "flags {flags:?}");
        }
    }

    #[test]
    fn stamp_generation_wraparound_clears_marks() {
        let mut stamp = Stamp::default();
        stamp.reset(4);
        stamp.gen = u32::MAX - 1;
        stamp.begin();
        stamp.set(0);
        assert!(stamp.get(0));
        // The next generation wraps the counter: nothing may read as set,
        // neither the never-set marks (0) nor the one set just before.
        stamp.begin();
        assert!((0..4).all(|v| !stamp.get(v)));
        stamp.set(2);
        assert!(stamp.get(2) && !stamp.get(0));
        stamp.begin();
        assert!((0..4).all(|v| !stamp.get(v)));
    }

    /// A 12-vertex graph on which a top-k bound that rises during the
    /// search would cut a subtree holding one of the best three patterns
    /// under BFS. The expected top-3 is brute force's.
    #[test]
    fn top_k_matches_bruteforce_on_twelve_vertex_graph() {
        let edges = "0-3 0-4 0-5 0-7 0-8 0-11 1-2 1-4 1-6 1-7 1-11 2-4 2-5 2-6 2-9 2-10 \
                     2-11 3-6 3-7 3-8 3-9 3-10 3-11 4-5 4-9 4-10 5-6 5-8 5-10 6-7 6-9 \
                     6-11 7-9 7-10 9-10 9-11 10-11";
        let g = graph_from_edges(
            12,
            edges.split_whitespace().map(|e| {
                let (u, v) = e.split_once('-').unwrap();
                (u.parse().unwrap(), v.parse().unwrap())
            }),
        );
        let cfg = QcConfig::new(0.5, 3);
        let expect: Vec<Vec<VertexId>> = vec![
            vec![0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11],
            vec![0, 2, 3, 4, 5, 6, 8],
            vec![0, 2, 3, 4, 5, 8, 9],
        ];
        let brute: Vec<Vec<VertexId>> = crate::bruteforce::top_k(&g, &cfg, 3)
            .into_iter()
            .map(|q| q.vertices)
            .collect();
        assert_eq!(brute, expect);
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            for repr in [Representation::Slice, Representation::Bitset] {
                let got: Vec<Vec<VertexId>> = Miner::new(&g, cfg)
                    .with_order(order)
                    .with_repr(repr)
                    .top_k(3)
                    .cliques
                    .into_iter()
                    .map(|q| q.vertices)
                    .collect();
                assert_eq!(got, expect, "{order:?} {repr:?}");
            }
        }
    }

    #[test]
    fn top_k_zero_is_empty() {
        let g = figure1();
        let out = Miner::new(g.graph(), QcConfig::new(0.6, 4)).top_k(0);
        assert!(out.cliques.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let g = figure1();
        let out = Miner::new(g.graph(), QcConfig::new(0.6, 4)).enumerate_maximal();
        assert!(out.stats.nodes_visited > 0);
        assert!(out.stats.emitted >= 5);
        assert!(out.stats.edge_tests > 0);
        assert!(out.stats.kernel_ops > 0);
    }

    /// Pre-bitset reference implementation of the containment filter:
    /// pairwise sorted-slice subset checks.
    fn containment_filter_naive(mut sets: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        sets.dedup();
        let mut kept: Vec<Vec<VertexId>> = Vec::new();
        'outer: for set in sets {
            for bigger in &kept {
                if is_subset(&set, bigger) {
                    continue 'outer;
                }
            }
            kept.push(set);
        }
        kept
    }

    #[test]
    fn containment_filter_keeps_same_sets_as_naive_on_figure1() {
        // Feed the filter everything the unpruned figure-1 search emits
        // (raw emissions, before maximality filtering) and check the
        // bitset subset path keeps the identical list in identical order.
        let g = figure1();
        let miner = Miner::new(g.graph(), QcConfig::new(0.6, 4)).with_prune(PruneFlags::none());
        let raw = miner.enumerate_maximal();
        // Reconstruct an over-complete input: the five maximal sets plus
        // every emitted-size prefix pair and duplicates.
        let mut input: Vec<Vec<VertexId>> =
            raw.cliques.iter().map(|q| q.vertices.clone()).collect();
        let extra: Vec<Vec<VertexId>> = input
            .iter()
            .flat_map(|s| [s.clone(), s[..s.len() - 1].to_vec(), s[1..].to_vec()])
            .collect();
        input.extend(extra);
        let n = g.num_vertices();
        let mut stats = SearchStats::default();
        assert_eq!(
            containment_filter(input.clone(), n, &mut stats),
            containment_filter_naive(input)
        );
    }

    #[test]
    fn containment_filter_synthetic_cases() {
        let cases: Vec<Vec<Vec<VertexId>>> = vec![
            vec![],
            vec![vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![3]],
            vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![0, 2]],
            vec![vec![64, 65, 66], vec![64, 66], vec![65]],
        ];
        for sets in cases {
            let n = 70;
            let mut stats = SearchStats::default();
            assert_eq!(
                containment_filter(sets.clone(), n, &mut stats),
                containment_filter_naive(sets.clone()),
                "{sets:?}"
            );
        }
    }

    #[test]
    fn slice_and_bitset_representations_agree_on_figure1() {
        let g = figure1();
        let cfg = QcConfig::new(0.6, 4);
        for flags in [PruneFlags::default(), PruneFlags::none()] {
            let slice = Miner::new(g.graph(), cfg)
                .with_prune(flags)
                .with_repr(Representation::Slice);
            let bits = Miner::new(g.graph(), cfg)
                .with_prune(flags)
                .with_repr(Representation::Bitset);
            let (s, b) = (slice.enumerate_maximal(), bits.enumerate_maximal());
            assert_eq!(sets(&s), sets(&b));
            // The search trees are identical: every semantic counter (tree
            // shape, prune events, emissions) must match exactly; only the
            // modeled kernel costs may differ.
            assert_eq!(s.stats.semantic(), b.stats.semantic());
            assert_eq!(slice.coverage().covered, bits.coverage().covered);
            assert_eq!(sets(&slice.top_k(2)), sets(&bits.top_k(2)));
        }
    }

    #[test]
    fn bitset_falls_back_on_oversized_graphs() {
        // A graph wider than the pack cap must still mine correctly (the
        // engine silently uses the slice kernels).
        let mut edges = Vec::new();
        let base = (BITADJ_MAX_VERTICES + 3) as u32;
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((base - 4 + u, base - 4 + v));
            }
        }
        let g = graph_from_edges(base as usize, edges);
        let out = Miner::new(&g, QcConfig::new(1.0, 4)).enumerate_maximal();
        assert_eq!(out.cliques.len(), 1);
        assert_eq!(out.cliques[0].vertices.len(), 4);
    }

    /// `groups` overlapping dense groups of `size` vertices (edge
    /// probability 0.55) over `n` vertices, plus background edges
    /// (probability 0.04), from a fixed SplitMix64 stream.
    fn planted(n: u32, groups: u32, size: u32) -> CsrGraph {
        let mut state = 0x05ee_d0fa_110c_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut edges = Vec::new();
        for group in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| (group * (size - 1) + i) % n).collect();
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    if next() < 0.55 {
                        edges.push((u, v));
                    }
                }
            }
        }
        for u in 0..n {
            for v in u + 1..n {
                if next() < 0.04 {
                    edges.push((u, v));
                }
            }
        }
        graph_from_edges(n as usize, edges)
    }

    #[test]
    fn coverage_balls_are_inert_below_one_half() {
        // Below γ = 0.5 a quasi-clique may be wider than two hops, so the
        // coverage search stays whole-graph: the diameter-2 rule, ball by
        // ball included, changes neither the cover nor a single counter.
        // At γ = 0.5 it takes over and visits fewer nodes for the same
        // cover.
        let g = planted(48, 4, 12);
        for gamma in [0.3, 0.4, 0.49] {
            let cfg = QcConfig::new(gamma, 5);
            for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
                for repr in [Representation::Slice, Representation::Bitset] {
                    let run = |diameter2| {
                        Miner::new(&g, cfg)
                            .with_order(order)
                            .with_repr(repr)
                            .with_prune(PruneFlags {
                                diameter2,
                                ..PruneFlags::default()
                            })
                            .coverage()
                    };
                    let (on, off) = (run(true), run(false));
                    assert!(!on.covered.is_empty(), "γ {gamma}: nothing to cover");
                    assert_eq!(on.covered, off.covered, "γ {gamma} {order:?} {repr:?}");
                    assert_eq!(on.stats, off.stats, "γ {gamma} {order:?} {repr:?}");
                }
            }
        }
        let cfg = QcConfig::new(0.5, 5);
        let on = Miner::new(&g, cfg).coverage();
        let off = Miner::new(&g, cfg)
            .with_prune(PruneFlags {
                diameter2: false,
                ..PruneFlags::default()
            })
            .coverage();
        assert_eq!(on.covered, off.covered);
        assert!(
            on.stats.nodes_visited < off.stats.nodes_visited,
            "{} !< {}",
            on.stats.nodes_visited,
            off.stats.nodes_visited
        );
    }

    #[test]
    fn bfs_work_list_shrinks_to_the_pool_cap_after_a_search() {
        // Six 13-vertex groups over 72 vertices: the BFS top-k search
        // visits about 118k nodes, and its frontier outgrows the cap.
        let g = planted(72, 6, 13);
        let cfg = QcConfig::new(0.5, 6);
        for repr in [Representation::Slice, Representation::Bitset] {
            let miner = Miner::new(&g, cfg)
                .with_order(SearchOrder::Bfs)
                .with_repr(repr);
            let mut scratch = EngineScratch::new();
            miner.run_with(MiningMode::TopK(3), &mut scratch);
            let slots = scratch.work.capacity();
            assert!(slots >= WORK_MAX_SLOTS, "{repr:?}: frontier stayed narrow");
            assert!(
                slots * std::mem::size_of::<SearchNode>() <= POOL_MAX_BYTES,
                "{repr:?}: {slots} work-list slots retained"
            );
            for mode in [MiningMode::TopK(3), MiningMode::Coverage] {
                let warm = miner.run_with(mode, &mut scratch);
                let fresh = miner.run_with(mode, &mut EngineScratch::new());
                assert_eq!(sets(&warm), sets(&fresh), "{repr:?} {mode:?}");
                assert_eq!(warm.covered, fresh.covered, "{repr:?} {mode:?}");
                assert_eq!(warm.stats, fresh.stats, "{repr:?} {mode:?}");
            }
        }
    }
}
