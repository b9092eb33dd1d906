//! Incremental mining over graph deltas: dirty-set computation and the
//! per-set evaluation memo the lattice driver replays clean sets from.
//!
//! # The dirty region of the attribute lattice
//!
//! The structural correlation of an attribute set `S` is a function of
//! `V(S)` and of the induced subgraph `G(S) = G[V(S)]` only (Definition 2
//! of the paper; the Theorem 3 restriction to the parents' covered
//! vertices shrinks the *search*, never the answer). Under an insert-only
//! [`GraphDelta`](scpm_graph::delta::GraphDelta) a set `S` can therefore
//! only change if
//!
//! 1. some novel `(v, a)` assignment has `a ∈ S` — then `V(S)` itself
//!    changed — or
//! 2. some novel edge `{u, v}` has `S ⊆ F(u) ∩ F(v)` — then both
//!    endpoints lie in `V(S)` and the edge appeared *inside* `G(S)`.
//!
//! Newly appended isolated vertices satisfy neither: they carry no
//! attributes, so no `V(S)` and no `G(S)` contains them. [`DirtySet`]
//! evaluates exactly this predicate. Everything else — supports, the
//! Theorem 4/5 gates, `δ` normalization against the (changed) null model —
//! is recomputed by the structural re-drive, so the classification errs
//! on no side: a clean set provably evaluates to the same `ε`, the same
//! covered set and the same search counters as a fresh run.
//!
//! # The evaluation memo
//!
//! [`EvalMemo`] maps each evaluated attribute set to an [`EvalRecord`]:
//! its `ε`, covered vertices, coverage-search counters, and (when one was
//! computed) its top-k quasi-cliques. An incremental run re-drives the
//! lattice *structurally* — every tidset intersection and support gate is
//! re-run on the updated graph, which is what keeps report order and
//! pruning counters byte-identical to a full mine — but a set that is
//! clean, whose parents' covers are unchanged, and that has a memo record
//! replays the record instead of searching quasi-cliques again. The search
//! is the dominant cost, so reuse is where the incremental win comes from;
//! `tests/incremental_vs_full.rs` proves the byte-identity invariant over
//! random delta streams.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use scpm_graph::attributed::{AttrId, AttributedGraph};
use scpm_graph::csr::VertexId;
use scpm_graph::delta::AppliedDelta;
use scpm_quasiclique::{QuasiClique, SearchStats};

use crate::nullmodel::NullModelCache;
use crate::parallel::ParallelConfig;
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;
use crate::Scpm;

/// The memoized outcome of one attribute set's evaluation.
#[derive(Clone, Debug)]
pub struct EvalRecord {
    /// `σ(S) = |V(S)|` at the time of evaluation (consistency check).
    pub support: usize,
    /// `ε(S)`.
    pub epsilon: f64,
    /// The covered set `K_S`, sorted global vertex ids.
    pub covered: Vec<VertexId>,
    /// Counters of the coverage search.
    pub coverage_stats: SearchStats,
    /// Whether the evaluation built a mining subgraph (false when it
    /// short-circuited below `min_size`). Replays only run a top-k search
    /// when the original evaluation would have.
    pub sub_built: bool,
    /// The top-k quasi-cliques and their search counters, when a top-k
    /// search ever ran for this set.
    pub topk: Option<(Vec<QuasiClique>, SearchStats)>,
}

/// Evaluation memo of one mining run: attribute set → [`EvalRecord`].
pub type EvalMemo = HashMap<Vec<AttrId>, EvalRecord>;

/// The dirty region of the attribute lattice induced by an applied delta.
///
/// `is_dirty(S)` answers whether `V(S)` or `G(S)` may differ from the
/// pre-delta graph (see the module docs for why this is exact for
/// insert-only deltas).
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// Marks every set dirty regardless (recording mode).
    all_dirty: bool,
    /// `dirty_attrs[a]`: some novel `(v, a)` assignment exists.
    dirty_attrs: Vec<bool>,
    /// For each novel edge `{u, v}` with a non-empty attribute overlap:
    /// `F(u) ∩ F(v)`, sorted. A set is edge-dirty iff it is a subset of
    /// one of these caps.
    edge_caps: Vec<Vec<AttrId>>,
}

impl DirtySet {
    /// The everything-is-dirty set (recording mode: no record is replayed).
    pub fn all() -> DirtySet {
        DirtySet {
            all_dirty: true,
            ..DirtySet::default()
        }
    }

    /// The nothing-is-dirty set over a graph with `num_attrs` attributes:
    /// every memoized set with stable parents replays. Recovery starts
    /// from it and unions in each journaled delta's region; with no
    /// delta, a restarted server re-drives the lattice structurally but
    /// reuses every persisted evaluation, because the graph is
    /// byte-identical to the one the memo was recorded against (see
    /// `docs/DURABILITY.md`).
    pub fn clean(num_attrs: usize) -> DirtySet {
        DirtySet {
            all_dirty: false,
            dirty_attrs: vec![false; num_attrs],
            edge_caps: Vec::new(),
        }
    }

    /// Computes the dirty region of `applied` over its updated graph.
    pub fn from_delta(graph: &AttributedGraph, applied: &AppliedDelta) -> DirtySet {
        let mut dirty_attrs = vec![false; graph.num_attributes()];
        for &(_, a) in &applied.novel_attrs {
            dirty_attrs[a as usize] = true;
        }
        let mut edge_caps: Vec<Vec<AttrId>> = Vec::new();
        for &(u, v) in &applied.novel_edges {
            let cap = sorted_intersection(graph.attributes_of(u), graph.attributes_of(v));
            if !cap.is_empty() && !edge_caps.contains(&cap) {
                edge_caps.push(cap);
            }
        }
        DirtySet {
            all_dirty: false,
            dirty_attrs,
            edge_caps,
        }
    }

    /// Widens this region by `other`: afterwards a set is dirty iff it was
    /// dirty in either. The dirty region of a sequence of insert-only
    /// deltas is the union of their regions (each computed on the graph
    /// its delta produced): `V(S)` or `G(S)` changed across the sequence
    /// only if some step changed it. A novel edge whose cap grows in a
    /// later step to contain `S` gained an attribute of `S` at an
    /// endpoint, which makes `S` attribute-dirty in that step.
    pub fn union_with(&mut self, other: &DirtySet) {
        self.all_dirty |= other.all_dirty;
        let len = self.dirty_attrs.len().max(other.dirty_attrs.len());
        self.dirty_attrs = (0..len)
            .map(|a| self.attr_dirty(a) || other.attr_dirty(a))
            .collect();
        for cap in &other.edge_caps {
            if !self.edge_caps.contains(cap) {
                self.edge_caps.push(cap.clone());
            }
        }
    }

    /// Whether attribute `a` is dirty by assignment (an id past the table
    /// this set was built over is unknown, hence dirty).
    fn attr_dirty(&self, a: usize) -> bool {
        self.dirty_attrs.get(a).copied().unwrap_or(true)
    }

    /// Whether `V(S)` or `G(S)` may have changed for the sorted attribute
    /// set `attrs`.
    pub fn is_dirty(&self, attrs: &[AttrId]) -> bool {
        if self.all_dirty {
            return true;
        }
        if attrs.iter().any(|&a| self.attr_dirty(a as usize)) {
            return true;
        }
        self.edge_caps.iter().any(|cap| is_subset(attrs, cap))
    }

    /// The attribute ids with novel assignments (sorted).
    pub fn dirty_attr_ids(&self) -> Vec<AttrId> {
        self.dirty_attrs
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(a, _)| a as AttrId)
            .collect()
    }

    /// Number of novel-edge attribute caps (distinct `F(u) ∩ F(v)` sets).
    pub fn num_edge_caps(&self) -> usize {
        self.edge_caps.len()
    }

    /// Whether no lattice node can be dirty (e.g. the delta only appended
    /// isolated vertices or duplicated existing edges/assignments).
    pub fn is_empty(&self) -> bool {
        !self.all_dirty && self.edge_caps.is_empty() && !self.dirty_attrs.iter().any(|&d| d)
    }
}

/// Sorted-slice intersection (both inputs ascending).
fn sorted_intersection(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Whether sorted `needle` is a subset of sorted `haystack`.
fn is_subset(needle: &[AttrId], haystack: &[AttrId]) -> bool {
    let mut j = 0;
    for &x in needle {
        loop {
            match haystack.get(j) {
                None => return false,
                Some(&h) if h < x => j += 1,
                Some(&h) if h == x => {
                    j += 1;
                    break;
                }
                Some(_) => return false,
            }
        }
    }
    true
}

/// Counters of one incremental run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Attribute sets replayed from the memo.
    pub reused: u64,
    /// Attribute sets evaluated live (fresh coverage search).
    pub reevaluated: u64,
    /// Modeled kernel operations performed live: every coverage search of
    /// a live evaluation, and every top-k search that had no memoized
    /// result (including a replayed set that newly qualifies).
    pub live_kernel_ops: u64,
    /// Modeled kernel operations replayed from memo records (work a full
    /// re-mine would have performed again).
    pub reused_kernel_ops: u64,
}

/// The incremental context a [`Scpm`] run carries: the memo
/// of the previous generation, the dirty region of the delta, and the memo
/// being recorded for the *next* generation.
///
/// Two modes share the type:
///
/// * **recording** ([`IncrementalCtx::recording`]) — every set is treated
///   as dirty, so the run evaluates everything live and only *fills* the
///   memo. This is how a baseline generation is established.
/// * **update** ([`IncrementalCtx::update`]) — clean sets with stable
///   parents replay their records; everything else evaluates live. The
///   new memo is complete either way, so updates chain.
///
/// The context is interior-mutable (`Mutex`/atomics) because the
/// work-stealing scheduler evaluates sets from many workers against one
/// shared `Scpm`.
#[derive(Debug)]
pub struct IncrementalCtx {
    /// Previous generation's memo (empty in recording mode).
    memo: Arc<EvalMemo>,
    /// Dirty region of the delta ([`DirtySet::all`] in recording mode).
    dirty: DirtySet,
    /// Memo of the run in progress.
    new_memo: Mutex<EvalMemo>,
    reused: AtomicU64,
    reevaluated: AtomicU64,
    live_kernel_ops: AtomicU64,
    reused_kernel_ops: AtomicU64,
}

impl IncrementalCtx {
    /// A recording context: evaluate everything live, fill the memo.
    pub fn recording() -> IncrementalCtx {
        IncrementalCtx::update(Arc::new(EvalMemo::new()), DirtySet::all())
    }

    /// An update context: replay `memo` records outside the `dirty` region.
    pub fn update(memo: Arc<EvalMemo>, dirty: DirtySet) -> IncrementalCtx {
        IncrementalCtx {
            memo,
            dirty,
            new_memo: Mutex::new(EvalMemo::new()),
            reused: AtomicU64::new(0),
            reevaluated: AtomicU64::new(0),
            live_kernel_ops: AtomicU64::new(0),
            reused_kernel_ops: AtomicU64::new(0),
        }
    }

    /// Looks up a replayable record: the set must be clean, its parents'
    /// covers unchanged, and a record present.
    pub(crate) fn replayable(&self, attrs: &[AttrId], parents_stable: bool) -> Option<&EvalRecord> {
        if !parents_stable || self.dirty.is_dirty(attrs) {
            return None;
        }
        self.memo.get(attrs)
    }

    /// Stores the record of a just-evaluated (or just-replayed) set into
    /// the next generation's memo.
    pub(crate) fn store(&self, attrs: &[AttrId], record: EvalRecord) {
        self.new_memo.lock().insert(attrs.to_vec(), record);
    }

    /// Counts one evaluated set — replayed from the memo or evaluated
    /// live — with the kernel work it performed live and the work its
    /// memo record saved. A replayed set that newly qualifies runs its
    /// top-k search live, so one set can contribute to both.
    pub(crate) fn count(&self, replayed: bool, live_ops: u64, reused_ops: u64) {
        let sets = if replayed {
            &self.reused
        } else {
            &self.reevaluated
        };
        sets.fetch_add(1, Ordering::Relaxed);
        self.live_kernel_ops.fetch_add(live_ops, Ordering::Relaxed);
        self.reused_kernel_ops
            .fetch_add(reused_ops, Ordering::Relaxed);
    }

    /// This run's reuse counters.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            reused: self.reused.load(Ordering::Relaxed),
            reevaluated: self.reevaluated.load(Ordering::Relaxed),
            live_kernel_ops: self.live_kernel_ops.load(Ordering::Relaxed),
            reused_kernel_ops: self.reused_kernel_ops.load(Ordering::Relaxed),
        }
    }

    /// Consumes the context, returning the next generation's memo and the
    /// run's counters.
    pub fn into_parts(self) -> (EvalMemo, IncrementalStats) {
        let stats = self.stats();
        (self.new_memo.into_inner(), stats)
    }
}

/// One mined graph version: the graph, the `exp(σ)` cache computed
/// against it, and the evaluation memo of the last mine over it.
///
/// This is the generation step of every incremental mine — the server's
/// startup mine, `POST /mine`, `POST /update` and restart recovery, and
/// `scpm update` / `scpm recover`. A step is one of two mines:
///
/// * [`MiningState::record`] — a recording mine of a graph under a
///   caller-supplied cache (a same-graph re-mine passes the current
///   version's cache, so `exp(σ)` values survive a parameter change);
/// * [`MiningState::update`] — an update-mode mine of a new graph against
///   the previous version's memo, replaying every set outside `dirty`,
///   with a fresh cache (`exp(σ)` is a function of the graph).
///
/// Either way the new memo is complete, so steps chain. Only a mine
/// builds a state, so its memo and cache always belong to its graph. The
/// parts are shared `Arc`s: a server swaps the whole state in one store,
/// and readers holding the previous version keep a consistent triple.
#[derive(Debug)]
pub struct MiningState {
    graph: Arc<AttributedGraph>,
    cache: Arc<NullModelCache>,
    memo: Arc<EvalMemo>,
}

impl MiningState {
    /// The mined graph.
    pub fn graph(&self) -> &Arc<AttributedGraph> {
        &self.graph
    }

    /// The `exp(σ)` memo of [`MiningState::graph`].
    pub fn cache(&self) -> &Arc<NullModelCache> {
        &self.cache
    }

    /// The per-set evaluation memo of the mine that built this state.
    pub fn memo(&self) -> &Arc<EvalMemo> {
        &self.memo
    }

    /// A recording mine of `graph` under `cache`: every set is evaluated
    /// live and recorded. Returns the new version, the mining result and
    /// the run's counters.
    pub fn record(
        graph: Arc<AttributedGraph>,
        cache: Arc<NullModelCache>,
        params: &ScpmParams,
        config: &ParallelConfig,
    ) -> (MiningState, ScpmResult, IncrementalStats) {
        Self::mine(graph, cache, params, config, IncrementalCtx::recording())
    }

    /// An update-mode mine of `graph` against `memo`, the memo of an
    /// earlier version under the same `params`: sets outside `dirty` whose
    /// parents' covers are unchanged replay their records. The result is
    /// byte-identical to a fresh mine of `graph` as long as `dirty` covers
    /// every set whose `V(S)` or `G(S)` changed since `memo` was recorded.
    pub fn update(
        memo: Arc<EvalMemo>,
        graph: Arc<AttributedGraph>,
        dirty: DirtySet,
        params: &ScpmParams,
        config: &ParallelConfig,
    ) -> (MiningState, ScpmResult, IncrementalStats) {
        let ctx = IncrementalCtx::update(memo, dirty);
        Self::mine(graph, Arc::new(NullModelCache::new()), params, config, ctx)
    }

    fn mine(
        graph: Arc<AttributedGraph>,
        cache: Arc<NullModelCache>,
        params: &ScpmParams,
        config: &ParallelConfig,
        ctx: IncrementalCtx,
    ) -> (MiningState, ScpmResult, IncrementalStats) {
        let mut scpm =
            Scpm::with_cache(&graph, params.clone(), Arc::clone(&cache)).with_incremental(ctx);
        let result = scpm.run_scheduled(config);
        let (memo, stats) = scpm
            .take_incremental()
            .expect("a mine keeps its incremental context")
            .into_parts();
        let state = MiningState {
            graph,
            cache,
            memo: Arc::new(memo),
        };
        (state, result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::delta::GraphDelta;
    use scpm_graph::figure1::{figure1, paper_vertex};

    #[test]
    fn subset_and_intersection_helpers() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
        assert_eq!(sorted_intersection(&[1, 2, 4], &[2, 3, 4]), vec![2, 4]);
        assert_eq!(sorted_intersection(&[1], &[2]), Vec::<AttrId>::new());
    }

    #[test]
    fn attribute_insertions_dirty_their_attribute() {
        let g = figure1();
        // Give vertex 1 (paper label) attribute B: every set containing B
        // is dirty, everything else clean.
        let applied = GraphDelta::parse(&format!("a {} B\n", paper_vertex(1)))
            .unwrap()
            .apply(&g)
            .unwrap();
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let a = applied.graph.attr_id("A").unwrap();
        let b = applied.graph.attr_id("B").unwrap();
        let c = applied.graph.attr_id("C").unwrap();
        assert!(dirty.is_dirty(&[b]));
        assert!(dirty.is_dirty(&[a, b]));
        assert!(!dirty.is_dirty(&[a]));
        assert!(!dirty.is_dirty(&[c]));
        assert!(!dirty.is_dirty(&[a, c]));
        assert_eq!(dirty.dirty_attr_ids(), vec![b]);
    }

    #[test]
    fn edge_insertions_dirty_the_endpoint_attribute_overlap() {
        let g = figure1();
        // Edge {1, 5} (paper labels): F(1) = {A,C}, F(5) = {A,E} — the
        // overlap is {A}, so exactly the subsets of {A} are dirty.
        let applied = GraphDelta::parse(&format!("e {} {}\n", paper_vertex(1), paper_vertex(5)))
            .unwrap()
            .apply(&g)
            .unwrap();
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let a = applied.graph.attr_id("A").unwrap();
        let b = applied.graph.attr_id("B").unwrap();
        let c = applied.graph.attr_id("C").unwrap();
        assert!(dirty.is_dirty(&[a]));
        assert!(!dirty.is_dirty(&[a, b]));
        assert!(!dirty.is_dirty(&[a, c]));
        assert!(!dirty.is_dirty(&[b]));
        assert!(dirty.dirty_attr_ids().is_empty());
        assert_eq!(dirty.num_edge_caps(), 1);
    }

    #[test]
    fn isolated_vertices_dirty_nothing() {
        let g = figure1();
        let applied = GraphDelta::parse("v 3\ne 11 12\n")
            .unwrap()
            .apply(&g)
            .unwrap();
        // The new vertices have no attributes: F(11) ∩ F(12) = ∅.
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        assert!(dirty.is_empty());
        for a in applied.graph.attributes() {
            assert!(!dirty.is_dirty(&[a]));
        }
    }

    #[test]
    fn noop_deltas_dirty_nothing() {
        let g = figure1();
        let applied = GraphDelta::parse("e 0 1\na 0 A\n")
            .unwrap()
            .apply(&g)
            .unwrap();
        assert!(applied.is_noop());
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        assert!(dirty.is_empty());
    }

    #[test]
    fn union_of_step_regions_covers_every_step() {
        // Step 1 wires paper vertices 5 and 8 (F(5) ∩ F(8) = {A}); step 2
        // gives 5 attribute B and a new attribute X. {B} is clean after
        // step 1 but dirty in the union, as is every set step 1 dirtied.
        let g = figure1();
        let (u, v) = (paper_vertex(5), paper_vertex(8));
        let step1 = GraphDelta::parse(&format!("e {u} {v}\n"))
            .unwrap()
            .apply(&g)
            .unwrap();
        let step2 = GraphDelta::parse(&format!("a {u} B X\n"))
            .unwrap()
            .apply(&step1.graph)
            .unwrap();
        let first = DirtySet::from_delta(&step1.graph, &step1);
        let second = DirtySet::from_delta(&step2.graph, &step2);
        let a = g.attr_id("A").unwrap();
        let b = g.attr_id("B").unwrap();
        let c = g.attr_id("C").unwrap();
        let x = step2.graph.attr_id("X").unwrap();
        assert!(!first.is_dirty(&[b]));

        let mut union = DirtySet::clean(g.num_attributes());
        assert!(union.is_empty());
        union.union_with(&first);
        union.union_with(&second);
        for set in [vec![a], vec![b], vec![a, b], vec![x], vec![b, x]] {
            assert!(union.is_dirty(&set), "{set:?}");
            assert_eq!(
                union.is_dirty(&set),
                first.is_dirty(&set) || second.is_dirty(&set)
            );
        }
        assert!(!union.is_dirty(&[c]));
        assert!(!union.is_dirty(&[a, c]));
        assert_eq!(union.dirty_attr_ids(), vec![b, x]);
        assert_eq!(union.num_edge_caps(), 1, "the cap {{A}} is kept once");
        union.union_with(&first);
        assert_eq!(union.num_edge_caps(), 1);

        union.union_with(&DirtySet::all());
        assert!(union.is_dirty(&[c]));
    }

    #[test]
    fn recording_context_marks_everything_dirty() {
        let ctx = IncrementalCtx::recording();
        assert!(ctx.dirty.is_dirty(&[0]));
        assert!(ctx.replayable(&[0], true).is_none());
        ctx.store(
            &[0],
            EvalRecord {
                support: 1,
                epsilon: 0.0,
                covered: vec![],
                coverage_stats: SearchStats::default(),
                sub_built: false,
                topk: None,
            },
        );
        let (memo, stats) = ctx.into_parts();
        assert_eq!(memo.len(), 1);
        assert_eq!(stats.reused, 0);
    }

    #[test]
    fn update_context_replays_only_clean_sets_with_stable_parents() {
        let mut memo = EvalMemo::new();
        let record = EvalRecord {
            support: 4,
            epsilon: 0.5,
            covered: vec![1, 2],
            coverage_stats: SearchStats::default(),
            sub_built: true,
            topk: None,
        };
        memo.insert(vec![0], record.clone());
        memo.insert(vec![1], record);
        let dirty = DirtySet {
            all_dirty: false,
            dirty_attrs: vec![false, true],
            edge_caps: vec![],
        };
        let ctx = IncrementalCtx::update(Arc::new(memo), dirty);
        assert!(ctx.replayable(&[0], true).is_some());
        assert!(ctx.replayable(&[0], false).is_none(), "unstable parents");
        assert!(ctx.replayable(&[1], true).is_none(), "dirty attribute");
        assert!(ctx.replayable(&[2], true).is_none(), "no record");
    }
}
