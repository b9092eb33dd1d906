//! The traced run: in-memory spans around the benchmark's calls into each
//! layer, and a benchmark-side lattice driver that re-runs Algorithms 2–3
//! through public calls so the mining layers can be timed one by one.
//!
//! Spans nest by an explicit parent id. A layer's self time is its span's
//! duration minus its children's. Three layers run only inside
//! `Miner::run_with` (Theorem-3 peeling, the survivor extraction and the
//! adjacency packing); the driver replays each public call on the same
//! input right after the search, records the replay as a child of the
//! search span marked `replayed`, and so subtracts it from the search's
//! self time. Replays are extra work, reported as `trace.replay_s`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use scpm_core::{
    AnalyticalModel, AttributeSetReport, CorrelationEngine, DirtySet, EvalMemo, EvalRecord,
    NullModelCache, Pattern, ScpmParams, ScpmResult, ScpmStats,
};
use scpm_graph::csr::intersect_into;
use scpm_graph::{
    AttrId, AttributedGraph, BitAdjacency, CsrGraph, InducedSubgraph, MappedSnapshot, VertexBitset,
    VertexId,
};
use scpm_itemset::Tidset;
use scpm_quasiclique::{
    reduce_vertices, EngineScratch, Miner, MiningMode, Representation, SearchStats,
    BITADJ_MAX_VERTICES,
};

use crate::util::{pearson, Metrics};

/// The parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    /// Nanoseconds since the tracer started.
    start: u64,
    dur: u64,
    parent: u32,
    /// A replay of a call the library makes internally (extra work).
    replayed: bool,
}

/// Spans kept in memory; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::exit`].
    fn enter(&mut self, layer: &'static str, parent: u32) -> u32 {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start,
            dur: 0,
            parent,
            replayed: false,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` and returns its duration in seconds.
    fn exit(&mut self, id: u32) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.dur = now - span.start;
        span.dur as f64 * 1e-9
    }

    /// Times `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Times `f` as a replayed child of `parent`.
    fn replay<T>(&mut self, layer: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, parent);
        let out = f();
        self.exit(id);
        self.spans[id as usize].replayed = true;
        out
    }

    /// Each span's self time in seconds: its duration minus its children's.
    /// Replayed spans are children of the search they stand in for, so they
    /// are subtracted from it.
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur.saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Per layer: (self seconds, calls).
    pub fn layers(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.layer).or_default();
            e.0 += self_s;
            e.1 += 1;
        }
        out
    }

    /// Seconds spent in replayed spans.
    pub fn replay_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.replayed)
            .map(|s| s.dur as f64 * 1e-9)
            .sum()
    }

    /// Longest single span of `layer`, self time, in seconds.
    pub fn max_self(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, self_s)| self_s)
            .fold(0.0, f64::max)
    }

    /// Writes every span as a TSV row (`id parent layer start_ns dur_ns
    /// replayed`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tlayer\tstart_ns\tdur_ns\treplayed")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.start, s.dur, s.replayed as u8
            )?;
        }
        w.flush()
    }
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    /// Σdeg (in the source graph) of every extracted vertex set.
    pub extract_sum_deg: u64,
    pub peel_in: u64,
    pub peel_out: u64,
    pub coverage_qc_nodes: u64,
    pub coverage_kernel_ops: u64,
    pub coverage_edge_tests: u64,
    pub topk_qc_nodes: u64,
    pub reused: u64,
    pub reevaluated: u64,
    pub live_kernel_ops: u64,
    /// Per coverage search: (self seconds, kernel_ops, edge_tests).
    pub coverage_calls: Vec<(f64, f64, f64)>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// A lattice node queued for extension (the driver's twin of the
/// library's enumeration entry).
struct Entry {
    attrs: Vec<AttrId>,
    tids: Tidset,
    cover: Vec<VertexId>,
    sub: Option<Arc<InducedSubgraph>>,
    stable: bool,
}

/// Subgraphs larger than this are not kept for child projection (the
/// library's retention cap; a different cap changes timing, not results).
const RETAIN_MAX_VERTICES: usize = 1 << 14;

/// Re-runs SCPM (DFS over the attribute lattice with Theorem 3–5 pruning)
/// through public calls, timing each layer. With an update context it also
/// replays clean memo records, like an incremental re-mine.
pub struct Driver<'g, 't> {
    graph: &'g AttributedGraph,
    params: ScpmParams,
    model: AnalyticalModel,
    cache: Arc<NullModelCache>,
    engine: CorrelationEngine<'g>,
    scratch: EngineScratch,
    keep: VertexBitset,
    update: Option<(Arc<EvalMemo>, DirtySet)>,
    memo: EvalMemo,
    result: ScpmResult,
    counts: Counts,
    t: &'t mut Tracer,
    parent: u32,
}

impl<'g, 't> Driver<'g, 't> {
    /// A driver whose spans become children of `parent`.
    pub fn new(
        graph: &'g AttributedGraph,
        params: ScpmParams,
        t: &'t mut Tracer,
        parent: u32,
    ) -> Self {
        let cache = Arc::new(NullModelCache::new());
        let model =
            AnalyticalModel::new(graph.graph(), &params.quasi_clique).with_cache(cache.clone());
        let engine = CorrelationEngine::new(
            graph,
            params.quasi_clique,
            params.search_order,
            params.qc_prune,
            params.repr,
            params.prune.vertex_pruning,
        );
        Driver {
            graph,
            params,
            model,
            cache,
            engine,
            scratch: EngineScratch::new(),
            keep: VertexBitset::empty(0),
            update: None,
            memo: EvalMemo::new(),
            result: ScpmResult::default(),
            counts: Counts::default(),
            t,
            parent,
        }
    }

    /// Replays records of `memo` outside `dirty` (an incremental update).
    pub fn with_update(mut self, memo: Arc<EvalMemo>, dirty: DirtySet) -> Self {
        self.update = Some((memo, dirty));
        self
    }

    /// Runs the whole lattice and returns the result, the memo for the
    /// next generation, and the work counts.
    pub fn run(mut self) -> (ScpmResult, EvalMemo, Counts) {
        let mut level1 = Vec::new();
        for a in self.graph.attributes() {
            if self.graph.support(a) < self.params.sigma_min {
                continue;
            }
            let tids = Tidset::from_sorted(self.graph.vertices_with(a).to_vec());
            if let Some(e) = self.evaluate(vec![a], tids, None, None, true) {
                level1.push(e);
            }
        }
        self.enumerate(&level1);
        self.counts.cache_hits = self.cache.hits();
        self.counts.cache_misses = self.cache.misses();
        (self.result, self.memo, self.counts)
    }

    fn enumerate(&mut self, class: &[Entry]) {
        let mut cover_buf = Vec::new();
        for i in 0..class.len() {
            let mut next = Vec::new();
            for j in (i + 1)..class.len() {
                if let Some(e) = self.extend(&class[i], &class[j], &mut cover_buf) {
                    next.push(e);
                }
            }
            if !next.is_empty() {
                self.enumerate(&next);
            }
        }
    }

    fn extend(
        &mut self,
        base: &Entry,
        sib: &Entry,
        cover_buf: &mut Vec<VertexId>,
    ) -> Option<Entry> {
        let sigma = self.params.sigma_min;
        let vertex_pruning = self.params.prune.vertex_pruning;
        let tids = self.t.span("tidset", self.parent, || {
            let tids = base.tids.intersect_min_support(&sib.tids, sigma);
            if tids.is_some() && vertex_pruning {
                intersect_into(&base.cover, &sib.cover, cover_buf);
            }
            tids
        });
        let Some(tids) = tids else {
            self.result.stats.pruned_support += 1;
            return None;
        };
        let mut attrs = base.attrs.clone();
        attrs.push(*sib.attrs.last().expect("non-empty attribute set"));
        let cover = vertex_pruning.then_some(cover_buf.as_slice());
        self.evaluate(
            attrs,
            tids,
            cover,
            base.sub.as_deref(),
            base.stable && sib.stable,
        )
    }

    /// The mining vertex set: `V(S)`, restricted to the parents' cover
    /// under Theorem 3.
    fn mining_set(&mut self, tids: &Tidset, cover: Option<&[VertexId]>) -> Vec<VertexId> {
        match cover {
            Some(cover) => self.t.span("tidset", self.parent, || {
                let mut out = Vec::with_capacity(cover.len().min(tids.support()));
                intersect_into(tids.as_slice(), cover, &mut out);
                out
            }),
            None => tids.as_slice().to_vec(),
        }
    }

    /// `G[mining]`, projected out of the parent's subgraph when one is
    /// held, else extracted from the global graph.
    fn subgraph(
        &mut self,
        mining: &[VertexId],
        parent: Option<&InducedSubgraph>,
    ) -> InducedSubgraph {
        if let Some(parent) = parent {
            let keep = &mut self.keep;
            let projected = self.t.span("project", self.parent, || {
                keep.reset(parent.num_vertices());
                let (mut i, mut j, mut matched) = (0, 0, 0);
                let originals = &parent.original;
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
                (matched == mining.len()).then(|| parent.project(keep))
            });
            if let Some(sub) = projected {
                return sub;
            }
        }
        let g = self.graph.graph();
        self.counts.extract_sum_deg += mining.iter().map(|&v| g.degree(v) as u64).sum::<u64>();
        self.t.span("extract", self.parent, || {
            InducedSubgraph::extract(g, mining)
        })
    }

    /// Replays the calls `Miner::run_with` makes before searching `g`:
    /// peeling, survivor extraction, adjacency packing. Returns the replayed
    /// seconds.
    fn replay_internals(&mut self, g: &CsrGraph, parent: u32) -> f64 {
        let first = self.t.spans.len();
        self.replay_steps(g, parent);
        self.t.spans[first..]
            .iter()
            .map(|s| s.dur as f64 * 1e-9)
            .sum()
    }

    fn replay_steps(&mut self, g: &CsrGraph, parent: u32) {
        let cfg = self.params.quasi_clique;
        let survivors = self.t.replay("peel", parent, || reduce_vertices(g, &cfg));
        self.counts.peel_in += g.num_vertices() as u64;
        self.counts.peel_out += survivors.len() as u64;
        if survivors.len() < cfg.min_size {
            return;
        }
        self.counts.extract_sum_deg += survivors.iter().map(|&v| g.degree(v) as u64).sum::<u64>();
        let sub = self.t.replay("extract", parent, || {
            InducedSubgraph::extract(g, &survivors)
        });
        if self.params.repr != Representation::Slice && sub.num_vertices() <= BITADJ_MAX_VERTICES {
            self.t
                .replay("pack", parent, || BitAdjacency::from_csr(&sub.graph));
        }
    }

    fn evaluate(
        &mut self,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        parent_sub: Option<&InducedSubgraph>,
        parents_stable: bool,
    ) -> Option<Entry> {
        let record = match &self.update {
            Some((memo, dirty)) if parents_stable && !dirty.is_dirty(&attrs) => {
                memo.get(&attrs).cloned()
            }
            _ => None,
        };
        if let Some(record) = record {
            return self.replay_record(attrs, tids, parent_cover, record);
        }
        let p = self.params.clone();
        let support = tids.support();
        let mut covered = Vec::new();
        let mut stats = SearchStats::default();
        let mut sub = None;
        if support > 0 {
            let mining = self.mining_set(&tids, parent_cover);
            if mining.len() >= p.quasi_clique.min_size {
                let s = Arc::new(self.subgraph(&mining, parent_sub));
                let span = self.t.enter("coverage", self.parent);
                let outcome = Miner::new(&s.graph, p.quasi_clique)
                    .with_order(p.search_order)
                    .with_prune(p.qc_prune)
                    .with_repr(p.repr)
                    .run_with(MiningMode::Coverage, &mut self.scratch);
                let self_s = self.t.exit(span) - self.replay_internals(&s.graph, span);
                self.counts.coverage_calls.push((
                    self_s,
                    outcome.stats.kernel_ops as f64,
                    outcome.stats.edge_tests as f64,
                ));
                covered = outcome.covered.iter().map(|&l| s.to_original(l)).collect();
                stats = outcome.stats;
                sub = Some(s);
            }
        }
        let epsilon = if support == 0 {
            0.0
        } else {
            covered.len() as f64 / support as f64
        };
        self.counts.coverage_qc_nodes += stats.nodes_visited;
        self.counts.coverage_kernel_ops += stats.kernel_ops;
        self.counts.coverage_edge_tests += stats.edge_tests;
        self.result.stats.attribute_sets_examined += 1;
        self.result.stats.qc_nodes_coverage += stats.nodes_visited;
        add_search(&mut self.result.stats, &stats);
        let model = &self.model;
        let delta_lb = self.t.span("nullmodel", self.parent, || {
            model.normalize(epsilon, support)
        });
        let qualified = epsilon >= p.eps_min && delta_lb >= p.delta_min;
        let mut live_ops = stats.kernel_ops;
        let mut topk = None;
        if attrs.len() >= p.min_attrs {
            self.result.reports.push(AttributeSetReport {
                attrs: attrs.clone(),
                support,
                covered: covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                self.result.stats.attribute_sets_qualified += 1;
                if let Some(s) = sub.as_deref() {
                    let (cliques, tk) = self.top_k_on(s);
                    live_ops += tk.kernel_ops;
                    self.push_patterns(&attrs, &cliques, &tk);
                    topk = Some((cliques, tk));
                }
            }
        } else if qualified {
            self.result.stats.attribute_sets_qualified += 1;
        }
        // Only an update records the memo the next update replays from.
        if self.update.is_some() {
            self.counts.reevaluated += 1;
            self.counts.live_kernel_ops += live_ops;
            self.memo.insert(
                attrs.clone(),
                EvalRecord {
                    support,
                    epsilon,
                    covered: covered.clone(),
                    coverage_stats: stats,
                    sub_built: sub.is_some(),
                    topk,
                },
            );
        }
        if !self.may_extend(attrs.len(), covered.len()) {
            return None;
        }
        Some(Entry {
            attrs,
            tids,
            cover: covered,
            sub: sub.filter(|s| s.num_vertices() <= RETAIN_MAX_VERTICES),
            stable: false,
        })
    }

    /// The replay twin of [`Driver::evaluate`] for a clean memoized set.
    fn replay_record(
        &mut self,
        attrs: Vec<AttrId>,
        tids: Tidset,
        parent_cover: Option<&[VertexId]>,
        record: EvalRecord,
    ) -> Option<Entry> {
        let p = self.params.clone();
        let support = tids.support();
        self.result.stats.attribute_sets_examined += 1;
        self.result.stats.qc_nodes_coverage += record.coverage_stats.nodes_visited;
        add_search(&mut self.result.stats, &record.coverage_stats);
        let model = &self.model;
        let epsilon = record.epsilon;
        let delta_lb = self.t.span("nullmodel", self.parent, || {
            model.normalize(epsilon, support)
        });
        let qualified = epsilon >= p.eps_min && delta_lb >= p.delta_min;
        let mut topk = record.topk.clone();
        if attrs.len() >= p.min_attrs {
            self.result.reports.push(AttributeSetReport {
                attrs: attrs.clone(),
                support,
                covered: record.covered.len(),
                epsilon,
                delta_lb,
                qualified,
            });
            if qualified {
                self.result.stats.attribute_sets_qualified += 1;
                if record.sub_built {
                    let (cliques, tk) = match topk.take() {
                        Some(found) => found,
                        None => {
                            let engine = &self.engine;
                            let (cliques, tk) = self.t.span("topk", self.parent, || {
                                engine.top_k(tids.as_slice(), parent_cover, p.k)
                            });
                            self.counts.topk_qc_nodes += tk.nodes_visited;
                            (cliques, tk)
                        }
                    };
                    self.push_patterns(&attrs, &cliques, &tk);
                    topk = Some((cliques, tk));
                }
            }
        } else if qualified {
            self.result.stats.attribute_sets_qualified += 1;
        }
        self.counts.reused += 1;
        let covered = record.covered.clone();
        self.memo
            .insert(attrs.clone(), EvalRecord { topk, ..record });
        if !self.may_extend(attrs.len(), covered.len()) {
            return None;
        }
        Some(Entry {
            attrs,
            tids,
            cover: covered,
            sub: None,
            stable: true,
        })
    }

    /// Theorems 4 and 5: whether a set with `covered` vertices may be
    /// extended.
    fn may_extend(&mut self, len: usize, covered: usize) -> bool {
        let p = &self.params;
        if len >= p.max_attrs {
            return false;
        }
        let (covered, sigma_min) = (covered as f64, p.sigma_min as f64);
        if p.prune.eps_pruning && covered < p.eps_min * sigma_min {
            self.result.stats.pruned_eps_bound += 1;
            return false;
        }
        if p.prune.delta_pruning {
            let model = &self.model;
            let floor = self
                .t
                .span("nullmodel", self.parent, || model.expected(p.sigma_min));
            if covered < p.delta_min * floor * sigma_min {
                self.result.stats.pruned_delta_bound += 1;
                return false;
            }
        }
        true
    }

    fn top_k_on(
        &mut self,
        sub: &InducedSubgraph,
    ) -> (Vec<scpm_quasiclique::QuasiClique>, SearchStats) {
        let (engine, k) = (&self.engine, self.params.k);
        let span = self.t.enter("topk", self.parent);
        let out = engine.top_k_on(sub, k);
        self.t.exit(span);
        self.replay_internals(&sub.graph, span);
        self.counts.topk_qc_nodes += out.1.nodes_visited;
        out
    }

    fn push_patterns(
        &mut self,
        attrs: &[AttrId],
        cliques: &[scpm_quasiclique::QuasiClique],
        tk: &SearchStats,
    ) {
        self.result.stats.qc_nodes_topk += tk.nodes_visited;
        add_search(&mut self.result.stats, tk);
        for clique in cliques {
            self.result.patterns.push(Pattern {
                attrs: attrs.to_vec(),
                clique: clique.clone(),
            });
        }
    }
}

/// Adds a search's work counters to a run's, as the library's drivers do.
fn add_search(st: &mut ScpmStats, s: &SearchStats) {
    st.qc_edge_tests += s.edge_tests;
    st.qc_kernel_ops += s.kernel_ops;
    st.qc_fused_ops += s.fused_ops;
    st.qc_blocks_skipped += s.blocks_skipped;
    st.qc_probes_elided += s.probes_elided;
    st.qc_batch_ops += s.batch_ops;
}

/// The layers timed inside the traced section, so each traced run emits the
/// same names (a layer a workload never enters reads 0).
pub const LAYERS: [&str; 14] = [
    "tidset",
    "extract",
    "project",
    "peel",
    "pack",
    "coverage",
    "topk",
    "nullmodel",
    "delta",
    "dirty",
    "journal",
    "checkpoint",
    "catalog",
    "render",
];

/// Sums driver counts across runs.
pub fn add_counts(acc: &mut Counts, c: Counts) {
    acc.extract_sum_deg += c.extract_sum_deg;
    acc.peel_in += c.peel_in;
    acc.peel_out += c.peel_out;
    acc.coverage_qc_nodes += c.coverage_qc_nodes;
    acc.coverage_kernel_ops += c.coverage_kernel_ops;
    acc.coverage_edge_tests += c.coverage_edge_tests;
    acc.topk_qc_nodes += c.topk_qc_nodes;
    acc.reused += c.reused;
    acc.reevaluated += c.reevaluated;
    acc.live_kernel_ops += c.live_kernel_ops;
    acc.coverage_calls.extend(c.coverage_calls);
    acc.cache_hits += c.cache_hits;
    acc.cache_misses += c.cache_misses;
}

/// Turns spans and counts into the per-layer metrics. `wall_s` is the
/// traced wall time of the measured section, `untraced_s` the same work
/// without tracing; `per` divides totals (runs of the measured section).
pub fn layer_metrics(
    m: &mut Metrics,
    t: &Tracer,
    c: &Counts,
    wall_s: f64,
    untraced_s: f64,
    per: f64,
) {
    let layers = t.layers();
    let busy = |name: &str| layers.get(name).map_or(0.0, |l| l.0);
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.1) as f64;
    let replay_s = t.replay_s();
    // The trace's replays are work the untraced run never does; shares are
    // of the wall time without them.
    let attributable = (wall_s - replay_s).max(1e-12);
    let mut attributed = 0.0;
    for layer in LAYERS {
        let b = busy(layer);
        attributed += b;
        m.set(&busy_name(layer), b / per, "s");
        m.set(&format!("{layer}.share"), b / attributable, "ratio");
    }
    for layer in [
        "tidset",
        "extract",
        "project",
        "pack",
        "coverage",
        "topk",
        "checkpoint",
    ] {
        m.set(&format!("{layer}.calls"), calls(layer) / per, "count");
    }
    m.set(
        "residual.share",
        (attributable - attributed) / attributable,
        "ratio",
    );
    m.set("trace.wall_s", wall_s / per, "s");
    m.set("trace.untraced_s", untraced_s / per, "s");
    m.set("trace.overhead_s", (wall_s - untraced_s) / per, "s");
    m.set("trace.replay_s", replay_s / per, "s");
    m.set("trace.spans", t.spans.len() as f64 / per, "count");

    m.set("extract.sum_deg", c.extract_sum_deg as f64 / per, "count");
    m.set(
        "extract.ns_per_deg",
        if c.extract_sum_deg == 0 {
            0.0
        } else {
            busy("extract") * 1e9 / c.extract_sum_deg as f64
        },
        "ns",
    );
    m.set(
        "peel.survivor_ratio",
        if c.peel_in == 0 {
            0.0
        } else {
            c.peel_out as f64 / c.peel_in as f64
        },
        "ratio",
    );
    m.set("coverage.max_call_s", t.max_self("coverage"), "s");
    m.set(
        "coverage.qc_nodes",
        c.coverage_qc_nodes as f64 / per,
        "count",
    );
    m.set(
        "coverage.kernel_ops",
        c.coverage_kernel_ops as f64 / per,
        "count",
    );
    m.set(
        "coverage.edge_tests",
        c.coverage_edge_tests as f64 / per,
        "count",
    );
    let secs: Vec<f64> = c.coverage_calls.iter().map(|x| x.0).collect();
    let ops: Vec<f64> = c.coverage_calls.iter().map(|x| x.1).collect();
    let tests: Vec<f64> = c.coverage_calls.iter().map(|x| x.2).collect();
    m.set("coverage.kernel_ops_r", pearson(&ops, &secs), "r");
    m.set("coverage.edge_tests_r", pearson(&tests, &secs), "r");
    m.set("topk.qc_nodes", c.topk_qc_nodes as f64 / per, "count");
    let lookups = c.cache_hits + c.cache_misses;
    m.set(
        "nullmodel.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    m.set("replay.reused", c.reused as f64 / per, "count");
    m.set("replay.reevaluated", c.reevaluated as f64 / per, "count");
    let evaluated = c.reused + c.reevaluated;
    m.set(
        "replay.reuse_ratio",
        if evaluated == 0 {
            0.0
        } else {
            c.reused as f64 / evaluated as f64
        },
        "ratio",
    );
    m.set(
        "replay.live_kernel_ops",
        c.live_kernel_ops as f64 / per,
        "count",
    );
}

/// The busy-time metric of a layer; the update-path layers use the names
/// of the step they time.
fn busy_name(layer: &str) -> String {
    match layer {
        "delta" => "delta.apply_s".into(),
        "dirty" => "dirty.build_s".into(),
        "journal" => "journal.append_s".into(),
        "catalog" => "catalog.build_s".into(),
        _ => format!("{layer}.busy_s"),
    }
}

/// The layer with the largest busy time in the traced section.
pub fn dominant(m: &Metrics) -> &'static str {
    LAYERS
        .into_iter()
        .max_by(|a, b| {
            let get = |l: &str| m.0.get(&busy_name(l)).map_or(0.0, |v| v.0);
            get(a).total_cmp(&get(b))
        })
        .unwrap_or("none")
}

/// Segments `mine_mapped` packs the frequent attributes into (its greedy
/// rule, recomputed from public snapshot calls).
pub fn segment_count(snap: &MappedSnapshot, sigma_min: usize, budget: usize) -> usize {
    let (Ok(offsets), n) = (snap.csr_offsets(), snap.num_vertices()) else {
        return 0;
    };
    let cost = |v: VertexId| 8 * ((offsets[v as usize + 1] - offsets[v as usize]) as usize + 1);
    let mut member = vec![false; n];
    let (mut segments, mut current, mut current_cost) = (0usize, 0usize, 0usize);
    for a in 0..snap.num_attributes() as u32 {
        let Ok(vs) = snap.vertices_with(a) else {
            continue;
        };
        if vs.len() < sigma_min {
            continue;
        }
        let added: usize = vs
            .iter()
            .filter(|&&v| !member[v as usize])
            .map(|&v| cost(v))
            .sum();
        if current > 0 && current_cost + added > budget {
            segments += 1;
            member.iter_mut().for_each(|m| *m = false);
            current = 0;
            current_cost = vs.iter().map(|&v| cost(v)).sum();
        } else {
            current_cost += added;
        }
        for &v in vs {
            member[v as usize] = true;
        }
        current += 1;
    }
    segments + usize::from(current > 0)
}
