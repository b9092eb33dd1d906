//! Out-of-core mining over a zero-copy snapshot: the attribute lattice is
//! sharded into **segments** of level-1 roots so only one segment's
//! working subgraph is resident at a time.
//!
//! [`mine_mapped`] reproduces [`Scpm::run`](crate::Scpm::run) bit-for-bit
//! (same reports, same patterns, same counters — only `elapsed` is its own
//! wall clock) while reading the graph through a [`MappedSnapshot`] instead
//! of a heap [`AttributedGraph`](scpm_graph::AttributedGraph). The trick is
//! that every subgraph the search can ever extract under a root attribute
//! `a` lies inside `V(a) ∩ C`, where `C` is the `z`-core of the whole
//! graph (`z = ⌈γ(min_size−1)⌉`; Theorem 3 lifted to the whole graph, see
//! [`crate::correlation`]). So a **working graph** holding the edges among
//! `W = ⋃ (V(a) ∩ C)` over the segment's roots answers every adjacency
//! query of the segment's entire subtree exactly as the full graph would.
//!
//! The driver runs in four layers:
//!
//! 0. **Core** — `C` is peeled once straight from the mapped CSR
//!    ([`scpm_graph::kcore::peel_to_core`]): one bit and one degree word
//!    per vertex, no copy of the adjacency. A corrupt CSR surfaces as a
//!    [`SnapshotError`].
//! 1. **Pack** — frequent attributes (support ≥ σmin), ascending, are
//!    greedily packed into segments; an attribute's cost is the CSR
//!    footprint `8·(deg(v)+1)` bytes of each vertex of `V(a) ∩ C` it
//!    *newly* adds to the segment's working set (vertices outside `C` are
//!    never extracted, so they cost nothing; the degree is the full
//!    graph's, an upper bound on the working graph's). A segment always
//!    takes at least one root, so a hub attribute larger than the budget
//!    forms a singleton segment. Segments are consecutive runs of the
//!    frequent attributes.
//! 2. **Phase 1 (descending segments)** — each root's level-1 evaluation
//!    runs on its segment's working graph into a private scratch result;
//!    its cover `K_a` is spilled to a temp file and only an
//!    `attr → (offset, len)` index plus a survival flag stay resident.
//!    Descending order guarantees that by the time a root is *extended*,
//!    every later sibling's cover is already on disk.
//! 3. **Phase 2 (roots ascending)** — each surviving root is extended with
//!    its surviving siblings `b > a`, materializing one sibling
//!    pseudo-entry at a time (tidset from the mapped inverted index, cover
//!    re-read from the spill) via
//!    [`Scpm::extend_pair_refs`](crate::Scpm); surviving children recurse
//!    through the ordinary in-memory enumeration, which stays inside the
//!    working graph.
//!
//! Final assembly concatenates the per-root scratches in the canonical
//! order of the in-memory run — all level-1 reports ascending, then each
//! root's subtree ascending — and sums counters with
//! [`ScpmStats::merge`](crate::ScpmStats::merge).
//!
//! ε is normalized against the **full** graph's null model (degree
//! histogram straight from the mapped CSR offsets), shared across
//! segments through one [`NullModelCache`]; see [`Scpm::with_model`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use scpm_graph::attributed::{AttrId, AttributedGraphBuilder};
use scpm_graph::csr::VertexId;
use scpm_graph::kcore::peel_to_core;
use scpm_graph::VertexBitset;
use scpm_graph::{DegreeDistribution, MappedSnapshot, SnapshotError};
use scpm_itemset::Tidset;

use crate::algorithm::{EnumEntry, Scpm};
use crate::nullmodel::{AnalyticalModel, NullModelCache};
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;

/// Disambiguates spill files of concurrent runs inside one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Append-only spill of level-1 covers, read back by `(offset, len)`.
struct CoverSpill {
    file: File,
    len: u64,
    path: PathBuf,
}

impl CoverSpill {
    fn create() -> std::io::Result<CoverSpill> {
        let path = std::env::temp_dir().join(format!(
            "scpm-segment-covers-{}-{}.spill",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(CoverSpill { file, len: 0, path })
    }

    /// Appends a cover, returning its `(offset, len)` handle.
    fn push(&mut self, cover: &[VertexId]) -> std::io::Result<(u64, u32)> {
        let offset = self.len;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = Vec::with_capacity(cover.len() * 4);
        for v in cover {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.file.write_all(&buf)?;
        self.len += buf.len() as u64;
        Ok((offset, cover.len() as u32))
    }

    /// Reads a cover back by its handle.
    fn read(&mut self, handle: (u64, u32)) -> std::io::Result<Vec<VertexId>> {
        let (offset, count) = handle;
        let mut buf = vec![0u8; count as usize * 4];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut buf)?;
        Ok(buf
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

impl Drop for CoverSpill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Greedily packs the frequent attributes (ascending) into segments whose
/// working-set CSR footprint stays under `budget_bytes`, costing only the
/// vertices of each root's tidset that lie in `core`. Every segment holds
/// at least one root.
fn pack_segments(
    snap: &MappedSnapshot,
    frequent: &[AttrId],
    core: &VertexBitset,
    budget_bytes: usize,
) -> Result<Vec<Vec<AttrId>>, SnapshotError> {
    let offsets = snap.csr_offsets()?;
    let cost_of = |v: VertexId| -> usize {
        let v = v as usize;
        8 * ((offsets[v + 1] - offsets[v]) as usize + 1)
    };
    let mut segments: Vec<Vec<AttrId>> = Vec::new();
    let mut member = VertexBitset::empty(snap.num_vertices());
    let mut current: Vec<AttrId> = Vec::new();
    let mut current_cost = 0usize;
    for &a in frequent {
        let in_core = || {
            snap.vertices_with(a)
                .map(|vs| vs.iter().copied().filter(|&v| core.contains(v)))
        };
        let added: usize = in_core()?
            .filter(|&v| !member.contains(v))
            .map(cost_of)
            .sum();
        if !current.is_empty() && current_cost + added > budget_bytes {
            segments.push(std::mem::take(&mut current));
            member.reset(snap.num_vertices());
            current_cost = 0;
        }
        // Recosted against the now-empty working set after a cut.
        for v in in_core()? {
            if !member.contains(v) {
                member.insert(v);
                current_cost += cost_of(v);
            }
        }
        current.push(a);
    }
    if !current.is_empty() {
        segments.push(current);
    }
    Ok(segments)
}

/// Builds a segment's working graph: every vertex of the snapshot, plus
/// every edge between two vertices of `W = ⋃ V(a) ∩ core` over the
/// segment's roots — the only vertices any mining set of the segment's
/// subtree contains. No attributes are interned — the mining engine reads
/// attribute data from entries, never from the working graph.
fn working_graph(
    snap: &MappedSnapshot,
    roots: &[AttrId],
    core: &VertexBitset,
) -> Result<scpm_graph::AttributedGraph, SnapshotError> {
    let n = snap.num_vertices();
    let mut member = VertexBitset::empty(n);
    for &a in roots {
        for &v in snap.vertices_with(a)? {
            if core.contains(v) {
                member.insert(v);
            }
        }
    }
    let mut b = AttributedGraphBuilder::new(n);
    for v in member.iter() {
        for &u in snap.neighbors(v)? {
            // Keep each edge once, from its smaller endpoint.
            if v < u && member.contains(u) {
                b.add_edge(v, u);
            }
        }
    }
    Ok(b.build())
}

/// Mines a mapped snapshot with bounded working-graph memory, reproducing
/// [`Scpm::run`](crate::Scpm::run) on the decoded graph bit-for-bit
/// (reports, patterns and every counter except the wall-clock `elapsed`).
///
/// `segment_budget_bytes` caps the approximate CSR footprint of each
/// segment's working graph — smaller budgets mean more, smaller segments
/// (a single hub attribute may still exceed the budget on its own; it then
/// forms a singleton segment, which is the floor of this scheme).
///
/// ```
/// use scpm_core::segments::mine_mapped;
/// use scpm_core::{Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
/// use scpm_graph::{encode, MappedSnapshot};
///
/// let g = figure1();
/// let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
/// let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
/// let out_of_core = mine_mapped(&snap, params.clone(), 256).unwrap();
/// let in_memory = Scpm::new(&g, params).run();
/// assert_eq!(
///     format!("{:?}", out_of_core.reports),
///     format!("{:?}", in_memory.reports),
/// );
/// assert_eq!(out_of_core.patterns.len(), in_memory.patterns.len());
/// ```
pub fn mine_mapped(
    snap: &MappedSnapshot,
    params: ScpmParams,
    segment_budget_bytes: usize,
) -> Result<ScpmResult, SnapshotError> {
    let start = Instant::now();
    let n = snap.num_vertices();
    let num_attrs = snap.num_attributes();

    // The full graph's degree histogram, straight from the CSR offsets —
    // the null model every segment normalizes against.
    let offsets = snap.csr_offsets()?;
    let max_degree = (0..n)
        .map(|v| (offsets[v + 1] - offsets[v]) as usize)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0usize; max_degree + 1];
    for v in 0..n {
        counts[(offsets[v + 1] - offsets[v]) as usize] += 1;
    }
    let dist = DegreeDistribution::from_counts(counts);
    let cache = Arc::new(NullModelCache::new());

    let frequent: Vec<AttrId> = (0..num_attrs as AttrId)
        .filter(|&a| {
            snap.support(a)
                .map(|s| s >= params.sigma_min)
                .unwrap_or(true)
        })
        .collect();
    // Surface any validation error the filter swallowed.
    for &a in &frequent {
        snap.support(a)?;
    }

    // Theorem 3 over the whole graph: no mining set leaves this core.
    let z = params.quasi_clique.min_required_degree();
    let core = Arc::new(peel_to_core(n, z, |v| snap.neighbors(v))?);

    let segments = pack_segments(snap, &frequent, &core, segment_budget_bytes)?;

    // Per-root scratches, indexed by rank in `frequent` (segments are
    // consecutive runs of it): the level-1 result of every frequent root,
    // and the subtree result of every surviving one.
    let mut l1_results: Vec<Option<ScpmResult>> = (0..frequent.len()).map(|_| None).collect();
    let mut subtree_results: Vec<Option<ScpmResult>> = (0..frequent.len()).map(|_| None).collect();
    let mut cover_handle: Vec<Option<(u64, u32)>> = vec![None; frequent.len()];
    let mut spill = CoverSpill::create()?;

    // Descending, so every sibling b > a has its cover spilled before any
    // root a extends with it.
    let mut first = frequent.len();
    for seg in segments.iter().rev() {
        first -= seg.len();
        let graph = working_graph(snap, seg, &core)?;
        let model = AnalyticalModel::from_distribution(dist.clone(), n, &params.quasi_clique)
            .with_cache(cache.clone());
        let scpm = Scpm::with_model(&graph, params.clone(), model, Arc::clone(&core));
        let engine = scpm.engine();

        // Phase 1: level-1 evaluation of each root on the working graph.
        let mut entries: Vec<Option<EnumEntry>> = Vec::with_capacity(seg.len());
        for (i, &a) in (first..).zip(seg) {
            let tids = Tidset::from_sorted(snap.vertices_with(a)?.to_vec());
            let mut scratch = ScpmResult::default();
            let entry = scpm.evaluate(&engine, vec![a], tids, None, None, true, &mut scratch);
            if let Some(e) = &entry {
                cover_handle[i] = Some(spill.push(&e.cover)?);
            }
            l1_results[i] = Some(scratch);
            entries.push(entry);
        }

        // Phase 2: extend each surviving root with its surviving siblings,
        // one pseudo-entry at a time; children enumerate in memory.
        for (i, entry) in (first..).zip(entries) {
            let Some(base) = entry else {
                continue;
            };
            let mut scratch = ScpmResult::default();
            let mut next: Vec<EnumEntry> = Vec::new();
            let mut cover_buf: Vec<VertexId> = Vec::new();
            for (j, &b) in frequent.iter().enumerate().skip(i + 1) {
                let Some(handle) = cover_handle[j] else {
                    continue;
                };
                let sibling = EnumEntry {
                    attrs: vec![b],
                    tids: Tidset::from_sorted(snap.vertices_with(b)?.to_vec()),
                    cover: spill.read(handle)?,
                    sub: None,
                    stable: false,
                };
                if let Some(child) =
                    scpm.extend_pair_refs(&engine, &base, &sibling, &mut cover_buf, &mut scratch)
                {
                    next.push(child);
                }
            }
            if !next.is_empty() {
                scpm.enumerate_class(&engine, &next, &mut scratch);
            }
            subtree_results[i] = Some(scratch);
        }
    }

    // Canonical reassembly: level-1 reports ascending, then each root's
    // subtree ascending — exactly the in-memory enumeration order.
    let mut result = ScpmResult::default();
    for scratch in l1_results.into_iter().flatten() {
        result.reports.extend(scratch.reports);
        result.patterns.extend(scratch.patterns);
        result.stats.merge(&scratch.stats);
    }
    for scratch in subtree_results.into_iter().flatten() {
        result.reports.extend(scratch.reports);
        result.patterns.extend(scratch.patterns);
        result.stats.merge(&scratch.stats);
    }
    result.stats.elapsed = start.elapsed();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scpm;
    use scpm_graph::figure1::figure1;
    use scpm_graph::kcore::k_core_mask;
    use scpm_graph::{encode, AttributedGraph};

    fn fingerprint(r: &ScpmResult) -> String {
        format!("{:?}|{:?}", r.reports, r.patterns)
    }

    fn assert_equivalent(g: &AttributedGraph, params: ScpmParams, budgets: &[usize]) {
        let reference = Scpm::new(g, params.clone()).run();
        let snap = MappedSnapshot::from_bytes(encode(g)).unwrap();
        for &budget in budgets {
            let mined = mine_mapped(&snap, params.clone(), budget).unwrap();
            assert_eq!(
                fingerprint(&mined),
                fingerprint(&reference),
                "budget {budget} diverged"
            );
            let (mut a, mut b) = (mined.stats, reference.stats);
            a.elapsed = Default::default();
            b.elapsed = Default::default();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "budget {budget} counters"
            );
        }
    }

    #[test]
    fn figure1_matches_in_memory_at_every_budget() {
        // Budgets from "one root per segment" to "everything in one".
        let g = figure1();
        let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
        assert_equivalent(&g, params, &[1, 64, 512, 4096, usize::MAX]);
    }

    #[test]
    fn permissive_parameters_exercise_deep_subtrees() {
        // σmin = 1 with no ε/δ floor keeps every attribute extensible, so
        // cross-segment sibling extension does real work.
        let g = figure1();
        let params = ScpmParams::new(1, 0.5, 3).with_eps_min(0.0);
        assert_equivalent(&g, params, &[1, 200, usize::MAX]);
    }

    /// A deterministic random attributed graph (xorshift; no rand dep).
    fn random_graph(n: usize, attrs: u32, seed: u64) -> AttributedGraph {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = AttributedGraphBuilder::new(n);
        for a in 0..attrs {
            b.intern_attr(&format!("t{a}"));
        }
        for _ in 0..n * 3 {
            let (u, v) = ((next() as usize % n) as u32, (next() as usize % n) as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        for v in 0..n as u32 {
            for _ in 0..1 + next() % 3 {
                b.add_attr(v, (next() % attrs as u64) as u32);
            }
        }
        b.build()
    }

    #[test]
    fn random_graphs_match_in_memory() {
        for seed in 1..=6u64 {
            let g = random_graph(40, 8, seed.wrapping_mul(0x9e3779b97f4a7c15));
            let params = ScpmParams::new(3, 0.5, 3).with_eps_min(0.1);
            assert_equivalent(&g, params, &[1, 1 << 10, 1 << 20]);
        }
    }

    #[test]
    fn empty_and_attributeless_graphs_are_fine() {
        let g = AttributedGraphBuilder::new(5).build();
        let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
        let r = mine_mapped(&snap, ScpmParams::new(1, 0.5, 3), 1024).unwrap();
        assert!(r.reports.is_empty() && r.patterns.is_empty());
    }

    #[test]
    fn segment_packing_respects_budget_floor() {
        let g = figure1();
        let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
        let frequent: Vec<AttrId> = (0..snap.num_attributes() as AttrId)
            .filter(|&a| snap.support(a).unwrap() >= 1)
            .collect();
        // With every vertex costed (the 0-core), a 1-byte budget forces
        // singleton segments.
        let everything = k_core_mask(g.graph(), 0);
        let tiny = pack_segments(&snap, &frequent, &everything, 1).unwrap();
        assert_eq!(tiny.len(), frequent.len());
        assert!(tiny.iter().all(|s| s.len() == 1));
        // An unbounded budget packs everything together.
        let all = pack_segments(&snap, &frequent, &everything, usize::MAX).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], frequent);
    }

    /// Two planted cliques carrying `hub`/`dense`, a path carrying
    /// `path0..path3` and a star carrying `star`: at γ 0.5, `min_size` 4
    /// (`z` 2) the global core is the two cliques, so the `path*` and
    /// `star` roots lie wholly outside it.
    fn cliques_and_sparse_roots() -> AttributedGraph {
        let mut b = AttributedGraphBuilder::new(30);
        for name in ["hub", "dense", "path0", "path1", "path2", "path3", "star"] {
            b.intern_attr(name);
        }
        for (lo, hi) in [(0u32, 6u32), (6, 11)] {
            for u in lo..hi {
                for v in u + 1..hi {
                    b.add_edge(u, v);
                }
            }
        }
        b.add_edge(5, 11); // the path hangs off the first clique
        for v in 11..20u32 {
            b.add_edge(v, v + 1);
        }
        for leaf in 22..30u32 {
            b.add_edge(21, leaf);
        }
        for v in 0..11u32 {
            b.add_attr(v, 0);
            if v % 2 == 0 {
                b.add_attr(v, 1);
            }
        }
        for v in 11..21u32 {
            b.add_attr(v, 2 + (v % 4));
            b.add_attr(v, 0);
        }
        for v in 21..30u32 {
            b.add_attr(v, 6);
        }
        b.build()
    }

    #[test]
    fn segments_are_costed_and_built_over_the_global_core() {
        let g = cliques_and_sparse_roots();
        let params = ScpmParams::new(2, 0.5, 4).with_eps_min(0.0);
        let z = params.quasi_clique.min_required_degree();
        let core = k_core_mask(g.graph(), z);
        assert_eq!(core.to_vec(), (0..11).collect::<Vec<_>>());
        let snap = MappedSnapshot::from_bytes(encode(&g)).unwrap();
        let frequent: Vec<AttrId> = (0..snap.num_attributes() as AttrId).collect();
        let everything = k_core_mask(g.graph(), 0);
        for budget in [1, 64, 200, 1 << 10, usize::MAX] {
            let before = pack_segments(&snap, &frequent, &everything, budget).unwrap();
            let after = pack_segments(&snap, &frequent, &core, budget).unwrap();
            assert!(after.len() <= before.len(), "budget {budget}");
            if budget == 1 {
                // The five roots outside the core cost nothing.
                assert!(after.len() < before.len());
            }
            for seg in &after {
                let mut w = Vec::new();
                for &a in seg {
                    w.extend(g.vertices_with(a).iter().filter(|&&v| core.contains(v)));
                }
                let graph = working_graph(&snap, seg, &core).unwrap();
                for v in 0..g.num_vertices() as VertexId {
                    for &u in graph.graph().neighbors(v) {
                        // Both endpoints in V(a) ∩ C for some root a.
                        assert!(w.contains(&v) && w.contains(&u), "edge {v}-{u}");
                    }
                }
            }
        }
        assert_equivalent(&g, params.clone(), &[1, 1 << 10, usize::MAX]);
        assert_equivalent(&g, params.with_top_k(2), &[1, 1 << 10, usize::MAX]);
    }

    #[test]
    fn corrupt_snapshot_surfaces_error_not_panic() {
        let g = figure1();
        let mut bytes = encode(&g).as_ref().to_vec();
        bytes[400] ^= 0xff; // inside the CSR-offsets section
        let snap = MappedSnapshot::from_bytes(bytes).unwrap();
        let err = mine_mapped(&snap, ScpmParams::new(1, 0.5, 3), 1024);
        assert!(err.is_err(), "corruption must surface as an error");
    }
}
