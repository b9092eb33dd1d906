//! Bounded-memory **external ingestion**: normalize on-disk sources into a
//! v3 snapshot without ever materializing the edge or pair streams in
//! memory.
//!
//! The in-memory path (`ingest::ingest_files` + `save_snapshot`) buffers
//! every edge and vertex-attribute pair, sorts them, and encodes the
//! snapshot from a built [`AttributedGraph`](scpm_graph::AttributedGraph).
//! That is the right call for datasets that fit; it is the wrong call for
//! the paper-scale networks the out-of-core CI job exercises. This module
//! reproduces the normalization **byte-for-byte** (the differential tests
//! and the `out-of-core` CI job enforce it) with a classic external-sort
//! plan that parses the source text exactly once:
//!
//! 1. **Pass 1 — survey.** Stream-parse every source file through one
//!    [`StreamingSource`]: this builds the vertex and attribute interners,
//!    the structural marks, and the self-loop count in `O(V + A)` memory,
//!    and writes each interned record as a little-endian `(u32, u32)` to a
//!    raw id log in the scratch directory (one log for edges, one for
//!    pairs). The id policy, relabeling map, attribute canonicalization
//!    order, and vertex count `n` all fall out here.
//! 2. **Pass 2 — spill.** Stream the logs back (deleting each once read),
//!    relabel each record, and push it into a `RunSpiller`: a
//!    fixed-capacity buffer that sorts, dedups and spills to a temporary
//!    run file every time it fills. Each undirected edge is pushed as
//!    *both* directed copies, so the merged `(src, dst)` stream is exactly
//!    the CSR neighbor order; pairs are spilled twice, keyed `(v, a)` for
//!    the forward table and `(a, v)` for the inverted index.
//! 3. **Merge.** K-way merge-dedup of each run set (fan-in capped, with
//!    intermediate merge passes when a tiny budget produces many runs)
//!    streams the section payloads into temp files while counting degrees
//!    and duplicates.
//! 4. **Assemble.** With all counts known, compute the v3 [`layout`],
//!    stream the payloads into the final file (hashing each section with
//!    [`Fnv1a64`] on the way through), patch the directory and header
//!    checksums, fsync, and rename into place —
//!    the same atomicity contract as `write_snapshot_atomic`.
//!
//! The memory budget bounds the *record buffers* — the `O(m + p)` part
//! that makes in-memory ingestion scale with the data. The interners,
//! offset arrays and structural marks are `O(V + A)` and deliberately stay
//! in memory: they are the same order as (and in practice smaller than)
//! the token tables any correct normalizer must hold to relabel at all.
//! Temp disk holds the raw logs (8 bytes per edge and per pair, until pass
//! 2 ends) and then the runs and payloads.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use scpm_graph::io::source::{canonical_numeric, StreamingSource};
use scpm_graph::io::ParseError;
use scpm_graph::snapshot::layout::{self, Counts, Section, DIR_OFFSET, SECTIONS};
use scpm_graph::snapshot::Fnv1a64;

use crate::ingest::{
    label_of, IdPolicy, IngestError, IngestOptions, IngestReport, ParseCounters, SelfLoopPolicy,
    SourceFormat, UnknownVertexPolicy,
};

/// Knobs for one external ingest run.
#[derive(Clone, Debug)]
pub struct ExternalOptions {
    /// Budget, in bytes, for the sort/spill record buffers. Small budgets
    /// produce more runs and more merge passes, never wrong answers; the
    /// floor is a few pages so degenerate budgets still make progress.
    pub memory_budget: usize,
    /// Where to put the scratch directory `<out file name>.oocore-tmp`
    /// that holds raw id logs, spill runs and section temp files. Defaults
    /// to the output snapshot's directory. The scratch directory is removed
    /// when the ingest ends, on success and on every error.
    pub temp_dir: Option<PathBuf>,
}

impl Default for ExternalOptions {
    fn default() -> Self {
        ExternalOptions {
            memory_budget: 64 << 20,
            temp_dir: None,
        }
    }
}

/// Minimum record capacity of a spill buffer, whatever the budget says:
/// below this the run count explodes without saving measurable memory.
const MIN_BUFFER_RECORDS: usize = 4096;

/// Maximum merge fan-in; beyond this, runs are reduced in intermediate
/// passes so the merge's own buffers stay bounded.
const MAX_FANIN: usize = 64;

/// Buffer size of each record reader and writer (runs, logs, payloads).
const RECORD_IO_BUF: usize = 64 << 10;

/// Ingests on-disk files straight into a v3 snapshot at `out`, holding at
/// most `ext.memory_budget` bytes of record buffers. The snapshot is
/// byte-identical to `save_snapshot(&ingest_files(...)?.graph, out)` and
/// the returned report is identical to the in-memory path's report.
///
/// The unified single-file format carries an explicit vertex universe and
/// ships only at toy scale, so it takes the in-memory path regardless of
/// budget; edge lists and adjacency lists (the shapes real releases use)
/// run the external plan.
pub fn ingest_files_external(
    format: SourceFormat,
    structure: &Path,
    attrs: Option<&Path>,
    opts: &IngestOptions,
    ext: &ExternalOptions,
    out: &Path,
) -> Result<IngestReport, IngestError> {
    if format == SourceFormat::Unified {
        let ingested = crate::ingest::ingest_files(format, structure, attrs, opts)?;
        scpm_graph::snapshot::save_snapshot(&ingested.graph, out)?;
        return Ok(ingested.report);
    }
    let label = label_of(structure);
    let scratch = ext
        .temp_dir
        .as_deref()
        .unwrap_or_else(|| out.parent().unwrap_or(Path::new(".")))
        .join(format!(
            "{}.oocore-tmp",
            out.file_name().and_then(|s| s.to_str()).unwrap_or("snap")
        ));
    std::fs::create_dir_all(&scratch)?;
    let result: Result<IngestReport, IngestError> = (|| {
        // ---- Pass 1: the one parse. Interners, structural marks and
        // self-loops stay in memory; the interned records go to raw logs. ----
        let mut survey = StreamingSource::new();
        let edge_log = scratch.join("edges.log");
        let mut log = RecordWriter::create(&edge_log)?;
        parse_structure(format, structure, &mut survey, &mut |e| {
            log.push(e).map_err(ParseError::Io)
        })?;
        log.finish()?;
        let pair_log = scratch.join("pairs.log");
        let mut log = RecordWriter::create(&pair_log)?;
        if let Some(attrs) = attrs {
            let file = File::open(attrs)?;
            survey.read_attr_table(file, &mut |p| log.push(p).map_err(ParseError::Io))?;
        }
        log.finish()?;

        if survey.self_loops > 0 && opts.self_loops == SelfLoopPolicy::Error {
            return Err(IngestError::SelfLoops {
                count: survey.self_loops,
            });
        }
        let attr_only = (0..survey.vertices.len() as u32)
            .filter(|&v| !survey.is_structural(v))
            .count();
        if opts.unknown_vertices == UnknownVertexPolicy::Error {
            if let Some(v) = (0..survey.vertices.len() as u32).find(|&v| !survey.is_structural(v)) {
                return Err(IngestError::UnknownVertex {
                    token: survey.vertices.name(v).to_string(),
                });
            }
        }

        // Vertex relabeling decision — the same rules as `ingest_source`.
        let distinct = survey.vertices.len();
        let numeric_ok = survey.vertices.all_numeric();
        let dense_enough = (survey.vertices.max_numeric() as usize) < 2 * distinct + 1024;
        let use_numeric = match opts.id_policy {
            IdPolicy::Intern => false,
            IdPolicy::Auto => distinct > 0 && numeric_ok && dense_enough,
            IdPolicy::Numeric => {
                if let Some(bad) = survey
                    .vertices
                    .names()
                    .iter()
                    .find(|t| canonical_numeric(t).is_none())
                {
                    return Err(IngestError::NonNumericId { token: bad.clone() });
                }
                true
            }
        };
        let (vertex_map, n): (Option<Vec<u32>>, usize) = if use_numeric {
            let map: Vec<u32> = survey
                .vertices
                .names()
                .iter()
                .map(|t| canonical_numeric(t).expect("checked numeric"))
                .collect();
            let n = if distinct == 0 {
                0
            } else {
                survey.vertices.max_numeric() as usize + 1
            };
            (Some(map), n)
        } else {
            (None, distinct)
        };

        // Attribute canonicalization (lexicographic by name), as in
        // `ingest_source`: every interned attribute has support ≥ 1, so none
        // are dropped.
        let num_attrs = survey.attributes.len();
        let mut attr_order: Vec<u32> = (0..num_attrs as u32).collect();
        if opts.canonical_attrs {
            attr_order.sort_by(|&a, &b| survey.attributes.name(a).cmp(survey.attributes.name(b)));
        }
        let mut attr_map = vec![0u32; num_attrs];
        for (new, &old) in attr_order.iter().enumerate() {
            attr_map[old as usize] = new as u32;
        }

        // ---- Pass 2: stream the logs back, relabel, spill sorted runs. ----
        let cap = (ext.memory_budget / 2 / 8).max(MIN_BUFFER_RECORDS);
        let relabel = |v: u32| -> u32 { vertex_map.as_ref().map_or(v, |m| m[v as usize]) };

        let mut edge_runs = RunSpiller::new(&scratch, "edges", cap)?;
        let mut pair_runs = RunSpiller::new(&scratch, "pairs-va", cap / 2)?;
        let mut inv_runs = RunSpiller::new(&scratch, "pairs-av", cap / 2)?;
        drain_log(&edge_log, |(u, v)| {
            let (u, v) = (relabel(u), relabel(v));
            edge_runs.push((u, v))?;
            edge_runs.push((v, u))
        })?;
        drain_log(&pair_log, |(v, a)| {
            let rec = (relabel(v), attr_map[a as usize]);
            pair_runs.push(rec)?;
            inv_runs.push((rec.1, rec.0))
        })?;

        // ---- Merge each run set into its section payload temp files. ----
        // Edges: grouped by source vertex, the dedup'd `(src, dst)` stream
        // *is* the concatenated sorted neighbor lists.
        let edge_raw = edge_runs.raw_records();
        let mut degrees = vec![0u64; n];
        let edges_tmp = scratch.join("csr_edges.payload");
        let unique_directed;
        {
            let mut w = BufWriter::new(File::create(&edges_tmp)?);
            let runs = edge_runs.finish()?;
            unique_directed = merge_runs(runs, &scratch, "edges", |(u, v)| {
                degrees[u as usize] += 1;
                w.write_all(&v.to_le_bytes())
            })?;
            w.flush()?;
        }
        debug_assert_eq!(unique_directed % 2, 0, "directed edge copies must pair up");
        let m = unique_directed / 2;
        let duplicate_edges = ((edge_raw - unique_directed) / 2) as usize;
        let csr_offsets = prefix_sum(&degrees);

        // Forward pairs: grouped by vertex.
        let pair_raw = pair_runs.raw_records();
        let mut attr_degrees = vec![0u64; n];
        let pairs_tmp = scratch.join("vertex_attrs.payload");
        let unique_pairs;
        {
            let mut w = BufWriter::new(File::create(&pairs_tmp)?);
            let runs = pair_runs.finish()?;
            unique_pairs = merge_runs(runs, &scratch, "pairs-va", |(v, a)| {
                attr_degrees[v as usize] += 1;
                w.write_all(&a.to_le_bytes())
            })?;
            w.flush()?;
        }
        let duplicate_pairs = (pair_raw - unique_pairs) as usize;
        let attr_offsets = prefix_sum(&attr_degrees);

        // Inverted pairs: grouped by attribute.
        let mut supports = vec![0u64; num_attrs];
        let inv_tmp = scratch.join("inv_vertices.payload");
        {
            let mut w = BufWriter::new(File::create(&inv_tmp)?);
            let runs = inv_runs.finish()?;
            let unique_inv = merge_runs(runs, &scratch, "pairs-av", |(a, v)| {
                supports[a as usize] += 1;
                w.write_all(&v.to_le_bytes())
            })?;
            w.flush()?;
            debug_assert_eq!(unique_inv, unique_pairs);
        }
        let inv_offsets = prefix_sum(&supports);

        // Interner payload (canonical name order).
        let mut interner = Vec::new();
        for idx in 0..num_attrs as u32 {
            let old = attr_order[idx as usize];
            let name = survey.attributes.name(old).as_bytes();
            interner.extend_from_slice(&(name.len() as u32).to_le_bytes());
            interner.extend_from_slice(name);
        }

        // ---- Assemble the v3 snapshot. ----
        let counts = Counts {
            n: n as u64,
            m,
            a: num_attrs as u64,
            pairs: unique_pairs,
        };
        let payloads = SectionPayloads {
            csr_offsets: &csr_offsets,
            csr_edges: &edges_tmp,
            attr_offsets: &attr_offsets,
            vertex_attrs: &pairs_tmp,
            inv_offsets: &inv_offsets,
            inv_vertices: &inv_tmp,
            interner: &interner,
        };
        assemble_snapshot(out, &scratch, counts, &payloads)?;

        // ---- Report (identical to the in-memory path's). ----
        let mut rows: Vec<(String, usize)> = (0..num_attrs as u32)
            .map(|a| {
                let old = attr_order[a as usize];
                (
                    survey.attributes.name(old).to_string(),
                    supports[a as usize] as usize,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(opts.top_attributes);

        Ok(IngestReport {
            label: label.clone(),
            vertices: n,
            edges: m as usize,
            attributes: num_attrs,
            pairs: unique_pairs as usize,
            numeric_ids: use_numeric,
            top_attributes: rows,
            parse: Some(ParseCounters {
                self_loops_dropped: survey.self_loops,
                duplicate_edges_merged: duplicate_edges,
                duplicate_pairs_merged: duplicate_pairs,
                attr_only_vertices: attr_only,
            }),
        })
    })();
    let cleanup = std::fs::remove_dir_all(&scratch);
    let report = result?;
    cleanup?;
    Ok(report)
}

fn parse_structure(
    format: SourceFormat,
    structure: &Path,
    src: &mut StreamingSource,
    emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
) -> Result<(), IngestError> {
    let file = File::open(structure)?;
    match format {
        SourceFormat::EdgeList => src.read_edge_list(file, emit)?,
        SourceFormat::Adjacency => src.read_adjacency(file, emit)?,
        SourceFormat::Unified => unreachable!("unified format takes the in-memory path"),
    }
    Ok(())
}

fn prefix_sum(counts: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u64;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// A fixed-capacity sort buffer that spills sorted, dedup'd runs of
/// `(u32, u32)` records to disk.
struct RunSpiller {
    dir: PathBuf,
    prefix: String,
    buf: Vec<(u32, u32)>,
    cap: usize,
    runs: Vec<PathBuf>,
    raw: u64,
}

impl RunSpiller {
    fn new(dir: &Path, prefix: &str, cap: usize) -> std::io::Result<RunSpiller> {
        let cap = cap.max(MIN_BUFFER_RECORDS);
        Ok(RunSpiller {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            buf: Vec::with_capacity(cap.min(1 << 20)),
            cap,
            runs: Vec::new(),
            raw: 0,
        })
    }

    fn push(&mut self, rec: (u32, u32)) -> std::io::Result<()> {
        self.raw += 1;
        self.buf.push(rec);
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        Ok(())
    }

    /// Records pushed so far, before any dedup.
    fn raw_records(&self) -> u64 {
        self.raw
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = self
            .dir
            .join(format!("{}.run{:04}", self.prefix, self.runs.len()));
        let mut w = RecordWriter::create(&path)?;
        for &rec in &self.buf {
            w.push(rec)?;
        }
        w.finish()?;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<Vec<PathBuf>> {
        self.spill()?;
        Ok(std::mem::take(&mut self.runs))
    }
}

/// Buffered writer of little-endian `(u32, u32)` records: the format of
/// spill runs, intermediate merges and pass 1's raw id logs.
struct RecordWriter(BufWriter<File>);

impl RecordWriter {
    fn create(path: &Path) -> std::io::Result<RecordWriter> {
        Ok(RecordWriter(BufWriter::with_capacity(
            RECORD_IO_BUF,
            File::create(path)?,
        )))
    }

    fn push(&mut self, (x, y): (u32, u32)) -> std::io::Result<()> {
        let mut rec = [0u8; 8];
        rec[..4].copy_from_slice(&x.to_le_bytes());
        rec[4..].copy_from_slice(&y.to_le_bytes());
        self.0.write_all(&rec)
    }

    fn finish(mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// Streams every record of a raw id log through `f` in order, then
/// deletes the log.
fn drain_log(
    path: &Path,
    mut f: impl FnMut((u32, u32)) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut r = RunReader::open(path)?;
    while let Some(rec) = r.head {
        f(rec)?;
        r.advance()?;
    }
    drop(r);
    std::fs::remove_file(path)
}

/// Buffered reader over one record file (a sorted run or a raw id log).
struct RunReader {
    r: BufReader<File>,
    head: Option<(u32, u32)>,
}

impl RunReader {
    fn open(path: &Path) -> std::io::Result<RunReader> {
        let mut rr = RunReader {
            r: BufReader::with_capacity(RECORD_IO_BUF, File::open(path)?),
            head: None,
        };
        rr.advance()?;
        Ok(rr)
    }

    fn advance(&mut self) -> std::io::Result<()> {
        let mut rec = [0u8; 8];
        self.head = match self.r.read_exact(&mut rec) {
            Ok(()) => Some((
                u32::from_le_bytes(rec[..4].try_into().unwrap()),
                u32::from_le_bytes(rec[4..].try_into().unwrap()),
            )),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => None,
            Err(e) => return Err(e),
        };
        Ok(())
    }
}

/// K-way merge-dedups sorted runs into `emit`, reducing fan-in with
/// intermediate passes when a tiny budget produced many runs. Returns the
/// number of unique records emitted. Run files are deleted as consumed.
fn merge_runs(
    mut runs: Vec<PathBuf>,
    scratch: &Path,
    prefix: &str,
    mut emit: impl FnMut((u32, u32)) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let mut gen = 0usize;
    while runs.len() > MAX_FANIN {
        let batch: Vec<PathBuf> = runs.drain(..MAX_FANIN).collect();
        gen += 1;
        let merged = scratch.join(format!("{prefix}.merge{gen:04}"));
        let mut w = RecordWriter::create(&merged)?;
        merge_batch(&batch, |rec| w.push(rec))?;
        w.finish()?;
        for p in &batch {
            std::fs::remove_file(p).ok();
        }
        runs.push(merged);
    }
    let count = merge_batch(&runs, &mut emit)?;
    for p in &runs {
        std::fs::remove_file(p).ok();
    }
    Ok(count)
}

fn merge_batch(
    runs: &[PathBuf],
    mut emit: impl FnMut((u32, u32)) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let mut readers = Vec::with_capacity(runs.len());
    // Min-heap of (record, reader index).
    let mut heap: BinaryHeap<std::cmp::Reverse<((u32, u32), usize)>> = BinaryHeap::new();
    for (i, path) in runs.iter().enumerate() {
        let rr = RunReader::open(path)?;
        if let Some(rec) = rr.head {
            heap.push(std::cmp::Reverse((rec, i)));
        }
        readers.push(rr);
    }
    let mut last: Option<(u32, u32)> = None;
    let mut unique = 0u64;
    while let Some(std::cmp::Reverse((rec, i))) = heap.pop() {
        if last != Some(rec) {
            emit(rec)?;
            last = Some(rec);
            unique += 1;
        }
        readers[i].advance()?;
        if let Some(next) = readers[i].head {
            heap.push(std::cmp::Reverse((next, i)));
        }
    }
    Ok(unique)
}

/// The seven section payloads, small ones in memory and big ones as temp
/// files produced by the merges.
struct SectionPayloads<'a> {
    csr_offsets: &'a [u64],
    csr_edges: &'a Path,
    attr_offsets: &'a [u64],
    vertex_attrs: &'a Path,
    inv_offsets: &'a [u64],
    inv_vertices: &'a Path,
    interner: &'a [u8],
}

/// Streams the payloads into a v3 snapshot at `out`: zero header +
/// directory first, sections (hashed on the way through), then the patched
/// directory and header written back, fsync, atomic rename. Byte-identical
/// to `write_atomic(out, &encode(graph))` for the equivalent graph.
fn assemble_snapshot(
    out: &Path,
    scratch: &Path,
    counts: Counts,
    payloads: &SectionPayloads<'_>,
) -> std::io::Result<u64> {
    let lay = layout::layout(counts, payloads.interner.len() as u64);
    let tmp = scratch.join("snapshot.final");
    let mut f = BufWriter::new(File::create(&tmp)?);

    // Placeholder header + directory (patched below, once checksums exist).
    f.write_all(&vec![0u8; layout::HEADER_LEN + layout::DIR_LEN])?;

    let mut cursor = (layout::HEADER_LEN + layout::DIR_LEN) as u64;
    let mut checksums = [0u64; layout::SECTION_COUNT];
    for s in SECTIONS {
        let e = lay.extents[s.index()];
        // Zero-fill the alignment gap.
        f.write_all(&vec![0u8; (e.offset - cursor) as usize])?;
        let mut h = Fnv1a64::new();
        match s {
            Section::CsrOffsets => write_u64s(&mut f, &mut h, payloads.csr_offsets)?,
            Section::CsrEdges => copy_hashed(&mut f, &mut h, payloads.csr_edges)?,
            Section::AttrOffsets => write_u64s(&mut f, &mut h, payloads.attr_offsets)?,
            Section::VertexAttrs => copy_hashed(&mut f, &mut h, payloads.vertex_attrs)?,
            Section::InvOffsets => write_u64s(&mut f, &mut h, payloads.inv_offsets)?,
            Section::InvVertices => copy_hashed(&mut f, &mut h, payloads.inv_vertices)?,
            Section::Interner => {
                h.update(payloads.interner);
                f.write_all(payloads.interner)?;
            }
        }
        checksums[s.index()] = h.finish();
        cursor = e.offset + e.len;
    }
    debug_assert_eq!(cursor, lay.total_len);

    // Build the real header + directory in memory, checksum, patch.
    let mut head = Vec::with_capacity(layout::HEADER_LEN + layout::DIR_LEN);
    head.extend_from_slice(scpm_graph::snapshot::MAGIC);
    head.extend_from_slice(&scpm_graph::snapshot::VERSION.to_le_bytes());
    head.extend_from_slice(&(layout::SECTION_COUNT as u32).to_le_bytes());
    head.extend_from_slice(&counts.n.to_le_bytes());
    head.extend_from_slice(&counts.m.to_le_bytes());
    head.extend_from_slice(&counts.a.to_le_bytes());
    head.extend_from_slice(&counts.pairs.to_le_bytes());
    head.extend_from_slice(&lay.total_len.to_le_bytes());
    head.extend_from_slice(&0u64.to_le_bytes()); // header checksum slot
    debug_assert_eq!(head.len(), DIR_OFFSET);
    for s in SECTIONS {
        let e = lay.extents[s.index()];
        head.extend_from_slice(&(s as u32).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&e.offset.to_le_bytes());
        head.extend_from_slice(&e.len.to_le_bytes());
        head.extend_from_slice(&checksums[s.index()].to_le_bytes());
    }
    let mut h = Fnv1a64::new();
    h.update(&head[..layout::HEADER_CHECKSUM_OFFSET]);
    h.update(&head[DIR_OFFSET..]);
    let sum = h.finish();
    head[layout::HEADER_CHECKSUM_OFFSET..DIR_OFFSET].copy_from_slice(&sum.to_le_bytes());

    let mut f = f.into_inner().map_err(|e| e.into_error())?;
    f.seek(SeekFrom::Start(0))?;
    f.write_all(&head)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, out)?;
    if let Some(parent) = out.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(lay.total_len)
}

fn write_u64s(f: &mut impl Write, h: &mut Fnv1a64, values: &[u64]) -> std::io::Result<()> {
    for &v in values {
        let b = v.to_le_bytes();
        h.update(&b);
        f.write_all(&b)?;
    }
    Ok(())
}

fn copy_hashed(f: &mut impl Write, h: &mut Fnv1a64, path: &Path) -> std::io::Result<()> {
    let mut r = BufReader::with_capacity(RECORD_IO_BUF, File::open(path)?);
    let mut buf = [0u8; 16384];
    loop {
        let k = r.read(&mut buf)?;
        if k == 0 {
            return Ok(());
        }
        h.update(&buf[..k]);
        f.write_all(&buf[..k])?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_files;

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("scpm_external_ingest").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_paths_identical(a: &Path, b: &Path) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "snapshots diverge"
        );
    }

    fn roundtrip(dir: &Path, edges: &str, attrs: &str, budget: usize) {
        let edges_path = dir.join("g.txt");
        std::fs::write(&edges_path, edges).unwrap();
        let attrs_path = if attrs.is_empty() {
            None
        } else {
            let p = dir.join("g.attrs");
            std::fs::write(&p, attrs).unwrap();
            Some(p)
        };
        let opts = IngestOptions::default();

        let reference = ingest_files(
            SourceFormat::EdgeList,
            &edges_path,
            attrs_path.as_deref(),
            &opts,
        )
        .unwrap();
        let ref_snap = dir.join("reference.snap");
        scpm_graph::snapshot::save_snapshot(&reference.graph, &ref_snap).unwrap();

        let ext_snap = dir.join("external.snap");
        let report = ingest_files_external(
            SourceFormat::EdgeList,
            &edges_path,
            attrs_path.as_deref(),
            &opts,
            &ExternalOptions {
                memory_budget: budget,
                temp_dir: None,
            },
            &ext_snap,
        )
        .unwrap();

        assert_paths_identical(&ref_snap, &ext_snap);
        assert_eq!(report.to_string(), reference.report.to_string());
        assert!(!ext_snap
            .parent()
            .unwrap()
            .join("external.snap.oocore-tmp")
            .exists());
    }

    #[test]
    fn tiny_graph_matches_in_memory_path() {
        let dir = workdir("tiny");
        roundtrip(
            &dir,
            "0 1\n1 2\n2 0\n2 0\n1 1\n",
            "0 db ml\n1 db\n2 db\n",
            1 << 20,
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interned_string_ids_match_in_memory_path() {
        let dir = workdir("interned");
        roundtrip(
            &dir,
            "carol alice\nalice bob\nbob carol\n",
            "bob jazz blues\ncarol jazz\n",
            1 << 20,
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degenerate_budget_still_byte_identical() {
        // A budget far below MIN_BUFFER_RECORDS*8: everything spills at the
        // floor capacity, exercising multi-run merges on a bigger source.
        let dir = workdir("degenerate");
        let mut edges = String::new();
        let mut attrs = String::new();
        // Deterministic pseudo-random-ish graph with duplicates and loops.
        let n = 400u32;
        for i in 0..n {
            for j in 1..=6 {
                edges.push_str(&format!("{} {}\n", i, (i * 7 + j * 31) % n));
            }
        }
        for v in 0..n {
            attrs.push_str(&format!("{} a{} a{} a{}\n", v, v % 11, v % 5, (v / 3) % 17));
        }
        roundtrip(&dir, &edges, &attrs, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adjacency_format_matches_in_memory_path() {
        let dir = workdir("adjacency");
        let adj_path = dir.join("g.adj");
        std::fs::write(&adj_path, "0: 1 2\n1: 0 2\n2: 0 1\n3:\n").unwrap();
        let opts = IngestOptions::default();
        let reference = ingest_files(SourceFormat::Adjacency, &adj_path, None, &opts).unwrap();
        let ref_snap = dir.join("reference.snap");
        scpm_graph::snapshot::save_snapshot(&reference.graph, &ref_snap).unwrap();
        let ext_snap = dir.join("external.snap");
        ingest_files_external(
            SourceFormat::Adjacency,
            &adj_path,
            None,
            &opts,
            &ExternalOptions::default(),
            &ext_snap,
        )
        .unwrap();
        assert_paths_identical(&ref_snap, &ext_snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every error the external path can return — the three policy
    /// errors, a duplicate attribute row, an unterminated quote, invalid
    /// UTF-8 — is the in-memory path's error, and leaves neither `out` nor
    /// any scratch behind, with the default and with a custom `temp_dir`.
    #[test]
    fn policies_surface_the_same_errors() {
        let strict = |f: fn(&mut IngestOptions)| {
            let mut opts = IngestOptions::default();
            f(&mut opts);
            opts
        };
        let cases: [(&str, &[u8], &[u8], IngestOptions); 6] = [
            (
                "self-loop",
                b"0 0\n0 1\n",
                b"",
                strict(|o| o.self_loops = SelfLoopPolicy::Error),
            ),
            (
                "unknown-vertex",
                b"0 1\n",
                b"0 a\n5 b\n",
                strict(|o| o.unknown_vertices = UnknownVertexPolicy::Error),
            ),
            (
                "non-numeric",
                b"0 1\n1 x\n",
                b"",
                strict(|o| o.id_policy = IdPolicy::Numeric),
            ),
            (
                "duplicate-row",
                b"0 1\n",
                b"0 a\n1 b\n0 c\n",
                IngestOptions::default(),
            ),
            (
                "unterminated-quote",
                b"0 1\n1 \"2\n",
                b"",
                IngestOptions::default(),
            ),
            (
                "invalid-utf8",
                b"0 1\n\xff 2\n",
                b"",
                IngestOptions::default(),
            ),
        ];
        for (name, edges, attrs, opts) in cases {
            let dir = workdir(&format!("errors-{name}"));
            let edges_path = dir.join("g.txt");
            std::fs::write(&edges_path, edges).unwrap();
            let attrs_path = dir.join("g.attrs");
            std::fs::write(&attrs_path, attrs).unwrap();
            let attrs_path = (!attrs.is_empty()).then_some(attrs_path.as_path());
            let want = ingest_files(SourceFormat::EdgeList, &edges_path, attrs_path, &opts)
                .map(|_| ())
                .unwrap_err()
                .to_string();

            let temp = dir.join("custom-temp");
            for temp_dir in [None, Some(temp.clone())] {
                let out = dir.join("out.snap");
                let got = ingest_files_external(
                    SourceFormat::EdgeList,
                    &edges_path,
                    attrs_path,
                    &opts,
                    &ExternalOptions {
                        memory_budget: 1,
                        temp_dir: temp_dir.clone(),
                    },
                    &out,
                )
                .map(|_| ())
                .unwrap_err()
                .to_string();
                assert_eq!(got, want, "{name}");
                assert!(!out.exists(), "{name}: output left behind");
                assert!(
                    !dir.join("out.snap.oocore-tmp").exists(),
                    "{name}: scratch left behind"
                );
                if temp_dir.is_some() {
                    let left: Vec<_> = std::fs::read_dir(&temp).unwrap().collect();
                    assert!(left.is_empty(), "{name}: {left:?} left in temp_dir");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn external_snapshot_opens_zero_copy() {
        let dir = workdir("open");
        let edges = dir.join("g.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        let snap = dir.join("g.snap");
        ingest_files_external(
            SourceFormat::EdgeList,
            &edges,
            None,
            &IngestOptions::default(),
            &ExternalOptions::default(),
            &snap,
        )
        .unwrap();
        let mapped = scpm_graph::snapshot::MappedSnapshot::open(&snap).unwrap();
        mapped.validate().unwrap();
        assert_eq!(mapped.num_vertices(), 4);
        assert_eq!(mapped.num_edges(), 4);
        assert_eq!(mapped.neighbors(0).unwrap(), &[1, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
