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
//! and the `out-of-core` CI job enforce it) with a counting-sort plan that
//! parses the source text exactly once:
//!
//! 1. **Survey.** Stream-parse every source file through one
//!    [`StreamingSource`]: this builds the vertex and attribute interners,
//!    the structural marks, and the self-loop count in `O(V + A)` memory,
//!    and writes each interned record as a little-endian `(u32, u32)` to a
//!    raw id log in the scratch directory (one log for edges, one for
//!    pairs). On the way it counts the raw records of every key: both
//!    endpoints of each edge, and the vertex and the attribute of each
//!    pair. The id policy, relabeling map, attribute canonicalization
//!    order, and vertex count `n` all fall out here.
//! 2. **Scatter.** Three key-grouped streams make the snapshot: directed
//!    edges keyed by source (each undirected edge gives both copies, so
//!    the grouped values are exactly the CSR neighbor lists), pairs keyed
//!    by vertex, and pairs keyed by attribute. Each stream is read back
//!    from its log, relabeled, and every value is placed at its key's
//!    counted position in a block of 4-byte values (the key is implied by
//!    the position). Each key's slice is then sorted and deduplicated, and
//!    the keys are emitted in order. A stream larger than one block is
//!    first partitioned by key range into at most 64 partition files,
//!    again while a partition is still too large; a single key whose raw
//!    records exceed the block (a hub listed with duplicates) is
//!    deduplicated through a bitmap over its value universe instead.
//! 3. **Write.** The emitted values stream straight into the snapshot
//!    file beside `out`, in layout order, hashed with [`Fnv1a64`] on the
//!    way through. Each offsets section is known once its stream ends and
//!    is written back by seek, as are the directory and header checksums;
//!    then fsync and rename into place — the same atomicity contract as
//!    `write_snapshot_atomic`.
//!
//! The memory budget bounds the *block* — the `O(m + p)` part that makes
//! in-memory ingestion scale with the data. The interners, key counts,
//! offset arrays, structural marks and the oversize-key bitmap are
//! `O(V + A)` and deliberately stay in memory: they are the same order as
//! (and in practice smaller than) the token tables any correct normalizer
//! must hold to relabel at all. Temp disk holds the raw logs (8 bytes per
//! edge and per pair), partition files only while a stream exceeds its
//! block, and the unfinished snapshot beside `out`.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use scpm_graph::io::source::{canonical_numeric, StreamingSource};
use scpm_graph::io::ParseError;
use scpm_graph::snapshot::layout::{self, Counts, Section, DIR_OFFSET, SECTIONS, SECTION_COUNT};
use scpm_graph::snapshot::Fnv1a64;

use crate::ingest::{
    label_of, IdPolicy, IngestError, IngestOptions, IngestReport, ParseCounters, SelfLoopPolicy,
    SourceFormat, UnknownVertexPolicy,
};

/// Knobs for one external ingest run.
#[derive(Clone, Debug)]
pub struct ExternalOptions {
    /// Budget, in bytes, for the block that groups records by key (4 bytes
    /// per record). A stream larger than the block is partitioned by key
    /// range through temp files first, so small budgets cost more passes
    /// over the records, never wrong answers; the floor is 4096 records so
    /// degenerate budgets still make progress.
    pub memory_budget: usize,
    /// Where to put the scratch directory `<out file name>.oocore-tmp`
    /// that holds the raw id logs and any partition files. Defaults to the
    /// output snapshot's directory; it may be on another filesystem, since
    /// the snapshot itself is written beside `out`. The scratch directory
    /// and the unfinished snapshot are removed when the ingest ends, on
    /// success and on every error.
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

/// Minimum record capacity of the block, whatever the budget says: below
/// this the partition passes multiply without saving measurable memory.
const MIN_BLOCK_RECORDS: usize = 4096;

/// Maximum number of partition files one pass over a stream writes.
const MAX_FANIN: usize = 64;

/// Buffer size of each record reader and writer (logs, partition files).
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
    let name = out.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot path has no file name: {}", out.display()),
        )
    })?;
    let sibling = |suffix: &str| {
        let mut sibling = name.to_os_string();
        sibling.push(suffix);
        sibling
    };
    // The snapshot is written in `out`'s own directory, so the final
    // rename never crosses filesystems whatever `temp_dir` is.
    let partial = out.with_file_name(sibling(".tmp"));
    let scratch = ext
        .temp_dir
        .as_deref()
        .unwrap_or_else(|| out.parent().unwrap_or(Path::new(".")))
        .join(sibling(".oocore-tmp"));
    std::fs::create_dir_all(&scratch)?;
    let result: Result<IngestReport, IngestError> = (|| {
        // ---- Survey: the one parse. Interners, structural marks,
        // self-loops and per-key record counts stay in memory; the interned
        // records go to raw logs. ----
        let mut survey = StreamingSource::new();
        let edge_log = scratch.join("edges.log");
        let mut log = RecordWriter::create(&edge_log, RECORD_IO_BUF)?;
        let mut edge_counts = Vec::new();
        parse_structure(format, structure, &mut survey, &mut |(u, v)| {
            bump(&mut edge_counts, u);
            bump(&mut edge_counts, v);
            log.push((u, v)).map_err(ParseError::Io)
        })?;
        log.finish()?;
        let pair_log = scratch.join("pairs.log");
        let mut log = RecordWriter::create(&pair_log, RECORD_IO_BUF)?;
        let (mut vertex_pairs, mut attr_pairs) = (Vec::new(), Vec::new());
        if let Some(attrs) = attrs {
            let file = File::open(attrs)?;
            survey.read_attr_table(file, &mut |(v, a)| {
                bump(&mut vertex_pairs, v);
                bump(&mut attr_pairs, a);
                log.push((v, a)).map_err(ParseError::Io)
            })?;
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

        // Survey counts, moved onto the final ids.
        let vmap = vertex_map.as_deref();
        let by_vertex = |raw: Vec<u64>| {
            let mut counts = vec![0u64; n];
            for (v, k) in raw.into_iter().enumerate() {
                counts[relabel(vmap, v as u32) as usize] += k;
            }
            counts
        };
        let mut by_attr = vec![0u64; num_attrs];
        for (a, k) in attr_pairs.into_iter().enumerate() {
            by_attr[attr_map[a] as usize] = k;
        }
        let edge_raw: u64 = edge_counts.iter().sum();
        let pair_raw: u64 = vertex_pairs.iter().sum();

        // ---- Scatter each stream and write it into the snapshot. ----
        let mut blocks = Blocks::new(&scratch, (ext.memory_budget / 4).max(MIN_BLOCK_RECORDS));
        let mut snap = SnapshotFile::create(&partial)?;
        let csr_offsets = snap.grouped(
            Section::CsrOffsets,
            &mut blocks,
            &Feed::Edges {
                log: &edge_log,
                vmap,
            },
            by_vertex(edge_counts),
            n,
        )?;
        std::fs::remove_file(&edge_log)?;
        let unique_directed = csr_offsets[n];
        debug_assert_eq!(unique_directed % 2, 0, "directed edge copies must pair up");
        let m = unique_directed / 2;
        let duplicate_edges = ((edge_raw - unique_directed) / 2) as usize;

        let attr_offsets = snap.grouped(
            Section::AttrOffsets,
            &mut blocks,
            &Feed::Pairs {
                log: &pair_log,
                vmap,
                amap: &attr_map,
                inverse: false,
            },
            by_vertex(vertex_pairs),
            num_attrs,
        )?;
        let unique_pairs = attr_offsets[n];
        let duplicate_pairs = (pair_raw - unique_pairs) as usize;
        let inv_offsets = snap.grouped(
            Section::InvOffsets,
            &mut blocks,
            &Feed::Pairs {
                log: &pair_log,
                vmap,
                amap: &attr_map,
                inverse: true,
            },
            by_attr,
            n,
        )?;
        std::fs::remove_file(&pair_log)?;
        debug_assert_eq!(inv_offsets[num_attrs], unique_pairs);

        // Interner payload (canonical name order).
        snap.begin(Section::Interner)?;
        for &old in &attr_order {
            let name = survey.attributes.name(old).as_bytes();
            snap.write(&(name.len() as u32).to_le_bytes())?;
            snap.write(name)?;
        }
        snap.end(Section::Interner);
        let counts = Counts {
            n: n as u64,
            m,
            a: num_attrs as u64,
            pairs: unique_pairs,
        };
        snap.commit(counts, &partial, out)?;

        // ---- Report (identical to the in-memory path's). ----
        // The top rows by support, ties by (unique) name; only they clone
        // their names.
        let support = |a: usize| (inv_offsets[a + 1] - inv_offsets[a]) as usize;
        let name = |a: usize| survey.attributes.name(attr_order[a]);
        let order = |&a: &usize, &b: &usize| {
            support(b)
                .cmp(&support(a))
                .then_with(|| name(a).cmp(name(b)))
        };
        let mut top: Vec<usize> = (0..num_attrs).collect();
        if opts.top_attributes < top.len() {
            top.select_nth_unstable_by(opts.top_attributes, order);
            top.truncate(opts.top_attributes);
        }
        top.sort_unstable_by(order);
        let rows = top
            .into_iter()
            .map(|a| (name(a).to_string(), support(a)))
            .collect();

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
    if result.is_err() {
        std::fs::remove_file(&partial).ok();
    }
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

/// Counts one raw record of `key`.
fn bump(counts: &mut Vec<u64>, key: u32) {
    let key = key as usize;
    if key >= counts.len() {
        counts.resize(key + 1, 0);
    }
    counts[key] += 1;
}

fn relabel(vmap: Option<&[u32]>, v: u32) -> u32 {
    vmap.map_or(v, |m| m[v as usize])
}

/// Where the `(key, value)` records of one key-grouped stream come from.
enum Feed<'a> {
    /// The edge log: each undirected edge yields both directed copies.
    Edges {
        log: &'a Path,
        vmap: Option<&'a [u32]>,
    },
    /// The pair log, keyed by vertex, or by attribute when `inverse`.
    Pairs {
        log: &'a Path,
        vmap: Option<&'a [u32]>,
        amap: &'a [u32],
        inverse: bool,
    },
    /// A partition file of relabeled records, deleted once read.
    Part(PathBuf),
}

impl Feed<'_> {
    /// Streams every record through `f`, relabeled.
    fn each(&self, mut f: impl FnMut(u32, u32) -> io::Result<()>) -> io::Result<()> {
        match *self {
            Feed::Edges { log, vmap } => read_records(log, |u, v| {
                let (u, v) = (relabel(vmap, u), relabel(vmap, v));
                f(u, v)?;
                f(v, u)
            }),
            Feed::Pairs {
                log,
                vmap,
                amap,
                inverse,
            } => read_records(log, |v, a| {
                let (v, a) = (relabel(vmap, v), amap[a as usize]);
                if inverse {
                    f(a, v)
                } else {
                    f(v, a)
                }
            }),
            Feed::Part(ref path) => {
                read_records(path, f)?;
                std::fs::remove_file(path)
            }
        }
    }
}

/// Buffered writer of little-endian `(u32, u32)` records: the format of
/// the raw id logs and the partition files.
struct RecordWriter(BufWriter<File>);

impl RecordWriter {
    fn create(path: &Path, capacity: usize) -> io::Result<RecordWriter> {
        Ok(RecordWriter(BufWriter::with_capacity(
            capacity,
            File::create(path)?,
        )))
    }

    fn push(&mut self, (x, y): (u32, u32)) -> io::Result<()> {
        let mut rec = [0u8; 8];
        rec[..4].copy_from_slice(&x.to_le_bytes());
        rec[4..].copy_from_slice(&y.to_le_bytes());
        self.0.write_all(&rec)
    }

    fn finish(mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Streams every record of a record file through `f`, in order.
fn read_records(path: &Path, mut f: impl FnMut(u32, u32) -> io::Result<()>) -> io::Result<()> {
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; RECORD_IO_BUF];
    let mut filled = 0;
    loop {
        let read = match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        filled += read;
        let whole = filled - filled % 8;
        for rec in buf[..whole].chunks_exact(8) {
            f(
                u32::from_le_bytes(rec[..4].try_into().unwrap()),
                u32::from_le_bytes(rec[4..].try_into().unwrap()),
            )?;
        }
        buf.copy_within(whole..filled, 0);
        filled -= whole;
    }
    if filled != 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated record file {}", path.display()),
        ));
    }
    Ok(())
}

/// The block and the state every key-grouped stream of one ingest shares.
struct Blocks<'a> {
    /// Scratch directory for partition files.
    dir: &'a Path,
    /// Block capacity in records.
    cap: usize,
    /// The block: one value per raw record, grown on demand up to `cap`.
    buf: Vec<u32>,
    /// Value bitmap for a key whose raw records exceed the block; all
    /// zero between uses.
    seen: Vec<u64>,
    /// Partition files made so far (names them uniquely).
    parts: usize,
}

impl<'a> Blocks<'a> {
    fn new(dir: &'a Path, cap: usize) -> Blocks<'a> {
        Blocks {
            dir,
            cap,
            buf: Vec::new(),
            seen: Vec::new(),
            parts: 0,
        }
    }

    /// Emits into `out`, for every key in `keys` in order, that key's
    /// sorted, deduplicated values. `counts[k]` is key `k`'s raw record
    /// count on entry and is clobbered; values are below `universe`.
    fn group(
        &mut self,
        feed: &Feed,
        counts: &mut [u64],
        keys: Range<usize>,
        universe: usize,
        out: &mut Grouped,
    ) -> io::Result<()> {
        let total: u64 = counts[keys.clone()].iter().sum();
        if total <= self.cap as u64 {
            self.scatter(feed, counts, keys, total as usize, out)
        } else if keys.len() == 1 {
            self.dedup_oversize(feed, universe, out)
        } else {
            self.partition(feed, counts, keys, universe, out)
        }
    }

    /// The counting sort proper: every value lands at its key's next free
    /// position, then each key's slice is sorted and deduplicated.
    fn scatter(
        &mut self,
        feed: &Feed,
        counts: &mut [u64],
        keys: Range<usize>,
        total: usize,
        out: &mut Grouped,
    ) -> io::Result<()> {
        if self.buf.len() < total {
            self.buf.resize(total, 0);
        }
        // Each key's count becomes its slice start, then its write cursor,
        // and ends the pass as its slice end.
        let mut at = 0;
        for c in &mut counts[keys.clone()] {
            let k = *c;
            *c = at;
            at += k;
        }
        let buf = &mut self.buf;
        feed.each(|k, v| {
            let c = &mut counts[k as usize];
            buf[*c as usize] = v;
            *c += 1;
            Ok(())
        })?;
        // Sort each key's slice and compact its unique values to the
        // front of the block, so the section takes one write.
        let (mut start, mut kept) = (0, 0);
        for &end in &counts[keys] {
            let end = end as usize;
            buf[start..end].sort_unstable();
            let first = kept;
            for i in start..end {
                if i == start || buf[i] != buf[i - 1] {
                    buf[kept] = buf[i];
                    kept += 1;
                }
            }
            out.key(kept - first);
            start = end;
        }
        out.values(&buf[..kept])
    }

    /// One key with more raw records than the block: its values are
    /// deduplicated in a bitmap and emitted in order, a block at a time.
    fn dedup_oversize(
        &mut self,
        feed: &Feed,
        universe: usize,
        out: &mut Grouped,
    ) -> io::Result<()> {
        if self.seen.len() < universe.div_ceil(64) {
            self.seen.resize(universe.div_ceil(64), 0);
        }
        let seen = &mut self.seen;
        let words = {
            let (mut lo, mut hi) = (usize::MAX, 0);
            feed.each(|_, v| {
                let w = v as usize / 64;
                seen[w] |= 1 << (v % 64);
                lo = lo.min(w);
                hi = hi.max(w + 1);
                Ok(())
            })?;
            lo.min(hi)..hi
        };
        if self.buf.len() < self.cap {
            self.buf.resize(self.cap, 0);
        }
        let (mut fill, mut unique) = (0, 0);
        for w in words {
            let mut bits = std::mem::take(&mut seen[w]);
            while bits != 0 {
                if fill == self.cap {
                    out.values(&self.buf)?;
                    unique += fill;
                    fill = 0;
                }
                self.buf[fill] = (w * 64) as u32 + bits.trailing_zeros();
                fill += 1;
                bits &= bits - 1;
            }
        }
        out.values(&self.buf[..fill])?;
        out.key(unique + fill);
        Ok(())
    }

    /// Splits a stream too large for the block into at most [`MAX_FANIN`]
    /// key ranges, writes one partition file per range in a single read of
    /// the stream, then groups each file in key order.
    fn partition(
        &mut self,
        feed: &Feed,
        counts: &mut [u64],
        keys: Range<usize>,
        universe: usize,
        out: &mut Grouped,
    ) -> io::Result<()> {
        let ranges = split_keys(counts, keys, self.cap as u64);
        let starts: Vec<u32> = ranges.iter().map(|r| r.start as u32).collect();
        // The block is idle while partitioning; its bytes buffer the writers.
        let io_buf = (self.cap * 4 / ranges.len()).clamp(4096, RECORD_IO_BUF);
        let mut paths = Vec::with_capacity(ranges.len());
        let mut writers = Vec::with_capacity(ranges.len());
        for _ in &ranges {
            let path = self.dir.join(format!("part{:06}", self.parts));
            self.parts += 1;
            writers.push(RecordWriter::create(&path, io_buf)?);
            paths.push(path);
        }
        feed.each(|k, v| writers[starts.partition_point(|&s| s <= k) - 1].push((k, v)))?;
        for w in writers {
            w.finish()?;
        }
        for (range, path) in ranges.into_iter().zip(paths) {
            self.group(&Feed::Part(path), counts, range, universe, out)?;
        }
        Ok(())
    }
}

/// Splits `keys` into at most [`MAX_FANIN`] consecutive ranges holding at
/// most `max(cap, total / MAX_FANIN)` raw records each, unless a range is
/// a single key; the target doubles until the split fits the fan-in.
/// With two or more keys and `total > cap`, there are at least two ranges.
fn split_keys(counts: &[u64], keys: Range<usize>, cap: u64) -> Vec<Range<usize>> {
    let total: u64 = counts[keys.clone()].iter().sum();
    let mut target = cap.max(total.div_ceil(MAX_FANIN as u64));
    loop {
        let mut ranges = Vec::new();
        let (mut start, mut acc) = (keys.start, 0);
        for k in keys.clone() {
            if acc + counts[k] > target && k > start {
                ranges.push(start..k);
                start = k;
                acc = 0;
            }
            acc += counts[k];
        }
        ranges.push(start..keys.end);
        if ranges.len() <= MAX_FANIN {
            return ranges;
        }
        target *= 2;
    }
}

/// The receiving end of one key-grouped stream: values go into the open
/// snapshot section, and each key's end into the section's offsets.
struct Grouped<'a> {
    snap: &'a mut SnapshotFile,
    offsets: Vec<u64>,
}

impl Grouped<'_> {
    /// Writes values of the keys closed so far, in key order.
    fn values(&mut self, values: &[u32]) -> io::Result<()> {
        self.snap.write_u32s(values)
    }

    /// Closes the next key, which holds `len` values.
    fn key(&mut self, len: usize) {
        let end = self.offsets[self.offsets.len() - 1] + len as u64;
        self.offsets.push(end);
    }
}

/// A v3 snapshot being written section by section in file order. Each
/// section is hashed as it is written; skipped bytes (alignment gaps, and
/// an offsets section until it is filled in) read as zeros.
struct SnapshotFile {
    f: BufWriter<File>,
    pos: u64,
    /// `(offset, len)` of every finished section.
    extents: [(u64, u64); SECTION_COUNT],
    sums: [u64; SECTION_COUNT],
    hash: Fnv1a64,
    bytes: Vec<u8>,
}

impl SnapshotFile {
    /// Creates the file, positioned after the header and directory.
    fn create(path: &Path) -> io::Result<SnapshotFile> {
        let mut snap = SnapshotFile {
            f: BufWriter::with_capacity(RECORD_IO_BUF, File::create(path)?),
            pos: 0,
            extents: [(0, 0); SECTION_COUNT],
            sums: [0; SECTION_COUNT],
            hash: Fnv1a64::new(),
            bytes: Vec::new(),
        };
        snap.seek((layout::HEADER_LEN + layout::DIR_LEN) as u64)?;
        Ok(snap)
    }

    fn seek(&mut self, at: u64) -> io::Result<()> {
        if at != self.pos {
            self.f.seek(SeekFrom::Start(at))?;
            self.pos = at;
        }
        Ok(())
    }

    /// Starts section `s` at the next aligned position.
    fn begin(&mut self, s: Section) -> io::Result<()> {
        self.seek(layout::align_up(self.pos))?;
        self.extents[s.index()].0 = self.pos;
        self.hash = Fnv1a64::new();
        Ok(())
    }

    fn end(&mut self, s: Section) {
        let e = &mut self.extents[s.index()];
        e.1 = self.pos - e.0;
        self.sums[s.index()] = self.hash.finish();
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.f.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn write_u32s(&mut self, values: &[u32]) -> io::Result<()> {
        let mut bytes = std::mem::take(&mut self.bytes);
        for chunk in values.chunks(RECORD_IO_BUF / 4) {
            bytes.clear();
            bytes.extend(chunk.iter().flat_map(|v| v.to_le_bytes()));
            self.write(&bytes)?;
        }
        self.bytes = bytes;
        Ok(())
    }

    /// Writes one key-grouped stream: the offsets section `table`, then
    /// the payload section after it. The offsets are known only once the
    /// payload is written, so the table is skipped and filled in after.
    fn grouped(
        &mut self,
        table: Section,
        blocks: &mut Blocks,
        feed: &Feed,
        mut counts: Vec<u64>,
        universe: usize,
    ) -> io::Result<Vec<u64>> {
        let payload = SECTIONS[table.index() + 1];
        let table_at = layout::align_up(self.pos);
        self.seek(table_at + (counts.len() as u64 + 1) * 8)?;
        self.begin(payload)?;
        let keys = 0..counts.len();
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        offsets.push(0);
        let mut out = Grouped {
            snap: self,
            offsets,
        };
        blocks.group(feed, &mut counts, keys, universe, &mut out)?;
        let offsets = out.offsets;
        self.end(payload);
        let end = self.pos;
        self.seek(table_at)?;
        self.begin(table)?;
        for &o in &offsets {
            self.write(&o.to_le_bytes())?;
        }
        self.end(table);
        self.seek(end)?;
        Ok(offsets)
    }

    /// Writes the directory and header, sets the file to its exact length,
    /// fsyncs and renames `partial` onto `out`. The result is
    /// byte-identical to `write_atomic(out, &encode(graph))` for the
    /// equivalent graph.
    fn commit(mut self, counts: Counts, partial: &Path, out: &Path) -> io::Result<()> {
        let interner_len = self.extents[Section::Interner.index()].1;
        let lay = layout::layout(counts, interner_len);
        // The sections were placed as they came; the header must describe
        // exactly that file.
        for s in SECTIONS {
            let e = lay.extents[s.index()];
            assert_eq!((e.offset, e.len), self.extents[s.index()], "{}", s.name());
        }
        let mut head = Vec::with_capacity(layout::HEADER_LEN + layout::DIR_LEN);
        head.extend_from_slice(scpm_graph::snapshot::MAGIC);
        head.extend_from_slice(&scpm_graph::snapshot::VERSION.to_le_bytes());
        head.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
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
            head.extend_from_slice(&self.sums[s.index()].to_le_bytes());
        }
        let mut h = Fnv1a64::new();
        h.update(&head[..layout::HEADER_CHECKSUM_OFFSET]);
        h.update(&head[DIR_OFFSET..]);
        let sum = h.finish();
        head[layout::HEADER_CHECKSUM_OFFSET..DIR_OFFSET].copy_from_slice(&sum.to_le_bytes());

        self.seek(0)?;
        self.f.write_all(&head)?;
        let f = self.f.into_inner().map_err(|e| e.into_error())?;
        // An empty last section can end in a skipped alignment gap.
        f.set_len(lay.total_len)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(partial, out)?;
        if let Some(parent) = out.parent() {
            if let Ok(dir) = File::open(parent) {
                dir.sync_all().ok();
            }
        }
        Ok(())
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
        assert_eq!(report.parse, reference.report.parse);
        for left in ["external.snap.oocore-tmp", "external.snap.tmp"] {
            assert!(!dir.join(left).exists(), "{left} left behind");
        }
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
        // A budget far below MIN_BLOCK_RECORDS * 4: the block sits at its
        // floor capacity, so the edge stream is partitioned by key range.
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

    /// Writes a generated source: `edges` pseudo-random edge lines over
    /// `vertices` vertices (named by `name`), a hub whose edge lines reach
    /// every vertex and repeat with duplicates past the block floor, and
    /// three attributes per vertex, one of them shared by all and listed
    /// twice on every tenth vertex.
    fn hub_source(vertices: u32, edges: u32, name: impl Fn(u32) -> String) -> (String, String) {
        let mut text = String::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..edges {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (u, v) = (
                (state % vertices as u64) as u32,
                ((state >> 32) % vertices as u64) as u32,
            );
            text.push_str(&format!("{} {}\n", name(u), name(v)));
        }
        let hub = vertices / 2;
        for k in 0..(vertices + MIN_BLOCK_RECORDS as u32) {
            text.push_str(&format!("{} {}\n", name(hub), name(k * 13 % vertices)));
        }
        let mut attrs = String::new();
        for v in 0..vertices {
            let twice = if v % 10 == 0 { " common" } else { "" };
            attrs.push_str(&format!(
                "{} common t{} g{}{twice}\n",
                name(v),
                v % 7,
                v % 97
            ));
        }
        (text, attrs)
    }

    /// All three streams span several blocks at the 4096-record floor, the
    /// hub's edge key and the shared attribute's key each hold more raw
    /// records than a block (the hub also more unique values), and every
    /// budget still reproduces the in-memory snapshot and report exactly,
    /// for numeric ids with gaps and for interned string ids.
    #[test]
    fn multi_block_and_oversize_keys_byte_identical() {
        let sources = [
            (
                "numeric-gaps",
                hub_source(5000, 20_000, |v| (2 * v + 1).to_string()),
            ),
            ("interned", hub_source(5000, 20_000, |v| format!("v{v}"))),
        ];
        for (name, (edges, attrs)) in sources {
            for budget in [
                1,
                64 << 10,
                4 << 20,
                ExternalOptions::default().memory_budget,
            ] {
                let dir = workdir(&format!("multi-block-{name}-{budget}"));
                roundtrip(&dir, &edges, &attrs, budget);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// Groups a generated record file through a block far smaller than
    /// the floor the ingest allows: partitions nest several levels deep,
    /// some keys exceed the block in raw and in unique records, and the
    /// emitted section still equals a sorted, deduplicated grouping, with
    /// no partition file left behind.
    #[test]
    fn nested_partitions_group_exactly() {
        let dir = workdir("nested-partitions");
        let (keys, universe) = (700usize, 300usize);
        let mut want = vec![std::collections::BTreeSet::new(); keys];
        let mut counts = vec![0u64; keys];
        let part = dir.join("records");
        let mut w = RecordWriter::create(&part, 4096).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Every fifth record goes to one of two hub keys.
            let k = if i % 5 == 0 {
                17 + 600 * (i % 2) as usize
            } else {
                (state % keys as u64) as usize
            };
            let v = ((state >> 32) % universe as u64) as u32;
            w.push((k as u32, v)).unwrap();
            counts[k] += 1;
            want[k].insert(v);
        }
        w.finish().unwrap();

        for cap in [1, 5, 64, 1000] {
            let snap_path = dir.join("grouped.snap");
            let mut snap = SnapshotFile::create(&snap_path).unwrap();
            let mut blocks = Blocks::new(&dir, cap);
            let copy = dir.join("feed");
            std::fs::copy(&part, &copy).unwrap();
            let offsets = snap
                .grouped(
                    Section::CsrOffsets,
                    &mut blocks,
                    &Feed::Part(copy),
                    counts.clone(),
                    universe,
                )
                .unwrap();
            drop(snap);
            let bytes = std::fs::read(&snap_path).unwrap();
            let (at, _) = {
                let e = layout::layout(
                    Counts {
                        n: keys as u64,
                        m: 0,
                        a: 0,
                        pairs: 0,
                    },
                    0,
                )
                .extents[Section::CsrEdges.index()];
                (e.offset as usize, e.len)
            };
            let values: Vec<u32> = bytes[at..]
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            for (k, set) in want.iter().enumerate() {
                let got = &values[offsets[k] as usize..offsets[k + 1] as usize];
                assert!(got.iter().eq(set.iter()), "cap {cap}: key {k}");
            }
            assert_eq!(offsets[keys] as usize, values.len(), "cap {cap}");
            if cap <= 64 {
                assert!(
                    blocks.parts > MAX_FANIN,
                    "cap {cap}: partitions did not nest"
                );
            }
            let mut left: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            left.sort();
            assert_eq!(left, ["grouped.snap", "records"], "cap {cap}");
            std::fs::remove_file(&snap_path).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `temp_dir` on another filesystem than `out` must work: the logs
    /// live there, but the snapshot is written and renamed within `out`'s
    /// own directory. Skips itself where no two filesystems are at hand.
    #[test]
    fn temp_dir_on_another_filesystem() {
        use std::os::unix::fs::MetadataExt;
        let dir = workdir("cross-device");
        let shm = Path::new("/dev/shm");
        let dev = |p: &Path| std::fs::metadata(p).map(|m| m.dev()).ok();
        if dev(shm).is_none() || dev(shm) == dev(&dir) {
            eprintln!(
                "skipped: {} and {} share a device",
                shm.display(),
                dir.display()
            );
            return;
        }
        let temp = shm.join(format!("scpm_external_ingest_{}", std::process::id()));
        std::fs::create_dir_all(&temp).unwrap();
        let edges = dir.join("g.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n").unwrap();
        let attrs = dir.join("g.attrs");
        std::fs::write(&attrs, "0 db\n3 db ml\n").unwrap();
        let opts = IngestOptions::default();
        let out = dir.join("g.snap");
        let result = ingest_files_external(
            SourceFormat::EdgeList,
            &edges,
            Some(&attrs),
            &opts,
            &ExternalOptions {
                memory_budget: 1,
                temp_dir: Some(temp.clone()),
            },
            &out,
        );
        let left: Vec<_> = std::fs::read_dir(&temp).unwrap().collect();
        std::fs::remove_dir_all(&temp).ok();
        result.unwrap();
        assert!(left.is_empty(), "{left:?} left in temp_dir");
        let reference = ingest_files(SourceFormat::EdgeList, &edges, Some(&attrs), &opts).unwrap();
        let ref_snap = dir.join("reference.snap");
        scpm_graph::snapshot::save_snapshot(&reference.graph, &ref_snap).unwrap();
        assert_paths_identical(&ref_snap, &out);
        assert!(!dir.join("g.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
