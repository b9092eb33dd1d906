//! Versioned, checksummed binary snapshot format for attributed graphs.
//!
//! The synthetic datasets take seconds to generate at bench scale and
//! ingested real datasets take seconds to parse; the harness snapshots
//! them once and reloads in milliseconds. The current format (**version
//! 3**) is a little-endian, *sectioned* layout designed to be readable
//! zero-copy from a memory map: a fixed 64-byte header, a section
//! directory, and seven 64-byte-aligned sections (CSR offsets, CSR edge
//! lists, vertex→attribute table, inverted index, attribute-name
//! interner), each carrying its own FNV-1a 64 checksum in the directory.
//! The byte-exact normative spec lives in [`layout`] and `docs/DATASETS.md`.
//!
//! Two readers share the format:
//!
//! * [`decode`] — the owned-buffer path: validates every section eagerly
//!   and materializes an [`AttributedGraph`].
//! * [`MappedSnapshot`] — the zero-copy path: memory-maps the file and
//!   validates checksums *lazily per section*, on first touch, so opening
//!   a multi-gigabyte snapshot costs one header check.
//!
//! Both readers accept version 3 only. Older files (version 1, and the
//! pre-mmap version 2 layout) fail with [`SnapshotError::BadVersion`];
//! the dataset cache regenerates them because [`VERSION`] is part of its
//! fingerprint, and other snapshots are re-ingested from their sources.
//!
//! Decoding is defensive in layers: the magic rejects foreign files, the
//! version rejects other revisions, the header checksum covers the directory
//! (and therefore every section checksum), section checksums reject bit
//! rot, zero-fill verification covers the alignment padding, and the
//! structural pass re-checks every length and id range anyway (defense in
//! depth: a file with a *forged* checksum still cannot make the decoder
//! panic). Failures return a [`SnapshotError`]; the failure-injection
//! tests feed truncated and corrupted buffers through both readers.

use bytes::{BufMut, Bytes, BytesMut};
use std::path::Path;

use crate::attributed::AttributedGraph;
use crate::csr::CsrGraph;

pub mod layout;
mod mapped;

pub use mapped::MappedSnapshot;

use layout::{Counts, Layout, Section, DIR_ENTRY_LEN, DIR_LEN, DIR_OFFSET, HEADER_LEN, SECTIONS};

/// The 8-byte file magic every snapshot version starts with.
pub const MAGIC: &[u8; 8] = b"SCPMSNAP";

/// The snapshot format version, the only one this build reads. Decoding
/// any other version (1 unchecksummed, 2 the pre-mmap layout) fails with
/// [`SnapshotError::BadVersion`] so callers (the dataset cache,
/// `scpm ingest`) regenerate.
pub const VERSION: u32 = 3;

/// Streaming FNV-1a 64-bit hasher — the snapshot checksum function in
/// incremental form, used by the external (bounded-memory) ingest writer
/// to checksum sections while spooling them to disk.
///
/// ```
/// use scpm_graph::snapshot::{fnv1a64, Fnv1a64};
/// let mut h = Fnv1a64::new();
/// h.update(b"sc");
/// h.update(b"pm");
/// assert_eq!(h.finish(), fnv1a64(b"scpm"));
/// ```
#[derive(Clone, Debug)]
pub struct Fnv1a64 {
    h: u64,
}

impl Fnv1a64 {
    /// A fresh hasher (FNV offset basis).
    pub fn new() -> Self {
        Fnv1a64 {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.h = h;
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// FNV-1a 64-bit hash — the snapshot checksum function, also used by the
/// dataset cache to fingerprint source files.
///
/// ```
/// use scpm_graph::snapshot::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"scpm"), fnv1a64(b"scpn"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Errors produced while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic (a foreign file).
    BadMagic,
    /// Unsupported format version (a stale file from another revision).
    BadVersion(u32),
    /// A stored checksum does not match the content (a section or the
    /// header).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// The buffer ended before the declared content.
    Truncated {
        /// What the decoder was reading.
        reading: &'static str,
    },
    /// Bytes remain after the declared content (corrupt or concatenated).
    TrailingData {
        /// Number of unconsumed payload bytes.
        bytes: usize,
    },
    /// An id exceeded its declared range, or a structural invariant
    /// (sortedness, symmetry, transpose consistency, zeroed padding) broke.
    OutOfRange {
        /// What the decoder was reading.
        reading: &'static str,
        /// The offending value.
        value: u64,
    },
    /// An attribute name was not valid UTF-8.
    BadName,
    /// Underlying I/O failure (file variants only).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a scpm snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this build reads version {VERSION} only; \
                 re-ingest the graph to rewrite it)"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Truncated { reading } => {
                write!(f, "snapshot truncated while reading {reading}")
            }
            SnapshotError::TrailingData { bytes } => {
                write!(
                    f,
                    "snapshot has {bytes} trailing bytes after declared content"
                )
            }
            SnapshotError::OutOfRange { reading, value } => {
                write!(f, "snapshot {reading} value {value} out of range")
            }
            SnapshotError::BadName => write!(f, "attribute name is not valid UTF-8"),
            SnapshotError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

/// One parsed directory entry of a v3 snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) checksum: u64,
}

/// Total interner payload length for a graph (`Σ (4 + name_len)`).
fn interner_len(g: &AttributedGraph) -> u64 {
    (0..g.num_attributes() as u32)
        .map(|x| 4 + g.attr_name(x).len() as u64)
        .sum()
}

/// Encodes an attributed graph into a **v3** snapshot buffer.
pub fn encode(g: &AttributedGraph) -> Bytes {
    let n = g.num_vertices();
    let a = g.num_attributes();
    let counts = Counts {
        n: n as u64,
        m: g.num_edges() as u64,
        a: a as u64,
        pairs: (0..n as u32).map(|v| g.attributes_of(v).len() as u64).sum(),
    };
    let lay = layout::layout(counts, interner_len(g));
    let mut buf = BytesMut::with_capacity(lay.total_len as usize);

    // Header with a checksum placeholder, patched at the end.
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(layout::SECTION_COUNT as u32);
    buf.put_u64_le(counts.n);
    buf.put_u64_le(counts.m);
    buf.put_u64_le(counts.a);
    buf.put_u64_le(counts.pairs);
    buf.put_u64_le(lay.total_len);
    buf.put_u64_le(0); // header checksum placeholder

    // Directory with checksum placeholders, patched after the sections.
    for s in SECTIONS {
        let e = lay.extents[s.index()];
        buf.put_u32_le(s as u32);
        buf.put_u32_le(0); // reserved
        buf.put_u64_le(e.offset);
        buf.put_u64_le(e.len);
        buf.put_u64_le(0); // section checksum placeholder
    }
    debug_assert_eq!(buf.len(), HEADER_LEN + DIR_LEN);

    let mut checksums = [0u64; layout::SECTION_COUNT];
    for s in SECTIONS {
        let e = lay.extents[s.index()];
        buf.resize(e.offset as usize, 0); // zero-fill alignment padding
        match s {
            Section::CsrOffsets => {
                let mut off = 0u64;
                buf.put_u64_le(0);
                for v in 0..n as u32 {
                    off += g.graph().degree(v) as u64;
                    buf.put_u64_le(off);
                }
            }
            Section::CsrEdges => {
                for v in 0..n as u32 {
                    for &u in g.graph().neighbors(v) {
                        buf.put_u32_le(u);
                    }
                }
            }
            Section::AttrOffsets => {
                let mut off = 0u64;
                buf.put_u64_le(0);
                for v in 0..n as u32 {
                    off += g.attributes_of(v).len() as u64;
                    buf.put_u64_le(off);
                }
            }
            Section::VertexAttrs => {
                for v in 0..n as u32 {
                    for &x in g.attributes_of(v) {
                        buf.put_u32_le(x);
                    }
                }
            }
            Section::InvOffsets => {
                let mut off = 0u64;
                buf.put_u64_le(0);
                for x in 0..a as u32 {
                    off += g.support(x) as u64;
                    buf.put_u64_le(off);
                }
            }
            Section::InvVertices => {
                for x in 0..a as u32 {
                    for &v in g.vertices_with(x) {
                        buf.put_u32_le(v);
                    }
                }
            }
            Section::Interner => {
                for x in 0..a as u32 {
                    let name = g.attr_name(x).as_bytes();
                    buf.put_u32_le(name.len() as u32);
                    buf.put_slice(name);
                }
            }
        }
        debug_assert_eq!(buf.len() as u64, e.offset + e.len, "{}", s.name());
        checksums[s.index()] = fnv1a64(&buf[e.offset as usize..]);
    }
    debug_assert_eq!(buf.len() as u64, lay.total_len);

    // Patch section checksums into the directory, then the header checksum
    // over header + directory.
    for s in SECTIONS {
        let at = DIR_OFFSET + s.index() * DIR_ENTRY_LEN + 24;
        buf[at..at + 8].copy_from_slice(&checksums[s.index()].to_le_bytes());
    }
    let header_sum = header_checksum(&buf);
    let at = layout::HEADER_CHECKSUM_OFFSET;
    buf[at..at + 8].copy_from_slice(&header_sum.to_le_bytes());
    buf.freeze()
}

/// The v3 header checksum: FNV-1a 64 over the header bytes before the
/// checksum field, then the whole directory.
pub(crate) fn header_checksum(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&data[..layout::HEADER_CHECKSUM_OFFSET]);
    h.update(&data[DIR_OFFSET..DIR_OFFSET + DIR_LEN]);
    h.finish()
}

/// Decodes a snapshot buffer into an attributed graph.
///
/// Runs the sectioned validation eagerly (magic and version, header
/// checksum, per-section checksums, padding zero-fill, structural pass),
/// outside-in, then materializes the graph without re-sorting anything.
/// A forged checksum cannot make the decoder panic.
///
/// ```
/// use scpm_graph::snapshot::{decode, encode};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// let bytes = encode(&g);
/// let g2 = decode(&bytes).unwrap();
/// assert_eq!(g2.num_vertices(), g.num_vertices());
/// assert_eq!(g2.num_edges(), g.num_edges());
/// ```
pub fn decode(data: impl AsRef<[u8]>) -> Result<AttributedGraph, SnapshotError> {
    let data = data.as_ref();
    let (counts, lay, dir) = parse_v3_header(data)?;
    for s in SECTIONS {
        check_v3_section(data, counts, &lay, &dir, s)?;
    }
    Ok(materialize_v3(data, counts, &lay))
}

/// Parses and verifies a v3 header + directory: magic, version, length,
/// section count, header checksum (which covers the directory and
/// therefore every section checksum), declared-vs-actual total length,
/// and directory consistency with the canonical layout. Both readers
/// start here.
pub(crate) fn parse_v3_header(
    data: &[u8],
) -> Result<(Counts, Layout, [DirEntry; layout::SECTION_COUNT]), SnapshotError> {
    if data.len() < MAGIC.len() {
        // Too short to even carry the magic: classify by what we can see.
        if data == &MAGIC[..data.len()] {
            return Err(SnapshotError::Truncated { reading: "header" });
        }
        return Err(SnapshotError::BadMagic);
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if data.len() < 12 {
        return Err(SnapshotError::Truncated { reading: "header" });
    }
    let version = layout::u32_at(data, 8);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if data.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated { reading: "header" });
    }
    let section_count = layout::u32_at(data, 12);
    if section_count as usize != layout::SECTION_COUNT {
        return Err(SnapshotError::OutOfRange {
            reading: "section count",
            value: section_count as u64,
        });
    }
    if data.len() < HEADER_LEN + DIR_LEN {
        return Err(SnapshotError::Truncated {
            reading: "section directory",
        });
    }
    let stored = layout::u64_at(data, layout::HEADER_CHECKSUM_OFFSET);
    let computed = header_checksum(data);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let counts = Counts {
        n: layout::u64_at(data, 16),
        m: layout::u64_at(data, 24),
        a: layout::u64_at(data, 32),
        pairs: layout::u64_at(data, 40),
    };
    if counts.n > u32::MAX as u64 {
        return Err(SnapshotError::OutOfRange {
            reading: "vertex count",
            value: counts.n,
        });
    }
    if counts.a > u32::MAX as u64 {
        return Err(SnapshotError::OutOfRange {
            reading: "attribute count",
            value: counts.a,
        });
    }
    // Bound m and pairs so the layout arithmetic below cannot overflow;
    // the exact total-length check makes tighter bounds redundant.
    if counts.m > u64::MAX / 16 || counts.pairs > u64::MAX / 16 {
        return Err(SnapshotError::OutOfRange {
            reading: "edge or pair count",
            value: counts.m.max(counts.pairs),
        });
    }
    let total_len = layout::u64_at(data, 48);
    if (data.len() as u64) < total_len {
        return Err(SnapshotError::Truncated {
            reading: "sections",
        });
    }
    if data.len() as u64 > total_len {
        return Err(SnapshotError::TrailingData {
            bytes: data.len() - total_len as usize,
        });
    }

    let mut dir = [DirEntry {
        offset: 0,
        len: 0,
        checksum: 0,
    }; layout::SECTION_COUNT];
    for s in SECTIONS {
        let at = DIR_OFFSET + s.index() * DIR_ENTRY_LEN;
        let id = layout::u32_at(data, at);
        let reserved = layout::u32_at(data, at + 4);
        if id != s as u32 || reserved != 0 {
            return Err(SnapshotError::OutOfRange {
                reading: "directory entry",
                value: id as u64,
            });
        }
        dir[s.index()] = DirEntry {
            offset: layout::u64_at(data, at + 8),
            len: layout::u64_at(data, at + 16),
            checksum: layout::u64_at(data, at + 24),
        };
    }
    // The directory must agree with the canonical layout derived from the
    // header counts (the interner's length is the one degree of freedom
    // the directory contributes).
    let lay = layout::layout(counts, dir[Section::Interner.index()].len);
    if lay.total_len != total_len {
        return Err(SnapshotError::OutOfRange {
            reading: "total length",
            value: total_len,
        });
    }
    for s in SECTIONS {
        let (e, d) = (lay.extents[s.index()], dir[s.index()]);
        if d.offset != e.offset || d.len != e.len {
            return Err(SnapshotError::OutOfRange {
                reading: "directory extent",
                value: d.offset,
            });
        }
    }
    Ok((counts, lay, dir))
}

/// Validates one v3 section: the zero-filled padding run preceding it, its
/// FNV-1a checksum, and its structural invariants. Sections with
/// structural dependencies ([`Section::CsrEdges`] on the CSR offsets,
/// [`Section::VertexAttrs`] on the attribute offsets,
/// [`Section::InvVertices`] on the other attribute sections) assume their
/// dependencies were validated first — both readers validate along
/// dependency edges before touching a section.
pub(crate) fn check_v3_section(
    data: &[u8],
    counts: Counts,
    lay: &Layout,
    dir: &[DirEntry; layout::SECTION_COUNT],
    s: Section,
) -> Result<(), SnapshotError> {
    let e = lay.extents[s.index()];
    for at in e.pad_start..e.offset {
        if data[at as usize] != 0 {
            return Err(SnapshotError::OutOfRange {
                reading: "padding byte",
                value: at,
            });
        }
    }
    let payload = &data[e.offset as usize..(e.offset + e.len) as usize];
    let computed = fnv1a64(payload);
    let stored = dir[s.index()].checksum;
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let section = |s: Section| {
        let e = lay.extents[s.index()];
        &data[e.offset as usize..(e.offset + e.len) as usize]
    };
    match s {
        Section::CsrOffsets => {
            layout::check_offsets(payload, counts.n, counts.m * 2, "csr offset")?
        }
        Section::CsrEdges => {
            layout::check_grouped_ids(
                payload,
                section(Section::CsrOffsets),
                counts.n,
                counts.n,
                true,
                "edge endpoint",
            )?;
            layout::check_edge_symmetry(payload, section(Section::CsrOffsets), counts.n)?;
        }
        Section::AttrOffsets => {
            layout::check_offsets(payload, counts.n, counts.pairs, "attr offset")?
        }
        Section::VertexAttrs => layout::check_grouped_ids(
            payload,
            section(Section::AttrOffsets),
            counts.n,
            counts.a,
            false,
            "pair attribute",
        )?,
        Section::InvOffsets => {
            layout::check_offsets(payload, counts.a, counts.pairs, "inverted offset")?
        }
        Section::InvVertices => {
            layout::check_grouped_ids(
                payload,
                section(Section::InvOffsets),
                counts.a,
                counts.n,
                false,
                "pair vertex",
            )?;
            layout::check_inverted_transpose(
                section(Section::AttrOffsets),
                section(Section::VertexAttrs),
                section(Section::InvOffsets),
                payload,
                counts.n,
                counts.a,
            )?;
        }
        Section::Interner => {
            layout::check_interner(payload, counts.a)?;
        }
    }
    Ok(())
}

/// Materializes an [`AttributedGraph`] from fully-validated v3 sections.
/// No re-sorting, no re-deduplication: the sections already hold the
/// canonical CSR arrays, so this is a straight copy.
pub(crate) fn materialize_v3(data: &[u8], counts: Counts, lay: &Layout) -> AttributedGraph {
    let section = |s: Section| {
        let e = lay.extents[s.index()];
        &data[e.offset as usize..(e.offset + e.len) as usize]
    };
    let (n, a) = (counts.n as usize, counts.a as usize);

    let csr_off = section(Section::CsrOffsets);
    let offsets: Vec<usize> = (0..=n)
        .map(|i| layout::u64_at(csr_off, i * 8) as usize)
        .collect();
    let edges_raw = section(Section::CsrEdges);
    let neighbors: Vec<u32> = (0..counts.m as usize * 2)
        .map(|i| layout::u32_at(edges_raw, i * 4))
        .collect();
    let graph = CsrGraph::from_parts(offsets, neighbors);

    let attr_off_raw = section(Section::AttrOffsets);
    let attr_offsets: Vec<usize> = (0..=n)
        .map(|i| layout::u64_at(attr_off_raw, i * 8) as usize)
        .collect();
    let va_raw = section(Section::VertexAttrs);
    let vertex_attrs: Vec<u32> = (0..counts.pairs as usize)
        .map(|i| layout::u32_at(va_raw, i * 4))
        .collect();

    let inv_off = section(Section::InvOffsets);
    let iv_raw = section(Section::InvVertices);
    let attr_vertices: Vec<Vec<u32>> = (0..a)
        .map(|x| {
            let (s0, e0) = (
                layout::u64_at(inv_off, x * 8) as usize,
                layout::u64_at(inv_off, (x + 1) * 8) as usize,
            );
            (s0..e0).map(|i| layout::u32_at(iv_raw, i * 4)).collect()
        })
        .collect();

    let spans = layout::check_interner(section(Section::Interner), counts.a)
        .expect("interner validated before materialization");
    let interner = section(Section::Interner);
    let attr_names: Vec<String> = spans
        .iter()
        .map(|&(s0, e0)| std::str::from_utf8(&interner[s0..e0]).unwrap().to_string())
        .collect();

    AttributedGraph::from_csr_parts(graph, attr_offsets, vertex_attrs, attr_vertices, attr_names)
}

/// Writes a snapshot to a file atomically (alias for
/// [`write_snapshot_atomic`]; kept as the historical name every ingest
/// path calls).
pub fn save_snapshot(g: &AttributedGraph, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    write_snapshot_atomic(g, path)
}

/// Writes a snapshot via the atomic protocol: encode, write a temp file
/// in the target directory, fsync, rename over the target. A crash at
/// any point leaves either the complete old snapshot or the complete
/// new one — `scpm update` style overwrite-in-place can no longer lose
/// the *old* graph to a torn write.
pub fn write_snapshot_atomic(
    g: &AttributedGraph,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    write_snapshot_atomic_with(&crate::fault::FaultInjector::none(), g, path.as_ref())
}

/// [`write_snapshot_atomic`] with fault injection over the four
/// durability operations (create, write, sync, rename).
pub fn write_snapshot_atomic_with(
    inj: &crate::fault::FaultInjector,
    g: &AttributedGraph,
    path: &Path,
) -> Result<(), SnapshotError> {
    crate::fault::write_atomic_with(inj, path, &encode(g))?;
    Ok(())
}

/// Loads a snapshot from a file.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<AttributedGraph, SnapshotError> {
    let data = std::fs::read(path)?;
    decode(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributed::AttributedGraphBuilder;
    use crate::figure1::figure1;

    /// Recomputes every v3 checksum (sections, then header) after a test
    /// patched payload bytes — lets tests reach the structural layer.
    fn reseal_v3(mut raw: Vec<u8>) -> Vec<u8> {
        for i in 0..layout::SECTION_COUNT {
            let at = DIR_OFFSET + i * DIR_ENTRY_LEN;
            let off = layout::u64_at(&raw, at + 8) as usize;
            let len = layout::u64_at(&raw, at + 16) as usize;
            let sum = fnv1a64(&raw[off..off + len]).to_le_bytes();
            raw[at + 24..at + 32].copy_from_slice(&sum);
        }
        let sum = header_checksum(&raw).to_le_bytes();
        let at = layout::HEADER_CHECKSUM_OFFSET;
        raw[at..at + 8].copy_from_slice(&sum);
        raw
    }

    fn extent(raw: &[u8], s: Section) -> (usize, usize) {
        let at = DIR_OFFSET + s.index() * DIR_ENTRY_LEN;
        (
            layout::u64_at(raw, at + 8) as usize,
            layout::u64_at(raw, at + 16) as usize,
        )
    }

    fn equivalent(a: &AttributedGraph, b: &AttributedGraph) -> bool {
        if a.num_vertices() != b.num_vertices()
            || a.num_edges() != b.num_edges()
            || a.num_attributes() != b.num_attributes()
        {
            return false;
        }
        for (u, v) in a.graph().edges() {
            if !b.graph().has_edge(u, v) {
                return false;
            }
        }
        for v in a.graph().vertices() {
            let na: Vec<&str> = a.attributes_of(v).iter().map(|&x| a.attr_name(x)).collect();
            let nb: Vec<&str> = b.attributes_of(v).iter().map(|&x| b.attr_name(x)).collect();
            let (mut sa, mut sb) = (na.clone(), nb.clone());
            sa.sort_unstable();
            sb.sort_unstable();
            if sa != sb {
                return false;
            }
        }
        true
    }

    #[test]
    fn roundtrip_figure1() {
        let g = figure1();
        let buf = encode(&g);
        let g2 = decode(buf).unwrap();
        assert!(equivalent(&g, &g2));
    }

    #[test]
    fn roundtrip_preserves_exact_tables() {
        // The v3 materializer copies CSR arrays verbatim; ids and orders
        // must survive exactly, not just up to equivalence.
        let g = figure1();
        let g2 = decode(encode(&g)).unwrap();
        for v in g.graph().vertices() {
            assert_eq!(g.graph().neighbors(v), g2.graph().neighbors(v));
            assert_eq!(g.attributes_of(v), g2.attributes_of(v));
        }
        for x in 0..g.num_attributes() as u32 {
            assert_eq!(g.vertices_with(x), g2.vertices_with(x));
            assert_eq!(g.attr_name(x), g2.attr_name(x));
        }
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = AttributedGraphBuilder::new(0).build();
        let g2 = decode(encode(&g)).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_attributes(), 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = figure1();
        assert_eq!(encode(&g).as_ref(), encode(&g).as_ref());
    }

    #[test]
    fn v3_sections_are_aligned() {
        let raw = encode(&figure1()).to_vec();
        for s in SECTIONS {
            let (off, _) = extent(&raw, s);
            assert_eq!(off % layout::ALIGN, 0, "{} misaligned", s.name());
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&figure1()).to_vec();
        raw[0] = b'X';
        assert!(matches!(decode(raw), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn rejects_foreign_files() {
        for foreign in [
            &b"PK\x03\x04 this is a zip, honest"[..],
            &b"{\"json\": true, \"padding\": \"padding padding\"}"[..],
            &b"v 3\ne 0 1\ne 1 2\na 0 red blue\n"[..],
            &[0u8; 64][..],
        ] {
            assert!(
                matches!(decode(foreign), Err(SnapshotError::BadMagic)),
                "foreign input accepted: {foreign:?}"
            );
        }
    }

    #[test]
    fn rejects_stale_version_1() {
        // Version 1 (unchecksummed) and version 2 (the pre-mmap layout)
        // are both stale: every reader refuses them with the same error,
        // and the message names the readable version and the remedy.
        // The stale inputs are v3 encodings with the version word patched.
        let dir = std::env::temp_dir().join("scpm_snapshot_stale_test");
        std::fs::create_dir_all(&dir).unwrap();
        for stale in [1u32, 2] {
            let mut raw = encode(&figure1()).to_vec();
            raw[8..12].copy_from_slice(&stale.to_le_bytes());
            let path = dir.join(format!("v{stale}.snap"));
            std::fs::write(&path, &raw).unwrap();
            let errors = [
                decode(&raw).err(),
                load_snapshot(&path).err(),
                MappedSnapshot::from_bytes(&raw).err(),
                MappedSnapshot::open(&path).err(),
            ];
            for (reader, e) in errors.into_iter().enumerate() {
                assert_eq!(e, Some(SnapshotError::BadVersion(stale)), "reader {reader}");
                let msg = e.unwrap().to_string();
                assert!(msg.contains(&format!("version {stale}")), "{msg}");
                assert!(msg.contains("reads version 3 only"), "{msg}");
                assert!(msg.contains("re-ingest"), "{msg}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn rejects_future_version() {
        let mut raw = encode(&figure1()).to_vec();
        raw[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode(raw), Err(SnapshotError::BadVersion(99))));
    }

    #[test]
    fn bit_flips_anywhere_fail_a_checksum_or_check() {
        let raw = encode(&figure1()).to_vec();
        // Flip one bit at a sample of offsets past the version word: the
        // header checksum, a section checksum, or the padding zero-fill
        // check must catch every one of them.
        for off in (12..raw.len()).step_by(7) {
            let mut bad = raw.clone();
            bad[off] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {off} not caught");
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let raw = encode(&figure1()).to_vec();
        // Any strict prefix must fail (never panic): short prefixes as
        // magic/header truncation, longer ones via the total-length check.
        for cut in 0..raw.len() {
            let r = decode(&raw[..cut]);
            assert!(
                matches!(
                    r,
                    Err(SnapshotError::Truncated { .. })
                        | Err(SnapshotError::BadMagic)
                        | Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "cut at {cut} gave {r:?}"
            );
        }
    }

    #[test]
    fn single_byte_flips_at_every_offset_fail_cleanly() {
        // A flip at EVERY byte offset (header, directory, padding,
        // sections) must return a clean SnapshotError — never a panic,
        // never a silent accept. This is the coverage a whole-body
        // checksum would give, proven for the per-section scheme.
        let raw = encode(&figure1()).to_vec();
        for off in 0..raw.len() {
            let mut bad = raw.clone();
            bad[off] ^= 0x01;
            let r = decode(&bad);
            assert!(r.is_err(), "flip at {off} was accepted");
        }
    }

    #[test]
    fn atomic_write_survives_injected_faults_without_tearing() {
        use crate::fault::{FaultInjector, FaultMode, FaultPlan};
        let g = figure1();
        let dir = std::env::temp_dir().join("scpm_snapshot_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        save_snapshot(&g, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Grow the graph so the new snapshot differs, then fail every
        // durability op in turn: the file must always read back as the
        // complete old snapshot.
        let g2 = crate::delta::GraphDelta::parse("v 1\ne 0 11\n")
            .unwrap()
            .apply(&g)
            .unwrap()
            .graph;
        for op in 0..4 {
            let inj = FaultInjector::plan(FaultPlan {
                op_index: op,
                mode: FaultMode::Crash,
            });
            assert!(write_snapshot_atomic_with(&inj, &g2, &path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), before, "op {op} tore");
            assert!(load_snapshot(&path).is_ok());
            let _ = std::fs::remove_file(dir.join("g.snap.tmp"));
        }
        write_snapshot_atomic(&g2, &path).unwrap();
        assert!(equivalent(&load_snapshot(&path).unwrap(), &g2));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = encode(&figure1()).to_vec();
        raw.extend_from_slice(b"tail");
        // The header's exact total length catches appended bytes even
        // though no checksum covers them.
        assert!(matches!(
            decode(&raw),
            Err(SnapshotError::TrailingData { bytes: 4 })
        ));
    }

    #[test]
    fn resealing_cannot_hide_trailing_garbage() {
        // Appending bytes and recomputing every checksum still fails: the
        // header states the exact file length.
        let mut raw = encode(&figure1()).to_vec();
        raw.extend_from_slice(&[0u8; 6]);
        let raw = reseal_v3(raw);
        assert!(matches!(
            decode(&raw),
            Err(SnapshotError::TrailingData { bytes: 6 })
        ));
    }

    #[test]
    fn structural_check_rejects_out_of_range_edge_behind_valid_checksums() {
        let raw = encode(&figure1()).to_vec();
        let (off, len) = extent(&raw, Section::CsrEdges);
        assert!(len >= 4);
        let mut bad = raw.clone();
        bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let bad = reseal_v3(bad);
        assert!(matches!(
            decode(&bad),
            Err(SnapshotError::OutOfRange { .. })
        ));
    }

    #[test]
    fn structural_check_rejects_asymmetric_edges_behind_valid_checksums() {
        // Redirect vertex 0's first neighbor to a valid-but-unmirrored
        // endpoint: if ids stay in range and sortedness holds, only the
        // symmetry check can catch it (any failing layer is acceptable).
        let g = figure1();
        let raw = encode(&g).to_vec();
        let (off, _) = extent(&raw, Section::CsrEdges);
        let first = layout::u32_at(&raw, off);
        let n = g.num_vertices() as u32;
        let replacement = (1..n)
            .find(|&v| v != first && !g.graph().has_edge(0, v))
            .expect("figure 1 is not complete");
        let mut bad = raw.clone();
        bad[off..off + 4].copy_from_slice(&replacement.to_le_bytes());
        let bad = reseal_v3(bad);
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn structural_check_rejects_invalid_utf8_name_behind_valid_checksums() {
        let raw = encode(&figure1()).to_vec();
        let (off, _) = extent(&raw, Section::Interner);
        let mut bad = raw.clone();
        bad[off + 4] = 0xFF; // first byte of the first name
        let bad = reseal_v3(bad);
        assert!(matches!(decode(&bad), Err(SnapshotError::BadName)));
    }

    #[test]
    fn structural_check_rejects_inconsistent_inverted_index() {
        // Replace the first inverted entry with a vertex that does NOT
        // carry attribute 0: range validity holds, so the transpose check
        // (or sortedness) must fire.
        let g = figure1();
        let raw = encode(&g).to_vec();
        let (off, len) = extent(&raw, Section::InvVertices);
        assert!(len >= 4);
        let v = layout::u32_at(&raw, off);
        let n = g.num_vertices() as u32;
        if let Some(w) = (0..n).find(|&w| !g.attributes_of(w).contains(&0) && w != v) {
            let mut bad = raw.clone();
            bad[off..off + 4].copy_from_slice(&w.to_le_bytes());
            let bad = reseal_v3(bad);
            assert!(decode(&bad).is_err());
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = figure1();
        let dir = std::env::temp_dir().join("scpm_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.snap");
        save_snapshot(&g, &path).unwrap();
        let g2 = load_snapshot(&path).unwrap();
        assert!(equivalent(&g, &g2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = load_snapshot("/nonexistent/path/to/snapshot.snap");
        assert!(matches!(r, Err(SnapshotError::Io(_))));
    }
}
