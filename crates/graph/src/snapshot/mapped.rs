//! Zero-copy snapshot reader over a memory map.
//!
//! [`MappedSnapshot`] opens a v3 snapshot file through the `memmap2` shim
//! and serves the CSR arrays, attribute tables and interner directly out
//! of the mapping — no decode pass, no heap copy of the payload. Section
//! checksums (and the structural invariants behind them) are validated
//! **lazily, per section, on first touch**, so opening a multi-gigabyte
//! snapshot costs one header+directory check and the out-of-core mining
//! driver only ever pays for the sections (and pages) it actually reads.
//!
//! Opening shares the owned decoder's header check (magic, version,
//! header checksum, directory), so both readers reject foreign, stale and
//! corrupt-header files with the same [`SnapshotError`].
//!
//! All numeric accessors hand out `&[u32]`/`&[u64]` slices cast straight
//! from the mapping on little-endian targets (every section offset is
//! 64-byte aligned and the mapping base is page- or word-aligned, so the
//! casts are always in-bounds and aligned). On big-endian targets the
//! sections are converted once into cached heap vectors — same API,
//! no zero-copy.

use std::fs::File;
use std::path::Path;
use std::sync::OnceLock;

use super::layout::{self, Counts, Layout, Section, SECTIONS};
use super::{check_v3_section, materialize_v3, parse_v3_header, DirEntry, SnapshotError};
use crate::attributed::AttributedGraph;
use crate::csr::VertexId;

/// An 8-byte-aligned owned byte buffer (backed by `u64` words) — the
/// backing for in-memory buffers.
#[derive(Debug)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the word buffer spans at least `len` bytes.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        dst[..len].copy_from_slice(bytes);
        AlignedBuf { words, len }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        // SAFETY: the word buffer holds at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

#[derive(Debug)]
enum Backing {
    Mapped(memmap2::Mmap),
    Owned(AlignedBuf),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m.as_slice(),
            Backing::Owned(b) => b.as_slice(),
        }
    }
}

/// A v3 snapshot opened for zero-copy reading, with lazy per-section
/// checksum + structural validation.
///
/// ```
/// use scpm_graph::figure1::figure1;
/// use scpm_graph::snapshot::{encode, MappedSnapshot};
///
/// let g = figure1();
/// let snap = MappedSnapshot::from_bytes(&encode(&g)).unwrap();
/// assert_eq!(snap.num_vertices(), g.num_vertices());
/// assert_eq!(snap.neighbors(0).unwrap(), g.graph().neighbors(0));
/// ```
#[derive(Debug)]
pub struct MappedSnapshot {
    backing: Backing,
    counts: Counts,
    lay: Layout,
    dir: [DirEntry; layout::SECTION_COUNT],
    /// Lazy per-section validation results, fixed after first touch.
    checks: [OnceLock<Result<(), SnapshotError>>; layout::SECTION_COUNT],
    /// Byte spans of each attribute name within the interner section,
    /// built on first name lookup (after the interner validates).
    name_spans: OnceLock<Vec<(usize, usize)>>,
    /// Big-endian fallback: per-section converted vectors.
    #[cfg(not(target_endian = "little"))]
    be_u64: [OnceLock<Vec<u64>>; layout::SECTION_COUNT],
    #[cfg(not(target_endian = "little"))]
    be_u32: [OnceLock<Vec<u32>>; layout::SECTION_COUNT],
}

impl MappedSnapshot {
    /// Opens a snapshot file for zero-copy reading: the file is
    /// memory-mapped and only the header + directory are validated up
    /// front.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedSnapshot, SnapshotError> {
        let file = File::open(path)?;
        // SAFETY: snapshot files are written atomically (temp + rename)
        // and never mutated in place, so the mapping cannot be truncated
        // or rewritten underneath us by well-behaved tooling.
        let map = unsafe { memmap2::Mmap::map(&file)? };
        if !(map.as_slice().as_ptr() as usize).is_multiple_of(8) {
            // Defensive: no mmap implementation returns unaligned bases,
            // but the owned fallback costs only a copy.
            return Self::from_aligned(AlignedBuf::from_bytes(map.as_slice()));
        }
        Self::from_backing(Backing::Mapped(map))
    }

    /// Builds a mapped snapshot from an in-memory buffer (copied into an
    /// aligned heap backing).
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<MappedSnapshot, SnapshotError> {
        Self::from_aligned(AlignedBuf::from_bytes(data.as_ref()))
    }

    fn from_aligned(buf: AlignedBuf) -> Result<MappedSnapshot, SnapshotError> {
        Self::from_backing(Backing::Owned(buf))
    }

    fn from_backing(backing: Backing) -> Result<MappedSnapshot, SnapshotError> {
        let (counts, lay, dir) = parse_v3_header(backing.bytes())?;
        Ok(MappedSnapshot {
            backing,
            counts,
            lay,
            dir,
            checks: Default::default(),
            name_spans: OnceLock::new(),
            #[cfg(not(target_endian = "little"))]
            be_u64: Default::default(),
            #[cfg(not(target_endian = "little"))]
            be_u32: Default::default(),
        })
    }

    /// Whether the file was served straight from a memory map (`true`) or
    /// through the owned fallback (`false`).
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_)) && cfg!(target_endian = "little")
    }

    /// Vertex count `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.counts.n as usize
    }

    /// Undirected edge count `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.counts.m as usize
    }

    /// Attribute count.
    #[inline]
    pub fn num_attributes(&self) -> usize {
        self.counts.a as usize
    }

    /// Vertex-attribute pair count.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.counts.pairs as usize
    }

    /// Total snapshot size in bytes.
    #[inline]
    pub fn len_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    fn raw_section(&self, s: Section) -> &[u8] {
        let e = self.lay.extents[s.index()];
        &self.backing.bytes()[e.offset as usize..(e.offset + e.len) as usize]
    }

    /// Dependencies a section's structural check assumes validated.
    fn deps(s: Section) -> &'static [Section] {
        match s {
            Section::CsrEdges => &[Section::CsrOffsets],
            Section::VertexAttrs => &[Section::AttrOffsets],
            Section::InvVertices => &[
                Section::InvOffsets,
                Section::AttrOffsets,
                Section::VertexAttrs,
            ],
            _ => &[],
        }
    }

    /// Validates `s` (checksum + padding + structure) on first touch;
    /// later touches return the cached verdict.
    pub fn ensure(&self, s: Section) -> Result<(), SnapshotError> {
        for &d in Self::deps(s) {
            self.ensure(d)?;
        }
        self.checks[s.index()]
            .get_or_init(|| {
                check_v3_section(self.backing.bytes(), self.counts, &self.lay, &self.dir, s)
            })
            .clone()
    }

    /// Validates every section (the eager escape hatch; `scpm stats` and
    /// the differential tests use it to front-load all failures).
    pub fn validate(&self) -> Result<(), SnapshotError> {
        for s in SECTIONS {
            self.ensure(s)?;
        }
        Ok(())
    }

    #[cfg(target_endian = "little")]
    fn section_u64(&self, s: Section) -> Result<&[u64], SnapshotError> {
        self.ensure(s)?;
        let bytes = self.raw_section(s);
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
        debug_assert_eq!(bytes.len() % 8, 0);
        // SAFETY: the slice is 8-byte aligned (64-byte-aligned section in
        // an 8-byte-aligned backing), its length is a multiple of 8, and
        // u64 has no invalid bit patterns; little-endian target means the
        // on-disk and in-memory representations coincide.
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) })
    }

    #[cfg(target_endian = "little")]
    fn section_u32(&self, s: Section) -> Result<&[u32], SnapshotError> {
        self.ensure(s)?;
        let bytes = self.raw_section(s);
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
        debug_assert_eq!(bytes.len() % 4, 0);
        // SAFETY: as section_u64, with 4-byte alignment and width.
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) })
    }

    #[cfg(not(target_endian = "little"))]
    fn section_u64(&self, s: Section) -> Result<&[u64], SnapshotError> {
        self.ensure(s)?;
        Ok(self.be_u64[s.index()].get_or_init(|| {
            let bytes = self.raw_section(s);
            (0..bytes.len() / 8)
                .map(|i| layout::u64_at(bytes, i * 8))
                .collect()
        }))
    }

    #[cfg(not(target_endian = "little"))]
    fn section_u32(&self, s: Section) -> Result<&[u32], SnapshotError> {
        self.ensure(s)?;
        Ok(self.be_u32[s.index()].get_or_init(|| {
            let bytes = self.raw_section(s);
            (0..bytes.len() / 4)
                .map(|i| layout::u32_at(bytes, i * 4))
                .collect()
        }))
    }

    /// The CSR offsets array (`n+1` entries; `offsets[n] == 2m`).
    pub fn csr_offsets(&self) -> Result<&[u64], SnapshotError> {
        self.section_u64(Section::CsrOffsets)
    }

    /// The concatenated sorted neighbor lists (`2m` entries).
    pub fn csr_edges(&self) -> Result<&[u32], SnapshotError> {
        self.section_u32(Section::CsrEdges)
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: VertexId) -> Result<usize, SnapshotError> {
        let off = self.csr_offsets()?;
        let v = v as usize;
        Ok((off[v + 1] - off[v]) as usize)
    }

    /// Sorted neighbor list of `v`, zero-copy from the mapping.
    pub fn neighbors(&self, v: VertexId) -> Result<&[VertexId], SnapshotError> {
        let off = self.csr_offsets()?;
        let edges = self.csr_edges()?;
        let v = v as usize;
        Ok(&edges[off[v] as usize..off[v + 1] as usize])
    }

    /// Sorted attribute ids of vertex `v`.
    pub fn attributes_of(&self, v: VertexId) -> Result<&[u32], SnapshotError> {
        let off = self.section_u64(Section::AttrOffsets)?;
        let attrs = self.section_u32(Section::VertexAttrs)?;
        let v = v as usize;
        Ok(&attrs[off[v] as usize..off[v + 1] as usize])
    }

    /// The sorted vertex list carrying attribute `a` (its tidset),
    /// zero-copy from the inverted-index section.
    pub fn vertices_with(&self, a: u32) -> Result<&[VertexId], SnapshotError> {
        let off = self.section_u64(Section::InvOffsets)?;
        let verts = self.section_u32(Section::InvVertices)?;
        let a = a as usize;
        Ok(&verts[off[a] as usize..off[a + 1] as usize])
    }

    /// Support `|V({a})|` of attribute `a` (reads only the offsets
    /// section).
    pub fn support(&self, a: u32) -> Result<usize, SnapshotError> {
        let off = self.section_u64(Section::InvOffsets)?;
        let a = a as usize;
        Ok((off[a + 1] - off[a]) as usize)
    }

    /// Name of attribute `a`, zero-copy from the interner section.
    pub fn attr_name(&self, a: u32) -> Result<&str, SnapshotError> {
        self.ensure(Section::Interner)?;
        let payload = self.raw_section(Section::Interner);
        let spans = self.name_spans.get_or_init(|| {
            layout::check_interner(payload, self.counts.a)
                .expect("interner validated before span index")
        });
        let (s0, e0) = spans[a as usize];
        Ok(std::str::from_utf8(&payload[s0..e0]).expect("interner validated as UTF-8"))
    }

    /// Materializes the full [`AttributedGraph`] (validates everything).
    /// The escape hatch for callers that need the owned representation —
    /// identical to [`super::decode`] on the same bytes.
    pub fn to_graph(&self) -> Result<AttributedGraph, SnapshotError> {
        self.validate()?;
        Ok(materialize_v3(self.backing.bytes(), self.counts, &self.lay))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{encode, fnv1a64};
    use super::*;
    use crate::figure1::figure1;

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("scpm_mapped_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_file_matches_owned_decode() {
        let g = figure1();
        let path = write_temp("fig1_v3.snap", &encode(&g));
        let snap = MappedSnapshot::open(&path).unwrap();
        assert!(snap.is_zero_copy() || !cfg!(target_endian = "little"));
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(snap.num_edges(), g.num_edges());
        assert_eq!(snap.num_attributes(), g.num_attributes());
        for v in g.graph().vertices() {
            assert_eq!(snap.neighbors(v).unwrap(), g.graph().neighbors(v));
            assert_eq!(snap.attributes_of(v).unwrap(), g.attributes_of(v));
            assert_eq!(snap.degree(v).unwrap(), g.graph().degree(v));
        }
        for x in 0..g.num_attributes() as u32 {
            assert_eq!(snap.vertices_with(x).unwrap(), g.vertices_with(x));
            assert_eq!(snap.support(x).unwrap(), g.support(x));
            assert_eq!(snap.attr_name(x).unwrap(), g.attr_name(x));
        }
        let owned = snap.to_graph().unwrap();
        assert_eq!(encode(&owned).as_ref(), encode(&g).as_ref());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn section_validation_is_lazy_and_isolated() {
        // Corrupt one byte inside the interner section payload: opening
        // succeeds (header + directory are intact), the CSR and attribute
        // sections still serve reads, and only touching the interner
        // reports the corruption — on every touch, not just the first.
        let g = figure1();
        let mut raw = encode(&g).to_vec();
        let at = super::super::layout::DIR_OFFSET
            + Section::Interner.index() * super::super::layout::DIR_ENTRY_LEN;
        let off = layout::u64_at(&raw, at + 8) as usize;
        raw[off + 4] ^= 0x40;
        let snap = MappedSnapshot::from_bytes(&raw).unwrap();
        assert_eq!(snap.neighbors(0).unwrap(), g.graph().neighbors(0));
        assert_eq!(snap.vertices_with(0).unwrap(), g.vertices_with(0));
        assert!(matches!(
            snap.attr_name(0),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            snap.attr_name(0),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(snap.to_graph().is_err());
    }

    #[test]
    fn corrupt_header_fails_at_open() {
        let g = figure1();
        let mut raw = encode(&g).to_vec();
        raw[17] ^= 0x01; // inside the n field, covered by the header checksum
        assert!(matches!(
            MappedSnapshot::from_bytes(&raw),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_section_byte_flip_is_rejected_lazily() {
        // For every byte in every section payload (and the padding before
        // it), a flip must surface as an error from validate() even though
        // open() succeeds.
        let g = figure1();
        let raw = encode(&g).to_vec();
        let first_pad = super::super::layout::HEADER_LEN + super::super::layout::DIR_LEN;
        for off in first_pad..raw.len() {
            let mut bad = raw.clone();
            bad[off] ^= 0x01;
            let snap = MappedSnapshot::from_bytes(&bad).expect("open only checks the header");
            assert!(snap.validate().is_err(), "flip at {off} was accepted");
        }
    }

    #[test]
    fn rejects_foreign_and_stale_inputs() {
        assert!(matches!(
            MappedSnapshot::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        ));
        let mut raw = encode(&figure1()).to_vec();
        raw[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            MappedSnapshot::from_bytes(&raw),
            Err(SnapshotError::BadVersion(1))
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            MappedSnapshot::open("/nonexistent/path/graph.snap"),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    fn fnv_streaming_matches_oneshot() {
        // The external writer hashes sections incrementally; the two
        // forms must agree on arbitrary chunkings.
        let raw = encode(&figure1()).to_vec();
        let mut h = super::super::Fnv1a64::new();
        for chunk in raw.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(&raw));
    }
}
