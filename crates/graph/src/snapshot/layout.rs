//! Normative byte layout of snapshot **v3** and the shared structural
//! validators.
//!
//! A v3 snapshot is a 64-byte header, a section directory, and seven
//! 64-byte-aligned sections (gaps zero-filled). Everything is
//! little-endian. The byte-exact table lives in `docs/DATASETS.md`; this
//! module is the single source of truth for offsets so the in-memory
//! encoder ([`super::encode`]), the owned decoder ([`super::decode`]), the
//! zero-copy reader ([`super::MappedSnapshot`]) and the external
//! (bounded-memory) ingest writer in `scpm-datasets` all agree byte for
//! byte.
//!
//! ```text
//! offset  0  "SCPMSNAP"                magic (8 bytes)
//! offset  8  u32 version = 3
//! offset 12  u32 section_count = 7
//! offset 16  u64 n                     vertex count
//! offset 24  u64 m                     undirected edge count
//! offset 32  u64 a                     attribute count
//! offset 40  u64 p                     vertex-attribute pair count
//! offset 48  u64 total_len             exact file length in bytes
//! offset 56  u64 header_checksum       FNV-1a 64 of bytes [0,56) ++ directory
//! offset 64  directory: 7 × 32-byte entries
//!            { u32 section_id, u32 reserved=0, u64 offset, u64 len,
//!              u64 checksum (FNV-1a 64 of the payload bytes) }
//! sections   each starts at the next multiple of 64; the gap between the
//!            directory (or previous section) and a section start is
//!            zero-filled and verified as part of that section's lazy check
//! ```
//!
//! Sections, in file order (payload lengths are implied by the header
//! counts; the directory repeats them as a cross-check):
//!
//! | id | name          | payload                                            |
//! |----|---------------|----------------------------------------------------|
//! | 1  | `CSR_OFFSETS` | `(n+1) × u64` — `offsets[n] = 2m`                  |
//! | 2  | `CSR_EDGES`   | `2m × u32` — concatenated sorted neighbor lists    |
//! | 3  | `ATTR_OFFSETS`| `(n+1) × u64` — `offsets[n] = p`                   |
//! | 4  | `VERTEX_ATTRS`| `p × u32` — sorted attribute ids per vertex        |
//! | 5  | `INV_OFFSETS` | `(a+1) × u64` — `offsets[a] = p`                   |
//! | 6  | `INV_VERTICES`| `p × u32` — sorted vertex ids per attribute        |
//! | 7  | `INTERNER`    | `a × (u32 len, bytes)` — attribute names in id order|
//!
//! Checksums are validated **lazily per section**: the header checksum
//! (which covers the directory, and therefore every section checksum) is
//! verified when a snapshot is opened; a section's payload checksum plus
//! its structural invariants are verified the first time that section is
//! touched. Every byte of the file is covered by exactly one check:
//! header/directory by the header checksum, payloads by their section
//! checksum, and alignment padding by the zero-fill verification of the
//! following section.

use super::SnapshotError;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Length of one directory entry in bytes.
pub const DIR_ENTRY_LEN: usize = 32;
/// Number of sections in a v3 snapshot.
pub const SECTION_COUNT: usize = 7;
/// Section alignment: every section starts on a 64-byte boundary.
pub const ALIGN: usize = 64;
/// File offset of the header checksum field.
pub const HEADER_CHECKSUM_OFFSET: usize = 56;
/// File offset of the directory (first entry).
pub const DIR_OFFSET: usize = HEADER_LEN;
/// Total length of the directory in bytes.
pub const DIR_LEN: usize = SECTION_COUNT * DIR_ENTRY_LEN;

/// The seven v3 sections, in file order. The `u32` discriminant is the
/// on-disk section id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum Section {
    /// `(n+1) × u64` CSR neighbor-array offsets.
    CsrOffsets = 1,
    /// `2m × u32` concatenated sorted neighbor lists.
    CsrEdges = 2,
    /// `(n+1) × u64` vertex→attribute offsets.
    AttrOffsets = 3,
    /// `p × u32` sorted attribute ids per vertex.
    VertexAttrs = 4,
    /// `(a+1) × u64` inverted-index offsets.
    InvOffsets = 5,
    /// `p × u32` sorted vertex ids per attribute.
    InvVertices = 6,
    /// `a × (u32 len, bytes)` attribute names.
    Interner = 7,
}

/// All sections in file order.
pub const SECTIONS: [Section; SECTION_COUNT] = [
    Section::CsrOffsets,
    Section::CsrEdges,
    Section::AttrOffsets,
    Section::VertexAttrs,
    Section::InvOffsets,
    Section::InvVertices,
    Section::Interner,
];

impl Section {
    /// Zero-based index of the section in file/directory order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize - 1
    }

    /// Human-readable section name (used in error messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            Section::CsrOffsets => "csr-offsets",
            Section::CsrEdges => "csr-edges",
            Section::AttrOffsets => "attr-offsets",
            Section::VertexAttrs => "vertex-attrs",
            Section::InvOffsets => "inv-offsets",
            Section::InvVertices => "inv-vertices",
            Section::Interner => "interner",
        }
    }
}

/// Rounds `x` up to the next multiple of [`ALIGN`].
#[inline]
pub fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN as u64) * ALIGN as u64
}

/// The logical counts a v3 header carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Vertex count `n`.
    pub n: u64,
    /// Undirected edge count `m`.
    pub m: u64,
    /// Attribute count `a`.
    pub a: u64,
    /// Vertex-attribute pair count `p`.
    pub pairs: u64,
}

/// One computed section extent: where the payload lives and where the
/// padded region feeding into it starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Start of the zero-filled padding run preceding the payload (equals
    /// the end of the previous section's payload, or the directory end for
    /// the first section).
    pub pad_start: u64,
    /// Absolute payload offset (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (unpadded).
    pub len: u64,
}

/// The complete computed layout of a v3 file: section extents plus the
/// exact total file length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Extents indexed by [`Section::index`].
    pub extents: [Extent; SECTION_COUNT],
    /// Exact file length in bytes (end of the last payload; no trailing
    /// padding).
    pub total_len: u64,
}

impl Layout {
    /// The payload bytes of section `s` within the whole file `data`.
    #[inline]
    pub(crate) fn payload<'a>(&self, data: &'a [u8], s: Section) -> &'a [u8] {
        let e = self.extents[s.index()];
        &data[e.offset as usize..(e.offset + e.len) as usize]
    }
}

/// Payload length of each section given the header counts and the total
/// interner byte length (`Σ (4 + name_len)`).
pub fn section_lens(c: Counts, interner_len: u64) -> [u64; SECTION_COUNT] {
    [
        (c.n + 1) * 8,
        c.m * 2 * 4,
        (c.n + 1) * 8,
        c.pairs * 4,
        (c.a + 1) * 8,
        c.pairs * 4,
        interner_len,
    ]
}

/// Computes the canonical layout for the given counts: sections are placed
/// in id order, each aligned up to the next 64-byte boundary.
pub fn layout(c: Counts, interner_len: u64) -> Layout {
    let lens = section_lens(c, interner_len);
    let mut extents = [Extent {
        pad_start: 0,
        offset: 0,
        len: 0,
    }; SECTION_COUNT];
    let mut cursor = (HEADER_LEN + DIR_LEN) as u64;
    for (i, &len) in lens.iter().enumerate() {
        let offset = align_up(cursor);
        extents[i] = Extent {
            pad_start: cursor,
            offset,
            len,
        };
        cursor = offset + len;
    }
    Layout {
        extents,
        total_len: cursor,
    }
}

/// Reads a little-endian `u32` at byte offset `at`.
#[inline]
pub fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Reads a little-endian `u64` at byte offset `at`.
#[inline]
pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn err_range(reading: &'static str, value: u64) -> SnapshotError {
    SnapshotError::OutOfRange { reading, value }
}

/// Validates an offsets-style section (`count+1` little-endian `u64`
/// values): starts at 0, monotone non-decreasing, ends at `last`, and every
/// value fits in `usize`.
pub fn check_offsets(
    bytes: &[u8],
    count: u64,
    last: u64,
    reading: &'static str,
) -> Result<(), SnapshotError> {
    debug_assert_eq!(bytes.len() as u64, (count + 1) * 8);
    if u64_at(bytes, 0) != 0 {
        return Err(err_range(reading, u64_at(bytes, 0)));
    }
    let mut prev = 0u64;
    for i in 1..=count as usize {
        let cur = u64_at(bytes, i * 8);
        if cur < prev || cur > usize::MAX as u64 {
            return Err(err_range(reading, cur));
        }
        prev = cur;
    }
    if prev != last {
        return Err(err_range(reading, prev));
    }
    Ok(())
}

/// Validates a grouped id section (`total` little-endian `u32` values split
/// into runs by `offsets`): each run strictly sorted ascending, every id
/// `< id_bound`, and (when `forbid_self` is set) no id equal to its own
/// group index — the no-self-loop rule of CSR edge lists.
pub fn check_grouped_ids(
    bytes: &[u8],
    offsets: &[u8],
    groups: u64,
    id_bound: u64,
    forbid_self: bool,
    reading: &'static str,
) -> Result<(), SnapshotError> {
    for g in 0..groups as usize {
        let start = u64_at(offsets, g * 8) as usize;
        let end = u64_at(offsets, (g + 1) * 8) as usize;
        let mut prev: Option<u32> = None;
        for slot in start..end {
            let id = u32_at(bytes, slot * 4);
            if id as u64 >= id_bound {
                return Err(err_range(reading, id as u64));
            }
            if forbid_self && id as usize == g {
                return Err(err_range(reading, id as u64));
            }
            if let Some(p) = prev {
                if id <= p {
                    return Err(err_range(reading, id as u64));
                }
            }
            prev = Some(id);
        }
    }
    Ok(())
}

/// Verifies that the CSR edge section is symmetric: every directed entry
/// `(v, u)` has its mirror `(u, v)`. Walks the vertices in ascending order
/// with one cursor per mirror list, as [`check_inverted_transpose`] does:
/// the `v`s that look for themselves in `u`'s sorted list come in
/// ascending order, so `u`'s cursor only moves forward, past entries below
/// `v` (their own mirrors are checked when their row is walked). The cost
/// is `O(n + E)`, paid once per open, on first touch. Assumes the offsets
/// and the strictly sorted, in-range lists were checked first.
pub fn check_edge_symmetry(edges: &[u8], offsets: &[u8], n: u64) -> Result<(), SnapshotError> {
    let mut cursor: Vec<usize> = (0..n as usize)
        .map(|u| u64_at(offsets, u * 8) as usize)
        .collect();
    for v in 0..n as usize {
        let start = u64_at(offsets, v * 8) as usize;
        let end = u64_at(offsets, (v + 1) * 8) as usize;
        for slot in start..end {
            let u = u32_at(edges, slot * 4) as usize;
            let u_end = u64_at(offsets, (u + 1) * 8) as usize;
            let mut c = cursor[u];
            while c < u_end && (u32_at(edges, c * 4) as usize) < v {
                c += 1;
            }
            if c == u_end || u32_at(edges, c * 4) as usize != v {
                return Err(err_range("asymmetric edge", u as u64));
            }
            cursor[u] = c + 1;
        }
    }
    Ok(())
}

/// Verifies that the inverted index is the exact transpose of the
/// vertex→attribute table: walking vertices in ascending order, the `k`-th
/// occurrence of attribute `a` must sit at `inv_offsets[a] + k`. Linear in
/// the pair count.
pub fn check_inverted_transpose(
    attr_offsets: &[u8],
    vertex_attrs: &[u8],
    inv_offsets: &[u8],
    inv_vertices: &[u8],
    n: u64,
    a: u64,
) -> Result<(), SnapshotError> {
    let mut cursor: Vec<u64> = (0..a as usize)
        .map(|x| u64_at(inv_offsets, x * 8))
        .collect();
    for v in 0..n as usize {
        let start = u64_at(attr_offsets, v * 8) as usize;
        let end = u64_at(attr_offsets, (v + 1) * 8) as usize;
        for slot in start..end {
            let attr = u32_at(vertex_attrs, slot * 4) as usize;
            let c = cursor[attr];
            if c >= u64_at(inv_offsets, (attr + 1) * 8)
                || u32_at(inv_vertices, c as usize * 4) as usize != v
            {
                return Err(err_range("inverted index entry", attr as u64));
            }
            cursor[attr] = c + 1;
        }
    }
    for (x, &c) in cursor.iter().enumerate() {
        if c != u64_at(inv_offsets, (x + 1) * 8) {
            return Err(err_range("inverted index length", x as u64));
        }
    }
    Ok(())
}

/// Validates the interner section: exactly `a` length-prefixed names that
/// consume the section exactly, each valid UTF-8 and pairwise distinct.
/// Returns the byte range of each name within the section. The first error
/// in id order wins, as if each name were checked against the ones before
/// it.
pub fn check_interner(bytes: &[u8], a: u64) -> Result<Vec<(usize, usize)>, SnapshotError> {
    let mut spans = Vec::with_capacity(a as usize);
    let mut at = 0usize;
    let mut parse_error = None;
    for _ in 0..a {
        if at + 4 > bytes.len() {
            parse_error = Some(SnapshotError::Truncated {
                reading: "attribute name length",
            });
            break;
        }
        let len = u32_at(bytes, at) as usize;
        at += 4;
        if at + len > bytes.len() {
            parse_error = Some(SnapshotError::Truncated {
                reading: "attribute name",
            });
            break;
        }
        if std::str::from_utf8(&bytes[at..at + len]).is_err() {
            parse_error = Some(SnapshotError::BadName);
            break;
        }
        spans.push((at, at + len));
        at += len;
    }
    // Duplicate names would collapse ids on re-intern; reject. A duplicate
    // among the names parsed precedes the name that failed to parse.
    if let Some(i) = first_duplicate(bytes, &spans) {
        return Err(err_range("duplicate attribute name", i));
    }
    if let Some(e) = parse_error {
        return Err(e);
    }
    if at != bytes.len() {
        return Err(SnapshotError::TrailingData {
            bytes: bytes.len() - at,
        });
    }
    Ok(spans)
}

/// The smallest id whose name equals an earlier id's name. Sorts the ids by
/// (name, id) and compares neighbours; names already in strictly ascending
/// order, as in every canonical snapshot, cost one comparison pass.
fn first_duplicate(bytes: &[u8], spans: &[(usize, usize)]) -> Option<u64> {
    let name = |i: usize| &bytes[spans[i].0..spans[i].1];
    if (1..spans.len()).all(|i| name(i - 1) < name(i)) {
        return None;
    }
    let mut ids: Vec<usize> = (0..spans.len()).collect();
    ids.sort_unstable_by(|&i, &j| name(i).cmp(name(j)).then(i.cmp(&j)));
    ids.windows(2)
        .filter(|w| name(w[0]) == name(w[1]))
        .map(|w| w[1] as u64)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_directory_constants() {
        assert_eq!(HEADER_LEN + DIR_LEN, 288);
        assert_eq!(align_up(288), 320);
        assert_eq!(align_up(320), 320);
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
    }

    /// An interner section holding `names` in id order.
    fn interner(names: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for name in names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name);
        }
        out
    }

    #[test]
    fn interner_reports_the_first_error_in_id_order() {
        let dup = |i| Err(err_range("duplicate attribute name", i));
        let spans = check_interner(&interner(&[b"a", b"bb", b"c"]), 3).unwrap();
        assert_eq!(spans, vec![(4, 5), (9, 11), (15, 16)]);
        assert!(check_interner(&interner(&[b"c", b"a", b"b"]), 3).is_ok());
        // Out of order, the smallest id that repeats an earlier name.
        assert_eq!(
            check_interner(&interner(&[b"b", b"c", b"a", b"c", b"b"]), 5),
            dup(3)
        );
        assert_eq!(
            check_interner(&interner(&[b"a", b"b", b"a", b"a"]), 4),
            dup(2)
        );
        // A duplicate before a name that fails to parse wins; one after it
        // is never reached.
        assert_eq!(check_interner(&interner(&[b"x", b"x", b"\xff"]), 3), dup(1));
        assert_eq!(
            check_interner(&interner(&[b"x", b"\xff", b"x"]), 3),
            Err(SnapshotError::BadName)
        );
        assert_eq!(check_interner(&interner(&[b"x", b"x"]), 3), dup(1));
        assert_eq!(
            check_interner(&interner(&[b"x"]), 2),
            Err(SnapshotError::Truncated {
                reading: "attribute name length"
            })
        );
        assert_eq!(
            check_interner(&interner(&[b"x", b"y"]), 1),
            Err(SnapshotError::TrailingData { bytes: 5 })
        );
    }

    #[test]
    fn layout_is_aligned_and_dense() {
        let c = Counts {
            n: 11,
            m: 14,
            a: 5,
            pairs: 19,
        };
        let l = layout(c, 37);
        let mut prev_end = (HEADER_LEN + DIR_LEN) as u64;
        for e in &l.extents {
            assert_eq!(e.offset % ALIGN as u64, 0);
            assert_eq!(e.pad_start, prev_end);
            assert!(e.offset >= e.pad_start);
            assert!(e.offset - e.pad_start < ALIGN as u64);
            prev_end = e.offset + e.len;
        }
        assert_eq!(l.total_len, prev_end);
    }
}
