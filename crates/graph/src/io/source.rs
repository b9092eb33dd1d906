//! Streaming parsers for the common attributed-graph interchange shapes.
//!
//! Public releases of attributed graphs (SNAP edge lists, CiteSeer-style
//! `.content` tables, Pajek-flavored adjacency lists) almost always ship as
//! *separate* files: an edge list over arbitrary vertex tokens plus a
//! vertex→attribute table. This module parses any mix of those shapes into
//! a [`RawSource`] — an interned, *unnormalized* pool of edges and
//! vertex-attribute pairs. Normalization (id relabeling, dedup, self-loop
//! policy, statistics) lives one layer up, in `scpm_datasets::ingest`; the
//! byte-level grammar of every format is specified in `docs/DATASETS.md`.
//!
//! All parsers share one tokenizer: UTF-8 lines are split into fields on
//! commas and Unicode whitespace (`char::is_whitespace`, so plain, TSV and
//! CSV files all work), blank lines and lines starting with `#` or `%` are
//! ignored, and fields may be double-quoted to carry separators
//! (`"R Peppers"`; a doubled `""` is a literal quote). Errors carry 1-based
//! line numbers. The tokenizer reuses its line and unescape buffers and
//! hands each row to the readers as borrowed fields, so a row costs no
//! heap allocation once the buffers have grown.
//!
//! ```
//! use scpm_graph::io::source::RawSource;
//!
//! let mut src = RawSource::new();
//! src.read_edge_list("0 1\n1 2\n".as_bytes()).unwrap();
//! src.read_attr_table("0 red blue\n2 red\n".as_bytes()).unwrap();
//! assert_eq!(src.edges.len(), 2);
//! assert_eq!(src.attributes.len(), 2);
//! assert_eq!(src.vertices.name(0), "0");
//! ```

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use super::{syntax, ParseError};
use crate::attributed::AttributedGraph;
use crate::csr::CsrGraph;

/// A string interner mapping tokens to dense `u32` ids in first-appearance
/// order, tracking whether every token is a canonical decimal integer
/// (which lets the ingest layer keep externally assigned numeric ids).
///
/// ```
/// use scpm_graph::io::source::Interner;
///
/// let mut it = Interner::new();
/// assert_eq!(it.intern("alice"), 0);
/// assert_eq!(it.intern("bob"), 1);
/// assert_eq!(it.intern("alice"), 0);
/// assert_eq!(it.name(1), "bob");
/// assert!(!it.all_numeric());
/// ```
///
/// Each distinct token costs one allocation, its entry in the name list.
/// The lookup table holds ids, not keys: an open-addressing table of
/// `id + 1` (0 marks an empty slot), probed linearly from the token's hash
/// under std's randomly keyed hasher (input tokens are untrusted, so their
/// hashes must not be predictable), and kept at most half full.
#[derive(Clone, Debug)]
pub struct Interner {
    names: Vec<String>,
    slots: Vec<u32>,
    hasher: RandomState,
    all_numeric: bool,
    max_numeric: u32,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

/// Parses a token as a *canonical* decimal `u32`: ASCII digits only, no
/// leading zeros (except `"0"` itself), no sign. Canonicality matters
/// because two distinct tokens (`"7"`, `"07"`) must never collapse onto
/// one numeric id.
pub fn canonical_numeric(token: &str) -> Option<u32> {
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    if token.len() > 1 && token.starts_with('0') {
        return None;
    }
    token.parse().ok()
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            names: Vec::new(),
            slots: Vec::new(),
            hasher: RandomState::new(),
            all_numeric: true,
            max_numeric: 0,
        }
    }

    /// Interns `token`, returning its dense id (existing or fresh).
    pub fn intern(&mut self, token: &str) -> u32 {
        if 2 * (self.names.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = match self.probe(token) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.names.len() as u32;
        match canonical_numeric(token) {
            Some(v) => self.max_numeric = self.max_numeric.max(v),
            None => self.all_numeric = false,
        }
        self.names.push(token.to_string());
        self.slots[slot] = id + 1;
        id
    }

    /// The id of `token`, if already interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(token).ok()
    }

    /// `Ok(id)` of `token`, or `Err(slot)`: the empty slot where it would
    /// go. The table must have an empty slot.
    fn probe(&self, token: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(token) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s if self.names[s as usize - 1] == token => return Ok(s - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the table (16 slots at first) and re-inserts every id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for id in 0..self.names.len() as u32 {
            let Err(slot) = self.probe(&self.names[id as usize]) else {
                unreachable!("interned tokens are distinct");
            };
            self.slots[slot] = id + 1;
        }
    }

    /// The token behind id `i`.
    pub fn name(&self, i: u32) -> &str {
        &self.names[i as usize]
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All tokens, in interning (first-appearance) order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether every interned token is a canonical decimal integer.
    pub fn all_numeric(&self) -> bool {
        self.all_numeric
    }

    /// The largest numeric token value seen (0 when none).
    pub fn max_numeric(&self) -> u32 {
        self.max_numeric
    }
}

/// A parsed-but-unnormalized graph source.
///
/// Repeated `read_*` calls accumulate: an edge file and an attribute table
/// parsed into the same `RawSource` share one vertex interner, which is how
/// split-file datasets (the common release shape) come back together.
/// Self-loops are counted but never stored; duplicate edges and pairs are
/// kept verbatim (the ingest layer merges and counts them).
#[derive(Clone, Debug, Default)]
pub struct RawSource {
    /// Vertex tokens, interned in first-appearance order.
    pub vertices: Interner,
    /// Attribute tokens, interned in first-appearance order.
    pub attributes: Interner,
    /// Edges over interned vertex ids, `(min, max)`-normalized, with
    /// duplicates preserved.
    pub edges: Vec<(u32, u32)>,
    /// Vertex-attribute pairs over interned ids, duplicates preserved.
    pub pairs: Vec<(u32, u32)>,
    /// Self-loops encountered (and dropped) while reading edges.
    pub self_loops: usize,
    /// `structural[v]`: vertex `v` appeared in an edge list or adjacency
    /// list (as opposed to only in an attribute table). Indexed by
    /// interned id; may be shorter than `vertices.len()`.
    pub structural: Vec<bool>,
}

impl RawSource {
    /// An empty source.
    pub fn new() -> Self {
        RawSource::default()
    }

    /// Whether interned vertex `v` appeared in structural (edge) context.
    pub fn is_structural(&self, v: u32) -> bool {
        self.structural.get(v as usize).copied().unwrap_or(false)
    }

    /// Reads an edge list: one edge per line, `u v` (an optional third
    /// field, e.g. a weight, is accepted and ignored). Self-loops are
    /// counted, not stored.
    pub fn read_edge_list<R: Read>(&mut self, reader: R) -> Result<(), ParseError> {
        let RawSource {
            vertices,
            edges,
            self_loops,
            structural,
            ..
        } = self;
        let mut push = |e| {
            edges.push(e);
            Ok(())
        };
        stream_edge_list_rows(
            vertices,
            structural,
            self_loops,
            reader,
            &mut push,
            for_each_row,
        )
    }

    /// Reads an adjacency list: each line names a source vertex (an
    /// optional trailing `:` on the first field is stripped) followed by
    /// its neighbors. A line with no neighbors declares an isolated
    /// vertex. Symmetric listings (each edge on both endpoints' lines)
    /// simply produce duplicates, merged at ingest.
    pub fn read_adjacency<R: Read>(&mut self, reader: R) -> Result<(), ParseError> {
        let RawSource {
            vertices,
            edges,
            self_loops,
            structural,
            ..
        } = self;
        let mut push = |e| {
            edges.push(e);
            Ok(())
        };
        stream_adjacency_rows(
            vertices,
            structural,
            self_loops,
            reader,
            &mut push,
            for_each_row,
        )
    }

    /// Reads a vertex→attribute table: each line is a vertex token
    /// followed by that vertex's attribute tokens. A bare vertex token
    /// declares the vertex with no attributes. A vertex may head at most
    /// one row per table — a second row for the same token is an error
    /// (real-world duplicate rows are nearly always data corruption).
    pub fn read_attr_table<R: Read>(&mut self, reader: R) -> Result<(), ParseError> {
        let RawSource {
            vertices,
            attributes,
            pairs,
            ..
        } = self;
        let mut push = |p| {
            pairs.push(p);
            Ok(())
        };
        stream_attr_rows(vertices, attributes, reader, &mut push, for_each_row)
    }
}

/// A callback-driven twin of [`RawSource`] that interns tokens and counts
/// exactly like the buffering parsers but hands each edge / pair to a sink
/// instead of accumulating it — the substrate of the bounded-memory
/// external ingestion pass, which logs the interned records to disk while
/// it parses and relabels them from that log once the interners are
/// complete, never holding them all in memory.
///
/// ```
/// use scpm_graph::io::source::StreamingSource;
///
/// let mut src = StreamingSource::new();
/// let mut m = 0usize;
/// src.read_edge_list("0 1\n1 2\n2 2\n".as_bytes(), &mut |_e| {
///     m += 1;
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!((m, src.self_loops), (2, 1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamingSource {
    /// Vertex tokens, interned in first-appearance order.
    pub vertices: Interner,
    /// Attribute tokens, interned in first-appearance order.
    pub attributes: Interner,
    /// Self-loops encountered (and dropped) while reading edges.
    pub self_loops: usize,
    /// Structural-appearance marks, as in [`RawSource::structural`].
    pub structural: Vec<bool>,
}

impl StreamingSource {
    /// An empty streaming source.
    pub fn new() -> Self {
        StreamingSource::default()
    }

    /// Whether interned vertex `v` appeared in structural (edge) context.
    pub fn is_structural(&self, v: u32) -> bool {
        self.structural.get(v as usize).copied().unwrap_or(false)
    }

    /// Streams an edge list (same grammar as [`RawSource::read_edge_list`])
    /// into `emit`, one `(min, max)` edge per call.
    pub fn read_edge_list<R: Read>(
        &mut self,
        reader: R,
        emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        stream_edge_list_rows(
            &mut self.vertices,
            &mut self.structural,
            &mut self.self_loops,
            reader,
            emit,
            for_each_row,
        )
    }

    /// Streams an adjacency list (same grammar as
    /// [`RawSource::read_adjacency`]) into `emit`.
    pub fn read_adjacency<R: Read>(
        &mut self,
        reader: R,
        emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        stream_adjacency_rows(
            &mut self.vertices,
            &mut self.structural,
            &mut self.self_loops,
            reader,
            emit,
            for_each_row,
        )
    }

    /// Streams a vertex→attribute table (same grammar as
    /// [`RawSource::read_attr_table`]) into `emit`, one `(vertex, attr)`
    /// pair per call.
    pub fn read_attr_table<R: Read>(
        &mut self,
        reader: R,
        emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        stream_attr_rows(
            &mut self.vertices,
            &mut self.attributes,
            reader,
            emit,
            for_each_row,
        )
    }
}

fn mark_structural(structural: &mut Vec<bool>, v: u32) {
    let v = v as usize;
    if structural.len() <= v {
        structural.resize(v + 1, false);
    }
    structural[v] = true;
}

/// Shared row loop behind both edge-list readers.
fn stream_edge_list_rows<R: Read>(
    vertices: &mut Interner,
    structural: &mut Vec<bool>,
    self_loops: &mut usize,
    reader: R,
    emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    rows: Rows<R>,
) -> Result<(), ParseError> {
    rows(reader, &mut |lineno, row| {
        if row.len() < 2 {
            return Err(syntax(lineno, "edge line needs two fields `u v`"));
        }
        if row.len() > 3 {
            return Err(syntax(
                lineno,
                format!("edge line has {} fields (max 3: `u v weight`)", row.len()),
            ));
        }
        let u = vertices.intern(row.field(0));
        let v = vertices.intern(row.field(1));
        mark_structural(structural, u);
        mark_structural(structural, v);
        if u == v {
            *self_loops += 1;
            Ok(())
        } else {
            emit((u.min(v), u.max(v)))
        }
    })
}

/// Shared row loop behind both adjacency readers.
fn stream_adjacency_rows<R: Read>(
    vertices: &mut Interner,
    structural: &mut Vec<bool>,
    self_loops: &mut usize,
    reader: R,
    emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    rows: Rows<R>,
) -> Result<(), ParseError> {
    rows(reader, &mut |lineno, row| {
        let first = row.field(0);
        let head = first.strip_suffix(':').unwrap_or(first);
        if head.is_empty() {
            return Err(syntax(lineno, "adjacency line has an empty source vertex"));
        }
        let u = vertices.intern(head);
        mark_structural(structural, u);
        for tok in row.tail() {
            let v = vertices.intern(tok);
            mark_structural(structural, v);
            if u == v {
                *self_loops += 1;
            } else {
                emit((u.min(v), u.max(v)))?;
            }
        }
        Ok(())
    })
}

/// Shared row loop behind both attribute-table readers. Duplicate-row
/// detection is per call, matching the buffering reader: `first_row[v]`
/// is the line of vertex `v`'s row in this table (0 = none yet), dense
/// because interned ids are.
fn stream_attr_rows<R: Read>(
    vertices: &mut Interner,
    attributes: &mut Interner,
    reader: R,
    emit: &mut dyn FnMut((u32, u32)) -> Result<(), ParseError>,
    rows: Rows<R>,
) -> Result<(), ParseError> {
    let mut first_row: Vec<usize> = Vec::new();
    rows(reader, &mut |lineno, row| {
        let v = vertices.intern(row.field(0));
        let slot = v as usize;
        if first_row.len() <= slot {
            first_row.resize(slot + 1, 0);
        }
        if first_row[slot] != 0 {
            return Err(syntax(
                lineno,
                format!(
                    "duplicate attribute row for vertex `{}` (first at line {})",
                    row.field(0),
                    first_row[slot]
                ),
            ));
        }
        first_row[slot] = lineno;
        for tok in row.tail() {
            let a = attributes.intern(tok);
            emit((v, a))?;
        }
        Ok(())
    })
}

/// Field separators among ASCII bytes: the ASCII code points for which
/// `char::is_whitespace` holds (TAB, LF, VT, FF, CR, space) plus `,`.
/// `u8::is_ascii_whitespace` is not this set: it omits VT (0x0B).
const ASCII_SEPARATOR: [bool; 128] = {
    let mut t = [false; 128];
    t[b'\t' as usize] = true;
    t[b'\n' as usize] = true;
    t[0x0B] = true;
    t[0x0C] = true;
    t[b'\r' as usize] = true;
    t[b' ' as usize] = true;
    t[b',' as usize] = true;
    t
};

/// The end of the run of chars starting at byte `i` of `line` that are
/// separators (`sep`) or are not (`!sep`). A char separates fields when
/// `char::is_whitespace(c) || c == ','`: ASCII is answered from
/// [`ASCII_SEPARATOR`], anything else is decoded.
#[inline]
fn run_end(line: &str, mut i: usize, sep: bool) -> usize {
    while let Some(&b) = line.as_bytes().get(i) {
        let (is_sep, len) = if b.is_ascii() {
            (ASCII_SEPARATOR[b as usize], 1)
        } else {
            let c = line[i..].chars().next().expect("index on a char boundary");
            (c.is_whitespace(), c.len_utf8())
        };
        if is_sep != sep {
            break;
        }
        i += len;
    }
    i
}

/// Where one field's text lives: a byte range of the line itself, or —
/// for a quoted field, whose `""` escapes must be undone — of the
/// tokenizer's unescape buffer.
#[derive(Clone, Copy)]
struct Span {
    quoted: bool,
    start: usize,
    end: usize,
}

/// One tokenized row, borrowing its fields from the line buffer and the
/// unescape buffer. Never empty.
struct Row<'a> {
    line: &'a str,
    unescaped: &'a str,
    spans: &'a [Span],
}

impl<'a> Row<'a> {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn field(&self, i: usize) -> &'a str {
        let s = self.spans[i];
        let text = if s.quoted { self.unescaped } else { self.line };
        &text[s.start..s.end]
    }

    /// Every field after the first.
    fn tail(&self) -> impl Iterator<Item = &'a str> + '_ {
        (1..self.len()).map(|i| self.field(i))
    }
}

/// Splits `line` into `spans` on runs of separators, honoring double
/// quotes (`""` inside a quoted field is a literal quote, unescaped into
/// `unescaped`). A quote opens a quoted field only at the start of a
/// field; elsewhere it is an ordinary character.
fn split_row(
    line: &str,
    lineno: usize,
    unescaped: &mut String,
    spans: &mut Vec<Span>,
) -> Result<(), ParseError> {
    spans.clear();
    unescaped.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    loop {
        i = run_end(line, i, true);
        if i == bytes.len() {
            return Ok(());
        }
        if bytes[i] == b'"' {
            // `"` is ASCII, so it never occurs inside a multi-byte char and
            // a byte search stays on char boundaries.
            let start = unescaped.len();
            i += 1;
            loop {
                let Some(q) = bytes[i..].iter().position(|&b| b == b'"') else {
                    return Err(syntax(lineno, "unterminated quoted field"));
                };
                unescaped.push_str(&line[i..i + q]);
                i += q + 1;
                if bytes.get(i) == Some(&b'"') {
                    unescaped.push('"');
                    i += 1;
                } else {
                    break;
                }
            }
            spans.push(Span {
                quoted: true,
                start,
                end: unescaped.len(),
            });
        } else {
            let start = i;
            i = run_end(line, i, false);
            spans.push(Span {
                quoted: false,
                start,
                end: i,
            });
        }
    }
}

/// Quotes `field` if it contains a separator or quote, else borrows it.
fn quoted(field: &str) -> std::borrow::Cow<'_, str> {
    if field.is_empty() || field.contains(|c: char| c.is_whitespace() || c == ',' || c == '"') {
        std::borrow::Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(field)
    }
}

/// A tokenizer driving a row callback over every row of a reader:
/// [`for_each_row`], or the char-based oracle of the differential tests.
type Rows<R> =
    fn(R, &mut dyn FnMut(usize, &Row<'_>) -> Result<(), ParseError>) -> Result<(), ParseError>;

/// Streams non-comment, non-blank rows of `reader` through `f` as
/// `(lineno, row)`. Rows that split to zero fields (all separators) are
/// skipped like blank lines.
///
/// Lines end at `\n`; a `\r` right before it is stripped too, exactly as
/// `BufRead::lines` does (a `\r` anywhere else is a separator). Each line
/// must be valid UTF-8 (`ErrorKind::InvalidData` otherwise). The line,
/// unescape and span buffers are reused, so after warm-up a row costs no
/// heap allocation.
fn for_each_row<R: Read>(
    reader: R,
    f: &mut dyn FnMut(usize, &Row<'_>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    let mut unescaped = String::new();
    let mut spans = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = std::str::from_utf8(&buf).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with(['#', '%']) {
            continue;
        }
        split_row(line, lineno, &mut unescaped, &mut spans)?;
        if spans.is_empty() {
            continue;
        }
        f(
            lineno,
            &Row {
                line,
                unescaped: &unescaped,
                spans: &spans,
            },
        )?;
    }
}

/// Writes `g`'s edges as an edge list (`u<TAB>v`, one edge per line, both
/// endpoints as decimal vertex ids). The counterpart of
/// [`RawSource::read_edge_list`].
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# scpm edge list: {} vertices", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

/// Writes `g` as an adjacency list (`u: v1 v2 ...`, every vertex gets a
/// line, each edge appears on both endpoints' lines). The counterpart of
/// [`RawSource::read_adjacency`].
pub fn write_adjacency<W: Write>(g: &CsrGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# scpm adjacency list: {} vertices", g.num_vertices())?;
    for u in g.vertices() {
        write!(w, "{u}:")?;
        for &v in g.neighbors(u) {
            write!(w, " {v}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Writes `g`'s vertex→attribute table: one row per vertex (including
/// attribute-less vertices, so the vertex universe is explicit), attribute
/// names quoted when they contain separators. The counterpart of
/// [`RawSource::read_attr_table`].
pub fn write_attr_table<W: Write>(g: &AttributedGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# scpm vertex-attribute table: {} vertices",
        g.num_vertices()
    )?;
    for v in g.graph().vertices() {
        write!(w, "{v}")?;
        for &a in g.attributes_of(v) {
            write!(w, "\t{}", quoted(g.attr_name(a)))?;
        }
        writeln!(w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1;
    use proptest::prelude::*;

    /// The char-at-a-time splitter the tokenizer replaced, kept as its
    /// oracle: splits one line into fields on whitespace/commas, honoring
    /// double quotes (`""` inside a quoted field is a literal quote).
    fn split_fields(line: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
        let mut fields = Vec::new();
        let mut chars = line.chars().peekable();
        loop {
            // Skip separators.
            while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
                chars.next();
            }
            let Some(&c) = chars.peek() else { break };
            let mut field = String::new();
            if c == '"' {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(ch) => field.push(ch),
                        None => return Err(syntax(lineno, "unterminated quoted field")),
                    }
                }
            } else {
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == ',' {
                        break;
                    }
                    field.push(ch);
                    chars.next();
                }
            }
            fields.push(field);
        }
        Ok(fields)
    }

    /// The oracle tokenizer: `BufRead::lines` plus [`split_fields`], the
    /// owned fields handed on as one all-quoted [`Row`].
    fn oracle_rows<R: Read>(
        reader: R,
        f: &mut dyn FnMut(usize, &Row<'_>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let lineno = idx + 1;
            let line = line?;
            let trimmed = line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let fields = split_fields(&line, lineno)?;
            if fields.is_empty() {
                continue;
            }
            let mut unescaped = String::new();
            let mut spans = Vec::new();
            for field in &fields {
                let start = unescaped.len();
                unescaped.push_str(field);
                spans.push(Span {
                    quoted: true,
                    start,
                    end: unescaped.len(),
                });
            }
            let row = Row {
                line: "",
                unescaped: &unescaped,
                spans: &spans,
            };
            f(lineno, &row)?;
        }
        Ok(())
    }

    /// Every row a tokenizer yields, or its error rendered.
    fn collect_rows<'t>(
        text: &'t [u8],
        rows: Rows<&'t [u8]>,
    ) -> Result<Vec<(usize, Vec<String>)>, String> {
        let mut out = Vec::new();
        rows(text, &mut |lineno, row| {
            out.push((
                lineno,
                (0..row.len()).map(|i| row.field(i).to_string()).collect(),
            ));
            Ok(())
        })
        .map(|()| out)
        .map_err(|e| e.to_string())
    }

    /// What one of the three readers makes of `text` under a tokenizer: the
    /// interned tokens, the records, the counters and the result.
    fn read_with<'t>(reader: usize, text: &'t [u8], rows: Rows<&'t [u8]>) -> String {
        let mut st = StreamingSource::new();
        let mut recs = Vec::new();
        let mut push = |r| {
            recs.push(r);
            Ok(())
        };
        let StreamingSource {
            vertices,
            attributes,
            self_loops,
            structural,
        } = &mut st;
        let result = match reader {
            0 => stream_edge_list_rows(vertices, structural, self_loops, text, &mut push, rows),
            1 => stream_adjacency_rows(vertices, structural, self_loops, text, &mut push, rows),
            _ => stream_attr_rows(vertices, attributes, text, &mut push, rows),
        };
        format!(
            "{:?} {recs:?} {:?} {:?} {} {:?}",
            result.map_err(|e| e.to_string()),
            st.vertices.names(),
            st.attributes.names(),
            st.self_loops,
            st.structural
        )
    }

    /// Tokenizer alphabet: tokens, separators from every class the
    /// grammar distinguishes (ASCII whitespace including VT/FF, CR, commas,
    /// non-ASCII `White_Space`), quotes, and non-separator non-ASCII.
    const ALPHABET: [&str; 22] = [
        "a", "7", "07", "x:", ":", "\u{e9}", ",", "\"", "\"\"", " ", "\t", "\x0B", "\x0C", "\r",
        "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}", "#", "%", "b\"c", "q",
    ];

    /// Line openers, so comments sit behind leading Unicode whitespace.
    const OPENERS: [&str; 7] = ["", "", "#", "%", "\u{A0}#", "\u{3000}%", " \u{85}#"];

    /// Line terminators; the last line also draws "none" and a lone CR.
    const ENDINGS: [&str; 4] = ["\n", "\r\n", "", "\r"];

    fn text_strategy() -> impl Strategy<Value = String> {
        let line = (
            0..OPENERS.len(),
            proptest::collection::vec(0..ALPHABET.len(), 0..10),
            0usize..2,
        );
        (proptest::collection::vec(line, 0..8), 0..ENDINGS.len()).prop_map(|(lines, last)| {
            let mut text = String::new();
            let count = lines.len();
            for (i, (opener, chars, ending)) in lines.into_iter().enumerate() {
                text.push_str(OPENERS[opener]);
                for c in chars {
                    text.push_str(ALPHABET[c]);
                }
                text.push_str(ENDINGS[if i + 1 == count { last } else { ending }]);
            }
            text
        })
    }

    proptest! {
        #[test]
        fn tokenizer_matches_char_oracle(text in text_strategy()) {
            let text = text.as_bytes();
            prop_assert_eq!(
                collect_rows(text, for_each_row),
                collect_rows(text, oracle_rows),
                "rows of {:?}", String::from_utf8_lossy(text)
            );
            for reader in 0..3 {
                prop_assert_eq!(
                    read_with(reader, text, for_each_row),
                    read_with(reader, text, oracle_rows),
                    "reader {} on {:?}", reader, String::from_utf8_lossy(text)
                );
            }
        }
    }

    #[test]
    fn line_endings_and_unicode_separators() {
        let rows = |t: &str| collect_rows(t.as_bytes(), for_each_row).unwrap();
        // CRLF is stripped; a lone CR (mid-line or before EOF) separates.
        assert_eq!(rows("0 1\r\n"), vec![(1, vec!["0".into(), "1".into()])]);
        assert_eq!(rows("0\r1\r"), vec![(1, vec!["0".into(), "1".into()])]);
        // VT, FF, NEL, NBSP and U+3000 separate; `é` does not.
        assert_eq!(
            rows("a\x0Bb\x0Cc\u{85}d\u{A0}\u{e9}\u{3000}\"e f\"\n"),
            vec![(
                1,
                ["a", "b", "c", "d", "\u{e9}", "e f"]
                    .map(String::from)
                    .to_vec()
            )]
        );
        // A comment may sit behind leading Unicode whitespace, not a comma.
        assert_eq!(
            rows("\u{A0}# c\n,# d\n"),
            vec![(2, vec!["#".into(), "d".into()])]
        );
        // Unterminated quotes report their own line.
        assert_eq!(
            collect_rows(b"0 1\n\n2 \"x\n", for_each_row),
            Err("parse error at line 3: unterminated quoted field".to_string())
        );
    }

    #[test]
    fn invalid_utf8_is_invalid_data() {
        for rows in [for_each_row as Rows<&[u8]>, oracle_rows] {
            let mut seen = 0;
            let e = rows(b"0 1\n\xff 2\n", &mut |_, _| {
                seen += 1;
                Ok(())
            })
            .unwrap_err();
            assert_eq!(seen, 1, "the valid first line is still delivered");
            match e {
                ParseError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                other => panic!("expected InvalidData, got {other}"),
            }
        }
        let e = RawSource::new()
            .read_edge_list(&b"0 1\n\xc3\x28 2\n"[..])
            .unwrap_err();
        assert!(matches!(e, ParseError::Io(ref e) if e.kind() == std::io::ErrorKind::InvalidData));
    }

    #[test]
    fn edge_list_whitespace_and_csv_parse_identically() {
        let mut ws = RawSource::new();
        ws.read_edge_list("# c\n0 1\n1\t2\n".as_bytes()).unwrap();
        let mut csv = RawSource::new();
        csv.read_edge_list("% c\n0,1\n1,2\n".as_bytes()).unwrap();
        assert_eq!(ws.edges, csv.edges);
        assert_eq!(ws.vertices.names(), csv.vertices.names());
        assert!(ws.vertices.all_numeric());
    }

    #[test]
    fn edge_list_counts_self_loops_and_accepts_weights() {
        let mut s = RawSource::new();
        s.read_edge_list("0 1 0.5\n2 2\n1 0\n".as_bytes()).unwrap();
        assert_eq!(s.self_loops, 1);
        assert_eq!(s.edges, vec![(0, 1), (0, 1)]); // duplicate kept
    }

    #[test]
    fn edge_list_field_count_errors() {
        let mut s = RawSource::new();
        let e = s.read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("two fields"));
        let e = s.read_edge_list("0 1 2 3\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("fields"));
    }

    #[test]
    fn adjacency_with_and_without_colon() {
        let mut s = RawSource::new();
        s.read_adjacency("0: 1 2\n1 0\n3:\n".as_bytes()).unwrap();
        assert_eq!(s.edges, vec![(0, 1), (0, 2), (0, 1)]);
        assert_eq!(s.vertices.len(), 4); // isolated 3 declared
        assert!(s.is_structural(3));
    }

    #[test]
    fn attr_table_duplicate_vertex_row_is_an_error() {
        let mut s = RawSource::new();
        let e = s
            .read_attr_table("7 red\n8 blue\n7 green\n".as_bytes())
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("duplicate attribute row"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn attr_table_bare_row_declares_vertex() {
        let mut s = RawSource::new();
        s.read_attr_table("5\n".as_bytes()).unwrap();
        assert_eq!(s.vertices.len(), 1);
        assert!(s.pairs.is_empty());
        assert!(!s.is_structural(0));
    }

    #[test]
    fn quoted_fields_roundtrip_through_writer() {
        let mut b = crate::attributed::AttributedGraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_attr_named(0, "R Peppers");
        b.add_attr_named(1, "plain");
        b.add_attr_named(1, "has\"quote");
        let g = b.build();
        let mut buf = Vec::new();
        write_attr_table(&g, &mut buf).unwrap();
        let mut s = RawSource::new();
        s.read_attr_table(buf.as_slice()).unwrap();
        assert_eq!(s.attributes.len(), 3);
        assert!(s.attributes.get("R Peppers").is_some());
        assert!(s.attributes.get("has\"quote").is_some());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let mut s = RawSource::new();
        let e = s.read_attr_table("0 \"oops\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("unterminated"));
    }

    #[test]
    fn numeric_canonicality() {
        assert_eq!(canonical_numeric("0"), Some(0));
        assert_eq!(canonical_numeric("42"), Some(42));
        assert_eq!(canonical_numeric("07"), None);
        assert_eq!(canonical_numeric("-3"), None);
        assert_eq!(canonical_numeric("4e2"), None);
        assert_eq!(canonical_numeric(""), None);
        let mut it = Interner::new();
        it.intern("3");
        assert!(it.all_numeric());
        it.intern("07");
        assert!(!it.all_numeric());
    }

    #[test]
    fn streaming_source_matches_buffered_source() {
        let attr_text = "0 red \"b c\"\n2 red\n9\n";
        let mut raw = RawSource::new();
        raw.read_edge_list("0 1 0.5\n2 2\n1,0\n".as_bytes())
            .unwrap();
        raw.read_adjacency("3: 1 2\n".as_bytes()).unwrap();
        raw.read_attr_table(attr_text.as_bytes()).unwrap();

        let mut st = StreamingSource::new();
        let mut edges = Vec::new();
        let mut pairs = Vec::new();
        st.read_edge_list("0 1 0.5\n2 2\n1,0\n".as_bytes(), &mut |e| {
            edges.push(e);
            Ok(())
        })
        .unwrap();
        st.read_adjacency("3: 1 2\n".as_bytes(), &mut |e| {
            edges.push(e);
            Ok(())
        })
        .unwrap();
        st.read_attr_table(attr_text.as_bytes(), &mut |p| {
            pairs.push(p);
            Ok(())
        })
        .unwrap();

        assert_eq!(edges, raw.edges);
        assert_eq!(pairs, raw.pairs);
        assert_eq!(st.self_loops, raw.self_loops);
        assert_eq!(st.structural, raw.structural);
        assert_eq!(st.vertices.names(), raw.vertices.names());
        assert_eq!(st.attributes.names(), raw.attributes.names());
    }

    #[test]
    fn streaming_sink_errors_propagate() {
        let mut st = StreamingSource::new();
        let e = st
            .read_edge_list("0 1\n".as_bytes(), &mut |_| {
                Err(ParseError::Io(std::io::Error::other("disk full")))
            })
            .unwrap_err();
        assert!(e.to_string().contains("disk full"));
    }

    #[test]
    fn writers_roundtrip_figure1_topology() {
        let g = figure1();
        let mut buf = Vec::new();
        write_edge_list(g.graph(), &mut buf).unwrap();
        let mut s = RawSource::new();
        s.read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(s.edges.len(), g.num_edges());
        assert!(s.vertices.all_numeric());

        let mut buf = Vec::new();
        write_adjacency(g.graph(), &mut buf).unwrap();
        let mut s = RawSource::new();
        s.read_adjacency(buf.as_slice()).unwrap();
        // Each edge listed twice; dedup happens at ingest.
        assert_eq!(s.edges.len(), 2 * g.num_edges());
    }
}
