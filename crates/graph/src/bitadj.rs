//! Packed `u64`-word bitsets for the mining hot path.
//!
//! The quasi-clique search spends nearly all of its time answering two
//! questions — *is `{u, v}` an edge?* and *how many candidates does `v`
//! neighbor?* — over induced subgraphs that are small (post vertex
//! reduction) and dense. Sorted-slice scans answer them in `O(deg)` /
//! `O(log deg)`; this module answers them word-parallel:
//!
//! * [`VertexBitset`] — a flat packed vertex set over `⌈n/64⌉` words whose
//!   tracked inserts record the nonzero-word list as they go, so the
//!   engine packs and clears it in `O(|set|)`.
//! * [`BitAdjacency`] — a dense bit matrix over a (sub)graph: `O(1)` edge
//!   tests and per-row nonzero-word lists, built once per induced subgraph
//!   and reused across the whole search.
//!
//! The two free kernels at the bottom are what the search runs:
//! [`difference_is_empty`] (a blocked subset test that processes words in
//! [`LANE_WORDS`]-wide chunks so stable Rust auto-vectorizes it) and
//! [`gather_intersect_popcount`] (`|a ∩ b|` over a listed subset of word
//! indices).
//!
//! Both types are deliberately *local-id* structures: they are sized by the
//! vertex count of one [`CsrGraph`] (usually an
//! induced subgraph) and are rebuilt — reusing their allocations — when the
//! graph changes. See `docs/PERFORMANCE.md` for how the engine layers use
//! them and for the modeled-cost counters that compare the two
//! representations.

use crate::csr::{CsrGraph, VertexId};

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Words per auto-vectorization block: [`difference_is_empty`] processes
/// `LANE_WORDS` words per iteration, which is the shape LLVM turns into
/// SIMD on stable Rust.
pub const LANE_WORDS: usize = 4;

/// Number of `u64` words needed for an `n`-bit set.
#[inline]
pub const fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// The valid-bit mask of the **last** storage word of an `n`-bit set: bits
/// at positions `≥ n` must be zero in a canonical [`VertexBitset`] (see
/// [`VertexBitset::canonical`]). All-ones when `n` is a multiple of 64
/// (and for `n = 0`, where there is no last word).
#[inline]
pub const fn tail_mask(n: usize) -> u64 {
    let r = n % WORD_BITS;
    if r == 0 {
        u64::MAX
    } else {
        (1u64 << r) - 1
    }
}

/// Fused subset test: whether `a \ b = ∅` (i.e. `a ⊆ b`), processed in
/// [`LANE_WORDS`]-word blocks with an early exit per block. Words of `a`
/// beyond `b`'s length must be zero for the difference to be empty.
#[inline]
pub fn difference_is_empty(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(LANE_WORDS);
    let mut cb = b[..n].chunks_exact(LANE_WORDS);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        let mut block = 0u64;
        for l in 0..LANE_WORDS {
            block |= xs[l] & !ys[l];
        }
        if block != 0 {
            return false;
        }
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        if x & !y != 0 {
            return false;
        }
    }
    a[n..].iter().all(|&x| x == 0)
}

/// Fused sparse `|a ∩ b|` restricted to the word indices in `idx`
/// (typically a [`BitAdjacency::row_active`] list or the active-word list
/// [`VertexBitset::insert_tracked`] builds): one AND + popcount per listed
/// word, skipping everything else.
///
/// Correct whenever every nonzero word of `a ∩ b` is listed in `idx` —
/// guaranteed when `idx` covers all nonzero words of either operand.
#[inline]
pub fn gather_intersect_popcount(a: &[u64], b: &[u64], idx: &[u32]) -> usize {
    let mut total = 0u64;
    for &wi in idx {
        let wi = wi as usize;
        total += (a[wi] & b[wi]).count_ones() as u64;
    }
    total as usize
}

/// A packed vertex set over a fixed universe `0..n`: a flat vector of
/// `⌈n/64⌉` words.
///
/// Every public mutator keeps the set *canonical* — the word count matches
/// the universe and no bit is set at a position `≥ n` — and the kernels
/// `debug_assert` [`VertexBitset::canonical`] instead of re-deriving
/// trailing-word masks at each call site.
///
/// ```
/// use scpm_graph::bitadj::VertexBitset;
///
/// let a = VertexBitset::from_sorted(130, &[0, 64, 128]);
/// let b = VertexBitset::from_sorted(130, &[0, 64, 128, 129]);
/// assert_eq!(a.count(), 3);
/// assert!(a.contains(64));
/// assert!(a.is_subset_of(&b) && !b.is_subset_of(&a));
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 128]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexBitset {
    n: usize,
    words: Vec<u64>,
}

impl VertexBitset {
    /// The empty set over the universe `0..n`.
    pub fn empty(n: usize) -> Self {
        VertexBitset {
            n,
            words: vec![0; words_for(n)],
        }
    }

    /// Builds a set over `0..n` from a sorted, duplicate-free slice.
    pub fn from_sorted(n: usize, set: &[VertexId]) -> Self {
        let mut bits = Self::empty(n);
        for &v in set {
            bits.insert(v);
        }
        debug_assert!(bits.canonical());
        bits
    }

    /// Clears the set and re-sizes it for the universe `0..n`, keeping the
    /// word allocation.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words.clear();
        self.words.resize(words_for(n), 0);
    }

    /// Size of the universe (`n`, *not* the member count).
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The packed words backing the set.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether the set is canonical: the word count matches the universe
    /// and no bit is set at a position `≥ n` (the trailing-word invariant
    /// the kernels rely on). All public mutators preserve this; kernels
    /// `debug_assert` it.
    pub fn canonical(&self) -> bool {
        self.words.len() == words_for(self.n)
            && self
                .words
                .last()
                .is_none_or(|&last| last & !tail_mask(self.n) == 0)
    }

    /// Inserts `v` (must be `< n`).
    #[inline]
    pub fn insert(&mut self, v: VertexId) {
        debug_assert!((v as usize) < self.n, "vertex {v} outside universe");
        self.words[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Inserts `v` (must be `< n`), appending `v`'s word index to
    /// `active` when the word transitions from zero to nonzero — packing
    /// a set this way yields its nonzero-word list (in first-touch order)
    /// as a free by-product, with no scan pass afterwards. The engine
    /// pairs it with [`VertexBitset::clear_active`] for `O(|set|)` pack /
    /// unpack cycles independent of the universe width.
    #[inline]
    pub fn insert_tracked(&mut self, v: VertexId, active: &mut Vec<u32>) {
        debug_assert!((v as usize) < self.n, "vertex {v} outside universe");
        let wi = v as usize / WORD_BITS;
        if self.words[wi] == 0 {
            active.push(wi as u32);
        }
        self.words[wi] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Zeroes every word listed in `active`, then drains the list. With
    /// `active` covering all nonzero words — as produced by
    /// [`VertexBitset::insert_tracked`] — this empties the set in
    /// `O(|active|)` instead of `O(⌈n/64⌉)`.
    pub fn clear_active(&mut self, active: &mut Vec<u32>) {
        for &wi in active.iter() {
            self.words[wi as usize] = 0;
        }
        active.clear();
        debug_assert!(self.is_empty());
    }

    /// Removes `v` (must be `< n`).
    #[inline]
    pub fn remove(&mut self, v: VertexId) {
        debug_assert!((v as usize) < self.n, "vertex {v} outside universe");
        self.words[v as usize / WORD_BITS] &= !(1u64 << (v as usize % WORD_BITS));
    }

    /// Membership test, `O(1)`.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.words[v as usize / WORD_BITS] & (1u64 << (v as usize % WORD_BITS)) != 0
    }

    /// Member count (popcount over all words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `self ⊆ other` (fused blocked [`difference_is_empty`] with
    /// per-block early exit).
    pub fn is_subset_of(&self, other: &VertexBitset) -> bool {
        debug_assert!(self.canonical() && other.canonical());
        difference_is_empty(&self.words, &other.words)
    }

    /// Iterates the members in ascending order, `O(members + ⌈n/64⌉)`.
    pub fn iter(&self) -> SetBits<'_> {
        debug_assert!(self.canonical());
        SetBits {
            words: &self.words,
            word: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The members as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }
}

/// Ascending iterator over the set bits of a [`VertexBitset`].
#[derive(Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `current` came from.
    word: usize,
    /// Unconsumed bits of the current word.
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.current == 0 {
            self.word += 1;
            self.current = *self.words.get(self.word)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word * WORD_BITS + bit) as VertexId)
    }
}

/// A dense packed adjacency matrix for a (small) graph.
///
/// One row of `⌈n/64⌉` words per vertex; symmetric since the graphs are
/// undirected. Intended for *induced subgraphs* after vertex reduction —
/// the engine caps the vertex count it will pack (see
/// [`scpm_quasiclique`-level docs]) and falls back to slice scans beyond
/// it, because the matrix is `n²` bits.
///
/// ```
/// use scpm_graph::bitadj::BitAdjacency;
/// use scpm_graph::builder::graph_from_edges;
///
/// let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let adj = BitAdjacency::from_csr(&g);
/// assert!(adj.has_edge(1, 2));
/// assert!(!adj.has_edge(0, 3));
/// assert_eq!(adj.degree(1), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitAdjacency {
    n: usize,
    stride: usize,
    bits: Vec<u64>,
    /// CSR offsets into `row_active`: row `v`'s nonzero word indices live
    /// at `row_active[row_active_offsets[v]..row_active_offsets[v + 1]]`.
    row_active_offsets: Vec<u32>,
    /// Concatenated nonzero-word index lists, one per row. A row of a
    /// sparse graph touches `≤ min(deg, stride)` words, so kernels
    /// gathering over the shorter of this list and a set's active list
    /// pay the sparse side, never the full stride.
    row_active: Vec<u32>,
}

impl BitAdjacency {
    /// An empty 0-vertex matrix; populate with [`BitAdjacency::rebuild`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs the adjacency of `g`.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut adj = Self::new();
        adj.rebuild(g);
        adj
    }

    /// Re-packs the matrix for `g`, reusing the word allocation. Also
    /// rebuilds the per-row active-word lists (rows are immutable for the
    /// lifetime of one packing, so the lists are computed exactly once
    /// per search).
    pub fn rebuild(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        self.n = n;
        self.stride = words_for(n);
        self.bits.clear();
        self.bits.resize(n * self.stride, 0);
        self.row_active_offsets.clear();
        self.row_active_offsets.push(0);
        self.row_active.clear();
        for u in 0..n as VertexId {
            let base = u as usize * self.stride;
            let row = &mut self.bits[base..base + self.stride];
            for &v in g.neighbors(u) {
                row[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
            }
            for (wi, &w) in row.iter().enumerate() {
                if w != 0 {
                    self.row_active.push(wi as u32);
                }
            }
            self.row_active_offsets.push(self.row_active.len() as u32);
        }
    }

    /// Drops the packed contents (keeps the allocation for later reuse).
    pub fn clear(&mut self) {
        self.n = 0;
        self.stride = 0;
        self.bits.clear();
        self.row_active_offsets.clear();
        self.row_active.clear();
    }

    /// Number of vertices the matrix covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n/64⌉`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The packed neighbor row of `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u64] {
        let base = v as usize * self.stride;
        &self.bits[base..base + self.stride]
    }

    /// The indices of the nonzero words of row `v` (ascending, at most
    /// `min(deg(v), stride)` entries) — the sparse-side gather list for
    /// [`gather_intersect_popcount`].
    #[inline]
    pub fn row_active(&self, v: VertexId) -> &[u32] {
        let (s, e) = (
            self.row_active_offsets[v as usize] as usize,
            self.row_active_offsets[v as usize + 1] as usize,
        );
        &self.row_active[s..e]
    }

    /// `O(1)` edge test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.bits[u as usize * self.stride + v as usize / WORD_BITS]
            & (1u64 << (v as usize % WORD_BITS))
            != 0
    }

    /// Degree of `v` via row popcount.
    pub fn degree(&self, v: VertexId) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn bitset_basics_across_word_boundaries() {
        let mut b = VertexBitset::empty(130);
        for v in [0u32, 63, 64, 127, 128, 129] {
            b.insert(v);
        }
        assert_eq!(b.count(), 6);
        assert!(b.contains(63) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1));
        b.remove(64);
        assert!(!b.contains(64));
        assert_eq!(b.to_vec(), vec![0, 63, 127, 128, 129]);
        assert_eq!(b.words().len(), 3);
        assert!(b.canonical());
    }

    #[test]
    fn bitset_kernels() {
        let a = VertexBitset::from_sorted(200, &[1, 5, 70, 130, 199]);
        let b = VertexBitset::from_sorted(200, &[5, 70, 131]);
        let c = VertexBitset::from_sorted(200, &[5, 70]);
        assert!(c.is_subset_of(&a) && c.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(VertexBitset::empty(200).is_subset_of(&b));
        assert!(VertexBitset::empty(200).is_empty());
        assert!(!c.is_empty());
    }

    #[test]
    fn bitset_reset_reuses_allocation() {
        let mut b = VertexBitset::from_sorted(100, &[1, 2, 3]);
        b.reset(65);
        assert_eq!(b.universe(), 65);
        assert_eq!(b.count(), 0);
        b.insert(64);
        assert_eq!(b.to_vec(), vec![64]);
        assert!(b.canonical());
    }

    #[test]
    fn fused_kernels_match_composed_primitives() {
        let a = VertexBitset::from_sorted(600, &[0, 5, 64, 300, 511, 599]);
        let b = VertexBitset::from_sorted(600, &[5, 64, 65, 511]);
        let inter = VertexBitset::from_sorted(600, &[5, 64, 511]);
        assert!(!difference_is_empty(a.words(), b.words()));
        assert!(difference_is_empty(inter.words(), a.words()));
        // Gather over b's tracked active words equals the intersection size.
        let mut active = Vec::new();
        let mut tracked = VertexBitset::empty(600);
        for v in b.iter() {
            tracked.insert_tracked(v, &mut active);
        }
        assert_eq!(tracked, b);
        assert_eq!(
            gather_intersect_popcount(a.words(), b.words(), &active),
            inter.count()
        );
    }

    /// The members of the packed words `w`, read as a set over
    /// `0..w.len() · 64`.
    fn members(w: &[u64]) -> Vec<usize> {
        (0..w.len() * WORD_BITS)
            .filter(|&i| w[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
            .collect()
    }

    /// Checks both kernels on the raw slices `(a, b)` against per-member
    /// references — which is exactly the kernels' unequal-length contract:
    /// the intersection zip-truncates, and members of `a` past the end of
    /// `b` belong to the difference.
    fn assert_kernels_match_members(a: &[u64], b: &[u64]) {
        let (ma, mb) = (members(a), members(b));
        let ctx = format!("a.len()={} b.len()={}", a.len(), b.len());
        let subset = ma.iter().all(|v| mb.binary_search(v).is_ok());
        assert_eq!(difference_is_empty(a, b), subset, "{ctx}");
        let common = ma.iter().filter(|v| mb.binary_search(v).is_ok()).count();
        let idx: Vec<u32> = (0..a.len().min(b.len()) as u32).collect();
        assert_eq!(gather_intersect_popcount(a, b, &idx), common, "{ctx}");
    }

    #[test]
    fn fused_kernels_handle_unequal_lengths() {
        // a longer than b: the tail belongs to the difference.
        let a = [0b1011u64, 0, u64::MAX];
        let b = [0b0011u64];
        assert!(!difference_is_empty(&a, &b));
        let zero_tail = [0b0011u64, 0, 0];
        assert!(difference_is_empty(&zero_tail, &b));
        assert!(difference_is_empty(&[], &b));
        for (x, y) in [(&a[..], &b[..]), (&b, &a), (&zero_tail, &b), (&[], &b)] {
            assert_kernels_match_members(x, y);
        }

        let zero128 = vec![0u64; 128];
        let ones128 = vec![u64::MAX; 128];
        let mut single = vec![0u64; 128];
        single[127] = 1 << 63; // bit 8191: the very last bit of 8192
        let cases: [(&[u64], &[u64]); 12] = [
            // Empty and all-zero operands.
            (&[], &[]),
            (&zero128, &ones128),
            (&zero128, &zero128),
            // Bit 8191 of an 8192-bit set.
            (&ones128, &ones128),
            (&single, &ones128),
            (&single, &zero128),
            // `a` longer than `b`, down to an empty `b`.
            (&ones128, &zero128[..5]),
            (&ones128, &[]),
            (&single, &[]),
            // Exactly one 4-word block plus a 3-word tail, both ways round.
            (&ones128[..7], &ones128[..7]),
            (&ones128[..7], &zero128[..3]),
            (&zero128[..3], &ones128[..7]),
        ];
        for (x, y) in cases {
            assert_kernels_match_members(x, y);
        }
    }

    #[test]
    fn tail_mask_values() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(0), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(130), 0b11);
    }

    #[test]
    fn adjacency_matches_csr() {
        let g = graph_from_edges(70, [(0, 1), (0, 69), (1, 69), (5, 64), (64, 69)]);
        let adj = BitAdjacency::from_csr(&g);
        assert_eq!(adj.num_vertices(), 70);
        for u in 0..70u32 {
            assert_eq!(adj.degree(u), g.degree(u), "degree of {u}");
            for v in 0..70u32 {
                assert_eq!(adj.has_edge(u, v), g.has_edge(u, v), "edge {u}-{v}");
            }
        }
        let set = VertexBitset::from_sorted(70, &[1, 5, 69]);
        let within = |v| gather_intersect_popcount(adj.row(v), set.words(), adj.row_active(v));
        assert_eq!(within(0), 2);
        assert_eq!(within(64), 2);
    }

    #[test]
    fn rebuild_resizes() {
        let g1 = graph_from_edges(3, [(0, 1)]);
        let g2 = graph_from_edges(80, [(0, 79)]);
        let mut adj = BitAdjacency::from_csr(&g1);
        adj.rebuild(&g2);
        assert_eq!(adj.num_vertices(), 80);
        assert_eq!(adj.stride(), 2);
        assert!(adj.has_edge(79, 0));
        assert!(!adj.has_edge(0, 1));
        adj.clear();
        assert_eq!(adj.num_vertices(), 0);
    }

    #[test]
    fn empty_universe() {
        let b = VertexBitset::empty(0);
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter().count(), 0);
        assert!(b.is_empty());
        assert!(b.canonical());
        let adj = BitAdjacency::from_csr(&CsrGraph::empty(0));
        assert_eq!(adj.num_vertices(), 0);
    }
}
