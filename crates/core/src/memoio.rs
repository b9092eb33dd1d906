//! Binary serialization of the evaluation memo ([`EvalMemo`]).
//!
//! The memo is what makes a restarted server cheap: recovery reloads
//! the last checkpoint's memo and replays the journal through the
//! incremental path, reusing every persisted evaluation instead of
//! running a recording mine (the ROADMAP's PR-7 follow-up). The file
//! format mirrors the snapshot format's defensive layout — magic,
//! version, trailing FNV-1a-64 checksum, then structural validation of
//! every length and count behind it:
//!
//! ```text
//! "SCPMMEMO" u32 version=5
//! u64 params_fingerprint        fingerprint(ScpmParams), see below
//! u64 graph_fingerprint         fnv1a64(snapshot::encode(graph))
//! u64 entries                   then entries × record, keys ascending
//!   u32 key_len, key_len × u32  attribute-set key (sorted ids)
//!   u64 support
//!   u64 epsilon                 f64::to_bits
//!   u64 covered_len, × u32      covered vertex ids
//!   14 × u64                    coverage SearchStats (field order,
//!                               without the always-0 blocks_skipped)
//!   u8 sub_built, u8 has_topk
//!   if has_topk: u64 cliques, each (u32 len, len × u32, u64 mdr_bits,
//!                u64 density_bits), then 14 × u64 top-k SearchStats
//! u64 checksum                  FNV-1a 64 of every preceding byte
//! ```
//!
//! Keys are written in ascending order and floats as raw IEEE-754 bits,
//! so encoding is deterministic: the same memo always produces the same
//! bytes. The two fingerprints pin the memo to the parameters and the
//! exact graph it was recorded against; recovery checks both and falls
//! back to a recording mine (with a report, never silently wrong
//! results) on any mismatch.
//!
//! Version 1 also stored `blocks_skipped`, a counter no search increments
//! any more; replaying a v1 record would add the old build's value back
//! into `qc_blocks_skipped`. A v1 memo therefore decodes as
//! [`MemoError::BadVersion`], which recovery treats as "no usable memo".
//!
//! Version 3 has the version 2 layout. The bump marks the greedy witness
//! pass before each coverage search: it lowers the coverage counters a
//! record carries, so a v2 record would replay the old build's counters
//! into a mine that no longer produces them. A v2 memo is refused the
//! same way.
//!
//! Version 4 again keeps the layout. It marks the two-hop core peel that
//! `diameter2` now also switches: the search walks a smaller graph, so a
//! v3 record's coverage and top-k counters are stale, and a v3 memo is
//! refused too.
//!
//! Version 5 keeps the layout and the fingerprint as well. It marks
//! coverage ball by ball (part of `diameter2`): each vertex the witnesses
//! leave open is decided by a search of its own two-hop ball, so a v4
//! record's coverage counters are stale and a v4 memo is refused.

use std::collections::HashMap;

use scpm_graph::attributed::AttrId;
use scpm_graph::csr::VertexId;
use scpm_graph::snapshot::fnv1a64;
use scpm_quasiclique::{QuasiClique, SearchOrder, SearchStats};

use crate::incremental::{EvalMemo, EvalRecord};
use crate::params::ScpmParams;

const MAGIC: &[u8; 8] = b"SCPMMEMO";

/// Current memo file format version.
pub const VERSION: u32 = 5;

/// Number of `u64` counters a [`SearchStats`] serializes to (every field
/// but the always-0 `blocks_skipped`).
const STATS_FIELDS: usize = 14;

/// Errors produced while decoding a memo file.
#[derive(Debug, PartialEq, Eq)]
pub enum MemoError {
    /// The buffer does not start with the memo magic.
    NotAMemo,
    /// Unsupported format version.
    BadVersion(u32),
    /// The trailing checksum does not match the content.
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
    /// Bytes remain after the declared content.
    TrailingData {
        /// Number of unconsumed payload bytes.
        bytes: usize,
    },
    /// A declared count is implausible (corrupt behind a forged checksum).
    OutOfRange {
        /// What the decoder was reading.
        reading: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Underlying I/O failure (file variants only).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for MemoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoError::NotAMemo => write!(f, "not a scpm memo file (bad magic)"),
            MemoError::BadVersion(v) => write!(
                f,
                "unsupported memo version {v} (this build reads version {VERSION})"
            ),
            MemoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "memo checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            MemoError::Truncated { reading } => {
                write!(f, "memo truncated while reading {reading}")
            }
            MemoError::TrailingData { bytes } => {
                write!(f, "memo has {bytes} trailing bytes after declared content")
            }
            MemoError::OutOfRange { reading, value } => {
                write!(f, "memo {reading} value {value} out of range")
            }
            MemoError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for MemoError {}

impl From<std::io::Error> for MemoError {
    fn from(e: std::io::Error) -> Self {
        MemoError::Io(e.kind())
    }
}

/// Fingerprint of every result-affecting parameter, stored in the memo
/// header. A memo recorded under different parameters must not replay:
/// records carry ε values, covered sets, and search counters that are
/// functions of the parameters.
pub fn params_fingerprint(params: &ScpmParams) -> u64 {
    let mut buf = Vec::with_capacity(27 * 8);
    let mut word = |w: u64| buf.extend_from_slice(&w.to_le_bytes());
    word(params.sigma_min as u64);
    word(params.quasi_clique.gamma.to_bits());
    word(params.quasi_clique.min_size as u64);
    word(params.eps_min.to_bits());
    word(params.delta_min.to_bits());
    word(params.k as u64);
    word(match params.search_order {
        SearchOrder::Dfs => 0,
        SearchOrder::Bfs => 1,
    });
    word(params.max_attrs as u64);
    word(params.min_attrs as u64);
    word(params.prune.vertex_pruning as u64);
    word(params.prune.eps_pruning as u64);
    word(params.prune.delta_pruning as u64);
    word(params.qc_prune.feasibility as u64);
    word(params.qc_prune.bounds as u64);
    word(params.qc_prune.critical as u64);
    word(params.qc_prune.cover_vertex as u64);
    word(params.qc_prune.lookahead as u64);
    word(params.qc_prune.covered_candidate as u64);
    word(params.qc_prune.diameter2 as u64);
    word(params.qc_prune.witnesses as u64);
    // The representation never changes *results*, but memo records
    // carry representation-dependent kernel counters (edge_tests,
    // probes_elided, …) that feed the served /stats payload; replaying
    // them under another representation would misreport. Pin it.
    word(params.repr as u64);
    fnv1a64(&buf)
}

fn put_stats(buf: &mut Vec<u8>, s: &SearchStats) {
    for w in [
        s.nodes_visited,
        s.pruned_feasibility,
        s.pruned_interval,
        s.forced_critical,
        s.pruned_cover,
        s.pruned_lookahead,
        s.pruned_covered,
        s.pruned_size_bound,
        s.emitted,
        s.edge_tests,
        s.kernel_ops,
        s.fused_ops,
        s.probes_elided,
        s.batch_ops,
    ] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encodes a memo (with the fingerprints it is pinned to) into the
/// deterministic binary format.
pub fn encode_memo(memo: &EvalMemo, params_fingerprint: u64, graph_fingerprint: u64) -> Vec<u8> {
    let mut keys: Vec<&Vec<AttrId>> = memo.keys().collect();
    keys.sort();
    let mut buf = Vec::with_capacity(8 + 4 + 8 * 3 + memo.len() * 64);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&params_fingerprint.to_le_bytes());
    buf.extend_from_slice(&graph_fingerprint.to_le_bytes());
    buf.extend_from_slice(&(memo.len() as u64).to_le_bytes());
    for key in keys {
        let rec = &memo[key];
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        for &a in key {
            buf.extend_from_slice(&a.to_le_bytes());
        }
        buf.extend_from_slice(&(rec.support as u64).to_le_bytes());
        buf.extend_from_slice(&rec.epsilon.to_bits().to_le_bytes());
        buf.extend_from_slice(&(rec.covered.len() as u64).to_le_bytes());
        for &v in &rec.covered {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        put_stats(&mut buf, &rec.coverage_stats);
        buf.push(rec.sub_built as u8);
        buf.push(rec.topk.is_some() as u8);
        if let Some((cliques, stats)) = &rec.topk {
            buf.extend_from_slice(&(cliques.len() as u64).to_le_bytes());
            for q in cliques {
                buf.extend_from_slice(&(q.vertices.len() as u32).to_le_bytes());
                for &v in &q.vertices {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&q.min_degree_ratio.to_bits().to_le_bytes());
                buf.extend_from_slice(&q.edge_density.to_bits().to_le_bytes());
            }
            put_stats(&mut buf, stats);
        }
    }
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// A decoded memo file: the memo plus the fingerprints it was pinned to.
#[derive(Debug)]
pub struct DecodedMemo {
    /// The evaluation memo.
    pub memo: EvalMemo,
    /// Fingerprint of the parameters the memo was recorded under.
    pub params_fingerprint: u64,
    /// Fingerprint of the snapshot encoding of the recorded-against graph.
    pub graph_fingerprint: u64,
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], MemoError> {
        if self.data.len() - self.pos < n {
            return Err(MemoError::Truncated { reading });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, reading: &'static str) -> Result<u8, MemoError> {
        Ok(self.take(1, reading)?[0])
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, MemoError> {
        Ok(u32::from_le_bytes(
            self.take(4, reading)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, MemoError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?.try_into().unwrap(),
        ))
    }

    /// A count that `per_item` more bytes must back — rejects forged
    /// counts before they can drive a huge allocation.
    fn count(&mut self, per_item: usize, reading: &'static str) -> Result<usize, MemoError> {
        let n = self.u64(reading)?;
        let remaining = (self.data.len() - self.pos) as u64;
        if n.checked_mul(per_item as u64).is_none_or(|b| b > remaining) {
            return Err(MemoError::OutOfRange { reading, value: n });
        }
        Ok(n as usize)
    }
}

fn take_stats(c: &mut Cursor<'_>, reading: &'static str) -> Result<SearchStats, MemoError> {
    let mut w = [0u64; STATS_FIELDS];
    for slot in &mut w {
        *slot = c.u64(reading)?;
    }
    Ok(SearchStats {
        nodes_visited: w[0],
        pruned_feasibility: w[1],
        pruned_interval: w[2],
        forced_critical: w[3],
        pruned_cover: w[4],
        pruned_lookahead: w[5],
        pruned_covered: w[6],
        pruned_size_bound: w[7],
        emitted: w[8],
        edge_tests: w[9],
        kernel_ops: w[10],
        fused_ops: w[11],
        blocks_skipped: 0,
        probes_elided: w[12],
        batch_ops: w[13],
    })
}

/// Decodes a memo file. Checks run outside-in like the snapshot
/// decoder: magic, version, whole-file checksum, then the structural
/// pass (every count is validated against the remaining bytes, so a
/// forged checksum still cannot panic the decoder or balloon memory).
pub fn decode_memo(data: &[u8]) -> Result<DecodedMemo, MemoError> {
    if data.len() < 8 || &data[..8] != MAGIC {
        return Err(MemoError::NotAMemo);
    }
    if data.len() < 12 {
        return Err(MemoError::Truncated { reading: "header" });
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(MemoError::BadVersion(version));
    }
    if data.len() < 12 + 8 {
        return Err(MemoError::Truncated {
            reading: "checksum",
        });
    }
    let body = &data[..data.len() - 8];
    let stored = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(MemoError::ChecksumMismatch { stored, computed });
    }

    let mut c = Cursor {
        data: body,
        pos: 12,
    };
    let params_fingerprint = c.u64("params fingerprint")?;
    let graph_fingerprint = c.u64("graph fingerprint")?;
    let entries = c.count(4, "entry count")?;
    let mut memo: EvalMemo = HashMap::with_capacity(entries);
    for _ in 0..entries {
        let key_len = c.u32("key length")? as usize;
        let mut key = Vec::with_capacity(key_len.min(1 << 16));
        for _ in 0..key_len {
            key.push(c.u32("key attribute")? as AttrId);
        }
        let support = c.u64("support")? as usize;
        let epsilon = f64::from_bits(c.u64("epsilon")?);
        let covered_len = c.count(4, "covered count")?;
        let mut covered = Vec::with_capacity(covered_len);
        for _ in 0..covered_len {
            covered.push(c.u32("covered vertex")? as VertexId);
        }
        let coverage_stats = take_stats(&mut c, "coverage stats")?;
        let sub_built = c.u8("sub_built flag")? != 0;
        let has_topk = c.u8("topk flag")?;
        let topk = match has_topk {
            0 => None,
            1 => {
                let n = c.count(4 + 16, "clique count")?;
                let mut cliques = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = c.u32("clique size")? as usize;
                    let mut vertices = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        vertices.push(c.u32("clique vertex")? as VertexId);
                    }
                    let min_degree_ratio = f64::from_bits(c.u64("clique gamma")?);
                    let edge_density = f64::from_bits(c.u64("clique density")?);
                    cliques.push(QuasiClique {
                        vertices,
                        min_degree_ratio,
                        edge_density,
                    });
                }
                let stats = take_stats(&mut c, "topk stats")?;
                Some((cliques, stats))
            }
            v => {
                return Err(MemoError::OutOfRange {
                    reading: "topk flag",
                    value: v as u64,
                })
            }
        };
        if memo
            .insert(
                key,
                EvalRecord {
                    support,
                    epsilon,
                    covered,
                    coverage_stats,
                    sub_built,
                    topk,
                },
            )
            .is_some()
        {
            return Err(MemoError::OutOfRange {
                reading: "duplicate memo key",
                value: memo.len() as u64,
            });
        }
    }
    if c.pos != body.len() {
        return Err(MemoError::TrailingData {
            bytes: body.len() - c.pos,
        });
    }
    Ok(DecodedMemo {
        memo,
        params_fingerprint,
        graph_fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::MiningState;
    use crate::nullmodel::NullModelCache;
    use crate::parallel::ParallelConfig;
    use scpm_graph::figure1::figure1;
    use std::sync::Arc;

    fn sample_memo() -> (EvalMemo, ScpmParams) {
        let g = Arc::new(figure1());
        let params = ScpmParams::new(4, 0.5, 3).with_min_attrs(1);
        let cache = Arc::new(NullModelCache::new());
        let (state, _, _) = MiningState::record(g, cache, &params, &ParallelConfig::new(1));
        let memo = EvalMemo::clone(state.memo());
        assert!(!memo.is_empty());
        (memo, params)
    }

    #[test]
    fn roundtrip_real_memo() {
        let (memo, params) = sample_memo();
        let pfp = params_fingerprint(&params);
        let bytes = encode_memo(&memo, pfp, 0xabcd);
        let dec = decode_memo(&bytes).unwrap();
        assert_eq!(dec.params_fingerprint, pfp);
        assert_eq!(dec.graph_fingerprint, 0xabcd);
        assert_eq!(dec.memo.len(), memo.len());
        for (key, rec) in &memo {
            let got = &dec.memo[key];
            assert_eq!(got.support, rec.support);
            assert_eq!(got.epsilon.to_bits(), rec.epsilon.to_bits());
            assert_eq!(got.covered, rec.covered);
            assert_eq!(got.coverage_stats, rec.coverage_stats);
            assert_eq!(got.sub_built, rec.sub_built);
            match (&got.topk, &rec.topk) {
                (None, None) => {}
                (Some((qa, sa)), Some((qb, sb))) => {
                    assert_eq!(sa, sb);
                    assert_eq!(qa.len(), qb.len());
                    for (x, y) in qa.iter().zip(qb) {
                        assert_eq!(x.vertices, y.vertices);
                        assert_eq!(x.min_degree_ratio.to_bits(), y.min_degree_ratio.to_bits());
                        assert_eq!(x.edge_density.to_bits(), y.edge_density.to_bits());
                    }
                }
                other => panic!("topk mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (memo, params) = sample_memo();
        let pfp = params_fingerprint(&params);
        assert_eq!(encode_memo(&memo, pfp, 7), encode_memo(&memo, pfp, 7));
        // And insertion order cannot matter: rebuild the map in a
        // different order.
        let mut entries: Vec<_> = memo.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.reverse();
        let reordered: EvalMemo = entries.into_iter().collect();
        assert_eq!(encode_memo(&memo, pfp, 7), encode_memo(&reordered, pfp, 7));
    }

    #[test]
    fn fingerprint_distinguishes_parameters() {
        let base = ScpmParams::new(4, 0.5, 3);
        let fp = params_fingerprint(&base);
        assert_eq!(fp, params_fingerprint(&base.clone()));
        assert_ne!(fp, params_fingerprint(&ScpmParams::new(5, 0.5, 3)));
        assert_ne!(fp, params_fingerprint(&ScpmParams::new(4, 0.6, 3)));
        assert_ne!(fp, params_fingerprint(&base.clone().with_eps_min(0.1)));
        assert_ne!(fp, params_fingerprint(&base.clone().with_top_k(2)));
        assert_ne!(
            fp,
            params_fingerprint(&base.clone().with_order(SearchOrder::Bfs))
        );
        let mut no_witnesses = base.clone();
        no_witnesses.qc_prune.witnesses = false;
        assert_ne!(fp, params_fingerprint(&no_witnesses));
    }

    #[test]
    fn every_prefix_and_flip_fails_cleanly() {
        let (memo, params) = sample_memo();
        let bytes = encode_memo(&memo, params_fingerprint(&params), 1);
        for cut in 0..bytes.len() {
            assert!(decode_memo(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        for off in (0..bytes.len()).step_by(3) {
            let mut bad = bytes.clone();
            bad[off] ^= 0x20;
            assert!(decode_memo(&bad).is_err(), "flip at {off} accepted");
        }
    }

    #[test]
    fn forged_count_is_rejected_without_allocating() {
        // Entry count far beyond the buffer, checksum resealed: the
        // count/remaining-bytes guard must reject it.
        let (memo, params) = sample_memo();
        let mut bytes = encode_memo(&memo, params_fingerprint(&params), 1);
        let count_off = 8 + 4 + 8 + 8;
        bytes[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
        assert!(matches!(
            decode_memo(&bytes),
            Err(MemoError::OutOfRange { .. })
        ));
    }

    /// A well-formed memo whose header claims `version`, checksum resealed.
    fn memo_with_version(version: u32) -> Vec<u8> {
        let (memo, params) = sample_memo();
        let mut bytes = encode_memo(&memo, params_fingerprint(&params), 1);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
        bytes
    }

    #[test]
    fn version_1_memo_is_rejected() {
        let bytes = memo_with_version(1);
        assert_eq!(decode_memo(&bytes).unwrap_err(), MemoError::BadVersion(1));
    }

    #[test]
    fn version_2_memo_is_rejected() {
        // v2 records carry coverage counters from before the witness pass.
        let bytes = memo_with_version(2);
        assert_eq!(decode_memo(&bytes).unwrap_err(), MemoError::BadVersion(2));
    }

    #[test]
    fn version_3_memo_is_rejected() {
        // v3 records carry search counters from before the two-hop peel.
        let bytes = memo_with_version(3);
        assert_eq!(decode_memo(&bytes).unwrap_err(), MemoError::BadVersion(3));
    }

    #[test]
    fn version_4_memo_is_rejected() {
        // v4 records carry coverage counters from before coverage ball by
        // ball.
        let bytes = memo_with_version(4);
        assert_eq!(decode_memo(&bytes).unwrap_err(), MemoError::BadVersion(4));
    }

    #[test]
    fn empty_memo_roundtrips() {
        let bytes = encode_memo(&EvalMemo::new(), 1, 2);
        let dec = decode_memo(&bytes).unwrap();
        assert!(dec.memo.is_empty());
        assert_eq!((dec.params_fingerprint, dec.graph_fingerprint), (1, 2));
    }
}
