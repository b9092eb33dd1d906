//! The durable data directory: generation-numbered snapshots, memo
//! files, and write-ahead journals, with checkpointing and recovery.
//!
//! A data directory holds the crash-safe state of one served graph:
//!
//! ```text
//! data-dir/
//!   snapshot-<g>.snap   atomic graph snapshot at generation g
//!   memo-<g>.bin        evaluation memo of the mine at generation g
//!   journal-<g>.wal     write-ahead log of deltas applied after g
//! ```
//!
//! The **generation** of a catalog is the cumulative count of deltas
//! ever journaled; a checkpoint at generation `g` freezes the graph and
//! memo into `snapshot-<g>` / `memo-<g>` and opens a fresh
//! `journal-<g>` whose records continue the sequence at `g + 1`. The
//! checkpoint order is: snapshot (atomic) → memo (atomic) → journal
//! creation (atomic) — the journal's appearance is the commit point —
//! then old generations are pruned down to the newest two, so one full
//! fallback generation always survives a corrupt snapshot.
//!
//! **Recovery** ([`recover`]) loads the newest decodable snapshot
//! (falling back one generation on corruption), chains every journal's
//! records into one contiguous delta sequence, repairs a torn tail on
//! the live journal, and hands the deltas past the chosen snapshot to
//! [`replay_mine`], which folds them into the final graph and runs one
//! incremental mine over the union of their dirty regions — replaying
//! the persisted memo instead of running a recording mine, so a restart
//! costs one memo replay however many deltas the journal holds. The
//! crash-recovery differential harness (`tests/crash_recovery.rs`)
//! proves every fault point of this protocol lands on an atomic pre- or
//! post-commit state; the full protocol is documented in
//! `docs/DURABILITY.md`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use scpm_graph::attributed::AttributedGraph;
use scpm_graph::delta::GraphDelta;
use scpm_graph::fault::{write_atomic_with, FaultInjector};
use scpm_graph::journal::{read_journal, repair_torn_tail, JournalError, JournalWriter, TornTail};
use scpm_graph::snapshot::{self, fnv1a64, SnapshotError};

use crate::incremental::{DirtySet, EvalMemo, IncrementalStats, MiningState};
use crate::memoio::{self, MemoError};
use crate::nullmodel::NullModelCache;
use crate::parallel::ParallelConfig;
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;

/// Errors produced by checkpointing or recovery.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The directory holds no snapshot at all (uninitialized).
    Uninitialized,
    /// Every candidate snapshot failed to decode; recovery cannot
    /// proceed without operator intervention.
    NoUsableSnapshot {
        /// The generations tried, newest first, with their errors.
        tried: Vec<(u64, SnapshotError)>,
    },
    /// A journal failed to read (mid-log corruption, bad header, …).
    Journal {
        /// Generation of the offending journal file.
        generation: u64,
        /// The underlying journal error.
        error: JournalError,
    },
    /// The chained journal records do not form a contiguous sequence —
    /// a journal file is missing or was pruned while still needed.
    SequenceGap {
        /// First sequence number that is missing.
        expected: u64,
        /// Sequence number actually found (or `None` at end of chain).
        found: Option<u64>,
    },
    /// A journaled delta no longer applies to the recovered graph
    /// (impossible without external tampering; never silently skipped).
    BadDelta {
        /// Sequence number of the offending record.
        seq: u64,
        /// Why it failed to apply.
        detail: String,
    },
    /// Snapshot encode/write failure during a checkpoint.
    Snapshot(SnapshotError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Uninitialized => {
                write!(f, "data directory holds no snapshot (not initialized)")
            }
            StoreError::NoUsableSnapshot { tried } => {
                write!(f, "no usable snapshot: ")?;
                for (i, (g, e)) in tried.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "generation {g}: {e}")?;
                }
                Ok(())
            }
            StoreError::Journal { generation, error } => {
                write!(f, "journal for generation {generation}: {error}")
            }
            StoreError::SequenceGap { expected, found } => write!(
                f,
                "journal chain gap: expected delta {expected}, found {found:?}"
            ),
            StoreError::BadDelta { seq, detail } => {
                write!(f, "journaled delta {seq} does not apply: {detail}")
            }
            StoreError::Snapshot(e) => write!(f, "snapshot write failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Handle to a durable data directory (creates it on open).
#[derive(Debug, Clone)]
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    /// Opens (creating if needed) a data directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DataDir> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DataDir { root })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the generation-`g` snapshot.
    pub fn snapshot_path(&self, g: u64) -> PathBuf {
        self.root.join(format!("snapshot-{g:020}.snap"))
    }

    /// Path of the generation-`g` evaluation memo.
    pub fn memo_path(&self, g: u64) -> PathBuf {
        self.root.join(format!("memo-{g:020}.bin"))
    }

    /// Path of the journal continuing from generation `g`.
    pub fn journal_path(&self, g: u64) -> PathBuf {
        self.root.join(format!("journal-{g:020}.wal"))
    }

    fn list_generations(&self, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix(prefix)
                .and_then(|r| r.strip_suffix(suffix))
            {
                if let Ok(g) = mid.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Snapshot generations present, ascending.
    pub fn snapshot_generations(&self) -> io::Result<Vec<u64>> {
        self.list_generations("snapshot-", ".snap")
    }

    /// Journal generations present, ascending.
    pub fn journal_generations(&self) -> io::Result<Vec<u64>> {
        self.list_generations("journal-", ".wal")
    }

    /// Whether the directory holds at least one snapshot.
    pub fn is_initialized(&self) -> bool {
        matches!(self.snapshot_generations(), Ok(g) if !g.is_empty())
    }

    /// Best-effort prune after a checkpoint at `current`: keep the two
    /// newest snapshot generations (current + one fallback) with their
    /// memos and journals, drop everything older plus `*.tmp` debris.
    /// Errors are swallowed — pruning is an optimization, never a
    /// correctness requirement.
    fn prune(&self, current: u64) {
        let Ok(snap_gens) = self.snapshot_generations() else {
            return;
        };
        let keep_floor = snap_gens
            .iter()
            .rev()
            .filter(|&&g| g <= current)
            .nth(1)
            .copied()
            .unwrap_or(current);
        let drop_files = |gens: &[u64], path_of: &dyn Fn(u64) -> PathBuf| {
            for &g in gens.iter().filter(|&&g| g < keep_floor) {
                let _ = std::fs::remove_file(path_of(g));
            }
        };
        drop_files(&snap_gens, &|g| self.snapshot_path(g));
        if let Ok(gens) = self.list_generations("memo-", ".bin") {
            drop_files(&gens, &|g| self.memo_path(g));
        }
        if let Ok(gens) = self.journal_generations() {
            drop_files(&gens, &|g| self.journal_path(g));
        }
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Writes a checkpoint at `generation`: atomic snapshot, atomic memo,
/// then a fresh journal whose atomic creation is the commit point.
/// Returns the open journal writer subsequent deltas append to. Old
/// generations are pruned (best-effort) down to the newest two.
pub fn checkpoint(
    dir: &DataDir,
    generation: u64,
    graph: &AttributedGraph,
    memo: &EvalMemo,
    params: &ScpmParams,
) -> Result<JournalWriter, StoreError> {
    checkpoint_with(&FaultInjector::none(), dir, generation, graph, memo, params)
}

/// [`checkpoint`] with fault injection over every durability operation.
pub fn checkpoint_with(
    inj: &FaultInjector,
    dir: &DataDir,
    generation: u64,
    graph: &AttributedGraph,
    memo: &EvalMemo,
    params: &ScpmParams,
) -> Result<JournalWriter, StoreError> {
    let snap_bytes = snapshot::encode(graph);
    write_atomic_with(inj, &dir.snapshot_path(generation), &snap_bytes)?;
    let memo_bytes = memoio::encode_memo(
        memo,
        memoio::params_fingerprint(params),
        fnv1a64(&snap_bytes),
    );
    write_atomic_with(inj, &dir.memo_path(generation), &memo_bytes)?;
    // Commit point: once journal-<g> exists, recovery prefers
    // generation g (its snapshot and memo are already in place).
    let writer = JournalWriter::create_with(inj, &dir.journal_path(generation), generation)?;
    dir.prune(generation);
    Ok(writer)
}

/// How many snapshot generations back recovery will probe on corruption
/// (the checkpoint protocol retains exactly one fallback generation).
const FALLBACK_DEPTH: usize = 2;

/// The recovered-but-not-yet-mined state of a data directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// Graph decoded from the chosen snapshot.
    pub base_graph: AttributedGraph,
    /// Generation of the chosen snapshot.
    pub base_generation: u64,
    /// Memo loaded alongside the snapshot, with its params fingerprint —
    /// `None` (plus a note) when missing, corrupt, or recorded against a
    /// different graph.
    pub memo: Option<(EvalMemo, u64)>,
    /// Why the memo is unusable, when it is.
    pub memo_note: Option<String>,
    /// Deltas to replay past the snapshot, in sequence order
    /// (`base_generation + 1, …`).
    pub deltas: Vec<GraphDelta>,
    /// Snapshot generations that failed to decode before one succeeded
    /// (non-empty means recovery fell back).
    pub snapshot_errors: Vec<(u64, SnapshotError)>,
    /// Torn tail repaired off the live journal, if any.
    pub repaired: Option<TornTail>,
}

impl RecoveredState {
    /// The generation recovery lands on after replaying every delta.
    pub fn target_generation(&self) -> u64 {
        self.base_generation + self.deltas.len() as u64
    }
}

/// Recovers the durable state of a data directory: newest decodable
/// snapshot (falling back up to one generation), its memo, and the
/// contiguous chain of journaled deltas past it. Repairs (truncates) a
/// torn tail on the newest journal, reporting it. Fails — never guesses
/// — on mid-log corruption, a broken chain, or no usable snapshot.
pub fn recover(dir: &DataDir) -> Result<RecoveredState, StoreError> {
    let snap_gens = dir.snapshot_generations()?;
    if snap_gens.is_empty() {
        return Err(StoreError::Uninitialized);
    }

    // Newest decodable snapshot among the retained generations.
    let mut snapshot_errors = Vec::new();
    let mut chosen: Option<(u64, Vec<u8>, AttributedGraph)> = None;
    for &g in snap_gens.iter().rev().take(FALLBACK_DEPTH) {
        let bytes = match std::fs::read(dir.snapshot_path(g)) {
            Ok(b) => b,
            Err(e) => {
                snapshot_errors.push((g, SnapshotError::Io(e.kind())));
                continue;
            }
        };
        match snapshot::decode(&bytes) {
            Ok(graph) => {
                chosen = Some((g, bytes, graph));
                break;
            }
            Err(e) => snapshot_errors.push((g, e)),
        }
    }
    let Some((base_generation, snap_bytes, base_graph)) = chosen else {
        return Err(StoreError::NoUsableSnapshot {
            tried: snapshot_errors,
        });
    };

    // Repair a torn tail on the newest journal (the only one a crash
    // can have torn: sealed journals were complete before the next
    // checkpoint committed).
    let journal_gens = dir.journal_generations()?;
    let mut repaired = None;
    if let Some(&last) = journal_gens.last() {
        repaired =
            repair_torn_tail(dir.journal_path(last)).map_err(|error| StoreError::Journal {
                generation: last,
                error,
            })?;
    }

    // Chain every journal's records into one contiguous sequence. The
    // protocol guarantees each sealed journal ends exactly where the
    // next begins; anything else is a gap we refuse to paper over.
    let mut deltas: Vec<GraphDelta> = Vec::new();
    let mut next_expected: Option<u64> = None;
    for &g in &journal_gens {
        let read = read_journal(dir.journal_path(g)).map_err(|error| StoreError::Journal {
            generation: g,
            error,
        })?;
        debug_assert_eq!(read.base_generation, g);
        if let Some(expected) = next_expected {
            if read.base_generation != expected {
                return Err(StoreError::SequenceGap {
                    expected: expected + 1,
                    found: read.records.first().map(|r| r.seq),
                });
            }
        }
        for rec in &read.records {
            if rec.seq > base_generation {
                // Records at or below the snapshot are already folded
                // into it; replay only what came after.
                if base_generation + deltas.len() as u64 + 1 != rec.seq {
                    return Err(StoreError::SequenceGap {
                        expected: base_generation + deltas.len() as u64 + 1,
                        found: Some(rec.seq),
                    });
                }
                deltas.push(rec.delta.clone());
            }
        }
        next_expected = Some(read.last_seq());
    }

    // The memo of the chosen generation, pinned to exactly this
    // snapshot's bytes. Unusable memos degrade recovery to a recording
    // mine — slower, never wrong.
    let mut memo = None;
    let mut memo_note = None;
    let memo_path = dir.memo_path(base_generation);
    match std::fs::read(&memo_path) {
        Err(e) => {
            memo_note = Some(format!(
                "memo {} unreadable ({e}); recovery will run a recording mine",
                memo_path.display()
            ));
        }
        Ok(bytes) => match memoio::decode_memo(&bytes) {
            Err(e @ MemoError::NotAMemo)
            | Err(e @ MemoError::BadVersion(_))
            | Err(e @ MemoError::ChecksumMismatch { .. })
            | Err(e @ MemoError::Truncated { .. })
            | Err(e @ MemoError::TrailingData { .. })
            | Err(e @ MemoError::OutOfRange { .. })
            | Err(e @ MemoError::Io(_)) => {
                memo_note = Some(format!(
                    "memo {} corrupt ({e}); recovery will run a recording mine",
                    memo_path.display()
                ));
            }
            Ok(decoded) => {
                if decoded.graph_fingerprint != fnv1a64(&snap_bytes) {
                    memo_note = Some(
                        "memo was recorded against a different graph; \
                         recovery will run a recording mine"
                            .into(),
                    );
                } else {
                    memo = Some((decoded.memo, decoded.params_fingerprint));
                }
            }
        },
    }

    Ok(RecoveredState {
        base_graph,
        base_generation,
        memo,
        memo_note,
        deltas,
        snapshot_errors,
        repaired,
    })
}

/// Outcome of [`replay_mine`]: the fully recovered mining state.
#[derive(Debug)]
pub struct RecoveredMine {
    /// The graph after every journaled delta, its `exp(σ)` cache, and the
    /// evaluation memo of the recovery mine (recorded, so updates chain).
    pub mining: MiningState,
    /// Mining result over the final graph — byte-identical to a
    /// from-scratch mine (the incremental-path invariant).
    pub result: ScpmResult,
    /// Generation of the recovered catalog (snapshot + replayed deltas).
    pub generation: u64,
    /// Generation of the snapshot recovery started from.
    pub checkpoint_generation: u64,
    /// Whether the persisted memo was replayed (`false` = recording
    /// mine, because the memo was unusable or params changed).
    pub memo_replayed: bool,
    /// Why the memo was not replayed, when it was not.
    pub memo_note: Option<String>,
    /// Counters of the one recovery mine.
    pub incremental: IncrementalStats,
    /// Number of journaled deltas replayed.
    pub replayed_deltas: usize,
    /// Snapshot generations skipped as corrupt (non-empty = fell back).
    pub snapshot_errors: Vec<(u64, SnapshotError)>,
    /// Torn tail repaired off the live journal, if any.
    pub repaired: Option<TornTail>,
}

/// Replays a [`RecoveredState`] into a live mining state under `params`.
/// Every journaled delta is folded into the final graph, and the union of
/// their dirty regions bounds what may have changed since the persisted
/// memo was recorded (`ε(S)` depends only on `V(S)` and `G(S)`). One
/// update-mode mine of the final graph then replays every set outside
/// that region, so the result is byte-identical to a full mine however
/// many deltas the journal holds. When the memo is unusable (or was
/// recorded under different parameters) the mine is a recording one
/// instead — reported, never silent.
pub fn replay_mine(
    state: RecoveredState,
    params: &ScpmParams,
    config: &ParallelConfig,
) -> Result<RecoveredMine, StoreError> {
    let RecoveredState {
        base_graph,
        base_generation,
        memo,
        mut memo_note,
        deltas,
        snapshot_errors,
        repaired,
    } = state;

    let memo = match memo {
        Some((memo, fp)) if fp == memoio::params_fingerprint(params) => Some(memo),
        Some(_) => {
            memo_note = Some(
                "memo was recorded under different parameters; \
                 recovery will run a recording mine"
                    .into(),
            );
            None
        }
        None => None,
    };

    let mut graph = base_graph;
    let mut dirty = DirtySet::clean(graph.num_attributes());
    for (seq, delta) in (base_generation + 1..).zip(&deltas) {
        let applied = delta.apply(&graph).map_err(|e| StoreError::BadDelta {
            seq,
            detail: e.to_string(),
        })?;
        dirty.union_with(&DirtySet::from_delta(&applied.graph, &applied));
        graph = applied.graph;
    }
    let graph = Arc::new(graph);
    let memo_replayed = memo.is_some();
    let (mining, result, incremental) = match memo {
        Some(memo) => MiningState::update(Arc::new(memo), graph, dirty, params, config),
        None => MiningState::record(graph, Arc::new(NullModelCache::new()), params, config),
    };
    Ok(RecoveredMine {
        mining,
        result,
        generation: base_generation + deltas.len() as u64,
        checkpoint_generation: base_generation,
        memo_replayed,
        memo_note,
        incremental,
        replayed_deltas: deltas.len(),
        snapshot_errors,
        repaired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::figure1::figure1;

    fn tdir(name: &str) -> DataDir {
        let root = std::env::temp_dir().join(format!("scpm_store_{name}"));
        let _ = std::fs::remove_dir_all(&root);
        DataDir::open(root).unwrap()
    }

    fn table1_params() -> ScpmParams {
        ScpmParams::new(3, 0.6, 4).with_eps_min(0.5)
    }

    fn full_mine(graph: &AttributedGraph, params: &ScpmParams) -> ScpmResult {
        crate::parallel::run_parallel_with(graph, params.clone(), &ParallelConfig::new(1))
    }

    fn record_memo(graph: &AttributedGraph, params: &ScpmParams) -> Arc<EvalMemo> {
        let graph = Arc::new(graph.clone());
        let cache = Arc::new(NullModelCache::new());
        let (state, _, _) = MiningState::record(graph, cache, params, &ParallelConfig::new(1));
        Arc::clone(state.memo())
    }

    fn seed(dir: &DataDir) -> (AttributedGraph, ScpmParams, JournalWriter) {
        let graph = figure1();
        let params = table1_params();
        let memo = record_memo(&graph, &params);
        let writer = checkpoint(dir, 0, &graph, &memo, &params).unwrap();
        (graph, params, writer)
    }

    #[test]
    fn uninitialized_dir_reports_cleanly() {
        let dir = tdir("uninit");
        assert!(!dir.is_initialized());
        assert!(matches!(recover(&dir), Err(StoreError::Uninitialized)));
    }

    #[test]
    fn checkpoint_then_recover_replays_without_recording() {
        let dir = tdir("roundtrip");
        let (graph, params, _writer) = seed(&dir);
        assert!(dir.is_initialized());
        let state = recover(&dir).unwrap();
        assert_eq!(state.base_generation, 0);
        assert!(state.deltas.is_empty());
        assert!(state.memo.is_some(), "{:?}", state.memo_note);
        let mine = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        assert!(mine.memo_replayed);
        assert_eq!(
            mine.incremental.reevaluated, 0,
            "restart must not re-search any lattice node"
        );
        assert!(mine.incremental.reused > 0);
        // Byte-identity with a fresh full mine.
        let full = full_mine(&graph, &params);
        assert_eq!(
            format!("{:?}", mine.result.reports),
            format!("{:?}", full.reports)
        );
    }

    #[test]
    fn journal_deltas_replay_on_top_of_the_snapshot() {
        let dir = tdir("deltas");
        let (graph, params, mut writer) = seed(&dir);
        let d1 = GraphDelta::parse("v 1\ne 0 11\na 11 A\n").unwrap();
        let d2 = GraphDelta::parse("e 1 11\n").unwrap();
        assert_eq!(writer.append(&d1).unwrap(), 1);
        assert_eq!(writer.append(&d2).unwrap(), 2);

        let state = recover(&dir).unwrap();
        assert_eq!(state.deltas.len(), 2);
        assert_eq!(state.target_generation(), 2);
        let mine = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        assert!(mine.memo_replayed);
        assert_eq!(mine.generation, 2);

        let expect = d2.apply(&d1.apply(&graph).unwrap().graph).unwrap().graph;
        let full = full_mine(&expect, &params);
        assert_eq!(
            format!("{:?}", mine.result.reports),
            format!("{:?}", full.reports)
        );
        assert_eq!(
            snapshot::encode(mine.mining.graph()),
            snapshot::encode(&expect),
            "recovered graph must match the delta-applied graph exactly"
        );
    }

    #[test]
    fn replay_over_many_deltas_evaluates_each_set_once() {
        // Recovery runs one mine however long the journal: every lattice
        // set is either replayed or evaluated live exactly once, and the
        // result equals a fresh mine of the final graph, counters included.
        let dir = tdir("one_mine");
        let (graph, params, mut writer) = seed(&dir);
        let deltas = ["v 1\ne 0 11\na 11 A\n", "a 1 B\n", "e 1 11\n", "a 4 C\n"];
        let mut expect = graph;
        for text in deltas {
            let delta = GraphDelta::parse(text).unwrap();
            writer.append(&delta).unwrap();
            expect = delta.apply(&expect).unwrap().graph;
        }
        let mine = replay_mine(recover(&dir).unwrap(), &params, &ParallelConfig::new(1)).unwrap();
        assert!(mine.memo_replayed);
        assert_eq!(mine.replayed_deltas, deltas.len());
        let examined = mine.result.stats.attribute_sets_examined;
        assert_eq!(
            mine.incremental.reused + mine.incremental.reevaluated,
            examined,
            "{:?}",
            mine.incremental
        );
        assert!(mine.incremental.reused > 0, "{:?}", mine.incremental);
        let full = full_mine(&expect, &params);
        assert_eq!(
            format!("{:?}|{:?}", mine.result.reports, mine.result.patterns),
            format!("{:?}|{:?}", full.reports, full.patterns)
        );
        let (mut got, mut want) = (mine.result.stats, full.stats);
        got.elapsed = Default::default();
        want.elapsed = Default::default();
        assert_eq!(got, want);
    }

    #[test]
    fn corrupt_snapshot_falls_back_one_generation() {
        let dir = tdir("fallback");
        let (_graph, params, mut writer) = seed(&dir);
        let d1 = GraphDelta::parse("v 1\ne 0 11\na 11 A\n").unwrap();
        writer.append(&d1).unwrap();
        // Checkpoint generation 1 from the replayed state, then corrupt
        // its snapshot.
        let state = recover(&dir).unwrap();
        let mine = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        drop(writer);
        let _w1 = checkpoint(&dir, 1, mine.mining.graph(), mine.mining.memo(), &params).unwrap();
        let snap1 = dir.snapshot_path(1);
        let mut bytes = std::fs::read(&snap1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap1, &bytes).unwrap();

        let state = recover(&dir).unwrap();
        assert_eq!(state.base_generation, 0, "fell back to generation 0");
        assert_eq!(state.snapshot_errors.len(), 1);
        assert_eq!(state.deltas.len(), 1, "journal-0 still covers 0 -> 1");
        let recovered = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(
            snapshot::encode(recovered.mining.graph()),
            snapshot::encode(mine.mining.graph())
        );
    }

    #[test]
    fn stale_v2_checkpoints_are_no_usable_snapshot() {
        // A data directory whose retained checkpoints are all version 2
        // (the pre-mmap layout) cannot be recovered: each generation is
        // tried, newest first, and fails with `BadVersion(2)`.
        let dir = tdir("stale_v2");
        let (_graph, params, mut writer) = seed(&dir);
        writer
            .append(&GraphDelta::parse("v 1\ne 0 11\n").unwrap())
            .unwrap();
        let mine = replay_mine(recover(&dir).unwrap(), &params, &ParallelConfig::new(1)).unwrap();
        drop(writer);
        let _w1 = checkpoint(&dir, 1, mine.mining.graph(), mine.mining.memo(), &params).unwrap();
        for g in [0, 1] {
            let path = dir.snapshot_path(g);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }
        match recover(&dir) {
            Err(StoreError::NoUsableSnapshot { tried }) => assert_eq!(
                tried,
                vec![
                    (1, SnapshotError::BadVersion(2)),
                    (0, SnapshotError::BadVersion(2))
                ]
            ),
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_memo_degrades_to_recording_mine() {
        let dir = tdir("badmemo");
        let (graph, params, _writer) = seed(&dir);
        let memo_path = dir.memo_path(0);
        let mut bytes = std::fs::read(&memo_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&memo_path, &bytes).unwrap();

        let state = recover(&dir).unwrap();
        assert!(state.memo.is_none());
        assert!(state.memo_note.is_some());
        let mine = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        assert!(!mine.memo_replayed);
        assert!(mine.memo_note.is_some());
        let full = full_mine(&graph, &params);
        assert_eq!(
            format!("{:?}", mine.result.reports),
            format!("{:?}", full.reports)
        );
    }

    /// Rewrites the seeded memo's header to `version` (checksum resealed)
    /// and checks that recovery refuses it with a note, and that the
    /// recording mine after it equals a fresh mine, counters included.
    fn stale_memo_degrades_to_recording_mine(name: &str, version: u32) -> ScpmResult {
        let dir = tdir(name);
        let (graph, params, _writer) = seed(&dir);
        let memo_path = dir.memo_path(0);
        let mut bytes = std::fs::read(&memo_path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
        std::fs::write(&memo_path, &bytes).unwrap();

        let state = recover(&dir).unwrap();
        assert!(state.memo.is_none());
        let note = state.memo_note.clone().unwrap();
        assert!(
            note.contains(&format!("unsupported memo version {version}")),
            "{note}"
        );
        let mine = replay_mine(state, &params, &ParallelConfig::new(1)).unwrap();
        assert!(!mine.memo_replayed);
        let full = full_mine(&graph, &params);
        assert_eq!(
            format!("{:?}|{:?}", mine.result.reports, mine.result.patterns),
            format!("{:?}|{:?}", full.reports, full.patterns)
        );
        let (mut got, mut want) = (mine.result.stats, full.stats);
        got.elapsed = Default::default();
        want.elapsed = Default::default();
        assert_eq!(got, want);
        mine.result
    }

    #[test]
    fn version_1_memo_degrades_to_recording_mine() {
        // A memo written before the format dropped `blocks_skipped` must
        // not replay that counter.
        let result = stale_memo_degrades_to_recording_mine("v1memo", 1);
        assert_eq!(result.stats.qc_blocks_skipped, 0);
    }

    #[test]
    fn version_2_memo_degrades_to_recording_mine() {
        // A memo written before the greedy witness pass carries coverage
        // counters a fresh mine no longer produces; it must not replay.
        stale_memo_degrades_to_recording_mine("v2memo", 2);
    }

    #[test]
    fn version_3_memo_degrades_to_recording_mine() {
        // A memo written before the two-hop core peel carries search
        // counters a fresh mine no longer produces; it must not replay.
        stale_memo_degrades_to_recording_mine("v3memo", 3);
    }

    #[test]
    fn version_4_memo_degrades_to_recording_mine() {
        // A memo written before coverage ball by ball carries coverage
        // counters a fresh mine no longer produces; it must not replay.
        stale_memo_degrades_to_recording_mine("v4memo", 4);
    }

    #[test]
    fn changed_params_refuse_the_memo() {
        let dir = tdir("badparams");
        let (_graph, _params, _writer) = seed(&dir);
        let other = ScpmParams::new(2, 0.5, 3);
        let state = recover(&dir).unwrap();
        assert!(state.memo.is_some());
        let mine = replay_mine(state, &other, &ParallelConfig::new(1)).unwrap();
        assert!(!mine.memo_replayed);
        assert!(mine.memo_note.unwrap().contains("different parameters"));
    }

    #[test]
    fn prune_keeps_exactly_two_generations() {
        let dir = tdir("prune");
        let (graph, params, writer) = seed(&dir);
        drop(writer);
        let memo = record_memo(&graph, &params);
        for g in [1u64, 2, 3] {
            let _w = checkpoint(&dir, g, &graph, &memo, &params).unwrap();
        }
        assert_eq!(dir.snapshot_generations().unwrap(), vec![2, 3]);
        assert_eq!(dir.journal_generations().unwrap(), vec![2, 3]);
    }

    #[test]
    fn missing_journal_chain_is_a_sequence_gap() {
        let dir = tdir("gap");
        let (graph, params, mut writer) = seed(&dir);
        writer.append(&GraphDelta::parse("v 1\n").unwrap()).unwrap();
        drop(writer);
        // Forge a journal that skips ahead: journal-5 next to snapshot-0
        // (as if intermediate journals were lost).
        let memo = record_memo(&graph, &params);
        let _w5 = checkpoint(&dir, 5, &graph, &memo, &params).unwrap();
        // Corrupt snapshot-5: recovery falls back to generation 0, whose
        // journal ends at delta 1 — but journal-5 claims the sequence
        // resumes at 5. Deltas 2..=5 are unaccounted for; recovery must
        // refuse rather than silently lose them.
        let snap5 = dir.snapshot_path(5);
        let mut bytes = std::fs::read(&snap5).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap5, &bytes).unwrap();
        match recover(&dir) {
            Err(StoreError::SequenceGap { expected, found }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, None);
            }
            other => panic!("expected SequenceGap, got {other:?}"),
        }
    }
}
