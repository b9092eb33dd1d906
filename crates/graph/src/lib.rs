//! Attributed-graph substrate for structural correlation pattern mining.
//!
//! This crate provides the data model from Silva, Meira & Zaki,
//! *"Mining Attribute-structure Correlated Patterns in Large Attributed
//! Graphs"* (VLDB 2012): an attributed graph is a 4-tuple
//! `G = (V, E, A, F)` where `V` is a vertex set, `E` an undirected edge set,
//! `A` a set of attributes and `F : V -> P(A)` assigns each vertex a set of
//! attributes.
//!
//! The crate contains:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row undirected graph with
//!   sorted neighbor lists (binary-searchable adjacency).
//! * [`bitadj`] — packed `u64`-word bitsets ([`VertexBitset`]) and a dense
//!   bit-matrix adjacency ([`BitAdjacency`]) backing the mining hot path
//!   (see `docs/PERFORMANCE.md`).
//! * [`GraphBuilder`] — incremental edge-list construction with
//!   deduplication and self-loop removal.
//! * [`AttributedGraph`] — a [`CsrGraph`] plus a per-vertex attribute store
//!   and an inverted index (attribute → sorted vertex list).
//! * [`delta`] — insert-only change sets (`GraphDelta`) applied to an
//!   attributed graph, reporting the novel effects the incremental miner's
//!   dirty-set computation consumes (see `docs/INCREMENTAL.md`).
//! * [`induced`] — induced-subgraph extraction used by every mining
//!   algorithm in the workspace.
//! * [`generators`] — random graph models (G(n,p), G(n,m), Barabási–Albert,
//!   planted communities) and attribute-assignment models.
//! * [`io`] — text formats for attributed graphs: the unified `v`/`e`/`a`
//!   file plus streaming parsers for the interchange shapes real datasets
//!   ship in (edge lists, adjacency lists, vertex→attribute tables).
//! * [`snapshot`] — the versioned, checksummed binary snapshot format,
//!   written atomically (temp file → fsync → rename).
//! * [`journal`] — the append-only write-ahead log of graph deltas
//!   backing crash-safe serving (see `docs/DURABILITY.md`).
//! * [`fault`] — deterministic fault injection over durability I/O and
//!   the atomic file writer.
//! * [`figure1`] — the 11-vertex example of Figure 1 in the paper, used as a
//!   golden fixture for Table 1.

#![deny(missing_docs)]

pub mod attributed;
pub mod bitadj;
pub mod builder;
pub mod cluster;
pub mod components;
pub mod csr;
pub mod degree;
pub mod delta;
pub mod fault;
pub mod figure1;
pub mod generators;
pub mod induced;
pub mod io;
pub mod journal;
pub mod kcore;
pub mod snapshot;
pub mod stats;
pub mod traversal;

pub use attributed::{AttrId, AttributedGraph, AttributedGraphBuilder};
pub use bitadj::{BitAdjacency, VertexBitset};
pub use builder::GraphBuilder;
pub use cluster::{clustering, local_clustering, ClusteringStats};
pub use components::Components;
pub use csr::{CsrGraph, VertexId};
pub use degree::DegreeDistribution;
pub use delta::{AppliedDelta, DeltaError, DeltaOp, GraphDelta};
pub use fault::{write_atomic, FaultInjector, FaultMode, FaultPlan};
pub use induced::InducedSubgraph;
pub use io::source::{Interner, RawSource, StreamingSource};
pub use journal::{JournalError, JournalRead, JournalRecord, JournalWriter, TornTail};
pub use kcore::CoreDecomposition;
pub use snapshot::{
    decode, encode, fnv1a64, load_snapshot, save_snapshot, write_snapshot_atomic, Fnv1a64,
    MappedSnapshot, SnapshotError,
};
pub use stats::GraphSummary;
