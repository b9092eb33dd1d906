//! Quasi-clique mining substrate for structural correlation pattern mining.
//!
//! Implements the dense-subgraph machinery of the paper: given a minimum
//! density `γ ∈ (0, 1]` and a minimum size, a **γ-quasi-clique** is a
//! maximal vertex set `Q` in which every vertex is adjacent to at least
//! `⌈γ·(|Q|−1)⌉` of the others (Definition 1). The [`Miner`] explores the
//! set-enumeration tree of candidate quasi-cliques (Algorithm 1) in BFS or
//! DFS order with Quick-style pruning [Liu & Wong, PKDD 2008] and supports
//! three output modes: full maximal enumeration, vertex coverage (the `K`
//! set behind the structural correlation `ε`), and top-k patterns.
//!
//! ```
//! use scpm_quasiclique::{Miner, QcConfig};
//! use scpm_graph::builder::graph_from_edges;
//!
//! // Two triangles sharing a vertex.
//! let g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
//! let miner = Miner::new(&g, QcConfig::new(1.0, 3));
//! let out = miner.enumerate_maximal();
//! assert_eq!(out.cliques.len(), 2);
//! ```

#![deny(missing_docs)]

pub mod bounds;
pub mod bruteforce;
pub mod config;
pub mod engine;
pub mod node;
pub mod reduce;
pub mod witness;

pub use bounds::SizeInterval;
pub use config::{ceil_gamma, QcConfig, Representation};
pub use engine::{
    pattern_order, EngineScratch, Miner, MiningMode, MiningOutcome, PruneFlags, QuasiClique,
    SearchOrder, SearchStats, BITADJ_MAX_VERTICES,
};
pub use reduce::reduce_vertices;
