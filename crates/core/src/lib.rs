//! **SCPM** — structural correlation pattern mining in large attributed
//! graphs.
//!
//! A faithful implementation of Silva, Meira & Zaki, *"Mining
//! Attribute-structure Correlated Patterns in Large Attributed Graphs"*
//! (PVLDB 5(5), 2012). Given an attributed graph, SCPM finds attribute
//! sets `S` whose induced subgraphs `G(S)` organize into dense
//! quasi-cliques, quantified by:
//!
//! * the **structural correlation** `ε(S) = |K_S| / |V(S)|` — the fraction
//!   of `S`-vertices covered by γ-quasi-cliques in `G(S)`,
//! * the **normalized structural correlation** `δ(S) = ε(S) / exp(σ(S))`,
//!   comparing `ε` against a null model (Theorems 1–2), and
//! * the **structural correlation patterns** `(S, Q)` — the top-k largest,
//!   densest quasi-cliques per qualifying attribute set.
//!
//! # Quickstart
//!
//! ```
//! use scpm_core::{Scpm, ScpmParams};
//! use scpm_graph::figure1::figure1;
//!
//! // The paper's running example (Figure 1) with its Table-1 parameters:
//! // σmin = 3, γmin = 0.6, min_size = 4, εmin = 0.5.
//! let graph = figure1();
//! let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
//! let result = Scpm::new(&graph, params).run();
//!
//! // Table 1 contains exactly seven patterns.
//! assert_eq!(result.patterns.len(), 7);
//!
//! // ε({A}) = 9/11 ≈ 0.82, as in the paper.
//! let a = graph.attr_id("A").unwrap();
//! let report = result.report_for(&[a]).unwrap();
//! assert!((report.epsilon - 9.0 / 11.0).abs() < 1e-12);
//! ```
//!
//! The [`naive::run_naive`] baseline (Eclat + full quasi-clique
//! enumeration) produces identical results and serves as the performance
//! baseline of the paper's Figure 8; [`parallel::run_parallel`] distributes
//! the attribute-set search over a work-stealing subtree scheduler (see
//! `docs/PARALLELISM.md`) with bit-identical output.

#![deny(missing_docs)]

pub mod algorithm;
pub mod correlation;
pub mod hypergeom;
pub mod incremental;
pub mod memoio;
pub mod naive;
pub mod nullmodel;
pub mod parallel;
pub mod params;
pub mod pattern;
pub mod report;
pub mod scorp;
pub mod segments;
pub mod store;

pub use algorithm::Scpm;
pub use correlation::{CorrelationEngine, CorrelationOutcome};
pub use hypergeom::{hypergeometric_pmf, hypergeometric_tail, ExactModel};
pub use incremental::{
    DirtySet, EvalMemo, EvalRecord, IncrementalCtx, IncrementalStats, MiningState,
};
pub use memoio::{decode_memo, encode_memo, params_fingerprint, DecodedMemo, MemoError};
pub use naive::run_naive;
pub use nullmodel::{
    binomial_pmf, binomial_tail, empirical_p_value, simulate_coverage_samples, simulate_expected,
    simulate_expected_parallel, AnalyticalModel, ExpectedCorrelation, LnFactorial, ModelKind,
    NullModelCache, SimExpected, SimulationModel,
};
pub use parallel::{
    run_parallel, run_parallel_traced, run_parallel_with, ParallelConfig, SubtreeTrace,
    DEFAULT_SPLIT_DEPTH,
};
pub use params::{ScpmParams, ScpmPruneFlags};
pub use pattern::{describe_patterns, AttributeSetReport, Pattern, ScpmResult, ScpmStats};
pub use scorp::Scorp;
pub use segments::mine_mapped;
pub use store::{
    checkpoint, checkpoint_with, recover, replay_mine, DataDir, RecoveredMine, RecoveredState,
    StoreError,
};
