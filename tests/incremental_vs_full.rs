//! The differential spine of the incremental miner: for every delta
//! stream, mining incrementally must produce a catalog **byte-identical**
//! to a full re-mine of the final graph — reports, patterns, and every
//! stats counter, across slice/bitset kernels and 1/2/4 scheduler
//! threads.
//!
//! The proptest generates a random base graph plus a random insert-only
//! delta stream (vertex/edge/attribute insertions, including no-op
//! duplicates of existing edges and assignments), applies the deltas one
//! at a time, and compares the chained incremental catalog JSON against a
//! fresh full mine after each step. A directed CLI chain drives the same
//! invariant through the actual `scpm update` binary against
//! `scpm mine` on the updated snapshot.
//!
//! Case count honors `PROPTEST_CASES` (CI pins it). Each case drives six
//! (representation, threads) chains with a full re-mine per step, so the
//! local default is 32 cases rather than the shim's 256.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scpm_core::{
    DirtySet, EvalMemo, IncrementalCtx, NullModelCache, ParallelConfig, Scpm, ScpmParams,
};
use scpm_graph::attributed::{AttributedGraph, AttributedGraphBuilder};
use scpm_graph::{DeltaOp, GraphDelta};
use scpm_quasiclique::Representation;
use scpm_serve::PatternCatalog;

const ATTR_NAMES: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon"];

/// Serializes a run into the byte-identity surface: the full catalog JSON
/// (params, reports, patterns, stats counters) at generation 0.
fn catalog_json(
    graph: &AttributedGraph,
    params: &ScpmParams,
    result: scpm_core::ScpmResult,
) -> String {
    PatternCatalog::build(graph, params, result, 0)
        .full_json()
        .render()
}

/// A from-scratch mine: fresh miner, fresh `exp(σ)` cache.
fn full_mine(graph: &AttributedGraph, params: &ScpmParams, config: &ParallelConfig) -> String {
    let result = Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
        .run_scheduled(config);
    catalog_json(graph, params, result)
}

/// A recording mine: same output, but the evaluation memo is kept.
fn record_mine(
    graph: &AttributedGraph,
    params: &ScpmParams,
    config: &ParallelConfig,
) -> (String, EvalMemo) {
    let mut scpm = Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
        .with_incremental(IncrementalCtx::recording());
    let result = scpm.run_scheduled(config);
    let (memo, _) = scpm.take_incremental().unwrap().into_parts();
    (catalog_json(graph, params, result), memo)
}

/// Drives one delta stream through the chained incremental path at one
/// (representation, threads) combination, asserting byte-identity with a
/// full re-mine after every step. Returns the total sets replayed.
fn assert_chain_identical(
    base: AttributedGraph,
    deltas: &[GraphDelta],
    mut params: ScpmParams,
    repr: Representation,
    threads: usize,
) -> Result<u64, TestCaseError> {
    params.repr = repr;
    let config = ParallelConfig::new(threads);
    let (recorded, mut memo) = record_mine(&base, &params, &config);
    // Recording must not perturb the run itself.
    prop_assert_eq!(
        &recorded,
        &full_mine(&base, &params, &config),
        "recording mode changed the base catalog (repr {:?}, {} threads)",
        repr,
        threads
    );
    let mut current = base;
    let mut total_reused = 0;
    for (step, delta) in deltas.iter().enumerate() {
        let applied = delta.apply(&current).unwrap();
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let mut scpm = Scpm::with_cache(
            &applied.graph,
            params.clone(),
            Arc::new(NullModelCache::new()),
        )
        .with_incremental(IncrementalCtx::update(Arc::new(memo), dirty));
        let result = scpm.run_scheduled(&config);
        let ctx = scpm.take_incremental().unwrap();
        let stats = ctx.stats();
        let (new_memo, _) = ctx.into_parts();
        prop_assert_eq!(
            stats.live_kernel_ops + stats.reused_kernel_ops,
            result.stats.qc_kernel_ops,
            "step {}: kernel work neither live nor reused (repr {:?}, {} threads)",
            step,
            repr,
            threads
        );
        let incremental = catalog_json(&applied.graph, &params, result);
        let full = full_mine(&applied.graph, &params, &config);
        prop_assert_eq!(
            &incremental,
            &full,
            "step {} diverged (repr {:?}, {} threads, {} reused / {} live)",
            step,
            repr,
            threads,
            stats.reused,
            stats.reevaluated
        );
        total_reused += stats.reused;
        memo = new_memo;
        current = applied.graph;
    }
    Ok(total_reused)
}

/// A compact, deterministic description of one delta operation that is
/// materialized against whatever the graph's vertex count is at
/// application time (so generated streams are always well-formed).
#[derive(Clone, Debug)]
#[allow(clippy::enum_variant_names)] // mirrors scpm_graph::DeltaOp
enum OpSeed {
    AddVertices(u8),
    AddEdge(u16, u16),
    AddAttr(u16, u8),
}

fn materialize(seeds: &[OpSeed], mut bound: u32) -> GraphDelta {
    let mut ops = Vec::new();
    for seed in seeds {
        match *seed {
            OpSeed::AddVertices(k) => {
                let k = usize::from(k % 2) + 1;
                bound += k as u32;
                ops.push(DeltaOp::AddVertices(k));
            }
            OpSeed::AddEdge(x, y) => {
                if bound < 2 {
                    continue;
                }
                let u = u32::from(x) % bound;
                let mut v = u32::from(y) % bound;
                if u == v {
                    v = (u + 1) % bound;
                }
                ops.push(DeltaOp::AddEdge(u, v));
            }
            OpSeed::AddAttr(x, a) => {
                if bound == 0 {
                    continue;
                }
                let v = u32::from(x) % bound;
                let name = ATTR_NAMES[usize::from(a) % ATTR_NAMES.len()];
                ops.push(DeltaOp::AddAttr(v, name.to_string()));
            }
        }
    }
    GraphDelta { ops }
}

fn op_seed() -> impl Strategy<Value = OpSeed> {
    // The vendored shim's `prop_oneof!` is an unweighted uniform choice, so
    // bias toward edge/attribute insertions by listing them twice each.
    prop_oneof![
        any::<u8>().prop_map(OpSeed::AddVertices),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| OpSeed::AddEdge(x, y)),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| OpSeed::AddEdge(x, y)),
        (any::<u16>(), any::<u8>()).prop_map(|(x, a)| OpSeed::AddAttr(x, a)),
        (any::<u16>(), any::<u8>()).prop_map(|(x, a)| OpSeed::AddAttr(x, a)),
    ]
}

/// A random small attributed graph: `n` vertices, random edges, random
/// attribute assignments over a fixed 5-name alphabet. Duplicates in the
/// inputs are deduplicated by the builder, so every output is valid.
fn base_graph() -> impl Strategy<Value = AttributedGraph> {
    (6usize..16)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..32),
                proptest::collection::vec((0..n as u32, 0..ATTR_NAMES.len()), 0..24),
            )
        })
        .prop_map(|(n, edges, attrs)| {
            let mut builder = AttributedGraphBuilder::new(n);
            for name in ATTR_NAMES {
                builder.intern_attr(name);
            }
            for (u, v) in edges {
                if u != v {
                    builder.add_edge(u, v);
                }
            }
            for (v, a) in attrs {
                builder.add_attr_named(v, ATTR_NAMES[a]);
            }
            builder.build()
        })
}

fn delta_stream() -> impl Strategy<Value = Vec<Vec<OpSeed>>> {
    proptest::collection::vec(proptest::collection::vec(op_seed(), 1..6), 1..4)
}

/// `PROPTEST_CASES` when set, else a bounded default — each case is a
/// six-combination differential sweep, far heavier than a typical
/// property.
fn bounded_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(bounded_cases()))]

    /// The invariant, across both kernel representations and 1/2/4
    /// scheduler threads: incremental catalog == full re-mine catalog,
    /// byte for byte, after every step of every delta stream.
    #[test]
    fn incremental_equals_full_remine(base in base_graph(), stream in delta_stream()) {
        let params = ScpmParams::new(2, 0.5, 3).with_top_k(2).with_max_attrs(3);
        // Materialize each delta against the vertex count it will apply to.
        let mut bound = base.num_vertices() as u32;
        let mut deltas = Vec::new();
        for seeds in &stream {
            let delta = materialize(seeds, bound);
            for op in &delta.ops {
                if let DeltaOp::AddVertices(k) = op {
                    bound += *k as u32;
                }
            }
            deltas.push(delta);
        }
        for repr in [Representation::Bitset, Representation::Slice] {
            for threads in [1usize, 2, 4] {
                // `apply` consumes nothing: rebuild the chain per combo so
                // each carries its own representation-specific memo.
                let rebuilt = AttributedGraph::clone(&base);
                assert_chain_identical(rebuilt, &deltas, params.clone(), repr, threads)?;
            }
        }
    }
}

/// Deltas that only append isolated vertices or duplicate existing
/// structure dirty nothing, and the incremental run replays every set.
#[test]
fn noop_and_isolated_deltas_replay_everything() {
    let base = scpm_graph::figure1::figure1();
    let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
    let config = ParallelConfig::new(1);
    let (_, memo) = record_mine(&base, &params, &config);
    let examined = Scpm::new(&base, params.clone())
        .run()
        .stats
        .attribute_sets_examined;
    // Append two isolated vertices and duplicate an existing edge and an
    // existing assignment.
    let delta = GraphDelta::parse("v 2\ne 0 1\na 0 A\n").unwrap();
    let applied = delta.apply(&base).unwrap();
    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    assert!(dirty.is_empty(), "no-op delta must dirty nothing");
    let mut scpm = Scpm::with_cache(
        &applied.graph,
        params.clone(),
        Arc::new(NullModelCache::new()),
    )
    .with_incremental(IncrementalCtx::update(Arc::new(memo), dirty));
    let result = scpm.run_scheduled(&config);
    let stats = scpm.take_incremental().unwrap().stats();
    assert_eq!(
        stats.reevaluated, 0,
        "clean lattice must evaluate nothing live"
    );
    assert_eq!(stats.reused, examined, "every examined set must replay");
    assert_eq!(
        stats.live_kernel_ops + stats.reused_kernel_ops,
        result.stats.qc_kernel_ops
    );
    assert_eq!(
        catalog_json(&applied.graph, &params, result),
        full_mine(&applied.graph, &params, &config)
    );
}

/// The CLI chain: `scpm update --json` must be byte-identical to
/// `scpm mine --json` on the updated snapshot, step after step, for both
/// kernel representations and a multi-threaded run.
#[test]
fn cli_update_chain_matches_cli_mine() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_scpm");
    let dir = std::env::temp_dir().join("scpm_incremental_cli_chain");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("g.snap");
    let next = dir.join("g2.snap");

    let run = |args: &[&str]| -> (String, bool) {
        let out = Command::new(bin).args(args).output().expect("spawn scpm");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.success(),
        )
    };

    let (_, ok) = run(&[
        "generate",
        "--dataset",
        "smalldblp",
        "--scale",
        "0.2",
        "--seed",
        "11",
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(ok, "generate failed");

    // Three deltas: novel assignments on mined attributes, novel edges
    // (one inside a dense region), appended vertices wired back in.
    let deltas = [
        "a 0 data\na 1 data\ne 0 2\n",
        "v 2\ne 0 1\n",
        "e 3 5\na 4 queri\na 2 web\nv 1\n",
    ];
    for (step, text) in deltas.iter().enumerate() {
        let delta_path = dir.join(format!("d{step}.txt"));
        std::fs::write(&delta_path, text).unwrap();
        for (repr, threads) in [("bitset", "1"), ("slice", "1"), ("bitset", "4")] {
            let (inc, ok) = run(&[
                "update",
                "--snapshot",
                snap.to_str().unwrap(),
                "--delta",
                delta_path.to_str().unwrap(),
                "--sigma-min",
                "3",
                "--min-size",
                "4",
                "--repr",
                repr,
                "--threads",
                threads,
                "--out",
                next.to_str().unwrap(),
                "--json",
            ]);
            assert!(ok, "step {step} update failed ({repr}, {threads} threads)");
            let (full, ok) = run(&[
                "mine",
                "--snapshot",
                next.to_str().unwrap(),
                "--sigma-min",
                "3",
                "--min-size",
                "4",
                "--repr",
                repr,
                "--threads",
                threads,
                "--json",
            ]);
            assert!(ok, "step {step} mine failed ({repr}, {threads} threads)");
            assert_eq!(
                inc, full,
                "step {step} diverged ({repr}, {threads} threads)"
            );
        }
        // Advance the chain.
        std::fs::rename(&next, &snap).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate graphs must flow through mine *and* update without panics:
/// zero edges (nothing can cover), a single vertex, and an attribute-free
/// graph. The differential invariant holds throughout.
#[test]
fn degenerate_graphs_mine_and_update() {
    let params = ScpmParams::new(1, 0.5, 2).with_top_k(2);
    let config = ParallelConfig::new(1);
    // Zero-edge graph with attributes: supports exist, ε is 0 everywhere.
    let mut builder = AttributedGraphBuilder::new(4);
    builder.intern_attr("x");
    for v in 0..3 {
        builder.add_attr_named(v, "x");
    }
    let zero_edge = builder.build();
    let (recorded, memo) = record_mine(&zero_edge, &params, &config);
    assert_eq!(recorded, full_mine(&zero_edge, &params, &config));
    // First edge ever + a novel assignment.
    let delta = GraphDelta::parse("e 0 1\na 3 x\n").unwrap();
    let applied = delta.apply(&zero_edge).unwrap();
    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    let scpm = Scpm::with_cache(
        &applied.graph,
        params.clone(),
        Arc::new(NullModelCache::new()),
    )
    .with_incremental(IncrementalCtx::update(Arc::new(memo), dirty));
    let result = scpm.run_scheduled(&config);
    assert_eq!(
        catalog_json(&applied.graph, &params, result),
        full_mine(&applied.graph, &params, &config)
    );

    // Single vertex, no attributes, then grown by delta alone.
    let lonely = AttributedGraphBuilder::new(1).build();
    let (_, memo) = record_mine(&lonely, &params, &config);
    let delta = GraphDelta::parse("v 2\ne 0 1\ne 1 2\na 0 fresh\na 1 fresh\n").unwrap();
    let applied = delta.apply(&lonely).unwrap();
    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    let scpm = Scpm::with_cache(
        &applied.graph,
        params.clone(),
        Arc::new(NullModelCache::new()),
    )
    .with_incremental(IncrementalCtx::update(Arc::new(memo), dirty));
    let result = scpm.run_scheduled(&config);
    assert_eq!(
        catalog_json(&applied.graph, &params, result),
        full_mine(&applied.graph, &params, &config)
    );
}

/// The zero-edge path through the actual CLI: `scpm mine --snapshot` and
/// `scpm update --snapshot` on an edgeless snapshot must both succeed
/// (this used to be an untested path).
#[test]
fn cli_handles_zero_edge_snapshot() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_scpm");
    let dir = std::env::temp_dir().join("scpm_zero_edge_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("edgeless.snap");
    let mut builder = AttributedGraphBuilder::new(5);
    builder.intern_attr("solo");
    for v in 0..4 {
        builder.add_attr_named(v, "solo");
    }
    scpm_graph::snapshot::save_snapshot(&builder.build(), &snap).unwrap();

    let mine = Command::new(bin)
        .args([
            "mine",
            "--snapshot",
            snap.to_str().unwrap(),
            "--sigma-min",
            "2",
            "--min-size",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        mine.status.success(),
        "zero-edge mine failed: {}",
        String::from_utf8_lossy(&mine.stderr)
    );

    let delta_path = dir.join("d.txt");
    std::fs::write(&delta_path, "e 0 1\ne 1 2\n").unwrap();
    let update = Command::new(bin)
        .args([
            "update",
            "--snapshot",
            snap.to_str().unwrap(),
            "--delta",
            delta_path.to_str().unwrap(),
            "--sigma-min",
            "2",
            "--min-size",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        update.status.success(),
        "zero-edge update failed: {}",
        String::from_utf8_lossy(&update.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
