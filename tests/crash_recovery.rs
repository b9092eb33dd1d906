//! Crash-recovery differential harness — the durability proof layer.
//!
//! A fault-free run of a fixed workload (seed checkpoint → journaled
//! deltas → periodic checkpoints) counts every durability operation it
//! performs: file creates, payload writes, syncs, and renames. The
//! harness then re-runs the workload once per (operation index × fault
//! mode), injecting an I/O error, a short write, or a simulated crash at
//! exactly that operation, and asserts the store recovers to a
//! **committed prefix**: the graph is byte-identical (snapshot encoding)
//! to folding exactly the successfully-journaled deltas over the base,
//! and the recovered mining result is byte-identical to a from-scratch
//! mine of that graph. No fault point may lose an acknowledged delta,
//! resurrect an unacknowledged one, or leave the store unrecoverable.

use std::path::PathBuf;
use std::sync::Arc;

use scpm_core::{
    checkpoint_with, recover, replay_mine, DataDir, EvalMemo, IncrementalCtx, NullModelCache,
    ParallelConfig, Scpm, ScpmParams, ScpmResult, StoreError,
};
use scpm_graph::attributed::AttributedGraph;
use scpm_graph::figure1::figure1;
use scpm_graph::{snapshot, FaultInjector, FaultMode, FaultPlan, GraphDelta};

fn params() -> ScpmParams {
    ScpmParams::new(3, 0.6, 4)
        .with_eps_min(0.5)
        .with_top_k(5)
        .with_max_attrs(3)
}

fn tdir(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("scpm_crash_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The workload's delta stream. Every delta must apply cleanly over the
/// base graph extended by ANY subset of the deltas before it — a faulted
/// run skips the delta whose append failed (exactly as the server
/// refuses the update), so recovery replays an arbitrary committed
/// prefix. Vertex-adding deltas carry their own `v` directive and only
/// reference base vertices or the vertex they add.
const DELTAS: &[&str] = &[
    "a 0 XA\n",
    "v 1\ne 0 11\na 11 XC\n",
    "a 5 XB\n",
    "v 1\ne 1 11\n",
    "a 2 XD\n",
    "a 7 XE\n",
];

/// Checkpoint after this many newly committed deltas.
const CHECKPOINT_EVERY: usize = 2;

/// One recording mine (no fault points: mining is pure computation).
fn record_mine(
    graph: &AttributedGraph,
    p: &ScpmParams,
    config: &ParallelConfig,
) -> (ScpmResult, EvalMemo) {
    let cache = Arc::new(NullModelCache::new());
    let mut scpm =
        Scpm::with_cache(graph, p.clone(), cache).with_incremental(IncrementalCtx::recording());
    let result = scpm.run_scheduled(config);
    let (memo, _) = scpm
        .take_incremental()
        .expect("recording run keeps its context")
        .into_parts();
    (result, memo)
}

/// Outcome of one (possibly faulted) workload run.
struct Outcome {
    /// Indices into [`DELTAS`] whose journal append succeeded, in order.
    committed: Vec<usize>,
    /// Whether the simulated process died mid-workload.
    crashed: bool,
}

/// Runs the durable workload under `inj`: seed checkpoint at generation
/// 0, then append → apply each delta, checkpointing every
/// [`CHECKPOINT_EVERY`] commits and once more at graceful shutdown.
/// Mirrors the server's write-ahead discipline: a failed append means
/// the delta is refused (skipped entirely), a failed checkpoint only
/// means a longer replay, and a crash abandons the process on the spot.
fn run_workload(inj: &FaultInjector, dir: &DataDir, config: &ParallelConfig) -> Outcome {
    let p = params();
    let mut graph = figure1();
    let mut committed = Vec::new();
    let crashed = |c: Vec<usize>| Outcome {
        committed: c,
        crashed: true,
    };

    let (_, memo) = record_mine(&graph, &p, config);
    let mut journal = match checkpoint_with(inj, dir, 0, &graph, &memo, &p) {
        Ok(j) => j,
        // Seed failed: a real operator would see the startup error. A
        // crash here ends the process; an error leaves nothing durable.
        Err(_) => {
            return Outcome {
                committed,
                crashed: inj.crashed(),
            }
        }
    };
    let mut last_checkpoint = 0usize;

    for (i, text) in DELTAS.iter().enumerate() {
        let delta = GraphDelta::parse(text).expect("workload delta parses");
        match journal.append(&delta) {
            Ok(_) => {}
            Err(_) if inj.crashed() => return crashed(committed),
            // One-shot fault: the append rolled back, the delta is
            // refused, disk and memory still agree. Skip it.
            Err(_) => continue,
        }
        graph = delta.apply(&graph).expect("committed delta applies").graph;
        committed.push(i);

        if committed.len() - last_checkpoint >= CHECKPOINT_EVERY {
            let (_, memo) = record_mine(&graph, &p, config);
            match checkpoint_with(inj, dir, committed.len() as u64, &graph, &memo, &p) {
                Ok(j) => {
                    journal = j;
                    last_checkpoint = committed.len();
                }
                Err(_) if inj.crashed() => return crashed(committed),
                // Failed checkpoint: keep appending to the old journal;
                // recovery just replays more deltas.
                Err(_) => {}
            }
        }
    }

    // Graceful shutdown checkpoint (skipped when already at the tip).
    if last_checkpoint != committed.len() {
        let (_, memo) = record_mine(&graph, &p, config);
        match checkpoint_with(inj, dir, committed.len() as u64, &graph, &memo, &p) {
            Ok(_) => {}
            Err(_) if inj.crashed() => return crashed(committed),
            Err(_) => {}
        }
    }
    Outcome {
        committed,
        crashed: false,
    }
}

/// Asserts the directory recovers to exactly the committed prefix:
/// byte-identical graph, mining result byte-identical to a full re-mine.
fn verify_recovery(dir: &DataDir, committed: &[usize], config: &ParallelConfig, ctx: &str) {
    let state = match recover(dir) {
        Ok(state) => state,
        // Only a fault during the very first seed write may leave the
        // store uninitialized — nothing was ever acknowledged.
        Err(StoreError::Uninitialized) => {
            assert!(
                committed.is_empty(),
                "{ctx}: store lost {} committed deltas",
                committed.len()
            );
            return;
        }
        Err(e) => panic!("{ctx}: recovery failed: {e}"),
    };
    let recovered = replay_mine(state, &params(), config)
        .unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"));

    let mut expected = figure1();
    for &i in committed {
        expected = GraphDelta::parse(DELTAS[i])
            .unwrap()
            .apply(&expected)
            .expect("committed prefix applies")
            .graph;
    }
    assert_eq!(
        recovered.generation,
        committed.len() as u64,
        "{ctx}: recovered to the wrong generation"
    );
    assert!(
        snapshot::encode(recovered.mining.graph()).as_ref() == snapshot::encode(&expected).as_ref(),
        "{ctx}: recovered graph is not the committed prefix"
    );

    // Differential check: the replayed mine must be byte-identical to a
    // from-scratch mine of the committed-prefix graph. (`ScpmStats`
    // carries wall-clock timing, so compare reports and patterns.)
    let (full, _) = record_mine(&expected, &params(), config);
    assert_eq!(
        format!("{:?}", recovered.result.reports),
        format!("{:?}", full.reports),
        "{ctx}: recovered reports differ from a full re-mine"
    );
    assert_eq!(
        format!("{:?}", recovered.result.patterns),
        format!("{:?}", full.patterns),
        "{ctx}: recovered patterns differ from a full re-mine"
    );
}

#[test]
fn every_reachable_fault_point_recovers_to_a_committed_prefix() {
    let config = ParallelConfig::new(2);

    // Pass 1 — fault-free, counting: establishes the happy path and the
    // number of reachable durability operations to sweep.
    let root = tdir("count");
    let dir = DataDir::open(&root).unwrap();
    let counter = FaultInjector::plan(FaultPlan {
        op_index: u64::MAX,
        mode: FaultMode::Error,
    });
    let outcome = run_workload(&counter, &dir, &config);
    assert!(!outcome.crashed);
    assert_eq!(outcome.committed.len(), DELTAS.len());
    verify_recovery(&dir, &outcome.committed, &config, "fault-free");
    let total_ops = counter.ops_seen();
    let _ = std::fs::remove_dir_all(&root);
    assert!(total_ops > 0, "workload exercised no durability operations");
    eprintln!("sweeping {total_ops} fault points x 3 modes");

    // Pass 2 — the sweep: every (operation × mode) pair.
    for mode in [FaultMode::Error, FaultMode::ShortWrite, FaultMode::Crash] {
        for k in 0..total_ops {
            let ctx = format!("{mode:?}@{k}");
            let root = tdir(&ctx);
            let dir = DataDir::open(&root).unwrap();
            let inj = FaultInjector::plan(FaultPlan { op_index: k, mode });
            let outcome = run_workload(&inj, &dir, &config);
            if matches!(mode, FaultMode::Crash) {
                assert!(
                    outcome.crashed || outcome.committed.len() == DELTAS.len(),
                    "{ctx}: crash plan neither fired nor finished"
                );
            }
            verify_recovery(&dir, &outcome.committed, &config, &ctx);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The environment hook drives the same injector the sweep uses: a
/// malformed spec must be rejected loudly, a well-formed one must parse
/// into the planned fault.
#[test]
fn fault_env_specs_parse_strictly() {
    assert!(FaultInjector::from_env().is_ok());
    // `from_env` reads SCPM_FAULT; exercising the parse paths directly
    // would race other tests via set_var, so only the unset path runs
    // here. The parse itself is covered in the graph crate's unit tests.
}
