//! E-PERF — tracked performance baseline: sorted-slice vs packed-bitset
//! hot path across a six-workload scenario matrix, under fixed seeds.
//!
//! ```text
//! cargo run --release -p scpm-bench --bin exp_perf \
//!     [dblp_scale] [lastfm_scale] [out.json] [--no-timing] \
//!     [--scenario-scale F] [--check BASELINE.json]
//! ```
//!
//! The matrix covers the shapes that stress different kernels (the
//! workload taxonomy follows the significance-testing benchmarks of Lee
//! et al., arXiv:1609.08266): the DBLP/Last.fm stand-ins plus a
//! dense-clique stress (wide candidate sets, full rows), a sparse-star
//! graph (hub-and-spoke, empty-block skipping dominates), and a
//! skewed-attribute distribution (head attributes induce wide subgraphs,
//! tail attributes tiny ones), plus a CiteSeer-shaped citation graph an
//! order of magnitude above the rest — the in-RAM sibling of the
//! out-of-core `exp_oocore` gate. For each workload the full SCPM run
//! executes twice — once with `Representation::Slice`, once with
//! `Representation::Bitset` — and the binary **exits nonzero unless the
//! two outcomes (reports + patterns) are byte-identical**. Wall-clock
//! plus the hardware-independent counters (qc-search nodes, point edge
//! tests, modeled kernel operations, fused-kernel calls, and the
//! always-0 `blocks_skipped`) land in a v2 JSON file whose per-workload `thresholds` carry
//! the regression contract; the file is committed at the repo root as
//! `BENCH_scpm.json` (see `docs/PERFORMANCE.md`).
//!
//! After the matrix, a **streaming** scenario chains four deterministic
//! graph deltas (attribute churn on the head attribute, in-subgraph
//! edges, wired-in vertices, a pure no-op append) over the DBLP workload:
//! each step runs the incremental miner off the chained evaluation memo
//! side by side with a full re-mine and the binary exits nonzero unless
//! the two catalogs are byte-identical **and** the incremental run
//! evaluated strictly fewer lattice nodes live (see
//! `docs/INCREMENTAL.md`). Dirty-region sizes and the full/incremental
//! kernel-op ratio land in a `streaming` section of the JSON.
//!
//! `--check BASELINE.json` turns the binary into the CI perf-regression
//! gate: each workload recorded in the baseline is re-run at its recorded
//! scale and compared — **exactly** on outcomes (`qc_nodes`, `reports`,
//! `patterns`, slice/bitset identity) and within the baseline's
//! per-workload tolerance ratio on bitset `kernel_ops`; the fresh
//! slice/bitset ratio must also clear the baseline's floor. Any violation
//! exits nonzero.
//!
//! Determinism: every seed is a compile-time constant and the scales are
//! plain CLI flags — there is no `SystemTime`-derived input anywhere, so
//! with `--no-timing` (which zeroes the `wall_secs` fields) repeated runs
//! produce byte-identical JSON. CI diffs two back-to-back runs to enforce
//! exactly that.

use std::process::ExitCode;
use std::sync::Arc;

use scpm_bench::baseline::{parse_baseline, WorkloadBaseline};
use scpm_bench::timed;
use scpm_core::{
    DirtySet, MiningState, NullModelCache, ParallelConfig, Scpm, ScpmParams, ScpmResult,
};
use scpm_datasets::{
    citeseer_like, dblp_like, dense_clique_like, lastfm_like, skewed_attr_like, sparse_star_like,
    SyntheticDataset,
};
use scpm_graph::{AttributedGraph, DeltaOp, GraphDelta};
use scpm_quasiclique::Representation;

/// One row of the scenario matrix: a seeded generator plus the
/// paper-shaped mining parameters and the regression thresholds the
/// baseline carries for it.
struct Scenario {
    name: &'static str,
    /// Fixed workload seed (never derived from the clock).
    seed: u64,
    /// Generator scale when none is imposed by a `--check` baseline.
    default_scale: f64,
    generate: fn(f64, u64) -> SyntheticDataset,
    params: ScpmParams,
    /// Multiplicative slack on bitset `kernel_ops` for `--check`.
    kernel_ops_tolerance: f64,
    /// Floor on the slice/bitset kernel-ops ratio for `--check`.
    min_kernel_ops_ratio: f64,
}

/// The six-workload matrix. Order is the report order; names are the
/// join keys `--check` uses against the baseline file.
fn scenarios(dblp_scale: f64, lastfm_scale: f64, scenario_scale: f64) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "dblp",
            seed: 42,
            default_scale: dblp_scale,
            generate: dblp_like,
            params: ScpmParams::new(8, 0.5, 8)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(3),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 4.0,
        },
        Scenario {
            name: "lastfm",
            seed: 7,
            default_scale: lastfm_scale,
            generate: lastfm_like,
            params: ScpmParams::new(8, 0.5, 5)
                .with_eps_min(0.1)
                .with_top_k(4)
                .with_max_attrs(2),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 4.0,
        },
        Scenario {
            name: "dense-clique",
            seed: 11,
            default_scale: 0.02 * scenario_scale,
            generate: dense_clique_like,
            params: ScpmParams::new(10, 0.6, 8)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 2.7,
        },
        Scenario {
            name: "sparse-star",
            seed: 13,
            default_scale: 0.03 * scenario_scale,
            generate: sparse_star_like,
            params: ScpmParams::new(8, 0.5, 4)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 2.0,
        },
        Scenario {
            name: "skewed-attr",
            seed: 17,
            default_scale: 0.02 * scenario_scale,
            generate: skewed_attr_like,
            params: ScpmParams::new(10, 0.5, 6)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 2.6,
        },
        // An order of magnitude above the rest of the matrix: a
        // CiteSeer-shaped citation graph in the tens of thousands of
        // vertices, the in-RAM sibling of the out-of-core gate
        // (`exp_oocore` mines the same generator at ~1M edges under a
        // memory budget and reports peak RSS; this row keeps the tracked
        // kernel counters honest at a scale where wide subgraphs dominate
        // the hot loops).
        Scenario {
            name: "large-citeseer",
            seed: 23,
            default_scale: 0.15 * scenario_scale,
            generate: citeseer_like,
            params: ScpmParams::new(400, 0.5, 8)
                .with_eps_min(0.1)
                .with_top_k(3)
                .with_max_attrs(2),
            kernel_ops_tolerance: 1.05,
            min_kernel_ops_ratio: 1.3,
        },
    ]
}

struct PathResult {
    wall_secs: f64,
    result: ScpmResult,
}

struct WorkloadReport {
    name: &'static str,
    scale: f64,
    seed: u64,
    vertices: usize,
    edges: usize,
    attributes: usize,
    slice: PathResult,
    bitset: PathResult,
    identical: bool,
    kernel_ops_tolerance: f64,
    min_kernel_ops_ratio: f64,
}

/// Everything a run reports except wall-clock, as one comparable string.
fn fingerprint(r: &ScpmResult) -> String {
    format!("{:?}|{:?}", r.reports, r.patterns)
}

fn run_workload(scenario: &Scenario, scale: f64, timing: bool) -> WorkloadReport {
    let dataset = (scenario.generate)(scale, scenario.seed);
    let g = &dataset.graph;
    let run = |repr: Representation| {
        // One warm-up pass (page-in, allocator steady state), then the
        // timed pass — single-shot cold timings on a shared container are
        // too noisy to track.
        let p = scenario.params.clone().with_repr(repr);
        if timing {
            let _ = Scpm::new(g, p.clone()).run();
        }
        let (result, secs) = timed(|| Scpm::new(g, p).run());
        PathResult {
            wall_secs: if timing { secs } else { 0.0 },
            result,
        }
    };
    let slice = run(Representation::Slice);
    let bitset = run(Representation::Bitset);
    let identical = fingerprint(&slice.result) == fingerprint(&bitset.result);
    WorkloadReport {
        name: scenario.name,
        scale,
        seed: scenario.seed,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        attributes: g.num_attributes(),
        slice,
        bitset,
        identical,
        kernel_ops_tolerance: scenario.kernel_ops_tolerance,
        min_kernel_ops_ratio: scenario.min_kernel_ops_ratio,
    }
}

fn json_path(p: &PathResult) -> String {
    let s = &p.result.stats;
    format!(
        concat!(
            "{{\"wall_secs\": {:.6}, \"qc_nodes\": {}, \"edge_tests\": {}, ",
            "\"kernel_ops\": {}, \"fused_ops\": {}, \"blocks_skipped\": {}, ",
            "\"probes_elided\": {}, \"batch_ops\": {}, ",
            "\"reports\": {}, \"patterns\": {}}}"
        ),
        p.wall_secs,
        s.qc_nodes_coverage + s.qc_nodes_topk,
        s.qc_edge_tests,
        s.qc_kernel_ops,
        s.qc_fused_ops,
        s.qc_blocks_skipped,
        s.qc_probes_elided,
        s.qc_batch_ops,
        p.result.reports.len(),
        p.result.patterns.len()
    )
}

fn ratio(slice: u64, bitset: u64) -> f64 {
    slice as f64 / bitset.max(1) as f64
}

fn report_ratio(w: &WorkloadReport) -> f64 {
    ratio(
        w.slice.result.stats.qc_kernel_ops,
        w.bitset.result.stats.qc_kernel_ops,
    )
}

fn json_workload(w: &WorkloadReport) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"scale\": {},\n",
            "      \"seed\": {},\n",
            "      \"vertices\": {},\n",
            "      \"edges\": {},\n",
            "      \"attributes\": {},\n",
            "      \"slice\": {},\n",
            "      \"bitset\": {},\n",
            "      \"kernel_ops_ratio\": {:.4},\n",
            "      \"thresholds\": {{\"kernel_ops_tolerance\": {}, \"min_kernel_ops_ratio\": {}}},\n",
            "      \"outcomes_identical\": {}\n",
            "    }}"
        ),
        w.name,
        w.scale,
        w.seed,
        w.vertices,
        w.edges,
        w.attributes,
        json_path(&w.slice),
        json_path(&w.bitset),
        report_ratio(w),
        w.kernel_ops_tolerance,
        w.min_kernel_ops_ratio,
        w.identical
    )
}

fn render(
    reports: &[WorkloadReport],
    streaming: &StreamingReport,
    min_ratio: f64,
    ok: bool,
) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"version\": 2,\n",
            "  \"harness\": \"exp_perf\",\n",
            "  \"counters\": {{\n",
            "    \"qc_nodes\": \"set-enumeration nodes visited (coverage + top-k)\",\n",
            "    \"edge_tests\": \"point adjacency/membership queries in the hot loops\",\n",
            "    \"kernel_ops\": \"modeled work: slice elements touched vs bitset u64 words touched\",\n",
            "    \"fused_ops\": \"fused single-pass kernel invocations (bitset path only)\",\n",
            "    \"blocks_skipped\": \"always 0: the VertexBitset summary hierarchy it counted was removed; kept for schema stability\",\n",
            "    \"probes_elided\": \"point probes answered in bulk by the batched row-AND promotion sweeps\",\n",
            "    \"batch_ops\": \"u64 words touched by the batched promotion sweeps (subset of kernel_ops)\"\n",
            "  }},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "{},\n",
            "  \"summary\": {{\"min_kernel_ops_ratio\": {:.4}, \"all_outcomes_identical\": {}}}\n",
            "}}\n"
        ),
        reports
            .iter()
            .map(json_workload)
            .collect::<Vec<_>>()
            .join(",\n"),
        json_streaming(streaming),
        min_ratio,
        ok
    )
}

/// One step of the streaming scenario: a delta mined incrementally off
/// the chained memo, side by side with a full re-mine of the same graph.
struct StreamingStep {
    dirty_attrs: usize,
    edge_caps: usize,
    /// Lattice nodes the full re-mine evaluates.
    examined_full: u64,
    /// Lattice nodes the incremental run evaluated live.
    reevaluated: u64,
    /// Lattice nodes the incremental run replayed from the memo.
    reused: u64,
    full_kernel_ops: u64,
    live_kernel_ops: u64,
    reused_kernel_ops: u64,
    wall_full: f64,
    wall_incremental: f64,
    /// Incremental catalog byte-identical to the full re-mine.
    identical: bool,
    /// Incremental evaluated strictly fewer lattice nodes live.
    strictly_fewer: bool,
}

struct StreamingReport {
    scale: f64,
    seed: u64,
    steps: Vec<StreamingStep>,
}

impl StreamingReport {
    fn ok(&self) -> bool {
        self.steps.iter().all(|s| s.identical && s.strictly_fewer)
    }
}

/// A deterministic four-delta stream derived from the graph itself (no
/// clock, no RNG): churn on the highest-support attribute, edges inside
/// its subgraph, new vertices wired into it, and a pure no-op append.
fn streaming_deltas(g: &AttributedGraph) -> Vec<GraphDelta> {
    let top = (0..g.num_attributes() as u32)
        .max_by_key(|&a| g.support(a))
        .expect("graph has attributes");
    let name = g.attr_name(top).to_string();
    let vs: Vec<u32> = g.vertices_with(top).to_vec();
    let n = g.num_vertices() as u32;
    assert!(vs.len() >= 4, "head attribute too small for the stream");
    let lacking: Vec<u32> = (0..n).filter(|v| !vs.contains(v)).take(3).collect();
    vec![
        // Novel assignments of the head attribute: V(S) changes for every
        // S containing it.
        GraphDelta {
            ops: lacking
                .iter()
                .map(|&v| DeltaOp::AddAttr(v, name.clone()))
                .collect(),
        },
        // Edges inside the head subgraph: G(S) changes where both
        // endpoints share S (duplicates of existing edges are no-ops).
        GraphDelta {
            ops: vec![
                DeltaOp::AddEdge(vs[0], vs[vs.len() / 2]),
                DeltaOp::AddEdge(vs[1], vs[vs.len() - 1]),
            ],
        },
        // Two new vertices wired into the head subgraph and labeled.
        GraphDelta {
            ops: vec![
                DeltaOp::AddVertices(2),
                DeltaOp::AddEdge(n, vs[0]),
                DeltaOp::AddEdge(n + 1, vs[1]),
                DeltaOp::AddEdge(n, n + 1),
                DeltaOp::AddAttr(n, name.clone()),
                DeltaOp::AddAttr(n + 1, name),
            ],
        },
        // An isolated attribute-free vertex: dirties nothing at all.
        GraphDelta {
            ops: vec![DeltaOp::AddVertices(1)],
        },
    ]
}

/// Runs the streaming scenario: records a memo on the base mine, then for
/// each delta compares the chained incremental update against a full
/// re-mine — byte-identical outcomes, strictly fewer live evaluations.
fn run_streaming(scale: f64, timing: bool) -> StreamingReport {
    let seed = 42;
    let params = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.1)
        .with_top_k(3)
        .with_max_attrs(3);
    let config = ParallelConfig::new(1);
    let base = Arc::new(dblp_like(scale, seed).graph);
    let deltas = streaming_deltas(&base);
    let cache = Arc::new(NullModelCache::new());
    let (mut current, _, _) = MiningState::record(base, cache, &params, &config);
    let mut steps = Vec::new();
    for delta in &deltas {
        let applied = delta.apply(current.graph()).expect("well-formed delta");
        let (full, full_secs) = timed(|| {
            Scpm::with_cache(
                &applied.graph,
                params.clone(),
                Arc::new(NullModelCache::new()),
            )
            .run_scheduled(&config)
        });
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let dirty_attrs = dirty.dirty_attr_ids().len();
        let edge_caps = dirty.num_edge_caps();
        let memo = Arc::clone(current.memo());
        let graph = Arc::new(applied.graph);
        let ((next, incremental, stats), inc_secs) =
            timed(|| MiningState::update(memo, graph, dirty, &params, &config));
        let examined_full = full.stats.attribute_sets_examined;
        steps.push(StreamingStep {
            dirty_attrs,
            edge_caps,
            examined_full,
            reevaluated: stats.reevaluated,
            reused: stats.reused,
            full_kernel_ops: full.stats.qc_kernel_ops,
            live_kernel_ops: stats.live_kernel_ops,
            reused_kernel_ops: stats.reused_kernel_ops,
            wall_full: if timing { full_secs } else { 0.0 },
            wall_incremental: if timing { inc_secs } else { 0.0 },
            identical: fingerprint(&full) == fingerprint(&incremental),
            strictly_fewer: stats.reevaluated < examined_full,
        });
        current = next;
    }
    StreamingReport { scale, seed, steps }
}

fn json_streaming(r: &StreamingReport) -> String {
    let steps = r
        .steps
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "      {{\"dirty_attrs\": {}, \"edge_caps\": {}, ",
                    "\"examined_full\": {}, \"reevaluated\": {}, \"reused\": {}, ",
                    "\"full_kernel_ops\": {}, \"live_kernel_ops\": {}, ",
                    "\"reused_kernel_ops\": {}, \"kernel_ops_ratio\": {:.4}, ",
                    "\"wall_full\": {:.6}, \"wall_incremental\": {:.6}, ",
                    "\"identical\": {}, \"strictly_fewer\": {}}}"
                ),
                s.dirty_attrs,
                s.edge_caps,
                s.examined_full,
                s.reevaluated,
                s.reused,
                s.full_kernel_ops,
                s.live_kernel_ops,
                s.reused_kernel_ops,
                ratio(s.full_kernel_ops, s.live_kernel_ops),
                s.wall_full,
                s.wall_incremental,
                s.identical,
                s.strictly_fewer
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "  \"streaming\": {{\n",
            "    \"workload\": \"dblp\",\n",
            "    \"scale\": {},\n",
            "    \"seed\": {},\n",
            "    \"steps\": [\n{}\n    ],\n",
            "    \"summary\": {{\"all_identical\": {}, \"all_strictly_fewer\": {}}}\n",
            "  }}"
        ),
        r.scale,
        r.seed,
        steps,
        r.steps.iter().all(|s| s.identical),
        r.steps.iter().all(|s| s.strictly_fewer)
    )
}

/// Compares one fresh workload run against its committed baseline entry.
/// Returns the violation messages (empty = pass).
fn check_workload(w: &WorkloadReport, base: &WorkloadBaseline) -> Vec<String> {
    let mut errs = Vec::new();
    let fresh = &w.bitset.result;
    let s = &fresh.stats;
    let qc_nodes = s.qc_nodes_coverage + s.qc_nodes_topk;
    if !w.identical {
        errs.push(format!("{}: slice/bitset outcomes diverge", w.name));
    }
    if w.seed != base.seed {
        errs.push(format!(
            "{}: compiled-in seed {} != baseline seed {}",
            w.name, w.seed, base.seed
        ));
    }
    for (what, got, want) in [
        ("qc_nodes", qc_nodes, base.qc_nodes),
        ("reports", fresh.reports.len() as u64, base.reports),
        ("patterns", fresh.patterns.len() as u64, base.patterns),
    ] {
        if got != want {
            errs.push(format!(
                "{}: {what} changed: fresh {got} != baseline {want} (outcome drift)",
                w.name
            ));
        }
    }
    let limit = (base.kernel_ops as f64 * base.kernel_ops_tolerance).ceil() as u64;
    if s.qc_kernel_ops > limit {
        errs.push(format!(
            "{}: kernel_ops regressed: fresh {} > baseline {} x tolerance {} = {}",
            w.name, s.qc_kernel_ops, base.kernel_ops, base.kernel_ops_tolerance, limit
        ));
    }
    // The probe-bottleneck contract: total modeled work including the
    // residual point probes. Guards against regressions that trade
    // kernel_ops for edge_tests (or vice versa) without showing up in
    // either counter alone.
    let combined = s.qc_kernel_ops + s.qc_edge_tests;
    let base_combined = base.kernel_ops + base.edge_tests;
    let combined_limit = (base_combined as f64 * base.kernel_ops_tolerance).ceil() as u64;
    if combined > combined_limit {
        errs.push(format!(
            "{}: kernel_ops+edge_tests regressed: fresh {} > baseline {} x tolerance {} = {}",
            w.name, combined, base_combined, base.kernel_ops_tolerance, combined_limit
        ));
    }
    let r = report_ratio(w);
    if r < base.min_kernel_ops_ratio {
        errs.push(format!(
            "{}: slice/bitset kernel_ops ratio {:.3} below floor {:.3}",
            w.name, r, base.min_kernel_ops_ratio
        ));
    }
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timing = !args.iter().any(|a| a == "--no-timing");
    // Split flags (and their values) from positionals so a flag can
    // appear at any position without eating a positional slot. Strict on
    // purpose: a flag missing its value or a mistyped flag must fail
    // loudly, never degrade into a baseline-overwriting normal run.
    let mut check_path: Option<String> = None;
    let mut scenario_scale = 1.0f64;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-timing" => {}
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("# ERROR: --check requires a baseline path");
                    return ExitCode::FAILURE;
                }
            },
            "--scenario-scale" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => scenario_scale = f,
                None => {
                    eprintln!("# ERROR: --scenario-scale requires a numeric value");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("# ERROR: unknown flag {flag}");
                return ExitCode::FAILURE;
            }
            _ => positional.push(a.clone()),
        }
    }
    if positional.len() > 3 {
        eprintln!(
            "# ERROR: expected at most 3 positionals (dblp_scale lastfm_scale out.json), got {positional:?}"
        );
        return ExitCode::FAILURE;
    }
    let pos_f64 = |i: usize, default: f64| -> Result<f64, String> {
        match positional.get(i) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("# ERROR: positional {} is not a number: {s}", i + 1)),
        }
    };
    let (dblp_scale, lastfm_scale) = match (pos_f64(0, 0.02), pos_f64(1, 0.01)) {
        (Ok(d), Ok(l)) => (d, l),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // In check mode the fresh JSON defaults to a scratch file under the
    // system temp dir — never silently overwrite the committed baseline
    // being checked against, and never leave an untracked file dirtying
    // the repo root after a local `--check` run. CI passes an explicit
    // third positional when it wants the file as an artifact.
    let out_path = positional.get(2).cloned().unwrap_or_else(|| {
        if check_path.is_some() {
            std::env::temp_dir()
                .join("BENCH_check.json")
                .display()
                .to_string()
        } else {
            "BENCH_scpm.json".to_string()
        }
    });

    let matrix = scenarios(dblp_scale, lastfm_scale, scenario_scale);
    let baseline = match &check_path {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_baseline(&text) {
                Ok(ws) => Some(ws),
                Err(e) => {
                    eprintln!("# ERROR: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("# ERROR: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // In check mode, run exactly the baseline's workloads at the
    // baseline's scales; otherwise the full matrix at CLI scales.
    let mut reports: Vec<WorkloadReport> = Vec::new();
    let mut check_errs: Vec<String> = Vec::new();
    match &baseline {
        Some(entries) => {
            for base in entries {
                let Some(scenario) = matrix.iter().find(|s| s.name == base.name) else {
                    check_errs.push(format!("unknown baseline workload \"{}\"", base.name));
                    continue;
                };
                let w = run_workload(scenario, base.scale, timing);
                check_errs.extend(check_workload(&w, base));
                reports.push(w);
            }
        }
        None => {
            for scenario in &matrix {
                reports.push(run_workload(scenario, scenario.default_scale, timing));
            }
        }
    }

    // The streaming scenario runs in both modes: its invariants (byte
    // identity with a full re-mine, strictly fewer live evaluations) are
    // verified fresh on every run rather than compared to a baseline.
    let streaming = run_streaming(dblp_scale, timing);
    for (i, s) in streaming.steps.iter().enumerate() {
        eprintln!(
            "# streaming step {}: dirty_attrs={} edge_caps={} | full examined={} kernel_ops={} | incremental live={} reused={} live_kernel_ops={} | identical={} strictly_fewer={}",
            i,
            s.dirty_attrs,
            s.edge_caps,
            s.examined_full,
            s.full_kernel_ops,
            s.reevaluated,
            s.reused,
            s.live_kernel_ops,
            s.identical,
            s.strictly_fewer
        );
    }

    let mut ok = streaming.ok();
    if !ok {
        eprintln!("# ERROR: streaming scenario violated an incremental invariant");
    }
    for w in &reports {
        let b = &w.bitset.result.stats;
        eprintln!(
            "# {}: V={} E={} | slice kernel_ops={} bitset kernel_ops={} ratio={:.2}x | edge_tests={} probes_elided={} batch_ops={} | identical={}",
            w.name,
            w.vertices,
            w.edges,
            w.slice.result.stats.qc_kernel_ops,
            b.qc_kernel_ops,
            report_ratio(w),
            b.qc_edge_tests,
            b.qc_probes_elided,
            b.qc_batch_ops,
            w.identical
        );
        if !w.identical {
            eprintln!("# ERROR: {} slice/bitset outcomes diverge", w.name);
            ok = false;
        }
    }

    let min_ratio = reports
        .iter()
        .map(report_ratio)
        .fold(f64::INFINITY, f64::min);
    let body = render(&reports, &streaming, min_ratio, ok);
    // Atomic write: BENCH.md is diffed against a checked-in baseline, so
    // a torn report must never masquerade as a complete run.
    if let Err(e) = scpm_graph::write_atomic(std::path::Path::new(&out_path), body.as_bytes()) {
        eprintln!("# ERROR: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {out_path} (min kernel_ops ratio {min_ratio:.2}x)");

    if baseline.is_some() {
        if check_errs.is_empty() {
            eprintln!(
                "# check PASSED against {} ({} workloads)",
                check_path.as_deref().unwrap_or(""),
                reports.len()
            );
        } else {
            for e in &check_errs {
                eprintln!("# CHECK FAILED: {e}");
            }
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
