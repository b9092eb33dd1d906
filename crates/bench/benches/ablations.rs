//! Ablation benchmarks for the pruning rules and the hot-path
//! representation (see `docs/ARCHITECTURE.md` and `docs/PERFORMANCE.md`).
//! Disabling any pruning rule is semantically inert (verified by tests);
//! these benches quantify what each rule buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scpm_core::{Scorp, Scpm, ScpmParams, ScpmPruneFlags};
use scpm_datasets::small_dblp_like;
use scpm_graph::bitadj::{gather_intersect_popcount, BitAdjacency, VertexBitset};
use scpm_graph::csr::intersect_count;
use scpm_graph::generators::planted::{BackgroundModel, PlantedCommunityConfig, PlantedGraph};
use scpm_graph::induced::InducedSubgraph;
use scpm_quasiclique::{Miner, PruneFlags, QcConfig, Representation};

fn engine_flag_variants() -> Vec<(&'static str, PruneFlags)> {
    let all = PruneFlags::default();
    vec![
        ("all_on", all),
        (
            "no_lookahead",
            PruneFlags {
                lookahead: false,
                ..all
            },
        ),
        (
            "no_feasibility",
            PruneFlags {
                feasibility: false,
                ..all
            },
        ),
        (
            "no_size_bounds",
            PruneFlags {
                bounds: false,
                critical: false,
                ..all
            },
        ),
        (
            "no_critical_vertex",
            PruneFlags {
                critical: false,
                ..all
            },
        ),
        (
            "no_cover_vertex",
            PruneFlags {
                cover_vertex: false,
                ..all
            },
        ),
        // `diameter2` switches the seed's two-hop candidate restriction,
        // the global two-hop core peel before the search and coverage
        // ball by ball.
        (
            "no_diameter2",
            PruneFlags {
                diameter2: false,
                ..all
            },
        ),
        (
            "no_covered_prune",
            PruneFlags {
                covered_candidate: false,
                ..all
            },
        ),
        (
            "no_witnesses",
            PruneFlags {
                witnesses: false,
                ..all
            },
        ),
    ]
}

fn bench_engine_prunings(c: &mut Criterion) {
    // Kept small: the no_diameter2 variant is quadratic in the vertex
    // count (root children carry the whole candidate list) and would
    // otherwise dominate the entire bench suite.
    let pg = PlantedGraph::generate(
        &PlantedCommunityConfig {
            n: 600,
            background: BackgroundModel::Uniform { mean_degree: 3.0 },
            num_communities: 6,
            community_size: (8, 14),
            p_in: 0.8,
        },
        7,
    );
    let cfg = QcConfig::new(0.5, 6);
    let mut group = c.benchmark_group("engine_pruning_ablation");
    group.sample_size(10);
    for (name, flags) in engine_flag_variants() {
        group.bench_with_input(BenchmarkId::new("coverage", name), &flags, |b, &f| {
            b.iter(|| {
                Miner::new(&pg.graph, cfg)
                    .with_prune(f)
                    .coverage()
                    .covered
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_scpm_theorem_ablation(c: &mut Criterion) {
    let dataset = small_dblp_like(0.02, 77);
    let g = &dataset.graph;
    let base = ScpmParams::new(5, 0.5, 11)
        .with_eps_min(0.1)
        .with_delta_min(1.0)
        .with_top_k(5)
        .with_max_attrs(3);
    let variants: Vec<(&str, ScpmPruneFlags)> = vec![
        ("thm3_4_5_on", ScpmPruneFlags::default()),
        (
            "no_thm3_vertex_pruning",
            ScpmPruneFlags {
                vertex_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_thm4_eps_bound",
            ScpmPruneFlags {
                eps_pruning: false,
                ..Default::default()
            },
        ),
        (
            "no_thm5_delta_bound",
            ScpmPruneFlags {
                delta_pruning: false,
                ..Default::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("scpm_theorem_ablation");
    group.sample_size(10);
    for (name, flags) in variants {
        let mut params = base.clone();
        params.prune = flags;
        group.bench_with_input(BenchmarkId::new("run", name), &params, |b, p| {
            b.iter(|| Scpm::new(g, p.clone()).run())
        });
    }
    group.finish();
}

/// SCORP (complete enumeration, Theorem 4 only) vs SCPM (top-k + δ
/// pruning) — the gap the VLDB'12 extensions buy over the MLG'10 system.
fn bench_scorp_vs_scpm(c: &mut Criterion) {
    let dataset = small_dblp_like(0.02, 77);
    let g = &dataset.graph;
    let params = ScpmParams::new(5, 0.5, 11)
        .with_eps_min(0.1)
        .with_delta_min(1.0)
        .with_top_k(5)
        .with_max_attrs(3);
    let mut group = c.benchmark_group("scorp_vs_scpm");
    group.sample_size(10);
    group.bench_function("scpm_topk", |b| {
        b.iter(|| Scpm::new(g, params.clone()).run())
    });
    group.bench_function("scorp_complete", |b| {
        b.iter(|| Scorp::new(g, params.clone()).run())
    });
    group.finish();
}

/// Sorted-slice vs packed-bitset hot path: end-to-end coverage searches
/// (the A/B the `--repr` switch and `exp_perf` expose) plus the raw
/// kernels underneath (edge tests, external-degree counting, incremental
/// subgraph projection).
fn bench_representation_kernels(c: &mut Criterion) {
    let pg = PlantedGraph::generate(
        &PlantedCommunityConfig {
            n: 600,
            background: BackgroundModel::Uniform { mean_degree: 3.0 },
            num_communities: 6,
            community_size: (8, 14),
            p_in: 0.8,
        },
        7,
    );
    let cfg = QcConfig::new(0.5, 6);
    let mut group = c.benchmark_group("representation");
    group.sample_size(10);
    for (name, repr) in [
        ("slice", Representation::Slice),
        ("bitset", Representation::Bitset),
    ] {
        group.bench_with_input(BenchmarkId::new("coverage", name), &repr, |b, &r| {
            b.iter(|| {
                Miner::new(&pg.graph, cfg)
                    .with_repr(r)
                    .coverage()
                    .covered
                    .len()
            })
        });
    }

    // Raw kernels over one mid-sized induced subgraph.
    let set: Vec<u32> = (0..300u32).collect();
    let sub = InducedSubgraph::extract(&pg.graph, &set);
    let adj = BitAdjacency::from_csr(&sub.graph);
    let cands: Vec<u32> = (0..sub.num_vertices() as u32).step_by(2).collect();
    let cand_bits = VertexBitset::from_sorted(sub.num_vertices(), &cands);
    group.bench_function("exdeg/slice_merge", |b| {
        b.iter(|| {
            (0..sub.num_vertices() as u32)
                .map(|v| intersect_count(sub.graph.neighbors(v), &cands))
                .sum::<usize>()
        })
    });
    group.bench_function("exdeg/bitset_popcount", |b| {
        b.iter(|| {
            (0..sub.num_vertices() as u32)
                .map(|v| {
                    gather_intersect_popcount(adj.row(v), cand_bits.words(), adj.row_active(v))
                })
                .sum::<usize>()
        })
    });
    group.bench_function("project/from_parent", |b| {
        b.iter(|| sub.project(&cand_bits).num_vertices())
    });
    group.bench_function("project/global_extract", |b| {
        b.iter(|| InducedSubgraph::extract(&pg.graph, &cands).num_vertices())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_prunings,
    bench_scpm_theorem_ablation,
    bench_scorp_vs_scpm,
    bench_representation_kernels
);
criterion_main!(benches);
