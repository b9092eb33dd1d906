//! Pruning ablation walkthrough: what each rule of the SCPM stack buys.
//!
//! ```text
//! cargo run --release --example pruning_ablation
//! ```
//!
//! Runs the same mining task with individual pruning rules disabled and
//! prints the work counters — the qualitative version of the ablation
//! benches in `crates/bench`. The rules are semantically inert, so every
//! row's reports and patterns must equal the "all on" row's; only the
//! visited-node counts and wall time move. The example checks this and
//! exits nonzero on a mismatch.

use scpm_core::{AttributeSetReport, Pattern, Scpm, ScpmParams, ScpmPruneFlags};
use scpm_datasets::small_dblp_like;
use scpm_quasiclique::PruneFlags;

/// What every row must reproduce.
type Outcome = (Vec<AttributeSetReport>, Vec<Pattern>);

fn run(
    name: &str,
    mut params: ScpmParams,
    scpm_flags: ScpmPruneFlags,
    qc_flags: PruneFlags,
) -> Outcome {
    params.prune = scpm_flags;
    params.qc_prune = qc_flags;
    let dataset = small_dblp_like(0.02, 7);
    let scpm = Scpm::new(&dataset.graph, params);
    let result = scpm.run();
    let s = result.stats;
    println!(
        "{name:<31} sets={:<5} qualified={:<4} patterns={:<5} qc_nodes={:<9} elapsed={:?}",
        s.attribute_sets_examined,
        s.attribute_sets_qualified,
        result.patterns.len(),
        s.qc_nodes_coverage + s.qc_nodes_topk,
        s.elapsed
    );
    (result.reports, result.patterns)
}

fn main() {
    let base = ScpmParams::new(8, 0.5, 8)
        .with_eps_min(0.15)
        .with_delta_min(1.0)
        .with_top_k(3)
        .with_max_attrs(2);

    println!("== attribute-level rules (Theorems 3-5) ==");
    let reference = run(
        "all on",
        base.clone(),
        ScpmPruneFlags::default(),
        PruneFlags::default(),
    );
    let mut rows = vec![
        run(
            "no Theorem 3",
            base.clone(),
            ScpmPruneFlags {
                vertex_pruning: false,
                ..Default::default()
            },
            PruneFlags::default(),
        ),
        run(
            "no Theorem 4",
            base.clone(),
            ScpmPruneFlags {
                eps_pruning: false,
                ..Default::default()
            },
            PruneFlags::default(),
        ),
        run(
            "no Theorem 5",
            base.clone(),
            ScpmPruneFlags {
                delta_pruning: false,
                ..Default::default()
            },
            PruneFlags::default(),
        ),
    ];

    println!("\n== quasi-clique engine rules (Quick [10]) ==");
    for (name, flags) in [
        ("all on", PruneFlags::default()),
        (
            "no lookahead",
            PruneFlags {
                lookahead: false,
                ..PruneFlags::default()
            },
        ),
        (
            "no size bounds",
            PruneFlags {
                bounds: false,
                critical: false,
                ..PruneFlags::default()
            },
        ),
        (
            "no critical vertex",
            PruneFlags {
                critical: false,
                ..PruneFlags::default()
            },
        ),
        (
            "no cover vertex",
            PruneFlags {
                cover_vertex: false,
                ..PruneFlags::default()
            },
        ),
        (
            "no diameter-2 (seed+peel+balls)",
            PruneFlags {
                diameter2: false,
                ..PruneFlags::default()
            },
        ),
        (
            "no witnesses",
            PruneFlags {
                witnesses: false,
                ..PruneFlags::default()
            },
        ),
    ] {
        rows.push(run(name, base.clone(), ScpmPruneFlags::default(), flags));
    }

    let mismatched = rows.iter().filter(|row| **row != reference).count();
    if mismatched > 0 {
        eprintln!("{mismatched} row(s) differ from \"all on\" in reports or patterns");
        std::process::exit(1);
    }
    println!("\nevery row matches \"all on\"");
}
