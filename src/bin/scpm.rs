//! `scpm` — command-line interface for structural correlation pattern
//! mining.
//!
//! ```text
//! scpm ingest    --edges e.txt [--attrs a.txt] --out g.snap
//!                [--format auto|edgelist|adjacency|unified]
//!                [--ids auto|intern|numeric] [--self-loops drop|error]
//!                [--strict-vertices] [--raw-attr-order] [--top N]
//!                [--memory-budget BYTES]
//! scpm mine      --graph g.txt | --snapshot g.snap
//!                [--sigma-min N] [--gamma F] [--min-size N]
//!                [--eps-min F] [--delta-min F] [--top-k N] [--order dfs|bfs]
//!                [--min-attrs N] [--max-attrs N] [--threads N] [--split-depth N]
//!                [--algo scpm|scorp|naive] [--repr bitset|slice] [--limit N]
//!                [--json] [--mmap] [--memory-budget BYTES]
//!                (--order bfs holds a search's whole frontier in memory;
//!                 dfs, the default, only the siblings along one path)
//! scpm update    --graph g.txt | --snapshot g.snap --delta d.txt
//!                [--out g2.snap] [--json] [+ the mine thresholds]
//! scpm serve     --graph g.txt | --snapshot g.snap [--port N] [--host H]
//!                [--threads N] [--split-depth N] [+ the mine thresholds]
//!                [--data-dir DIR] [--checkpoint-every N]
//! scpm recover   DIR [--threads N] [+ the mine thresholds]
//! scpm induce    --graph g.txt --attrs name,name [--dot out.dot]
//!                [--gamma F] [--min-size N] [--pvalue-sims N] [--seed N]
//! scpm generate  --dataset dblp|lastfm|citeseer|smalldblp [--scale F]
//!                [--seed N] --out g.txt|g.snap
//! scpm stats     --graph g.txt | --edges e.txt [--attrs a.txt]
//! scpm nullmodel --graph g.txt [--gamma F] [--min-size N] [--points N]
//!                [--sims N] [--seed N]
//! scpm convert   --graph g.txt --out g.snap   (and vice versa)
//! ```
//!
//! Graph files ending in `.snap` use the versioned binary snapshot format
//! (`scpm_graph::snapshot`); anything else uses the unified text format
//! (`scpm_graph::io`). `scpm ingest` additionally reads the split
//! interchange shapes real datasets ship in — edge lists, adjacency lists
//! and vertex→attribute tables — all specified in `docs/DATASETS.md`.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use std::sync::Arc;

use scpm_core::report::{render_patterns, render_summary, render_top_tables};
use scpm_core::{
    empirical_p_value, run_naive, run_parallel_with, AnalyticalModel, DirtySet, ExactModel,
    MiningState, NullModelCache, ParallelConfig, Scorp, Scpm, ScpmParams, SimulationModel,
    DEFAULT_SPLIT_DEPTH,
};
use scpm_datasets::ingest::{
    detect_format, ingest_files, IdPolicy, IngestOptions, SelfLoopPolicy, SourceFormat,
    UnknownVertexPolicy,
};
use scpm_datasets::{ingest_files_external, DatasetSpec, ExternalOptions};
use scpm_graph::io::{load_attributed, save_attributed, write_dot};
use scpm_graph::snapshot::{load_snapshot, save_snapshot};
use scpm_graph::stats::GraphSummary;
use scpm_graph::{AttributedGraph, GraphDelta};
use scpm_quasiclique::{Representation, SearchOrder};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `scpm recover DIR` takes its data directory positionally; rewrite
    // it into the uniform `--data-dir DIR` shape before flag parsing.
    let rest: Vec<String> =
        if command == "recover" && rest.first().is_some_and(|a| !a.starts_with("--")) {
            std::iter::once("--data-dir".to_string())
                .chain(rest.iter().cloned())
                .collect()
        } else {
            rest.to_vec()
        };
    if accepted(command).is_none() {
        eprintln!("error: unknown command `{command}`");
        return ExitCode::FAILURE;
    }
    let flags = match Flags::parse(&rest, command) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "ingest" => ingest(&flags),
        "mine" => mine(&flags),
        "update" => update(&flags),
        "serve" => serve(&flags),
        "recover" => recover_cmd(&flags),
        "induce" => induce(&flags),
        "generate" => generate(&flags),
        "stats" => stats(&flags),
        "nullmodel" => nullmodel(&flags),
        "convert" => convert(&flags),
        "closed" => closed(&flags),
        other => unreachable!("`{other}` has a flag set but no handler"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  scpm ingest    --edges <file> [--attrs <file>] --out <file.snap>
                 [--format auto|edgelist|adjacency|unified]
                 [--ids auto|intern|numeric] [--self-loops drop|error]
                 [--strict-vertices] [--raw-attr-order] [--top N]
                 [--memory-budget BYTES]   (bounded-memory external pass)
  scpm mine      --graph <file> | --snapshot <file.snap>
                 [--sigma-min N] [--gamma F] [--min-size N]
                 [--eps-min F] [--delta-min F] [--top-k N] [--order dfs|bfs]
                 [--min-attrs N] [--max-attrs N] [--threads N] [--split-depth N]
                 [--algo scpm|scorp|naive] [--repr bitset|slice] [--limit N]
                 [--json] [--mmap] [--memory-budget BYTES]   (zero-copy out-of-core mine)
                 (--order bfs holds a search's whole frontier in memory;
                  dfs, the default, only the siblings along one path)
  scpm update    --graph <file> | --snapshot <file.snap> --delta <file>
                 [--out <file>[.snap]] [--json] [+ the mine thresholds]
  scpm serve     --graph <file> | --snapshot <file.snap> [--port N] [--host H]
                 [--threads N] [--split-depth N] [+ the mine thresholds]
                 [--data-dir <dir>] [--checkpoint-every N]
  scpm recover   <dir> [--threads N] [+ the mine thresholds]
  scpm induce    --graph <file> --attrs name,name [--dot <file>]
                 [--gamma F] [--min-size N] [--pvalue-sims N] [--seed N]
  scpm generate  --dataset dblp|lastfm|citeseer|smalldblp [--scale F] [--seed N]
                 --out <file>[.snap]
  scpm stats     --graph <file> | --edges <file> [--attrs <file>] [--format F]
  scpm nullmodel --graph <file> [--gamma F] [--min-size N] [--points N]
                 [--sims N] [--seed N] [--max-frac F]
  scpm convert   --graph <file> --out <file>
  scpm closed    --graph <file> [--sigma-min N] [--max-attrs N] [--limit N]

formats: see docs/DATASETS.md for the byte-level grammars";

/// Minimal `--flag value` parser (boolean flags take no value). A flag
/// the command does not read is an error, so a misspelling never silently
/// falls back to a default and a flag of another command is never
/// silently ignored.
struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
}

/// Every flag that takes no value.
const BOOL_FLAGS: &[&str] = &["naive", "strict-vertices", "raw-attr-order", "json", "mmap"];

const GRAPH_INPUT: &str = "graph snapshot";
/// Every flag [`params_from`] reads: "the mine thresholds".
const THRESHOLDS: &str =
    "sigma-min gamma min-size eps-min delta-min top-k order repr min-attrs max-attrs";
const SCHEDULE: &str = "threads split-depth";
const INGEST_INPUT: &str = "edges attrs format ids self-loops top strict-vertices raw-attr-order";

/// The flags each command reads, as groups of space-separated names.
#[rustfmt::skip]
const ACCEPTED: &[(&str, &[&str])] = &[
    ("ingest", &[INGEST_INPUT, "out memory-budget"]),
    ("mine", &[GRAPH_INPUT, THRESHOLDS, SCHEDULE, "algo limit memory-budget json mmap naive"]),
    ("update", &[GRAPH_INPUT, THRESHOLDS, SCHEDULE, "delta out json"]),
    ("serve", &[GRAPH_INPUT, THRESHOLDS, SCHEDULE, "port host data-dir checkpoint-every"]),
    ("recover", &[THRESHOLDS, SCHEDULE, "data-dir"]),
    ("induce", &[GRAPH_INPUT, "attrs dot gamma min-size pvalue-sims seed"]),
    ("generate", &["dataset scale seed out"]),
    ("stats", &[GRAPH_INPUT, INGEST_INPUT]),
    ("nullmodel", &[GRAPH_INPUT, "gamma min-size points sims seed max-frac"]),
    ("convert", &[GRAPH_INPUT, "out"]),
    ("closed", &[GRAPH_INPUT, "sigma-min max-attrs limit"]),
];

/// The flag groups of `command`, or `None` for an unknown command.
fn accepted(command: &str) -> Option<&'static [&'static str]> {
    ACCEPTED
        .iter()
        .find(|(c, _)| *c == command)
        .map(|(_, g)| *g)
}

fn accepts(groups: &[&str], name: &str) -> bool {
    groups.iter().any(|g| g.split(' ').any(|f| f == name))
}

impl Flags {
    fn parse(args: &[String], command: &str) -> Result<Flags, String> {
        let groups = accepted(command).unwrap_or_default();
        let mut values = HashMap::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected --flag, got `{arg}`"));
            };
            if !accepts(groups, name) {
                return Err(if ACCEPTED.iter().any(|(_, g)| accepts(g, name)) {
                    format!("`--{name}` is not a flag of `scpm {command}`")
                } else {
                    format!("unknown flag `--{name}`")
                });
            }
            if BOOL_FLAGS.contains(&name) {
                bools.push(name.to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            values.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { values, bools })
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.str(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} `{v}`")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

/// Loads a graph by extension: `.snap` = binary snapshot, else text.
fn load_any(path: &str) -> Result<AttributedGraph, String> {
    if path.ends_with(".snap") {
        load_snapshot(path).map_err(|e| format!("loading {path}: {e}"))
    } else {
        load_attributed(path).map_err(|e| format!("loading {path}: {e}"))
    }
}

/// Saves a graph by extension: `.snap` = binary snapshot, else text.
fn save_any(g: &AttributedGraph, path: &str) -> Result<(), String> {
    if path.ends_with(".snap") {
        save_snapshot(g, path).map_err(|e| format!("writing {path}: {e}"))
    } else {
        save_attributed(g, path).map_err(|e| format!("writing {path}: {e}"))
    }
}

/// Resolves the graph input: `--graph <file>` (format by extension) or
/// `--snapshot <file>` (strictly the binary snapshot format, no guessing).
fn load(flags: &Flags) -> Result<AttributedGraph, String> {
    match (flags.str("graph"), flags.str("snapshot")) {
        (Some(_), Some(_)) => Err("--graph and --snapshot are mutually exclusive".into()),
        (Some(path), None) => load_any(path),
        (None, Some(path)) => load_snapshot(path).map_err(|e| format!("loading {path}: {e}")),
        (None, None) => Err("--graph (or --snapshot) is required".into()),
    }
}

/// Parses the shared ingest flags into [`IngestOptions`].
fn ingest_opts_from(flags: &Flags) -> Result<IngestOptions, String> {
    let id_policy = match flags.str("ids").unwrap_or("auto") {
        "auto" => IdPolicy::Auto,
        "intern" => IdPolicy::Intern,
        "numeric" => IdPolicy::Numeric,
        other => {
            return Err(format!(
                "invalid --ids `{other}` (want auto|intern|numeric)"
            ))
        }
    };
    let self_loops = match flags.str("self-loops").unwrap_or("drop") {
        "drop" => SelfLoopPolicy::Drop,
        "error" => SelfLoopPolicy::Error,
        other => return Err(format!("invalid --self-loops `{other}` (want drop|error)")),
    };
    Ok(IngestOptions {
        id_policy,
        self_loops,
        unknown_vertices: if flags.flag("strict-vertices") {
            UnknownVertexPolicy::Error
        } else {
            UnknownVertexPolicy::Allow
        },
        canonical_attrs: !flags.flag("raw-attr-order"),
        top_attributes: flags.num("top", 10usize)?,
    })
}

/// Parses `--format`, defaulting to extension-based auto-detection.
fn format_from(flags: &Flags, structure: &Path) -> Result<SourceFormat, String> {
    match flags.str("format").unwrap_or("auto") {
        "auto" => Ok(detect_format(structure)),
        "edgelist" => Ok(SourceFormat::EdgeList),
        "adjacency" => Ok(SourceFormat::Adjacency),
        "unified" => Ok(SourceFormat::Unified),
        other => Err(format!(
            "invalid --format `{other}` (want auto|edgelist|adjacency|unified)"
        )),
    }
}

/// Runs the ingest pipeline shared by `scpm ingest` and raw-file `scpm
/// stats`: parse, normalize, report.
fn ingest_from_flags(flags: &Flags) -> Result<scpm_datasets::Ingested, String> {
    let structure = flags.required("edges")?;
    let structure = Path::new(structure);
    let format = format_from(flags, structure)?;
    let attrs = flags.str("attrs").map(Path::new);
    let opts = ingest_opts_from(flags)?;
    ingest_files(format, structure, attrs, &opts).map_err(|e| e.to_string())
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `--memory-budget 256m`.
fn parse_bytes(text: &str) -> Result<usize, String> {
    let lower = text.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (lower.as_str(), 0),
    };
    let base: usize = digits
        .parse()
        .map_err(|_| format!("invalid byte count `{text}` (want e.g. 1048576, 64m, 2g)"))?;
    base.checked_shl(shift)
        .filter(|&v| v >> shift == base)
        .ok_or_else(|| format!("byte count `{text}` overflows"))
}

fn ingest(flags: &Flags) -> Result<(), String> {
    let out = flags.required("out")?;
    // A memory budget routes through the bounded-memory external pass,
    // which writes the snapshot itself (counting scatter, byte-identical
    // to the in-memory path — see crates/datasets/src/external.rs).
    if let Some(budget) = flags.str("memory-budget") {
        let budget = parse_bytes(budget)?;
        let structure = Path::new(flags.required("edges")?);
        let format = format_from(flags, structure)?;
        let attrs = flags.str("attrs").map(Path::new);
        let opts = ingest_opts_from(flags)?;
        let ext = ExternalOptions {
            memory_budget: budget,
            temp_dir: None,
        };
        let report = ingest_files_external(format, structure, attrs, &opts, &ext, Path::new(out))
            .map_err(|e| e.to_string())?;
        print!("{report}");
        let bytes = std::fs::metadata(out)
            .map_err(|e| format!("statting {out}: {e}"))?
            .len();
        println!(
            "wrote {out}: snapshot v{} ({} bytes, fnv1a-checksummed, external pass ≤ {budget} B buffers)",
            scpm_graph::snapshot::VERSION,
            bytes
        );
        return Ok(());
    }
    let ingested = ingest_from_flags(flags)?;
    print!("{}", ingested.report);
    let bytes = scpm_graph::snapshot::encode(&ingested.graph);
    // Atomic (temp → sync → rename): an interrupted ingest never leaves
    // a torn snapshot where a good one stood.
    scpm_graph::write_atomic(Path::new(out), &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: snapshot v{} ({} bytes, fnv1a-checksummed)",
        scpm_graph::snapshot::VERSION,
        bytes.len()
    );
    Ok(())
}

fn params_from(flags: &Flags) -> Result<ScpmParams, String> {
    let order = match flags.str("order").unwrap_or("dfs") {
        "dfs" => SearchOrder::Dfs,
        "bfs" => SearchOrder::Bfs,
        other => return Err(format!("invalid --order `{other}` (want dfs|bfs)")),
    };
    // Hot-loop representation (docs/PERFORMANCE.md): results are
    // identical, only kernel costs differ.
    let repr = match flags.str("repr").unwrap_or("bitset") {
        "bitset" => Representation::Bitset,
        "slice" => Representation::Slice,
        other => return Err(format!("invalid --repr `{other}` (want bitset|slice)")),
    };
    // The builder chain holds the defaults. Flag values are assigned as
    // given (the builders would clamp some) and validated before any
    // mine: QcConfig panics on an out-of-range γ or min_size, and a CLI
    // should fail with exit 1, not a panic or an empty result.
    let mut p = ScpmParams::new(10, 0.5, 5)
        .with_top_k(5)
        .with_max_attrs(3)
        .with_order(order)
        .with_repr(repr);
    p.sigma_min = flags.num("sigma-min", p.sigma_min)?;
    p.quasi_clique.gamma = flags.num("gamma", p.quasi_clique.gamma)?;
    p.quasi_clique.min_size = flags.num("min-size", p.quasi_clique.min_size)?;
    p.eps_min = flags.num("eps-min", p.eps_min)?;
    p.delta_min = flags.num("delta-min", p.delta_min)?;
    p.k = flags.num("top-k", p.k)?;
    p.min_attrs = flags.num("min-attrs", p.min_attrs)?;
    p.max_attrs = flags.num("max-attrs", p.max_attrs)?;
    p.validate()?;
    Ok(p)
}

/// `scpm mine --mmap`: the out-of-core path. The snapshot is mapped
/// zero-copy, the null model comes from the mapped CSR offsets, and the
/// attribute lattice is mined segment by segment under `--memory-budget`
/// (see `scpm_core::segments`). Output — text tables or the `--json`
/// catalog — is byte-identical to the in-memory `scpm mine` on the same
/// snapshot and parameters.
fn mine_mmap(flags: &Flags) -> Result<(), String> {
    let path = flags
        .str("snapshot")
        .ok_or("--mmap requires --snapshot (the zero-copy path reads the binary format)")?;
    if flags.str("graph").is_some() {
        return Err("--mmap and --graph are mutually exclusive".into());
    }
    if flags.flag("naive") || flags.str("algo").is_some_and(|a| a != "scpm") {
        return Err("--mmap supports only the default scpm algorithm".into());
    }
    if flags.num("threads", 1usize)? > 1 {
        return Err("--mmap is single-threaded (segments bound memory, not cores)".into());
    }
    let params = params_from(flags)?;
    let budget = parse_bytes(flags.str("memory-budget").unwrap_or("64m"))?;
    let snap =
        scpm_graph::MappedSnapshot::open(path).map_err(|e| format!("mapping {path}: {e}"))?;
    let result = scpm_core::mine_mapped(&snap, params.clone(), budget)
        .map_err(|e| format!("mining {path}: {e}"))?;
    // A names-only stand-in graph: rendering and the catalog need vertex
    // count and attribute names, never edges or assignments.
    let mut b = scpm_graph::AttributedGraphBuilder::new(snap.num_vertices());
    for a in 0..snap.num_attributes() as u32 {
        b.intern_attr(
            snap.attr_name(a)
                .map_err(|e| format!("reading {path}: {e}"))?,
        );
    }
    let names = b.build();
    if flags.flag("json") {
        let catalog = scpm_serve::PatternCatalog::build(&names, &params, result, 0);
        println!("{}", catalog.full_json().render());
        return Ok(());
    }
    let limit = flags.num("limit", 10usize)?;
    println!("{}", render_top_tables(&names, &result, limit));
    println!("patterns (best {limit}):");
    println!("{}", render_patterns(&names, &result, limit));
    println!("{}", render_summary(&result));
    Ok(())
}

fn mine(flags: &Flags) -> Result<(), String> {
    if flags.flag("mmap") {
        return mine_mmap(flags);
    }
    let graph = load(flags)?;
    let params = params_from(flags)?;
    let catalog_params = params.clone();
    let limit = flags.num("limit", 10usize)?;
    let threads = flags.num("threads", 1usize)?;
    // Work-stealing task granularity; deeper splits expose more stealable
    // subtrees on skewed lattices (docs/PARALLELISM.md).
    let split_depth = flags.num("split-depth", DEFAULT_SPLIT_DEPTH)?;
    let algo = if flags.flag("naive") {
        "naive"
    } else {
        flags.str("algo").unwrap_or("scpm")
    };
    let result = match algo {
        "naive" => run_naive(&graph, &params),
        "scorp" => Scorp::new(&graph, params).run(),
        "scpm" => {
            if threads > 1 {
                let config = ParallelConfig::new(threads).with_split_depth(split_depth);
                run_parallel_with(&graph, params, &config)
            } else {
                Scpm::new(&graph, params).run()
            }
        }
        other => return Err(format!("invalid --algo `{other}` (want scpm|scorp|naive)")),
    };
    if flags.flag("json") {
        // The catalog dump: byte-identical to what `scpm serve` answers
        // on GET /catalog for the same graph and parameters (the
        // conformance suite enforces this).
        let catalog = scpm_serve::PatternCatalog::build(&graph, &catalog_params, result, 0);
        println!("{}", catalog.full_json().render());
        return Ok(());
    }
    println!("{}", render_top_tables(&graph, &result, limit));
    println!("patterns (best {limit}):");
    println!("{}", render_patterns(&graph, &result, limit));
    println!("{}", render_summary(&result));
    Ok(())
}

/// `scpm update`: apply an insert-only delta to a graph and re-mine it
/// *incrementally* — two generation steps ([`MiningState`]): a recording
/// mine of the base graph fills the evaluation memo, then the updated
/// graph is mined with every lattice node outside the delta's dirty
/// region replayed from the memo. The output (and in particular the `--json`
/// catalog) is byte-identical to `scpm mine` on the updated graph; see
/// docs/INCREMENTAL.md for the argument and `tests/incremental_vs_full.rs`
/// for the differential proof.
fn update(flags: &Flags) -> Result<(), String> {
    let base = load(flags)?;
    let params = params_from(flags)?;
    let delta_path = flags.required("delta")?;
    let text =
        std::fs::read_to_string(delta_path).map_err(|e| format!("reading {delta_path}: {e}"))?;
    let delta = GraphDelta::parse(&text).map_err(|e| format!("{delta_path}: {e}"))?;
    let applied = delta
        .apply(&base)
        .map_err(|e| format!("{delta_path}: {e}"))?;
    let threads = flags.num("threads", 1usize)?;
    let split_depth = flags.num("split-depth", DEFAULT_SPLIT_DEPTH)?;
    let config = ParallelConfig::new(threads).with_split_depth(split_depth);

    // Generation 0: record the evaluation memo on the base graph. (The
    // serve layer keeps this memo alive across updates; the CLI rebuilds
    // it from the snapshot.)
    let cache = Arc::new(NullModelCache::new());
    let (recorded, _, _) = MiningState::record(Arc::new(base), cache, &params, &config);

    // Generation 1: replay every clean lattice node against the updated
    // graph.
    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    let dirty_summary = (dirty.dirty_attr_ids().len(), dirty.num_edge_caps());
    let applied_summary = format!(
        "+{} vertices, +{} novel edges, +{} novel attribute assignments",
        applied.added_vertices,
        applied.novel_edges.len(),
        applied.novel_attrs.len()
    );
    let (updated, result, incr) = MiningState::update(
        Arc::clone(recorded.memo()),
        Arc::new(applied.graph),
        dirty,
        &params,
        &config,
    );

    if let Some(out) = flags.str("out") {
        save_any(updated.graph(), out)?;
    }
    if flags.flag("json") {
        // Byte-identical to `scpm mine --json` on the updated graph.
        let catalog = scpm_serve::PatternCatalog::build(updated.graph(), &params, result, 0);
        println!("{}", catalog.full_json().render());
        return Ok(());
    }
    println!("applied {delta_path}: {applied_summary}");
    println!(
        "dirty region: {} attributes with novel assignments, {} novel-edge attribute caps",
        dirty_summary.0, dirty_summary.1
    );
    println!(
        "incremental mine: {} sets replayed, {} evaluated live ({} kernel ops reused / {} live)",
        incr.reused, incr.reevaluated, incr.reused_kernel_ops, incr.live_kernel_ops
    );
    println!("{}", render_summary(&result));
    Ok(())
}

/// `scpm serve`: mine once, publish the catalog over HTTP/1.1, and block
/// until a `POST /shutdown` arrives (the ctrl channel). With
/// `--data-dir`, serving is crash-safe (docs/DURABILITY.md): an
/// uninitialized directory is seeded from `--graph`/`--snapshot`, an
/// initialized one is recovered — snapshot plus journal replay — with no
/// graph input needed. SIGTERM keeps its default process-kill semantics;
/// a durable server journals every update ahead of applying it, so an
/// unclean exit costs only a journal replay on the next start.
fn serve(flags: &Flags) -> Result<(), String> {
    let params = params_from(flags)?;
    let host = flags.str("host").unwrap_or("127.0.0.1");
    let port = flags.num("port", 7474u16)?;
    let threads = flags.num("threads", 4usize)?;
    let split_depth = flags.num("split-depth", DEFAULT_SPLIT_DEPTH)?;
    let mut config =
        scpm_serve::ServeConfig::new(params, threads).with_addr(format!("{host}:{port}"));
    config.split_depth = split_depth;

    let server = match flags.str("data-dir") {
        None => scpm_serve::Server::start(load(flags)?, config)?,
        Some(dir) => {
            let injector = scpm_graph::FaultInjector::from_env()?;
            let durability = scpm_serve::DurabilityConfig::new(dir)
                .with_checkpoint_every(flags.num("checkpoint-every", 8u64)?)
                .with_injector(injector);
            let initialized = scpm_core::DataDir::open(dir)
                .map_err(|e| format!("opening data directory {dir}: {e}"))?
                .is_initialized();
            config = config.with_durability(durability);
            if initialized {
                let (server, report) = scpm_serve::Server::open(config)?;
                println!(
                    "recovered {dir}: generation {} (checkpoint {}, {} deltas replayed, {})",
                    report.generation,
                    report.checkpoint_generation,
                    report.replayed_deltas,
                    if report.memo_replayed {
                        "memo replayed".to_string()
                    } else {
                        report
                            .memo_note
                            .unwrap_or_else(|| "recording mine".to_string())
                    }
                );
                if report.snapshots_skipped > 0 {
                    println!(
                        "recovered {dir}: fell back past {} corrupt snapshot(s)",
                        report.snapshots_skipped
                    );
                }
                if let Some(bytes) = report.torn_bytes_dropped {
                    println!("recovered {dir}: repaired a torn journal tail ({bytes} bytes)");
                }
                server
            } else {
                println!("seeding data directory {dir} at generation 0");
                scpm_serve::Server::start(load(flags)?, config)?
            }
        }
    };
    let catalog = server.catalog();
    // The listening line is machine-read by the smoke tests (port 0 binds
    // an ephemeral port); keep its shape stable.
    println!("scpm serve listening on http://{}", server.addr());
    println!(
        "catalog generation 0: {} reports, {} patterns ({} workers; POST /shutdown to stop)",
        catalog.result().reports.len(),
        catalog.result().patterns.len(),
        threads.max(1)
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.join();
    println!("scpm serve: shut down cleanly");
    Ok(())
}

/// `scpm recover DIR`: inspect a data directory offline — recover the
/// newest good snapshot, replay the journal through the incremental
/// path, and report what a durable `scpm serve` restart would load.
/// Read-only: no checkpoint is written. Exits nonzero when the directory
/// cannot be recovered (operator intervention needed).
fn recover_cmd(flags: &Flags) -> Result<(), String> {
    let dir_path = flags.required("data-dir")?;
    let params = params_from(flags)?;
    let threads = flags.num("threads", 1usize)?;
    let split_depth = flags.num("split-depth", DEFAULT_SPLIT_DEPTH)?;
    let dir = scpm_core::DataDir::open(dir_path)
        .map_err(|e| format!("opening data directory {dir_path}: {e}"))?;
    let state = scpm_core::recover(&dir).map_err(|e| format!("recovering {dir_path}: {e}"))?;
    println!(
        "{dir_path}: snapshot generation {}, {} journaled delta(s) to replay",
        state.base_generation,
        state.deltas.len()
    );
    for (g, e) in &state.snapshot_errors {
        println!("  skipped corrupt snapshot generation {g}: {e}");
    }
    if let Some(torn) = &state.repaired {
        println!(
            "  repaired torn journal tail: {} bytes dropped (log valid to {})",
            torn.dropped_bytes, torn.valid_len
        );
    }
    let config = ParallelConfig::new(threads).with_split_depth(split_depth);
    let mine = scpm_core::replay_mine(state, &params, &config)
        .map_err(|e| format!("replaying {dir_path}: {e}"))?;
    if mine.memo_replayed {
        println!(
            "  memo replayed: {} sets reused, {} evaluated live",
            mine.incremental.reused, mine.incremental.reevaluated
        );
    } else {
        println!(
            "  {}",
            mine.memo_note
                .unwrap_or_else(|| "memo unusable; ran a recording mine".into())
        );
    }
    println!(
        "recovered generation {}: {} vertices, {} edges, {} reports, {} patterns",
        mine.generation,
        mine.mining.graph().num_vertices(),
        mine.mining.graph().num_edges(),
        mine.result.reports.len(),
        mine.result.patterns.len()
    );
    Ok(())
}

fn induce(flags: &Flags) -> Result<(), String> {
    let graph = load(flags)?;
    let names: Vec<&str> = flags.required("attrs")?.split(',').collect();
    let mut attrs = Vec::new();
    for name in names {
        attrs.push(
            graph
                .attr_id(name)
                .ok_or_else(|| format!("unknown attribute `{name}`"))?,
        );
    }
    let vertices = graph.vertices_with_all(&attrs);
    println!(
        "V({}) has {} vertices",
        graph.format_attr_set(&attrs),
        vertices.len()
    );
    let cfg = params_from(flags)?.quasi_clique;
    let scpm = Scpm::new(&graph, ScpmParams::new(1, cfg.gamma, cfg.min_size));
    let out = scpm.engine().epsilon(&vertices, None);
    println!(
        "ε = {:.4} ({} covered vertices)",
        out.epsilon,
        out.covered.len()
    );
    let sigma = vertices.len();
    let analytical = AnalyticalModel::new(graph.graph(), &cfg);
    let exact = ExactModel::new(graph.graph(), &cfg);
    println!(
        "δ_lb = {:.4}  δ_exact = {:.4}",
        analytical.normalize(out.epsilon, sigma),
        exact.normalize(out.epsilon, sigma)
    );
    let sims = flags.num("pvalue-sims", 0usize)?;
    if sims > 0 {
        let seed = flags.num("seed", 42u64)?;
        let p = empirical_p_value(graph.graph(), &cfg, sigma, out.epsilon, sims, seed);
        println!("empirical p-value ({sims} sims): {p:.5}");
    }
    if let Some(path) = flags.str("dot") {
        // Plain (non-atomic) create is fine here: the DOT file is a
        // throwaway visualization, never read back by any tool in the
        // workspace, so a torn write costs a re-run, not state.
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        write_dot(&graph, &vertices, &out.covered, file).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn generate(flags: &Flags) -> Result<(), String> {
    let spec = match flags.required("dataset")? {
        "dblp" => DatasetSpec::dblp(),
        "lastfm" => DatasetSpec::lastfm(),
        "citeseer" => DatasetSpec::citeseer(),
        "smalldblp" => DatasetSpec::small_dblp(),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let scale = flags.num("scale", 0.02f64)?;
    let seed = flags.num("seed", 42u64)?;
    let out = flags.required("out")?;
    let dataset = scpm_datasets::generate(&spec, scale, seed);
    save_any(&dataset.graph, out)?;
    println!(
        "wrote {out}: {} vertices, {} edges, {} attributes ({} planted communities)",
        dataset.graph.num_vertices(),
        dataset.graph.num_edges(),
        dataset.graph.num_attributes(),
        dataset.communities.len()
    );
    Ok(())
}

fn stats(flags: &Flags) -> Result<(), String> {
    // Either a ready graph (--graph/--snapshot) or raw interchange files
    // (--edges [--attrs]) statted through the ingest pipeline.
    if flags.str("edges").is_some()
        && (flags.str("graph").is_some() || flags.str("snapshot").is_some())
    {
        return Err("--edges and --graph/--snapshot are mutually exclusive".into());
    }
    let graph = if flags.str("edges").is_some() {
        let ingested = ingest_from_flags(flags)?;
        // The support list below covers the frequency head; print the
        // normalization counters only.
        let mut report = ingested.report;
        report.top_attributes.clear();
        print!("{report}");
        ingested.graph
    } else {
        load(flags)?
    };
    print!("{}", GraphSummary::of_attributed(&graph));
    let mut supports: Vec<(usize, u32)> =
        graph.attributes().map(|a| (graph.support(a), a)).collect();
    supports.sort_unstable_by(|a, b| b.cmp(a));
    println!("top attributes by support:");
    for (support, a) in supports.into_iter().take(10) {
        println!("  {:<24} {}", graph.attr_name(a), support);
    }
    Ok(())
}

fn nullmodel(flags: &Flags) -> Result<(), String> {
    let graph = load(flags)?;
    let g = graph.graph();
    let cfg = params_from(flags)?.quasi_clique;
    let points = flags.num("points", 10usize)?.max(2);
    let sims = flags.num("sims", 20usize)?;
    let seed = flags.num("seed", 42u64)?;
    // Sweep σ up to this fraction of |V| (the paper's figures stop near
    // 10%; beyond ~25% the simulation spends its time disproving
    // membership for the bulk of the graph).
    let max_frac = flags.num("max-frac", 0.25f64)?.clamp(0.001, 1.0);
    let n = g.num_vertices();
    if n < 2 {
        return Err("graph too small for a support sweep".into());
    }
    let analytical = AnalyticalModel::new(g, &cfg);
    let exact = ExactModel::new(g, &cfg);
    let sim = SimulationModel::new(g, cfg, sims, seed);
    println!("σ         max-exp      exact-exp    sim-exp      sim-std");
    for i in 1..=points {
        let sigma = ((n as f64 * max_frac) as usize * i) / points;
        let s = sim.expected(sigma);
        println!(
            "{:<9} {:<12.6} {:<12.6} {:<12.6} {:<12.6}",
            sigma,
            analytical.expected(sigma),
            exact.expected(sigma),
            s.mean,
            s.std_dev
        );
    }
    Ok(())
}

fn convert(flags: &Flags) -> Result<(), String> {
    let graph = load(flags)?;
    let out = flags.required("out")?;
    save_any(&graph, out)?;
    println!(
        "wrote {out}: {} vertices, {} edges, {} attributes",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_attributes()
    );
    Ok(())
}

/// Lists closed frequent attribute sets — attribute sets whose induced
/// vertex set no proper superset reproduces. Two attribute sets with equal
/// `V(S)` yield identical SCPM rows, so the closed sets are the
/// non-redundant mining targets.
fn closed(flags: &Flags) -> Result<(), String> {
    let graph = load(flags)?;
    let cfg = scpm_itemset::EclatConfig {
        min_support: flags.num("sigma-min", 10usize)?,
        max_size: flags.num("max-attrs", 3usize)?,
    };
    let limit = flags.num("limit", 20usize)?;
    let mut sets = scpm_itemset::closed_itemsets(&graph, &cfg);
    let total = sets.len();
    sets.sort_by(|a, b| {
        b.support()
            .cmp(&a.support())
            .then_with(|| a.items.cmp(&b.items))
    });
    println!(
        "{total} closed attribute sets (showing {})",
        limit.min(total)
    );
    for c in sets.iter().take(limit) {
        println!(
            "  {:<48} σ={}",
            graph.format_attr_set(&c.items),
            c.support()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` as `scpm mine` would.
    fn parse(args: &[&str]) -> Result<Flags, String> {
        parse_as("mine", args)
    }

    fn parse_as(command: &str, args: &[&str]) -> Result<Flags, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&owned, command)
    }

    #[test]
    fn parses_values_and_bools() {
        let f = parse(&["--graph", "g.txt", "--sigma-min", "20", "--naive"]).unwrap();
        assert_eq!(f.required("graph").unwrap(), "g.txt");
        assert_eq!(f.num("sigma-min", 0usize).unwrap(), 20);
        assert!(f.flag("naive"));
        assert!(!f.flag("other"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--graph"]).is_err());
        assert!(parse(&["graph", "g.txt"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = parse(&["--graph", "g.txt", "--sigma-mn", "999999"])
            .err()
            .unwrap();
        assert_eq!(e, "unknown flag `--sigma-mn`");
        assert!(parse(&["--jsn"]).is_err());
    }

    #[test]
    fn each_command_rejects_the_flags_it_does_not_read() {
        let e = parse_as("stats", &["--graph", "g.snap", "--top-k", "0"])
            .err()
            .unwrap();
        assert_eq!(e, "`--top-k` is not a flag of `scpm stats`");
        assert!(parse_as("convert", &["--eps-min", "7"]).is_err());
        assert!(parse_as("generate", &["--json"]).is_err());
        assert!(parse_as("recover", &["--graph", "g.snap"]).is_err());
        // A misspelling reads as one whatever the command.
        let e = parse_as("stats", &["--sigma-mn", "1"]).err().unwrap();
        assert_eq!(e, "unknown flag `--sigma-mn`");
    }

    #[test]
    fn every_flag_in_the_usage_text_is_accepted_by_its_command() {
        // Each `scpm <command>` block of USAGE names the flags it takes.
        let mut command = "";
        for line in USAGE.lines().skip(1) {
            let line = line.trim_start();
            if let Some(rest) = line.strip_prefix("scpm ") {
                command = rest.split_whitespace().next().unwrap();
            }
            if line.starts_with("formats:") {
                break;
            }
            let groups = accepted(command).unwrap();
            for word in line.split(|c: char| c.is_whitespace() || "[]|()".contains(c)) {
                if let Some(name) = word.strip_prefix("--") {
                    assert!(accepts(groups, name), "scpm {command} --{name}");
                }
            }
        }
        assert!(ACCEPTED
            .iter()
            .all(|(c, _)| USAGE.contains(&format!("scpm {c}"))));
    }

    #[test]
    fn defaults_apply() {
        let f = parse(&[]).unwrap();
        assert_eq!(f.num("top-k", 5usize).unwrap(), 5);
        assert!(f.required("graph").is_err());
    }

    #[test]
    fn params_builder_respects_flags() {
        let f = parse(&[
            "--sigma-min",
            "50",
            "--gamma",
            "0.7",
            "--min-size",
            "6",
            "--eps-min",
            "0.2",
            "--order",
            "bfs",
            "--top-k",
            "3",
        ])
        .unwrap();
        let p = params_from(&f).unwrap();
        assert_eq!(p.sigma_min, 50);
        assert!((p.quasi_clique.gamma - 0.7).abs() < 1e-12);
        assert_eq!(p.quasi_clique.min_size, 6);
        assert_eq!(p.k, 3);
        assert_eq!(p.search_order, SearchOrder::Bfs);
    }

    #[test]
    fn rejects_invalid_order() {
        let f = parse(&["--order", "sideways"]).unwrap();
        assert!(params_from(&f).is_err());
    }

    #[test]
    fn rejects_invalid_algo() {
        let dir = std::env::temp_dir().join("scpm_cli_algo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.txt");
        save_attributed(&scpm_graph::figure1::figure1(), &path).unwrap();
        let f = parse(&["--graph", path.to_str().unwrap(), "--algo", "quantum"]).unwrap();
        assert!(mine(&f).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_algorithms_run_on_figure1() {
        let dir = std::env::temp_dir().join("scpm_cli_algos");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.txt");
        save_attributed(&scpm_graph::figure1::figure1(), &path).unwrap();
        for algo in ["scpm", "scorp", "naive"] {
            let f = parse(&[
                "--graph",
                path.to_str().unwrap(),
                "--sigma-min",
                "3",
                "--gamma",
                "0.6",
                "--min-size",
                "4",
                "--eps-min",
                "0.5",
                "--algo",
                algo,
            ])
            .unwrap();
            mine(&f).unwrap_or_else(|e| panic!("algo {algo}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_then_mine_snapshot() {
        let dir = std::env::temp_dir().join("scpm_cli_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("tiny.edges");
        let attrs = dir.join("tiny.attrs");
        // A 4-clique of `db` vertices plus a pendant, with noise.
        std::fs::write(&edges, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 4\n0 1\n").unwrap();
        std::fs::write(&attrs, "0 db\n1 db\n2 db\n3 db ml\n4 ml\n").unwrap();
        let snap = dir.join("tiny.snap");
        let f = parse_as(
            "ingest",
            &[
                "--edges",
                edges.to_str().unwrap(),
                "--attrs",
                attrs.to_str().unwrap(),
                "--out",
                snap.to_str().unwrap(),
            ],
        )
        .unwrap();
        ingest(&f).unwrap();
        let f = parse(&[
            "--snapshot",
            snap.to_str().unwrap(),
            "--sigma-min",
            "3",
            "--gamma",
            "0.6",
            "--min-size",
            "4",
        ])
        .unwrap();
        mine(&f).unwrap();
        // --snapshot refuses non-snapshot files.
        let f = parse(&["--snapshot", edges.to_str().unwrap()]).unwrap();
        assert!(load(&f).is_err());
        // --graph + --snapshot is ambiguous.
        let f = parse(&[
            "--graph",
            edges.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        assert!(load(&f).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("64M").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("9999999999999999999g").is_err());
    }

    #[test]
    fn budgeted_ingest_and_mmap_mine_match_in_memory() {
        let dir = std::env::temp_dir().join("scpm_cli_oocore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        let attrs = dir.join("g.attrs");
        std::fs::write(&edges, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n").unwrap();
        std::fs::write(&attrs, "0 db\n1 db\n2 db\n3 db ml\n4 ml\n").unwrap();
        let (snap_a, snap_b) = (dir.join("inmem.snap"), dir.join("ext.snap"));
        let base = [
            "--edges",
            edges.to_str().unwrap(),
            "--attrs",
            attrs.to_str().unwrap(),
            "--out",
        ];
        let mut in_mem: Vec<&str> = base.to_vec();
        in_mem.push(snap_a.to_str().unwrap());
        ingest(&parse_as("ingest", &in_mem).unwrap()).unwrap();
        let mut external: Vec<&str> = base.to_vec();
        external.extend([snap_b.to_str().unwrap(), "--memory-budget", "1"]);
        ingest(&parse_as("ingest", &external).unwrap()).unwrap();
        assert_eq!(
            std::fs::read(&snap_a).unwrap(),
            std::fs::read(&snap_b).unwrap(),
            "budgeted ingest must be byte-identical"
        );
        // The out-of-core mine accepts the snapshot and runs end to end.
        let f = parse(&[
            "--snapshot",
            snap_b.to_str().unwrap(),
            "--mmap",
            "--memory-budget",
            "1k",
            "--sigma-min",
            "3",
            "--gamma",
            "0.6",
            "--min-size",
            "4",
        ])
        .unwrap();
        mine(&f).unwrap();
        // --mmap needs the binary format and exactly the scpm algorithm.
        let f = parse(&["--graph", snap_b.to_str().unwrap(), "--mmap"]).unwrap();
        assert!(mine(&f).is_err());
        let f = parse(&[
            "--snapshot",
            snap_b.to_str().unwrap(),
            "--mmap",
            "--algo",
            "naive",
        ])
        .unwrap();
        assert!(mine(&f).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_flag_validation() {
        let f = parse_as("ingest", &["--ids", "sideways"]).unwrap();
        assert!(ingest_opts_from(&f).is_err());
        let f = parse_as("ingest", &["--self-loops", "keep"]).unwrap();
        assert!(ingest_opts_from(&f).is_err());
        let f = parse_as("ingest", &["--format", "yaml"]).unwrap();
        assert!(format_from(&f, Path::new("g.txt")).is_err());
        let f = parse_as("ingest", &[]).unwrap();
        assert_eq!(
            format_from(&f, Path::new("g.adj")).unwrap(),
            SourceFormat::Adjacency
        );
        let f = parse_as("ingest", &["--strict-vertices", "--raw-attr-order"]).unwrap();
        let opts = ingest_opts_from(&f).unwrap();
        assert_eq!(opts.unknown_vertices, UnknownVertexPolicy::Error);
        assert!(!opts.canonical_attrs);
    }

    #[test]
    fn stats_accepts_raw_files() {
        let dir = std::env::temp_dir().join("scpm_cli_stats_raw");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        std::fs::write(&edges, "0 1\n1 2\n").unwrap();
        let f = parse_as("stats", &["--edges", edges.to_str().unwrap()]).unwrap();
        stats(&f).unwrap();
        // Raw files and ready graphs are mutually exclusive inputs.
        let f = parse_as(
            "stats",
            &[
                "--edges",
                edges.to_str().unwrap(),
                "--graph",
                edges.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(stats(&f).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_stats_nullmodel_convert_roundtrip() {
        let dir = std::env::temp_dir().join("scpm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        let f = parse_as(
            "generate",
            &[
                "--dataset",
                "dblp",
                "--scale",
                "0.003",
                "--seed",
                "1",
                "--out",
                path.to_str().unwrap(),
            ],
        )
        .unwrap();
        generate(&f).unwrap();
        let f2 = parse_as("stats", &["--graph", path.to_str().unwrap()]).unwrap();
        stats(&f2).unwrap();
        let f3 = parse(&[
            "--graph",
            path.to_str().unwrap(),
            "--sigma-min",
            "10",
            "--min-size",
            "8",
            "--max-attrs",
            "2",
        ])
        .unwrap();
        mine(&f3).unwrap();
        let f4 = parse_as(
            "nullmodel",
            &[
                "--graph",
                path.to_str().unwrap(),
                "--points",
                "4",
                "--sims",
                "3",
            ],
        )
        .unwrap();
        nullmodel(&f4).unwrap();
        // Text → snapshot → text conversion preserves counts.
        let snap = dir.join("tiny.snap");
        let f5 = parse_as(
            "convert",
            &[
                "--graph",
                path.to_str().unwrap(),
                "--out",
                snap.to_str().unwrap(),
            ],
        )
        .unwrap();
        convert(&f5).unwrap();
        let f6 = parse_as("stats", &["--graph", snap.to_str().unwrap()]).unwrap();
        stats(&f6).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }
}
