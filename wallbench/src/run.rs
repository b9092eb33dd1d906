//! The three workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use scpm_core::{
    checkpoint_with, DataDir, DirtySet, IncrementalCtx, NullModelCache, ParallelConfig, Scpm,
    ScpmParams,
};
use scpm_datasets::ingest::{IngestOptions, IngestReport, SourceFormat};
use scpm_datasets::{ingest_files_external, ExternalOptions};
use scpm_graph::{
    load_snapshot, AttributedGraph, FaultInjector, GraphDelta, JournalWriter, MappedSnapshot,
};
use scpm_serve::{Client, DurabilityConfig, PatternCatalog, ServeConfig, Server, TopBy};

use crate::inputs::{delta_body, delta_stream, pinned, Prepared, Workload, INGEST_BUDGET};
use crate::trace::{layer_metrics, segment_count, Driver, Tracer, NO_PARENT};
use crate::util::{
    beyond, fingerprint, median, min, peak_rss_mb, percentile, timed, Metrics, Tally,
};

/// Deltas between two checkpoints of the served data directory.
const CHECKPOINT_EVERY: u64 = 25;
/// Updates in the traced run's HTTP stream: p90 then has ≥ 10 samples
/// beyond it.
const TRACED_UPDATES: usize = 110;
/// Leading updates of that stream replayed in-process (untraced, then
/// traced) for the per-layer split.
const REPLAYED_UPDATES: usize = 40;
/// Updates in the untraced run's stream (a correctness pass).
const UNTRACED_UPDATES: usize = 24;
/// Budgeted ingests per out-of-core mine in `citeseer-oocore`'s loop.
const CITESEER_INGESTS_PER_MINE: usize = 4;

/// Everything one run needs.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub cache: PathBuf,
    pub pins: PathBuf,
    pub prepared: Prepared,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    pub start: Instant,
}

impl Ctx {
    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether a phase that may use up to `share` of the run has time for
    /// another repetition after `reps` (always at least `min`).
    fn more(&self, reps: usize, min: usize, until_share: f64) -> bool {
        reps < min || self.elapsed() < self.seconds * until_share
    }

    fn params(&self, n: usize) -> ScpmParams {
        self.workload.params(n)
    }

    /// Checks a mining result's fingerprint against the reference pipeline
    /// and, when one is pinned for this workload and seed, the pin.
    fn check_fp(&self, tally: &mut Tally, what: &str, fp: &str) {
        let pin = pinned(&self.pins, self.workload, self.tiny, self.seed);
        let want = &self.prepared.reference;
        tally.check(fp == want && pin.as_deref().is_none_or(|p| p == fp), || {
            format!("{what}: fingerprint {fp}, reference {want}, pinned {pin:?}")
        });
    }

    /// Budgeted external ingest of the workload's interchange files.
    fn ingest(&self, out: &Path) -> Result<IngestReport, String> {
        ingest_files_external(
            SourceFormat::EdgeList,
            &self.prepared.edges,
            Some(self.prepared.attrs.as_path()),
            &IngestOptions::default(),
            &ExternalOptions {
                memory_budget: INGEST_BUDGET,
                // Spill runs go next to `out`, inside the run's directory.
                temp_dir: None,
            },
            out,
        )
        .map_err(|e| format!("ingest: {e}"))
    }
}

/// Result of one run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Human-readable lines printed to stderr.
    pub notes: Vec<String>,
}

pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let res = match (ctx.workload, traced) {
        (Workload::CiteseerOocore, false) => citeseer(ctx, &mut out),
        (Workload::SkewedMine, false) => skewed(ctx, &mut out),
        (Workload::DblpServe, false) => dblp(ctx, &mut out),
        (Workload::DblpServe, true) => dblp_traced(ctx, &mut out),
        (_, true) => mine_traced(ctx, &mut out),
    };
    if let Err(e) = res {
        out.tally.fail(e);
    }
    out
}

/// The end-to-end samples of one run. Each workload interleaves its steps
/// across the whole run, so every series sees the same stretches of
/// machine load.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    ingest_s: Vec<f64>,
    mine_s: Vec<f64>,
}

impl Samples {
    /// Budgeted ingest into `snap`, timed.
    fn ingest(&mut self, ctx: &Ctx, out: &mut Outcome, snap: &Path) -> Result<(), String> {
        let (report, secs) = timed(|| ctx.ingest(snap));
        let report = report?;
        out.tally.check(report.vertices > 0, || {
            "ingest produced an empty graph".into()
        });
        self.ingest_s.push(secs);
        Ok(())
    }

    /// Sets the end-to-end metrics: each time is the fastest sample, since
    /// interference from other processes only ever adds time.
    fn report(&self, out: &mut Outcome, peak_rss_mb: f64) {
        let m = &mut out.metrics;
        m.set("setup_s", min(&self.setup_s), "s");
        m.set("ingest_s", min(&self.ingest_s), "s");
        m.set("mine_s", min(&self.mine_s), "s");
        m.set("peak_rss_mb", peak_rss_mb, "MB");
        for (name, samples) in [
            ("setup_s", &self.setup_s),
            ("ingest_s", &self.ingest_s),
            ("mine_s", &self.mine_s),
        ] {
            out.notes.push(summary(name, samples));
        }
    }
}

/// Opens a snapshot for zero-copy reading and validates every section, so
/// the open carries the whole structural check.
fn open_validated(path: &Path) -> Result<MappedSnapshot, String> {
    let snap = MappedSnapshot::open(path).map_err(|e| format!("opening the snapshot: {e}"))?;
    snap.validate()
        .map_err(|e| format!("validating the snapshot: {e}"))?;
    Ok(snap)
}

/// `citeseer-oocore`: ingest → open → out-of-core mine, repeated.
fn citeseer(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let snap_path = ctx.work.join("graph.snap");
    let mut s = Samples::default();
    while ctx.more(s.mine_s.len(), 3, 1.0) {
        // Several ingests per mine: ingest streams through memory, so other
        // tenants of the host slow it more than the mine, and its fastest
        // sample needs more draws to be steady from run to run.
        for _ in 0..CITESEER_INGESTS_PER_MINE {
            s.ingest(ctx, out, &snap_path)?;
        }
        let mut snap = None;
        for _ in 0..5 {
            let (opened, secs) = timed(|| open_validated(&snap_path));
            snap = Some(opened?);
            s.setup_s.push(secs);
        }
        let snap = snap.expect("opened at least once");
        let params = ctx.params(snap.num_vertices());
        let (result, secs) = timed(|| scpm_core::mine_mapped(&snap, params, INGEST_BUDGET));
        let result = result.map_err(|e| format!("mine_mapped: {e}"))?;
        ctx.check_fp(&mut out.tally, "mine_mapped", &fingerprint(&result));
        s.mine_s.push(secs);
    }
    s.report(out, peak_rss_mb());
    Ok(())
}

/// `skewed-mine`: ingest → snapshot load → one-thread mine, repeated.
fn skewed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let snap_path = ctx.work.join("graph.snap");
    let mut s = Samples::default();
    while ctx.more(s.mine_s.len(), 5, 1.0) {
        s.ingest(ctx, out, &snap_path)?;
        let mut graph = None;
        for _ in 0..3 {
            let (g, secs) = timed(|| load_snapshot(&snap_path));
            graph = Some(g.map_err(|e| format!("loading the snapshot: {e}"))?);
            s.setup_s.push(secs);
        }
        let graph = graph.expect("loaded at least once");
        let params = ctx.params(graph.num_vertices());
        let (result, secs) =
            timed(|| Scpm::new(&graph, params).run_scheduled(&ParallelConfig::new(1)));
        ctx.check_fp(&mut out.tally, "mine", &fingerprint(&result));
        s.mine_s.push(secs);
    }
    s.report(out, peak_rss_mb());
    Ok(())
}

/// The served configuration: 2 HTTP workers, 1 mine thread, durable with a
/// checkpoint every [`CHECKPOINT_EVERY`] deltas.
fn serve_config(params: ScpmParams, dir: &Path) -> ServeConfig {
    ServeConfig::new(params, 2)
        .with_mine_threads(1)
        .with_durability(DurabilityConfig::new(dir).with_checkpoint_every(CHECKPOINT_EVERY))
}

/// The catalog a batch mine of `g` serves (`GET /catalog`'s result).
fn batch_catalog(g: &AttributedGraph, params: &ScpmParams) -> (String, String) {
    let result = Scpm::new(g, params.clone()).run();
    let fp = fingerprint(&result);
    (
        PatternCatalog::build(g, params, result, 0)
            .full_json()
            .render(),
        fp,
    )
}

/// `GET /catalog`'s result, rendered.
fn served_catalog(client: &Client) -> Result<String, String> {
    let response = client.get("/catalog")?;
    if response.status != 200 {
        return Err(format!("GET /catalog: status {}", response.status));
    }
    Ok(response.result()?.render())
}

/// The reader's cycle: one target per read endpoint, the point queries
/// aimed at the first pattern of the generation-0 catalog.
fn read_targets(graph: &AttributedGraph, catalog: &PatternCatalog) -> Vec<String> {
    let first = catalog.result().patterns.first();
    let vertex = first.map_or(0, |p| p.clique.vertices[0]);
    let mut targets = vec!["/top?by=delta&k=10".to_string()];
    if let Some(p) = first {
        let names: Vec<&str> = p.attrs.iter().map(|&a| graph.attr_name(a)).collect();
        let attrs = names.join(",");
        // Names needing URL escapes are skipped rather than encoded.
        if attrs
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-_.,".contains(&b))
        {
            targets.push(format!("/patterns?attrs={attrs}"));
        }
    }
    targets.push(format!("/patterns/covering?v={vertex}"));
    targets.push("/reports?delta_min=1.0".to_string());
    targets.push("/health".to_string());
    targets
}

/// The in-process twin of one read: the catalog query plus its render.
fn read_in_process(catalog: &PatternCatalog, target: &str) -> usize {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let param = |key: &str| {
        query
            .split('&')
            .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            .unwrap_or("")
    };
    let json = match path {
        "/top" => catalog.query_top(TopBy::parse(param("by")).expect("valid ranking"), 10),
        "/patterns" => catalog.query_attrs(param("attrs")),
        "/patterns/covering" => catalog.query_covering(param("v").parse().unwrap_or(0)),
        "/reports" => catalog.query_delta(1.0),
        _ => Ok(scpm_serve::Json::Obj(vec![(
            "status".into(),
            scpm_serve::Json::str("ok"),
        )])),
    };
    json.map(|j| j.render().len()).unwrap_or(0)
}

/// Latencies of one HTTP update stream with a concurrent closed-loop
/// reader, in milliseconds.
#[derive(Default)]
struct StreamLatency {
    updates: Vec<f64>,
    reads: Vec<f64>,
}

/// Posts `deltas` one after another while a second client cycles the read
/// targets until the writer is done.
fn http_stream(
    client: Client,
    deltas: &[GraphDelta],
    targets: &[String],
    tally: &mut Tally,
) -> StreamLatency {
    let done = AtomicBool::new(false);
    let (updates, (reads, read_errors)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut lat, mut errors) = (Vec::new(), Vec::new());
            let mut i = 0;
            while !done.load(Ordering::Acquire) {
                let target = &targets[i % targets.len()];
                i += 1;
                let start = Instant::now();
                match client.get(target) {
                    Ok(r) if r.status == 200 => lat.push(start.elapsed().as_secs_f64() * 1e3),
                    Ok(r) => errors.push(format!("GET {target}: status {}", r.status)),
                    Err(e) => errors.push(format!("GET {target}: {e}")),
                }
            }
            (lat, errors)
        });
        let mut lat = Vec::with_capacity(deltas.len());
        let mut errors = Vec::new();
        for d in deltas {
            let body = delta_body(d);
            let start = Instant::now();
            match client.post("/update", &body) {
                Ok(r) if r.status == 200 => lat.push(start.elapsed().as_secs_f64() * 1e3),
                Ok(r) => errors.push(format!("POST /update: status {}: {}", r.status, r.body)),
                Err(e) => errors.push(format!("POST /update: {e}")),
            }
        }
        done.store(true, Ordering::Release);
        let reads = reader.join().expect("reader thread panicked");
        ((lat, errors), reads)
    });
    let (updates, update_errors) = updates;
    for _ in 0..updates.len() + reads.len() {
        tally.ok();
    }
    for e in update_errors.into_iter().chain(read_errors) {
        tally.fail(e);
    }
    StreamLatency { updates, reads }
}

/// Applies `deltas` to `g` in order.
fn apply_all(g: &AttributedGraph, deltas: &[GraphDelta]) -> Result<AttributedGraph, String> {
    let mut g = g.clone();
    for d in deltas {
        g = d
            .apply(&g)
            .map_err(|e| format!("applying a delta: {e}"))?
            .graph;
    }
    Ok(g)
}

/// Starts the durable server over `graph` in a fresh data directory.
fn start_server(ctx: &Ctx, graph: &AttributedGraph, i: usize) -> Result<(Server, f64), String> {
    let dir = ctx.work.join(format!("data-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    let params = ctx.params(graph.num_vertices());
    let (server, secs) = timed(|| Server::start(graph.clone(), serve_config(params, &dir)));
    Ok((
        server.map_err(|e| format!("starting the server: {e}"))?,
        secs,
    ))
}

/// `dblp-serve`: ingest → server start → full re-mine over HTTP, repeated;
/// then an update stream under concurrent reads, checked against a batch
/// mine.
fn dblp(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let snap_path = ctx.work.join("graph.snap");
    let mut s = Samples::default();
    let mut current: Option<(Server, AttributedGraph)> = None;
    let mut rss = 0.0;
    while ctx.more(s.mine_s.len(), 5, 0.85) {
        s.ingest(ctx, out, &snap_path)?;
        let graph = load_snapshot(&snap_path).map_err(|e| format!("loading the snapshot: {e}"))?;
        let i = s.setup_s.len();
        if let Some((old, _)) = current.take() {
            old.abort();
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("data-{}", i - 1)));
        }
        let (server, secs) = start_server(ctx, &graph, i)?;
        s.setup_s.push(secs);
        let start = Instant::now();
        let response = Client::new(server.addr()).post("/mine", "{}")?;
        s.mine_s.push(start.elapsed().as_secs_f64());
        out.tally.check(response.status == 200, || {
            format!("POST /mine: status {}", response.status)
        });
        current = Some((server, graph));
        // The high-water mark of one served lifetime. Each later restart in
        // this process leaves the allocator arenas of its exited threads
        // behind, so the mark would creep with the number of restarts, which
        // depends on the host's speed.
        if s.mine_s.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    let (server, graph) = current.expect("started at least once");
    let params = ctx.params(graph.num_vertices());
    let client = Client::new(server.addr());
    let (batch, batch_fp) = batch_catalog(&graph, &params);
    ctx.check_fp(&mut out.tally, "batch mine", &batch_fp);
    let served = served_catalog(&client)?;
    out.tally.check(served == batch, || {
        "served catalog after POST /mine differs from batch".into()
    });

    let targets = read_targets(&graph, &server.catalog());
    let deltas = delta_stream(&graph, UNTRACED_UPDATES, ctx.seed);
    let lat = http_stream(client, &deltas, &targets, &mut out.tally);
    let served = served_catalog(&client)?;
    server.stop();
    let (batch, _) = batch_catalog(&apply_all(&graph, &deltas)?, &params);
    out.tally.check(served == batch, || {
        "served catalog after the update stream differs from a batch mine".into()
    });
    s.report(out, rss);
    out.notes.push(summary("update_ms", &lat.updates));
    Ok(())
}

/// Traced `citeseer-oocore` and `skewed-mine`: the pipeline steps, then
/// untraced library mines against traced driver mines of the same graph.
fn mine_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let snap_path = ctx.work.join("graph.snap");
    let (report, ingest_s) = timed(|| ctx.ingest(&snap_path));
    let report = report?;
    let bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let mut open_s = Vec::new();
    let mut segments = 0;
    for _ in 0..5 {
        if ctx.workload == Workload::CiteseerOocore {
            let (snap, secs) = timed(|| open_validated(&snap_path));
            let snap = snap?;
            open_s.push(secs);
            segments = segment_count(
                &snap,
                ctx.params(snap.num_vertices()).sigma_min,
                INGEST_BUDGET,
            );
        } else {
            let (g, secs) = timed(|| load_snapshot(&snap_path));
            g.map_err(|e| format!("loading the snapshot: {e}"))?;
            open_s.push(secs);
        }
    }
    // The driver runs over the decoded snapshot: `mine_mapped` is
    // bit-identical to `Scpm::run` on it.
    let graph = load_snapshot(&snap_path).map_err(|e| format!("loading the snapshot: {e}"))?;
    let params = ctx.params(graph.num_vertices());

    let mut tracer = Tracer::default();
    let mut counts = crate::trace::Counts::default();
    let (mut untraced_s, mut traced_s, mut runs) = (0.0, 0.0, 0usize);
    while ctx.more(runs, 1, 0.5) {
        let (plain, secs) = timed(|| Scpm::new(&graph, params.clone()).run());
        untraced_s += secs;
        let want = fingerprint(&plain);
        ctx.check_fp(&mut out.tally, "untraced mine", &want);
        let ((result, _, c), secs) =
            timed(|| Driver::new(&graph, params.clone(), &mut tracer, NO_PARENT).run());
        traced_s += secs;
        let got = fingerprint(&result);
        out.tally.check(got == want, || {
            format!("traced driver fingerprint {got} differs from the library's {want}")
        });
        crate::trace::add_counts(&mut counts, c);
        runs += 1;
    }
    let m = &mut out.metrics;
    layer_metrics(m, &tracer, &counts, traced_s, untraced_s, runs as f64);
    m.set("ingest.busy_s", ingest_s, "s");
    m.set("ingest.pairs", report.pairs as f64, "count");
    m.set("snapshot.open_s", median(&open_s), "s");
    m.set("snapshot.bytes", bytes as f64, "bytes");
    m.set("segments.count", segments as f64, "count");
    set_http_absent(m);
    out.notes.push(format!("traced mines: {runs}"));
    write_spans(ctx, &tracer);
    Ok(())
}

/// One in-process update step's state.
struct Live {
    graph: Arc<AttributedGraph>,
    memo: Arc<scpm_core::EvalMemo>,
    journal: JournalWriter,
    dir: DataDir,
    generation: u64,
    catalog: Option<PatternCatalog>,
}

impl Live {
    /// Seeds a data directory with the generation-0 checkpoint, like
    /// `Server::start`.
    fn seed(ctx: &Ctx, graph: &AttributedGraph, name: &str) -> Result<Live, String> {
        let params = ctx.params(graph.num_vertices());
        let path = ctx.work.join(name);
        let _ = std::fs::remove_dir_all(&path);
        let dir = DataDir::open(&path).map_err(|e| format!("data directory: {e}"))?;
        let mut scpm = Scpm::with_cache(graph, params.clone(), Arc::new(NullModelCache::new()))
            .with_incremental(IncrementalCtx::recording());
        scpm.run_scheduled(&ParallelConfig::new(1));
        let (memo, _) = scpm
            .take_incremental()
            .expect("recording run keeps its context")
            .into_parts();
        let journal = checkpoint_with(&FaultInjector::none(), &dir, 0, graph, &memo, &params)
            .map_err(|e| format!("seeding the data directory: {e}"))?;
        Ok(Live {
            graph: Arc::new(graph.clone()),
            memo: Arc::new(memo),
            journal,
            dir,
            generation: 0,
            catalog: None,
        })
    }

    /// Whether the server would checkpoint after this delta.
    fn checkpoint_due(&self) -> bool {
        self.generation.is_multiple_of(CHECKPOINT_EVERY)
    }

    fn checkpoint(&mut self, params: &ScpmParams) -> Result<(), String> {
        self.journal = checkpoint_with(
            &FaultInjector::none(),
            &self.dir,
            self.generation,
            &self.graph,
            &self.memo,
            params,
        )
        .map_err(|e| format!("checkpoint: {e}"))?;
        Ok(())
    }
}

/// Traced `dblp-serve`: the HTTP stream for client-observed latencies, then
/// the same stream replayed in-process, untraced and traced.
fn dblp_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let snap_path = ctx.work.join("graph.snap");
    let (report, ingest_s) = timed(|| ctx.ingest(&snap_path));
    let report = report?;
    let bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let mut open_s = Vec::new();
    let mut graph = None;
    for _ in 0..5 {
        let (g, secs) = timed(|| load_snapshot(&snap_path));
        graph = Some(g.map_err(|e| format!("loading the snapshot: {e}"))?);
        open_s.push(secs);
    }
    let graph = graph.expect("loaded at least once");
    let params = ctx.params(graph.num_vertices());
    let deltas = delta_stream(&graph, TRACED_UPDATES, ctx.seed);

    // Client-observed latencies over HTTP.
    let (server, _) = start_server(ctx, &graph, 0)?;
    let client = Client::new(server.addr());
    let targets = read_targets(&graph, &server.catalog());
    let lat = http_stream(client, &deltas, &targets, &mut out.tally);
    let served = served_catalog(&client)?;
    server.stop();
    let final_graph = apply_all(&graph, &deltas)?;
    let (batch, _) = batch_catalog(&final_graph, &params);
    out.tally.check(served == batch, || {
        "served catalog after the update stream differs from a batch mine".into()
    });

    // The same steps in-process, untraced, over a prefix of the stream.
    let replayed = &deltas[..REPLAYED_UPDATES.min(deltas.len())];
    let (batch, _) = batch_catalog(&apply_all(&graph, replayed)?, &params);
    let mut live = Live::seed(ctx, &graph, "replay-untraced")?;
    let mut read_ms = Vec::new();
    let start = Instant::now();
    for d in replayed {
        let applied = d.apply(&live.graph).map_err(|e| format!("delta: {e}"))?;
        live.generation = live
            .journal
            .append(d)
            .map_err(|e| format!("journal: {e}"))?;
        let dirty = DirtySet::from_delta(&applied.graph, &applied);
        let g = Arc::new(applied.graph);
        let mut scpm = Scpm::with_cache(&g, params.clone(), Arc::new(NullModelCache::new()))
            .with_incremental(IncrementalCtx::update(live.memo.clone(), dirty));
        let result = scpm.run_scheduled(&ParallelConfig::new(1));
        let (memo, _) = scpm
            .take_incremental()
            .expect("update run keeps its context")
            .into_parts();
        let catalog = PatternCatalog::build(&g, &params, result, live.generation);
        live.graph = g;
        live.memo = Arc::new(memo);
        if live.checkpoint_due() {
            live.checkpoint(&params)?;
        }
        for target in &targets {
            let (_, secs) = timed(|| read_in_process(&catalog, target));
            read_ms.push(secs * 1e3);
        }
        live.catalog = Some(catalog);
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let untraced_catalog = live.catalog.take().map(|c| c.full_json().render());

    // Traced.
    let mut t = Tracer::default();
    let mut counts = crate::trace::Counts::default();
    let mut live = Live::seed(ctx, &graph, "replay-traced")?;
    let start = Instant::now();
    for d in replayed {
        let applied = t
            .span("delta", NO_PARENT, || d.apply(&live.graph))
            .map_err(|e| format!("delta: {e}"))?;
        live.generation = t
            .span("journal", NO_PARENT, || live.journal.append(d))
            .map_err(|e| format!("journal: {e}"))?;
        let dirty = t.span("dirty", NO_PARENT, || {
            DirtySet::from_delta(&applied.graph, &applied)
        });
        let g = Arc::new(applied.graph);
        let (result, memo, c) = Driver::new(&g, params.clone(), &mut t, NO_PARENT)
            .with_update(live.memo.clone(), dirty)
            .run();
        crate::trace::add_counts(&mut counts, c);
        let generation = live.generation;
        let catalog = t.span("catalog", NO_PARENT, || {
            PatternCatalog::build(&g, &params, result, generation)
        });
        live.graph = g;
        live.memo = Arc::new(memo);
        if live.checkpoint_due() {
            t.span("checkpoint", NO_PARENT, || live.checkpoint(&params))?;
        }
        t.span("render", NO_PARENT, || {
            targets
                .iter()
                .map(|target| read_in_process(&catalog, target))
                .sum::<usize>()
        });
        live.catalog = Some(catalog);
    }
    let traced_s = start.elapsed().as_secs_f64();
    let traced_catalog = live.catalog.take().map(|c| c.full_json().render());
    out.tally.check(
        traced_catalog.as_deref() == Some(batch.as_str())
            && untraced_catalog.as_deref() == Some(batch.as_str()),
        || "in-process replay catalogs differ from the batch mine".into(),
    );

    let n = replayed.len() as f64;
    let m = &mut out.metrics;
    layer_metrics(m, &t, &counts, traced_s, untraced_s, n);
    m.set("ingest.busy_s", ingest_s, "s");
    m.set("ingest.pairs", report.pairs as f64, "count");
    m.set("snapshot.open_s", median(&open_s), "s");
    m.set("snapshot.bytes", bytes as f64, "bytes");
    m.set("segments.count", 0.0, "count");
    set_http(m, &lat, median(&read_ms));
    write_spans(ctx, &t);
    out.notes.push(format!(
        "updates {} reads {} (per-layer values are per update)",
        lat.updates.len(),
        lat.reads.len()
    ));
    Ok(())
}

/// One line describing a sample series: count and quartiles.
fn summary(name: &str, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("{name}: no samples");
    }
    format!(
        "{name}: n={} min={:.6} p25={:.6} p50={:.6} p75={:.6} max={:.6}",
        samples.len(),
        percentile(samples, 0.0),
        percentile(samples, 0.25),
        percentile(samples, 0.5),
        percentile(samples, 0.75),
        percentile(samples, 1.0)
    )
}

/// Client-observed latency metrics; a tail percentile is reported only
/// with at least ten samples beyond it (else 0).
fn set_http(m: &mut Metrics, lat: &StreamLatency, in_process_read_ms: f64) {
    let tail = |s: &[f64], q: f64| {
        if !s.is_empty() && beyond(s, q) >= 10 {
            percentile(s, q)
        } else {
            0.0
        }
    };
    let mid = |s: &[f64]| if s.is_empty() { 0.0 } else { median(s) };
    m.set("http.update_p50_ms", mid(&lat.updates), "ms");
    m.set("http.update_p90_ms", tail(&lat.updates, 0.9), "ms");
    m.set("http.update_samples", lat.updates.len() as f64, "count");
    m.set("http.read_p50_ms", mid(&lat.reads), "ms");
    m.set("http.read_p99_ms", tail(&lat.reads, 0.99), "ms");
    m.set("http.read_samples", lat.reads.len() as f64, "count");
    m.set(
        "http.overhead_ms",
        mid(&lat.reads) - in_process_read_ms,
        "ms",
    );
}

/// Zero-valued HTTP metrics for the workloads without a server.
fn set_http_absent(m: &mut Metrics) {
    set_http(m, &StreamLatency::default(), 0.0);
}

/// Writes the run's spans next to the input cache.
fn write_spans(ctx: &Ctx, t: &Tracer) {
    let dir = ctx.cache.join("traces");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{}-{}.tsv", ctx.workload.name(), ctx.seed));
    if let Err(e) = t.write(&path) {
        eprintln!("# note: writing spans to {}: {e}", path.display());
    }
}
