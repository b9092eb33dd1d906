//! The long-running catalog server: accept loop, worker pool, routing,
//! and the atomic catalog swap.
//!
//! # Lifecycle
//!
//! [`Server::start`] binds a [`TcpListener`], mines the startup catalog
//! (generation 0) with the work-stealing scheduler, and spawns
//! [`ServeConfig::threads`] worker threads that all `accept` on the shared
//! listener. Each worker handles one connection at a time, looping over
//! keep-alive requests until the peer closes, errors, or asks to close.
//!
//! # Catalog swap semantics
//!
//! The current catalog lives in a `RwLock<Arc<PatternCatalog>>`. A handler
//! takes the read lock only long enough to clone the `Arc`, then answers
//! entirely from that snapshot — readers never block on a re-mine and can
//! never observe a half-built catalog. `POST /mine` serializes re-mines
//! through a mutex, mines a complete new catalog (sharing the global
//! [`NullModelCache`], so `exp(σ)` values survive across generations),
//! and replaces the `Arc` in one write-lock store. Every response carries
//! the generation it was answered from.
//!
//! # Live updates
//!
//! The graph itself lives behind the same snapshot discipline (a
//! `RwLock<Arc<MiningState>>` bundling graph + null-model cache + the
//! evaluation memo of the last mine). `POST /update` applies an
//! insert-only [`GraphDelta`] to the current graph and re-mines it
//! *incrementally*: every mine runs in recording mode so its per-set
//! evaluation memo is retained, and an update replays the memo for every
//! lattice node outside the delta's dirty region (docs/INCREMENTAL.md).
//! The resulting catalog is byte-identical to a from-scratch mine of the
//! updated graph and is swapped in with a generation bump, exactly like a
//! re-mine. The null-model cache is *not* carried across an update —
//! `exp(σ)` is a function of the graph, and the graph changed.
//!
//! # Durability
//!
//! With [`ServeConfig::durability`] set, the server is crash-safe: every
//! `POST /update` journals its delta to a write-ahead log *before* the
//! in-memory swap, a checkpoint folds the journal into a fresh atomic
//! snapshot every `checkpoint_every` deltas (and on graceful shutdown),
//! and [`Server::open`] recovers the newest good snapshot plus journal
//! replay through the incremental path. The protocol, its commit points,
//! and the fault-injection proof live in `docs/DURABILITY.md`.
//!
//! # Shutdown
//!
//! `POST /shutdown` (the ctrl channel) flips an atomic flag and pokes one
//! dummy connection per worker so blocked `accept` calls return. Workers
//! re-check the flag after every accept and every request. SIGTERM keeps
//! its default process-kill behavior — in-memory serving has nothing to
//! flush, and durable serving is journaled ahead of every swap, so an
//! unclean exit costs only a journal replay on the next open.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use scpm_core::{
    checkpoint_with, recover, replay_mine, DataDir, DirtySet, MiningState, NullModelCache,
    ParallelConfig, ScpmParams, DEFAULT_SPLIT_DEPTH,
};
use scpm_graph::attributed::AttributedGraph;
use scpm_graph::{DeltaOp, FaultInjector, GraphDelta, JournalWriter};

use crate::catalog::{PatternCatalog, TopBy};
use crate::http::{read_request, write_response, HttpError, ReadOutcome, Request};
use crate::json::Json;

/// Durable-serving configuration: where the data directory lives and how
/// often the journal is folded into a fresh checkpoint
/// (`docs/DURABILITY.md`).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The data directory (created on first use).
    pub dir: PathBuf,
    /// Checkpoint after this many journaled deltas (minimum 1). Between
    /// checkpoints a restart replays the journal; after one it loads the
    /// snapshot directly.
    pub checkpoint_every: u64,
    /// Fault injection over every durability operation (tests); defaults
    /// to passthrough.
    pub injector: FaultInjector,
}

impl DurabilityConfig {
    /// Durability rooted at `dir`, checkpointing every 8 deltas.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 8,
            injector: FaultInjector::none(),
        }
    }

    /// Sets the checkpoint interval (clamped to at least 1), builder style.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Sets the fault injector, builder style.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }
}

/// Configuration of one serving process.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 selects an ephemeral port (tests).
    pub addr: String,
    /// HTTP worker threads (minimum 1).
    pub threads: usize,
    /// Scheduler threads for the startup mine and re-mines (defaults to
    /// `threads`; output is bit-identical at any value).
    pub mine_threads: usize,
    /// Work-stealing split depth of re-mines (`docs/PARALLELISM.md`).
    pub split_depth: usize,
    /// Mining parameters of the startup catalog.
    pub params: ScpmParams,
    /// Per-connection socket read timeout; bounds how long an idle or
    /// trickling keep-alive connection can pin a worker.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout; bounds how long a peer that
    /// stops draining its receive buffer can pin a worker mid-response.
    pub write_timeout: Duration,
    /// Maximum concurrently served connections (minimum 1; defaults to
    /// `threads`). A connection accepted past the cap is answered with a
    /// deterministic `503 saturated` and closed.
    pub max_connections: usize,
    /// Crash-safe persistence; `None` (the default) serves purely from
    /// memory, exactly as before.
    pub durability: Option<DurabilityConfig>,
}

impl ServeConfig {
    /// Loopback ephemeral-port configuration with `threads` workers.
    pub fn new(params: ScpmParams, threads: usize) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: threads.max(1),
            mine_threads: threads.max(1),
            split_depth: DEFAULT_SPLIT_DEPTH,
            params,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_connections: threads.max(1),
            durability: None,
        }
    }

    /// Sets the bind address, builder style.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the socket read timeout, builder style.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the socket write timeout, builder style.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Sets the concurrent-connection cap (clamped to at least 1),
    /// builder style.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Sets the re-mine scheduler thread count, builder style.
    pub fn with_mine_threads(mut self, mine_threads: usize) -> Self {
        self.mine_threads = mine_threads.max(1);
        self
    }

    /// Enables crash-safe persistence, builder style.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}

/// The durable side of one serving process: the data directory, the
/// fault injector shared with every durability operation, and the live
/// journal writer. All mutation happens under [`DurableState::inner`]
/// (and, for updates, additionally under the mine lock).
struct DurableState {
    dir: DataDir,
    injector: FaultInjector,
    checkpoint_every: u64,
    inner: Mutex<DurableInner>,
}

/// Journal position of the durable state.
struct DurableInner {
    /// The live journal; `POST /update` appends here *before* swapping
    /// the in-memory state (write-ahead discipline).
    journal: JournalWriter,
    /// Cumulative count of journaled deltas — the store generation
    /// (distinct from the HTTP catalog generation, which also counts
    /// re-mines).
    generation: u64,
    /// Store generation of the newest committed checkpoint.
    last_checkpoint: u64,
}

/// Shared server state.
struct ServerState {
    /// The graph-version swap slot: graph, `exp(σ)` cache and the memo
    /// of the mine behind the current catalog, swapped as one `Arc` so
    /// handlers and updates always see a consistent triple.
    mining: RwLock<Arc<MiningState>>,
    /// The listener's bound address (used for the shutdown self-poke).
    addr: SocketAddr,
    /// The swap slot: handlers clone the `Arc` under the read lock and
    /// answer from the snapshot.
    catalog: RwLock<Arc<PatternCatalog>>,
    /// Serializes re-mines and updates (concurrent `POST /mine` and
    /// `POST /update` requests queue here).
    mine_lock: Mutex<()>,
    /// Next generation number to assign.
    next_generation: AtomicU64,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    remines: AtomicU64,
    updates: AtomicU64,
    /// Connections currently being served (the `max_connections` gauge).
    active: AtomicUsize,
    max_connections: usize,
    mine_threads: usize,
    split_depth: usize,
    http_threads: usize,
    /// Crash-safe persistence; `None` = purely in-memory serving.
    durable: Option<DurableState>,
}

impl ServerState {
    fn mine_config(&self) -> ParallelConfig {
        ParallelConfig::new(self.mine_threads).with_split_depth(self.split_depth)
    }

    fn current(&self) -> Arc<PatternCatalog> {
        Arc::clone(&self.catalog.read())
    }

    fn current_mining(&self) -> Arc<MiningState> {
        Arc::clone(&self.mining.read())
    }
}

/// A running server: its bound address plus the worker pool.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

/// What [`Server::open`] recovered from the data directory, for
/// operator-facing logging.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Store generation the catalog recovered to (snapshot + replayed
    /// journal deltas).
    pub generation: u64,
    /// Generation of the snapshot recovery started from.
    pub checkpoint_generation: u64,
    /// Journaled deltas replayed past the snapshot.
    pub replayed_deltas: usize,
    /// Whether the persisted memo was replayed (`false` = a recording
    /// mine ran instead).
    pub memo_replayed: bool,
    /// Why the memo was not replayed, when it was not.
    pub memo_note: Option<String>,
    /// Snapshot generations skipped as corrupt (non-zero = fell back).
    pub snapshots_skipped: usize,
    /// Bytes truncated off a torn journal tail, if any.
    pub torn_bytes_dropped: Option<u64>,
}

impl Server {
    /// Binds, mines the generation-0 catalog, and spawns the worker pool.
    ///
    /// With [`ServeConfig::durability`] set, the data directory is seeded
    /// with a generation-0 checkpoint of `graph`; it must not already be
    /// initialized (recover an existing directory with [`Server::open`]).
    ///
    /// Fails (as an `Err`, never a panic) on bind errors or invalid
    /// parameters.
    pub fn start(graph: AttributedGraph, config: ServeConfig) -> Result<Server, String> {
        config.params.validate()?;
        // Generation 0: mine before any worker accepts, so the first
        // response already answers from a complete catalog. Recording mode
        // retains the evaluation memo `POST /update` replays from.
        let mine_config =
            ParallelConfig::new(config.mine_threads).with_split_depth(config.split_depth);
        let (mining, result, _) = MiningState::record(
            Arc::new(graph),
            Arc::new(NullModelCache::new()),
            &config.params,
            &mine_config,
        );
        let catalog = PatternCatalog::build(mining.graph(), &config.params, result, 0);

        let durable = match &config.durability {
            None => None,
            Some(dur) => {
                let dir = DataDir::open(&dur.dir)
                    .map_err(|e| format!("opening data directory {}: {e}", dur.dir.display()))?;
                if dir.is_initialized() {
                    return Err(format!(
                        "data directory {} is already initialized; recover it with Server::open \
                         instead of re-seeding",
                        dur.dir.display()
                    ));
                }
                let journal = checkpoint_with(
                    &dur.injector,
                    &dir,
                    0,
                    mining.graph(),
                    mining.memo(),
                    &config.params,
                )
                .map_err(|e| format!("seeding data directory: {e}"))?;
                Some(DurableState {
                    dir,
                    injector: dur.injector.clone(),
                    checkpoint_every: dur.checkpoint_every.max(1),
                    inner: Mutex::new(DurableInner {
                        journal,
                        generation: 0,
                        last_checkpoint: 0,
                    }),
                })
            }
        };
        boot(&config, mining, catalog, durable)
    }

    /// Recovers an initialized data directory and serves the recovered
    /// catalog: newest decodable snapshot, journal replay through the
    /// incremental path (a restart costs a memo replay, not a full
    /// search), then an immediate re-checkpoint at the recovered
    /// generation so the journal chain restarts clean.
    ///
    /// Requires [`ServeConfig::durability`]. The served catalog restarts
    /// at HTTP generation 0; the store generation continues from the
    /// journal.
    pub fn open(config: ServeConfig) -> Result<(Server, RecoveryReport), String> {
        let dur = config
            .durability
            .clone()
            .ok_or("Server::open requires a durability configuration")?;
        config.params.validate()?;
        let dir = DataDir::open(&dur.dir)
            .map_err(|e| format!("opening data directory {}: {e}", dur.dir.display()))?;
        let state = recover(&dir).map_err(|e| format!("recovering {}: {e}", dur.dir.display()))?;
        let mine_config =
            ParallelConfig::new(config.mine_threads).with_split_depth(config.split_depth);
        let recovered = replay_mine(state, &config.params, &mine_config)
            .map_err(|e| format!("replaying {}: {e}", dur.dir.display()))?;
        let report = RecoveryReport {
            generation: recovered.generation,
            checkpoint_generation: recovered.checkpoint_generation,
            replayed_deltas: recovered.replayed_deltas,
            memo_replayed: recovered.memo_replayed,
            memo_note: recovered.memo_note.clone(),
            snapshots_skipped: recovered.snapshot_errors.len(),
            torn_bytes_dropped: recovered.repaired.as_ref().map(|t| t.dropped_bytes),
        };
        // Re-checkpoint at the recovered generation: seals the replayed
        // journal, refreshes the memo under the serving parameters, and
        // prunes any fallback debris.
        let journal = checkpoint_with(
            &dur.injector,
            &dir,
            recovered.generation,
            recovered.mining.graph(),
            recovered.mining.memo(),
            &config.params,
        )
        .map_err(|e| format!("re-checkpointing after recovery: {e}"))?;
        let mining = recovered.mining;
        let catalog = PatternCatalog::build(mining.graph(), &config.params, recovered.result, 0);
        let durable = DurableState {
            dir,
            injector: dur.injector.clone(),
            checkpoint_every: dur.checkpoint_every.max(1),
            inner: Mutex::new(DurableInner {
                journal,
                generation: recovered.generation,
                last_checkpoint: recovered.generation,
            }),
        };
        let server = boot(&config, mining, catalog, Some(durable))?;
        Ok((server, report))
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current catalog snapshot (for in-process inspection).
    pub fn catalog(&self) -> Arc<PatternCatalog> {
        self.state.current()
    }

    /// Requests shutdown and wakes blocked acceptors; returns immediately.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        // One poke per worker: a connect makes its blocked accept return.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Shuts down, joins every worker, and (when durable) writes the
    /// graceful-shutdown checkpoint.
    pub fn stop(mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        final_checkpoint(&self.state);
    }

    /// Shuts down and joins every worker **without** the final
    /// checkpoint — an unclean exit, exactly what a restart after a
    /// crash recovers from. The crash-recovery harness's kill switch.
    pub fn abort(mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the server shuts down (via `POST /shutdown` or
    /// [`Server::shutdown`] from another thread) and every worker exits —
    /// the CLI's serving loop. Writes the graceful-shutdown checkpoint.
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        final_checkpoint(&self.state);
    }
}

/// Binds the listener, assembles the shared state, and spawns the worker
/// pool — the tail of both [`Server::start`] and [`Server::open`].
fn boot(
    config: &ServeConfig,
    mining: MiningState,
    catalog: PatternCatalog,
    durable: Option<DurableState>,
) -> Result<Server, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    let state = Arc::new(ServerState {
        mining: RwLock::new(Arc::new(mining)),
        addr,
        catalog: RwLock::new(Arc::new(catalog)),
        mine_lock: Mutex::new(()),
        next_generation: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        remines: AtomicU64::new(0),
        updates: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        max_connections: config.max_connections.max(1),
        mine_threads: config.mine_threads,
        split_depth: config.split_depth,
        http_threads: config.threads,
        durable,
    });

    let mut workers = Vec::with_capacity(config.threads);
    for worker_id in 0..config.threads {
        let listener = listener
            .try_clone()
            .map_err(|e| format!("cloning listener: {e}"))?;
        let state = Arc::clone(&state);
        let limits = ConnLimits {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("scpm-serve-{worker_id}"))
                .spawn(move || worker_loop(&listener, &state, limits))
                .map_err(|e| format!("spawning worker: {e}"))?,
        );
    }
    Ok(Server {
        addr,
        state,
        workers,
    })
}

/// The graceful-shutdown checkpoint: folds every journaled-but-not-yet-
/// checkpointed delta into a fresh snapshot so the next open loads it
/// directly. Best-effort — a failure leaves the journal intact, and
/// recovery replays it instead (slower, never wrong).
fn final_checkpoint(state: &ServerState) {
    let Some(d) = &state.durable else { return };
    let mut inner = d.inner.lock();
    if inner.generation == inner.last_checkpoint {
        return;
    }
    let mining = state.current_mining();
    let params = state.current().params().clone();
    if let Ok(journal) = checkpoint_with(
        &d.injector,
        &d.dir,
        inner.generation,
        mining.graph(),
        mining.memo(),
        &params,
    ) {
        inner.journal = journal;
        inner.last_checkpoint = inner.generation;
    }
}

/// Per-connection socket limits handed to each worker.
#[derive(Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    write_timeout: Duration,
}

/// One HTTP worker: accept → acquire a connection slot → serve the
/// connection → release → re-check shutdown.
fn worker_loop(listener: &TcpListener, state: &Arc<ServerState>, limits: ConnLimits) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The connection cap: admission is a single compare-and-increment
        // on the active gauge, so rejection is deterministic — the
        // (max_connections + 1)-th concurrent connection always gets the
        // 503, never a stall.
        let admitted = state
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < state.max_connections).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            state.errors.fetch_add(1, Ordering::Relaxed);
            reject_saturated(state, stream, limits);
            continue;
        }
        // A handler panic must not take down the accept loop: the
        // connection is abandoned, the panic contained, and the worker
        // moves on to the next accept.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(state, stream, limits);
        }));
        state.active.fetch_sub(1, Ordering::AcqRel);
        if outcome.is_err() {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Answers one over-cap connection with `503 saturated` and closes it.
fn reject_saturated(state: &Arc<ServerState>, mut stream: TcpStream, limits: ConnLimits) {
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let err = HttpError::new(
        503,
        "saturated",
        format!(
            "server is at its limit of {} concurrent connections",
            state.max_connections
        ),
    );
    let generation = state.current().generation();
    let body = envelope_error(&err, generation);
    let _ = write_response(&mut stream, err.status, &body, true);
    // Drain the request the client already sent before closing: closing
    // with unread bytes in the receive buffer makes TCP reset the
    // connection, which can discard the in-flight 503 before the client
    // reads it. The drain is bounded so a trickling client cannot park
    // the worker here.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(limits.read_timeout.min(Duration::from_millis(200))));
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serves one connection: a keep-alive loop of request → response.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream, limits: ConnLimits) {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Disconnected) => return,
            Err(err) => {
                // Framing is unrecoverable after a parse error: answer
                // (best-effort) and close.
                state.errors.fetch_add(1, Ordering::Relaxed);
                let generation = state.current().generation();
                let body = envelope_error(&err, generation);
                let _ = write_response(&mut writer, err.status, &body, true);
                return;
            }
            Ok(ReadOutcome::Request(request)) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                let close = request.close;
                let (status, body) = respond(state, &request);
                if status >= 400 {
                    state.errors.fetch_add(1, Ordering::Relaxed);
                }
                if write_response(&mut writer, status, &body, close).is_err() {
                    return;
                }
                if close || state.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Routes one request into `(status, body)`.
fn respond(state: &Arc<ServerState>, request: &Request) -> (u16, String) {
    match route(state, request) {
        Ok((result, generation)) => (200, envelope_ok(&result, generation)),
        Err(err) => {
            let generation = state.current().generation();
            (err.status, envelope_error(&err, generation))
        }
    }
}

/// The uniform success envelope: `{"result":…,"error":null,"generation":N}`.
fn envelope_ok(result: &Json, generation: u64) -> String {
    Json::Obj(vec![
        ("result".into(), result.clone()),
        ("error".into(), Json::Null),
        ("generation".into(), Json::Int(generation)),
    ])
    .render()
}

/// The uniform error envelope:
/// `{"result":null,"error":{"code":…,"message":…},"generation":N}`.
fn envelope_error(err: &HttpError, generation: u64) -> String {
    Json::Obj(vec![
        ("result".into(), Json::Null),
        (
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::str(err.code)),
                ("message".into(), Json::str(err.message.clone())),
            ]),
        ),
        ("generation".into(), Json::Int(generation)),
    ])
    .render()
}

/// Parses a required query parameter through `parse`.
fn query_number<T: std::str::FromStr>(request: &Request, key: &str) -> Result<T, HttpError> {
    let raw = request
        .query_param(key)
        .ok_or_else(|| HttpError::invalid_parameter(format!("missing `{key}` parameter")))?;
    raw.parse()
        .map_err(|_| HttpError::invalid_parameter(format!("invalid `{key}` value `{raw}`")))
}

/// Dispatches one request; `Ok` carries the result payload and the
/// generation it was answered from.
fn route(state: &Arc<ServerState>, request: &Request) -> Result<(Json, u64), HttpError> {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/health") => {
            let catalog = state.current();
            Ok((
                Json::Obj(vec![("status".into(), Json::str("ok"))]),
                catalog.generation(),
            ))
        }
        ("GET", "/stats") => {
            let catalog = state.current();
            let cache = Arc::clone(state.current_mining().cache());
            let stats = Json::Obj(vec![
                (
                    "server".into(),
                    Json::Obj(vec![
                        ("threads".into(), Json::Int(state.http_threads as u64)),
                        (
                            "requests".into(),
                            Json::Int(state.requests.load(Ordering::Relaxed)),
                        ),
                        (
                            "errors".into(),
                            Json::Int(state.errors.load(Ordering::Relaxed)),
                        ),
                        (
                            "remines".into(),
                            Json::Int(state.remines.load(Ordering::Relaxed)),
                        ),
                        (
                            "updates".into(),
                            Json::Int(state.updates.load(Ordering::Relaxed)),
                        ),
                    ]),
                ),
                ("catalog".into(), catalog.summary_json()),
                ("mining".into(), catalog.stats_json()),
                (
                    "null_model_cache".into(),
                    Json::Obj(vec![
                        ("entries".into(), Json::Int(cache.len() as u64)),
                        ("hits".into(), Json::Int(cache.hits())),
                        ("misses".into(), Json::Int(cache.misses())),
                    ]),
                ),
                (
                    "durability".into(),
                    match &state.durable {
                        None => Json::Null,
                        Some(d) => {
                            let inner = d.inner.lock();
                            Json::Obj(vec![
                                ("generation".into(), Json::Int(inner.generation)),
                                ("last_checkpoint".into(), Json::Int(inner.last_checkpoint)),
                                ("checkpoint_every".into(), Json::Int(d.checkpoint_every)),
                            ])
                        }
                    },
                ),
            ]);
            Ok((stats, catalog.generation()))
        }
        ("GET", "/catalog") => {
            let catalog = state.current();
            Ok((catalog.full_json(), catalog.generation()))
        }
        ("GET", "/patterns") => {
            let attrs = request
                .query_param("attrs")
                .ok_or_else(|| HttpError::invalid_parameter("missing `attrs` parameter"))?;
            let catalog = state.current();
            Ok((catalog.query_attrs(attrs)?, catalog.generation()))
        }
        ("GET", "/patterns/covering") => {
            let v: u32 = query_number(request, "v")?;
            let catalog = state.current();
            Ok((catalog.query_covering(v)?, catalog.generation()))
        }
        ("GET", "/reports") => {
            let delta_min: f64 = query_number(request, "delta_min")?;
            let catalog = state.current();
            Ok((catalog.query_delta(delta_min)?, catalog.generation()))
        }
        ("GET", "/top") => {
            let by = TopBy::parse(request.query_param("by").unwrap_or("delta"))?;
            let k = match request.query_param("k") {
                None => 10,
                Some(raw) => raw.parse().map_err(|_| {
                    HttpError::invalid_parameter(format!("invalid `k` value `{raw}`"))
                })?,
            };
            let catalog = state.current();
            Ok((catalog.query_top(by, k)?, catalog.generation()))
        }
        ("POST", "/mine") => remine(state, request),
        ("POST", "/update") => update(state, request),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            // Wake sibling acceptors (this worker returns after writing
            // the response).
            for _ in 0..state.http_threads {
                let _ = TcpStream::connect(state.addr);
            }
            let catalog = state.current();
            Ok((
                Json::Obj(vec![("status".into(), Json::str("shutting down"))]),
                catalog.generation(),
            ))
        }
        // Known paths with the wrong method get a 405 so conformance
        // clients can tell "wrong verb" from "no such endpoint".
        (
            _,
            "/health" | "/stats" | "/catalog" | "/patterns" | "/patterns/covering" | "/reports"
            | "/top",
        ) => Err(HttpError::new(
            405,
            "method_not_allowed",
            format!("{method} is not supported on {path} (use GET)"),
        )),
        (_, "/mine" | "/update" | "/shutdown") => Err(HttpError::new(
            405,
            "method_not_allowed",
            format!("{method} is not supported on {path} (use POST)"),
        )),
        _ => Err(HttpError::new(
            404,
            "not_found",
            format!("unknown endpoint `{path}`"),
        )),
    }
}

/// `POST /mine`: overlay the body's parameters on the current catalog's,
/// validate, re-mine, and swap.
fn remine(state: &Arc<ServerState>, request: &Request) -> Result<(Json, u64), HttpError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::bad_request("body is not valid UTF-8"))?;
    let body = if text.trim().is_empty() {
        Json::Obj(Vec::new())
    } else {
        Json::parse(text).map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?
    };
    if !matches!(body, Json::Obj(_)) {
        return Err(HttpError::bad_request("body must be a JSON object"));
    }

    // Serialize re-mines; concurrent POST /mine requests queue here.
    let _guard = state.mine_lock.lock();
    let base = state.current();
    let mining = state.current_mining();
    let params = params_from_body(base.params(), &body)?;
    let generation = state.next_generation.fetch_add(1, Ordering::AcqRel);
    // Same graph version: keep graph and exp(σ) cache, refresh the memo
    // (it is recorded under the new catalog's parameters).
    let (next, result, _) = MiningState::record(
        Arc::clone(mining.graph()),
        Arc::clone(mining.cache()),
        &params,
        &state.mine_config(),
    );
    let catalog = Arc::new(PatternCatalog::build(
        next.graph(),
        &params,
        result,
        generation,
    ));
    let summary = catalog.summary_json();
    *state.mining.write() = Arc::new(next);
    *state.catalog.write() = catalog;
    state.remines.fetch_add(1, Ordering::Relaxed);
    Ok((summary, generation))
}

/// `POST /update`: apply an insert-only graph delta
/// (`{"add_vertices":N,"edges":[[u,v],…],"attrs":[[v,"name"],…]}`, every
/// key optional, applied in that order) and incrementally re-mine under
/// the current catalog's parameters. The new catalog is byte-identical to
/// a from-scratch mine of the updated graph; the response reports the
/// delta's novel effects, the dirty region, and the replay counters.
fn update(state: &Arc<ServerState>, request: &Request) -> Result<(Json, u64), HttpError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::bad_request("body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(HttpError::bad_request("body must be a JSON object"));
    }
    let body =
        Json::parse(text).map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
    let delta = delta_from_body(&body)?;

    // Serialize with re-mines: both swap the catalog, and an update also
    // swaps the graph version.
    let _guard = state.mine_lock.lock();
    let base = state.current();
    let mining = state.current_mining();
    let applied = delta
        .apply(mining.graph())
        .map_err(|e| HttpError::invalid_parameter(format!("delta does not apply: {e}")))?;

    // Write-ahead commit point: the delta is journaled before any
    // in-memory state changes. A failed append rolls the journal back
    // and rejects the update — memory and disk always agree on which
    // deltas are committed.
    let journaled_seq = match &state.durable {
        None => None,
        Some(d) => {
            let mut inner = d.inner.lock();
            let seq = inner.journal.append(&delta).map_err(|e| {
                HttpError::new(
                    500,
                    "durability",
                    format!("journaling the delta failed: {e}"),
                )
            })?;
            inner.generation = seq;
            Some(seq)
        }
    };

    let dirty = DirtySet::from_delta(&applied.graph, &applied);
    let dirty_attrs = dirty.dirty_attr_ids().len();
    let dirty_caps = dirty.num_edge_caps();
    let added_vertices = applied.added_vertices;
    let novel_edges = applied.novel_edges.len();
    let novel_attrs = applied.novel_attrs.len();

    let params = base.params().clone();
    let (next, result, incr) = MiningState::update(
        Arc::clone(mining.memo()),
        Arc::new(applied.graph),
        dirty,
        &params,
        &state.mine_config(),
    );
    let next = Arc::new(next);

    let generation = state.next_generation.fetch_add(1, Ordering::AcqRel);
    let catalog = Arc::new(PatternCatalog::build(
        next.graph(),
        &params,
        result,
        generation,
    ));
    let summary = catalog.summary_json();
    *state.mining.write() = Arc::clone(&next);
    *state.catalog.write() = catalog;
    state.updates.fetch_add(1, Ordering::Relaxed);

    // Periodic checkpoint: fold the journal into a fresh snapshot every
    // `checkpoint_every` deltas. Best-effort — the update is already
    // committed to the journal, so a failed checkpoint only means a
    // wider dirty region on the next open (reported, never silent).
    let mut durability = Vec::new();
    if let (Some(d), Some(seq)) = (&state.durable, journaled_seq) {
        durability.push(("journaled_seq".into(), Json::Int(seq)));
        let mut inner = d.inner.lock();
        let status = if inner.generation - inner.last_checkpoint >= d.checkpoint_every {
            match checkpoint_with(
                &d.injector,
                &d.dir,
                inner.generation,
                next.graph(),
                next.memo(),
                &params,
            ) {
                Ok(journal) => {
                    inner.journal = journal;
                    inner.last_checkpoint = inner.generation;
                    Json::str("written")
                }
                Err(e) => Json::str(format!("failed: {e}")),
            }
        } else {
            Json::str("deferred")
        };
        durability.push(("checkpoint".into(), status));
    }

    let mut fields = vec![
        (
            "applied".into(),
            Json::Obj(vec![
                ("added_vertices".into(), Json::Int(added_vertices as u64)),
                ("novel_edges".into(), Json::Int(novel_edges as u64)),
                ("novel_attrs".into(), Json::Int(novel_attrs as u64)),
            ]),
        ),
        (
            "dirty".into(),
            Json::Obj(vec![
                ("attrs".into(), Json::Int(dirty_attrs as u64)),
                ("edge_caps".into(), Json::Int(dirty_caps as u64)),
            ]),
        ),
        (
            "incremental".into(),
            Json::Obj(vec![
                ("reused".into(), Json::Int(incr.reused)),
                ("reevaluated".into(), Json::Int(incr.reevaluated)),
                (
                    "reused_kernel_ops".into(),
                    Json::Int(incr.reused_kernel_ops),
                ),
                ("live_kernel_ops".into(), Json::Int(incr.live_kernel_ops)),
            ]),
        ),
        ("catalog".into(), summary),
    ];
    if !durability.is_empty() {
        fields.push(("durability".into(), Json::Obj(durability)));
    }
    Ok((Json::Obj(fields), generation))
}

/// Parses a `POST /update` body into a [`GraphDelta`]. Unknown keys are
/// rejected so typos fail loudly instead of silently applying an empty
/// delta.
fn delta_from_body(body: &Json) -> Result<GraphDelta, HttpError> {
    if !matches!(body, Json::Obj(_)) {
        return Err(HttpError::bad_request("body must be a JSON object"));
    }
    const KNOWN: &[&str] = &["add_vertices", "edges", "attrs"];
    for key in body.keys() {
        if !KNOWN.contains(&key) {
            return Err(HttpError::invalid_parameter(format!(
                "unknown key `{key}` (want one of {})",
                KNOWN.join(", ")
            )));
        }
    }
    let mut ops = Vec::new();
    if let Some(v) = body.get("add_vertices") {
        let n = v.as_u64().ok_or_else(|| {
            HttpError::invalid_parameter("`add_vertices` must be a non-negative integer")
        })?;
        let n = usize::try_from(n)
            .map_err(|_| HttpError::invalid_parameter("`add_vertices` is too large"))?;
        if n > 0 {
            ops.push(DeltaOp::AddVertices(n));
        }
    }
    if let Some(edges) = body.get("edges") {
        let edges = edges
            .as_array()
            .ok_or_else(|| HttpError::invalid_parameter("`edges` must be an array of [u, v]"))?;
        for edge in edges {
            let pair = edge.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                HttpError::invalid_parameter("each edge must be a [u, v] pair of vertex ids")
            })?;
            let u = vertex_id(&pair[0], "edge endpoint")?;
            let v = vertex_id(&pair[1], "edge endpoint")?;
            ops.push(DeltaOp::AddEdge(u, v));
        }
    }
    if let Some(attrs) = body.get("attrs") {
        let attrs = attrs.as_array().ok_or_else(|| {
            HttpError::invalid_parameter("`attrs` must be an array of [v, \"name\"]")
        })?;
        for attr in attrs {
            let pair = attr.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                HttpError::invalid_parameter("each attr must be a [v, \"name\"] pair")
            })?;
            let v = vertex_id(&pair[0], "attr vertex")?;
            let name = pair[1]
                .as_str()
                .ok_or_else(|| HttpError::invalid_parameter("attribute name must be a string"))?;
            if name.is_empty() || name.chars().any(char::is_whitespace) {
                return Err(HttpError::invalid_parameter(
                    "attribute name must be non-empty and whitespace-free",
                ));
            }
            ops.push(DeltaOp::AddAttr(v, name.to_string()));
        }
    }
    Ok(GraphDelta { ops })
}

/// Parses one JSON value as a vertex id.
fn vertex_id(value: &Json, what: &str) -> Result<u32, HttpError> {
    value
        .as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| HttpError::invalid_parameter(format!("{what} must be a vertex id")))
}

/// Overlays a `POST /mine` body on `base`, validating every field.
/// Unknown keys are rejected so typos fail loudly instead of silently
/// re-mining with unchanged parameters.
fn params_from_body(base: &ScpmParams, body: &Json) -> Result<ScpmParams, HttpError> {
    const KNOWN: &[&str] = &[
        "sigma_min",
        "gamma",
        "min_size",
        "eps_min",
        "delta_min",
        "top_k",
        "min_attrs",
        "max_attrs",
    ];
    for key in body.keys() {
        if !KNOWN.contains(&key) {
            return Err(HttpError::invalid_parameter(format!(
                "unknown parameter `{key}` (want one of {})",
                KNOWN.join(", ")
            )));
        }
    }
    let get_usize = |key: &str, default: usize| -> Result<usize, HttpError> {
        match body.get(key) {
            None => Ok(default),
            Some(v) => {
                let n = v.as_u64().ok_or_else(|| {
                    HttpError::invalid_parameter(format!("`{key}` must be a non-negative integer"))
                })?;
                Ok(usize::try_from(n).unwrap_or(usize::MAX))
            }
        }
    };
    let get_f64 = |key: &str, default: f64| -> Result<f64, HttpError> {
        match body.get(key) {
            None => Ok(default),
            Some(v) => v.as_f64().filter(|x| x.is_finite()).ok_or_else(|| {
                HttpError::invalid_parameter(format!("`{key}` must be a finite number"))
            }),
        }
    };

    let mut params = base.clone();
    params.sigma_min = get_usize("sigma_min", base.sigma_min)?;
    params.quasi_clique.min_size = get_usize("min_size", base.quasi_clique.min_size)?;
    params.k = get_usize("top_k", base.k)?;
    params.min_attrs = get_usize("min_attrs", base.min_attrs)?;
    params.max_attrs = get_usize("max_attrs", base.max_attrs)?;
    params.quasi_clique.gamma = get_f64("gamma", base.quasi_clique.gamma)?;
    params.eps_min = get_f64("eps_min", base.eps_min)?;
    params.delta_min = get_f64("delta_min", base.delta_min)?;
    params.validate().map_err(HttpError::invalid_parameter)?;
    Ok(params)
}
