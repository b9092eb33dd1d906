//! Work-stealing parallel SCPM driver.
//!
//! The branches of Algorithm 3 rooted at different level-1 attributes are
//! independent, but they are wildly *unbalanced*: a DBLP-style hub
//! attribute (`data`, `system`, …) owns most of the lattice below it, so a
//! driver that only distributes level-1 branches serializes on whichever
//! worker drew the hub. This module instead schedules **subtrees**:
//!
//! 1. Level-1 attribute sets are evaluated on the calling thread (their
//!    reports come first in the output, exactly as in [`Scpm::run`]).
//! 2. A branch shallower than [`ParallelConfig::split_depth`] is *split*
//!    down to single ε evaluations: every `base ∪ {sibling}` extension
//!    becomes its own stealable task, and a per-branch join assembles the
//!    surviving child class (in sibling order) once the last evaluation
//!    lands, then spawns the child branches. Even one hub attribute's
//!    extension loop — the dominant cost on skewed graphs — is therefore
//!    spread over all workers.
//! 3. Branches at or below the split depth run as one recursive task each
//!    (task bookkeeping is wasted on the lattice's thin tail).
//!
//! Tasks start in a shared [`crossbeam::deque::Injector`]; workers push
//! follow-on tasks to per-worker LIFO deques and steal FIFO from each
//! other when idle.
//!
//! **Determinism.** Every task result is tagged with a *lattice key*
//! derived from its position in the enumeration tree: a branch with key
//! `P` stores the report of its `j`-th sibling evaluation under
//! `P ++ [0, j]` and its `b`-th child branch under `P ++ [1, b]`. Those
//! keys sort (lexicographically) exactly like the serial depth-first
//! traversal — all of a branch's evaluations precede all of its
//! descendants' — so sorting the per-task results by key and concatenating
//! reconstructs [`Scpm::run`]'s output bit-for-bit, no matter which worker
//! ran what when. The scheduler's only observable effect is wall-clock
//! time.
//!
//! Workers share one [`Scpm`] (hence one [`crate::NullModelCache`] —
//! `exp(σ)` is computed once per support globally) and each owns one
//! [`crate::CorrelationEngine`], whose quasi-clique scratch buffers are
//! recycled across all tasks the worker executes.
//!
//! `docs/PARALLELISM.md` covers the design, the determinism argument, and
//! tuning guidance in detail.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::Mutex;

use scpm_graph::attributed::AttributedGraph;

use crate::algorithm::{EnumEntry, Scpm};
use crate::params::ScpmParams;
use crate::pattern::ScpmResult;

/// Default [`ParallelConfig::split_depth`]: splitting the top two lattice
/// levels exposes `O(branches²)` stealable tasks, enough to feed any
/// realistic worker count, while deeper subtrees stay recursive (task
/// bookkeeping is wasted on leaves).
pub const DEFAULT_SPLIT_DEPTH: usize = 2;

/// Tuning knobs of the work-stealing driver.
///
/// ```
/// use scpm_core::{run_parallel_with, ParallelConfig, Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
/// let serial = Scpm::new(&g, params.clone()).run();
/// let config = ParallelConfig::new(4).with_split_depth(1);
/// let parallel = run_parallel_with(&g, params, &config);
/// assert_eq!(serial.reports, parallel.reports);
/// assert_eq!(serial.patterns, parallel.patterns);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Requested worker count. The driver clamps this to the number of
    /// tasks the run can actually produce (see [`run_parallel_with`]);
    /// `0` or `1` selects the serial path.
    pub threads: usize,
    /// Lattice depth down to which branches are split into stealable
    /// tasks. `0` reproduces branch-level scheduling (one task per level-1
    /// attribute); each further level multiplies the available tasks and
    /// shrinks the largest indivisible unit of work.
    pub split_depth: usize,
}

impl ParallelConfig {
    /// A configuration with `threads` workers and the default split depth.
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads,
            split_depth: DEFAULT_SPLIT_DEPTH,
        }
    }

    /// Sets the split depth, builder style.
    pub fn with_split_depth(mut self, split_depth: usize) -> Self {
        self.split_depth = split_depth;
        self
    }
}

impl Default for ParallelConfig {
    /// All available hardware threads, default split depth.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// A schedulable unit of lattice work.
enum Task {
    /// Run branch `branch` of `class` recursively to completion (used at
    /// and below the split depth). `key` is the branch's lattice key.
    Subtree {
        key: Vec<u32>,
        class: Arc<Vec<EnumEntry>>,
        branch: usize,
    },
    /// Evaluate the single extension `class[branch] ∪ {class[sibling]}` of
    /// a splitting branch (above the split depth).
    Extend {
        join: Arc<BranchJoin>,
        sibling: usize,
    },
}

/// Join state of one splitting branch: collects the surviving child
/// entries of its sibling evaluations; the evaluation that finishes last
/// assembles the child class and spawns the child branches.
struct BranchJoin {
    /// Lattice key of the branch.
    key: Vec<u32>,
    /// Lattice depth of the branch (level-1 branches are depth 0).
    depth: usize,
    class: Arc<Vec<EnumEntry>>,
    branch: usize,
    /// Sibling evaluations still outstanding.
    remaining: AtomicUsize,
    /// `(sibling index, child entry)` pairs of successful extensions.
    survivors: Mutex<Vec<(usize, EnumEntry)>>,
}

/// Queues branch `branch` of `class` (at lattice key `key`, depth `depth`)
/// as either one recursive task or a fan of per-sibling evaluation tasks,
/// bumping `pending` once per queued task. A branch with no later siblings
/// does nothing — exactly like the serial extension loop.
fn spawn_branch(
    key: Vec<u32>,
    depth: usize,
    class: Arc<Vec<EnumEntry>>,
    branch: usize,
    split_depth: usize,
    pending: &AtomicUsize,
    push: &mut impl FnMut(Task),
) {
    if branch + 1 >= class.len() {
        return;
    }
    if depth >= split_depth {
        pending.fetch_add(1, Ordering::AcqRel);
        push(Task::Subtree { key, class, branch });
        return;
    }
    let siblings = class.len() - branch - 1;
    let join = Arc::new(BranchJoin {
        key,
        depth,
        branch,
        remaining: AtomicUsize::new(siblings),
        survivors: Mutex::new(Vec::new()),
        class,
    });
    for sibling in (join.branch + 1)..join.class.len() {
        pending.fetch_add(1, Ordering::AcqRel);
        push(Task::Extend {
            join: Arc::clone(&join),
            sibling,
        });
    }
}

/// The work one scheduler task performed, for load-balance diagnostics
/// (see [`run_parallel_traced`]).
#[derive(Clone, Debug)]
pub struct SubtreeTrace {
    /// Lattice path of the task (branch indices from the root).
    pub path: Vec<u32>,
    /// The task's counters; `qc_nodes_coverage + qc_nodes_topk` is a
    /// hardware-independent proxy for the task's compute cost.
    pub stats: crate::pattern::ScpmStats,
}

impl SubtreeTrace {
    /// Search-node work proxy of this task (coverage + top-k nodes, plus
    /// one unit per evaluated attribute set so empty subtrees still have
    /// nonzero cost).
    pub fn work(&self) -> u64 {
        self.stats.qc_nodes_coverage + self.stats.qc_nodes_topk + self.stats.attribute_sets_examined
    }
}

/// Number of *immediately available* tasks for a run with `branches`
/// level-1 branches: one recursive task per branch at `split_depth = 0`,
/// or one evaluation task per level-1 `{i, j}` pair when splitting. Used
/// to clamp the worker count — workers beyond this bound would start with
/// nothing to do (splitting can create more tasks later, but never before
/// these complete).
fn parallel_task_bound(branches: usize, split_depth: usize) -> usize {
    if split_depth == 0 {
        branches
    } else {
        branches.saturating_mul(branches.saturating_sub(1)) / 2
    }
}

/// Runs SCPM with `num_threads` workers and the default split depth.
///
/// Output (reports, patterns, counters) is bit-identical to [`Scpm::run`]
/// at every thread count; only the wall-clock `elapsed` differs.
///
/// ```
/// use scpm_core::{run_parallel, Scpm, ScpmParams};
/// use scpm_graph::figure1::figure1;
///
/// let g = figure1();
/// let params = ScpmParams::new(3, 0.6, 4).with_eps_min(0.5);
/// let serial = Scpm::new(&g, params.clone()).run();
/// let parallel = run_parallel(&g, params, 4);
/// assert_eq!(serial.reports, parallel.reports);
/// assert_eq!(serial.patterns, parallel.patterns);
/// ```
pub fn run_parallel(graph: &AttributedGraph, params: ScpmParams, num_threads: usize) -> ScpmResult {
    run_parallel_with(graph, params, &ParallelConfig::new(num_threads))
}

/// Runs SCPM under an explicit [`ParallelConfig`].
///
/// The worker count is clamped to the number of immediately available
/// tasks — e.g. a run
/// whose level 1 has three surviving branches and `split_depth = 0` spawns
/// at most three workers regardless of `config.threads`, and a run with no
/// extensible level-1 sets spawns none. Requesting `threads ≤ 1` (or a
/// clamp down to ≤ 1) falls back to the serial path.
pub fn run_parallel_with(
    graph: &AttributedGraph,
    params: ScpmParams,
    config: &ParallelConfig,
) -> ScpmResult {
    Scpm::new(graph, params).run_scheduled(config)
}

/// Like [`run_parallel_with`], but also returns one [`SubtreeTrace`] per
/// scheduler task, in lattice order. The trace is the run's exact work
/// decomposition — `crates/bench`'s `exp_speedup` uses it to model the
/// load balance of a scheduling strategy independently of the machine the
/// trace was recorded on. Empty when the run fell back to the serial path
/// (thread count or worker clamp ≤ 1).
pub fn run_parallel_traced(
    graph: &AttributedGraph,
    params: ScpmParams,
    config: &ParallelConfig,
) -> (ScpmResult, Vec<SubtreeTrace>) {
    run_scheduler(&Scpm::new(graph, params), config)
}

impl<'g> Scpm<'g> {
    /// Runs this miner under the work-stealing scheduler (the method form
    /// of [`run_parallel_with`], for callers that pre-build the [`Scpm`] —
    /// e.g. to inject a shared [`crate::NullModelCache`] via
    /// [`Scpm::with_cache`] across a parameter sweep).
    pub fn run_scheduled(&self, config: &ParallelConfig) -> ScpmResult {
        run_scheduler(self, config).0
    }
}

/// The scheduler proper (see the module docs for the design).
fn run_scheduler(scpm: &Scpm<'_>, config: &ParallelConfig) -> (ScpmResult, Vec<SubtreeTrace>) {
    if config.threads <= 1 {
        return (scpm.run(), Vec::new());
    }
    let start = Instant::now();
    let mut result = ScpmResult::default();
    let level1 = {
        let engine = scpm.engine();
        scpm.level1_entries(&engine, &mut result)
    };
    let split_depth = config.split_depth;
    let workers = config
        .threads
        .min(parallel_task_bound(level1.len(), split_depth));
    if workers <= 1 {
        // Not enough branches to distribute: finish on this thread.
        let engine = scpm.engine();
        scpm.enumerate_class(&engine, &level1, &mut result);
        result.stats.elapsed = start.elapsed();
        return (result, Vec::new());
    }

    // Seed the injector with the level-1 branches (fanned out to one task
    // per attribute pair when splitting is on).
    let class = Arc::new(level1);
    let injector: Injector<Task> = Injector::new();
    let pending = AtomicUsize::new(0);
    for branch in 0..class.len() {
        spawn_branch(
            vec![branch as u32],
            0,
            Arc::clone(&class),
            branch,
            split_depth,
            &pending,
            &mut |task| injector.push(task),
        );
    }

    let queues: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = queues.iter().map(Worker::stealer).collect();
    // (lattice key, task-local result) per completed task.
    let parts: Mutex<Vec<(Vec<u32>, ScpmResult)>> = Mutex::new(Vec::new());

    crossbeam::scope(|scope| {
        for (wid, own) in queues.into_iter().enumerate() {
            let scpm = &scpm;
            let injector = &injector;
            let stealers = &stealers;
            let pending = &pending;
            let parts = &parts;
            scope.spawn(move |_| {
                // One engine per worker: its quasi-clique scratch buffers
                // are reused by every task this worker executes.
                let engine = scpm.engine();
                let mut cover_buf = Vec::new();
                let mut idle_polls = 0u32;
                loop {
                    let task = own
                        .pop()
                        .or_else(|| injector.steal().success())
                        .or_else(|| steal_from_peers(stealers, wid));
                    let Some(task) = task else {
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Back off after a burst of empty polls so a long
                        // serial tail (one worker grinding a subtree) does
                        // not spin the idle workers at 100% CPU. 100 µs is
                        // noise next to any ε evaluation.
                        idle_polls += 1;
                        if idle_polls < 64 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                        continue;
                    };
                    idle_polls = 0;
                    // Decremented on every exit path (unwind included) —
                    // but only after this iteration registered any
                    // follow-on tasks, so `pending == 0` still means "no
                    // task exists or can ever be created".
                    let _task_done = PendingGuard(pending);
                    let mut local = ScpmResult::default();
                    match task {
                        Task::Subtree { key, class, branch } => {
                            scpm.enumerate_branch(&engine, &class, branch, &mut local);
                            parts.lock().push((key, local));
                        }
                        Task::Extend { join, sibling } => {
                            if let Some(entry) = scpm.extend_pair(
                                &engine,
                                &join.class,
                                join.branch,
                                sibling,
                                &mut cover_buf,
                                &mut local,
                            ) {
                                join.survivors.lock().push((sibling, entry));
                            }
                            let mut key = join.key.clone();
                            key.extend([0, sibling as u32]);
                            parts.lock().push((key, local));
                            if join.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                // Last sibling evaluation of this branch:
                                // assemble the child class in sibling order
                                // and spawn the child branches.
                                let mut survivors = std::mem::take(&mut *join.survivors.lock());
                                survivors.sort_unstable_by_key(|&(j, _)| j);
                                let next: Vec<EnumEntry> =
                                    survivors.into_iter().map(|(_, e)| e).collect();
                                if !next.is_empty() {
                                    let child_class = Arc::new(next);
                                    for branch in 0..child_class.len() {
                                        let mut key = join.key.clone();
                                        key.extend([1, branch as u32]);
                                        spawn_branch(
                                            key,
                                            join.depth + 1,
                                            Arc::clone(&child_class),
                                            branch,
                                            split_depth,
                                            pending,
                                            &mut |task| own.push(task),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("scpm worker panicked");

    // Deterministic merge: lattice paths order the per-task results exactly
    // like the serial depth-first traversal (a parent's path is a strict
    // prefix of — hence sorts before — all of its descendants').
    let mut parts = parts.into_inner();
    parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut traces = Vec::with_capacity(parts.len());
    for (path, part) in parts {
        traces.push(SubtreeTrace {
            path,
            stats: part.stats,
        });
        result.reports.extend(part.reports);
        result.patterns.extend(part.patterns);
        result.stats.merge(&part.stats);
    }
    result.stats.elapsed = start.elapsed();
    (result, traces)
}

/// Decrements the pending-task counter when dropped — *also* during a
/// panic unwind, so a crashing worker cannot strand the others in their
/// idle loop (they drain the remaining tasks and exit; the panic then
/// propagates through the scope join).
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One round-robin steal attempt over the other workers' deques.
fn steal_from_peers(stealers: &[Stealer<Task>], wid: usize) -> Option<Task> {
    let n = stealers.len();
    for k in 1..n {
        if let Some(task) = stealers[(wid + k) % n].steal().success() {
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::figure1::figure1;

    type ReportRows = Vec<(Vec<u32>, usize, bool)>;
    type PatternRows = Vec<(Vec<u32>, Vec<u32>)>;

    fn comparable(r: &ScpmResult) -> (ReportRows, PatternRows) {
        let reports = r
            .reports
            .iter()
            .map(|rep| (rep.attrs.clone(), rep.support, rep.qualified))
            .collect();
        let patterns = r
            .patterns
            .iter()
            .map(|p| (p.attrs.clone(), p.clique.vertices.clone()))
            .collect();
        (reports, patterns)
    }

    #[test]
    fn parallel_output_equals_serial_in_order() {
        let g = figure1();
        let params = ScpmParams::new(2, 0.6, 4).with_eps_min(0.1);
        let serial = Scpm::new(&g, params.clone()).run();
        for threads in [1, 2, 4] {
            for split_depth in [0, 1, 2, 4] {
                let config = ParallelConfig::new(threads).with_split_depth(split_depth);
                let parallel = run_parallel_with(&g, params.clone(), &config);
                assert_eq!(
                    comparable(&serial),
                    comparable(&parallel),
                    "threads = {threads}, split_depth = {split_depth}"
                );
                assert_eq!(
                    serial.stats.attribute_sets_examined,
                    parallel.stats.attribute_sets_examined
                );
            }
        }
    }

    #[test]
    fn worker_clamp_handles_degenerate_level1() {
        // σmin larger than any support: level 1 is empty, so no workers
        // should spawn and the run must still terminate with the (empty)
        // serial result.
        let g = figure1();
        let params = ScpmParams::new(100, 0.6, 4);
        let serial = Scpm::new(&g, params.clone()).run();
        let parallel = run_parallel(&g, params, 8);
        assert_eq!(comparable(&serial), comparable(&parallel));
        assert!(parallel.reports.is_empty());
    }

    #[test]
    fn task_bound_formula() {
        assert_eq!(parallel_task_bound(0, 0), 0);
        assert_eq!(parallel_task_bound(5, 0), 5);
        // Splitting: one evaluation task per level-1 pair.
        assert_eq!(parallel_task_bound(5, 1), 10);
        assert_eq!(parallel_task_bound(1, 3), 0);
        assert_eq!(parallel_task_bound(2, 3), 1);
        // Saturates instead of overflowing.
        assert_eq!(parallel_task_bound(usize::MAX, 2), usize::MAX / 2);
    }
}
