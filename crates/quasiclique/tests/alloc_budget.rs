//! Allocation budget of a warm search: once an [`EngineScratch`] has served
//! one search, a second identical `Miner::run_with` on it allocates only per
//! run (the reduced graph, the witness and peel outputs, the results),
//! never per search node. A counting global allocator checks that the warm
//! run stays at or below 0.5 allocations per visited node, in coverage and
//! top-k mode, in both orders and both representations. The engine's free
//! lists keep at most 4 MiB, so a breadth-first frontier wider than that
//! allocates its excess by design; this graph's frontiers stay below it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scpm_graph::builder::GraphBuilder;
use scpm_graph::csr::CsrGraph;
use scpm_quasiclique::{EngineScratch, Miner, MiningMode, QcConfig, Representation, SearchOrder};

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread; per thread, so the test harness's own threads never count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A fixed seeded graph: five overlapping dense groups of 13 vertices
/// (edge probability 0.55) over 64 vertices, plus sparse background edges
/// (probability 0.04). SplitMix64 keeps it identical on every platform.
/// Its searches visit 9k–24k nodes.
fn planted_graph() -> CsrGraph {
    let mut state = 0x05ee_d0fa_110c_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let n = 64u32;
    let mut b = GraphBuilder::new(n as usize);
    for group in 0..5u32 {
        let members: Vec<u32> = (0..13).map(|i| (group * 12 + i) % n).collect();
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                if next() < 0.55 {
                    b.add_edge(u, v);
                }
            }
        }
    }
    for u in 0..n {
        for v in u + 1..n {
            if next() < 0.04 {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[test]
fn warm_search_allocates_per_run_not_per_node() {
    let g = planted_graph();
    let cfg = QcConfig::new(0.5, 6);
    let mut report = Vec::new();
    for mode in [MiningMode::Coverage, MiningMode::TopK(3)] {
        for order in [SearchOrder::Dfs, SearchOrder::Bfs] {
            for repr in [Representation::Slice, Representation::Bitset] {
                let miner = Miner::new(&g, cfg).with_order(order).with_repr(repr);
                let mut scratch = EngineScratch::new();
                let cold = miner.run_with(mode, &mut scratch);
                let before = allocs();
                let warm = miner.run_with(mode, &mut scratch);
                let made = allocs() - before;
                let nodes = warm.stats.nodes_visited;
                assert_eq!(warm.stats, cold.stats, "{mode:?} {order:?} {repr:?}");
                report.push(format!(
                    "{mode:?} {order:?} {repr:?}: {made} allocations over {nodes} nodes"
                ));
                assert!(
                    nodes >= 1000,
                    "the search must visit at least 1000 nodes: {}",
                    report.last().unwrap()
                );
                assert!(
                    made as f64 <= 0.5 * nodes as f64,
                    "more than 0.5 allocations per node: {}",
                    report.last().unwrap()
                );
            }
        }
    }
    eprintln!("{}", report.join("\n"));
}
