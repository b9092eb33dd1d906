//! Allocation count of the token interner: each distinct token costs one
//! allocation (its name), and a repeated token costs none. The lookup
//! table adds one allocation per doubling. A counting global allocator
//! checks both over 10,000 distinct tokens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scpm_graph::io::source::Interner;

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

#[test]
fn one_allocation_per_distinct_token() {
    const N: usize = 10_000;
    let tokens: Vec<String> = (0..N).map(|i| format!("token-{i}")).collect();
    let mut it = Interner::new();
    let before = allocs();
    for t in &tokens {
        it.intern(t);
    }
    let made = allocs() - before;
    // 10,000 names, plus the doublings of the name list and the table
    // (about 14 each).
    assert!(
        made as usize <= N + 40,
        "{made} allocations for {N} distinct tokens"
    );
    let before = allocs();
    for (i, t) in tokens.iter().enumerate() {
        assert_eq!(it.intern(t), i as u32);
        assert_eq!(it.get(t), Some(i as u32));
    }
    assert_eq!(allocs() - before, 0, "repeated tokens allocated");
    assert_eq!(it.get("absent"), None);
    assert_eq!(it.len(), N);
}
