//! A `#[global_allocator]` that counts the calling thread's allocation
//! calls and the bytes it holds, for the tests that pin a heap budget:
//! `wheel_alloc` and `pool_alloc` here and foxtcp's `alloc_budget`,
//! which includes this file by `#[path]`.
//!
//! Per thread, so that a neighbouring test (or the test harness's own
//! main thread) cannot leak calls into a count.

#![expect(clippy::disallowed_methods, reason = "a per-thread count is the point: it isolates each test")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated less bytes freed, by this thread. Wrapping: a
    // block freed by a thread that did not allocate it takes the count
    // below zero there, and the budgets only ever read differences.
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get().wrapping_add(bytes as u64)));
}

fn note_free(bytes: usize) {
    let _ = LIVE.try_with(|n| n.set(n.get().wrapping_sub(bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a thread-local cell.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as above, for `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: as above, for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: as above, for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed` and each `realloc`) this
/// thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed — meaningful as the
/// difference between two readings on one thread.
#[allow(dead_code, reason = "`wheel_alloc` and `pool_alloc` count calls only")]
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}
