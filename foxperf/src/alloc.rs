//! The counting allocator: the benchmark's exact cost proxy for heap
//! traffic.
//!
//! Always on in this binary, so every commit pays the same price: a few
//! thread-local `Cell` updates per call, no atomics. The counters are
//! per *thread*, which is what makes them exact — the load generator is
//! one thread, and neither the watchdog thread nor (under `cargo test`)
//! a neighbouring test can leak allocations into its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A point-in-time copy of the calling thread's allocation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, and each
    /// `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak_live: u64,
}

impl AllocSnapshot {
    /// Allocation calls and bytes since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

struct Counters {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<u64>,
    peak_live: Cell<u64>,
}

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static COUNTERS: Counters = const {
        Counters { allocs: Cell::new(0), bytes: Cell::new(0), live: Cell::new(0), peak_live: Cell::new(0) }
    };
}

fn note_alloc(size: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as u64;
        c.live.set(live);
        if live > c.peak_live.get() {
            c.peak_live.set(live);
        }
    });
}

fn note_free(size: usize) {
    // Saturating: a block allocated on another thread (or before the
    // counters existed) may be freed here.
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get().saturating_sub(size as u64)));
}

/// The calling thread's counters.
pub fn snapshot() -> AllocSnapshot {
    COUNTERS.with(|c| AllocSnapshot {
        allocs: c.allocs.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
        peak_live: c.peak_live.get(),
    })
}

/// Restarts the high-water mark from the current live size.
pub fn reset_peak() {
    COUNTERS.with(|c| c.peak_live.set(c.live.get()));
}

/// The system allocator with the counters above in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's,
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let before = snapshot();
        let a = black_box(Box::new([0u8; 100]));
        let mut v: Vec<u64> = black_box(Vec::with_capacity(4)); // 32 bytes
        let during = snapshot();
        assert_eq!(during.since(&before), (2, 132));
        assert_eq!(during.live - before.live, 132);
        v.extend_from_slice(&[1, 2, 3, 4]);
        v.reserve_exact(4); // realloc 32 -> 64: one more call, 64 more bytes requested
        let grown = snapshot();
        assert_eq!(grown.since(&before), (3, 196));
        assert_eq!(grown.live - before.live, 164);
        drop(a);
        drop(black_box(v));
        let after = snapshot();
        assert_eq!(after.since(&before), (3, 196), "frees are not allocations");
        assert_eq!(after.live, before.live, "everything was returned");
        assert!(after.peak_live >= before.live + 164);
    }

    #[test]
    fn peak_restarts_from_live() {
        let big = black_box(vec![0u8; 1 << 20]);
        drop(big);
        reset_peak();
        let s = snapshot();
        assert_eq!(s.peak_live, s.live);
        let small = black_box(vec![0u8; 4096]);
        assert_eq!(snapshot().peak_live, s.live + 4096);
        drop(small);
    }
}
