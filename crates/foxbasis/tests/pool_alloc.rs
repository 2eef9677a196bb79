//! The buffer pool's heap budget: none, once warm.
//!
//! A segment's storage used to be two heap calls (the bytes and their
//! `Rc`) on the way down and two frees when the receiver dropped the
//! frame. A `BufPool` block goes home instead, and the next segment
//! takes it back — counted here, not argued.

mod common {
    pub mod counting_alloc;
}

use common::counting_alloc::allocs;
use foxbasis::buf::{BufPool, DEFAULT_HEADROOM};

/// One segment's life: staged from the pool (`len` payload bytes, or a
/// pure ACK), TCP, IP and Ethernet headers and the FCS written in place,
/// the receiver's slice read, every handle dropped. Returns where the
/// storage's bytes were.
fn segment(pool: &BufPool, len: usize) -> *const u8 {
    let mut frame = match len {
        0 => pool.empty(),
        _ => pool.build_summed(DEFAULT_HEADROOM, len, |dst| {
            dst.fill(0x5a);
            0
        }),
    };
    let at = frame.bytes().as_ptr().wrapping_sub(frame.headroom());
    for header in [20, 20, 14] {
        assert_eq!(frame.prepend_header(&[0; 20][..header]), 0);
    }
    assert_eq!(frame.append_zeros(46usize.saturating_sub(40 + len)), 0);
    assert_eq!(frame.append(&[0; 4]), 0);
    let received = frame.slice(54, 54 + len);
    drop(frame);
    assert!(received.bytes().iter().all(|&b| b == 0x5a));
    at
}

#[test]
fn a_warm_pool_hands_back_the_same_block_with_no_heap_call() {
    let pool = BufPool::new();
    // Warm-up: the one block grows to the largest segment.
    let block = segment(&pool, 1460);

    let before = allocs();
    for i in 0..10_000 {
        let len = [1460, 0, 64, 536][i % 4];
        assert_eq!(segment(&pool, len), block, "a different block for segment {i}");
    }
    assert_eq!(allocs() - before, 0, "a warm pool touched the heap");
    assert_eq!((pool.made(), pool.free()), (1, 1));
}
