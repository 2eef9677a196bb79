//! A bounded byte ring buffer whose storage is grown by use.
//!
//! TCP's send and receive buffers are bounded byte queues: the receive
//! window the connection advertises is exactly the free space of the
//! receive ring (the paper standardizes it to 4096 bytes for the Table 1
//! benchmark), and the send ring holds bytes the user has written but the
//! Send module has not yet segmented. (`xktcp` receives into one;
//! `foxtcp` hands received data straight to the user and keeps only this
//! arithmetic, as `foxtcp::data::tcb::RecvAccount`.)
//!
//! The bound — [`RingBuffer::capacity`], what [`RingBuffer::free`] and
//! flow control read — is fixed at construction; the storage behind it
//! is not. A new ring holds none, the first [`RingBuffer::write`]
//! allocates [`STORAGE_FLOOR`] bytes (or the bound, if smaller), later
//! writes double it as far as the bytes stored need and never past the
//! bound, and [`RingBuffer::clear`] gives back all of it that grew past
//! the floor: a ring that never did keeps its floor-sized storage for
//! the next write, so emptying one and filling it again costs no heap
//! call. A connection that moves 64 bytes therefore costs 64 bytes of
//! ring, not its whole send buffer, and one that fills the buffer pays
//! a dozen or so growth steps, once.
//!
//! Any stretch of the ring — stored bytes or free space — is at most two
//! contiguous runs of the storage, so every operation is one index
//! computation and two slice copies, never a loop over bytes.

use crate::checksum::ones_complement_sum;
use std::fmt;

/// The first allocation a ring makes, in bytes (a smaller bound
/// allocates the bound). Storage is this, doubled as often as use asked
/// for, capped at the bound.
pub const STORAGE_FLOOR: usize = 64;

/// A bounded FIFO of bytes.
///
/// ```
/// use foxbasis::ring::RingBuffer;
/// let mut ring = RingBuffer::new(8);
/// assert_eq!(ring.storage(), 0); // nothing allocated until written to
/// assert_eq!(ring.write(b"hello"), 5);
/// assert_eq!(ring.free(), 3); // the window a TCP would advertise
/// let mut out = [0u8; 8];
/// assert_eq!(ring.read(&mut out), 5);
/// assert_eq!(&out[..5], b"hello");
/// ```
///
/// Two rings are equal when they have the same bound and hold the same
/// bytes: where those bytes sit in the storage, and how far the storage
/// has grown, is layout, not content.
#[derive(Clone)]
pub struct RingBuffer {
    /// The storage allocated so far: empty, or `capacity.min(FLOOR << k)`
    /// bytes.
    data: Vec<u8>,
    /// The most bytes the ring will ever hold.
    capacity: usize,
    /// Index of the first valid byte.
    head: usize,
    /// Number of valid bytes.
    len: usize,
}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` bytes. Allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer { data: Vec::new(), capacity, head: 0, len: 0 }
    }

    /// The bound: the most bytes the ring will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of storage currently allocated, at most
    /// [`capacity`](Self::capacity).
    pub fn storage(&self) -> usize {
        self.data.len()
    }

    /// Bytes currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space, i.e. how many more bytes [`write`](Self::write) will
    /// accept. For a TCP receive buffer this is the window to advertise.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Appends as much of `src` as fits; returns the number of bytes
    /// accepted.
    pub fn write(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.free());
        if n == 0 {
            return 0;
        }
        if self.len + n > self.data.len() {
            self.grow_to_hold(self.len + n);
        }
        // The free space is at most two contiguous runs: up to the end
        // of the storage, then from its start.
        let at = (self.head + self.len) % self.data.len();
        let first = n.min(self.data.len() - at);
        self.data[at..at + first].copy_from_slice(&src[..first]);
        self.data[..n - first].copy_from_slice(&src[first..n]);
        self.len += n;
        n
    }

    /// Replaces the storage with the smallest step of the doubling
    /// ladder that holds `need` bytes, the stored bytes moved to its
    /// front.
    fn grow_to_hold(&mut self, need: usize) {
        let size = need.next_power_of_two().max(STORAGE_FLOOR).min(self.capacity);
        let mut grown = vec![0; size];
        self.peek_at(0, &mut grown[..self.len]);
        self.data = grown;
        self.head = 0;
    }

    /// Removes up to `dst.len()` bytes into `dst`; returns the number of
    /// bytes produced.
    pub fn read(&mut self, dst: &mut [u8]) -> usize {
        let n = self.peek(dst);
        self.skip(n);
        n
    }

    /// Copies up to `dst.len()` bytes into `dst` without consuming them;
    /// returns the number of bytes copied.
    pub fn peek(&self, dst: &mut [u8]) -> usize {
        self.peek_at(0, dst)
    }

    /// Copies up to `max` bytes starting `offset` bytes past the head,
    /// without consuming anything. Used by the retransmission path, which
    /// must be able to re-read bytes that are sent but unacknowledged.
    pub fn peek_at(&self, offset: usize, dst: &mut [u8]) -> usize {
        if offset >= self.len {
            return 0;
        }
        let n = dst.len().min(self.len - offset);
        // Like the free space, the stored bytes are at most two runs.
        let at = (self.head + offset) % self.data.len();
        let first = n.min(self.data.len() - at);
        dst[..first].copy_from_slice(&self.data[at..at + first]);
        dst[first..n].copy_from_slice(&self.data[..n - first]);
        n
    }

    /// Like [`RingBuffer::peek_at`], but also returns the RFC 1071
    /// ones-complement sum of the copied bytes, summed from `dst` while
    /// the copy has it in cache — the paper's Fig. 10 combined
    /// copy+checksum idea, used by the TCP segment builder so the
    /// payload is fetched from memory exactly once on the send side.
    /// Returns `(bytes copied, ones-complement sum)`.
    pub fn peek_at_sum(&self, offset: usize, dst: &mut [u8]) -> (usize, u16) {
        let n = self.peek_at(offset, dst);
        (n, ones_complement_sum(&dst[..n]))
    }

    /// Discards up to `n` bytes from the front; returns the number
    /// discarded.
    pub fn skip(&mut self, n: usize) -> usize {
        let n = n.min(self.len);
        if n > 0 {
            self.head = (self.head + n) % self.data.len();
            self.len -= n;
        }
        n
    }

    /// Removes everything. Storage grown past the floor goes back to
    /// the allocator; floor-sized storage (the first step of the ladder)
    /// is kept, so a ring emptied and written again allocates nothing.
    pub fn clear(&mut self) {
        if self.data.len() > STORAGE_FLOOR {
            self.data = Vec::new();
        }
        self.head = 0;
        self.len = 0;
    }

    /// The stored bytes, front first, as the (at most) two runs of the
    /// storage they occupy.
    fn runs(&self) -> (&[u8], &[u8]) {
        let first = self.len.min(self.data.len() - self.head);
        (&self.data[self.head..self.head + first], &self.data[..self.len - first])
    }
}

impl PartialEq for RingBuffer {
    fn eq(&self, other: &Self) -> bool {
        let ((a0, a1), (b0, b1)) = (self.runs(), other.runs());
        self.capacity == other.capacity
            && self.len == other.len
            && a0.iter().chain(a1).eq(b0.iter().chain(b1))
    }
}

impl fmt::Debug for RingBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RingBuffer({}/{} bytes)", self.len, self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn write_then_read() {
        let mut r = RingBuffer::new(8);
        assert_eq!(r.write(b"hello"), 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.free(), 3);
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf), 5);
        assert_eq!(&buf[..5], b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn write_truncates_at_capacity() {
        let mut r = RingBuffer::new(4);
        assert_eq!(r.write(b"abcdef"), 4);
        assert_eq!(r.free(), 0);
        assert_eq!(r.write(b"x"), 0);
        let mut buf = [0u8; 4];
        r.read(&mut buf);
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn wraps_around() {
        let mut r = RingBuffer::new(4);
        r.write(b"abc");
        let mut buf = [0u8; 2];
        r.read(&mut buf);
        assert_eq!(&buf, b"ab");
        assert_eq!(r.write(b"def"), 3);
        let mut out = [0u8; 4];
        assert_eq!(r.read(&mut out), 4);
        assert_eq!(&out, b"cdef");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = RingBuffer::new(8);
        r.write(b"data");
        let mut buf = [0u8; 4];
        assert_eq!(r.peek(&mut buf), 4);
        assert_eq!(&buf, b"data");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn peek_at_offset_for_retransmission() {
        let mut r = RingBuffer::new(8);
        r.write(b"abcdef");
        let mut buf = [0u8; 3];
        assert_eq!(r.peek_at(2, &mut buf), 3);
        assert_eq!(&buf, b"cde");
        assert_eq!(r.peek_at(6, &mut buf), 0);
        assert_eq!(r.peek_at(5, &mut buf), 1);
        assert_eq!(buf[0], b'f');
    }

    #[test]
    fn peek_at_wraps() {
        let mut r = RingBuffer::new(4);
        r.write(b"abcd");
        r.skip(3);
        r.write(b"efg");
        let mut buf = [0u8; 4];
        assert_eq!(r.peek_at(1, &mut buf), 3);
        assert_eq!(&buf[..3], b"efg");
    }

    #[test]
    fn skip_bounds() {
        let mut r = RingBuffer::new(4);
        r.write(b"ab");
        assert_eq!(r.skip(10), 2);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn peek_at_sum_matches_separate_passes() {
        let mut r = RingBuffer::new(64);
        // Wrap the ring: fill, drain, refill so head is mid-buffer.
        r.write(&[0u8; 40]);
        r.skip(40);
        let data: Vec<u8> = (0..50u8).map(|i| i.wrapping_mul(7)).collect();
        r.write(&data);
        for (offset, want) in [(0usize, 50usize), (3, 47), (49, 1), (50, 0)] {
            let mut a = vec![0u8; want.max(1)];
            let mut b = vec![0u8; want.max(1)];
            let plain = r.peek_at(offset, &mut a);
            let (n, sum) = r.peek_at_sum(offset, &mut b);
            assert_eq!(n, plain);
            assert_eq!(a[..n], b[..n]);
            assert_eq!(sum, crate::checksum::word_check(&a[..n]), "offset {offset}");
        }
    }

    #[test]
    fn stress_sequential_integrity() {
        // Pump a pseudo-random byte stream through a tiny ring and verify
        // the output equals the input.
        let mut r = RingBuffer::new(7);
        let src: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let mut out = Vec::new();
        let mut written = 0;
        while out.len() < src.len() {
            written += r.write(&src[written..(written + 3).min(src.len())]);
            let mut buf = [0u8; 2];
            let n = r.read(&mut buf);
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, src);
    }
    #[test]
    fn an_unwritten_ring_has_no_storage_and_every_read_of_it_is_empty() {
        let mut r = RingBuffer::new(4096);
        assert_eq!((r.storage(), r.capacity(), r.free()), (0, 4096, 4096));
        let mut buf = [0u8; 8];
        assert_eq!(r.peek(&mut buf), 0);
        assert_eq!(r.peek_at(3, &mut buf), 0);
        assert_eq!(r.peek_at_sum(0, &mut buf), (0, 0));
        assert_eq!(r.read(&mut buf), 0);
        assert_eq!(r.skip(5), 0);
        assert_eq!(r.write(&[]), 0);
        assert_eq!(r.storage(), 0, "an empty write allocates nothing");
        r.clear();
        assert_eq!(r.skip(1), 0, "nor does a cleared ring divide by its storage");
    }

    #[test]
    fn storage_doubles_with_use_up_to_the_bound_and_clear_returns_it() {
        let mut r = RingBuffer::new(1000);
        r.write(&[1; 10]);
        assert_eq!(r.storage(), STORAGE_FLOOR);
        r.skip(8); // head mid-storage: growth has to re-linearise
        r.write(&[2; 62]);
        assert_eq!(r.storage(), STORAGE_FLOOR, "64 bytes stored still fit the floor");
        r.write(&[3; 200]);
        assert_eq!(r.storage(), 512, "264 bytes stored skip the 128 and 256 steps");
        let mut out = vec![0u8; 264];
        assert_eq!(r.peek(&mut out), 264);
        assert_eq!((&out[..2], &out[2..64], &out[64..]), (&[1; 2][..], &[2; 62][..], &[3; 200][..]));
        assert_eq!(r.write(&[4; 2000]), 736);
        assert_eq!(r.storage(), 1000, "the last step stops at the bound");
        r.clear();
        assert_eq!((r.storage(), r.len(), r.free()), (0, 0, 1000));
        assert_eq!(RingBuffer::new(7).write(&[0; 9]), 7, "a bound under the floor is the whole storage");
    }

    #[test]
    fn clear_keeps_floor_sized_storage() {
        let mut r = RingBuffer::new(1000);
        r.write(&[1; 40]);
        r.skip(30); // head mid-storage: clear must rewind it
        r.clear();
        assert_eq!((r.storage(), r.len(), r.free()), (STORAGE_FLOOR, 0, 1000), "the floor stays");
        assert_eq!(r.write(b"again"), 5);
        let mut out = [0u8; 5];
        assert_eq!(r.read(&mut out), 5);
        assert_eq!((&out, r.storage()), (b"again", STORAGE_FLOOR));
        let mut small = RingBuffer::new(7);
        small.write(&[0; 7]);
        small.clear();
        assert_eq!(small.storage(), 7, "a bound under the floor is kept whole");
    }

    #[test]
    fn equality_is_bound_and_content_not_layout() {
        // `a` holds "cdef" wrapped around the end of 64 bytes of
        // storage; `b` holds it from the front of 100.
        let mut a = RingBuffer::new(100);
        a.write(&[0; 60]);
        a.skip(60);
        a.write(b"abcdef");
        a.skip(2);
        let mut b = RingBuffer::new(100);
        b.write(&[0; 100]);
        b.skip(100);
        b.write(b"cdef");
        assert_eq!((a.storage(), b.storage()), (64, 100));
        assert!(a == b, "same bound, same bytes");
        let snapshot = a.clone();
        assert!(snapshot == a);
        a.skip(1);
        assert!(snapshot != a, "a clone does not follow its original");
        let mut c = RingBuffer::new(99);
        c.write(b"cdef");
        assert!(c != b, "a different bound is a different ring");
        assert!(RingBuffer::new(5) == RingBuffer::new(5), "no storage on either side");
    }

    proptest! {
        /// The ring against a `VecDeque` model. Bounds are odd, so the
        /// wrap falls mid-word and at offset `cap - 1`: the small ones
        /// hit every operation's two-run split at every position, the
        /// large ones cross several growth steps and wrap afterwards.
        /// Storage follows the high-water mark and nothing else.
        #[test]
        fn matches_a_deque_model(
            small in 0usize..8,
            large in 8usize..1500,
            pick_large: bool,
            ops in proptest::collection::vec((0u8..6, 0usize..20, 0usize..20), 0..200),
        ) {
            let cap = 2 * if pick_large { large } else { small } + 1;
            // Amounts scale with the bound, so a large ring fills in a
            // few writes.
            let scale = cap.div_ceil(20);
            let mut ring = RingBuffer::new(cap);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut high_water = 0usize;
            let mut next = 0u8;
            for (op, a, b) in ops {
                let (a, b) = (a * scale, b * scale);
                match op {
                    0 | 5 => {
                        let src: Vec<u8> = (0..a)
                            .map(|_| {
                                next = next.wrapping_mul(31).wrapping_add(7);
                                next
                            })
                            .collect();
                        let took = ring.write(&src);
                        prop_assert_eq!(took, a.min(cap - model.len()));
                        model.extend(&src[..took]);
                    }
                    1 => {
                        let mut dst = vec![0u8; a];
                        let n = ring.read(&mut dst);
                        let want: Vec<u8> = model.drain(..a.min(model.len())).collect();
                        prop_assert_eq!(&dst[..n], &want[..]);
                    }
                    2 => {
                        let mut dst = vec![0u8; b];
                        let n = ring.peek_at(a, &mut dst);
                        let want: Vec<u8> = model.iter().skip(a).take(b).copied().collect();
                        prop_assert_eq!(&dst[..n], &want[..]);
                    }
                    3 => {
                        let mut dst = vec![0u8; b];
                        let (n, sum) = ring.peek_at_sum(a, &mut dst);
                        let want: Vec<u8> = model.iter().skip(a).take(b).copied().collect();
                        prop_assert_eq!(&dst[..n], &want[..]);
                        prop_assert_eq!(sum, crate::checksum::word_check(&dst[..n]));
                    }
                    _ => {
                        let n = ring.skip(a);
                        prop_assert_eq!(n, a.min(model.len()));
                        model.drain(..n);
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.free(), cap - model.len());
                high_water = high_water.max(model.len());
                let ladder = if high_water == 0 { 0 } else { high_water.next_power_of_two().max(STORAGE_FLOOR) };
                prop_assert!(ring.storage() <= ladder, "{} bytes of storage for a high-water of {}", ring.storage(), high_water);
                prop_assert!(ring.storage() >= ring.len());
            }
            let kept = if ring.storage() > STORAGE_FLOOR { 0 } else { ring.storage() };
            ring.clear();
            prop_assert_eq!((ring.storage(), ring.len(), ring.free()), (kept, 0, cap));
        }
    }
}
