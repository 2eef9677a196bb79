//! A fixed-capacity byte ring buffer.
//!
//! TCP's send and receive buffers are bounded byte queues: the receive
//! window the connection advertises is exactly the free space of the
//! receive ring (the paper standardizes it to 4096 bytes for the Table 1
//! benchmark), and the send ring holds bytes the user has written but the
//! Send module has not yet segmented. (`xktcp` receives into one;
//! `foxtcp` hands received data straight to the user and keeps only this
//! arithmetic, as `foxtcp::tcb::RecvAccount`.)
//!
//! Any stretch of the ring — stored bytes or free space — is at most two
//! contiguous runs of the storage, so every operation is one index
//! computation and two slice copies, never a loop over bytes.

use crate::checksum::ones_complement_sum;
use std::fmt;

/// A fixed-capacity FIFO of bytes.
///
/// ```
/// use foxbasis::ring::RingBuffer;
/// let mut ring = RingBuffer::new(8);
/// assert_eq!(ring.write(b"hello"), 5);
/// assert_eq!(ring.free(), 3); // the window a TCP would advertise
/// let mut out = [0u8; 8];
/// assert_eq!(ring.read(&mut out), 5);
/// assert_eq!(&out[..5], b"hello");
/// ```
pub struct RingBuffer {
    data: Vec<u8>,
    /// Index of the first valid byte.
    head: usize,
    /// Number of valid bytes.
    len: usize,
}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` bytes.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer { data: vec![0; capacity], head: 0, len: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
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
        self.capacity() - self.len
    }

    /// Appends as much of `src` as fits; returns the number of bytes
    /// accepted.
    pub fn write(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.free());
        // The free space is at most two contiguous runs: up to the end
        // of the storage, then from its start.
        let at = (self.head + self.len) % self.capacity();
        let first = n.min(self.capacity() - at);
        self.data[at..at + first].copy_from_slice(&src[..first]);
        self.data[..n - first].copy_from_slice(&src[first..n]);
        self.len += n;
        n
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
        let at = (self.head + offset) % self.capacity();
        let first = n.min(self.capacity() - at);
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
        self.head = (self.head + n) % self.capacity();
        self.len -= n;
        n
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
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
    proptest! {
        /// The ring against a `VecDeque` model. Capacities are small and
        /// odd, so the wrap falls mid-word and at offset `cap - 1`, and
        /// every operation's two-run split is hit at every position.
        #[test]
        fn matches_a_deque_model(
            half_cap in 0usize..8,
            ops in proptest::collection::vec((0u8..5, 0usize..20, 0usize..20), 0..200),
        ) {
            let cap = 2 * half_cap + 1;
            let mut ring = RingBuffer::new(cap);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut next = 0u8;
            for (op, a, b) in ops {
                match op {
                    0 => {
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
            }
        }
    }
}
