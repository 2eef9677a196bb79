//! `PacketBuf` — the one buffer a packet lives in from TCP payload to
//! wire and back.
//!
//! The paper's §5 cost accounting (Table 2) shows the data-touching
//! operations — copy (300 µs/KB) and checksum (343 µs/KB) — dominating
//! the avoidable per-byte cost. The original stack, like ours before
//! this module, re-materialized an owned byte vector at every layer
//! boundary, so the *host* paid O(layers) memcpys per segment even
//! though the *modeled* 1994 cost is charged once. `PacketBuf` is the
//! layered-stack buffer-passing discipline: a reference-counted storage
//! block with reserved headroom in front of the payload, so each layer
//! prepends its header in place and the wire delivers the same block by
//! refcount bump.
//!
//! Layout of the shared storage (`H` = headroom, `T` = tailroom):
//!
//! ```text
//!   0        start                    end          storage.len()
//!   |  H ... |  <---- this view ----> | ... T      (+ reserved cap)
//! ```
//!
//! A `PacketBuf` is a *view* `[start, end)` of the shared storage.
//! `clone` is a refcount bump. [`PacketBuf::prepend_header`] writes into
//! the headroom **in place** when that is provably safe, and falls back
//! to reallocating (a real, counted copy) when it is not.
//!
//! ## Safety discipline (no `unsafe`, no aliased mutation)
//!
//! Storage sits behind a `RefCell`; every live view registers its
//! `[start, end)` bounds with the shared storage (in an array inside
//! the shared block itself, so a buffer is two heap calls — storage
//! and `Rc` — and a `clone` is none; only a ninth simultaneous view
//! spills to a vector). A byte below `start` is only visible to a view
//! whose own start is smaller, so:
//!
//! * `prepend_header` may write `[start - n, start)` in place iff **no
//!   other live view has a smaller start** (equal starts are fine — they
//!   cannot see below themselves either);
//! * `append` may write `[end, end + n)` in place iff no other live view
//!   has a larger end.
//!
//! This makes the retransmission pattern work without copies: the resend
//! queue holds the payload view `[p, e)`; at (re)transmission time the
//! descending clone starts at the same `p`, so TCP/IP/Ethernet headers
//! prepend in place below `p` while the queued payload bytes are never
//! touched. If an older view of the same storage is still alive further
//! down (e.g. a frame still sitting in a simulated receive queue), the
//! prepend *detects* it and reallocates — correctness first, the copy is
//! merely counted.
//!
//! ## Copy accounting
//!
//! Every real payload memcpy this module performs is recorded in a
//! thread-local counter ([`copy_stats`]); callers that sit next to an
//! [`crate::obs::EventSink`] additionally emit `Event::BufCopy`. Header
//! and trailer writes (≤ ~60 bytes per layer, plain stores into
//! reserved room) are not copies and are not counted. The *virtual*
//! cost model is entirely unaffected: `charge_copy`/`charge_checksum`
//! keep charging the paper's per-KB constants at the same points, so
//! Tables 1–2 reproduce byte-for-byte while the host's real memcpy
//! traffic drops.

use crate::checksum::ones_complement_sum;
use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

/// Default headroom reserved in front of a payload: enough for
/// TCP (≤60) is not needed below IP in this stack — the deepest real
/// stack here is TCP(20) + IPv4(20) + Ethernet(14) = 54 bytes.
pub const DEFAULT_HEADROOM: usize = 64;
/// Default tailroom reserved behind a payload: Ethernet minimum-payload
/// padding (≤46) plus the 4-byte FCS.
pub const DEFAULT_TAILROOM: usize = 64;

// ----- thread-local copy accounting -----

// These counters are observational only: the virtual cost model charges
// copies independently (`charge_copy`), so nothing trace-affecting ever
// reads them — a shard seeing its own counts is exactly the intended
// per-worker accounting.
// foxlint::allow(shard_global): diagnostic copy counters; the cost model charges independently, so traces never read these
thread_local! {
    static COPIES: Cell<u64> = const { Cell::new(0) };
    static COPY_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative real-memcpy statistics for this thread.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Number of distinct payload copies performed.
    pub copies: u64,
    /// Total payload bytes memcpy'd.
    pub bytes: u64,
}

/// The thread's cumulative [`CopyStats`] since the last
/// [`reset_copy_stats`].
pub fn copy_stats() -> CopyStats {
    CopyStats { copies: COPIES.with(|c| c.get()), bytes: COPY_BYTES.with(|c| c.get()) }
}

/// Zeroes the thread's copy counters.
pub fn reset_copy_stats() {
    COPIES.with(|c| c.set(0));
    COPY_BYTES.with(|c| c.set(0));
}

/// A point-in-time marker for measuring copies across a region of code.
#[derive(Copy, Clone, Debug)]
pub struct CopyMark(CopyStats);

/// Takes a marker; [`CopyMark::delta`] reports copies since.
pub fn copy_mark() -> CopyMark {
    CopyMark(copy_stats())
}

impl CopyMark {
    /// Copies performed since this mark was taken.
    pub fn delta(&self) -> CopyStats {
        let now = copy_stats();
        CopyStats { copies: now.copies - self.0.copies, bytes: now.bytes - self.0.bytes }
    }
}

fn note_copy(bytes: usize) {
    if bytes == 0 {
        return;
    }
    COPIES.with(|c| c.set(c.get() + 1));
    COPY_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// ----- the buffer -----

/// Live views one storage block can have before their registry spills
/// to the heap. A segment in flight has about half a dozen: the resend
/// queue's payload, the frame on the wire, and the slices each receiving
/// layer cut from it.
const INLINE_VIEWS: usize = 8;

/// The `[start, end)` of every live view of one storage block, one
/// entry per `PacketBuf`, in no particular order. Held inline so that a
/// buffer costs its storage and its `Rc<Inner>` and nothing else, and a
/// `clone` allocates nothing; `spill` is used only while `inline` is
/// full. Small, scanned linearly.
struct Views {
    inline: [(usize, usize); INLINE_VIEWS],
    inline_len: usize,
    spill: Vec<(usize, usize)>,
}

impl Views {
    fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.inline[..self.inline_len].iter().chain(&self.spill).copied()
    }

    fn push(&mut self, view: (usize, usize)) {
        if self.inline_len < INLINE_VIEWS {
            self.inline[self.inline_len] = view;
            self.inline_len += 1;
        } else {
            self.spill.push(view);
        }
    }

    /// One registered occurrence of `view`.
    fn find(&mut self, view: (usize, usize)) -> Option<&mut (usize, usize)> {
        self.inline[..self.inline_len].iter_mut().chain(&mut self.spill).find(|v| **v == view)
    }

    /// Unregisters one occurrence of `view` (swap-remove).
    fn remove(&mut self, view: (usize, usize)) {
        let last = self.spill.pop().unwrap_or_else(|| {
            self.inline_len -= 1;
            self.inline[self.inline_len]
        });
        if last != view {
            match self.find(view) {
                Some(slot) => *slot = last,
                // Every live view is registered; were one not, dropping
                // another's entry would let a writer alias its bytes.
                None => self.push(last),
            }
        }
    }
}

struct Inner {
    storage: RefCell<Vec<u8>>,
    views: RefCell<Views>,
}

impl Inner {
    fn with_storage(storage: Vec<u8>, start: usize, end: usize) -> Rc<Inner> {
        let mut inline = [(0, 0); INLINE_VIEWS];
        inline[0] = (start, end);
        let views = Views { inline, inline_len: 1, spill: Vec::new() };
        Rc::new(Inner { storage: RefCell::new(storage), views: RefCell::new(views) })
    }

    /// True if a live view *other than* one occurrence of `[start, end)`
    /// starts below `limit`.
    fn other_view_starts_below(&self, start: usize, end: usize, limit: usize) -> bool {
        let mut self_seen = false;
        self.views.borrow().iter().any(|(s, e)| {
            if !self_seen && s == start && e == end {
                self_seen = true;
                return false;
            }
            s < limit
        })
    }

    /// True if a live view other than one occurrence of `[start, end)`
    /// ends above `limit`.
    fn other_view_ends_above(&self, start: usize, end: usize, limit: usize) -> bool {
        let mut self_seen = false;
        self.views.borrow().iter().any(|(s, e)| {
            if !self_seen && s == start && e == end {
                self_seen = true;
                return false;
            }
            e > limit
        })
    }
}

/// A cheaply-cloneable view of a shared packet storage block with
/// reserved headroom. See the module docs for the discipline.
pub struct PacketBuf {
    inner: Rc<Inner>,
    start: usize,
    end: usize,
    /// Memoized ones-complement sum of `self[start..end]` — set by the
    /// combined copy+checksum constructors, read by the TCP encoder so
    /// the payload is summed exactly once (the paper's Fig. 10 combined
    /// pass).
    sum: Cell<Option<u16>>,
}

impl PacketBuf {
    // ----- constructors -----

    /// An empty buffer with the default head- and tailroom.
    pub fn new() -> PacketBuf {
        PacketBuf::with_room(DEFAULT_HEADROOM, DEFAULT_TAILROOM)
    }

    /// An empty buffer with `headroom` bytes reserved in front and
    /// capacity for `tailroom` bytes behind.
    pub fn with_room(headroom: usize, tailroom: usize) -> PacketBuf {
        let mut storage = Vec::with_capacity(headroom + tailroom);
        storage.resize(headroom, 0);
        let inner = Inner::with_storage(storage, headroom, headroom);
        PacketBuf { inner, start: headroom, end: headroom, sum: Cell::new(Some(0)) }
    }

    /// Adopts `v` as the payload with **no** copy and no headroom.
    /// Prepending to the result will take the reallocation fallback;
    /// use [`PacketBuf::with_headroom`] for buffers that descend a
    /// protocol stack.
    pub fn from_vec(v: Vec<u8>) -> PacketBuf {
        let end = v.len();
        let inner = Inner::with_storage(v, 0, end);
        PacketBuf { inner, start: 0, end, sum: Cell::new(None) }
    }

    /// Copies `data` into fresh storage behind `headroom` reserved
    /// bytes (one counted copy).
    pub fn with_headroom(headroom: usize, data: &[u8]) -> PacketBuf {
        PacketBuf::build(headroom, data.len(), |dst| dst.copy_from_slice(data))
    }

    /// Builds a payload of `len` bytes behind `headroom` reserved bytes,
    /// letting `fill` write the bytes directly into the storage (one
    /// counted copy — the filler is expected to be a real data source
    /// such as a ring-buffer read).
    pub fn build(headroom: usize, len: usize, fill: impl FnOnce(&mut [u8])) -> PacketBuf {
        let mut storage = Vec::with_capacity(headroom + len + DEFAULT_TAILROOM);
        storage.resize(headroom + len, 0);
        fill(&mut storage[headroom..]);
        note_copy(len);
        let inner = Inner::with_storage(storage, headroom, headroom + len);
        PacketBuf { inner, start: headroom, end: headroom + len, sum: Cell::new(None) }
    }

    /// Like [`PacketBuf::build`], but the filler also returns the
    /// ones-complement sum of the bytes it wrote, computed *during* the
    /// copy — the paper's Fig. 10 combined copy+checksum pass. The sum
    /// is memoized so the TCP encoder never re-reads the payload.
    pub fn build_summed(headroom: usize, len: usize, fill: impl FnOnce(&mut [u8]) -> u16) -> PacketBuf {
        let mut storage = Vec::with_capacity(headroom + len + DEFAULT_TAILROOM);
        storage.resize(headroom + len, 0);
        let sum = fill(&mut storage[headroom..]);
        note_copy(len);
        let inner = Inner::with_storage(storage, headroom, headroom + len);
        PacketBuf { inner, start: headroom, end: headroom + len, sum: Cell::new(Some(sum)) }
    }

    // ----- observers -----

    /// Bytes in this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Headroom available in front of this view.
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// The view's bytes. The returned guard borrows the shared storage:
    /// drop it before calling any mutating operation on a view of the
    /// same buffer.
    pub fn bytes(&self) -> Ref<'_, [u8]> {
        Ref::map(self.inner.storage.borrow(), |s| &s[self.start..self.end])
    }

    /// An owned copy of the view's bytes (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        note_copy(self.len());
        self.bytes().to_vec()
    }

    /// The ones-complement sum (RFC 1071, not inverted) of the view's
    /// bytes, memoized per view.
    pub fn ones_sum(&self) -> u16 {
        if let Some(s) = self.sum.get() {
            return s;
        }
        let s = ones_complement_sum(&self.bytes());
        self.sum.set(Some(s));
        s
    }

    /// True if this view is the only live view of its storage.
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.inner) == 1 && self.inner.views.borrow().len() == 1
    }

    // ----- view surgery (zero-copy) -----

    fn set_bounds(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end);
        if let Some(view) = self.inner.views.borrow_mut().find((self.start, self.end)) {
            *view = (start, end);
        }
        self.start = start;
        self.end = end;
        self.sum.set(None);
    }

    /// A sub-view `[from, to)` of this view (refcount bump, no copy).
    ///
    /// # Panics
    /// Panics if `from > to` or `to > self.len()`.
    pub fn slice(&self, from: usize, to: usize) -> PacketBuf {
        assert!(from <= to && to <= self.len(), "slice {from}..{to} of {}", self.len());
        let b = self.clone();
        let mut b = b;
        b.set_bounds(self.start + from, self.start + to);
        b
    }

    /// Drops the first `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn trim_front(&mut self, n: usize) {
        assert!(n <= self.len());
        self.set_bounds(self.start + n, self.end);
    }

    /// Drops the last `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn trim_back(&mut self, n: usize) {
        assert!(n <= self.len());
        self.set_bounds(self.start, self.end - n);
    }

    /// Shortens the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.set_bounds(self.start, self.start + len);
        }
    }

    // ----- mutation -----

    /// Prepends `header` in front of the view — in place into the
    /// headroom when safe, otherwise by reallocating (fallback).
    /// Returns the number of payload bytes really memcpy'd: 0 for the
    /// in-place path, `self.len()` for the fallback.
    pub fn prepend_header(&mut self, header: &[u8]) -> usize {
        let n = header.len();
        let in_place =
            self.start >= n && !self.inner.other_view_starts_below(self.start, self.end, self.start);
        if in_place {
            {
                let mut storage = self.inner.storage.borrow_mut();
                storage[self.start - n..self.start].copy_from_slice(header);
            }
            self.set_bounds(self.start - n, self.end);
            0
        } else {
            let copied = self.len();
            let mut storage = Vec::with_capacity(DEFAULT_HEADROOM + n + copied + DEFAULT_TAILROOM);
            storage.resize(DEFAULT_HEADROOM, 0);
            storage.extend_from_slice(header);
            storage.extend_from_slice(&self.bytes());
            note_copy(copied);
            let start = DEFAULT_HEADROOM;
            let end = start + n + copied;
            *self = PacketBuf {
                inner: Inner::with_storage(storage, start, end),
                start,
                end,
                sum: Cell::new(None),
            };
            copied
        }
    }

    /// Appends `data` behind the view — in place when safe, otherwise by
    /// reallocating. Returns the payload bytes really memcpy'd (0 for
    /// the in-place path).
    pub fn append(&mut self, data: &[u8]) -> usize {
        let n = data.len();
        let in_place = !self.inner.other_view_ends_above(self.start, self.end, self.end);
        if in_place {
            {
                let mut storage = self.inner.storage.borrow_mut();
                if storage.len() < self.end + n {
                    storage.resize(self.end + n, 0);
                }
                storage[self.end..self.end + n].copy_from_slice(data);
            }
            self.set_bounds(self.start, self.end + n);
            0
        } else {
            let copied = self.len();
            let mut storage = Vec::with_capacity(DEFAULT_HEADROOM + copied + n + DEFAULT_TAILROOM);
            storage.resize(DEFAULT_HEADROOM, 0);
            storage.extend_from_slice(&self.bytes());
            storage.extend_from_slice(data);
            note_copy(copied);
            let start = DEFAULT_HEADROOM;
            let end = start + copied + n;
            *self = PacketBuf {
                inner: Inner::with_storage(storage, start, end),
                start,
                end,
                sum: Cell::new(None),
            };
            copied
        }
    }

    /// Appends `n` zero bytes (Ethernet minimum-payload padding).
    /// Returns the payload bytes really memcpy'd.
    pub fn append_zeros(&mut self, n: usize) -> usize {
        // Padding is at most MIN_PAYLOAD bytes; a stack scratch avoids
        // allocating for it.
        let zeros = [0u8; 64];
        let mut remaining = n;
        let mut copied = 0;
        while remaining > 0 {
            let take = remaining.min(zeros.len());
            copied += self.append(&zeros[..take]);
            remaining -= take;
        }
        copied
    }

    /// A deep copy into fresh, uniquely-owned storage (counted) — used
    /// by fault injection before corrupting bytes in place.
    pub fn clone_owned(&self) -> PacketBuf {
        note_copy(self.len());
        let data = self.bytes().to_vec();
        let end = data.len();
        PacketBuf { inner: Inner::with_storage(data, 0, end), start: 0, end, sum: Cell::new(None) }
    }

    /// Mutable access to the view's bytes, only when this is the sole
    /// live view of its storage (e.g. right after [`clone_owned`]).
    /// Invalidates the memoized sum.
    ///
    /// [`clone_owned`]: PacketBuf::clone_owned
    pub fn bytes_mut(&mut self) -> Option<std::cell::RefMut<'_, [u8]>> {
        if !self.is_unique() {
            return None;
        }
        self.sum.set(None);
        Some(std::cell::RefMut::map(self.inner.storage.borrow_mut(), |s| &mut s[self.start..self.end]))
    }
}

impl Default for PacketBuf {
    fn default() -> Self {
        PacketBuf::new()
    }
}

impl Clone for PacketBuf {
    fn clone(&self) -> Self {
        self.inner.views.borrow_mut().push((self.start, self.end));
        PacketBuf {
            inner: Rc::clone(&self.inner),
            start: self.start,
            end: self.end,
            sum: Cell::new(self.sum.get()),
        }
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        self.inner.views.borrow_mut().remove((self.start, self.end));
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketBuf({} bytes @{}..{})", self.len(), self.start, self.end)
    }
}

impl From<Vec<u8>> for PacketBuf {
    /// Adopts the vector without copying (and without headroom).
    fn from(v: Vec<u8>) -> PacketBuf {
        PacketBuf::from_vec(v)
    }
}

impl From<&[u8]> for PacketBuf {
    /// Copies the slice behind default headroom (counted).
    fn from(v: &[u8]) -> PacketBuf {
        PacketBuf::with_headroom(DEFAULT_HEADROOM, v)
    }
}

impl<const N: usize> From<&[u8; N]> for PacketBuf {
    fn from(v: &[u8; N]) -> PacketBuf {
        PacketBuf::with_headroom(DEFAULT_HEADROOM, v)
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &PacketBuf) -> bool {
        // Same storage and bounds is common (clones); compare bytes
        // otherwise.
        (Rc::ptr_eq(&self.inner, &other.inner) && self.start == other.start && self.end == other.end)
            || *self.bytes() == *other.bytes()
    }
}

impl Eq for PacketBuf {}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        *self.bytes() == *other
    }
}

impl PartialEq<&[u8]> for PacketBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        *self.bytes() == **other
    }
}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.bytes() == other[..]
    }
}

impl PartialEq<PacketBuf> for Vec<u8> {
    fn eq(&self, other: &PacketBuf) -> bool {
        self[..] == *other.bytes()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PacketBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self.bytes() == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PacketBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self.bytes() == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::word_check;
    use proptest::prelude::*;

    #[test]
    fn with_headroom_and_prepend_in_place() {
        reset_copy_stats();
        let mut b = PacketBuf::with_headroom(32, b"payload");
        assert_eq!(copy_stats().bytes, 7);
        assert_eq!(b.len(), 7);
        assert_eq!(b.headroom(), 32);
        let copied = b.prepend_header(b"HDR:");
        assert_eq!(copied, 0, "headroom prepend must be in place");
        assert_eq!(b, b"HDR:payload");
        assert_eq!(copy_stats().bytes, 7, "no payload bytes moved");
    }

    #[test]
    fn prepend_without_headroom_falls_back() {
        reset_copy_stats();
        let mut b = PacketBuf::from_vec(b"data".to_vec());
        assert_eq!(copy_stats().bytes, 0, "from_vec adopts");
        let copied = b.prepend_header(b"H");
        assert_eq!(copied, 4, "payload re-homed");
        assert_eq!(b, b"Hdata");
        assert!(b.headroom() >= DEFAULT_HEADROOM - 1);
    }

    #[test]
    fn clone_is_refcount_bump_and_contended_prepend_copies() {
        reset_copy_stats();
        let b = PacketBuf::with_headroom(32, b"shared-bytes");
        let base = copy_stats().bytes;
        let kept = b.clone();
        assert_eq!(copy_stats().bytes, base, "clone copies nothing");
        // A clone starting at the same offset may still prepend in
        // place: it cannot corrupt a view that starts at or above it.
        let mut descend = b.clone();
        assert_eq!(descend.prepend_header(b"IP"), 0);
        // But now `descend` starts *below* `b` and `kept`; a sibling
        // prepend at the higher start is blocked by the lower view.
        let mut late = kept.clone();
        assert_eq!(late.prepend_header(b"XX"), b.len(), "contended prepend falls back");
        assert_eq!(late, b"XXshared-bytes");
        assert_eq!(descend, b"IPshared-bytes");
        assert_eq!(b, b"shared-bytes");
    }

    #[test]
    fn retransmit_pattern_prepends_in_place_twice() {
        // Queue holds the payload view; each (re)transmission clones it
        // and prepends headers. Once the first frame dies, the second
        // descent reuses the same headroom with zero copies.
        let queued = PacketBuf::with_headroom(54, b"segment-payload");
        reset_copy_stats();
        for _ in 0..2 {
            let mut descend = queued.clone();
            assert_eq!(descend.prepend_header(&[0u8; 20]), 0); // TCP
            assert_eq!(descend.prepend_header(&[1u8; 20]), 0); // IP
            assert_eq!(descend.prepend_header(&[2u8; 14]), 0); // Eth
            assert_eq!(descend.append(&[3u8; 4]), 0); // FCS
            assert_eq!(descend.len(), 15 + 54 + 4);
            drop(descend);
        }
        assert_eq!(copy_stats().bytes, 0, "pure retransmission memcpys nothing");
        assert_eq!(queued, b"segment-payload");
    }

    #[test]
    fn append_contention_falls_back() {
        let b = PacketBuf::with_headroom(8, b"abc");
        let longer = {
            let mut l = b.clone();
            l.append(b"tail");
            l
        };
        // `b` ends below `longer` now; appending through `b` must not
        // clobber `longer`'s tail.
        let mut b2 = b.clone();
        let copied = b2.append(b"XYZ");
        assert_eq!(copied, 3);
        assert_eq!(b2, b"abcXYZ");
        assert_eq!(longer, b"abctail");
    }

    #[test]
    fn slice_and_trim_are_zero_copy() {
        reset_copy_stats();
        let b = PacketBuf::with_headroom(16, b"hello world");
        let base = copy_stats().bytes;
        let mut s = b.slice(6, 11);
        assert_eq!(s, b"world");
        s.trim_front(1);
        assert_eq!(s, b"orld");
        s.trim_back(1);
        assert_eq!(s, b"orl");
        s.truncate(2);
        assert_eq!(s, b"or");
        assert_eq!(copy_stats().bytes, base);
    }

    #[test]
    fn ones_sum_memoized_and_correct() {
        let data = b"The ones-complement sum of this payload";
        let b = PacketBuf::with_headroom(8, data);
        assert_eq!(b.ones_sum(), word_check(data));
        // A view change invalidates the memo.
        let s = b.slice(0, 4);
        assert_eq!(s.ones_sum(), word_check(&data[..4]));
    }

    #[test]
    fn build_summed_folds_checksum_into_the_copy() {
        let data: Vec<u8> = (0..=255u8).collect();
        let b = PacketBuf::build_summed(32, data.len(), |dst| {
            dst.copy_from_slice(&data);
            word_check(dst)
        });
        assert_eq!(b.ones_sum(), word_check(&data));
        assert_eq!(b, data);
    }

    #[test]
    fn clone_owned_permits_corruption() {
        let b = PacketBuf::with_headroom(8, b"pristine");
        let mut owned = b.clone_owned();
        assert!(owned.bytes_mut().is_some());
        owned.bytes_mut().unwrap()[0] ^= 0x20;
        assert_eq!(owned, b"Pristine");
        assert_eq!(b, b"pristine");
        // Shared buffers refuse mutable access.
        let c = b.clone();
        let mut shared = b.clone();
        assert!(shared.bytes_mut().is_none());
        drop(c);
    }

    #[test]
    fn equality_across_representations() {
        let a = PacketBuf::with_headroom(4, b"same");
        let b = PacketBuf::from_vec(b"same".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"same");
        assert_eq!(a, b"same".to_vec());
        assert_ne!(a, PacketBuf::from_vec(b"diff".to_vec()));
    }

    // ----- satellite: proptest against a Vec<u8> reference model -----

    proptest! {
        #[test]
        fn matches_vec_reference_model(
            initial in proptest::collection::vec(any::<u8>(), 0..64),
            headroom in 0usize..8, // small: exercises the exhaustion fallback
            ops in proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..24), 0usize..32, 0usize..32),
                0..24,
            ),
        ) {
            let mut buf = PacketBuf::with_headroom(headroom, &initial);
            let mut model = initial.clone();
            // Held clones force the contended fallback paths; each must
            // keep seeing its own frozen bytes.
            let mut aside: Vec<(PacketBuf, Vec<u8>)> = Vec::new();
            for (sel, data, a, b) in ops {
                match sel % 6 {
                    0 => {
                        buf.prepend_header(&data);
                        let mut m = data;
                        m.extend_from_slice(&model);
                        model = m;
                    }
                    1 => {
                        buf.append(&data);
                        model.extend_from_slice(&data);
                    }
                    2 => {
                        let n = a.min(model.len());
                        buf.trim_front(n);
                        model.drain(..n);
                    }
                    3 => {
                        let n = a.min(model.len());
                        buf.trim_back(n);
                        model.truncate(model.len() - n);
                    }
                    4 => {
                        let a = a.min(model.len());
                        let b = b.min(model.len()).max(a);
                        buf = buf.slice(a, b);
                        model = model[a..b].to_vec();
                    }
                    _ => {
                        aside.push((buf.clone(), model.clone()));
                    }
                }
                prop_assert_eq!(&buf, &model);
                prop_assert_eq!(buf.ones_sum(), word_check(&model));
                for (b, m) in &aside {
                    prop_assert_eq!(b, m, "held clone bytes changed under mutation");
                }
            }
        }
    }
}
