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
//! `clone` and [`PacketBuf::slice`] are refcount bumps.
//! [`PacketBuf::prepend_header`] writes into the headroom **in place**
//! when this handle is the storage's only owner, and otherwise re-homes
//! the view into storage of its own (a real, counted copy).
//!
//! ## One owner writes (no `unsafe`, no aliased mutation)
//!
//! The storage is written only through its one owner: `prepend_header`,
//! `append` and `bytes_mut` touch it iff `Rc::get_mut` succeeds, that
//! is, iff no other handle — whatever its bounds — is alive. A shared
//! buffer re-homes: the writer copies its own view into fresh storage,
//! writes there, and every other handle keeps seeing the bytes it had.
//!
//! So ownership is linear on the way down the stack. The sender stages
//! a segment's payload out of its send buffer into a buffer with
//! headroom and hands that buffer to the TCP encoder *by value*; each
//! encoder prepends into the buffer it was given and passes it on, so
//! TCP, IP and Ethernet headers and the FCS all land in the one block
//! with no payload byte moved. That needs room as well as ownership:
//! [`DEFAULT_HEADROOM`] fits the deepest stack the TCP path builds (a
//! TCP header with every option byte used, IPv4 and Ethernet: 94
//! bytes), so no prepend on the way down runs out of headroom and
//! re-homes the payload, options or not. Nothing upstream keeps a
//! handle: the bytes a retransmission needs are still in the send
//! buffer, and are staged again. On the way up sharing is read-only — each receiving
//! layer slices its payload out of the frame — and a layer that must
//! write to what it received (the router's TTL) does so in place when
//! it holds the last handle and on a private copy when it does not.
//!
//! ## Where a buffer goes when it is done
//!
//! "Done" is the last handle's drop: nothing else frees storage, and it
//! can happen anywhere — in the peer's receive path once the payload is
//! delivered, in its reassembly queue, in the simulator's fault drop, in
//! a capture or a test's filter. A block a [`BufPool`] made knows its
//! pool (a `Weak`), and that drop puts the block — its `Vec` and its
//! `Rc` both — on the pool's free list instead of freeing it; the next
//! [`BufPool::build_summed`] or [`BufPool::empty`] takes it back,
//! cleared and zero-filled to its new length, so it shows nothing of its
//! last packet and the new owner writes it in place exactly as a fresh
//! block. A block whose pool is gone, and every block the plain
//! constructors make (wire decoders, simnet, the baseline stack — code
//! with no engine), is simply freed. There is one storage type, one drop
//! path and one write discipline either way. The free list is never
//! capped: it holds at most what its engine once had outstanding at one
//! time.
//!
//! The pool is per engine — `foxtcp::Tcp::new` makes one and hands each
//! connection a handle — not per thread. Per-thread state is what the
//! `LocalKey` ban in `crates/clippy.toml` rules out; foxperf asks each
//! fresh station to repeat the warm-up's exact heap counts, which a pool
//! outliving its engines would break; and an engine's state is what a
//! shard of the engine would own.
//!
//! ## Copy accounting
//!
//! Every real payload memcpy this module performs is recorded in a
//! thread-local counter ([`copy_stats`]); callers that sit next to an
//! [`crate::obs::EventSink`] additionally emit `Event::BufCopy`. Header
//! and trailer writes (≤ ~60 bytes per layer, plain stores into
//! reserved room) are not copies and are not counted. The *virtual*
//! cost model is entirely unaffected: the `Copy` and `Checksum` work
//! the layers charge their host keeps the paper's per-KB prices at the
//! same points, so Tables 1–2 reproduce byte-for-byte while the host's
//! real memcpy traffic drops.

use crate::checksum::ones_complement_sum;
use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::{Rc, Weak};

/// Default headroom reserved in front of a payload: room for the
/// deepest header stack the TCP path builds, a TCP header with a full
/// 40-byte option space (60) + IPv4 (20) + Ethernet (14) = 94 bytes, so
/// every header goes on in place. `foxwire` asserts the sum at compile
/// time.
pub const DEFAULT_HEADROOM: usize = 96;
/// Default tailroom reserved behind a payload: Ethernet minimum-payload
/// padding (≤46) plus the 4-byte FCS.
pub const DEFAULT_TAILROOM: usize = 64;

// ----- thread-local copy accounting -----

// These counters are observational only: the virtual cost model charges
// copies independently (as `Copy` work), so nothing trace-affecting ever
// reads them — a shard seeing its own counts is exactly the intended
// per-worker accounting.
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
#[expect(clippy::disallowed_methods, reason = "diagnostic copy counters, never read by trace-affecting code")]
pub fn copy_stats() -> CopyStats {
    CopyStats { copies: COPIES.with(|c| c.get()), bytes: COPY_BYTES.with(|c| c.get()) }
}

/// Zeroes the thread's copy counters.
#[expect(clippy::disallowed_methods, reason = "diagnostic copy counters, never read by trace-affecting code")]
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

#[expect(clippy::disallowed_methods, reason = "diagnostic copy counters, never read by trace-affecting code")]
fn note_copy(bytes: usize) {
    if bytes == 0 {
        return;
    }
    COPIES.with(|c| c.set(c.get() + 1));
    COPY_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// ----- the buffer -----

/// A storage block: the bytes, and the pool they go back to when the
/// last handle on them drops — `Weak::new()` for a block no pool made,
/// which is simply freed.
struct Storage {
    bytes: RefCell<Vec<u8>>,
    home: Weak<Home>,
}

impl Storage {
    /// A block of no pool's, around `bytes`.
    fn unpooled(bytes: Vec<u8>) -> Rc<Storage> {
        Rc::new(Storage { bytes: RefCell::new(bytes), home: Weak::new() })
    }
}

/// A cheaply-cloneable view of a shared packet storage block with
/// reserved headroom. See the module docs for the discipline.
#[derive(Clone)]
pub struct PacketBuf {
    storage: Rc<Storage>,
    // The view's bounds in `storage`, 32 bits wide so a segment that
    // holds a buffer (the engine queues whole segments) stays small.
    start: u32,
    end: u32,
    /// Memoized ones-complement sum of `self[start..end]` — set by the
    /// combined copy+checksum constructors, read by the TCP encoder so
    /// the payload is summed exactly once (the paper's Fig. 10 combined
    /// pass).
    sum: Cell<Option<u16>>,
}

/// Zero-fills `storage` to `headroom + len` bytes, lets `fill` write the
/// last `len` of them (one counted copy) and views those; `fill` returns
/// their sum if it computed one. Every constructor that stages bytes
/// behind headroom, pooled or not, ends here.
fn staged(
    storage: Rc<Storage>,
    headroom: usize,
    len: usize,
    fill: impl FnOnce(&mut [u8]) -> Option<u16>,
) -> PacketBuf {
    let sum = {
        let mut bytes = storage.bytes.borrow_mut();
        bytes.resize(headroom + len, 0);
        fill(&mut bytes[headroom..])
    };
    note_copy(len);
    PacketBuf::view(storage, headroom, headroom + len, sum)
}

/// `i` as a view bound: one packet's storage is far below 4 GiB.
fn bound(i: usize) -> u32 {
    u32::try_from(i).expect("a packet buffer is smaller than 4 GiB")
}

impl PacketBuf {
    // ----- constructors -----

    /// The view `[start, end)` of `storage`.
    fn view(storage: Rc<Storage>, start: usize, end: usize, sum: Option<u16>) -> PacketBuf {
        PacketBuf { storage, start: bound(start), end: bound(end), sum: Cell::new(sum) }
    }

    /// The view `[start, end)` of `storage`, as its only handle.
    fn over(storage: Vec<u8>, start: usize, end: usize, sum: Option<u16>) -> PacketBuf {
        PacketBuf::view(Storage::unpooled(storage), start, end, sum)
    }

    fn start(&self) -> usize {
        self.start as usize
    }

    fn end(&self) -> usize {
        self.end as usize
    }

    /// An empty buffer with the default head- and tailroom.
    pub fn new() -> PacketBuf {
        PacketBuf::with_room(DEFAULT_HEADROOM, DEFAULT_TAILROOM)
    }

    /// An empty buffer with `headroom` bytes reserved in front and
    /// capacity for `tailroom` bytes behind.
    pub fn with_room(headroom: usize, tailroom: usize) -> PacketBuf {
        staged(Storage::unpooled(Vec::with_capacity(headroom + tailroom)), headroom, 0, |_| Some(0))
    }

    /// Adopts `v` as the payload with **no** copy and no headroom.
    /// Prepending to the result will take the reallocation fallback;
    /// use [`PacketBuf::with_headroom`] for buffers that descend a
    /// protocol stack.
    pub fn from_vec(v: Vec<u8>) -> PacketBuf {
        let end = v.len();
        PacketBuf::over(v, 0, end, None)
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
        let storage = Storage::unpooled(Vec::with_capacity(headroom + len + DEFAULT_TAILROOM));
        staged(storage, headroom, len, |dst| {
            fill(dst);
            None
        })
    }

    /// Like [`PacketBuf::build`], but the filler also returns the
    /// ones-complement sum of the bytes it wrote, computed *during* the
    /// copy — the paper's Fig. 10 combined copy+checksum pass. The sum
    /// is memoized so the TCP encoder never re-reads the payload.
    pub fn build_summed(headroom: usize, len: usize, fill: impl FnOnce(&mut [u8]) -> u16) -> PacketBuf {
        let storage = Storage::unpooled(Vec::with_capacity(headroom + len + DEFAULT_TAILROOM));
        staged(storage, headroom, len, |dst| Some(fill(dst)))
    }

    // ----- observers -----

    /// Bytes in this view.
    pub fn len(&self) -> usize {
        self.end() - self.start()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Headroom available in front of this view.
    pub fn headroom(&self) -> usize {
        self.start()
    }

    /// The view's bytes. The returned guard borrows the shared storage:
    /// drop it before calling any mutating operation on a view of the
    /// same buffer.
    pub fn bytes(&self) -> Ref<'_, [u8]> {
        Ref::map(self.storage.bytes.borrow(), |s| &s[self.start()..self.end()])
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

    /// True if this is the only handle to its storage.
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.storage) == 1
    }

    // ----- view surgery (zero-copy) -----

    fn set_bounds(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end);
        self.start = bound(start);
        self.end = bound(end);
        self.sum.set(None);
    }

    /// A sub-view `[from, to)` of this view (refcount bump, no copy).
    ///
    /// # Panics
    /// Panics if `from > to` or `to > self.len()`.
    pub fn slice(&self, from: usize, to: usize) -> PacketBuf {
        assert!(from <= to && to <= self.len(), "slice {from}..{to} of {}", self.len());
        let mut b = self.clone();
        b.set_bounds(self.start() + from, self.start() + to);
        b
    }

    /// Drops the first `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn trim_front(&mut self, n: usize) {
        assert!(n <= self.len());
        self.set_bounds(self.start() + n, self.end());
    }

    /// Drops the last `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn trim_back(&mut self, n: usize) {
        assert!(n <= self.len());
        self.set_bounds(self.start(), self.end() - n);
    }

    /// Shortens the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.set_bounds(self.start(), self.start() + len);
        }
    }

    // ----- mutation -----

    /// Prepends `header` in front of the view — in place into the
    /// headroom when this is the storage's only handle and the headroom
    /// suffices, otherwise by re-homing. Returns the number of payload
    /// bytes really memcpy'd: 0 for the in-place path, `self.len()`
    /// otherwise.
    pub fn prepend_header(&mut self, header: &[u8]) -> usize {
        let (n, start, end) = (header.len(), self.start(), self.end());
        match Rc::get_mut(&mut self.storage) {
            Some(storage) if start >= n => {
                storage.bytes.get_mut()[start - n..start].copy_from_slice(header);
                self.set_bounds(start - n, end);
                0
            }
            _ => self.rehome(header, &[]),
        }
    }

    /// Appends `data` behind the view — in place when this is the
    /// storage's only handle, otherwise by re-homing. Returns the
    /// payload bytes really memcpy'd (0 for the in-place path).
    pub fn append(&mut self, data: &[u8]) -> usize {
        let (n, start, end) = (data.len(), self.start(), self.end());
        match Rc::get_mut(&mut self.storage) {
            Some(storage) => {
                let storage = storage.bytes.get_mut();
                if storage.len() < end + n {
                    storage.resize(end + n, 0);
                }
                storage[end..end + n].copy_from_slice(data);
                self.set_bounds(start, end + n);
                0
            }
            None => self.rehome(&[], data),
        }
    }

    /// Moves the view into storage of its own — default head- and
    /// tailroom, `front` before the view's bytes and `back` behind them
    /// — leaving every other handle of the old storage as it was.
    /// Returns the view's bytes copied (counted).
    fn rehome(&mut self, front: &[u8], back: &[u8]) -> usize {
        let copied = self.len();
        let len = front.len() + copied + back.len();
        let mut storage = Vec::with_capacity(DEFAULT_HEADROOM + len + DEFAULT_TAILROOM);
        storage.resize(DEFAULT_HEADROOM, 0);
        storage.extend_from_slice(front);
        storage.extend_from_slice(&self.bytes());
        storage.extend_from_slice(back);
        note_copy(copied);
        *self = PacketBuf::over(storage, DEFAULT_HEADROOM, DEFAULT_HEADROOM + len, None);
        copied
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
        PacketBuf::from_vec(self.bytes().to_vec())
    }

    /// Mutable access to the view's bytes, only when this is the sole
    /// handle to its storage (e.g. right after [`clone_owned`]).
    /// Invalidates the memoized sum.
    ///
    /// [`clone_owned`]: PacketBuf::clone_owned
    pub fn bytes_mut(&mut self) -> Option<std::cell::RefMut<'_, [u8]>> {
        if !self.is_unique() {
            return None;
        }
        self.sum.set(None);
        Some(std::cell::RefMut::map(self.storage.bytes.borrow_mut(), |s| &mut s[self.start()..self.end()]))
    }
}

impl Drop for PacketBuf {
    /// The last handle on a pooled block sends the block home — its
    /// `Vec` and its `Rc` both — if the pool is still there to take it.
    fn drop(&mut self) {
        if Rc::strong_count(&self.storage) == 1 {
            if let Some(home) = self.storage.home.upgrade() {
                home.free.borrow_mut().push(Rc::clone(&self.storage));
            }
        }
    }
}

impl Default for PacketBuf {
    fn default() -> Self {
        PacketBuf::new()
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
        (Rc::ptr_eq(&self.storage, &other.storage) && self.start == other.start && self.end == other.end)
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

// ----- the pool -----

/// What a pool's handles share, and what its blocks point home to.
struct Home {
    /// Blocks whose last handle dropped, the last to come home on top.
    free: RefCell<Vec<Rc<Storage>>>,
    /// Blocks this pool has ever made.
    made: Cell<usize>,
}

/// One engine's recycled packet storage: [`PacketBuf`]s built here come
/// back when their last handle drops, wherever that happens, and the
/// next build reuses them — so once the pool holds as many blocks as
/// the engine ever had outstanding at once, a segment costs no heap
/// call. Cloning is a refcount bump; every clone is the same pool.
#[derive(Clone)]
pub struct BufPool {
    home: Rc<Home>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool { home: Rc::new(Home { free: RefCell::new(Vec::new()), made: Cell::new(0) }) }
    }

    /// [`PacketBuf::build_summed`], in a block from this pool.
    pub fn build_summed(
        &self,
        headroom: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> u16,
    ) -> PacketBuf {
        staged(self.block(headroom + len + DEFAULT_TAILROOM), headroom, len, |dst| Some(fill(dst)))
    }

    /// [`PacketBuf::new`], in a block from this pool.
    pub fn empty(&self) -> PacketBuf {
        staged(self.block(DEFAULT_HEADROOM + DEFAULT_TAILROOM), DEFAULT_HEADROOM, 0, |_| Some(0))
    }

    /// Blocks this pool has made: the most it has had outstanding at
    /// once.
    pub fn made(&self) -> usize {
        self.home.made.get()
    }

    /// Blocks at home, waiting to be reused.
    pub fn free(&self) -> usize {
        self.home.free.borrow().len()
    }

    /// A free block, emptied, with room for `room` bytes — or a new
    /// one. What a block held before never shows: [`staged`] zero-fills
    /// whatever its filler does not write.
    fn block(&self, room: usize) -> Rc<Storage> {
        let reused = self.home.free.borrow_mut().pop();
        let block = reused.unwrap_or_else(|| {
            self.home.made.set(self.home.made.get() + 1);
            Rc::new(Storage { bytes: RefCell::new(Vec::new()), home: Rc::downgrade(&self.home) })
        });
        {
            let mut bytes = block.bytes.borrow_mut();
            bytes.clear();
            bytes.reserve(room);
        }
        block
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
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
    fn shared_handle_rehomes_on_prepend_and_append_then_writes_in_place() {
        reset_copy_stats();
        let b = PacketBuf::with_headroom(32, b"shared-bytes");
        let base = copy_stats();
        let mut down = b.clone();
        assert_eq!(copy_stats(), base, "clone copies nothing");
        assert!(!down.is_unique());
        // Headroom or not, a shared buffer is never written: the writer
        // moves out, and the handle left behind sees what it always saw.
        assert_eq!(down.prepend_header(b"IP"), b.len(), "shared prepend re-homes");
        assert_eq!(copy_stats().copies, base.copies + 1);
        assert!(down.is_unique() && b.is_unique());
        assert_eq!(down.prepend_header(b"ETH"), 0, "its own storage now");
        assert_eq!(down.append(b"FCS"), 0);
        assert_eq!(down, b"ETHIPshared-bytesFCS");
        assert_eq!(b, b"shared-bytes");

        let mut tail = b.slice(7, 12);
        assert_eq!(tail.append(b"!"), 5, "shared append re-homes");
        assert_eq!(tail.append(b"!"), 0);
        assert_eq!(tail.prepend_header(b">"), 0);
        assert_eq!(tail, b">bytes!!");
        assert_eq!(b, b"shared-bytes");
        assert_eq!(copy_stats().copies, base.copies + 2);
    }

    #[test]
    fn lone_buffer_takes_every_header_and_the_fcs_in_place() {
        // The way down: staged once, handed on by value, never shared.
        let mut frame = PacketBuf::with_headroom(DEFAULT_HEADROOM, b"ping");
        reset_copy_stats();
        assert_eq!(frame.prepend_header(&[0u8; 60]), 0); // TCP, every option byte used
        assert_eq!(frame.prepend_header(&[1u8; 20]), 0); // IP
        assert_eq!(frame.prepend_header(&[2u8; 14]), 0); // Ethernet
        assert_eq!(frame.append(&[3u8; 4]), 0); // FCS
        assert_eq!(copy_stats(), CopyStats::default(), "zero payload bytes moved");
        assert_eq!(frame.len(), 94 + 4 + 4);
        assert_eq!(frame.slice(94, 98), b"ping");
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

    // ----- the pool -----

    /// `data` staged behind `headroom` in a block of `pool`.
    fn pooled(pool: &BufPool, headroom: usize, data: &[u8]) -> PacketBuf {
        pool.build_summed(headroom, data.len(), |dst| {
            dst.copy_from_slice(data);
            word_check(dst)
        })
    }

    #[test]
    fn a_dropped_block_is_the_next_one_taken() {
        let pool = BufPool::new();
        let first = pooled(&pool, DEFAULT_HEADROOM, b"first");
        let at = first.bytes().as_ptr();
        drop(first);
        assert_eq!((pool.made(), pool.free()), (1, 1));
        let again = pool.empty();
        assert_eq!((pool.made(), pool.free()), (1, 0));
        assert_eq!(again.bytes().as_ptr(), at, "the same storage, the same view start");
        assert!(again.is_empty() && again.is_unique());
        assert_eq!((again.headroom(), again.ones_sum()), (DEFAULT_HEADROOM, 0), "as PacketBuf::new");
    }

    #[test]
    fn a_recycled_block_shows_nothing_of_its_last_packet() {
        let pool = BufPool::new();
        let mut old = pooled(&pool, DEFAULT_HEADROOM, &[0xAA; 300]);
        assert_eq!(old.prepend_header(&[0xAA; 54]), 0);
        assert_eq!(old.append(&[0xAA; 40]), 0);
        drop(old);

        let mut new = pooled(&pool, DEFAULT_HEADROOM, b"short");
        assert_eq!(pool.made(), 1, "the same block");
        assert_eq!(new.append_zeros(41), 0, "written in place");
        assert_eq!(new.prepend_header(&[1; 14]), 0, "written in place");
        let mut want = vec![1; 14];
        want.extend_from_slice(b"short");
        want.extend_from_slice(&[0; 41]);
        assert_eq!(new, want);
        assert_eq!(new.ones_sum(), word_check(&want));
        // Not in the view and not in the headroom in front of it either.
        assert!(!new.storage.bytes.borrow().contains(&0xAA), "a byte of the last packet shows");
    }

    #[test]
    fn a_shared_block_goes_home_with_its_last_handle() {
        let pool = BufPool::new();
        let frame = pooled(&pool, DEFAULT_HEADROOM, b"header+payload");
        let payload = frame.slice(7, 14);
        let copy = frame.clone();
        drop(frame);
        assert_eq!(pool.free(), 0, "two handles left");
        drop(copy);
        assert_eq!(pool.free(), 0, "the payload's slice still reads it");
        assert_eq!(payload, b"payload");
        drop(payload);
        assert_eq!((pool.made(), pool.free()), (1, 1));
    }

    #[test]
    fn a_block_that_outlives_its_pool_is_freed() {
        let pool = BufPool::new();
        let mut survivor = pooled(&pool, DEFAULT_HEADROOM, b"late");
        let twin = pool.clone();
        drop(pool);
        drop(pooled(&twin, 8, b"home"));
        assert_eq!(twin.free(), 1, "a clone is the same pool");
        drop(twin); // the engine goes first
        assert_eq!(survivor.prepend_header(b"still "), 0, "still this handle's to write");
        assert_eq!(survivor, b"still late");
        let copy = survivor.clone();
        drop(survivor);
        drop(copy); // no home to go to: freed
    }

    // ----- satellite: proptest against a Vec<u8> reference model -----

    /// Applies view operation `sel` (0 to 4: prepend, append, trim front,
    /// trim back, slice) to `buf` and to its reference `model`.
    fn apply(buf: &mut PacketBuf, model: &mut Vec<u8>, sel: u8, data: Vec<u8>, a: usize, b: usize) {
        match sel {
            0 => {
                buf.prepend_header(&data);
                let mut m = data;
                m.extend_from_slice(model);
                *model = m;
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
            _ => {
                let a = a.min(model.len());
                let b = b.min(model.len()).max(a);
                *buf = buf.slice(a, b);
                *model = model[a..b].to_vec();
            }
        }
    }

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
                    5 => aside.push((buf.clone(), model.clone())),
                    sel => apply(&mut buf, &mut model, sel, data, a, b),
                }
                prop_assert_eq!(&buf, &model);
                prop_assert_eq!(buf.ones_sum(), word_check(&model));
                for (b, m) in &aside {
                    prop_assert_eq!(b, m, "held clone bytes changed under mutation");
                }
            }
        }

        /// The same model over pooled blocks, with handles dropped and
        /// blocks re-taken along the way: a block that went home and came
        /// back shows only what its new owner wrote, a held handle keeps
        /// its bytes however its block's other handles come and go, and
        /// once every handle is gone every block is home.
        #[test]
        fn pooled_blocks_match_the_vec_reference_model(
            initial in proptest::collection::vec(any::<u8>(), 0..64),
            ops in proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..24), 0usize..32, 0usize..32),
                0..32,
            ),
        ) {
            let pool = BufPool::new();
            let mut buf = pooled(&pool, DEFAULT_HEADROOM, &initial);
            let mut model = initial.clone();
            let mut aside: Vec<(PacketBuf, Vec<u8>)> = Vec::new();
            for (sel, data, a, b) in ops {
                match sel % 8 {
                    5 => aside.push((buf.clone(), model.clone())),
                    6 => {
                        if !aside.is_empty() {
                            aside.remove(a % aside.len());
                        }
                    }
                    7 => {
                        // Done with this one: it may go home before the
                        // next is taken, and be that next one.
                        drop(std::mem::take(&mut buf));
                        buf = pooled(&pool, a % 8, &data);
                        model = data;
                    }
                    sel => apply(&mut buf, &mut model, sel, data, a, b),
                }
                prop_assert_eq!(&buf, &model);
                prop_assert_eq!(buf.ones_sum(), word_check(&model));
                for (b, m) in &aside {
                    prop_assert_eq!(b, m, "held clone bytes changed under drops and re-takes");
                }
            }
            drop(buf);
            drop(aside);
            prop_assert_eq!(pool.free(), pool.made(), "a block never came home");
        }
    }
}
