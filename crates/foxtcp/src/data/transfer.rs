//! The data-path half of SEGMENT-ARRIVES, the seams control uses to
//! drive it, and the receive side's records.
//!
//! [`crate::control::segment`] owns the RFC 793 branch structure and
//! every `TcpState` write; the checks that move sequence numbers,
//! windows, and bytes — PAWS/timestamps, sequence acceptability, the
//! send-window update rule, text processing, urgent pointers — live
//! here, inside [`crate::data`], the only place the TCB's sequence
//! space can be written. The two halves communicate narrowly:
//!
//! * control hands data an [`EstablishedHandle`] (minted next to the
//!   `TcpState::Estab` write, nowhere else) to run [`establish`], the
//!   data-path half of the transition;
//! * data reports stream-level events back as [`DataEvent`]s — e.g.
//!   [`consume_fin`] advances `rcv_nxt` over a FIN and returns
//!   [`DataEvent::FinReceived`]; *control* then decides which closing
//!   state that implies. Nothing in this module writes `TcpState`.
//!
//! Three of the TCB's records are this module's, fields and all —
//! [`Negotiated`], [`RecvSide`] and [`AckClock`] — so every decision
//! about them is made here: ACK now or later, which options a header
//! wears, and when a window update goes out.

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::action::TcpAction;
use crate::control::EstablishedHandle;
use crate::data::send;
use crate::data::tcb::Tcb;
use crate::{congestion, ConnCore, TcpConfig, TcpState};
use foxbasis::buf::PacketBuf;
use foxbasis::obs::TimerKind;
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxwire::tcp::{SackBlocks, TcpHeader, TcpOption, TcpSegment, WireWindow};
use foxwire::WireError;
use std::collections::VecDeque;

/// What the data path observed while consuming a segment — reported
/// back to control, which alone maps stream events onto state
/// transitions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum DataEvent {
    /// The peer's FIN was consumed at the left window edge: no more
    /// data will arrive on this stream.
    FinReceived,
}

/// What the two SYNs agreed: built from [`TcpConfig`]'s offers when the
/// connection is made, finished by the peer's SYN
/// ([`note_peer_syn`]) and read-only after that. An option is on only
/// when both sides carried it (RFC 7323 §2.5, RFC 2018 §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Negotiated {
    /// Effective maximum segment size for sending: ours until the
    /// peer's SYN says less.
    mss: u32,
    /// Offer window scaling on our SYN (from [`TcpConfig`]).
    offer_wscale: bool,
    /// Offer SACK on our SYN.
    offer_sack: bool,
    /// Offer timestamps on our SYN.
    offer_ts: bool,
    /// True once *both* sides carried the window-scale option on their
    /// SYNs. Until then every window stays 16-bit.
    wscale_on: bool,
    /// The shift the peer applies to windows it advertises (their SYN's
    /// option value). Meaningful only when `wscale_on`.
    snd_wscale: u8,
    /// The shift we apply to windows we advertise (picked from our
    /// receive-buffer size at construction).
    rcv_wscale: u8,
    /// True once both SYNs carried SACK-permitted.
    sack_on: bool,
    /// True once both SYNs carried the timestamps option.
    ts_on: bool,
}

impl Negotiated {
    /// What a connection configured by `cfg` offers, with `mss` as its
    /// segment size; nothing is on yet.
    pub(crate) fn new(cfg: &TcpConfig, mss: u32) -> Negotiated {
        Negotiated {
            mss,
            offer_wscale: cfg.window_scale,
            offer_sack: cfg.sack,
            offer_ts: cfg.timestamps,
            wscale_on: false,
            snd_wscale: 0,
            rcv_wscale: if cfg.window_scale { foxwire::tcp::wscale_for(cfg.initial_window) } else { 0 },
            sack_on: false,
            ts_on: false,
        }
    }

    /// Effective maximum segment size for sending.
    pub fn mss(&self) -> u32 {
        self.mss
    }

    /// The largest payload a data segment may carry: the MSS less the
    /// option bytes every data segment wears. The MSS never accounts
    /// for options (RFC 6691 §3), so the sender subtracts them here — a
    /// timestamped "full" segment sized by the raw MSS would overflow
    /// the link MTU by exactly the option's 12 bytes and fragment. Only
    /// timestamps ride on data segments; the SYN-only options and the
    /// receiver's SACK blocks never do.
    pub fn eff_mss(&self) -> u32 {
        if self.ts_on {
            self.mss.saturating_sub(foxwire::tcp::TIMESTAMPS_SEGMENT_OVERHEAD).max(1)
        } else {
            self.mss
        }
    }

    /// True once both SYNs carried SACK-permitted (RFC 2018).
    pub fn sack_on(&self) -> bool {
        self.sack_on
    }

    /// True once both SYNs carried the timestamps option (RFC 7323).
    pub fn ts_on(&self) -> bool {
        self.ts_on
    }

    /// The shift applied to windows we advertise (0 unless negotiated).
    pub fn adv_wscale(&self) -> u8 {
        if self.wscale_on {
            self.rcv_wscale
        } else {
            0
        }
    }

    /// The shift applied to windows the peer advertises (0 unless
    /// negotiated).
    pub fn snd_shift(&self) -> u8 {
        if self.wscale_on {
            self.snd_wscale
        } else {
            0
        }
    }

    /// A peer-advertised window field, widened by the negotiated shift.
    /// Windows carried on SYN segments are never scaled.
    pub fn scale_peer_window(&self, window: WireWindow, syn: bool) -> u32 {
        let shift = if syn { 0 } else { self.snd_shift() };
        u32::from(window) << shift
    }
}

/// The receive buffer as accounting: a capacity and how many bytes of it
/// accepted-but-undelivered data holds. No bytes are stored — accepted
/// payload rides to the user inside [`TcpAction::UserData`], queued in
/// the same step that accepts it and released ([`RecvAccount::skip`])
/// when the engine executes that action — so the window arithmetic is a
/// byte ring's, without the ring.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RecvAccount {
    capacity: usize,
    held: usize,
}

impl RecvAccount {
    /// Accounting for a receive buffer of `capacity` bytes, empty.
    pub fn new(capacity: usize) -> RecvAccount {
        RecvAccount { capacity, held: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free space: the window to advertise.
    pub fn free(&self) -> usize {
        self.capacity - self.held
    }

    /// Accepts as many of `n` offered bytes as fit; returns how many.
    pub fn take(&mut self, n: usize) -> usize {
        let n = n.min(self.free());
        self.held += n;
        n
    }

    /// Releases up to `n` held bytes (the user took them); returns how
    /// many.
    pub fn skip(&mut self, n: usize) -> usize {
        let n = n.min(self.held);
        self.held -= n;
        n
    }
}

/// The receive side of a connection: what the buffer holds, what waits
/// out of order, and the peer's timestamp to echo.
#[derive(Clone, PartialEq, Default)]
pub struct RecvSide {
    /// Receive-buffer accounting: how much of the advertised buffer
    /// in-order data queued for delivery currently holds.
    recv_buf: RecvAccount,
    /// Out-of-order segments (paper: `out_of_order: tcp_in Q.T ref`),
    /// sorted by sequence number and trimmed on insert so that no two
    /// overlap; `bool` marks a FIN carried by the segment. Entries hold
    /// the received [`PacketBuf`] itself, so queueing a segment out of
    /// order costs a refcount bump, not a copy. Bounded three ways by
    /// [`Tcb::insert_out_of_order`].
    out_of_order: VecDeque<(Seq, PacketBuf, bool)>,
    /// Where the segment queued most recently starts — the one whose
    /// range RFC 2018 §4 wants reported first.
    last_queued: Option<Seq>,
    /// `TS.Recent` — the peer timestamp we echo in TSecr, updated by the
    /// RFC 7323 rule and consulted by the PAWS check.
    ts_recent: u32,
    /// TSecr of the most recent acceptable ACK, handed to
    /// `resend::process_ack` for an RTTM sample by
    /// [`RecvSide::take_ts_ecr`]; 0, which no echo is stashed as, when
    /// none is pending.
    ts_ecr_pending: u32,
}

impl RecvSide {
    /// An empty receive side for a buffer of `recv_buffer` bytes.
    pub(crate) fn new(recv_buffer: usize) -> RecvSide {
        RecvSide { recv_buf: RecvAccount::new(recv_buffer.max(1)), ..RecvSide::default() }
    }

    /// Makes this receive side what [`RecvSide::new`] makes for a
    /// buffer of `recv_buffer` bytes, keeping the storage the
    /// reassembly queue has grown, as `SendSide::reset` does its queues'.
    pub(crate) fn reset(&mut self, recv_buffer: usize) {
        self.out_of_order.clear();
        let out_of_order = std::mem::take(&mut self.out_of_order);
        *self = RecvSide { out_of_order, ..RecvSide::new(recv_buffer) };
    }

    /// The reassembly queue: `(seq, bytes, FIN)`, ascending, disjoint.
    pub fn out_of_order(&self) -> &VecDeque<(Seq, PacketBuf, bool)> {
        &self.out_of_order
    }

    /// The merged contiguous ranges the reassembly queue holds, in
    /// ascending order. Entries never overlap, so two belong to one
    /// range exactly when the first ends where the second starts.
    pub fn out_of_order_ranges(&self) -> impl Iterator<Item = (Seq, Seq)> + '_ {
        let mut entries = self.out_of_order.iter().peekable();
        std::iter::from_fn(move || {
            let first = entries.next()?;
            let mut end = ooo_end(first);
            while let Some(next) = entries.next_if(|next| next.0 == end) {
                end = ooo_end(next);
            }
            Some((first.0, end))
        })
    }

    /// Up to three SACK blocks describing the out-of-order queue
    /// (RFC 2018): merged contiguous ranges above `rcv_nxt`. The range
    /// holding the segment queued most recently comes first — §4's MUST
    /// for the ACK that segment triggers, and with four or more holes
    /// the only way the sender ever hears of the newest data; the rest
    /// follow in ascending order, which keeps the report deterministic.
    pub fn sack_blocks_to_send(&self) -> SackBlocks {
        let newest =
            self.last_queued.and_then(|q| self.out_of_order_ranges().find(|(s, e)| s.le(q) && q.lt(*e)));
        let rest = self.out_of_order_ranges().filter(|r| Some(*r) != newest);
        newest.into_iter().chain(rest).take(3).collect()
    }

    /// The stashed timestamp echo, once: the one hand-off from here to
    /// `resend::process_ack`.
    pub(in crate::data) fn take_ts_ecr(&mut self) -> Option<u32> {
        Some(std::mem::take(&mut self.ts_ecr_pending)).filter(|&ecr| ecr != 0)
    }

    /// The connection is gone: nothing waits for reassembly.
    pub(in crate::data) fn discard(&mut self) {
        self.out_of_order.clear();
    }
}

/// The delayed-ACK bookkeeping: whether an ACK is owed, how much arrived
/// since the last one, and the window the peer last saw.
#[derive(Clone, PartialEq, Default)]
pub(crate) struct AckClock {
    /// True if an ACK is owed but deferred behind the ack timer.
    ack_pending: bool,
    /// Bytes received since the last ACK we sent.
    bytes_since_ack: u32,
    /// Data segments received since the last ACK we sent (BSD's
    /// ack-every-other-segment policy).
    segs_since_ack: u32,
    /// The receive window we most recently advertised on the wire. When
    /// the application consumes data and the real window exceeds this by
    /// two segments (or half the buffer), a window-update ACK goes out —
    /// BSD's rule, and the thing that un-sticks a peer that saw zero.
    last_adv_wnd: u32,
}

impl AckClock {
    /// Nothing owed, and the peer presumed to know a whole buffer.
    pub(crate) fn new(recv_buffer: usize) -> AckClock {
        AckClock { last_adv_wnd: recv_buffer.clamp(1, 65535) as u32, ..AckClock::default() }
    }

    /// A segment acknowledging everything received is staged: nothing
    /// is owed any more, whichever segment carries the ACK.
    pub(in crate::data) fn acked(&mut self) {
        *self = AckClock { last_adv_wnd: self.last_adv_wnd, ..AckClock::default() };
    }
}

/// Maximum disjoint *ranges* (so: holes) the reassembly queue tracks —
/// the contiguous-range cap of smoltcp's assembler at its upper
/// configuration. A range is any run of queued segments with no gap
/// between them, however many segments it took to build.
pub const MAX_OUT_OF_ORDER: usize = 32;

/// One past the last sequence number a queued out-of-order entry
/// occupies (its FIN takes one).
fn ooo_end((seq, data, fin): &(Seq, PacketBuf, bool)) -> Seq {
    *seq + data.len() as u32 + u32::from(*fin)
}

impl Tcb {
    /// The receive window we advertise: free space in the receive
    /// buffer, capped at what the 16-bit field can carry under the
    /// negotiated shift. Without window scaling this is exactly the
    /// classic `min(free, 65535)`; with it, the value is what the peer
    /// reconstructs after the wire round-trip (rounded down to the
    /// shift granularity), so acceptance checks and advertisements
    /// always agree.
    pub fn rcv_wnd(&self) -> u32 {
        let shift = self.neg.adv_wscale();
        u32::from(foxwire::tcp::wire_window(self.rcv.recv_buf.free() as u32, shift)) << shift
    }

    /// The 16-bit window field for an outgoing header. A SYN's window is
    /// never scaled (RFC 7323 §2.2), so the shift only applies after the
    /// handshake. The narrowing is [`foxwire::tcp::wire_window`]'s, the
    /// one constructor of the field's type.
    pub fn wire_window_field(&self, syn: bool) -> WireWindow {
        let shift = if syn { 0 } else { self.neg.adv_wscale() };
        foxwire::tcp::wire_window(self.rcv.recv_buf.free() as u32, shift)
    }

    /// Puts on `h` the options a header with its flags wears — the one
    /// place any of them is decided. A SYN carries the MSS, then, per
    /// option, what we offer (our SYN) or what the peer's SYN agreed to
    /// (a SYN+ACK: an option the peer withheld is cleanly omitted, RFC
    /// 7323 §2.5), with timestamps last; any later segment carries
    /// timestamps once they are agreed, and then, when `sack` asks for
    /// them, SACK blocks describing the reassembly queue.
    pub(crate) fn push_options(
        &self,
        h: &mut TcpHeader,
        our_mss: u32,
        sack: bool,
        now: VirtualTime,
    ) -> Result<(), WireError> {
        let (n, f, o) = (&self.neg, h.flags, &mut h.options);
        let ours = f.syn && !f.ack;
        if f.syn {
            o.push(TcpOption::MaxSegmentSize(our_mss.min(65535) as u16))?;
            if if ours { n.offer_wscale } else { n.wscale_on } {
                o.push(TcpOption::WindowScale(n.rcv_wscale))?;
            }
            if if ours { n.offer_sack } else { n.sack_on } {
                o.push(TcpOption::SackPermitted)?;
            }
        }
        if if ours { n.offer_ts } else { n.ts_on } {
            o.push(TcpOption::Timestamps(send::ts_val(now), self.rcv.ts_recent))?;
        }
        if sack && f.ack && !f.syn && n.sack_on {
            let blocks = self.rcv.sack_blocks_to_send();
            if !blocks.is_empty() {
                o.push(TcpOption::Sack(blocks))?;
            }
        }
        Ok(())
    }

    /// Remembers the window the peer believes once `h` is on the wire
    /// (post-scaling; a SYN's goes out unscaled): what [`user_took`]'s
    /// rule compares against. Only a segment with an ACK advertises one.
    pub(crate) fn note_advertised(&mut self, h: &TcpHeader) {
        if h.flags.ack {
            let shift = if h.flags.syn { 0 } else { self.neg.adv_wscale() };
            self.clock.last_adv_wnd = u32::from(h.window) << shift;
        }
    }

    /// True if `len` in-order bytes fit the receive buffer whole and
    /// nothing waits in reassembly: the fast path's receive prediction.
    pub(in crate::data) fn fits_in_order(&self, len: usize) -> bool {
        self.rcv.recv_buf.free() >= len && self.rcv.out_of_order.is_empty()
    }

    /// The most segments the reassembly queue will hold: twice what a
    /// window of full-sized segments needs (and never fewer than two,
    /// however small the window). Without it a flood of
    /// one-byte segments would pin a whole frame's storage per byte of
    /// window.
    pub fn max_out_of_order_entries(&self) -> usize {
        (2 * self.rcv.recv_buf.capacity() / self.neg.mss.max(1) as usize).max(2)
    }

    /// Queues an out-of-order segment. The part of it the queue already
    /// holds is trimmed away (a zero-copy narrowing of the view), queued
    /// segments it wholly covers are replaced by it, and it is refused —
    /// the sender will retransmit — if it would take the queue past any
    /// of its three bounds: [`MAX_OUT_OF_ORDER`] ranges,
    /// `recv_buf.capacity()` bytes, [`Tcb::max_out_of_order_entries`]
    /// segments. Short of those the queue keeps everything that falls in
    /// the window the receiver advertised, because the sender was told
    /// it would.
    pub(crate) fn insert_out_of_order(&mut self, seq: Seq, data: impl Into<PacketBuf>, fin: bool) {
        let mut new = (seq, data.into(), fin);
        let q = &self.rcv.out_of_order;
        let at = q.partition_point(|(s, _, _)| s.le(seq));
        let pred_end = at.checked_sub(1).and_then(|p| q.get(p)).map(ooo_end);
        if let Some(pred_end) = pred_end.filter(|e| e.gt(seq)) {
            let cut = (pred_end.since(seq) as usize).min(new.1.len());
            new.1.trim_front(cut);
            new.0 += cut as u32;
            if pred_end.gt(new.0) {
                return; // nothing the predecessor lacks
            }
        }
        // Successors `at..hi` lie wholly inside the new segment; the one
        // after them may overlap its tail.
        let mut hi = at;
        while q.get(hi).is_some_and(|next| ooo_end(next).le(ooo_end(&new))) {
            hi += 1;
        }
        if let Some(next) = q.get(hi).filter(|next| next.0.lt(ooo_end(&new))) {
            new.1.truncate(next.0.since(new.0) as usize);
            new.2 = false;
        }
        if new.1.is_empty() && !new.2 {
            return;
        }
        let covered: usize = q.range(at..hi).map(|(_, d, _)| d.len()).sum();
        let held: usize = q.iter().map(|(_, d, _)| d.len()).sum();
        let opens_a_range =
            hi == at && pred_end != Some(new.0) && q.get(hi).is_none_or(|next| next.0 != ooo_end(&new));
        if q.len() - (hi - at) >= self.max_out_of_order_entries()
            || held - covered + new.1.len() > self.rcv.recv_buf.capacity()
            || (opens_a_range && self.rcv.out_of_order_ranges().count() >= MAX_OUT_OF_ORDER)
        {
            return;
        }
        self.rcv.out_of_order.drain(at..hi);
        self.rcv.last_queued = Some(new.0);
        self.rcv.out_of_order.insert(at, new);
    }

    /// Hands the user every queued segment that is now in order, as far
    /// as `recv_buf` has room: one [`TcpAction::UserData`] per queued
    /// buffer, never one concatenation of the run — the queue may hold a
    /// whole window. Returns (bytes delivered, FIN reached).
    fn drain_out_of_order(&mut self) -> (usize, bool) {
        let mut delivered = 0;
        while let Some((s, mut d, fin)) = self.rcv.out_of_order.pop_front() {
            if !s.le(self.rcv_nxt) {
                self.rcv.out_of_order.push_front((s, d, fin));
                break;
            }
            let stale = self.rcv_nxt.since(s) as usize;
            if stale > d.len() {
                continue; // wholly stale duplicate
            }
            d.trim_front(stale);
            let took = self.rcv.recv_buf.take(d.len());
            self.rcv_nxt += took as u32;
            delivered += took;
            let full = took < d.len();
            if full {
                // Receive buffer full: the tail waits at the head of the
                // queue — a zero-copy slice of the same storage.
                self.rcv.out_of_order.push_front((self.rcv_nxt, d.slice(took, d.len()), fin));
                d.truncate(took);
            }
            if !d.is_empty() {
                // The user-boundary copy, as on the in-order path.
                self.push_action(TcpAction::UserData(d.bytes().to_vec()));
            }
            if full {
                break;
            }
            if fin {
                return (delivered, true); // all of the segment's data consumed: FIN is next
            }
        }
        (delivered, false)
    }

    /// The receive side's share of [`Tcb::check_invariants`]: the
    /// window and the buffer's charge within its capacity, and the
    /// reassembly queue sorted, no two entries overlapping, and inside
    /// all three of its bounds.
    pub(in crate::data) fn check_recv_side(&self) {
        let r = &self.rcv;
        assert!(self.rcv_wnd() as usize <= r.recv_buf.capacity, "window over capacity");
        assert!(
            r.recv_buf.held <= r.recv_buf.capacity,
            "receive buffer holds {} of {}",
            r.recv_buf.held,
            r.recv_buf.capacity
        );
        let q = &r.out_of_order;
        for (a, b) in q.iter().zip(q.iter().skip(1)) {
            assert!(ooo_end(a).le(b.0), "reassembly queue overlaps: ..{} then {}..", ooo_end(a), b.0);
        }
        let ranges = r.out_of_order_ranges().count();
        assert!(ranges <= MAX_OUT_OF_ORDER, "reassembly queue holds {ranges} ranges");
        let bytes: usize = q.iter().map(|(_, d, _)| d.len()).sum();
        assert!(bytes <= r.recv_buf.capacity, "reassembly queue holds {bytes} bytes");
        assert!(q.len() <= self.max_out_of_order_entries(), "reassembly queue holds {} entries", q.len());
    }
}

/// SYN-time option negotiation (RFC 7323 §2.5, RFC 2018 §2), the one
/// write of [`Negotiated`] after construction: the MSS drops to the
/// peer's, and an option turns on only when *we* offered it (config)
/// *and* the peer's SYN (or SYN+ACK) carries it. A withheld option is
/// cleanly off — every window stays 16-bit, no SACK blocks are sent or
/// consumed, no timestamps ride on segments.
fn negotiate_syn_options(core: &mut ConnCore, h: &TcpHeader) {
    debug_assert!(h.flags.syn);
    let (n, rcv) = (&mut core.tcb.neg, &mut core.tcb.rcv);
    if let Some(mss) = h.mss() {
        n.mss = n.mss.min(u32::from(mss)).max(1);
    }
    if let Some(shift) = h.wscale() {
        if n.offer_wscale {
            n.wscale_on = true;
            n.snd_wscale = shift;
        }
    }
    if h.sack_permitted() && n.offer_sack {
        n.sack_on = true;
    }
    if let Some((tsval, _)) = h.timestamps() {
        if n.offer_ts {
            n.ts_on = true;
            rcv.ts_recent = tsval;
        }
    }
}

/// Adopts the peer's SYN into the TCB: "set RCV.NXT to SEG.SEQ+1, IRS
/// is set to SEG.SEQ", and the SYN-time negotiation. Control calls this
/// from both LISTEN and SYN-SENT processing; the state transition it
/// precedes stays on the control side.
pub(crate) fn note_peer_syn(core: &mut ConnCore, h: &TcpHeader) {
    debug_assert!(h.flags.syn);
    core.tcb.irs = h.seq;
    core.tcb.rcv_nxt = h.seq + 1;
    negotiate_syn_options(core, h);
}

/// First sight of the peer's send window, from its SYN (passive side).
/// A SYN's window is never scaled (RFC 7323 §2.2); `SND.WL2` starts at
/// zero because the SYN acknowledged nothing.
pub(crate) fn init_window_from_syn(core: &mut ConnCore, h: &TcpHeader) {
    let tcb = &mut core.tcb;
    tcb.snd_wnd = u32::from(h.window);
    tcb.snd_wl1 = h.seq;
    tcb.snd_wl2 = Seq(0);
}

/// Stashes the timestamp echo a SYN+ACK carries so the imminent
/// `process_ack` can take the connection's first RTTM sample from it.
pub(crate) fn stash_syn_ack_echo(core: &mut ConnCore, h: &TcpHeader) {
    if let Some((_, ecr)) = h.timestamps().filter(|&(_, ecr)| core.tcb.neg.ts_on && ecr != 0) {
        core.tcb.rcv.ts_ecr_pending = ecr;
    }
}

/// The data-path half of becoming ESTABLISHED: adopt the peer's send
/// window from the establishing segment and open the congestion window.
/// `scaled` is false when the window arrives on a SYN+ACK (SYN windows
/// are never scaled) and true for the handshake-completing pure ACK.
///
/// Demands an [`EstablishedHandle`], which only the control path can
/// mint — the type system's way of saying the transition decision was
/// made on the other side of the boundary.
pub(crate) fn establish(
    cfg: &TcpConfig,
    core: &mut ConnCore,
    h: &TcpHeader,
    scaled: bool,
    _proof: EstablishedHandle,
) {
    let wnd = if scaled { core.tcb.neg.scale_peer_window(h.window, false) } else { u32::from(h.window) };
    let tcb = &mut core.tcb;
    tcb.snd_wnd = wnd;
    tcb.snd_wl1 = h.seq;
    tcb.snd_wl2 = h.ack;
    if cfg.congestion_control {
        // Initial congestion window: one MSS (Jacobson's 1988 slow
        // start, as 1994 practice had it), behind the seam.
        congestion::init(&mut core.tcb);
    }
}

/// Sixth check: the URG bit (RFC 793 p. 73). We advance `RCV.UP` and
/// tell the user once per urgent region; like the paper's stack, we do
/// not expedite delivery.
pub(crate) fn check_urg(core: &mut ConnCore, seg: &TcpSegment) {
    if !seg.header.flags.urg || !core.state.can_receive() {
        return;
    }
    let up = seg.header.seq + u32::from(seg.header.urgent);
    if core.tcb.rcv_up.lt(up) {
        core.tcb.rcv_up = up;
        core.tcb.push_action(TcpAction::UrgentData(up));
    }
}

/// First check: sequence acceptability (the four-case table on p. 69).
/// Unacceptable segments are answered with an ACK (unless RST) and
/// dropped.
pub(crate) fn check_sequence(
    cfg: &TcpConfig,
    core: &mut ConnCore,
    seg: &TcpSegment,
    now: VirtualTime,
) -> bool {
    let tcb = &core.tcb;
    let seq = seg.header.seq;
    let seg_len = seg.seq_len();
    let wnd = tcb.rcv_wnd();
    let acceptable = match (seg_len, wnd) {
        (0, 0) => seq == tcb.rcv_nxt,
        (0, w) => seq.in_window(tcb.rcv_nxt, w),
        (_, 0) => false,
        (l, w) => seq.in_window(tcb.rcv_nxt, w) || (seq + (l - 1)).in_window(tcb.rcv_nxt, w),
    };
    if !acceptable && !seg.header.flags.rst {
        send::queue_ack(core, now);
        if core.state == TcpState::TimeWait {
            // A retransmitted FIN restarts the 2MSL timer.
            core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
        }
    }
    acceptable
}

/// RFC 7323 PAWS: true if `tsval` is from before `ts_recent` in 32-bit
/// modular time — the segment predates one the connection already
/// processed, however the sequence numbers look.
fn paws_reject(ts_recent: u32, tsval: u32) -> bool {
    (tsval.wrapping_sub(ts_recent) as i32) < 0
}

/// Timestamp processing for a synchronized connection: PAWS first
/// (RFC 7323 §5.3 — reject and re-ACK old duplicates), then the
/// `TS.Recent` update for segments at the left window edge, then stash
/// TSecr for the RTTM sample `process_ack` takes. Returns false when
/// PAWS drops the segment.
pub(crate) fn process_timestamps(core: &mut ConnCore, h: &TcpHeader, now: VirtualTime) -> bool {
    if !core.tcb.neg.ts_on {
        return true;
    }
    let Some((tsval, tsecr)) = h.timestamps() else {
        // The peer negotiated timestamps but omitted the option; be
        // lenient (RFC 7323 suggests dropping non-RST segments) so
        // mixed stacks still interoperate.
        return true;
    };
    if !h.flags.rst && paws_reject(core.tcb.rcv.ts_recent, tsval) {
        send::queue_ack(core, now);
        return false;
    }
    if h.seq.le(core.tcb.rcv_nxt) {
        core.tcb.rcv.ts_recent = tsval;
    }
    if h.flags.ack && tsecr != 0 {
        core.tcb.rcv.ts_ecr_pending = tsecr;
    }
    true
}

/// RFC 793's send-window update rule.
pub(crate) fn update_send_window(core: &mut ConnCore, seg: &TcpSegment) {
    let h = &seg.header;
    let tcb = &mut core.tcb;
    if tcb.snd_wl1.lt(h.seq) || (tcb.snd_wl1 == h.seq && tcb.snd_wl2.le(h.ack)) {
        let was_zero = tcb.snd_wnd == 0;
        tcb.snd_wnd = tcb.neg.scale_peer_window(h.window, h.flags.syn);
        tcb.snd_wl1 = h.seq;
        tcb.snd_wl2 = h.ack;
        if tcb.snd_wnd > 0 && was_zero {
            tcb.persist_backoff = 0;
            tcb.push_action(TcpAction::ClearTimer(TimerKind::Persist));
        }
    }
}

/// Seventh: process the segment text.
pub(crate) fn process_text(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) {
    if seg.payload.is_empty() {
        return;
    }
    if !core.state.can_receive() {
        // "This should not occur, since a FIN has been received from the
        // remote side. Ignore the segment text."
        return;
    }
    let tcb = &mut core.tcb;
    let seq = seg.header.seq;
    if seq == tcb.rcv_nxt {
        take_in_order(cfg, core, seg, now);
    } else if seq.gt(tcb.rcv_nxt) {
        // Out of order: queue for later, duplicate-ACK immediately so
        // the sender learns what we are missing (with SACK negotiated,
        // the ACK's blocks describe exactly what arrived).
        if seq.in_window(tcb.rcv_nxt, tcb.rcv_wnd()) {
            tcb.insert_out_of_order(seq, seg.payload.clone(), seg.header.flags.fin);
        }
        send::queue_ack(core, now);
    } else {
        // Overlapping retransmission: the head is old, the tail may be
        // new.
        let skip = tcb.rcv_nxt.since(seq) as usize;
        if skip < seg.payload.len() {
            deliver(tcb, &seg.payload, skip);
        }
        send::queue_ack(core, now);
    }
}

/// The expected segment, whichever path found it: deliver it, and ACK
/// now or arm the delayed-ACK timer — the one place that is decided.
/// BSD's policy: immediately on every second data segment or after
/// 2·MSS of bytes, or when the segment carries a FIN; otherwise delayed
/// ("else a Set_Timer for the ack timer if the ack is to be delayed").
/// The threshold of 2 can be raised by `ack_coalesce_segments`
/// (GRO-era batching); the default keeps the historical rule exactly.
pub(crate) fn take_in_order(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) {
    let tcb = &mut core.tcb;
    tcb.clock.bytes_since_ack += deliver(tcb, &seg.payload, 0);
    tcb.clock.segs_since_ack += 1;
    let th = cfg.ack_threshold();
    let clock = &mut tcb.clock;
    match cfg.delayed_ack_ms {
        Some(ms)
            if clock.segs_since_ack < th
                && clock.bytes_since_ack < th * tcb.neg.mss
                && !seg.header.flags.fin =>
        {
            clock.ack_pending = true;
            tcb.push_action(TcpAction::SetTimer(TimerKind::DelayedAck, ms));
        }
        _ => {
            send::queue_ack(core, now);
            core.tcb.push_action(TcpAction::ClearTimer(TimerKind::DelayedAck));
        }
    }
}

/// Hands the user `payload`'s bytes from `skip` on, as far as the
/// receive buffer has room, advancing `rcv_nxt` over them — the copy
/// into the user's vector is the one the paper's receive path also
/// pays, the user boundary — and, if they all fit, whatever the
/// reassembly queue held behind them, buffer by buffer. Returns the
/// bytes delivered. What did not fit stays unacknowledged, for the
/// sender to retransmit; so does a FIN queued out of order, which
/// `check_fin` meets again on its retransmission.
fn deliver(tcb: &mut Tcb, payload: &PacketBuf, skip: usize) -> u32 {
    let fresh = payload.len() - skip;
    let took = tcb.rcv.recv_buf.take(fresh);
    tcb.rcv_nxt += took as u32;
    tcb.push_action(TcpAction::UserData(payload.bytes()[skip..skip + took].to_vec()));
    let drained = if took == fresh { tcb.drain_out_of_order().0 } else { 0 };
    (took + drained) as u32
}

/// The delayed-ACK timer fired: the ACK it held goes out, if it is
/// still owed.
pub(crate) fn delayed_ack_fired(core: &mut ConnCore, now: VirtualTime) {
    if core.tcb.clock.ack_pending {
        send::queue_ack(core, now);
    }
}

/// The user took `n` delivered bytes, which frees their share of the
/// receive buffer — the copy the paper says is "not reflected in the
/// benchmarks". BSD's window-update rule: consuming data may have grown
/// the window well past what the peer last saw
/// ([`Tcb::note_advertised`]); by two segments or half the buffer, tell
/// it, or a zero-window peer stays stuck.
pub(crate) fn user_took(core: &mut ConnCore, n: usize, now: VirtualTime) {
    let tcb = &mut core.tcb;
    tcb.rcv.recv_buf.skip(n);
    let grew = tcb.rcv_wnd().saturating_sub(tcb.clock.last_adv_wnd);
    let half = (tcb.rcv.recv_buf.capacity() as u32 / 2).max(1);
    if core.state == TcpState::Estab && (grew >= 2 * tcb.neg.mss || grew >= half) {
        send::queue_ack(core, now);
    }
}

/// Marks a FIN that arrived ahead of missing data: a bare entry in the
/// reassembly queue so the gap's eventual fill re-exposes it.
pub(crate) fn note_out_of_order_fin(core: &mut ConnCore, seq: Seq) {
    core.tcb.insert_out_of_order(seq, core.pool.empty(), true);
}

/// Consumes the peer's FIN at the left window edge: `RCV.NXT` steps
/// over it and the FIN is acknowledged immediately. Reports
/// [`DataEvent::FinReceived`]; which closing state that implies is
/// control's decision, not ours.
pub(crate) fn consume_fin(core: &mut ConnCore, now: VirtualTime) -> DataEvent {
    core.tcb.rcv_nxt += 1;
    send::queue_ack(core, now);
    DataEvent::FinReceived
}

/// The module tests' one fixture: a connection placed mid-life, which
/// no handshake would hand a test — ESTABLISHED, `snd_una = snd_nxt =
/// iss = snd`, `rcv_nxt = rcv`, the peer's window `snd_wnd`, an MSS of
/// `mss`, and the options `cfg` offers agreed as if the peer's SYN had
/// carried them all (its window-scale shift `peer_wscale`, its TSval
/// `ts_recent`). Compiled into this crate's own unit tests and nowhere
/// else.
#[cfg(test)]
#[derive(Clone)]
pub(crate) struct Fixture {
    pub(crate) cfg: TcpConfig,
    pub(crate) snd: Seq,
    pub(crate) rcv: Seq,
    pub(crate) snd_wnd: u32,
    pub(crate) mss: u32,
    pub(crate) peer_wscale: u8,
    pub(crate) ts_recent: u32,
}

#[cfg(test)]
impl Default for Fixture {
    fn default() -> Fixture {
        let cfg = TcpConfig::default();
        Fixture { cfg, snd: Seq(100), rcv: Seq(5000), snd_wnd: 4096, mss: 1000, peer_wscale: 0, ts_recent: 0 }
    }
}

#[cfg(test)]
impl Fixture {
    pub(crate) fn core(&self) -> ConnCore {
        let mut core =
            ConnCore::new(&self.cfg, 1000, 2000, self.snd, self.mss, foxbasis::buf::BufPool::new());
        core.state.force(TcpState::Estab);
        let tcb = &mut core.tcb;
        (tcb.irs, tcb.rcv_nxt, tcb.snd_wnd, tcb.rcv.ts_recent) =
            (self.rcv - 1, self.rcv, self.snd_wnd, self.ts_recent);
        let n = &mut tcb.neg;
        (n.wscale_on, n.snd_wscale, n.sack_on, n.ts_on) =
            (n.offer_wscale, self.peer_wscale, n.offer_sack, n.offer_ts);
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcb() -> Tcb {
        Tcb::new(&TcpConfig::default(), Seq(1000), 536)
    }

    /// A TCB whose receive buffer holds `recv_buffer` bytes and whose
    /// MSS is `mss`.
    fn sized(recv_buffer: usize, mss: u32) -> Tcb {
        Tcb::new(&TcpConfig { initial_window: recv_buffer, ..TcpConfig::default() }, Seq(0), mss)
    }

    #[test]
    fn rcv_wnd_tracks_buffer_and_caps() {
        let mut t = sized(100_000, 536);
        assert_eq!(t.rcv_wnd(), 65535, "capped at the 16-bit field");
        t.rcv.recv_buf.take(50);
        assert_eq!(t.rcv_wnd(), 65535.min((100_000 - 50) as u32));
    }

    #[test]
    fn receive_accounting_clamps_closes_and_reopens_the_window() {
        let mut t = tcb();
        assert_eq!(t.rcv.recv_buf.take(4000), 4000);
        assert_eq!(t.rcv_wnd(), 96);
        // Over-offer: only what fits is taken, and the window is shut.
        assert_eq!(t.rcv.recv_buf.take(500), 96, "take is clamped to the free space");
        assert_eq!(t.rcv.recv_buf.free(), 0);
        assert_eq!(t.rcv_wnd(), 0);
        assert_eq!(u32::from(t.wire_window_field(false)), 0);
        assert_eq!(t.rcv.recv_buf.take(1), 0, "a full buffer accepts nothing");
        // The user takes delivery: the window reopens by exactly that.
        assert_eq!(t.rcv.recv_buf.skip(1000), 1000);
        assert_eq!(t.rcv_wnd(), 1000);
        assert_eq!(t.rcv.recv_buf.skip(usize::MAX), 3096, "release is clamped to what is held");
        assert_eq!(t.rcv.recv_buf.free(), t.rcv.recv_buf.capacity());
        assert_eq!(t.rcv_wnd(), 4096);
    }

    /// Drains the queue and returns what it handed the user (the
    /// `UserData` actions, concatenated) and whether the FIN was reached.
    fn drain(t: &mut Tcb) -> (Vec<u8>, bool) {
        let (n, fin) = t.drain_out_of_order();
        let mut data = Vec::new();
        for a in t.to_do.drain_all() {
            match a {
                TcpAction::UserData(d) => data.extend_from_slice(&d),
                other => panic!("drain queued {other:?}"),
            }
        }
        assert_eq!(n, data.len(), "the byte count is what was delivered");
        (data, fin)
    }

    #[test]
    fn drain_out_of_order_stops_at_a_full_buffer() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.rcv.recv_buf.take(4096 - 30);
        t.insert_out_of_order(Seq(100), (0..50u8).collect::<Vec<u8>>(), true);
        let (data, fin) = drain(&mut t);
        assert_eq!(data, (0..30u8).collect::<Vec<u8>>(), "only what fits is delivered");
        assert!(!fin, "the FIN waits behind the undelivered tail");
        assert_eq!(t.rcv_nxt, Seq(130));
        assert_eq!(t.rcv_wnd(), 0);
        assert_eq!(t.rcv.out_of_order.len(), 1, "the remainder is kept");
        t.rcv.recv_buf.skip(4096);
        let (data, fin) = drain(&mut t);
        assert_eq!(data, (30..50u8).collect::<Vec<u8>>());
        assert!(fin);
    }

    #[test]
    fn out_of_order_sorted_insert_and_drain() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(120), vec![2; 10], false);
        t.insert_out_of_order(Seq(100), vec![1; 20], false);
        let (n, fin) = t.drain_out_of_order();
        assert_eq!(n, 30);
        assert!(!fin);
        assert_eq!(t.rcv_nxt, Seq(130));
        assert!(t.rcv.out_of_order.is_empty());
        assert_eq!(t.to_do.size(), 2, "one delivery per queued buffer, not one concatenation");
    }

    #[test]
    fn out_of_order_with_gap_waits() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(130), vec![3; 10], false);
        let (data, _) = drain(&mut t);
        assert!(data.is_empty());
        assert_eq!(t.rcv.out_of_order.len(), 1);
        // The gap fills:
        t.insert_out_of_order(Seq(100), vec![1; 30], false);
        let (data, _) = drain(&mut t);
        assert_eq!(data.len(), 40);
        assert_eq!(t.rcv_nxt, Seq(140));
    }

    #[test]
    fn overlapping_out_of_order_is_trimmed_on_insert() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(110), vec![1; 20], false);
        t.insert_out_of_order(Seq(115), vec![2; 10], false); // wholly contained
        assert_eq!(t.rcv.out_of_order.len(), 1, "contained segment discarded");
        t.insert_out_of_order(Seq(120), vec![3; 20], false); // head held, tail new
        t.insert_out_of_order(Seq(150), vec![5; 10], false);
        t.insert_out_of_order(Seq(135), vec![4; 20], false); // head and tail both held
        let held = |t: &Tcb| t.rcv.out_of_order.iter().map(|(s, d, _)| (*s, d.len())).collect::<Vec<_>>();
        assert_eq!(held(&t), vec![(Seq(110), 20), (Seq(130), 10), (Seq(140), 10), (Seq(150), 10)]);
        t.insert_out_of_order(Seq(105), vec![6; 50], false); // covers three, overlaps a fourth
        assert_eq!(held(&t), vec![(Seq(105), 45), (Seq(150), 10)]);
        t.check_invariants();
        t.insert_out_of_order(Seq(100), vec![7; 5], false);
        let (data, _) = drain(&mut t);
        assert_eq!(data.len(), 60);
        assert_eq!(&data[..6], &[7, 7, 7, 7, 7, 6]);
        assert_eq!(t.rcv_nxt, Seq(160));
    }

    #[test]
    fn out_of_order_fin_reported() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(100), vec![9; 5], true);
        let (data, fin) = drain(&mut t);
        assert_eq!(data.len(), 5);
        assert!(fin);
    }

    #[test]
    fn out_of_order_bounded_by_ranges_entries_and_bytes() {
        // Ranges: segments that never touch each open a hole.
        let mut t = sized(65536, 536);
        for i in 0..(MAX_OUT_OF_ORDER + 10) {
            t.insert_out_of_order(Seq(1000 + 10 * i as u32), vec![0; 5], false);
        }
        assert_eq!(t.rcv.out_of_order_ranges().count(), MAX_OUT_OF_ORDER);
        assert_eq!(t.rcv.out_of_order.len(), MAX_OUT_OF_ORDER);
        // ... but a segment that extends a range, or joins two, is taken.
        t.insert_out_of_order(Seq(1005), vec![0; 5], false);
        assert_eq!(t.rcv.out_of_order.len(), MAX_OUT_OF_ORDER + 1);
        assert_eq!(t.rcv.out_of_order_ranges().count(), MAX_OUT_OF_ORDER - 1);
        t.check_invariants();

        // Entries: one contiguous run of one-byte segments.
        let mut t = sized(65536, 1000);
        for i in 0..1000 {
            t.insert_out_of_order(Seq(1000 + i), vec![0; 1], false);
        }
        assert_eq!(t.rcv.out_of_order.len(), t.max_out_of_order_entries());
        assert_eq!(t.max_out_of_order_entries(), 2 * 65536 / 1000);
        t.check_invariants();

        // Bytes: full segments up to the buffer's capacity and no more.
        let mut t = sized(4096, 100);
        for i in 0..10 {
            t.insert_out_of_order(Seq(1000 + 1000 * i), vec![0; 1000], false);
        }
        assert_eq!(t.rcv.out_of_order.len(), 4);
        t.check_invariants();
    }

    #[test]
    fn rcv_wnd_uncaps_with_negotiated_scale() {
        let mut t = sized(1 << 20, 536);
        assert_eq!(t.rcv_wnd(), 65535, "unscaled until negotiated");
        (t.neg.wscale_on, t.neg.rcv_wscale) = (true, 5);
        assert_eq!(t.rcv_wnd(), 1 << 20, "full buffer visible");
        t.rcv.recv_buf.take(100);
        // Rounded down to the 32-byte shift granularity — what the peer
        // reconstructs from the wire field.
        assert_eq!(t.rcv_wnd(), ((1 << 20) - 100) & !0x1f);
        assert_eq!(u32::from(t.wire_window_field(false)), ((1 << 20) - 100) >> 5);
        assert_eq!(u32::from(t.wire_window_field(true)), 0xffff, "SYN windows are never scaled");
    }

    #[test]
    fn peer_window_scaling_skips_syn() {
        let mut n = tcb().neg;
        (n.wscale_on, n.snd_wscale) = (true, 7);
        let field = foxwire::tcp::wire_window(512, 0);
        assert_eq!(n.scale_peer_window(field, false), 512 << 7);
        assert_eq!(n.scale_peer_window(field, true), 512, "SYN windows are never scaled");
        n.wscale_on = false;
        assert_eq!(n.scale_peer_window(field, false), 512);
    }

    #[test]
    fn sack_blocks_report_out_of_order_ranges() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(200), vec![1; 50], false);
        t.insert_out_of_order(Seq(250), vec![2; 50], false); // adjacent: merges
        t.insert_out_of_order(Seq(400), vec![3; 10], true); // FIN occupies a number
        assert_eq!(
            *t.rcv.sack_blocks_to_send(),
            [(Seq(400), Seq(411)), (Seq(200), Seq(300))],
            "newest first"
        );
        assert!(tcb().rcv.sack_blocks_to_send().is_empty());
    }

    #[test]
    fn sack_blocks_lead_with_the_range_just_queued() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        for start in [200, 400, 600, 800] {
            t.insert_out_of_order(Seq(start), vec![0; 50], false);
        }
        // Four ranges, three blocks: ascending order alone would never
        // mention the newest.
        assert_eq!(
            *t.rcv.sack_blocks_to_send(),
            [(Seq(800), Seq(850)), (Seq(200), Seq(250)), (Seq(400), Seq(450))]
        );
        // A segment that extends an older range brings that range first.
        t.insert_out_of_order(Seq(450), vec![0; 50], false);
        assert_eq!(
            *t.rcv.sack_blocks_to_send(),
            [(Seq(400), Seq(500)), (Seq(200), Seq(250)), (Seq(600), Seq(650))]
        );
        // Once the newest segment has been delivered the order is plain.
        t.insert_out_of_order(Seq(100), vec![0; 100], false);
        t.drain_out_of_order();
        assert_eq!(
            *t.rcv.sack_blocks_to_send(),
            [(Seq(400), Seq(500)), (Seq(600), Seq(650)), (Seq(800), Seq(850))]
        );
    }
}
