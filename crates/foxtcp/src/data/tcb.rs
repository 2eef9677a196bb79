//! The Tcb module (paper Fig. 6): "the types with which these data
//! structures are represented and some basic operations on values of
//! these types".
//!
//! Field correspondence with the paper's `tcp_tcb` record:
//!
//! | paper field      | here                                           |
//! |------------------|------------------------------------------------|
//! | `iss`            | [`Tcb::iss()`]                                 |
//! | `snd_una` …      | [`Tcb::snd_una()`] and the other RFC 793 vars  |
//! | `queued`         | the unsent tail of [`Tcb::send_buf`] (bytes past `snd_nxt`) — the deque of not-yet-sent packets, adapted to a byte-stream store. The sent prefix stays in it until acknowledged and is the only copy of the flight: every transmission, first or repeated, stages its bytes from here (`send::stage`). Bounded by `TcpConfig::send_buffer`, but it holds storage only for what the connection has had queued at once (`foxbasis::ring`: none until the first write, doubled by use) and gives it back when our FIN is acknowledged, so neither an idle connection nor TIME-WAIT pays for the bound |
//! | `out_of_order`   | [`Tcb::out_of_order`]                          |
//! | `to_do`          | [`Tcb::to_do`] — the action queue at the heart of the quasi-synchronous control structure |
//!
//! The `tcp_state` datatype is [`crate::TcpState`], which lives with the
//! state machine in [`crate::control::fsm`].
//!
//! The TCB lives in [`crate::data`] because the data path owns its
//! sequence space: the RFC 793 send and receive variables, the
//! duplicate-ACK count, the recovery record and the persist backoff are
//! `pub(in crate::data)`, so only the data-path modules
//! (`transfer`, `send`, `resend`, `fastpath`) and the TCB's own methods
//! can write them, and everything else reads them through one accessor
//! each. The congestion windows are [`crate::congestion::Cc`]'s, behind
//! its own private fields. Every other field is plain `pub` data.

use crate::action::TcpAction;
use foxbasis::buf::PacketBuf;
use foxbasis::fifo::Fifo;
use foxbasis::ring::RingBuffer;
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::tcp::{SackBlocks, WireWindow};
use std::collections::VecDeque;
use std::fmt;

/// Jacobson/Karn round-trip estimation state (the Resend module's data).
#[derive(Clone, PartialEq, Debug)]
pub struct RttEstimator {
    /// Smoothed RTT in µs (None until the first sample).
    pub srtt: Option<VirtualDuration>,
    /// RTT variation in µs.
    pub rttvar: VirtualDuration,
    /// Current retransmission timeout.
    pub rto: VirtualDuration,
    /// Exponential backoff multiplier exponent (0 = no backoff).
    pub backoff: u32,
    /// The segment being timed: (sequence number whose ACK completes the
    /// sample, send time). Karn's algorithm: cleared on retransmission.
    pub timing: Option<(Seq, VirtualTime)>,
}

/// RFC 1122's initial RTO.
pub const INITIAL_RTO: VirtualDuration = VirtualDuration::from_millis(1000);
/// Lower bound on the RTO. BSD's classic floor of one second: the floor
/// must comfortably exceed the peer's delayed-ACK hold time (200 ms) or
/// every window tail spuriously retransmits.
pub const MIN_RTO: VirtualDuration = VirtualDuration::from_millis(1000);
/// Upper bound on the RTO.
pub const MAX_RTO: VirtualDuration = VirtualDuration::from_secs(64);

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator { srtt: None, rttvar: VirtualDuration::ZERO, rto: INITIAL_RTO, backoff: 0, timing: None }
    }
}

impl RttEstimator {
    /// The timeout to arm the retransmit timer with (RTO with backoff).
    pub fn timeout(&self) -> VirtualDuration {
        self.rto.saturating_mul(1u64 << self.backoff.min(6)).min(MAX_RTO)
    }
}

/// An entry in the retransmission queue: a sent, unacknowledged segment,
/// as the sequence range it occupies and nothing else. Its bytes are
/// where they were before it was sent — in [`Tcb::send_buf`], which
/// releases them only when they are acknowledged — and the buffer that
/// carried them down the stack belongs to the layers below. A
/// retransmission stages them again (`send::stage`): one copy per
/// segment resent, none kept per segment in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentSegment {
    /// First sequence number of the segment.
    pub seq: Seq,
    /// Bytes of payload.
    pub len: u32,
    /// Whether the segment carried SYN.
    pub syn: bool,
    /// Whether the segment carried FIN.
    pub fin: bool,
}

impl SentSegment {
    /// Sequence space consumed.
    pub fn seq_len(&self) -> u32 {
        self.len + u32::from(self.syn) + u32::from(self.fin)
    }

    /// One past the last sequence number.
    pub fn end(&self) -> Seq {
        self.seq + self.seq_len()
    }
}

/// The one loss-recovery record. `Some` from the moment a loss is
/// detected — by the third duplicate ACK or by the retransmission timer
/// — until the ACK that covers [`Recovery::recover`]; while it stands,
/// every ACK drives `resend::retransmit_lost`, and no new episode can be
/// entered by duplicates (RFC 6582 §4). A connection's record is reached
/// only through its TCB's `recovery` field, which only the data path
/// can see; outside it [`Tcb::recovery()`] hands out a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// The recovery point (RFC 6582's `recover`): `snd_nxt` when the
    /// episode began. Only segments below it are retransmitted; the ACK
    /// that reaches it ends the episode.
    pub recover: Seq,
    /// One past the highest sequence number retransmitted in this
    /// episode (RFC 6675's `HighRxt`): the walk over the resend queue
    /// resumes here, so no segment goes out twice in one episode.
    pub high_rxt: Seq,
    /// How the episode began, which decides who owns `cwnd` while it
    /// lasts: after a timeout slow start does (RFC 5681 §3.1) and all
    /// of the old flight is presumed lost; after three duplicates fast
    /// recovery inflates and deflates it, and only what lies below the
    /// highest SACKed byte is.
    pub by_rto: bool,
}

/// The transmission control block (paper Fig. 6 `tcp_tcb`). Plain data:
/// a clone is a snapshot, and two snapshots compare field by field, so a
/// test can diff the TCB before and after one input.
#[derive(Clone, PartialEq)]
pub struct Tcb<P> {
    // --- RFC 793 send sequence variables ---
    /// Initial send sequence number.
    pub(in crate::data) iss: Seq,
    /// Oldest unacknowledged sequence number.
    pub(in crate::data) snd_una: Seq,
    /// Next sequence number to send.
    pub(in crate::data) snd_nxt: Seq,
    /// Peer-advertised send window.
    pub(in crate::data) snd_wnd: u32,
    /// Segment seq used for the last window update.
    pub(in crate::data) snd_wl1: Seq,
    /// Segment ack used for the last window update.
    pub(in crate::data) snd_wl2: Seq,
    /// Send urgent pointer (Fig. 6 lists it; we track it for
    /// completeness — the paper's stack, like ours, never generates
    /// urgent data).
    pub(in crate::data) snd_up: Seq,

    // --- RFC 793 receive sequence variables ---
    /// Initial receive sequence number.
    pub(in crate::data) irs: Seq,
    /// Next sequence number expected.
    pub(in crate::data) rcv_nxt: Seq,
    /// Receive urgent pointer (RFC 793 p. 73: `RCV.UP <- max(RCV.UP,
    /// SEG.SEQ + SEG.UP)`); tracked, signalled to the user, but — per
    /// the consensus the paper inherited — not used to expedite
    /// delivery.
    pub(in crate::data) rcv_up: Seq,

    // --- negotiated parameters ---
    /// Effective maximum segment size for sending.
    pub mss: u32,
    /// Offer window scaling on our SYN (from [`crate::TcpConfig`]).
    pub offer_wscale: bool,
    /// Offer SACK on our SYN.
    pub offer_sack: bool,
    /// Offer timestamps on our SYN.
    pub offer_ts: bool,
    /// True once *both* sides carried the window-scale option on their
    /// SYNs (RFC 7323 §2.5). Until then every window stays 16-bit.
    pub wscale_on: bool,
    /// The shift the peer applies to windows it advertises (their SYN's
    /// option value). Meaningful only when [`Tcb::wscale_on`].
    pub snd_wscale: u8,
    /// The shift we apply to windows we advertise (picked from our
    /// receive-buffer size at construction).
    pub rcv_wscale: u8,
    /// True once both SYNs carried SACK-permitted (RFC 2018).
    pub sack_on: bool,
    /// The sender-side SACK scoreboard (RFC 6675): peer-reported
    /// received ranges above `snd_una`, merged and sorted.
    pub sack_scoreboard: Vec<(Seq, Seq)>,
    /// True once both SYNs carried the timestamps option (RFC 7323).
    pub ts_on: bool,
    /// `TS.Recent` — the peer timestamp we echo in TSecr, updated by the
    /// RFC 7323 rule and consulted by the PAWS check.
    pub ts_recent: u32,
    /// TSecr of the most recent acceptable ACK, pending an RTTM sample
    /// in `resend::process_ack`.
    pub ts_ecr_pending: Option<u32>,

    // --- data buffers ---
    /// Outgoing byte store: `snd_una .. snd_una + send_buf.len()`.
    /// The prefix up to `snd_nxt` is sent-but-unacked — the one copy of
    /// the flight, which [`Tcb::resend_queue`] describes and every
    /// retransmission reads; the tail is the paper's `queued` — staged,
    /// unsent data. Its storage grows with use and is released once our
    /// FIN is acknowledged (`resend::process_ack`): nothing can be
    /// written or resent after that.
    pub send_buf: RingBuffer,
    /// True once the user has called `close` — a FIN follows the last
    /// byte of `send_buf`.
    pub fin_pending: bool,
    /// Sequence number our FIN occupies once sent.
    pub fin_seq: Option<Seq>,
    /// Receive-buffer accounting: how much of the advertised buffer
    /// in-order data queued for delivery currently holds.
    pub recv_buf: RecvAccount,
    /// Out-of-order segments (paper: `out_of_order: tcp_in Q.T ref`),
    /// sorted by sequence number and trimmed on insert so that no two
    /// overlap; `bool` marks a FIN carried by the segment. Entries hold
    /// the received [`PacketBuf`] itself, so queueing a segment out of
    /// order costs a refcount bump, not a copy. Bounded three ways by
    /// [`Tcb::insert_out_of_order`].
    pub out_of_order: VecDeque<(Seq, PacketBuf, bool)>,
    /// Where the segment queued most recently starts — the one whose
    /// range RFC 2018 §4 wants reported first.
    pub last_queued: Option<Seq>,

    // --- retransmission (the Resend module's queue) ---
    /// Sent, unacknowledged segments, oldest first: sequence ranges
    /// over the sent prefix of [`Tcb::send_buf`].
    pub resend_queue: foxbasis::deq::Deq<SentSegment>,
    /// RTT estimation.
    pub rtt: RttEstimator,
    /// Retransmissions remaining before the connection gives up.
    pub retransmits_left: u32,

    // --- congestion control (RFC 1122 / Jacobson) ---
    /// The congestion windows and the algorithm that owns them (the
    /// [`crate::congestion::CongestionControl`] seam): `cwnd` and
    /// `ssthresh` are its private fields, written only in
    /// [`crate::congestion`] and read through [`crate::congestion::Cc::cwnd`]
    /// and [`crate::congestion::Cc::ssthresh`].
    pub cc: crate::congestion::Cc,
    /// Consecutive duplicate ACKs seen.
    pub(in crate::data) dup_acks: u32,
    /// The loss-recovery episode in progress, if any.
    pub(in crate::data) recovery: Option<Recovery>,
    /// Zero-window probe backoff exponent. Separate from
    /// [`RttEstimator::backoff`] because every *answered* probe resets
    /// the RTT backoff (the probe byte is new data being acked) while
    /// the persist interval must keep growing until the window opens.
    pub(in crate::data) persist_backoff: u32,

    // --- delayed-ack bookkeeping ---
    /// True if an ACK is owed but deferred behind the ack timer.
    pub ack_pending: bool,
    /// Bytes received since the last ACK we sent.
    pub bytes_since_ack: u32,
    /// Data segments received since the last ACK we sent (BSD's
    /// ack-every-other-segment policy).
    pub segs_since_ack: u32,
    /// The receive window we most recently advertised on the wire. When
    /// the application consumes data and the real window exceeds this by
    /// two segments (or half the buffer), a window-update ACK goes out —
    /// BSD's rule, and the thing that un-sticks a peer that saw zero.
    pub last_adv_wnd: u32,

    // --- the control structure ---
    /// The to_do action queue (paper: `to_do: tcp_action Q.T ref`),
    /// owned outright: an armed timer holds `(connection id, kind)` on
    /// the engine's wheel, never a handle to this queue. Crate-private;
    /// external code enqueues with [`Tcb::push_action`] and the engine
    /// drains (see `clear_pending_actions` for the one other
    /// sanctioned operation).
    pub(crate) to_do: Fifo<TcpAction<P>>,
}

/// The receive buffer as accounting: a capacity and how many bytes of it
/// accepted-but-undelivered data holds. No bytes are stored — accepted
/// payload rides to the user inside [`TcpAction::UserData`], queued in
/// the same step that accepts it and released ([`RecvAccount::skip`])
/// when the engine executes that action — so the window arithmetic is a
/// byte ring's, without the ring.
#[derive(Clone, PartialEq, Debug)]
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

impl<P> Tcb<P> {
    /// A TCB for a connection with the given buffer sizes and initial
    /// send sequence number.
    pub fn new(iss: Seq, send_buffer: usize, recv_buffer: usize) -> Tcb<P> {
        Tcb {
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            snd_wl1: Seq(0),
            snd_wl2: Seq(0),
            snd_up: iss,
            irs: Seq(0),
            rcv_nxt: Seq(0),
            rcv_up: Seq(0),
            mss: 536,
            offer_wscale: false,
            offer_sack: false,
            offer_ts: false,
            wscale_on: false,
            snd_wscale: 0,
            rcv_wscale: 0,
            sack_on: false,
            sack_scoreboard: Vec::new(),
            ts_on: false,
            ts_recent: 0,
            ts_ecr_pending: None,
            send_buf: RingBuffer::new(send_buffer.max(1)),
            fin_pending: false,
            fin_seq: None,
            recv_buf: RecvAccount::new(recv_buffer.max(1)),
            out_of_order: VecDeque::new(),
            last_queued: None,
            resend_queue: foxbasis::deq::Deq::new(),
            rtt: RttEstimator::default(),
            retransmits_left: 12,
            cc: crate::congestion::Cc::new(crate::congestion::CcAlg::default()),
            dup_acks: 0,
            recovery: None,
            persist_backoff: 0,
            ack_pending: false,
            bytes_since_ack: 0,
            segs_since_ack: 0,
            last_adv_wnd: recv_buffer.clamp(1, 65535) as u32,
            to_do: Fifo::new(),
        }
    }

    /// Initial send sequence number.
    pub fn iss(&self) -> Seq {
        self.iss
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> Seq {
        self.snd_una
    }

    /// Next sequence number to send.
    pub fn snd_nxt(&self) -> Seq {
        self.snd_nxt
    }

    /// Peer-advertised send window.
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// Segment seq used for the last window update.
    pub fn snd_wl1(&self) -> Seq {
        self.snd_wl1
    }

    /// Initial receive sequence number.
    pub fn irs(&self) -> Seq {
        self.irs
    }

    /// Next sequence number expected.
    pub fn rcv_nxt(&self) -> Seq {
        self.rcv_nxt
    }

    /// Consecutive duplicate ACKs seen.
    pub fn dup_acks(&self) -> u32 {
        self.dup_acks
    }

    /// The loss-recovery episode in progress, if any (a copy).
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// The receive window we advertise: free space in the receive
    /// buffer, capped at what the 16-bit field can carry under the
    /// negotiated shift. Without window scaling this is exactly the
    /// classic `min(free, 65535)`; with it, the value is what the peer
    /// reconstructs after the wire round-trip (rounded down to the
    /// shift granularity), so acceptance checks and advertisements
    /// always agree.
    pub fn rcv_wnd(&self) -> u32 {
        let free = self.recv_buf.free() as u32;
        let shift = self.adv_wscale();
        u32::from(foxwire::tcp::wire_window(free, shift)) << shift
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

    /// The 16-bit window field for an outgoing header. A SYN's window is
    /// never scaled (RFC 7323 §2.2), so the shift only applies after the
    /// handshake. The narrowing is [`foxwire::tcp::wire_window`]'s, the
    /// one constructor of the field's type.
    pub fn wire_window_field(&self, syn: bool) -> WireWindow {
        let shift = if syn { 0 } else { self.adv_wscale() };
        foxwire::tcp::wire_window(self.recv_buf.free() as u32, shift)
    }

    /// A peer-advertised window field, widened by the negotiated shift.
    /// Windows carried on SYN segments are never scaled.
    pub fn scale_peer_window(&self, window: WireWindow, syn: bool) -> u32 {
        let shift = if syn { 0 } else { self.snd_shift() };
        u32::from(window) << shift
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

    /// Merges peer-reported SACK blocks into the scoreboard, dropping
    /// anything at or below `snd_una` and keeping the ranges sorted and
    /// disjoint.
    pub fn note_sack_blocks(&mut self, blocks: &[(Seq, Seq)]) {
        for &(start, end) in blocks {
            let start = if start.lt(self.snd_una) { self.snd_una } else { start };
            if !start.lt(end) || end.gt(self.snd_nxt) {
                continue; // empty, or claims bytes never sent
            }
            let at = self
                .sack_scoreboard
                .binary_search_by(|(s, _)| {
                    if s.lt(start) {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                })
                .unwrap_or_else(|e| e);
            self.sack_scoreboard.insert(at, (start, end));
        }
        // Coalesce overlapping/adjacent ranges, in place: a range that
        // touches the one kept before it extends that one and goes.
        self.sack_scoreboard.dedup_by(|next, kept| {
            let touches = next.0.le(kept.1);
            if touches && next.1.gt(kept.1) {
                kept.1 = next.1;
            }
            touches
        });
        self.sack_scoreboard.truncate(16);
    }

    /// Drops scoreboard ranges the cumulative ACK has overtaken.
    pub fn prune_sack_scoreboard(&mut self, ack: Seq) {
        self.sack_scoreboard.retain(|(_, e)| e.gt(ack));
        for (s, _) in &mut self.sack_scoreboard {
            if s.lt(ack) {
                *s = ack;
            }
        }
    }

    /// True if the peer has SACKed the whole range `[seq, end)`.
    pub fn sacked(&self, seq: Seq, end: Seq) -> bool {
        self.sack_scoreboard.iter().any(|(s, e)| s.le(seq) && end.le(*e))
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn flight_size(&self) -> u32 {
        self.snd_nxt.since(self.snd_una)
    }

    /// The usable send window: how many more bytes the peer (and the
    /// congestion window, if active) will accept.
    pub fn usable_window(&self) -> u32 {
        let cwnd = self.cc.cwnd();
        let wnd = if cwnd > 0 { self.snd_wnd.min(cwnd) } else { self.snd_wnd };
        wnd.saturating_sub(self.flight_size())
    }

    /// The interval to arm the persist (zero-window probe) timer with:
    /// the current RTO scaled by the probe backoff, capped like the
    /// retransmit timeout. Uses [`Tcb::persist_backoff`], not the RTT
    /// backoff, so an answered probe (which resets the RTT backoff)
    /// cannot stop the probe interval from growing.
    pub fn persist_timeout(&self) -> VirtualDuration {
        self.rtt.rto.saturating_mul(1u64 << self.persist_backoff.min(6)).min(MAX_RTO)
    }

    /// The largest payload a data segment may carry: the negotiated MSS
    /// less the option bytes every data segment wears. The MSS never
    /// accounts for options (RFC 6691 §3), so the sender subtracts them
    /// here — a timestamped "full" segment sized by the raw MSS would
    /// overflow the link MTU by exactly the option's 12 bytes and
    /// fragment. Only timestamps ride on data segments; the SYN-only
    /// options and the receiver's SACK blocks never do.
    pub fn eff_mss(&self) -> u32 {
        if self.ts_on {
            self.mss.saturating_sub(foxwire::tcp::TIMESTAMPS_SEGMENT_OVERHEAD).max(1)
        } else {
            self.mss
        }
    }

    /// Unsent bytes staged in the send buffer (the paper's `queued`).
    pub fn unsent(&self) -> u32 {
        (self.send_buf.len() as u32).saturating_sub(self.flight_size())
    }

    /// Pushes an action onto the to_do queue (the only way anything is
    /// ever scheduled against a connection).
    pub fn push_action(&mut self, action: TcpAction<P>) {
        self.to_do.add(action);
    }

    /// Asserts the relations among the TCB's fields that every module
    /// relies on and none re-checks. The engine calls this after every
    /// executed action in debug builds (the switch `fsm::transition`'s
    /// guard uses), so the whole suite and every matrix cell run from a
    /// debug build check them at every step; release builds never call
    /// it.
    ///
    /// One relation is deliberately absent: `snd_nxt ≤ snd_una +
    /// snd_wnd` (mod wrap), "nothing is sent past the peer's window".
    /// Two things this stack meets on purpose break it. The persist
    /// timer's `send::window_probe` puts one byte into a zero window, so
    /// a probing connection holds `snd_nxt = snd_una + 1` against
    /// `snd_wnd = 0` (`send`'s `a_window_probe_sends_past_the_window`
    /// pins that). And a peer may shrink its window below what is
    /// already in flight — RFC 9293 §3.8.6.2.1 discourages it, but the
    /// sender must cope — which advpeer's `sws-pump` row does with forged
    /// tiny windows. An assertion here would fire on both.
    ///
    /// # Panics
    /// Panics, naming the relation, if one does not hold.
    pub fn check_invariants(&self) {
        // Circular ordering of the send-side variables.
        assert!(self.snd_una.le(self.snd_nxt), "snd_una {} passed snd_nxt {}", self.snd_una, self.snd_nxt);
        // In-flight data never exceeds what the buffers can back (plus
        // the SYN and FIN octets).
        assert!(
            self.flight_size() as usize <= self.send_buf.capacity() + 2,
            "flight {} vs send buffer {}",
            self.flight_size(),
            self.send_buf.capacity()
        );
        // The advertised window is bounded by the receive buffer, and so
        // is what the buffer is charged with.
        assert!(self.rcv_wnd() as usize <= self.recv_buf.capacity(), "window over capacity");
        assert!(
            self.recv_buf.held <= self.recv_buf.capacity,
            "receive buffer holds {} of {}",
            self.recv_buf.held,
            self.recv_buf.capacity
        );
        // The send buffer's storage grows by use, never past its bound.
        assert!(
            self.send_buf.storage() <= self.send_buf.capacity(),
            "send buffer stores {} for a bound of {}",
            self.send_buf.storage(),
            self.send_buf.capacity()
        );

        // The retransmission queue is ordered, and only its front entry
        // may carry the SYN (`send::stage` relies on it).
        for (i, (a, b)) in self.resend_queue.iter().zip(self.resend_queue.iter().skip(1)).enumerate() {
            assert!(a.end().le(b.seq), "resend queue out of order at {i}: {} then {}", a.end(), b.seq);
            assert!(!b.syn, "resend queue entry {} carries a SYN", i + 1);
        }
        // The queue holds ranges, not bytes: what it describes must
        // still be in the send buffer for a retransmission to stage.
        let queued: usize = self.resend_queue.iter().map(|s| s.len as usize).sum();
        assert!(
            queued <= self.send_buf.len(),
            "resend queue describes {queued} bytes of {}",
            self.send_buf.len()
        );
        // And it describes the whole flight, or nothing: `abort`, a peer
        // reset and the user timeout clear the queue and leave `snd_una`
        // and `snd_nxt` where they were, so an empty queue says nothing
        // about the flight.
        let described: u32 = self.resend_queue.iter().map(SentSegment::seq_len).sum();
        assert!(
            self.resend_queue.is_empty() || described == self.flight_size(),
            "resend queue covers {described} of a flight of {}",
            self.flight_size()
        );

        // The reassembly queue: sorted, no two entries overlapping, and
        // inside all three of its bounds.
        let q = &self.out_of_order;
        for (a, b) in q.iter().zip(q.iter().skip(1)) {
            assert!(ooo_end(a).le(b.0), "reassembly queue overlaps: ..{} then {}..", ooo_end(a), b.0);
        }
        let ranges = self.out_of_order_ranges().count();
        assert!(ranges <= MAX_OUT_OF_ORDER, "reassembly queue holds {ranges} ranges");
        let bytes: usize = q.iter().map(|(_, d, _)| d.len()).sum();
        assert!(bytes <= self.recv_buf.capacity(), "reassembly queue holds {bytes} bytes");
        assert!(q.len() <= self.max_out_of_order_entries(), "reassembly queue holds {} entries", q.len());

        // The scoreboard: sorted, disjoint, and about bytes in flight.
        for &(s, e) in &self.sack_scoreboard {
            assert!(s.lt(e), "empty scoreboard range {s}..{e}");
            assert!(self.snd_una.le(s) && e.le(self.snd_nxt), "scoreboard range {s}..{e} outside the flight");
        }
        for (a, b) in self.sack_scoreboard.iter().zip(self.sack_scoreboard.iter().skip(1)) {
            assert!(a.1.lt(b.0), "scoreboard ranges {a:?} and {b:?} touch or cross");
        }

        // A recovery episode is about the flight it found.
        if let Some(r) = self.recovery {
            for (name, v) in [("recover", r.recover), ("high_rxt", r.high_rxt)] {
                assert!(self.snd_una.le(v) && v.le(self.snd_nxt), "{name} {v} outside the flight");
            }
            assert!(r.high_rxt.le(r.recover), "retransmitted past the recovery point");
        }

        // Congestion control, when on (a zero window is the ablation
        // switch), never starves the connection of one segment.
        let cwnd = self.cc.cwnd();
        assert!(cwnd == 0 || cwnd >= self.mss, "cwnd {cwnd} under one MSS {}", self.mss);
    }

    /// Drops everything queued on the to_do queue without executing it.
    /// For harnesses that drive the receive DAG without an engine
    /// attached (the fuzz suite); the engine itself always drains.
    pub fn clear_pending_actions(&mut self) {
        self.to_do.clear();
    }

    /// The most segments the reassembly queue will hold: twice what a
    /// window of full-sized segments needs (and never fewer than two,
    /// however small the window). Without it a flood of
    /// one-byte segments would pin a whole frame's storage per byte of
    /// window.
    pub fn max_out_of_order_entries(&self) -> usize {
        (2 * self.recv_buf.capacity() / self.mss.max(1) as usize).max(2)
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
    pub fn insert_out_of_order(&mut self, seq: Seq, data: impl Into<PacketBuf>, fin: bool) {
        let mut new = (seq, data.into(), fin);
        let q = &self.out_of_order;
        let at = q.partition_point(|(s, _, _)| s.le(seq));
        let pred_end = at.checked_sub(1).map(|p| ooo_end(&q[p]));
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
            || held - covered + new.1.len() > self.recv_buf.capacity()
            || (opens_a_range && self.out_of_order_ranges().count() >= MAX_OUT_OF_ORDER)
        {
            return;
        }
        self.out_of_order.drain(at..hi);
        self.last_queued = Some(new.0);
        self.out_of_order.insert(at, new);
    }

    /// Hands the user every queued segment that is now in order, as far
    /// as `recv_buf` has room: one [`TcpAction::UserData`] per queued
    /// buffer, never one concatenation of the run — the queue may hold a
    /// whole window. Returns (bytes delivered, FIN reached).
    pub fn drain_out_of_order(&mut self) -> (usize, bool) {
        let mut delivered = 0;
        while self.out_of_order.front().is_some_and(|(s, _, _)| s.le(self.rcv_nxt)) {
            let (s, mut d, fin) = self.out_of_order.pop_front().expect("front");
            let stale = self.rcv_nxt.since(s) as usize;
            if stale > d.len() {
                continue; // wholly stale duplicate
            }
            d.trim_front(stale);
            let took = self.recv_buf.take(d.len());
            self.rcv_nxt += took as u32;
            delivered += took;
            let full = took < d.len();
            if full {
                // Receive buffer full: the tail waits at the head of the
                // queue — a zero-copy slice of the same storage.
                self.out_of_order.push_front((self.rcv_nxt, d.slice(took, d.len()), fin));
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
}

/// Test hooks: the module tests outside `data` — control's and the
/// congestion seam's — start a connection at a given point of its
/// sequence space, which only the data path may move. Compiled into
/// this crate's own unit tests and nowhere else.
#[cfg(test)]
impl<P> Tcb<P> {
    /// Places the send sequence variables.
    pub(crate) fn set_snd(&mut self, snd_una: Seq, snd_nxt: Seq) {
        (self.snd_una, self.snd_nxt) = (snd_una, snd_nxt);
    }

    /// Sets the peer-advertised send window.
    pub(crate) fn set_snd_wnd(&mut self, snd_wnd: u32) {
        self.snd_wnd = snd_wnd;
    }

    /// Places the segment that last updated the send window.
    pub(crate) fn set_snd_wl(&mut self, snd_wl1: Seq, snd_wl2: Seq) {
        (self.snd_wl1, self.snd_wl2) = (snd_wl1, snd_wl2);
    }

    /// Places the receive sequence variables.
    pub(crate) fn set_rcv(&mut self, irs: Seq, rcv_nxt: Seq) {
        (self.irs, self.rcv_nxt) = (irs, rcv_nxt);
    }
}

impl<P> fmt::Debug for Tcb<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tcb(una={}, nxt={}, wnd={}, rcv_nxt={}, rcv_wnd={}, flight={}, unsent={}, ooo={}, todo={})",
            self.snd_una,
            self.snd_nxt,
            self.snd_wnd,
            self.rcv_nxt,
            self.rcv_wnd(),
            self.flight_size(),
            self.unsent(),
            self.out_of_order.len(),
            self.to_do.size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcb() -> Tcb<()> {
        Tcb::new(Seq(1000), 4096, 4096)
    }

    #[test]
    fn fresh_tcb_invariants() {
        let t = tcb();
        assert_eq!(t.snd_una, Seq(1000));
        assert_eq!(t.snd_nxt, Seq(1000));
        assert_eq!(t.flight_size(), 0);
        assert_eq!(t.unsent(), 0);
        assert_eq!(t.rcv_wnd(), 4096);
        assert!(t.to_do.is_empty());
    }

    #[test]
    fn windows_and_flight() {
        let mut t = tcb();
        t.snd_wnd = 4096;
        t.send_buf.write(&[0; 1000]);
        assert_eq!(t.unsent(), 1000);
        t.snd_nxt = t.snd_una + 600;
        assert_eq!(t.flight_size(), 600);
        assert_eq!(t.unsent(), 400);
        assert_eq!(t.usable_window(), 4096 - 600);
        t.cc.set_cwnd(800);
        assert_eq!(t.usable_window(), 200, "cwnd caps the window");
    }

    #[test]
    fn rcv_wnd_tracks_buffer_and_caps() {
        let mut t: Tcb<()> = Tcb::new(Seq(0), 16, 100_000);
        assert_eq!(t.rcv_wnd(), 65535, "capped at the 16-bit field");
        t.recv_buf.take(50);
        assert_eq!(t.rcv_wnd(), 65535.min((100_000 - 50) as u32));
    }

    #[test]
    fn receive_accounting_clamps_closes_and_reopens_the_window() {
        let mut t = tcb();
        assert_eq!(t.recv_buf.take(4000), 4000);
        assert_eq!(t.rcv_wnd(), 96);
        // Over-offer: only what fits is taken, and the window is shut.
        assert_eq!(t.recv_buf.take(500), 96, "take is clamped to the free space");
        assert_eq!(t.recv_buf.free(), 0);
        assert_eq!(t.rcv_wnd(), 0);
        assert_eq!(u32::from(t.wire_window_field(false)), 0);
        assert_eq!(t.recv_buf.take(1), 0, "a full buffer accepts nothing");
        // The user takes delivery: the window reopens by exactly that.
        assert_eq!(t.recv_buf.skip(1000), 1000);
        assert_eq!(t.rcv_wnd(), 1000);
        assert_eq!(t.recv_buf.skip(usize::MAX), 3096, "release is clamped to what is held");
        assert_eq!(t.recv_buf.free(), t.recv_buf.capacity());
        assert_eq!(t.rcv_wnd(), 4096);
    }

    /// Drains the queue and returns what it handed the user (the
    /// `UserData` actions, concatenated) and whether the FIN was reached.
    fn drain(t: &mut Tcb<()>) -> (Vec<u8>, bool) {
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
        t.recv_buf.take(4096 - 30);
        t.insert_out_of_order(Seq(100), (0..50u8).collect::<Vec<u8>>(), true);
        let (data, fin) = drain(&mut t);
        assert_eq!(data, (0..30u8).collect::<Vec<u8>>(), "only what fits is delivered");
        assert!(!fin, "the FIN waits behind the undelivered tail");
        assert_eq!(t.rcv_nxt, Seq(130));
        assert_eq!(t.rcv_wnd(), 0);
        assert_eq!(t.out_of_order.len(), 1, "the remainder is kept");
        t.recv_buf.skip(4096);
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
        assert!(t.out_of_order.is_empty());
        assert_eq!(t.to_do.size(), 2, "one delivery per queued buffer, not one concatenation");
    }

    #[test]
    fn out_of_order_with_gap_waits() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(130), vec![3; 10], false);
        let (data, _) = drain(&mut t);
        assert!(data.is_empty());
        assert_eq!(t.out_of_order.len(), 1);
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
        assert_eq!(t.out_of_order.len(), 1, "contained segment discarded");
        t.insert_out_of_order(Seq(120), vec![3; 20], false); // head held, tail new
        t.insert_out_of_order(Seq(150), vec![5; 10], false);
        t.insert_out_of_order(Seq(135), vec![4; 20], false); // head and tail both held
        let held: Vec<(Seq, usize)> = t.out_of_order.iter().map(|(s, d, _)| (*s, d.len())).collect();
        assert_eq!(held, vec![(Seq(110), 20), (Seq(130), 10), (Seq(140), 10), (Seq(150), 10)]);
        t.insert_out_of_order(Seq(105), vec![6; 50], false); // covers three, overlaps a fourth
        let held: Vec<(Seq, usize)> = t.out_of_order.iter().map(|(s, d, _)| (*s, d.len())).collect();
        assert_eq!(held, vec![(Seq(105), 45), (Seq(150), 10)]);
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
        let mut t: Tcb<()> = Tcb::new(Seq(0), 4096, 65536);
        for i in 0..(MAX_OUT_OF_ORDER + 10) {
            t.insert_out_of_order(Seq(1000 + 10 * i as u32), vec![0; 5], false);
        }
        assert_eq!(t.out_of_order_ranges().count(), MAX_OUT_OF_ORDER);
        assert_eq!(t.out_of_order.len(), MAX_OUT_OF_ORDER);
        // ... but a segment that extends a range, or joins two, is taken.
        t.insert_out_of_order(Seq(1005), vec![0; 5], false);
        assert_eq!(t.out_of_order.len(), MAX_OUT_OF_ORDER + 1);
        assert_eq!(t.out_of_order_ranges().count(), MAX_OUT_OF_ORDER - 1);
        t.check_invariants();

        // Entries: one contiguous run of one-byte segments.
        let mut t: Tcb<()> = Tcb::new(Seq(0), 4096, 65536);
        t.mss = 1000;
        for i in 0..1000 {
            t.insert_out_of_order(Seq(1000 + i), vec![0; 1], false);
        }
        assert_eq!(t.out_of_order.len(), t.max_out_of_order_entries());
        assert_eq!(t.max_out_of_order_entries(), 2 * 65536 / 1000);
        t.check_invariants();

        // Bytes: full segments up to the buffer's capacity and no more.
        let mut t: Tcb<()> = Tcb::new(Seq(0), 4096, 4096);
        t.mss = 100;
        for i in 0..10 {
            t.insert_out_of_order(Seq(1000 + 1000 * i), vec![0; 1000], false);
        }
        assert_eq!(t.out_of_order.len(), 4);
        t.check_invariants();
    }

    #[test]
    fn rtt_timeout_backoff() {
        let mut r = RttEstimator::default();
        assert_eq!(r.timeout(), INITIAL_RTO);
        r.backoff = 3;
        assert_eq!(r.timeout(), VirtualDuration::from_millis(8000));
        r.backoff = 40; // clamped
        assert_eq!(r.timeout(), MAX_RTO);
    }

    #[test]
    fn sent_segment_accounting() {
        let s = SentSegment { seq: Seq(10), len: 100, syn: false, fin: true };
        assert_eq!(s.seq_len(), 101);
        assert_eq!(s.end(), Seq(111));
    }

    #[test]
    fn rcv_wnd_uncaps_with_negotiated_scale() {
        let mut t: Tcb<()> = Tcb::new(Seq(0), 16, 1 << 20);
        assert_eq!(t.rcv_wnd(), 65535, "unscaled until negotiated");
        t.wscale_on = true;
        t.rcv_wscale = 5;
        assert_eq!(t.rcv_wnd(), 1 << 20, "full buffer visible");
        t.recv_buf.take(100);
        // Rounded down to the 32-byte shift granularity — what the peer
        // reconstructs from the wire field.
        assert_eq!(t.rcv_wnd(), ((1 << 20) - 100) & !0x1f);
        assert_eq!(u32::from(t.wire_window_field(false)), ((1 << 20) - 100) >> 5);
        assert_eq!(u32::from(t.wire_window_field(true)), 0xffff, "SYN windows are never scaled");
    }

    #[test]
    fn peer_window_scaling_skips_syn() {
        let mut t = tcb();
        t.wscale_on = true;
        t.snd_wscale = 7;
        let field = foxwire::tcp::wire_window(512, 0);
        assert_eq!(t.scale_peer_window(field, false), 512 << 7);
        assert_eq!(t.scale_peer_window(field, true), 512, "SYN windows are never scaled");
        t.wscale_on = false;
        assert_eq!(t.scale_peer_window(field, false), 512);
    }

    #[test]
    fn sack_blocks_report_out_of_order_ranges() {
        let mut t = tcb();
        t.rcv_nxt = Seq(100);
        t.insert_out_of_order(Seq(200), vec![1; 50], false);
        t.insert_out_of_order(Seq(250), vec![2; 50], false); // adjacent: merges
        t.insert_out_of_order(Seq(400), vec![3; 10], true); // FIN occupies a number
        assert_eq!(*t.sack_blocks_to_send(), [(Seq(400), Seq(411)), (Seq(200), Seq(300))], "newest first");
        assert!(tcb().sack_blocks_to_send().is_empty());
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
            *t.sack_blocks_to_send(),
            [(Seq(800), Seq(850)), (Seq(200), Seq(250)), (Seq(400), Seq(450))]
        );
        // A segment that extends an older range brings that range first.
        t.insert_out_of_order(Seq(450), vec![0; 50], false);
        assert_eq!(
            *t.sack_blocks_to_send(),
            [(Seq(400), Seq(500)), (Seq(200), Seq(250)), (Seq(600), Seq(650))]
        );
        // Once the newest segment has been delivered the order is plain.
        t.insert_out_of_order(Seq(100), vec![0; 100], false);
        t.drain_out_of_order();
        assert_eq!(
            *t.sack_blocks_to_send(),
            [(Seq(400), Seq(500)), (Seq(600), Seq(650)), (Seq(800), Seq(850))]
        );
    }

    #[test]
    fn sack_scoreboard_merges_and_prunes() {
        let mut t = tcb();
        t.snd_una = Seq(1000);
        t.snd_nxt = Seq(6000);
        t.note_sack_blocks(&[(Seq(2000), Seq(3000))]);
        t.note_sack_blocks(&[(Seq(4000), Seq(5000)), (Seq(2500), Seq(3500))]);
        assert_eq!(t.sack_scoreboard, vec![(Seq(2000), Seq(3500)), (Seq(4000), Seq(5000))]);
        assert!(t.sacked(Seq(2000), Seq(3000)));
        assert!(t.sacked(Seq(4000), Seq(5000)));
        assert!(!t.sacked(Seq(3400), Seq(4100)), "spans a hole");
        // Stale range at/below snd_una is clipped away entirely.
        t.note_sack_blocks(&[(Seq(500), Seq(900))]);
        assert_eq!(t.sack_scoreboard.len(), 2);
        t.prune_sack_scoreboard(Seq(4500));
        assert_eq!(t.sack_scoreboard, vec![(Seq(4500), Seq(5000))]);
        // A block claiming bytes never sent is not evidence of anything.
        t.note_sack_blocks(&[(Seq(5500), Seq(6001))]);
        assert_eq!(t.sack_scoreboard, vec![(Seq(4500), Seq(5000))]);
    }

    #[test]
    fn sack_scoreboard_keeps_the_sixteen_lowest_ranges() {
        let mut t = tcb();
        t.snd_una = Seq(1000);
        t.snd_nxt = Seq(3000);
        let range = |i: u32| (Seq(1100 + 100 * i), Seq(1150 + 100 * i));
        // Seventeen disjoint ranges, reported highest first.
        for i in (0..17).rev() {
            t.note_sack_blocks(&[range(i)]);
        }
        assert_eq!(t.sack_scoreboard, (0..16).map(range).collect::<Vec<_>>(), "the seventeenth is dropped");
        // One block that bridges two of them shortens the board instead.
        t.note_sack_blocks(&[(Seq(1150), Seq(1200))]);
        assert_eq!(t.sack_scoreboard.len(), 15);
        assert_eq!(t.sack_scoreboard[0], (Seq(1100), Seq(1250)));
        t.check_invariants();
    }
}
