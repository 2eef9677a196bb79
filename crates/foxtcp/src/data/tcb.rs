//! The Tcb module (paper Fig. 6): "the types with which these data
//! structures are represented and some basic operations on values of
//! these types".
//!
//! Field correspondence with the paper's `tcp_tcb` record:
//!
//! | paper field      | here                                           |
//! |------------------|------------------------------------------------|
//! | `iss`            | [`SeqVars::iss`], read through [`Tcb::seq`]    |
//! | `snd_una` …      | [`SeqVars::snd_una`] and the other RFC 793 vars |
//! | `queued`         | the unsent tail of [`SendSide::send_buf`] (bytes past `snd_nxt`) — the deque of not-yet-sent packets, adapted to a byte-stream store. The sent prefix stays in it until acknowledged and is the only copy of the flight: every transmission, first or repeated, stages its bytes from here (`send::stage`). Bounded by `TcpConfig::send_buffer`, but it holds storage only for what the connection has had queued at once (`foxbasis::ring`: none until the first write, doubled by use) and gives it back when our FIN is acknowledged, so neither an idle connection nor TIME-WAIT pays for the bound |
//! | `out_of_order`   | [`RecvSide::out_of_order`]                     |
//! | `to_do`          | `Tcb::to_do` — the action queue at the heart of the quasi-synchronous control structure |
//!
//! The `tcp_state` datatype is [`crate::TcpState`], which lives with the
//! state machine in [`crate::control::fsm`].
//!
//! The TCB lives in [`crate::data`] because the data path owns its
//! sequence space: the RFC 793 send and receive variables, the
//! duplicate-ACK count, the recovery record and the persist backoff are
//! `pub(in crate::data)`, so only the data-path modules and the TCB's
//! own methods can write them, and everything else reads a copy
//! ([`Tcb::seq`]). The rest of the TCB is records, each with fields
//! private to the one module that writes them, which also holds the
//! TCB's methods that touch it: [`Negotiated`] (set once, at SYN time),
//! [`RecvSide`] and the ACK clock are [`crate::data::transfer`]'s,
//! [`SendSide`] is [`crate::data::resend`]'s, and the congestion windows
//! are [`crate::congestion::Cc`]'s. No field of the TCB is `pub`.

use crate::action::TcpAction;
use crate::congestion::Cc;
use crate::data::resend::SendSide;
use crate::data::transfer::{AckClock, Negotiated, RecvSide};
use crate::TcpConfig;
use foxbasis::fifo::Fifo;
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
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
/// where they were before it was sent — in [`SendSide::send_buf`], which
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
/// can see; outside it [`SeqVars::recovery`] is a copy.
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

/// The sequence space as code outside [`crate::data`] reads it: a copy
/// ([`Tcb::seq`]), so reading it can write nothing.
#[allow(missing_docs, reason = "each field is a copy of the `Tcb` field of the same name")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqVars {
    pub iss: Seq,
    pub snd_una: Seq,
    pub snd_nxt: Seq,
    pub snd_wnd: u32,
    pub snd_wl1: Seq,
    pub irs: Seq,
    pub rcv_nxt: Seq,
    pub dup_acks: u32,
    pub recovery: Option<Recovery>,
}

/// The transmission control block (paper Fig. 6 `tcp_tcb`). Plain data:
/// a clone is a snapshot, and two snapshots compare field by field, so a
/// test can diff the TCB before and after one input.
#[derive(Clone, PartialEq)]
pub struct Tcb {
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

    // --- the records, each written only by its owner ---
    /// The SYN-time parameters (`data::transfer`'s).
    pub(in crate::data) neg: Negotiated,
    /// Queued and in-flight bytes and their bookkeeping (`data::resend`'s).
    pub(in crate::data) snd: SendSide,
    /// The receive buffer, reassembly and timestamps (`data::transfer`'s).
    pub(in crate::data) rcv: RecvSide,
    /// The delayed-ACK bookkeeping (`data::transfer`'s).
    pub(in crate::data) clock: AckClock,

    // --- congestion control (RFC 1122 / Jacobson) ---
    /// The congestion windows: `cwnd` and `ssthresh` are [`Cc`]'s
    /// private fields, written only in [`crate::congestion`] and read
    /// through [`Tcb::cc`].
    pub(crate) cc: Cc,
    /// Consecutive duplicate ACKs seen.
    pub(in crate::data) dup_acks: u32,
    /// The loss-recovery episode in progress, if any.
    pub(in crate::data) recovery: Option<Recovery>,
    /// Zero-window probe backoff exponent. Separate from
    /// [`RttEstimator::backoff`] because every *answered* probe resets
    /// the RTT backoff (the probe byte is new data being acked) while
    /// the persist interval must keep growing until the window opens.
    pub(in crate::data) persist_backoff: u32,

    // --- the control structure ---
    /// The to_do action queue (paper: `to_do: tcp_action Q.T ref`),
    /// owned outright: an armed timer holds `(connection id, kind)` on
    /// the engine's wheel, never a handle to this queue. Crate-private;
    /// external code enqueues with [`Tcb::push_action`] and the engine
    /// drains.
    pub(crate) to_do: Fifo<TcpAction>,
}

impl Tcb {
    /// A TCB for a connection configured by `cfg`, with initial send
    /// sequence number `iss`, sending segments of at most `mss` bytes
    /// until the peer's SYN says less.
    pub fn new(cfg: &TcpConfig, iss: Seq, mss: u32) -> Tcb {
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
            neg: Negotiated::new(cfg, mss),
            snd: SendSide::new(cfg),
            rcv: RecvSide::new(cfg.initial_window),
            clock: AckClock::new(cfg.initial_window),
            cc: Cc::new(),
            dup_acks: 0,
            recovery: None,
            persist_backoff: 0,
            to_do: Fifo::new(),
        }
    }

    /// Makes this TCB `==` what [`Tcb::new`] makes from the same
    /// arguments, keeping the storage its queues have grown: the
    /// `to_do` queue here, and each record's queues by the record's own
    /// `reset`. The records without storage are simply made again.
    /// Allocates nothing ([`Tcb::new`] does not either).
    pub(crate) fn reset(&mut self, cfg: &TcpConfig, iss: Seq, mss: u32) {
        self.snd.reset(cfg);
        self.rcv.reset(cfg.initial_window);
        self.to_do.clear();
        let Tcb { snd, rcv, to_do, .. } = std::mem::replace(self, Tcb::new(cfg, iss, mss));
        (self.snd, self.rcv, self.to_do) = (snd, rcv, to_do);
    }

    /// The sequence space, as a copy.
    pub fn seq(&self) -> SeqVars {
        let Tcb { iss, snd_una, snd_nxt, snd_wnd, snd_wl1, irs, rcv_nxt, dup_acks, recovery, .. } = *self;
        SeqVars { iss, snd_una, snd_nxt, snd_wnd, snd_wl1, irs, rcv_nxt, dup_acks, recovery }
    }

    /// What the SYNs agreed (a copy: it is read-only after them).
    pub fn negotiated(&self) -> Negotiated {
        self.neg
    }

    /// The send side.
    pub fn send_side(&self) -> &SendSide {
        &self.snd
    }

    /// The receive side.
    pub fn recv_side(&self) -> &RecvSide {
        &self.rcv
    }

    /// The congestion windows.
    pub fn cc(&self) -> &Cc {
        &self.cc
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

    /// Pushes an action onto the to_do queue (the only way anything is
    /// ever scheduled against a connection).
    pub fn push_action(&mut self, action: TcpAction) {
        self.to_do.add(action);
    }

    /// Asserts the relations among the TCB's fields that every module
    /// relies on and none re-checks. The engine calls this after every
    /// executed action in debug builds (the switch `fsm::transition`'s
    /// guard uses), so the whole suite and every matrix cell run from a
    /// debug build check them at every step; release builds never call
    /// it. The relations about one record are checked by its owner
    /// (`check_send_side`, `check_recv_side`).
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
        self.check_send_side();
        self.check_recv_side();

        // A recovery episode is about the flight it found.
        if let Some(r) = self.recovery {
            for (name, v) in [("recover", r.recover), ("high_rxt", r.high_rxt)] {
                assert!(self.snd_una.le(v) && v.le(self.snd_nxt), "{name} {v} outside the flight");
            }
            assert!(r.high_rxt.le(r.recover), "retransmitted past the recovery point");
        }

        // Congestion control, when on (a zero window is the ablation
        // switch), never starves the connection of one segment.
        let (cwnd, mss) = (self.cc.cwnd(), self.neg.mss());
        assert!(cwnd == 0 || cwnd >= mss, "cwnd {cwnd} under one MSS {mss}");
    }
}

/// Test helper: drains the to_do queue, returning the segments it
/// staged, in order.
#[cfg(test)]
impl Tcb {
    pub(crate) fn drain_segments(&mut self) -> Vec<foxwire::tcp::TcpSegment> {
        let drained = self.to_do.drain_all().into_iter();
        drained.filter_map(|a| if let TcpAction::SendSegment(s) = a { Some(s) } else { None }).collect()
    }
}

impl fmt::Debug for Tcb {
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
            self.rcv.out_of_order().len(),
            self.to_do.size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcb() -> Tcb {
        Tcb::new(&TcpConfig::default(), Seq(1000), 536)
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
        t.check_invariants();
    }

    #[test]
    fn windows_and_flight() {
        let mut t = tcb();
        t.snd_wnd = 4096;
        t.snd.write(&[0; 1000]);
        assert_eq!(t.unsent(), 1000);
        t.snd_nxt = t.snd_una + 600;
        assert_eq!(t.flight_size(), 600);
        assert_eq!(t.unsent(), 400);
        assert_eq!(t.usable_window(), 4096 - 600);
        t.cc.set_cwnd(800);
        assert_eq!(t.usable_window(), 200, "cwnd caps the window");
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
}
