//! The Resend module: the retransmission queue and the round-trip time
//! computations "developed by Karn and Jacobson" (paper §4), plus the
//! Jacobson congestion windows RFC 1122 requires.
//!
//! Responsibilities, exactly as the paper assigns them: implement the
//! RTT estimation, and "remove acknowledged segments from the retransmit
//! queue". It owns the TCB's [`SendSide`]: the Send module queues bytes
//! and records what it sent through the methods here, and control asks
//! whether our FIN is acknowledged (`Tcb::fin_acked`).
//!
//! Loss recovery is one record and one walk. A loss detected either way
//! — the third duplicate ACK ([`duplicate_ack`]) or the retransmission
//! timer ([`rto_backoff`]) — opens a [`Recovery`] episode that lasts
//! until the ACK covering what was outstanding when it began. While it
//! stands, every ACK that can change what should go out next — a further
//! duplicate or a partial ACK in fast recovery, any ACK of new data
//! after a timeout — calls [`retransmit_lost`], which walks the resend
//! queue upward from the highest sequence already retransmitted and
//! resends what is presumed lost. After a timeout that is the old
//! flight, as far as the congestion window covers what has been resent
//! since `snd_una`: slow-start retransmission, 1, 2, 4 … segments per
//! round trip (RFC 5681 §3.1; with no scoreboard, BSD's go-back-N). In
//! fast recovery it is one segment per ACK — RFC 6675's `NextSeg` on
//! Reno's ACK clock, and with no scoreboard NewReno's one hole per
//! partial ACK. The timer is what is left when no ACK comes back at all.

use crate::action::TcpAction;
use crate::data::send;
use crate::data::tcb::{Recovery, RttEstimator, SentSegment, Tcb, MAX_RTO, MIN_RTO};
use crate::{congestion, ConnCore, TcpConfig};
use foxbasis::obs::{LossEvent, TimerKind};
use foxbasis::ring::RingBuffer;
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::tcp::{TcpFlags, TcpSegment};
use std::collections::VecDeque;

/// The send side of a connection: the bytes queued and in flight, where
/// our FIN is, the retransmission queue, the round-trip estimator, the
/// retry budget and the SACK scoreboard.
#[derive(Clone, PartialEq)]
pub struct SendSide {
    /// Outgoing byte store: `snd_una .. snd_una + send_buf.len()`.
    /// The prefix up to `snd_nxt` is sent-but-unacked — the one copy of
    /// the flight, which `resend_queue` describes and every
    /// retransmission reads; the tail is the paper's `queued` — staged,
    /// unsent data. Its storage grows with use, and once our FIN is
    /// acknowledged ([`process_ack`]) — nothing can be written or resent
    /// after that — all of it past the ring's floor is released.
    send_buf: RingBuffer,
    /// True once the user has called `close` — a FIN follows the last
    /// byte of `send_buf`.
    fin_pending: bool,
    /// Sequence number our FIN occupies once sent.
    fin_seq: Option<Seq>,
    /// Sent, unacknowledged segments, oldest first: sequence ranges
    /// over the sent prefix of `send_buf`.
    resend_queue: VecDeque<SentSegment>,
    /// RTT estimation.
    rtt: RttEstimator,
    /// Retransmissions remaining before the connection gives up.
    retransmits_left: u32,
    /// The sender-side SACK scoreboard (RFC 6675): peer-reported
    /// received ranges above `snd_una`, merged and sorted.
    sack_scoreboard: Vec<(Seq, Seq)>,
}

impl SendSide {
    /// An empty send side bounded by `cfg.send_buffer`, with
    /// `cfg.max_retransmits` retries to spend from the first SYN on.
    pub(crate) fn new(cfg: &TcpConfig) -> SendSide {
        SendSide {
            send_buf: RingBuffer::new(cfg.send_buffer.max(1)),
            fin_pending: false,
            fin_seq: None,
            resend_queue: VecDeque::new(),
            rtt: RttEstimator::default(),
            retransmits_left: cfg.max_retransmits,
            sack_scoreboard: Vec::new(),
        }
    }

    /// Makes this send side what [`SendSide::new`] makes for `cfg`,
    /// keeping the storage the ring, the resend queue and the scoreboard
    /// have grown: the engine re-initialises a reaped connection's
    /// record this way for the next connection it files.
    pub(crate) fn reset(&mut self, cfg: &TcpConfig) {
        debug_assert_eq!(self.send_buf.capacity(), cfg.send_buffer.max(1), "one engine, one bound");
        self.send_buf.clear();
        self.resend_queue.clear();
        self.sack_scoreboard.clear();
        let SendSide { send_buf, resend_queue, sack_scoreboard, .. } =
            std::mem::replace(self, SendSide::new(cfg));
        (self.send_buf, self.resend_queue, self.sack_scoreboard) = (send_buf, resend_queue, sack_scoreboard);
    }

    /// The outgoing byte store.
    pub fn send_buf(&self) -> &RingBuffer {
        &self.send_buf
    }

    /// Sent, unacknowledged segments, oldest first.
    pub fn resend_queue(&self) -> &VecDeque<SentSegment> {
        &self.resend_queue
    }

    /// RTT estimation.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// The SACK scoreboard: ranges above `snd_una`, sorted and disjoint.
    pub fn sack_scoreboard(&self) -> &[(Seq, Seq)] {
        &self.sack_scoreboard
    }

    /// True if the peer has SACKed the whole range `[seq, end)`.
    pub fn sacked(&self, seq: Seq, end: Seq) -> bool {
        self.sack_scoreboard.iter().any(|(s, e)| s.le(seq) && end.le(*e))
    }

    /// True once the user has closed: a FIN follows the last byte.
    pub(crate) fn fin_pending(&self) -> bool {
        self.fin_pending
    }

    /// Accepts user bytes into the send buffer (the paper's `queued`
    /// store); returns how many were accepted — none once the user has
    /// closed, and none when the buffer is full, which is flow control
    /// pushing back on the user.
    pub(crate) fn write(&mut self, data: &[u8]) -> usize {
        if self.fin_pending {
            return 0;
        }
        self.send_buf.write(data)
    }

    /// Drops scoreboard ranges the cumulative ACK has overtaken.
    fn prune_sack_scoreboard(&mut self, ack: Seq) {
        self.sack_scoreboard.retain(|(_, e)| e.gt(ack));
        for (s, _) in &mut self.sack_scoreboard {
            if s.lt(ack) {
                *s = ack;
            }
        }
    }
}

impl Tcb {
    /// Unsent bytes staged in the send buffer (the paper's `queued`).
    pub fn unsent(&self) -> u32 {
        (self.snd.send_buf.len() as u32).saturating_sub(self.flight_size())
    }

    /// Drops everything buffered in either direction: the one discard
    /// that abort, a peer's reset and the user timeout share on their
    /// way to CLOSED. The sequence variables stay where they were.
    pub(crate) fn discard(&mut self) {
        self.snd.resend_queue.clear();
        self.snd.send_buf.clear();
        self.rcv.discard();
    }

    /// The user closed: a FIN follows the last byte queued.
    pub(crate) fn close_send(&mut self) {
        self.snd.fin_pending = true;
    }

    /// True once our FIN has been sent: no sequence space is left.
    pub(crate) fn fin_sent(&self) -> bool {
        self.snd.fin_seq.is_some_and(|f| self.snd_nxt.gt(f))
    }

    /// True once our FIN is acknowledged — the one test of it, for the
    /// closing states' ACK and FIN processing.
    pub(crate) fn fin_acked(&self) -> bool {
        self.snd.fin_seq.is_some_and(|f| (f + 1).le(self.snd_una))
    }

    /// Merges peer-reported SACK blocks into the scoreboard, dropping
    /// anything at or below `snd_una` and keeping the ranges sorted and
    /// disjoint.
    pub(crate) fn note_sack_blocks(&mut self, blocks: &[(Seq, Seq)]) {
        let board = &mut self.snd.sack_scoreboard;
        for &(start, end) in blocks {
            let start = if start.lt(self.snd_una) { self.snd_una } else { start };
            if !start.lt(end) || end.gt(self.snd_nxt) {
                continue; // empty, or claims bytes never sent
            }
            board.insert(board.partition_point(|(s, _)| s.lt(start)), (start, end));
        }
        // Coalesce overlapping/adjacent ranges, in place: a range that
        // touches the one kept before it extends that one and goes.
        board.dedup_by(|next, kept| {
            let touches = next.0.le(kept.1);
            if touches && next.1.gt(kept.1) {
                kept.1 = next.1;
            }
            touches
        });
        board.truncate(16);
    }

    /// The interval to arm the persist (zero-window probe) timer with:
    /// the current RTO scaled by the probe backoff, capped like the
    /// retransmit timeout. Uses `persist_backoff`, not the RTT backoff,
    /// so an answered probe (which resets the RTT backoff) cannot stop
    /// the probe interval from growing.
    pub fn persist_timeout(&self) -> VirtualDuration {
        self.snd.rtt.rto.saturating_mul(1u64 << self.persist_backoff.min(6)).min(MAX_RTO)
    }

    /// The send side's share of [`Tcb::check_invariants`].
    pub(in crate::data) fn check_send_side(&self) {
        let s = &self.snd;
        // In-flight data never exceeds what the buffers can back (plus
        // the SYN and FIN octets).
        assert!(
            self.flight_size() as usize <= s.send_buf.capacity() + 2,
            "flight {} vs send buffer {}",
            self.flight_size(),
            s.send_buf.capacity()
        );
        // The send buffer's storage grows by use, never past its bound.
        assert!(
            s.send_buf.storage() <= s.send_buf.capacity(),
            "send buffer stores {} for a bound of {}",
            s.send_buf.storage(),
            s.send_buf.capacity()
        );

        // The retransmission queue is ordered, and only its front entry
        // may carry the SYN (`send::stage` relies on it).
        let q = &s.resend_queue;
        for (i, (a, b)) in q.iter().zip(q.iter().skip(1)).enumerate() {
            assert!(a.end().le(b.seq), "resend queue out of order at {i}: {} then {}", a.end(), b.seq);
            assert!(!b.syn, "resend queue entry {} carries a SYN", i + 1);
        }
        // The queue holds ranges, not bytes: what it describes must
        // still be in the send buffer for a retransmission to stage.
        let queued: usize = q.iter().map(|s| s.len as usize).sum();
        assert!(queued <= s.send_buf.len(), "resend queue describes {queued} bytes of {}", s.send_buf.len());
        // And it describes the whole flight, or nothing: `abort`, a peer
        // reset and the user timeout clear the queue and leave `snd_una`
        // and `snd_nxt` where they were, so an empty queue says nothing
        // about the flight.
        let described: u32 = q.iter().map(SentSegment::seq_len).sum();
        assert!(
            q.is_empty() || described == self.flight_size(),
            "resend queue covers {described} of a flight of {}",
            self.flight_size()
        );

        // The scoreboard: sorted, disjoint, and about bytes in flight.
        for &(s, e) in &s.sack_scoreboard {
            assert!(s.lt(e), "empty scoreboard range {s}..{e}");
            assert!(self.snd_una.le(s) && e.le(self.snd_nxt), "scoreboard range {s}..{e} outside the flight");
        }
        for (a, b) in s.sack_scoreboard.iter().zip(s.sack_scoreboard.iter().skip(1)) {
            assert!(a.1.lt(b.0), "scoreboard ranges {a:?} and {b:?} touch or cross");
        }
    }
}

/// Jacobson's estimator update: `rttvar = 3/4 rttvar + 1/4 |srtt - m|`,
/// `srtt = 7/8 srtt + 1/8 m`, `rto = srtt + 4 rttvar`, clamped.
pub fn update_rtt(est: &mut RttEstimator, sample: VirtualDuration) {
    match est.srtt {
        None => {
            est.srtt = Some(sample);
            est.rttvar = sample / 2;
        }
        Some(srtt) => {
            let err = if srtt > sample { srtt - sample } else { sample - srtt };
            est.rttvar = (est.rttvar * 3) / 4 + err / 4;
            est.srtt = Some((srtt * 7) / 8 + sample / 8);
        }
    }
    let srtt = est.srtt.expect("just set");
    est.rto = (srtt + est.rttvar * 4).max(MIN_RTO).min(MAX_RTO);
}

/// Processes an ACK that satisfies `SND.UNA < SEG.ACK =< SND.NXT`:
/// removes acknowledged segments from the retransmit queue, advances
/// `snd_una`, releases send-buffer bytes, takes the RTT sample (Karn),
/// opens the congestion window, and re-arms or clears the retransmit
/// timer.
pub fn process_ack(cfg: &TcpConfig, core: &mut ConnCore, ack: Seq, now: VirtualTime) {
    let tcb = &mut core.tcb;
    let s = &mut tcb.snd;
    // Payload bytes newly acknowledged, and whether our FIN is.
    let (mut bytes_acked, mut fin_acked) = (0, false);

    // Remove acknowledged segments from the retransmit queue.
    while let Some(front) = s.resend_queue.front() {
        if front.end().le(ack) {
            let seg = s.resend_queue.pop_front().expect("front");
            bytes_acked += seg.len;
            fin_acked |= seg.fin;
        } else {
            break;
        }
    }
    // Partial ACK inside the front segment: trim it.
    if let Some(front) = s.resend_queue.front_mut() {
        if front.seq.lt(ack) && ack.lt(front.end()) {
            // The entry becomes the unacknowledged remainder: the SYN
            // octet is first, so it is covered, and an ACK short of the
            // entry's end leaves its last data byte or its FIN.
            let data_cut = ack.since(front.seq) - u32::from(front.syn);
            front.syn = false;
            front.seq = ack;
            front.len -= data_cut;
            bytes_acked += data_cut;
        }
    }

    // RTT sampling. With timestamps negotiated, every acceptable ACK
    // carries a usable TSecr (RFC 7323 RTTM) — retransmission ambiguity
    // doesn't arise because the echoed value identifies the send.
    // Without them, Karn: only sample if the timed sequence number is
    // covered and no retransmission intervened (timing is cleared on
    // retransmit).
    if tcb.neg.ts_on() {
        if let Some(ecr) = tcb.rcv.take_ts_ecr() {
            let sample_ms = u64::from((now.as_millis() as u32).wrapping_sub(ecr));
            if sample_ms < 3_600_000 {
                update_rtt(&mut s.rtt, VirtualDuration::from_millis(sample_ms));
            }
            s.rtt.timing = None;
        }
    } else if let Some((timed_seq, sent_at)) = s.rtt.timing {
        if timed_seq.le(ack) {
            update_rtt(&mut s.rtt, now.saturating_since(sent_at));
            s.rtt.timing = None;
        }
    }

    // The ACK of new data resets backoff and the give-up counter.
    s.rtt.backoff = 0;
    s.retransmits_left = cfg.max_retransmits;
    tcb.dup_acks = 0;

    // Release acknowledged bytes from the send buffer. (snd_una tracks
    // the buffer head; SYN/FIN octets occupy sequence space but no
    // buffer bytes.)
    s.send_buf.skip(bytes_acked as usize);
    if fin_acked {
        // Everything before the FIN is acknowledged with it and nothing
        // follows it: the buffer is empty for good, so storage it grew
        // goes back now. Floor-sized storage stays (`RingBuffer::clear`)
        // for the connection that reuses this record once it is reaped,
        // so TIME-WAIT holds at most `STORAGE_FLOOR` (64) bytes of ring.
        s.send_buf.clear();
    }
    tcb.snd_una = ack;
    s.prune_sack_scoreboard(ack); // without SACK the board is empty

    // The recovery episode, if one is open. An ACK covering the recovery
    // point ends it; below that, recovery continues and the walk below
    // resends what this ACK made room for. Fast recovery (NewReno,
    // RFC 6582) owns the window meanwhile — deflate by the amount
    // acknowledged plus one MSS back, so the pipe stays as full as it
    // was, and to ssthresh on exit — while after a timeout slow start
    // does, through the ordinary growth rule.
    let fast_recovery = tcb.recovery.is_some_and(|r| !r.by_rto);
    if let Some(r) = &mut tcb.recovery {
        if ack.ge(r.recover) {
            tcb.recovery = None;
            if fast_recovery {
                congestion::exit_recovery(tcb);
                tcb.push_action(TcpAction::Loss(LossEvent::RecoveryExited));
            }
        } else {
            if r.high_rxt.lt(ack) {
                r.high_rxt = ack;
            }
            tcb.snd.rtt.timing = None; // Karn: retransmissions follow
            if fast_recovery {
                congestion::partial_ack(tcb, bytes_acked);
                tcb.push_action(TcpAction::Loss(LossEvent::PartialAck));
            }
        }
    }

    // Congestion window growth: slow start below ssthresh, linear
    // above (`congestion::on_ack`). Suspended during fast recovery —
    // inflation/deflation own the window until the recovery point is
    // acknowledged.
    if cfg.congestion_control && !fast_recovery {
        congestion::on_ack(tcb, bytes_acked);
    }

    // Retransmit timer: clear when everything is acknowledged, restart
    // when something is still outstanding.
    if tcb.snd.resend_queue.is_empty() {
        tcb.push_action(TcpAction::ClearTimer(TimerKind::Resend));
    } else {
        tcb.push_action(TcpAction::SetTimer(TimerKind::Resend, tcb.snd.rtt.timeout().as_millis()));
    }
    retransmit_lost(core, now);
}

/// A duplicate ACK (`SEG.ACK == SND.UNA` with nothing else of interest).
/// Three trigger fast retransmit and enter fast recovery (Reno); while
/// recovering, every further duplicate ACK inflates the congestion
/// window by one MSS — each one means a segment left the network — the
/// scoreboard it updated may show the next hole, and new data is
/// transmitted when the inflated window allows. Recovery ends (and the
/// window deflates) in [`process_ack`] when the recovery point is
/// acknowledged. Duplicates that arrive during the episode a timeout
/// opened are its own go-back-N's echo: they enter nothing (RFC 6582
/// §4), or every timeout would halve the window a second time.
pub fn duplicate_ack(cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) {
    if core.tcb.snd.resend_queue.is_empty() {
        return;
    }
    core.tcb.dup_acks += 1;
    if !cfg.congestion_control {
        return;
    }
    match core.tcb.recovery {
        // Neither the window nor `snd_una` moved: nothing more fits.
        Some(r) if r.by_rto => {}
        Some(_) => {
            congestion::dup_ack_inflate(&mut core.tcb);
            retransmit_lost(core, now);
            send::maybe_send(cfg, core, now);
        }
        // `>=` rather than `==`: if the third duplicate arrives while
        // an episode is still open, the next one after it closes still
        // enters.
        None if core.tcb.dup_acks >= 3 => {
            // Enter fast recovery: halve the window, remember where
            // recovery ends, and retransmit the first unacknowledged
            // segment without waiting for the timer.
            let tcb = &mut core.tcb;
            congestion::enter_recovery(tcb);
            tcb.recovery = Some(Recovery { recover: tcb.snd_nxt, high_rxt: tcb.snd_una, by_rto: false });
            tcb.snd.rtt.timing = None; // Karn
            tcb.push_action(TcpAction::Loss(LossEvent::RecoveryEntered));
            retransmit_lost(core, now);
        }
        None => {}
    }
}

/// The one place a segment is chosen for retransmission (RFC 6675's
/// `NextSeg`, rules 1 and 3 folded together): the lowest segment of the
/// resend queue that starts at or above the highest sequence already
/// retransmitted in this episode, is presumed lost, and that the peer
/// has not SACKed. Only the flight the episode found (what lies below
/// the recovery point) is ever presumed lost: all of it after a timeout;
/// after three duplicates, what lies below the highest SACKed byte — and
/// always the front segment, which is what the duplicates are about, and
/// which goes out whatever the scoreboard says (a peer may renege).
fn next_lost(tcb: &Tcb) -> Option<&SentSegment> {
    let r = tcb.recovery?;
    let sacked_to = tcb.snd.sack_scoreboard.last().map(|&(_, end)| end);
    let presumed_lost = |s: &SentSegment| {
        s.end().le(r.recover)
            && (r.by_rto || s.seq == tcb.snd_una || sacked_to.is_some_and(|end| s.end().le(end)))
    };
    tcb.snd
        .resend_queue
        .iter()
        .skip_while(|s| s.seq.lt(r.high_rxt))
        .take_while(|s| presumed_lost(s))
        .find(|s| s.seq == tcb.snd_una || !tcb.snd.sacked(s.seq, s.end()))
}

/// The walk the ACKs of a recovery episode take, and the timer before
/// the first of them: resend `next_lost` segments, lowest first. After
/// a timeout, as many as keep what has been resent since `snd_una`
/// inside the congestion window (one segment, with congestion control
/// off), so the old flight leaves under slow start; in fast recovery one
/// per call, because there every ACK stands for one segment that left
/// the network. Does nothing outside an episode. The queue holds
/// sequence ranges, so each segment the walk sends is staged from the
/// send buffer again: one copy per segment resent, the same copy its
/// first transmission made.
pub fn retransmit_lost(core: &mut ConnCore, now: VirtualTime) {
    while let Some(seg) = next_lost(&core.tcb).copied() {
        let tcb = &mut core.tcb;
        let r = tcb.recovery.as_mut().expect("next_lost found an episode");
        if seg.seq != tcb.snd_una && seg.end().since(tcb.snd_una) > tcb.cc.cwnd().max(tcb.neg.mss()) {
            return;
        }
        r.high_rxt = seg.end();
        let by_rto = r.by_rto;
        retransmit_segment(core, seg, now);
        let how = if by_rto { LossEvent::RtoRetransmit } else { LossEvent::FastRetransmit };
        core.tcb.push_action(TcpAction::Loss(how));
        if !by_rto {
            return;
        }
    }
}

/// Stages `seg`'s bytes again, rebuilds its header (current `rcv_nxt`,
/// window, negotiated options — no SACK blocks) and queues it for
/// transmission.
fn retransmit_segment(core: &mut ConnCore, seg: SentSegment, now: VirtualTime) {
    let payload = send::stage(core, seg.seq, seg.len);
    let ack = if seg.syn { core.state.is_syn_received() } else { true };
    let flags = TcpFlags { syn: seg.syn, fin: seg.fin, ack, psh: seg.len > 0, ..TcpFlags::default() };
    let mut header = send::make_header(core, flags, seg.seq, now, false);
    // A resent SYN without the ACK bit still carries `rcv_nxt`, as it
    // always has; the field means nothing without the bit.
    header.ack = core.tcb.rcv_nxt;
    core.tcb.push_action(TcpAction::SendSegment(TcpSegment { header, payload }));
}

/// True while the retransmission queue still holds unacknowledged
/// flight — a retransmission timer that fires with nothing queued is
/// stale and should do nothing.
pub fn has_flight(core: &ConnCore) -> bool {
    !core.tcb.snd.resend_queue.is_empty()
}

/// True once the per-connection retry budget is spent. The control path
/// turns this into a give-up (the paper's user timeout); the data path
/// only reports it.
pub fn out_of_retries(core: &ConnCore) -> bool {
    core.tcb.snd.retransmits_left == 0
}

/// The data-path half of a retransmission timeout: spend a retry, back
/// the RTO off exponentially, apply Karn's rule, let the congestion
/// controller respond, and open the recovery episode that the ACKs to
/// come will walk — everything outstanding now is presumed lost, less
/// what the scoreboard says arrived (RFC 6675 §5.1 keeps it across a
/// timeout; the front segment goes out whatever it says, so a peer that
/// reneged costs a timeout per segment, not the connection). Any fast
/// recovery in progress is abandoned: slow start owns the window again.
/// Whether the connection *gives up* — the retry budget, the SYN-state
/// retry accounting — is decided on the control side
/// (`state::timer_expired`), around this call.
pub fn rto_backoff(cfg: &TcpConfig, core: &mut ConnCore) {
    let tcb = &mut core.tcb;
    tcb.snd.retransmits_left -= 1;
    tcb.snd.rtt.backoff += 1;
    tcb.snd.rtt.timing = None; // Karn: never time a retransmitted segment
    tcb.push_action(TcpAction::Loss(LossEvent::Rto));
    if cfg.congestion_control {
        congestion::on_rto(tcb);
        tcb.dup_acks = 0;
    }
    tcb.recovery = Some(Recovery { recover: tcb.snd_nxt, high_rxt: tcb.snd_una, by_rto: true });
}

/// Resends the front (oldest unacknowledged) segment — all one MSS of
/// congestion window covers — and re-arms the retransmission timer with
/// the backed-off RTO.
pub fn retransmit_and_rearm(core: &mut ConnCore, now: VirtualTime) {
    retransmit_lost(core, now);
    let timeout = core.tcb.snd.rtt.timeout().as_millis();
    core.tcb.push_action(TcpAction::SetTimer(TimerKind::Resend, timeout));
}

/// Records a freshly transmitted segment in the retransmission queue —
/// and, if it carries our FIN, where the FIN is — and starts the RTT
/// clock if idle.
pub fn record_sent(tcb: &mut Tcb, seg: SentSegment, now: VirtualTime) {
    let s = &mut tcb.snd;
    if s.rtt.timing.is_none() && seg.seq_len() > 0 {
        s.rtt.timing = Some((seg.end(), now));
    }
    if seg.fin {
        s.fin_seq = Some(seg.seq + seg.len);
    }
    let was_empty = s.resend_queue.is_empty();
    s.resend_queue.push_back(seg);
    if was_empty {
        let timeout = s.rtt.timeout().as_millis();
        tcb.push_action(TcpAction::SetTimer(TimerKind::Resend, timeout));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tcb::INITIAL_RTO;
    use crate::data::transfer::Fixture;
    use crate::testlink::no_nagle;
    use crate::TcpState;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// A flight of `n` 1000-byte segments of 0xAA from sequence 100,
    /// sent under a peer window of `snd_wnd`, none of them timed.
    fn flight(n: usize, snd_wnd: u32) -> ConnCore {
        let mut core = Fixture { snd_wnd, ..Fixture::default() }.core();
        assert_eq!(
            send::user_send(&no_nagle(), &mut core, &vec![0xAA; n * 1000], VirtualTime::ZERO),
            n * 1000
        );
        core.tcb.snd.rtt.timing = None;
        core.tcb.to_do.clear();
        core
    }

    fn core_with_flight() -> ConnCore {
        flight(3, 8000)
    }

    fn drain(core: &mut ConnCore) -> Vec<String> {
        core.tcb.to_do.drain_all().into_iter().map(|a| format!("{a:?}")).collect()
    }

    /// Drives a retransmission timeout the way the engine does: through
    /// the control path (`state::timer_expired`), which wraps the data
    /// helpers under test here.
    fn rto(core: &mut ConnCore, at_ms: u64) {
        crate::control::state::timer_expired(
            &cfg(),
            core,
            TimerKind::Resend,
            VirtualTime::from_millis(at_ms),
        );
    }

    #[test]
    fn jacobson_first_sample_initializes() {
        let mut est = RttEstimator::default();
        update_rtt(&mut est, VirtualDuration::from_millis(100));
        assert_eq!(est.srtt, Some(VirtualDuration::from_millis(100)));
        assert_eq!(est.rttvar, VirtualDuration::from_millis(50));
        // srtt + 4·rttvar = 300 ms, floored at the BSD 1 s minimum.
        assert_eq!(est.rto, MIN_RTO);
        // A slow path's first sample escapes the floor.
        let mut est = RttEstimator::default();
        update_rtt(&mut est, VirtualDuration::from_millis(600));
        assert_eq!(est.rto, VirtualDuration::from_millis(600 + 4 * 300));
    }

    #[test]
    fn jacobson_converges_on_steady_rtt() {
        let mut est = RttEstimator::default();
        for _ in 0..50 {
            update_rtt(&mut est, VirtualDuration::from_millis(80));
        }
        let srtt = est.srtt.unwrap().as_millis();
        assert!((78..=82).contains(&srtt), "srtt={srtt}");
        // Variance decays toward zero, so RTO falls to the floor.
        assert_eq!(est.rto, MIN_RTO);
    }

    #[test]
    fn jacobson_spike_inflates_rto() {
        let mut est = RttEstimator::default();
        for _ in 0..10 {
            update_rtt(&mut est, VirtualDuration::from_millis(500));
        }
        let calm = est.rto;
        update_rtt(&mut est, VirtualDuration::from_millis(5000));
        assert!(est.rto > calm, "a spike must raise the RTO: {:?} vs {calm:?}", est.rto);
    }

    #[test]
    fn ack_removes_covered_segments() {
        let mut core = core_with_flight();
        process_ack(&cfg(), &mut core, Seq(2100), VirtualTime::from_millis(50));
        assert_eq!(core.tcb.snd_una, Seq(2100));
        assert_eq!(core.tcb.snd.resend_queue.len(), 1);
        assert_eq!(core.tcb.snd.send_buf.len(), 1000, "acked bytes released");
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a.starts_with("Set_Timer(Resend")), "timer restarts: {acts:?}");
    }

    #[test]
    fn full_ack_clears_resend_timer() {
        let mut core = core_with_flight();
        process_ack(&cfg(), &mut core, Seq(3100), VirtualTime::from_millis(50));
        assert!(core.tcb.snd.resend_queue.is_empty());
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a.starts_with("Clear_Timer(Resend")), "{acts:?}");
    }

    #[test]
    fn partial_ack_trims_front_segment() {
        let mut core = core_with_flight();
        process_ack(&cfg(), &mut core, Seq(600), VirtualTime::from_millis(10));
        assert_eq!(core.tcb.snd.send_buf.len(), 2500, "500 bytes acknowledged");
        let front = core.tcb.snd.resend_queue.front().unwrap();
        assert_eq!(front.seq, Seq(600));
        assert_eq!(front.len, 500);
    }

    #[test]
    fn rtt_sample_taken_only_when_timed_seq_covered() {
        let mut core = core_with_flight();
        core.tcb.snd.rtt.timing = Some((Seq(2100), VirtualTime::from_millis(0)));
        process_ack(&cfg(), &mut core, Seq(1100), VirtualTime::from_millis(90));
        assert!(core.tcb.snd.rtt.timing.is_some(), "not covered yet");
        assert!(core.tcb.snd.rtt.srtt.is_none());
        process_ack(&cfg(), &mut core, Seq(2100), VirtualTime::from_millis(120));
        assert_eq!(core.tcb.snd.rtt.srtt, Some(VirtualDuration::from_millis(120)));
        assert!(core.tcb.snd.rtt.timing.is_none());
    }

    #[test]
    fn karn_no_sample_after_retransmit() {
        let mut core = core_with_flight();
        core.tcb.snd.rtt.timing = Some((Seq(1100), VirtualTime::from_millis(0)));
        rto(&mut core, 1000);
        assert!(core.tcb.snd.rtt.timing.is_none(), "Karn clears the timer");
        process_ack(&cfg(), &mut core, Seq(1100), VirtualTime::from_millis(1500));
        assert!(core.tcb.snd.rtt.srtt.is_none(), "no sample from a retransmitted segment");
    }

    #[test]
    fn backoff_doubles_and_ack_resets() {
        let mut core = core_with_flight();
        let t0 = core.tcb.snd.rtt.timeout();
        assert_eq!(t0, INITIAL_RTO);
        rto(&mut core, 1000);
        assert_eq!(core.tcb.snd.rtt.backoff, 1);
        assert_eq!(core.tcb.snd.rtt.timeout(), INITIAL_RTO * 2);
        rto(&mut core, 3000);
        assert_eq!(core.tcb.snd.rtt.timeout(), INITIAL_RTO * 4);
        process_ack(&cfg(), &mut core, Seq(1100), VirtualTime::from_millis(3500));
        assert_eq!(core.tcb.snd.rtt.backoff, 0, "new data acked resets backoff");
    }

    #[test]
    fn retransmit_stages_the_front_segment_again() {
        let mut core = core_with_flight();
        rto(&mut core, 1000);
        let seg = core.tcb.drain_segments().remove(0);
        assert_eq!(seg.header.seq, Seq(100));
        assert_eq!(seg.payload, vec![0xAA; 1000]);
        assert!(seg.payload.is_unique(), "nothing else holds the buffer that goes down");
    }

    #[test]
    fn timeout_after_a_partial_ack_resends_exactly_the_remainder() {
        let mut core = core_with_flight();
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        core.tcb.snd.send_buf.clear();
        core.tcb.snd.send_buf.write(&bytes);
        // The ACK lands 500 bytes into the first 1000-byte segment.
        process_ack(&cfg(), &mut core, Seq(600), VirtualTime::from_millis(10));
        let front = SentSegment { seq: Seq(600), len: 500, syn: false, fin: false };
        assert_eq!(core.tcb.snd.resend_queue.front(), Some(&front));
        core.tcb.to_do.clear();
        rto(&mut core, 1000);
        let seg = core.tcb.drain_segments().remove(0);
        assert_eq!(seg.header.seq, Seq(600));
        assert_eq!(seg.payload, bytes[500..1000], "the unacknowledged remainder, and only it");
        core.tcb.check_invariants();
    }

    #[test]
    fn timeout_shrinks_congestion_window() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(8000);
        rto(&mut core, 1000);
        assert_eq!(core.tcb.cc.cwnd(), 1000, "back to one MSS");
        assert_eq!(core.tcb.cc.ssthresh(), 2000, "half the flight, floored at 2·MSS");
    }

    #[test]
    fn giving_up_signals_user_timeout() {
        let mut core = core_with_flight();
        core.tcb.snd.retransmits_left = 0;
        rto(&mut core, 1000);
        assert_eq!(core.state, TcpState::Closed);
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "User_Timeout"), "{acts:?}");
    }

    #[test]
    fn three_duplicate_acks_fast_retransmit() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        duplicate_ack(&cfg(), &mut core, now);
        duplicate_ack(&cfg(), &mut core, now);
        assert!(drain(&mut core).iter().all(|a| !a.starts_with("Send_Segment")));
        duplicate_ack(&cfg(), &mut core, now);
        let acts = drain(&mut core);
        assert!(
            acts.iter().any(|a| a.starts_with("Send_Segment(seq=100")),
            "fast retransmit of the first segment: {acts:?}"
        );
        assert_eq!(core.tcb.cc.ssthresh(), 2000);
    }

    #[test]
    fn fast_recovery_entry_inflates_cwnd_by_three() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        // flight 3000 → ssthresh 2000; cwnd = ssthresh + 3·MSS.
        assert_eq!(core.tcb.cc.ssthresh(), 2000);
        assert_eq!(core.tcb.cc.cwnd(), 5000);
        let r = core.tcb.recovery.expect("in recovery");
        assert_eq!((r.recover, r.by_rto), (Seq(3100), false), "recovery point is snd_nxt");
        assert_eq!(r.high_rxt, Seq(1100), "the front segment went out");
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "Loss(RecoveryEntered)"), "{acts:?}");
        assert!(acts.iter().any(|a| a == "Loss(FastRetransmit)"), "{acts:?}");
    }

    #[test]
    fn further_duplicates_inflate_and_send_new_data() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        // 2000 more bytes staged but unsent.
        core.tcb.snd.send_buf.write(&[0xBB; 2000]);
        let now = VirtualTime::from_millis(10);
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        core.tcb.to_do.clear();
        // Fourth duplicate: inflate one MSS (5000 → 6000). The usable
        // window (min(snd_wnd, cwnd) − flight = 3000) now admits the
        // staged data.
        duplicate_ack(&cfg(), &mut core, now);
        assert_eq!(core.tcb.cc.cwnd(), 6000);
        let acts = drain(&mut core);
        assert!(
            acts.iter().any(|a| a.starts_with("Send_Segment(seq=3100")),
            "new data transmitted under the inflated window: {acts:?}"
        );
        assert_eq!(core.tcb.snd_nxt, Seq(5100), "both staged segments went out");
    }

    #[test]
    fn full_recovery_ack_deflates_to_ssthresh() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        for _ in 0..4 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        core.tcb.to_do.clear();
        // ACK covering the recovery point (3100) ends recovery.
        process_ack(&cfg(), &mut core, Seq(3100), VirtualTime::from_millis(50));
        assert_eq!(core.tcb.recovery, None);
        assert_eq!(core.tcb.cc.cwnd(), 2000, "deflated to ssthresh, not left inflated");
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "Loss(RecoveryExited)"), "{acts:?}");
    }

    #[test]
    fn partial_ack_retransmits_next_hole_and_stays_in_recovery() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        core.tcb.to_do.clear();
        // ACK of only the first segment: below the recovery point.
        process_ack(&cfg(), &mut core, Seq(1100), VirtualTime::from_millis(50));
        assert_eq!(core.tcb.recovery.map(|r| r.recover), Some(Seq(3100)), "partial ACK keeps recovery open");
        // Deflate by the 1000 acked, add one MSS back: 5000 net.
        assert_eq!(core.tcb.cc.cwnd(), 5000);
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "Loss(PartialAck)"), "{acts:?}");
        assert!(
            acts.iter().any(|a| a.starts_with("Send_Segment(seq=1100")),
            "the next hole is retransmitted immediately: {acts:?}"
        );
    }

    #[test]
    fn recovery_rearms_after_exit() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        for _ in 0..5 {
            duplicate_ack(&cfg(), &mut core, now); // well past three
        }
        process_ack(&cfg(), &mut core, Seq(3100), VirtualTime::from_millis(50));
        assert_eq!(core.tcb.recovery, None);
        assert_eq!(core.tcb.dup_acks, 0, "exit resets the duplicate count");
        // A second loss episode: new flight, three fresh duplicates must
        // re-enter recovery (the old `== 3` trigger would never re-fire
        // if the count passed three while the first episode was open).
        send::user_send(&no_nagle(), &mut core, &[0xCC; 2000], now); // 3100 and 4100
        core.tcb.to_do.clear();
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        assert_eq!(core.tcb.recovery.map(|r| r.recover), Some(Seq(5100)), "second episode entered");
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "Loss(RecoveryEntered)"), "{acts:?}");
    }

    #[test]
    fn rto_abandons_fast_recovery_for_its_own_episode() {
        let mut core = core_with_flight();
        core.tcb.cc.set_cwnd(6000);
        let now = VirtualTime::from_millis(10);
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        assert!(core.tcb.recovery.is_some_and(|r| !r.by_rto));
        core.tcb.to_do.clear();
        rto(&mut core, 2000);
        assert_eq!(
            core.tcb.recovery,
            Some(Recovery { recover: Seq(3100), high_rxt: Seq(1100), by_rto: true }),
            "everything outstanding is presumed lost, and the front segment has gone out"
        );
        assert_eq!(core.tcb.cc.cwnd(), 1000, "slow start owns the window after an RTO");
        let acts = drain(&mut core);
        assert!(acts.iter().any(|a| a == "Loss(Rto)"), "{acts:?}");
        assert_eq!(acts.iter().filter(|a| a.starts_with("Send_Segment")).count(), 1, "{acts:?}");
    }

    /// The sequence numbers of the segments queued for transmission.
    fn sent(core: &mut ConnCore) -> Vec<u32> {
        core.tcb.drain_segments().iter().map(|s| s.header.seq.0).collect()
    }

    /// A flight of `n` segments under a wide window and a 16 KB `cwnd`.
    fn core_with_segments(n: usize) -> ConnCore {
        let mut core = flight(n, 64_000);
        core.tcb.cc.set_cwnd(16_000);
        core
    }

    #[test]
    fn after_a_timeout_the_old_flight_is_resent_under_slow_start() {
        let mut core = core_with_segments(8);
        rto(&mut core, 1000);
        assert_eq!(sent(&mut core), [100], "the timer itself resends one segment");
        // Each ACK of one segment opens the window by one more: 2, 3 …
        process_ack(&cfg(), &mut core, Seq(1100), VirtualTime::from_millis(1010));
        assert_eq!(sent(&mut core), [1100, 2100]);
        process_ack(&cfg(), &mut core, Seq(2100), VirtualTime::from_millis(1020));
        assert_eq!(sent(&mut core), [3100, 4100]);
        // A jump past everything resent resumes from the ACK, not from
        // the highest retransmission.
        process_ack(&cfg(), &mut core, Seq(6100), VirtualTime::from_millis(1030));
        assert_eq!(sent(&mut core), [6100, 7100]);
        assert!(core.tcb.recovery.is_some());
        process_ack(&cfg(), &mut core, Seq(8100), VirtualTime::from_millis(1040));
        assert_eq!(core.tcb.recovery, None, "the ACK of the recovery point closes the episode");
        let acts = drain(&mut core);
        assert!(!acts.iter().any(|a| a == "Loss(RecoveryExited)"), "no fast recovery to exit: {acts:?}");
    }

    #[test]
    fn the_walk_never_resends_what_the_scoreboard_holds() {
        let mut core = core_with_segments(8);
        core.tcb.note_sack_blocks(&[(Seq(1100), Seq(3100)), (Seq(4100), Seq(5100))]);
        rto(&mut core, 1000);
        assert_eq!(sent(&mut core), [100]);
        assert_eq!(core.tcb.snd.sack_scoreboard.len(), 2, "the scoreboard survives the timeout");
        process_ack(&cfg(), &mut core, Seq(3100), VirtualTime::from_millis(1010));
        assert_eq!(sent(&mut core), [3100], "two MSS of window: 3100, and 4100's share is not spent on 5100");
        process_ack(&cfg(), &mut core, Seq(5100), VirtualTime::from_millis(1020));
        assert_eq!(sent(&mut core), [5100, 6100, 7100], "4100 was SACKed and never resent");
    }

    #[test]
    fn duplicates_during_a_timeout_episode_enter_nothing() {
        let mut core = core_with_segments(8);
        rto(&mut core, 1000);
        core.tcb.to_do.clear();
        let (cwnd, ssthresh) = (core.tcb.cc.cwnd(), core.tcb.cc.ssthresh());
        for _ in 0..5 {
            duplicate_ack(&cfg(), &mut core, VirtualTime::from_millis(1010));
        }
        assert!(core.tcb.recovery.is_some_and(|r| r.by_rto));
        assert_eq!(
            (core.tcb.cc.cwnd(), core.tcb.cc.ssthresh()),
            (cwnd, ssthresh),
            "RFC 6582: no second halving"
        );
        let acts = drain(&mut core);
        assert!(!acts.iter().any(|a| a.starts_with("Loss(") || a.starts_with("Send_Segment")), "{acts:?}");
    }

    #[test]
    fn fast_recovery_resends_one_hole_per_ack_below_the_highest_sack() {
        let mut core = core_with_segments(8);
        // Holes at 100, 2100 and 4100; 7100 is merely not yet reported.
        core.tcb.note_sack_blocks(&[(Seq(1100), Seq(2100)), (Seq(3100), Seq(4100)), (Seq(5100), Seq(7100))]);
        let now = VirtualTime::from_millis(10);
        for _ in 0..3 {
            duplicate_ack(&cfg(), &mut core, now);
        }
        assert_eq!(sent(&mut core), [100], "the third duplicate resends the front hole");
        duplicate_ack(&cfg(), &mut core, now);
        assert_eq!(sent(&mut core), [2100], "the fourth, the next");
        process_ack(&cfg(), &mut core, Seq(2100), VirtualTime::from_millis(20));
        assert_eq!(sent(&mut core), [4100], "a partial ACK resends the next hole, not the one already out");
        duplicate_ack(&cfg(), &mut core, now);
        assert_eq!(sent(&mut core), [] as [u32; 0], "nothing above the highest SACKed byte is presumed lost");
    }

    #[test]
    fn record_sent_arms_timer_once() {
        let mut core = core_with_flight();
        core.tcb.snd.resend_queue.clear();
        let now = VirtualTime::from_millis(5);
        record_sent(&mut core.tcb, SentSegment { seq: Seq(100), len: 10, syn: false, fin: false }, now);
        record_sent(&mut core.tcb, SentSegment { seq: Seq(110), len: 10, syn: false, fin: false }, now);
        let acts = drain(&mut core);
        assert_eq!(acts.iter().filter(|a| a.starts_with("Set_Timer(Resend")).count(), 1);
        assert_eq!(core.tcb.snd.rtt.timing, Some((Seq(110), now)), "first segment timed");
    }

    #[test]
    fn sack_scoreboard_merges_and_prunes() {
        let mut t = Tcb::new(&cfg(), Seq(1000), 536);
        t.snd_nxt = Seq(6000);
        t.note_sack_blocks(&[(Seq(2000), Seq(3000))]);
        t.note_sack_blocks(&[(Seq(4000), Seq(5000)), (Seq(2500), Seq(3500))]);
        assert_eq!(t.snd.sack_scoreboard, vec![(Seq(2000), Seq(3500)), (Seq(4000), Seq(5000))]);
        assert!(t.snd.sacked(Seq(2000), Seq(3000)));
        assert!(t.snd.sacked(Seq(4000), Seq(5000)));
        assert!(!t.snd.sacked(Seq(3400), Seq(4100)), "spans a hole");
        // Stale range at/below snd_una is clipped away entirely.
        t.note_sack_blocks(&[(Seq(500), Seq(900))]);
        assert_eq!(t.snd.sack_scoreboard.len(), 2);
        t.snd.prune_sack_scoreboard(Seq(4500));
        assert_eq!(t.snd.sack_scoreboard, vec![(Seq(4500), Seq(5000))]);
        // A block claiming bytes never sent is not evidence of anything.
        t.note_sack_blocks(&[(Seq(5500), Seq(6001))]);
        assert_eq!(t.snd.sack_scoreboard, vec![(Seq(4500), Seq(5000))]);
    }

    #[test]
    fn sack_scoreboard_keeps_the_sixteen_lowest_ranges() {
        let mut t = Tcb::new(&cfg(), Seq(1000), 536);
        t.snd_nxt = Seq(3000);
        let range = |i: u32| (Seq(1100 + 100 * i), Seq(1150 + 100 * i));
        // Seventeen disjoint ranges, reported highest first.
        for i in (0..17).rev() {
            t.note_sack_blocks(&[range(i)]);
        }
        assert_eq!(
            t.snd.sack_scoreboard,
            (0..16).map(range).collect::<Vec<_>>(),
            "the seventeenth is dropped"
        );
        // One block that bridges two of them shortens the board instead.
        t.note_sack_blocks(&[(Seq(1150), Seq(1200))]);
        assert_eq!(t.snd.sack_scoreboard.len(), 15);
        assert_eq!(t.snd.sack_scoreboard[0], (Seq(1100), Seq(1250)));
        t.check_invariants();
    }
}
