//! The data-path half of SEGMENT-ARRIVES, and the seams control uses
//! to drive it.
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

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::action::{TcpAction, TimerKind};
use crate::control::EstablishedHandle;
use crate::data::send;
use crate::{congestion, ConnCore, TcpConfig, TcpState};
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxwire::tcp::{TcpHeader, TcpSegment};
use std::fmt::Debug;

/// What the data path observed while consuming a segment — reported
/// back to control, which alone maps stream events onto state
/// transitions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum DataEvent {
    /// The peer's FIN was consumed at the left window edge: no more
    /// data will arrive on this stream.
    FinReceived,
}

/// SYN-time option negotiation (RFC 7323 §2.5, RFC 2018 §2): an option
/// turns on only when *we* offered it (config) *and* the peer's SYN (or
/// SYN+ACK) carries it. A withheld option is cleanly off — every window
/// stays 16-bit, no SACK blocks are sent or consumed, no timestamps
/// ride on segments.
fn negotiate_syn_options<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, h: &TcpHeader) {
    debug_assert!(h.flags.syn);
    let tcb = &mut core.tcb;
    if let Some(shift) = h.wscale() {
        if tcb.offer_wscale {
            tcb.wscale_on = true;
            tcb.snd_wscale = shift;
        }
    }
    if h.sack_permitted() && tcb.offer_sack {
        tcb.sack_on = true;
    }
    if let Some((tsval, _)) = h.timestamps() {
        if tcb.offer_ts {
            tcb.ts_on = true;
            tcb.ts_recent = tsval;
        }
    }
}

/// Adopts the peer's SYN into the TCB: "set RCV.NXT to SEG.SEQ+1, IRS
/// is set to SEG.SEQ", the MSS minimum, and the SYN-time option
/// negotiation. Control calls this from both LISTEN and SYN-SENT
/// processing; the state transition it precedes stays on the control
/// side.
pub(crate) fn note_peer_syn<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, h: &TcpHeader) {
    debug_assert!(h.flags.syn);
    core.tcb.irs = h.seq;
    core.tcb.rcv_nxt = h.seq + 1;
    if let Some(mss) = h.mss() {
        core.tcb.mss = core.tcb.mss.min(u32::from(mss)).max(1);
    }
    negotiate_syn_options(core, h);
}

/// First sight of the peer's send window, from its SYN (passive side).
/// A SYN's window is never scaled (RFC 7323 §2.2); `SND.WL2` starts at
/// zero because the SYN acknowledged nothing.
pub(crate) fn init_window_from_syn<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, h: &TcpHeader) {
    let tcb = &mut core.tcb;
    tcb.snd_wnd = u32::from(h.window);
    tcb.snd_wl1 = h.seq;
    tcb.snd_wl2 = Seq(0);
}

/// Stashes the timestamp echo a SYN+ACK carries so the imminent
/// `process_ack` can take the connection's first RTTM sample from it.
pub(crate) fn stash_syn_ack_echo<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, h: &TcpHeader) {
    if core.tcb.ts_on {
        if let Some((_, ecr)) = h.timestamps() {
            if ecr != 0 {
                core.tcb.ts_ecr_pending = Some(ecr);
            }
        }
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
pub(crate) fn establish<P: Clone + PartialEq + Debug>(
    cfg: &TcpConfig,
    core: &mut ConnCore<P>,
    h: &TcpHeader,
    scaled: bool,
    _proof: EstablishedHandle,
) {
    let wnd = if scaled { core.tcb.scale_peer_window(h.window, false) } else { u32::from(h.window) };
    let tcb = &mut core.tcb;
    tcb.snd_wnd = wnd;
    tcb.snd_wl1 = h.seq;
    tcb.snd_wl2 = h.ack;
    init_cwnd(cfg, core);
}

/// Sixth check: the URG bit (RFC 793 p. 73). We advance `RCV.UP` and
/// tell the user once per urgent region; like the paper's stack, we do
/// not expedite delivery.
pub(crate) fn check_urg<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, seg: &TcpSegment) {
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
pub(crate) fn check_sequence<P: Clone + PartialEq + Debug>(
    cfg: &TcpConfig,
    core: &mut ConnCore<P>,
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
pub(crate) fn process_timestamps<P: Clone + PartialEq + Debug>(
    core: &mut ConnCore<P>,
    h: &TcpHeader,
    now: VirtualTime,
) -> bool {
    if !core.tcb.ts_on {
        return true;
    }
    let Some((tsval, tsecr)) = h.timestamps() else {
        // The peer negotiated timestamps but omitted the option; be
        // lenient (RFC 7323 suggests dropping non-RST segments) so
        // mixed stacks still interoperate.
        return true;
    };
    if !h.flags.rst && paws_reject(core.tcb.ts_recent, tsval) {
        send::queue_ack(core, now);
        return false;
    }
    if h.seq.le(core.tcb.rcv_nxt) {
        core.tcb.ts_recent = tsval;
    }
    if h.flags.ack && tsecr != 0 {
        core.tcb.ts_ecr_pending = Some(tsecr);
    }
    true
}

/// RFC 793's send-window update rule.
pub(crate) fn update_send_window<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, seg: &TcpSegment) {
    let h = &seg.header;
    let tcb = &mut core.tcb;
    if tcb.snd_wl1.lt(h.seq) || (tcb.snd_wl1 == h.seq && tcb.snd_wl2.le(h.ack)) {
        let was_zero = tcb.snd_wnd == 0;
        tcb.snd_wnd = tcb.scale_peer_window(h.window, h.flags.syn);
        tcb.snd_wl1 = h.seq;
        tcb.snd_wl2 = h.ack;
        if tcb.snd_wnd > 0 && was_zero {
            tcb.persist_backoff = 0;
            tcb.push_action(TcpAction::ClearTimer(TimerKind::Persist));
        }
    }
}

/// Seventh: process the segment text.
pub(crate) fn process_text<P: Clone + PartialEq + Debug>(
    cfg: &TcpConfig,
    core: &mut ConnCore<P>,
    seg: &TcpSegment,
    now: VirtualTime,
) {
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
    let fin = seg.header.flags.fin;

    if seq == tcb.rcv_nxt {
        // The expected segment: append, deliver, maybe drain the
        // out-of-order queue behind it. (The copy into the user's
        // delivery vector is the one copy the paper's receive path also
        // pays — the user boundary.)
        let took = tcb.recv_buf.take(seg.payload.len());
        tcb.rcv_nxt += took as u32;
        tcb.push_action(TcpAction::UserData(seg.payload.bytes()[..took].to_vec()));
        // If the receive buffer was full the rest stays unacknowledged
        // and the sender will retransmit into our advertised window;
        // otherwise whatever the reassembly queue held behind this
        // segment follows it to the user, buffer by buffer. (A FIN
        // buffered out of order is re-examined by check_fin on the
        // retransmission that delivers it in order; simpler and still
        // correct — the peer retransmits its FIN.)
        let drained = if took == seg.payload.len() { tcb.drain_out_of_order().0 } else { 0 };
        tcb.bytes_since_ack += (took + drained) as u32;
        tcb.segs_since_ack += 1;
        // ACK policy (BSD): immediately on every second data segment or
        // after 2·MSS of bytes; otherwise delayed ("else a Set_Timer for
        // the ack timer if the ack is to be delayed"). The threshold of
        // 2 can be raised by `ack_coalesce_segments` (GRO-era batching);
        // the default keeps the historical rule exactly.
        let th = cfg.ack_threshold();
        match cfg.delayed_ack_ms {
            Some(ms) if tcb.segs_since_ack < th && tcb.bytes_since_ack < th * tcb.mss && !fin => {
                tcb.ack_pending = true;
                tcb.push_action(TcpAction::SetTimer(TimerKind::DelayedAck, ms));
            }
            _ => {
                send::queue_ack(core, now);
                core.tcb.push_action(TcpAction::ClearTimer(TimerKind::DelayedAck));
            }
        }
    } else if seq.gt(tcb.rcv_nxt) {
        // Out of order: queue for later, duplicate-ACK immediately so
        // the sender learns what we are missing (with SACK negotiated,
        // the ACK's blocks describe exactly what arrived).
        let in_window = seq.in_window(tcb.rcv_nxt, tcb.rcv_wnd());
        if in_window {
            tcb.insert_out_of_order(seq, seg.payload.clone(), fin);
        }
        send::queue_ack(core, now);
    } else {
        // Overlapping retransmission: the head is old, the tail may be
        // new.
        let skip = tcb.rcv_nxt.since(seq) as usize;
        if skip < seg.payload.len() {
            let fresh_len = seg.payload.len() - skip;
            let took = tcb.recv_buf.take(fresh_len);
            tcb.rcv_nxt += took as u32;
            tcb.push_action(TcpAction::UserData(seg.payload.bytes()[skip..skip + took].to_vec()));
            let drained = if took == fresh_len { tcb.drain_out_of_order().0 } else { 0 };
            tcb.bytes_since_ack += (took + drained) as u32;
        }
        send::queue_ack(core, now);
    }
}

/// Marks a FIN that arrived ahead of missing data: a bare entry in the
/// reassembly queue so the gap's eventual fill re-exposes it.
pub(crate) fn note_out_of_order_fin<P: Clone + PartialEq + Debug>(core: &mut ConnCore<P>, seq: Seq) {
    core.tcb.insert_out_of_order(seq, core.pool.empty(), true);
}

/// Consumes the peer's FIN at the left window edge: `RCV.NXT` steps
/// over it and the FIN is acknowledged immediately. Reports
/// [`DataEvent::FinReceived`]; which closing state that implies is
/// control's decision, not ours.
pub(crate) fn consume_fin<P: Clone + PartialEq + Debug>(
    core: &mut ConnCore<P>,
    now: VirtualTime,
) -> DataEvent {
    core.tcb.rcv_nxt += 1;
    send::queue_ack(core, now);
    DataEvent::FinReceived
}

/// Initial congestion window: one MSS (Jacobson's 1988 slow start, as
/// 1994 practice had it). The write happens behind the
/// [`crate::congestion::CongestionControl`] seam.
pub(crate) fn init_cwnd<P: Clone + PartialEq + Debug>(cfg: &TcpConfig, core: &mut ConnCore<P>) {
    if cfg.congestion_control {
        congestion::init(&mut core.tcb);
    }
}
