//! The Receive module: RFC 793's SEGMENT ARRIVES procedure.
//!
//! "The receive procedure is described in the standard as a procedure
//! with branch points and merge points, but no loops (a directed acyclic
//! graph). We have implemented the receive code by implementing exactly
//! the branches specified in the standard, using functions as labels for
//! the merge points." (paper §4)
//!
//! The merge-point functions below follow RFC 793 pages 64–75:
//! [`segment_arrives`] dispatches on state; the synchronized states fall
//! through `check_sequence` → `check_rst` → `check_syn` → `check_ack` →
//! `process_text` → `check_fin`, each an explicit function so the code
//! can be read against the standard — the paper's maintainability claim.
//! Each check stamps its state writes with the trigger it is named after
//! (`check_ack` writes are `ack` even when the segment also carries a
//! FIN that `check_fin` will act on next).
//!
//! This file is the *control* half of the DAG: the branch structure and
//! every state transition. The checks that move sequence numbers,
//! windows, and bytes live in [`crate::data::transfer`]; this module
//! calls them through the narrow seams described there (handing over an
//! `EstablishedHandle` at promotion time, receiving `DataEvent`s back).

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::action::{AttackEvent, TcpAction, TimerKind};
use crate::control::fsm::{transition, Trigger};
use crate::control::EstablishedHandle;
use crate::data::transfer::{self, DataEvent};
use crate::data::{resend, send};
use crate::{ConnCore, TcpConfig, TcpState};
use foxbasis::buf::BufPool;
use foxbasis::time::VirtualTime;
use foxwire::tcp::TcpSegment;

/// What the engine should do after processing (beyond the actions queued
/// on the to_do queue).
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Disposition {
    /// Reply with this segment even though no connection state changed
    /// (RST generation for half-open/unknown cases).
    pub reply: Option<TcpSegment>,
}

/// What a listener should do with a segment (RFC 793 p. 65 "If the state
/// is LISTEN").
#[derive(Debug, PartialEq, Eq)]
pub enum ListenVerdict {
    /// "An incoming RST should be ignored."
    Ignore,
    /// "Any acknowledgment is bad ... a reset is sent." The reply is the
    /// RST to transmit.
    Reply(TcpSegment),
    /// A SYN: spawn an embryonic connection and run
    /// [`segment_arrives`] on it.
    Spawn,
}

/// Classifies a segment arriving at a listening socket.
pub fn on_listen_segment(pool: &BufPool, local_port: u16, seg: &TcpSegment) -> ListenVerdict {
    if seg.header.flags.rst {
        ListenVerdict::Ignore
    } else if seg.header.flags.ack {
        ListenVerdict::Reply(send::reset_for(pool, local_port, seg))
    } else if seg.header.flags.syn {
        ListenVerdict::Spawn
    } else {
        ListenVerdict::Ignore // "you are unlikely to get here, but if you do, drop the segment"
    }
}

/// The response RFC 793 p. 36 prescribes for a segment arriving at a
/// CLOSED (nonexistent) connection, staged in `pool`.
pub fn on_closed_segment(
    cfg: &TcpConfig,
    pool: &BufPool,
    local_port: u16,
    seg: &TcpSegment,
) -> Option<TcpSegment> {
    if seg.header.flags.rst || !cfg.abort_unknown_connections {
        None
    } else {
        Some(send::reset_for(pool, local_port, seg))
    }
}

/// SEGMENT ARRIVES for a connection in any non-LISTEN, non-CLOSED state.
pub fn segment_arrives(
    cfg: &TcpConfig,
    core: &mut ConnCore,
    seg: TcpSegment,
    now: VirtualTime,
) -> Disposition {
    match *core.state {
        TcpState::Closed => Disposition { reply: on_closed_segment(cfg, &core.pool, core.local_port, &seg) },
        TcpState::Listen { .. } => {
            // LISTEN processing for the freshly-spawned embryonic
            // connection: record the peer's sequencing, answer SYN+ACK,
            // move to SYN-RECEIVED (passive flavor).
            debug_assert!(seg.header.flags.syn);
            listen_receives_syn(cfg, core, &seg, now);
            Disposition::default()
        }
        TcpState::SynSent { .. } => syn_sent(cfg, core, seg, now),
        _ => synchronized(cfg, core, seg, now),
    }
}

/// LISTEN gets a SYN: "set RCV.NXT to SEG.SEQ+1, IRS is set to SEG.SEQ
/// ... ISS should be selected and a SYN segment sent of the form
/// <SEQ=ISS><ACK=RCV.NXT><CTL=SYN,ACK> ... The connection state should
/// be changed to SYN-RECEIVED."
fn listen_receives_syn(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) {
    transfer::note_peer_syn(core, &seg.header);
    transfer::init_window_from_syn(core, &seg.header);
    transition(core, Trigger::Syn, TcpState::SynPassive { retries_left: cfg.syn_retries });
    send::queue_syn(core, true, now);
    core.tcb.push_action(TcpAction::SetTimer(TimerKind::UserTimeout, cfg.user_timeout_ms));
    // Any data included with the SYN would be processed later (after
    // ESTABLISHED); our peer implementations never send any.
}

/// SYN-SENT processing (RFC 793 p. 66).
fn syn_sent(cfg: &TcpConfig, core: &mut ConnCore, seg: TcpSegment, now: VirtualTime) -> Disposition {
    let h = &seg.header;
    // First: check the ACK bit.
    let ack_acceptable = if h.flags.ack {
        if h.ack.le(core.tcb.seq().iss) || h.ack.gt(core.tcb.seq().snd_nxt) {
            // "send a reset (unless the RST bit is set)... and discard."
            if h.flags.rst {
                return Disposition::default();
            }
            return Disposition { reply: Some(send::reset_for(&core.pool, core.local_port, &seg)) };
        }
        true
    } else {
        false
    };
    // Second: check the RST bit.
    if h.flags.rst {
        if ack_acceptable {
            // "signal the user 'error: connection reset', drop the
            // segment, enter CLOSED state."
            enter_closed_after_reset(core, Trigger::Rst);
        }
        return Disposition::default();
    }
    // Fourth: check the SYN bit.
    if h.flags.syn {
        transfer::note_peer_syn(core, h);
        if ack_acceptable {
            // The peer echoed our timestamp on the SYN+ACK: first RTTM
            // sample (consumed in `process_ack`).
            transfer::stash_syn_ack_echo(core, h);
            // "SND.UNA should be advanced to equal SEG.ACK"; our SYN is
            // acknowledged: ESTABLISHED.
            resend::process_ack(cfg, core, h.ack, now);
            // A SYN+ACK's window is never scaled.
            transfer::establish(cfg, core, h, false, EstablishedHandle::mint());
            transition(core, Trigger::Syn, TcpState::Estab);
            core.tcb.push_action(TcpAction::ClearTimer(TimerKind::UserTimeout));
            core.tcb.push_action(TcpAction::CompleteOpen);
            send::queue_ack(core, now);
            send::maybe_send(cfg, core, now);
            // Data or FIN on the SYN+ACK continues below through the
            // synchronized path on retransmission; rare enough to defer.
        } else {
            // Simultaneous open: "enter SYN-RECEIVED, form a SYN,ACK
            // segment and send it."
            transition(core, Trigger::Syn, TcpState::SynActive);
            send::queue_syn(core, true, now);
        }
    }
    Disposition::default()
}

/// The common path for synchronized states (RFC 793 pp. 69–75).
fn synchronized(cfg: &TcpConfig, core: &mut ConnCore, seg: TcpSegment, now: VirtualTime) -> Disposition {
    if !transfer::process_timestamps(core, &seg.header, now) {
        return Disposition::default(); // PAWS rejected the segment
    }
    if !transfer::check_sequence(cfg, core, &seg, now) {
        return Disposition::default();
    }
    if seg.header.flags.rst {
        // RFC 5961 §3.2: only an RST at exactly RCV.NXT aborts. An RST
        // elsewhere in the window is a blind-reset attempt (the attacker
        // guessed the window but not the exact sequence number): answer
        // with a challenge ACK so a genuine peer can re-send the exact
        // one, and count the rejection.
        if seg.header.seq == core.tcb.seq().rcv_nxt {
            check_rst(core);
        } else {
            core.tcb.push_action(TcpAction::Attack(AttackEvent::RstBadSeq));
            send::queue_ack(core, now);
        }
        return Disposition::default();
    }
    if seg.header.flags.syn {
        // "If the SYN is in the window it is an error, send a reset ...
        // and return." (A SYN exactly at IRS is a retransmitted
        // handshake segment and is not in the current window.)
        return check_syn(core, &seg);
    }
    if !seg.header.flags.ack {
        return Disposition::default(); // "if the ACK bit is off drop the segment"
    }
    if !check_ack(cfg, core, &seg, now) {
        return Disposition::default();
    }
    transfer::check_urg(core, &seg);
    transfer::process_text(cfg, core, &seg, now);
    check_fin(cfg, core, &seg, now);
    Disposition::default()
}

/// Second check: RST in window.
fn check_rst(core: &mut ConnCore) {
    match *core.state {
        TcpState::SynPassive { .. } => {
            // Passive opens "return to the LISTEN state" — the embryonic
            // connection simply disappears; the engine notices Closed
            // with no user signal needed (the parent still listens).
            silently_close(core, Trigger::Rst);
        }
        _ => enter_closed_after_reset(core, Trigger::Rst),
    }
}

/// Fourth check: an in-window SYN is an error.
fn check_syn(core: &mut ConnCore, seg: &TcpSegment) -> Disposition {
    let reply = send::reset_for(&core.pool, core.local_port, seg);
    enter_closed_after_reset(core, Trigger::Syn);
    Disposition { reply: Some(reply) }
}

/// Fifth check: the ACK field. Returns false if processing should stop.
fn check_ack(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) -> bool {
    let h = &seg.header;
    let ack = h.ack;

    // SACK blocks ride on (duplicate) ACKs: fold them into the
    // scoreboard before any ACK processing decides what to retransmit.
    if core.tcb.negotiated().sack_on() {
        let blocks = h.sack_blocks();
        if !blocks.is_empty() {
            core.tcb.note_sack_blocks(&blocks);
        }
    }

    if core.state.is_syn_received() {
        // "If SND.UNA =< SEG.ACK =< SND.NXT then enter ESTABLISHED state
        // ... otherwise send a reset."
        if ack.in_open_closed(core.tcb.seq().snd_una - 1, core.tcb.seq().snd_nxt) {
            resend::process_ack(cfg, core, ack, now);
            // The handshake-completing ACK is not a SYN: scaled.
            transfer::establish(cfg, core, h, true, EstablishedHandle::mint());
            transition(core, Trigger::Ack, TcpState::Estab);
            core.tcb.push_action(TcpAction::ClearTimer(TimerKind::UserTimeout));
            core.tcb.push_action(TcpAction::CompleteOpen);
            send::maybe_send(cfg, core, now);
        } else {
            core.tcb.push_action(TcpAction::SendSegment(send::reset_for(&core.pool, core.local_port, seg)));
            return false;
        }
        return true;
    }

    // ESTABLISHED-family ACK processing.
    let seq = core.tcb.seq();
    if ack.in_open_closed(seq.snd_una, seq.snd_nxt) {
        resend::process_ack(cfg, core, ack, now);
        transfer::update_send_window(core, seg);
        after_ack_transitions(cfg, core);
        send::maybe_send(cfg, core, now);
    } else if ack == seq.snd_una {
        // Duplicate. Window updates may still ride on it.
        let pure_dup = seg.payload.is_empty()
            && core.tcb.negotiated().scale_peer_window(h.window, h.flags.syn) == seq.snd_wnd
            && !seg.header.flags.fin;
        transfer::update_send_window(core, seg);
        if pure_dup {
            resend::duplicate_ack(cfg, core, now);
        } else {
            send::maybe_send(cfg, core, now);
        }
    } else if ack.gt(seq.snd_nxt) {
        // "If the ACK acks something not yet sent ... send an ACK, drop
        // the segment." This is also the optimistic-ACK attack shape:
        // count it so the harness can assert cwnd never grew on it.
        core.tcb.push_action(TcpAction::Attack(AttackEvent::AckUnsentData));
        send::queue_ack(core, now);
        return false;
    }
    // Old ACK (below snd_una): ignore the ACK field but keep processing.
    true
}

/// ACK-driven state transitions for the closing states.
fn after_ack_transitions(cfg: &TcpConfig, core: &mut ConnCore) {
    let our_fin_acked = core.tcb.fin_acked();
    match *core.state {
        TcpState::FinWait1 if our_fin_acked => transition(core, Trigger::Ack, TcpState::FinWait2),
        TcpState::Closing if our_fin_acked => {
            transition(core, Trigger::Ack, TcpState::TimeWait);
            core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
        }
        TcpState::LastAck if our_fin_acked => {
            transition(core, Trigger::Ack, TcpState::Closed);
            core.tcb.push_action(TcpAction::CompleteClose);
        }
        _ => {}
    }
}

/// Eighth: check the FIN bit.
fn check_fin(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) {
    if !seg.header.flags.fin {
        return;
    }
    let fin_seq = seg.header.seq + seg.payload.len() as u32;
    if core.tcb.seq().rcv_nxt != fin_seq {
        // FIN not yet reachable (data missing in between): if its data
        // was queued out of order the FIN mark went with it; the ACK we
        // already sent tells the peer to retransmit.
        if fin_seq.gt(core.tcb.seq().rcv_nxt) {
            if seg.payload.is_empty() {
                transfer::note_out_of_order_fin(core, seg.header.seq);
            }
            return;
        }
        // Retransmitted FIN below rcv_nxt in TIME-WAIT and friends:
        if core.state == TcpState::TimeWait {
            send::queue_ack(core, now);
            core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
        }
        return;
    }
    // Consume the FIN; the data path reports it, control decides which
    // closing state it implies.
    let DataEvent::FinReceived = transfer::consume_fin(core, now);
    core.tcb.push_action(TcpAction::PeerClose);
    match *core.state {
        TcpState::SynActive | TcpState::SynPassive { .. } | TcpState::Estab => {
            transition(core, Trigger::Fin, TcpState::CloseWait);
        }
        TcpState::FinWait1 => {
            if core.tcb.fin_acked() {
                transition(core, Trigger::Fin, TcpState::TimeWait);
                core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
            } else {
                transition(core, Trigger::Fin, TcpState::Closing);
            }
        }
        TcpState::FinWait2 => {
            transition(core, Trigger::Fin, TcpState::TimeWait);
            core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
        }
        TcpState::TimeWait => {
            core.tcb.push_action(TcpAction::SetTimer(TimerKind::TimeWait, cfg.time_wait_ms));
        }
        _ => {}
    }
}

/// Peer reset: flush everything, tell the user.
fn enter_closed_after_reset(core: &mut ConnCore, trigger: Trigger) {
    silently_close(core, trigger);
    core.tcb.push_action(TcpAction::PeerReset);
}

/// Close without any user signal (embryonic reset).
fn silently_close(core: &mut ConnCore, trigger: Trigger) {
    transition(core, trigger, TcpState::Closed);
    core.tcb.discard();
}

#[cfg(test)]
mod tests {
    //! The paper's test structure, literally: "test code ... helps point
    //! out implementation defects by comparing the TCB produced by the
    //! operation with the TCB expected in accordance with the standard."
    //! Each test builds a connection core in a known state, applies one
    //! SEGMENT-ARRIVES, and checks the TCB and emitted actions.

    use super::*;
    use crate::control::state;
    use crate::data::transfer::Fixture;
    use foxbasis::seq::Seq;
    use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpOption};

    fn cfg() -> TcpConfig {
        TcpConfig { delayed_ack_ms: None, ..TcpConfig::default() }
    }

    /// An ESTABLISHED connection: una=nxt=101, irs 5000, rcv_nxt 5001.
    fn estab() -> ConnCore {
        Fixture { snd: Seq(101), rcv: Seq(5001), ..Fixture::default() }.core()
    }

    /// `estab()` after our CLOSE: FIN-WAIT-1, our FIN at 101 in flight.
    fn fin_sent() -> ConnCore {
        let mut core = estab();
        state::close(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        drain_actions(&mut core);
        core
    }

    fn seg(seq: u32, flags: TcpFlags, payload: &[u8]) -> TcpSegment {
        let mut h = TcpHeader::new(4000, 80);
        h.seq = Seq(seq);
        h.ack = Seq(101);
        h.flags = flags;
        h.window = wire_window(4096, 0);
        TcpSegment { header: h, payload: payload.into() }
    }

    fn drain_tags(core: &mut ConnCore) -> Vec<&'static str> {
        core.tcb.to_do.drain_all().iter().map(|a| a.tag()).collect()
    }

    fn drain_actions(core: &mut ConnCore) -> Vec<TcpAction> {
        core.tcb.to_do.drain_all()
    }

    /// The bytes handed to the user, draining the queue.
    fn delivered(core: &mut ConnCore) -> Vec<u8> {
        let data = drain_actions(core).into_iter().filter_map(|a| {
            if let TcpAction::UserData(d) = a {
                Some(d)
            } else {
                None
            }
        });
        data.flatten().collect()
    }

    // ---- LISTEN ----

    #[test]
    fn listen_syn_becomes_syn_passive_with_syn_ack() {
        let mut core = ConnCore::new(&cfg(), 80, 4000, Seq(300), 1460, BufPool::new());
        core.state.force(TcpState::Listen { backlog: 0 });
        let mut s = seg(7000, TcpFlags::SYN, b"");
        s.header.options.push(TcpOption::MaxSegmentSize(800)).unwrap();
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        // TCB per the standard: RCV.NXT = SEG.SEQ+1, IRS = SEG.SEQ,
        // SND.NXT = ISS+1.
        let s = core.tcb.seq();
        assert_eq!((s.irs, s.rcv_nxt, s.snd_nxt), (Seq(7000), Seq(7001), Seq(301)));
        assert_eq!(core.tcb.negotiated().mss(), 800, "min(ours, peer) adopted");
        assert_eq!(core.state, TcpState::SynPassive { retries_left: 5 });
        let synack = core.tcb.drain_segments().into_iter().next().expect("SYN+ACK staged");
        assert!(synack.header.flags.syn && synack.header.flags.ack);
        assert_eq!(synack.header.seq, Seq(300));
        assert_eq!(synack.header.ack, Seq(7001));
    }

    #[test]
    fn listen_verdicts() {
        let rst = seg(1, TcpFlags::RST, b"");
        assert_eq!(on_listen_segment(&BufPool::new(), 80, &rst), ListenVerdict::Ignore);
        let ack = seg(1, TcpFlags::ACK, b"");
        assert!(matches!(on_listen_segment(&BufPool::new(), 80, &ack), ListenVerdict::Reply(_)));
        let syn = seg(1, TcpFlags::SYN, b"");
        assert_eq!(on_listen_segment(&BufPool::new(), 80, &syn), ListenVerdict::Spawn);
        let none = seg(1, TcpFlags::default(), b"");
        assert_eq!(on_listen_segment(&BufPool::new(), 80, &none), ListenVerdict::Ignore);
    }

    #[test]
    fn closed_replies_rst_unless_configured_off() {
        let syn = seg(1, TcpFlags::SYN, b"");
        assert!(on_closed_segment(&cfg(), &BufPool::new(), 80, &syn).is_some());
        let quiet = TcpConfig { abort_unknown_connections: false, ..cfg() };
        assert!(on_closed_segment(&quiet, &BufPool::new(), 80, &syn).is_none());
        let rst = seg(1, TcpFlags::RST, b"");
        assert!(on_closed_segment(&cfg(), &BufPool::new(), 80, &rst).is_none(), "never reset a reset");
    }

    // ---- SYN-SENT ----

    /// An active open configured by `c`, its SYN at 100 sent.
    fn syn_sent_core(c: &TcpConfig) -> ConnCore {
        let mut core = ConnCore::new(c, 5000, 80, Seq(100), 1460, BufPool::new());
        state::active_open(c, &mut core, VirtualTime::ZERO).unwrap();
        drain_actions(&mut core);
        core
    }

    #[test]
    fn syn_sent_good_synack_establishes() {
        let mut core = syn_sent_core(&cfg());
        let mut s = seg(9000, TcpFlags::SYN_ACK, b"");
        s.header.ack = Seq(101);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::from_millis(42));
        assert_eq!(core.state, TcpState::Estab);
        let s = core.tcb.seq();
        assert_eq!((s.irs, s.rcv_nxt, s.snd_una), (Seq(9000), Seq(9001), Seq(101)));
        assert!(core.tcb.send_side().resend_queue().is_empty(), "SYN acked and removed");
        let tags = drain_tags(&mut core);
        assert!(tags.contains(&"Complete_Open"));
        assert!(tags.contains(&"Send_Segment"), "the final ACK of the handshake");
    }

    #[test]
    fn syn_sent_bad_ack_is_answered_with_rst() {
        let mut core = syn_sent_core(&cfg());
        let mut s = seg(9000, TcpFlags::SYN_ACK, b"");
        s.header.ack = Seq(555); // acks nothing we sent
        let d = segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        let rst = d.reply.expect("RST reply");
        assert!(rst.header.flags.rst);
        assert_eq!(rst.header.seq, Seq(555));
        assert_eq!(core.state, TcpState::SynSent { retries_left: 5 }, "state unchanged");
    }

    #[test]
    fn syn_sent_acceptable_rst_closes() {
        let mut core = syn_sent_core(&cfg());
        let mut s = seg(0, TcpFlags::RST_ACK, b"");
        s.header.ack = Seq(101);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Closed);
        assert!(drain_tags(&mut core).contains(&"Peer_Reset"));
    }

    #[test]
    fn syn_sent_rst_without_ack_ignored() {
        let mut core = syn_sent_core(&cfg());
        let s = seg(0, TcpFlags::RST, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::SynSent { retries_left: 5 });
    }

    #[test]
    fn simultaneous_open_goes_syn_active() {
        let mut core = syn_sent_core(&cfg());
        let s = seg(9000, TcpFlags::SYN, b""); // SYN, no ACK
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::SynActive);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(9001));
        let synack = core.tcb.drain_segments().into_iter().next().expect("SYN+ACK for simultaneous open");
        assert!(synack.header.flags.syn && synack.header.flags.ack);
        assert_eq!(synack.header.seq, Seq(100), "same ISS re-announced");
    }

    // ---- sequence check ----

    #[test]
    fn old_segment_gets_ack_and_is_dropped() {
        let mut core = estab();
        let s = seg(4000, TcpFlags::ACK, b"stale");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001), "nothing consumed");
        let ack = core.tcb.drain_segments().into_iter().next().expect("re-ACK of current position");
        assert_eq!(ack.header.ack, Seq(5001));
    }

    #[test]
    fn far_future_segment_dropped_with_ack() {
        let mut core = estab();
        let s = seg(5001 + 100_000, TcpFlags::ACK, b"beyond window");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert!(core.tcb.recv_side().out_of_order().is_empty());
        assert!(drain_tags(&mut core).contains(&"Send_Segment"));
    }

    // ---- RST / SYN in window ----

    #[test]
    fn in_window_rst_resets() {
        let mut core = estab();
        let s = seg(5001, TcpFlags::RST, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Closed);
        assert!(drain_tags(&mut core).contains(&"Peer_Reset"));
    }

    #[test]
    fn in_window_rst_off_exact_seq_challenged_not_aborted() {
        // RFC 5961 §3.2: the window is [5001, 5001+rcv_wnd); an RST at
        // 5002 is in-window but not at RCV.NXT — a blind-reset shape.
        let mut core = estab();
        let s = seg(5002, TcpFlags::RST, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Estab, "connection survives");
        let tags = drain_tags(&mut core);
        assert!(tags.contains(&"Attack"), "rejection counted");
        assert!(tags.contains(&"Send_Segment"), "challenge ACK queued");
        assert!(!tags.contains(&"Peer_Reset"));
    }

    #[test]
    fn off_window_rst_ignored() {
        // RFC 793: an RST outside the window is dropped "and return" —
        // nothing in the TCB may move, down to the last queued action.
        let mut core = estab();
        let before = core.tcb.clone();
        let s = seg(1, TcpFlags::RST, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Estab);
        assert_eq!(core.tcb, before);
        assert!(!drain_tags(&mut core).contains(&"Peer_Reset"));
    }

    #[test]
    fn rst_on_embryonic_passive_is_silent() {
        let mut core = estab();
        core.state.force(TcpState::SynPassive { retries_left: 3 });
        let s = seg(5001, TcpFlags::RST, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Closed);
        assert!(!drain_tags(&mut core).contains(&"Peer_Reset"), "listener child dies quietly");
    }

    #[test]
    fn in_window_syn_resets_with_reply() {
        let mut core = estab();
        let s = seg(5001, TcpFlags::SYN, b"");
        let d = segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert!(d.reply.expect("RST out").header.flags.rst);
        assert_eq!(core.state, TcpState::Closed);
    }

    // ---- ACK processing ----

    #[test]
    fn ack_advances_and_releases() {
        let mut core = estab();
        crate::data::send::user_send(&cfg(), &mut core, &[1; 300], VirtualTime::ZERO);
        let mut s = seg(5001, TcpFlags::ACK, b"");
        s.header.ack = Seq(401);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().snd_una, Seq(401));
        assert_eq!(core.tcb.send_side().send_buf().len(), 0);
    }

    #[test]
    fn ack_of_unsent_data_answered_and_dropped() {
        let mut core = estab();
        let mut s = seg(5001, TcpFlags::ACK, b"should not deliver");
        s.header.ack = Seq(9999);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001), "text not processed");
        let tags = drain_tags(&mut core);
        assert!(tags.contains(&"Send_Segment"));
        assert!(tags.contains(&"Attack"), "optimistic ACK counted");
        assert!(!tags.contains(&"User_Data"));
    }

    #[test]
    fn window_update_follows_wl_rules() {
        let mut core = estab();
        let mut s = seg(5001, TcpFlags::ACK, b"");
        s.header.window = wire_window(123, 0);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().snd_wnd, 123);
        assert_eq!(core.tcb.seq().snd_wl1, Seq(5001));
        // An *older* segment (lower seq) must not regress the window.
        let mut s2 = seg(4500, TcpFlags::ACK, b"");
        s2.header.window = wire_window(9, 0);
        // (make it pass the sequence check: zero-length at old seq is
        // unacceptable, so this drops before the window code — which is
        // itself the protection.)
        segment_arrives(&cfg(), &mut core, s2, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().snd_wnd, 123);
    }

    // ---- text processing ----

    #[test]
    fn in_order_text_delivered_and_acked() {
        let mut core = estab();
        let s = seg(5001, TcpFlags::ACK, b"abcdef");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5007));
        let actions = drain_actions(&mut core);
        let data = actions.iter().find_map(|a| match a {
            TcpAction::UserData(d) => Some(d.clone()),
            _ => None,
        });
        assert_eq!(data.unwrap(), b"abcdef");
        assert!(actions.iter().any(|a| matches!(a, TcpAction::SendSegment(s) if s.header.ack == Seq(5007))));
    }

    #[test]
    fn delayed_ack_sets_timer_instead() {
        let dcfg = TcpConfig { delayed_ack_ms: Some(200), ..TcpConfig::default() };
        let mut core = estab();
        let s = seg(5001, TcpFlags::ACK, b"tiny");
        segment_arrives(&dcfg, &mut core, s, VirtualTime::ZERO);
        let actions = drain_actions(&mut core);
        assert!(
            actions.iter().any(|a| matches!(a, TcpAction::SetTimer(TimerKind::DelayedAck, 200))),
            "{actions:?}"
        );
        assert!(
            !actions.iter().any(|a| matches!(a, TcpAction::SendSegment(_))),
            "no immediate ACK: {actions:?}"
        );
    }

    #[test]
    fn two_mss_of_data_forces_ack_despite_delay() {
        let dcfg = TcpConfig { delayed_ack_ms: Some(200), ..TcpConfig::default() };
        let mut core = Fixture { snd: Seq(101), rcv: Seq(5001), mss: 100, ..Fixture::default() }.core();
        let s = seg(5001, TcpFlags::ACK, &[7; 250]);
        segment_arrives(&dcfg, &mut core, s, VirtualTime::ZERO);
        let tags = drain_tags(&mut core);
        assert!(tags.contains(&"Send_Segment"), "{tags:?}");
    }

    #[test]
    fn out_of_order_text_queued_with_dup_ack() {
        let mut core = estab();
        let s = seg(5101, TcpFlags::ACK, b"late block");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001), "gap remains");
        assert_eq!(core.tcb.recv_side().out_of_order().len(), 1);
        let actions = drain_actions(&mut core);
        assert!(
            actions.iter().any(|a| matches!(a, TcpAction::SendSegment(s) if s.header.ack == Seq(5001))),
            "duplicate ACK points at the gap"
        );
    }

    #[test]
    fn gap_fill_delivers_everything() {
        let mut core = estab();
        segment_arrives(&cfg(), &mut core, seg(5007, TcpFlags::ACK, b"world!"), VirtualTime::ZERO);
        drain_actions(&mut core);
        segment_arrives(&cfg(), &mut core, seg(5001, TcpFlags::ACK, b"hello "), VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5013));
        let delivered = delivered(&mut core);
        assert_eq!(delivered, b"hello world!");
    }

    #[test]
    fn overlapping_retransmission_delivers_only_fresh_tail() {
        let mut core = estab();
        segment_arrives(&cfg(), &mut core, seg(5001, TcpFlags::ACK, b"abcd"), VirtualTime::ZERO);
        drain_actions(&mut core);
        // Peer retransmits [5001..5009): first 4 bytes are old.
        segment_arrives(&cfg(), &mut core, seg(5001, TcpFlags::ACK, b"abcdEFGH"), VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5009));
        let delivered = delivered(&mut core);
        assert_eq!(delivered, b"EFGH");
    }

    // ---- FIN processing ----

    #[test]
    fn fin_in_estab_enters_close_wait() {
        let mut core = estab();
        let s = seg(5001, TcpFlags::FIN_ACK, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::CloseWait);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5002), "FIN consumes a sequence number");
        let tags = drain_tags(&mut core);
        assert!(tags.contains(&"Peer_Close"));
        assert!(tags.contains(&"Send_Segment"), "FIN acked immediately");
    }

    #[test]
    fn fin_with_data_delivers_data_first() {
        let mut core = estab();
        let s = seg(5001, TcpFlags::FIN_ACK, b"bye");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5005)); // 3 data + FIN
        let tags = drain_tags(&mut core);
        let data_pos = tags.iter().position(|t| *t == "User_Data").unwrap();
        let close_pos = tags.iter().position(|t| *t == "Peer_Close").unwrap();
        assert!(data_pos < close_pos);
    }

    #[test]
    fn fin_in_fin_wait_2_enters_time_wait() {
        let mut core = fin_sent();
        let mut s = seg(5001, TcpFlags::ACK, b"");
        s.header.ack = Seq(102);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::FinWait2);
        let mut s = seg(5001, TcpFlags::FIN_ACK, b"");
        s.header.ack = Seq(102);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::TimeWait);
        let actions = drain_actions(&mut core);
        assert!(actions.iter().any(|a| matches!(a, TcpAction::SetTimer(TimerKind::TimeWait, _))));
    }

    #[test]
    fn simultaneous_close_fins_cross() {
        let mut core = fin_sent(); // our FIN at 101, unacked
                                   // Peer's FIN arrives, acking only old data (not our FIN).
        let mut s = seg(5001, TcpFlags::FIN_ACK, b"");
        s.header.ack = Seq(101);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Closing);
        drain_actions(&mut core);
        // Now the peer's ACK of our FIN arrives.
        let mut s2 = seg(5002, TcpFlags::ACK, b"");
        s2.header.ack = Seq(102);
        segment_arrives(&cfg(), &mut core, s2, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::TimeWait);
    }

    #[test]
    fn fin_wait_1_with_fin_acked_goes_time_wait_on_fin() {
        let mut core = fin_sent();
        // Peer ACKs our FIN and FINs in the same segment.
        let mut s = seg(5001, TcpFlags::FIN_ACK, b"");
        s.header.ack = Seq(102);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::TimeWait);
    }

    #[test]
    fn retransmitted_fin_in_time_wait_restarts_timer() {
        // The peer's FIN at 5001 already consumed.
        let mut core = Fixture { snd: Seq(101), rcv: Seq(5002), ..Fixture::default() }.core();
        core.state.force(TcpState::TimeWait);
        let s = seg(5001, TcpFlags::FIN_ACK, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        let actions = drain_actions(&mut core);
        assert!(
            actions.iter().any(|a| matches!(a, TcpAction::SetTimer(TimerKind::TimeWait, _))),
            "2MSL restarted: {actions:?}"
        );
        assert!(actions.iter().any(|a| matches!(a, TcpAction::SendSegment(_))), "FIN re-ACKed");
    }

    #[test]
    fn out_of_order_fin_waits_for_data() {
        let mut core = estab();
        // FIN at 5011 but data 5001..5011 missing: bare FIN out of order.
        let s = seg(5011, TcpFlags::FIN_ACK, b"");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.state, TcpState::Estab, "FIN not consumable yet");
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001));
    }

    // ---- SYN-time option negotiation (RFC 7323 / RFC 2018) ----

    fn opt_cfg(wscale: bool, sack: bool, ts: bool) -> TcpConfig {
        TcpConfig {
            window_scale: wscale,
            sack,
            timestamps: ts,
            initial_window: 1 << 18, // wants shift 2
            ..cfg()
        }
    }

    fn listener(c: &TcpConfig) -> ConnCore {
        let mut core = ConnCore::new(c, 80, 4000, Seq(300), 1460, BufPool::new());
        core.state.force(TcpState::Listen { backlog: 0 });
        core
    }

    fn peer_syn(wscale: Option<u8>, sack: bool, ts: Option<(u32, u32)>) -> TcpSegment {
        let mut s = seg(7000, TcpFlags::SYN, b"");
        s.header.options.push(TcpOption::MaxSegmentSize(1460)).unwrap();
        if let Some(sh) = wscale {
            s.header.options.push(TcpOption::WindowScale(sh)).unwrap();
        }
        if sack {
            s.header.options.push(TcpOption::SackPermitted).unwrap();
        }
        if let Some((v, e)) = ts {
            s.header.options.push(TcpOption::Timestamps(v, e)).unwrap();
        }
        s
    }

    /// Every option × offered/withheld, on the passive side: an option
    /// is on iff both our config offers it and the peer's SYN carries
    /// it, and the SYN+ACK echoes exactly the negotiated set.
    #[test]
    fn listener_negotiates_each_option_independently() {
        for &ours in &[false, true] {
            for &theirs in &[false, true] {
                let on = ours && theirs;
                // window scale
                let mut core = listener(&opt_cfg(ours, false, false));
                let s = peer_syn(theirs.then_some(7), false, None);
                segment_arrives(&opt_cfg(ours, false, false), &mut core, s, VirtualTime::ZERO);
                let n = core.tcb.negotiated(); // 3: the shift for a 256 KiB buffer
                assert_eq!(
                    (n.snd_shift(), n.adv_wscale()),
                    if on { (7, 3) } else { (0, 0) },
                    "{ours} {theirs}"
                );
                let synack = core.tcb.drain_segments().remove(0);
                assert_eq!(synack.header.wscale().is_some(), on);

                // SACK
                let mut core = listener(&opt_cfg(false, ours, false));
                let s = peer_syn(None, theirs, None);
                segment_arrives(&opt_cfg(false, ours, false), &mut core, s, VirtualTime::ZERO);
                assert_eq!(core.tcb.negotiated().sack_on(), on, "sack ours={ours} theirs={theirs}");
                let synack = core.tcb.drain_segments().remove(0);
                assert_eq!(synack.header.sack_permitted(), on);

                // timestamps
                let mut core = listener(&opt_cfg(false, false, ours));
                let s = peer_syn(None, false, theirs.then_some((5555, 0)));
                segment_arrives(&opt_cfg(false, false, ours), &mut core, s, VirtualTime::ZERO);
                assert_eq!(core.tcb.negotiated().ts_on(), on, "ts ours={ours} theirs={theirs}");
                let synack = core.tcb.drain_segments().remove(0);
                assert_eq!(synack.header.timestamps(), on.then_some((0, 5555)), "TS.Recent from the SYN");
            }
        }
    }

    /// The active side adopts from the SYN+ACK symmetrically.
    #[test]
    fn active_opener_negotiates_from_syn_ack() {
        let c = opt_cfg(true, true, true);
        let mut core = syn_sent_core(&c);
        let mut s = peer_syn(Some(10), true, Some((9000, 1)));
        s.header.flags = TcpFlags::SYN_ACK;
        s.header.ack = Seq(101);
        s.header.window = wire_window(2048, 0);
        segment_arrives(&c, &mut core, s, VirtualTime::from_millis(30));
        assert_eq!(core.state, TcpState::Estab);
        let n = core.tcb.negotiated();
        assert!(n.sack_on() && n.ts_on());
        assert_eq!(n.snd_shift(), 10);
        assert_eq!(core.tcb.seq().snd_wnd, 2048, "the SYN+ACK window itself is never scaled");
        // The handshake ACK carries a timestamp echoing the peer.
        let ack = core.tcb.drain_segments().remove(0);
        assert_eq!(ack.header.timestamps(), Some((30, 9000)));
        // And the peer's SYN+ACK echo of our timestamp fed RTTM.
        assert!(core.tcb.send_side().rtt().srtt.is_some(), "RTT sampled from TSecr");
    }

    /// A post-handshake window update applies the negotiated shift.
    #[test]
    fn scaled_window_update() {
        let scaled = TcpConfig { window_scale: true, ..cfg() };
        let mut core =
            Fixture { cfg: scaled, snd: Seq(101), rcv: Seq(5001), peer_wscale: 4, ..Fixture::default() }
                .core();
        let mut s = seg(5001, TcpFlags::ACK, b"");
        s.header.window = wire_window(4096, 0);
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().snd_wnd, 4096 << 4, "window widened by the peer's shift");
    }

    /// PAWS (RFC 7323 §5.3): an in-window segment whose timestamp is
    /// older than TS.Recent is dropped and re-ACKed.
    #[test]
    fn paws_rejects_old_timestamp() {
        let stamped = TcpConfig { timestamps: true, ..cfg() };
        let mut core =
            Fixture { cfg: stamped, snd: Seq(101), rcv: Seq(5001), ts_recent: 10_000, ..Fixture::default() }
                .core();
        let mut s = seg(5001, TcpFlags::ACK, b"wrapped ghost");
        s.header.options.push(TcpOption::Timestamps(9_999, 0)).unwrap();
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001), "text not consumed");
        let actions = drain_actions(&mut core);
        assert!(
            actions.iter().any(|a| matches!(a, TcpAction::SendSegment(s) if s.header.ack == Seq(5001))),
            "PAWS drop still ACKs: {actions:?}"
        );
        // The same data with a current timestamp is accepted.
        let mut s = seg(5001, TcpFlags::ACK, b"fresh");
        s.header.options.push(TcpOption::Timestamps(10_001, 0)).unwrap();
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5006));
        let ack = core.tcb.drain_segments().remove(0);
        assert_eq!(ack.header.timestamps(), Some((0, 10_001)), "TS.Recent advanced");
    }

    /// Incoming SACK blocks land in the sender-side scoreboard.
    #[test]
    fn ack_with_sack_blocks_updates_scoreboard() {
        let sack = TcpConfig { sack: true, ..cfg() };
        let mut core = Fixture { cfg: sack, snd: Seq(101), rcv: Seq(5001), ..Fixture::default() }.core();
        crate::data::send::user_send(&cfg(), &mut core, &[0; 4000], VirtualTime::ZERO); // 101..4101
        let mut s = seg(5001, TcpFlags::ACK, b"");
        s.header.ack = Seq(101); // duplicate
        s.header.options.push(TcpOption::Sack([(Seq(1101), Seq(2101))].into_iter().collect())).unwrap();
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.send_side().sack_scoreboard(), [(Seq(1101), Seq(2101))]);
        assert!(core.tcb.send_side().sacked(Seq(1101), Seq(2101)));
    }

    #[test]
    fn text_ignored_after_fin_states() {
        let mut core = estab();
        core.state.force(TcpState::CloseWait);
        let s = seg(5001, TcpFlags::ACK, b"zombie data");
        segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        assert_eq!(core.tcb.seq().rcv_nxt, Seq(5001), "text ignored after FIN");
        assert!(!drain_tags(&mut core).contains(&"User_Data"));
    }
}
