//! The State module: "the main state manipulations required on
//! connection open, close, or abort, and also when a timer expires"
//! (paper §4).

use crate::action::{TcpAction, TimerKind};
use crate::control::fsm::{spend_syn_retry, transition, Trigger};
use crate::data::{resend, send, transfer};
use crate::{ConnCore, TcpConfig, TcpState};
use foxbasis::time::VirtualTime;
use foxproto::ProtoError;
use foxwire::tcp::TcpFlags;

/// Active open (RFC 793 OPEN with a specified foreign socket): send a
/// SYN, arm the user timeout, enter SYN-SENT. The foreign socket is not
/// checked here: the engine reaches this only from
/// [`crate::TcpPattern::Active`], which always names one.
pub fn active_open(cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) -> Result<(), ProtoError> {
    if core.state != TcpState::Closed {
        return Err(ProtoError::AlreadyOpen);
    }
    transition(core, Trigger::Open, TcpState::SynSent { retries_left: cfg.syn_retries });
    send::queue_syn(core, false, now);
    core.tcb.push_action(TcpAction::SetTimer(TimerKind::UserTimeout, cfg.user_timeout_ms));
    Ok(())
}

/// Passive open (RFC 793 OPEN with an unspecified foreign socket).
pub fn passive_open(cfg: &TcpConfig, core: &mut ConnCore) -> Result<(), ProtoError> {
    if core.state != TcpState::Closed {
        return Err(ProtoError::AlreadyOpen);
    }
    transition(core, Trigger::Open, TcpState::Listen { backlog: cfg.backlog });
    Ok(())
}

/// Marks a freshly spawned child of a listener as an embryonic
/// connection: it "listens" on behalf of its parent for exactly the SYN
/// that created it (backlog 0 — a child spawns nothing itself). The
/// engine calls this instead of writing the state directly; every
/// lifecycle write stays in `control`.
pub fn spawn_embryonic(core: &mut ConnCore) {
    transition(core, Trigger::Open, TcpState::Listen { backlog: 0 });
}

/// CLOSE (RFC 793 p. 60): graceful shutdown of our direction.
pub fn close(cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) -> Result<(), ProtoError> {
    match *core.state {
        TcpState::Closed => Err(ProtoError::NotOpen),
        TcpState::Listen { .. } | TcpState::SynSent { .. } => {
            // "Any outstanding RECEIVEs are returned ... delete the TCB."
            transition(core, Trigger::Close, TcpState::Closed);
            core.tcb.push_action(TcpAction::CompleteClose);
            Ok(())
        }
        TcpState::SynActive | TcpState::SynPassive { .. } | TcpState::Estab => {
            // "Queue this until all preceding SENDs have been segmentized,
            // then form a FIN segment and send it" — fin_pending does the
            // queueing; the Send module emits the FIN after the data.
            core.tcb.close_send();
            transition(core, Trigger::Close, TcpState::FinWait1);
            send::maybe_send(cfg, core, now);
            Ok(())
        }
        TcpState::CloseWait => {
            core.tcb.close_send();
            transition(core, Trigger::Close, TcpState::LastAck);
            send::maybe_send(cfg, core, now);
            Ok(())
        }
        TcpState::FinWait1
        | TcpState::FinWait2
        | TcpState::Closing
        | TcpState::LastAck
        | TcpState::TimeWait => Err(ProtoError::Closing),
    }
}

/// SEND (RFC 793 p. 56): takes as much of `data` as the send buffer
/// has room for and returns how many bytes that was. Before the
/// handshake completes the data is queued "for transmission after
/// entering ESTABLISHED"; once our side has closed, or on a listener,
/// the call is refused.
pub fn send(
    cfg: &TcpConfig,
    core: &mut ConnCore,
    data: &[u8],
    now: VirtualTime,
) -> Result<usize, ProtoError> {
    match *core.state {
        TcpState::Closed => Err(ProtoError::NotOpen),
        TcpState::Listen { .. } => Err(ProtoError::Invalid("send on listener")),
        TcpState::SynSent { .. }
        | TcpState::SynActive
        | TcpState::SynPassive { .. }
        | TcpState::Estab
        | TcpState::CloseWait => Ok(send::user_send(cfg, core, data, now)),
        TcpState::FinWait1
        | TcpState::FinWait2
        | TcpState::Closing
        | TcpState::LastAck
        | TcpState::TimeWait => Err(ProtoError::Closing),
    }
}

/// ABORT (RFC 793 p. 62): RST out (if synchronized), flush, close.
pub fn abort(_cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) -> Result<(), ProtoError> {
    if core.state == TcpState::Closed {
        return Err(ProtoError::NotOpen);
    }
    if core.state.is_synchronized() && core.state != TcpState::TimeWait {
        let header = send::make_header(core, TcpFlags::RST_ACK, core.tcb.seq().snd_nxt, now, true);
        let payload = core.pool.empty();
        core.tcb.push_action(TcpAction::SendSegment(foxwire::tcp::TcpSegment { header, payload }));
    }
    transition(core, Trigger::Abort, TcpState::Closed);
    core.tcb.discard();
    core.tcb.push_action(TcpAction::CompleteClose);
    Ok(())
}

/// Timer expirations (the `Timer_Expiration` action): dispatch to the
/// responsible module.
pub fn timer_expired(cfg: &TcpConfig, core: &mut ConnCore, kind: TimerKind, now: VirtualTime) {
    if core.state == TcpState::Closed {
        return;
    }
    match kind {
        TimerKind::Resend => retransmit_timer(cfg, core, now),
        TimerKind::DelayedAck => transfer::delayed_ack_fired(core, now),
        TimerKind::Persist => {
            send::window_probe(cfg, core, now);
        }
        TimerKind::TimeWait => {
            if core.state == TcpState::TimeWait {
                transition(core, Trigger::Timer, TcpState::Closed);
                core.tcb.push_action(TcpAction::CompleteClose);
            }
        }
        TimerKind::UserTimeout => {
            // A hung operation (usually the handshake) fails.
            if core.state != TcpState::Estab {
                transition(core, Trigger::Timer, TcpState::Closed);
                core.tcb.discard();
                core.tcb.push_action(TcpAction::UserTimeoutFired);
            }
        }
    }
}

/// The retransmission timer fired. The data path backs off and resends
/// ([`resend::rto_backoff`] / [`resend::retransmit_and_rearm`]); whether
/// the connection gives up instead — the retry budget, the SYN-state
/// retry accounting — is this module's decision, because giving up is a
/// state transition.
fn retransmit_timer(cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) {
    if !resend::has_flight(core) {
        return;
    }
    if resend::out_of_retries(core) {
        give_up(core);
        return;
    }
    resend::rto_backoff(cfg, core, now);
    // The SYN states count their own retries (`fsm` spends them); with
    // none left the connection gives up.
    if !spend_syn_retry(core) {
        give_up(core);
        return;
    }
    resend::retransmit_and_rearm(core, now);
}

/// Hung operation: fail it (the paper's user timeout).
fn give_up(core: &mut ConnCore) {
    transition(core, Trigger::Timer, TcpState::Closed);
    core.tcb.push_action(TcpAction::UserTimeoutFired);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::transfer::Fixture;
    use foxbasis::seq::Seq;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// The fixture, back in CLOSED before anything was sent.
    fn fresh() -> ConnCore {
        let mut core = Fixture::default().core();
        core.state.force(TcpState::Closed);
        core
    }

    fn tags(core: &mut ConnCore) -> Vec<&'static str> {
        core.tcb.to_do.drain_all().iter().map(|a| a.tag()).collect()
    }

    #[test]
    fn active_open_sends_syn_and_arms_user_timer() {
        let mut core = fresh();
        active_open(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::SynSent { retries_left: 5 });
        let t = tags(&mut core);
        assert!(t.contains(&"Send_Segment"));
        assert!(t.contains(&"Set_Timer"));
        assert_eq!(core.tcb.seq().snd_nxt, Seq(101));
        // Double open fails.
        assert_eq!(active_open(&cfg(), &mut core, VirtualTime::ZERO), Err(ProtoError::AlreadyOpen));
    }

    #[test]
    fn passive_open_listens() {
        let mut core = fresh();
        passive_open(&cfg(), &mut core).unwrap();
        assert_eq!(core.state, TcpState::Listen { backlog: 8 });
        assert_eq!(passive_open(&cfg(), &mut core), Err(ProtoError::AlreadyOpen));
    }

    #[test]
    fn close_from_estab_sends_fin_enters_finwait1() {
        let mut core = Fixture::default().core();
        close(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::FinWait1);
        assert!(core.tcb.fin_sent(), "FIN actually staged");
        let t = tags(&mut core);
        assert!(t.contains(&"Send_Segment"));
    }

    #[test]
    fn close_from_close_wait_enters_last_ack() {
        let mut core = Fixture::default().core();
        core.state.force(TcpState::CloseWait);
        close(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::LastAck);
    }

    #[test]
    fn close_from_listen_or_synsent_just_closes() {
        let mut core = fresh();
        core.state.force(TcpState::Listen { backlog: 4 });
        close(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::Closed);
        assert!(tags(&mut core).contains(&"Complete_Close"));

        let mut core = fresh();
        core.state.force(TcpState::SynSent { retries_left: 3 });
        close(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::Closed);
    }

    #[test]
    fn send_is_refused_outside_the_states_that_queue_data() {
        use TcpState::*;
        for (state, want) in [
            (Closed, Err(ProtoError::NotOpen)),
            (Listen { backlog: 8 }, Err(ProtoError::Invalid("send on listener"))),
            (SynSent { retries_left: 5 }, Ok(4)),
            (SynActive, Ok(4)),
            (SynPassive { retries_left: 5 }, Ok(4)),
            (Estab, Ok(4)),
            (FinWait1, Err(ProtoError::Closing)),
            (FinWait2, Err(ProtoError::Closing)),
            (CloseWait, Ok(4)),
            (Closing, Err(ProtoError::Closing)),
            (LastAck, Err(ProtoError::Closing)),
            (TimeWait, Err(ProtoError::Closing)),
        ] {
            let mut core = fresh();
            core.state.force(state.clone());
            assert_eq!(send(&cfg(), &mut core, b"data", VirtualTime::ZERO), want, "{state:?}");
            let buffered = core.tcb.send_side().send_buf().len();
            assert_eq!(buffered, want.unwrap_or(0), "{state:?}: what a refused SEND buffers");
        }
    }

    #[test]
    fn double_close_is_an_error() {
        let mut core = fresh();
        core.state.force(TcpState::FinWait2);
        assert_eq!(close(&cfg(), &mut core, VirtualTime::ZERO), Err(ProtoError::Closing));
        core.state.force(TcpState::Closed);
        assert_eq!(close(&cfg(), &mut core, VirtualTime::ZERO), Err(ProtoError::NotOpen));
    }

    #[test]
    fn abort_sends_rst_and_flushes() {
        let mut core = Fixture::default().core();
        assert_eq!(send::user_send(&cfg(), &mut core, &[1; 100], VirtualTime::ZERO), 100);
        abort(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        assert_eq!(core.state, TcpState::Closed);
        assert_eq!(core.tcb.send_side().send_buf().len(), 0);
        let acts: Vec<String> = core.tcb.to_do.drain_all().iter().map(|a| format!("{a:?}")).collect();
        assert!(acts.iter().any(|a| a.contains("RST")), "{acts:?}");
        assert!(acts.iter().any(|a| a == "Complete_Close"));
    }

    #[test]
    fn abort_from_syn_sent_sends_no_rst() {
        let mut core = fresh();
        core.state.force(TcpState::SynSent { retries_left: 1 });
        abort(&cfg(), &mut core, VirtualTime::ZERO).unwrap();
        let acts: Vec<String> = core.tcb.to_do.drain_all().iter().map(|a| format!("{a:?}")).collect();
        assert!(!acts.iter().any(|a| a.contains("RST")), "{acts:?}");
    }

    #[test]
    fn time_wait_timer_completes_close() {
        let mut core = fresh();
        core.state.force(TcpState::TimeWait);
        timer_expired(&cfg(), &mut core, TimerKind::TimeWait, VirtualTime::from_millis(60_000));
        assert_eq!(core.state, TcpState::Closed);
        assert!(tags(&mut core).contains(&"Complete_Close"));
    }

    #[test]
    fn user_timeout_fails_a_hung_handshake() {
        let mut core = fresh();
        core.state.force(TcpState::SynSent { retries_left: 2 });
        timer_expired(&cfg(), &mut core, TimerKind::UserTimeout, VirtualTime::from_millis(1));
        assert_eq!(core.state, TcpState::Closed);
        assert!(tags(&mut core).contains(&"User_Timeout"));
    }

    #[test]
    fn user_timeout_ignores_established() {
        let mut core = fresh();
        core.state.force(TcpState::Estab);
        timer_expired(&cfg(), &mut core, TimerKind::UserTimeout, VirtualTime::from_millis(1));
        assert_eq!(core.state, TcpState::Estab);
    }

    #[test]
    fn delayed_ack_timer_acks_only_when_pending() {
        let mut core = Fixture::default().core();
        timer_expired(&cfg(), &mut core, TimerKind::DelayedAck, VirtualTime::from_millis(1));
        assert!(tags(&mut core).is_empty());
        // One small in-order segment: its ACK is held for the timer.
        let mut h = foxwire::tcp::TcpHeader::new(2000, 1000);
        (h.seq, h.ack, h.flags, h.window) =
            (Seq(5000), Seq(100), TcpFlags::ACK, foxwire::tcp::wire_window(4096, 0));
        let seg = foxwire::tcp::TcpSegment { header: h, payload: b"x"[..].into() };
        crate::control::segment::segment_arrives(&cfg(), &mut core, seg, VirtualTime::ZERO);
        assert!(!tags(&mut core).contains(&"Send_Segment"));
        timer_expired(&cfg(), &mut core, TimerKind::DelayedAck, VirtualTime::from_millis(2));
        assert!(tags(&mut core).contains(&"Send_Segment"));
        timer_expired(&cfg(), &mut core, TimerKind::DelayedAck, VirtualTime::from_millis(3));
        assert!(tags(&mut core).is_empty(), "the ACK went: none is owed");
    }

    #[test]
    fn timers_on_closed_connection_are_inert() {
        let mut core = fresh();
        for kind in TimerKind::ALL {
            timer_expired(&cfg(), &mut core, kind, VirtualTime::from_millis(1));
        }
        assert!(tags(&mut core).is_empty());
    }
}
