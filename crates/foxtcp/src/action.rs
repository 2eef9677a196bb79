//! The `tcp_action` datatype (paper Fig. 8) — the currency of the
//! quasi-synchronous control structure.
//!
//! "Executing an operation computes the corresponding actions and queues
//! them onto the connection's to_do queue. ... Actions are designed not
//! to wait; instead, they can start timers or queue other actions for
//! later execution."
//!
//! Everything that happens to a connection — a decoded segment, a timer
//! expiration, data for the user, a segment to transmit — is one of
//! these values. Because the queue imposes a total order, "once the
//! actions have been placed on the queue the behavior of TCP is
//! completely deterministic and testable."

use foxbasis::obs::{AttackEvent, LossEvent, TimerKind};
use foxbasis::seq::Seq;
use foxwire::tcp::TcpSegment;
use std::fmt;

/// One action on a connection's to_do queue (paper Fig. 8).
#[derive(Clone, PartialEq)]
pub enum TcpAction {
    /// An internalized (decoded, checksum-verified) segment has arrived
    /// — the Receive module processes it.
    ProcessData(TcpSegment),
    /// Externalize and transmit this segment (the Action module sends
    /// it; the Send and Receive modules only ever *queue* it).
    SendSegment(TcpSegment),
    /// Deliver in-order payload to the user's handler.
    UserData(Vec<u8>),
    /// A timer fired.
    TimerExpiration(TimerKind),
    /// Arm a timer for the given number of milliseconds.
    SetTimer(TimerKind, u64),
    /// Disarm a timer.
    ClearTimer(TimerKind),
    /// The three-way handshake finished: complete the user's `open`.
    CompleteOpen,
    /// The connection is fully closed: complete the user's `close`.
    CompleteClose,
    /// The peer's FIN was consumed: tell the user no more data is
    /// coming.
    PeerClose,
    /// The peer reset the connection.
    PeerReset,
    /// The user timeout elapsed with operations still hung.
    UserTimeoutFired,
    /// A new embryonic connection was spawned off a listener (delivered
    /// to the *listener's* queue so its user can adopt the child).
    NewConnection(u32),
    /// The peer signalled urgent data up to the given sequence number
    /// (RFC 793's sixth check; tracked, not expedited).
    UrgentData(Seq),
    /// Loss-recovery bookkeeping: the Resend/Send modules report how
    /// they are recovering; the engine counts these into its statistics
    /// and trace.
    Loss(LossEvent),
    /// Attack-hardening bookkeeping: the Receive module repelled a
    /// state-targeted attack; the engine counts these into its
    /// statistics and trace.
    Attack(AttackEvent),
}

impl fmt::Debug for TcpAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpAction::ProcessData(seg) => write!(
                f,
                "Process_Data(seq={}, len={}, {:?})",
                seg.header.seq,
                seg.payload.len(),
                seg.header.flags
            ),
            TcpAction::SendSegment(seg) => write!(
                f,
                "Send_Segment(seq={}, ack={}, len={}, {:?})",
                seg.header.seq,
                seg.header.ack,
                seg.payload.len(),
                seg.header.flags
            ),
            TcpAction::UserData(d) => write!(f, "User_Data({} bytes)", d.len()),
            TcpAction::TimerExpiration(k) => write!(f, "Timer_Expiration({k:?})"),
            TcpAction::SetTimer(k, ms) => write!(f, "Set_Timer({k:?}, {ms}ms)"),
            TcpAction::ClearTimer(k) => write!(f, "Clear_Timer({k:?})"),
            TcpAction::CompleteOpen => write!(f, "Complete_Open"),
            TcpAction::CompleteClose => write!(f, "Complete_Close"),
            TcpAction::PeerClose => write!(f, "Peer_Close"),
            TcpAction::PeerReset => write!(f, "Peer_Reset"),
            TcpAction::UserTimeoutFired => write!(f, "User_Timeout"),
            TcpAction::NewConnection(id) => write!(f, "New_Connection({id})"),
            TcpAction::UrgentData(up) => write!(f, "Urgent_Data(up to {up})"),
            TcpAction::Loss(ev) => write!(f, "Loss({ev:?})"),
            TcpAction::Attack(ev) => write!(f, "Attack({ev:?})"),
        }
    }
}

impl TcpAction {
    /// A short tag for trace output and tests.
    pub fn tag(&self) -> &'static str {
        match self {
            TcpAction::ProcessData(..) => "Process_Data",
            TcpAction::SendSegment(..) => "Send_Segment",
            TcpAction::UserData(..) => "User_Data",
            TcpAction::TimerExpiration(..) => "Timer_Expiration",
            TcpAction::SetTimer(..) => "Set_Timer",
            TcpAction::ClearTimer(..) => "Clear_Timer",
            TcpAction::CompleteOpen => "Complete_Open",
            TcpAction::CompleteClose => "Complete_Close",
            TcpAction::PeerClose => "Peer_Close",
            TcpAction::PeerReset => "Peer_Reset",
            TcpAction::UserTimeoutFired => "User_Timeout",
            TcpAction::NewConnection(..) => "New_Connection",
            TcpAction::UrgentData(..) => "Urgent_Data",
            TcpAction::Loss(..) => "Loss",
            TcpAction::Attack(..) => "Attack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_rendering() {
        let a = TcpAction::SetTimer(TimerKind::Resend, 500);
        assert_eq!(format!("{a:?}"), "Set_Timer(Resend, 500ms)");
        let b = TcpAction::UserData(vec![1, 2, 3]);
        assert_eq!(format!("{b:?}"), "User_Data(3 bytes)");
    }

    #[test]
    fn tags_cover_all_variants() {
        let actions = vec![
            TcpAction::UserData(vec![]),
            TcpAction::TimerExpiration(TimerKind::Persist),
            TcpAction::SetTimer(TimerKind::DelayedAck, 1),
            TcpAction::ClearTimer(TimerKind::TimeWait),
            TcpAction::CompleteOpen,
            TcpAction::CompleteClose,
            TcpAction::PeerClose,
            TcpAction::PeerReset,
            TcpAction::UserTimeoutFired,
            TcpAction::NewConnection(7),
            TcpAction::Attack(AttackEvent::RstBadSeq),
        ];
        let tags: Vec<_> = actions.iter().map(|a| a.tag()).collect();
        assert_eq!(tags.len(), 11);
        assert!(tags.contains(&"User_Data"));
        assert!(tags.contains(&"Attack"));
    }

    #[test]
    fn attack_event_names() {
        assert_eq!(AttackEvent::RstBadSeq.name(), "RstBadSeq");
        assert_eq!(AttackEvent::AckUnsentData.name(), "AckUnsentData");
        let a = TcpAction::Attack(AttackEvent::AckUnsentData);
        assert_eq!(format!("{a:?}"), "Attack(AckUnsentData)");
    }
}
