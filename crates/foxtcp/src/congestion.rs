//! Congestion control: every write to `cwnd`/`ssthresh` in the stack
//! happens here, in this module's functions.
//!
//! The paper's claim is that a structured stack keeps extensions local;
//! this module is the test for congestion control. The Resend module
//! reports *events* (an ACK of new data, the third duplicate, a partial
//! ACK, an RTO) and the functions below decide the windows. The one
//! algorithm is NewReno (RFC 5681 slow start and congestion avoidance
//! with the RFC 6582 recovery refinements) — bit-for-bit the arithmetic
//! the stack always had.
//!
//! The compiler enforces it: the two windows are private fields of
//! [`Cc`], the TCB's `cc`, so code outside this module can read them
//! ([`Cc::cwnd`], [`Cc::ssthresh`]) and cannot write them. The module
//! sits at the crate root, outside [`crate::data`], so it can read the
//! TCB's sequence space and cannot write it either.
//!
//! `cwnd == 0` means congestion control is disabled for the connection
//! (the ablation switch): every function but [`init`] leaves a zero
//! window shut, while [`enter_recovery`] and [`on_rto`] still move
//! `ssthresh`.

use crate::data::tcb::Tcb;

/// A connection's congestion state: the two windows. Both fields are
/// private, so only this module writes them; [`Cc::cwnd`] and
/// [`Cc::ssthresh`] are the readers.
#[derive(Clone, PartialEq, Debug)]
pub struct Cc {
    cwnd: u32,
    ssthresh: u32,
}

impl Cc {
    /// A connection's congestion state before establishment: no window
    /// (`cwnd == 0`, which [`init`] opens) and no threshold.
    pub(crate) fn new() -> Cc {
        Cc { cwnd: 0, ssthresh: u32::MAX }
    }

    /// Congestion window, bytes (0: congestion control is off).
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Slow-start threshold, bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }
}

/// Test hook: the module tests that start a connection at a given
/// congestion window. Compiled into this crate's own unit tests and
/// nowhere else.
#[cfg(test)]
impl Cc {
    pub(crate) fn set_cwnd(&mut self, cwnd: u32) {
        self.cwnd = cwnd;
    }
}

/// Connection established: initial window (one MSS) and cleared
/// threshold.
pub fn init(tcb: &mut Tcb) {
    let mss = tcb.negotiated().mss();
    tcb.cc = Cc { cwnd: mss, ssthresh: u32::MAX };
}

/// New data acknowledged outside recovery: grow the window — slow start
/// below `ssthresh`, additive increase above.
pub fn on_ack(tcb: &mut Tcb, bytes_acked: u32) {
    let mss = tcb.negotiated().mss();
    let w = &mut tcb.cc;
    if w.cwnd == 0 || bytes_acked == 0 {
        return;
    }
    // Appropriate Byte Counting (RFC 3465): growth is credited by bytes
    // actually acknowledged, capped at one MSS per ACK, so an attacker
    // dividing one segment's ACK into many sub-MSS ACKs earns no more
    // window than the single honest ACK would. For full-segment ACKs
    // (bytes_acked >= mss) the arithmetic is bit-identical to the
    // historical ack-counted code.
    let credit = bytes_acked.min(mss);
    if w.cwnd < w.ssthresh {
        w.cwnd = w.cwnd.saturating_add(credit); // slow start
    } else {
        w.cwnd = w.cwnd.saturating_add((mss.saturating_mul(credit) / w.cwnd).max(1));
    }
}

/// A duplicate ACK while recovering: a segment left the network, so the
/// window inflates by one MSS.
pub fn dup_ack_inflate(tcb: &mut Tcb) {
    let mss = tcb.negotiated().mss();
    let w = &mut tcb.cc;
    if w.cwnd == 0 {
        return;
    }
    w.cwnd = w.cwnd.saturating_add(mss);
}

/// The third duplicate ACK: enter fast recovery with half the flight as
/// the threshold (`ssthresh` moves even with the window ablated).
pub fn enter_recovery(tcb: &mut Tcb) {
    let (mss, flight) = (tcb.negotiated().mss(), tcb.flight_size());
    let w = &mut tcb.cc;
    w.ssthresh = (flight / 2).max(2 * mss);
    if w.cwnd > 0 {
        // ssthresh plus the three segments the duplicates ACKed.
        w.cwnd = w.ssthresh.saturating_add(3 * mss);
    }
}

/// Partial ACK during recovery: deflate by what was acknowledged, plus
/// one MSS back.
pub fn partial_ack(tcb: &mut Tcb, bytes_acked: u32) {
    let mss = tcb.negotiated().mss();
    let w = &mut tcb.cc;
    if w.cwnd == 0 {
        return;
    }
    w.cwnd = w.cwnd.saturating_sub(bytes_acked).saturating_add(mss).max(mss);
}

/// Recovery point acknowledged: deflate to ssthresh.
pub fn exit_recovery(tcb: &mut Tcb) {
    let mss = tcb.negotiated().mss();
    let w = &mut tcb.cc;
    if w.cwnd == 0 {
        return;
    }
    w.cwnd = w.ssthresh.max(mss);
}

/// Retransmission timeout: half the flight as the threshold (moved even
/// with the window ablated) and back to slow start from one MSS.
pub fn on_rto(tcb: &mut Tcb) {
    let (mss, flight) = (tcb.negotiated().mss(), tcb.flight_size());
    let w = &mut tcb.cc;
    w.ssthresh = (flight / 2).max(2 * mss);
    if w.cwnd > 0 {
        w.cwnd = mss;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxbasis::time::VirtualTime;

    /// An ESTABLISHED TCB with a 1000-byte MSS and `flight` bytes
    /// outstanding, at the given windows.
    fn tcb(flight: usize, cwnd: u32, ssthresh: u32) -> Tcb {
        let mut core = crate::data::transfer::Fixture::default().core();
        crate::data::send::user_send(&Default::default(), &mut core, &vec![0; flight], VirtualTime::ZERO);
        core.tcb.cc = Cc { cwnd, ssthresh };
        core.tcb
    }

    fn windows(tcb: &Tcb) -> (u32, u32) {
        (tcb.cc.cwnd(), tcb.cc.ssthresh())
    }

    #[test]
    fn reno_matches_historical_arithmetic() {
        let mut t = tcb(0, 0, 0);
        assert_eq!(t.negotiated().mss(), 1000);
        init(&mut t);
        assert_eq!(windows(&t), (1000, u32::MAX));
        // Slow start doubles per window (one MSS per ACK).
        on_ack(&mut t, 1000);
        assert_eq!(t.cc.cwnd(), 2000);
        // Above ssthresh: additive increase mss²/cwnd.
        t.cc.ssthresh = 2000;
        on_ack(&mut t, 1000);
        assert_eq!(t.cc.cwnd(), 2000 + 1000 * 1000 / 2000);
        // Recovery entry: half the flight, floored, plus three segments.
        let mut t = tcb(3000, 6000, u32::MAX);
        enter_recovery(&mut t);
        assert_eq!(windows(&t), (5000, 2000));
        dup_ack_inflate(&mut t);
        assert_eq!(t.cc.cwnd(), 6000);
        partial_ack(&mut t, 1000);
        assert_eq!(t.cc.cwnd(), 6000);
        exit_recovery(&mut t);
        assert_eq!(t.cc.cwnd(), 2000);
        let mut t = tcb(4000, 8000, u32::MAX);
        on_rto(&mut t);
        assert_eq!(windows(&t), (1000, 2000));
    }

    #[test]
    fn ack_division_earns_bytes_not_acks() {
        // Savage et al.'s ACK-division attack: the receiver splits one
        // segment's acknowledgement into many sub-MSS ACKs. Byte
        // counting makes the 10 division ACKs worth exactly what the
        // one honest ACK was worth — the acknowledged bytes.
        let mut honest = tcb(0, 1000, u32::MAX);
        on_ack(&mut honest, 1000);
        let mut attacked = tcb(0, 1000, u32::MAX);
        for _ in 0..10 {
            on_ack(&mut attacked, 100);
        }
        assert_eq!(honest.cc.cwnd(), attacked.cc.cwnd(), "division earned nothing extra");
        // Congestion avoidance: sub-MSS ACKs earn proportionally less.
        let mut ca = tcb(0, 4000, 2000);
        on_ack(&mut ca, 1000);
        assert_eq!(ca.cc.cwnd(), 4000 + 1000 * 1000 / 4000);
        let mut ca_div = tcb(0, 4000, 2000);
        on_ack(&mut ca_div, 100);
        assert_eq!(ca_div.cc.cwnd(), 4000 + 1000 * 100 / 4000);
    }

    #[test]
    fn ablated_window_stays_shut_while_ssthresh_moves() {
        // cwnd == 0 (ablated): growth, inflation and both deflations
        // are no-ops, while recovery entry and a timeout still set the
        // threshold from the flight.
        let mut t = tcb(4000, 0, u32::MAX);
        assert_eq!(t.flight_size(), 4000);
        on_ack(&mut t, 1000);
        dup_ack_inflate(&mut t);
        partial_ack(&mut t, 1000);
        exit_recovery(&mut t);
        assert_eq!(windows(&t), (0, u32::MAX));
        enter_recovery(&mut t);
        assert_eq!(windows(&t), (0, 2000));
        let mut t = tcb(4000, 0, u32::MAX);
        on_rto(&mut t);
        assert_eq!(windows(&t), (0, 2000));
        // Opened, the same flight enters recovery with a window.
        init(&mut t);
        assert_eq!(windows(&t), (1000, u32::MAX));
        enter_recovery(&mut t);
        assert_eq!(windows(&t), (5000, 2000));
    }
}
