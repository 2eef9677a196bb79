//! The two-host discrete-event driver.
//!
//! Each station's protocol processing runs inside a host *episode*: the
//! simulated CPU starts when the event arrives (or when it finishes its
//! previous work), accumulates the charges the protocol code makes, and
//! frames the station transmits enter the wire when the CPU actually
//! produced them. Stepping alternates with advancing the shared network
//! clock, in ticks small enough that timer firings stay accurate.

use crate::station::Station;
use foxbasis::time::{VirtualDuration, VirtualTime};
use simnet::SimNet;

/// Drives `stations` on `net` until `done()` or `deadline`. Returns the
/// virtual time at which `done` first held (or the deadline).
///
/// `tick` bounds timer latency; 1 ms reproduces the paper's timings
/// faithfully at simulation speeds of millions of virtual seconds per
/// wall second.
pub fn drive(
    net: &SimNet,
    stations: &mut [&mut Box<dyn Station>],
    mut done: impl FnMut(&mut [&mut Box<dyn Station>]) -> bool,
    tick: VirtualDuration,
    deadline: VirtualTime,
) -> VirtualTime {
    let mut now = net.now();
    loop {
        // Settle at the current instant: stations may ping-pong frames
        // that arrive "now" several times (zero-latency CPU models).
        for _ in 0..64 {
            let mut progress = false;
            for s in stations.iter_mut() {
                let host = s.host();
                host.begin(now);
                progress |= s.step(now);
                host.end();
            }
            if let Some(t) = net.next_delivery() {
                if t <= now {
                    net.advance_to(now);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if done(stations) || now >= deadline {
            return now;
        }
        // Advance to the next interesting instant.
        let mut next = now + tick;
        if let Some(t) = net.next_delivery() {
            next = next.min(t.max(now + VirtualDuration::from_micros(1)));
        }
        next = next.min(deadline);
        net.advance_to(next);
        now = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::stack::StackKind;
    use foxbasis::obs::EventSink;
    use foxtcp::TcpConfig;
    use simnet::{CostModel, SimNet};

    fn quick_pair(kind: StackKind) -> (SimNet, Box<dyn Station>, Box<dyn Station>) {
        Cell::new(kind, CostModel::modern(), TcpConfig::default(), 33).pair(EventSink::off())
    }

    /// Opens one connection and moves one message each way on it, by the
    /// handles `connect` and `accept` returned.
    fn handshake_and_exchange(kind: StackKind) {
        let (net, mut a, mut b) = quick_pair(kind);
        b.listen(6969);
        let conn = a.connect(6969);
        let mut server = None;
        drive(
            &net,
            &mut [&mut a, &mut b],
            |st| {
                if server.is_none() {
                    server = st[1].accept();
                }
                st[0].established(conn) && server.is_some_and(|s| st[1].established(s))
            },
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(5_000),
        );
        assert!(a.established(conn), "{} should establish", a.kind());
        let sc = server.expect("accepted");
        assert_eq!(a.send(conn, b"echo me"), 7);
        assert_eq!(b.send(sc, b"echoed"), 6);
        drive(
            &net,
            &mut [&mut a, &mut b],
            |st| st[1].received_len(sc) >= 7 && st[0].received_len(conn) >= 6,
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(5_000),
        );
        assert_eq!(b.recv(sc), b"echo me", "{}: client to server", a.kind());
        assert_eq!(a.recv(conn), b"echoed", "{}: server to client", a.kind());
    }

    #[test]
    fn all_three_stacks_establish_and_exchange() {
        handshake_and_exchange(StackKind::FoxStandard);
        handshake_and_exchange(StackKind::FoxSpecial);
        handshake_and_exchange(StackKind::XKernel);
    }
}
