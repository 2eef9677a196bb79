//! Host episodes over the discrete-event loop.
//!
//! Each station's protocol processing runs inside a host *episode*: the
//! simulated CPU starts when the event arrives (or when it finishes its
//! previous work), accumulates the charges the protocol code makes, and
//! frames the station transmits enter the wire when the CPU actually
//! produced them. This module brackets every station's step in its
//! episode; [`simnet::drive()`] decides when the stations step and when
//! the network clock moves.

use crate::station::Station;
use foxbasis::time::{VirtualDuration, VirtualTime};
use simnet::SimNet;

/// Drives `stations` on `net` until `done()` or `deadline`. Returns the
/// virtual time at which `done` first held (or the deadline).
///
/// `tick` is the timer grid; 1 ms reproduces the paper's timings
/// faithfully at simulation speeds of millions of virtual seconds per
/// wall second. Instants at which nothing is due are skipped: the loop
/// moves to the next delivery or the earliest of the stations' host
/// alarms ([`simnet::HostHandle::alarm`]), and neither steps a station
/// nor polls `done` in between.
///
/// `done` is the applications, polled once per instant the loop stops
/// at, and skipping is invisible only if a poll acts on what it read
/// within that same poll. A stack lowers its own host's alarm when a
/// user call gives it work (a timer the call arms, bytes a send takes),
/// so the loop stops in time; an application's own timeout asks for
/// its instant with
/// [`simnet::HostHandle::wake_at`].
pub fn drive(
    net: &SimNet,
    stations: &mut [&mut Box<dyn Station>],
    done: impl FnMut(&mut [&mut Box<dyn Station>]) -> bool,
    tick: VirtualDuration,
    deadline: VirtualTime,
) -> VirtualTime {
    let episodes = |stations: &mut [&mut Box<dyn Station>], now| {
        let mut progress = false;
        for s in stations.iter_mut() {
            let host = s.host();
            host.begin(now);
            progress |= s.step(now);
            host.end();
        }
        progress
    };
    let alarm = |stations: &[&mut Box<dyn Station>]| stations.iter().filter_map(|s| s.host().alarm()).min();
    simnet::drive(&[net], stations, episodes, done, alarm, tick, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::stack::StackKind;
    use foxbasis::obs::{EventSink, RfcState};
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

        let listener = b.listener().expect("listening");
        let state = RfcState::of_name(b.conn_state(listener));
        assert_eq!(state, Some(RfcState::Listen), "{}: the listener's handle", b.kind());
        if kind == StackKind::XKernel {
            return; // the baseline has no abort API
        }
        a.abort(conn);
        drive(
            &net,
            &mut [&mut a, &mut b],
            |st| st[0].finished(conn) && st[1].finished(sc),
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(10_000),
        );
        assert!(a.finished(conn) && b.finished(sc), "{}: ABORT resets both ends", a.kind());
    }

    #[test]
    fn all_three_stacks_establish_and_exchange() {
        handshake_and_exchange(StackKind::FoxStandard);
        handshake_and_exchange(StackKind::FoxSpecial);
        handshake_and_exchange(StackKind::XKernel);
    }
}
