//! The engine's connection table seen from outside: it is the only
//! table (id → position is derived, never mirrored), `step` drains
//! fired connections in id order, and the ephemeral-port search stops
//! after one lap. Each test drives whole engines over the in-memory
//! test link.

use foxbasis::obs::{Event, EventSink};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::{ProtoError, Protocol};
use foxtcp::tcb::TcpState;
use foxtcp::testlink::{Engine, Pair};
use foxtcp::{TcpConfig, TcpConnId, TcpPattern};

/// Three established connections a → b, all to one listener. Returns
/// a's ids and b's child ids, pairwise.
fn three_pairs(p: &mut Pair) -> [(TcpConnId, TcpConnId); 3] {
    let pairs = [p.open(80), p.open(80), p.open(80)];
    // a's ids are handed out in creation order, starting at 0.
    assert_eq!(pairs.map(|(client, _)| client), [TcpConnId(0), TcpConnId(1), TcpConnId(2)]);
    pairs
}

/// `alloc_ephemeral` used to loop until it found a free port: with all
/// of 49152–65535 bound, an active open with `local_port: 0` never
/// returned.
#[test]
fn ephemeral_port_exhaustion_errors_instead_of_hanging() {
    const EPHEMERAL_PORTS: usize = 65_536 - 49_152;
    let cfg = TcpConfig { send_buffer: 64, initial_window: 64, ..TcpConfig::default() };
    let Pair { link, mut a, .. } = Pair::new(cfg, TcpConfig::default());
    link.set_filter_toward(1, Box::new(|_| false)); // nobody answers
    let open = |a: &mut Engine| {
        a.open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, Box::new(|_| {}))
    };
    let conns: Vec<TcpConnId> = (0..EPHEMERAL_PORTS).map(|_| open(&mut a).expect("a free port")).collect();
    assert_eq!(open(&mut a), Err(ProtoError::AlreadyOpen), "every ephemeral port is bound");

    // Free one port somewhere in the middle of the range: the close is
    // complete once `step` has reaped the connection.
    let victim = conns[EPHEMERAL_PORTS / 2];
    a.close(victim).unwrap();
    a.step(VirtualTime::ZERO);
    assert_eq!(a.state_of(victim), None, "reaped");
    open(&mut a).expect("the freed port is found again");
    assert_eq!(open(&mut a), Err(ProtoError::AlreadyOpen), "and it was the only one");
}

/// `step` drains the connections whose timers fired in *id* order,
/// whatever order the wheel fired them in. The wheel fires equal
/// deadlines in arm order, so arming in reverse id order makes fire
/// order and id order disagree.
#[test]
fn fired_connections_drain_in_id_order() {
    let cfg = TcpConfig { nagle: false, ..TcpConfig::default() };
    let mut p = Pair::new(cfg.clone(), cfg);
    let pairs = three_pairs(&mut p);

    // The peer goes silent; each send arms that connection's Resend
    // timer, all at one virtual instant, highest id first.
    p.link.set_filter_toward(1, Box::new(|_| false));
    let sink = EventSink::recording(1024);
    p.a.set_obs(sink.clone());
    for (client, _) in pairs.iter().rev() {
        assert_eq!(p.a.send_data(*client, b"unanswered").unwrap(), 10);
    }
    let armed: Vec<u32> = sink
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::TimerSet { timer: "Resend", .. }))
        .map(|e| e.conn)
        .collect();
    assert_eq!(armed, [2, 1, 0], "armed in reverse id order");

    // One step past the (identical) RTOs fires all three.
    p.a.step(VirtualTime::ZERO + VirtualDuration::from_secs(5));
    let fired: Vec<u32> = sink
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::TimerFire { timer: "Resend" }))
        .map(|e| e.conn)
        .collect();
    assert_eq!(fired, [0, 1, 2], "drained in id order, not fire order");
}

/// Reaping a connection out of the middle of the table shifts the ones
/// behind it; every id-keyed operation must still reach them.
#[test]
fn reaping_the_middle_connection_leaves_the_rest_reachable() {
    let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
    let mut p = Pair::new(cfg.clone(), cfg);
    let [(first, _), (second, second_child), (third, third_child)] = three_pairs(&mut p);

    // b closes first, so a's side goes CLOSE-WAIT → LAST-ACK → CLOSED
    // with no TIME-WAIT, and a's table loses its middle entry at once;
    // b's child lingers through TIME-WAIT and is reaped after 2MSL.
    p.b.close(second_child).unwrap();
    p.settle();
    p.a.close(second).unwrap();
    p.settle();
    assert_eq!(p.a.state_of(second), None, "a reaped its middle connection");
    p.now = VirtualTime::ZERO + VirtualDuration::from_secs(61);
    p.settle();
    assert_eq!(p.b.state_of(second_child), None, "b reaped its middle connection");

    // Every way in still reaches the third connection, and only it.
    assert_eq!(p.a.state_of(first), Some(TcpState::Estab));
    assert_eq!(p.a.state_of(third), Some(TcpState::Estab));
    assert_eq!(p.a.send_data(third, b"to the third").unwrap(), 12);
    assert_eq!(p.a.metrics_of(third).expect("third's metrics").bytes_in_flight, 12);
    assert_eq!(p.a.metrics_of(first).expect("first's metrics").bytes_in_flight, 0);
    assert_eq!(p.a.send_data(second, b"x"), Err(ProtoError::NotOpen));
    assert!(p.a.metrics_of(second).is_none());
    p.settle();
    assert_eq!(p.data_of(1, third_child), b"to the third");
    assert_eq!(p.a.metrics_of(third).expect("third's metrics").bytes_in_flight, 0, "and the ACK came back");

    // An inbound segment for the third is demultiplexed to the third.
    p.b.send_data(third_child, b"from the third").unwrap();
    p.settle();
    assert_eq!(p.data_of(0, third), b"from the third");
    assert!(p.data_of(0, first).is_empty());
}
