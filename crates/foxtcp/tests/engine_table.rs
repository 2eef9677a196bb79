//! The engine's connection table seen from outside: it is the only
//! table (id → position is derived, never mirrored), `step` drains
//! fired connections in id order, and the ephemeral-port search stops
//! after one lap. Each test drives whole engines over the in-memory
//! test link.

use fox_scheduler::SchedHandle;
use foxbasis::obs::{Event, EventSink};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::{Handler, ProtoError, Protocol};
use foxtcp::tcb::TcpState;
use foxtcp::testlink::{LinkPair, TestAux, TestLower};
use foxtcp::{Tcp, TcpConfig, TcpConnId, TcpEvent, TcpPattern};
use simnet::HostHandle;
use std::cell::RefCell;
use std::rc::Rc;

type Engine = Tcp<TestLower, TestAux>;
type Log = Rc<RefCell<Vec<(u32, TcpEvent)>>>;

fn engine(link: &LinkPair, side: u8, cfg: TcpConfig) -> Engine {
    Tcp::new(link.endpoint(side), TestAux, (), cfg, SchedHandle::new(), HostHandle::free())
}

/// A handler recording every event under `tag`.
fn tagged(log: &Log, tag: u32) -> Handler<TcpEvent> {
    let log = log.clone();
    Box::new(move |e| log.borrow_mut().push((tag, e)))
}

fn settle(a: &mut Engine, b: &mut Engine, now: VirtualTime) {
    for _ in 0..500 {
        let pa = a.step(now);
        let pb = b.step(now);
        if !pa && !pb {
            return;
        }
    }
    panic!("did not settle");
}

fn data_of(log: &Log, tag: u32) -> Vec<u8> {
    log.borrow()
        .iter()
        .filter_map(|(t, e)| match e {
            TcpEvent::Data(d) if *t == tag => Some(d.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Three established connections a → b. Returns a's ids and b's child
/// ids, pairwise; every handler logs under the connection's own id.
fn three_pairs(a: &mut Engine, b: &mut Engine, a_log: &Log, b_log: &Log) -> [(TcpConnId, TcpConnId); 3] {
    const LISTENER: u32 = u32::MAX;
    b.open(TcpPattern::Passive { local_port: 80 }, tagged(b_log, LISTENER)).unwrap();
    let mut pairs = Vec::new();
    for i in 0..3u32 {
        // a's ids are handed out in creation order, starting at 0.
        let client = a
            .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, tagged(a_log, i))
            .unwrap();
        assert_eq!(client, TcpConnId(i));
        settle(a, b, VirtualTime::ZERO);
        let child = b_log
            .borrow()
            .iter()
            .rev()
            .find_map(|(t, e)| match e {
                TcpEvent::NewConnection(c) if *t == LISTENER => Some(*c),
                _ => None,
            })
            .expect("listener saw the child");
        b.set_handler(child, tagged(b_log, child.0)).unwrap();
        assert_eq!(a.state_of(client), Some(TcpState::Estab));
        assert_eq!(b.state_of(child), Some(TcpState::Estab));
        pairs.push((client, child));
    }
    pairs.try_into().expect("three pairs")
}

/// `alloc_ephemeral` used to loop until it found a free port: with all
/// of 49152–65535 bound, an active open with `local_port: 0` never
/// returned.
#[test]
fn ephemeral_port_exhaustion_errors_instead_of_hanging() {
    const EPHEMERAL_PORTS: usize = 65_536 - 49_152;
    let link = LinkPair::new();
    link.set_filter_toward(1, Box::new(|_| false)); // nobody answers
    let cfg = TcpConfig { send_buffer: 64, initial_window: 64, ..TcpConfig::default() };
    let mut a = engine(&link, 0, cfg);
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
    let link = LinkPair::new();
    let mut a = engine(&link, 0, cfg.clone());
    let mut b = engine(&link, 1, cfg);
    let (a_log, b_log) = (Log::default(), Log::default());
    let pairs = three_pairs(&mut a, &mut b, &a_log, &b_log);

    // The peer goes silent; each send arms that connection's Resend
    // timer, all at one virtual instant, highest id first.
    link.set_filter_toward(1, Box::new(|_| false));
    let sink = EventSink::recording(1024);
    a.set_obs(sink.clone());
    for (client, _) in pairs.iter().rev() {
        assert_eq!(a.send_data(*client, b"unanswered").unwrap(), 10);
    }
    let armed: Vec<u32> = sink
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::TimerSet { timer: "Resend", .. }))
        .map(|e| e.conn)
        .collect();
    assert_eq!(armed, [2, 1, 0], "armed in reverse id order");

    // One step past the (identical) RTOs fires all three.
    a.step(VirtualTime::ZERO + VirtualDuration::from_secs(5));
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
    let link = LinkPair::new();
    let mut a = engine(&link, 0, cfg.clone());
    let mut b = engine(&link, 1, cfg);
    let (a_log, b_log) = (Log::default(), Log::default());
    let [(first, _), (second, second_child), (third, third_child)] =
        three_pairs(&mut a, &mut b, &a_log, &b_log);

    // b closes first, so a's side goes CLOSE-WAIT → LAST-ACK → CLOSED
    // with no TIME-WAIT, and a's table loses its middle entry at once;
    // b's child lingers through TIME-WAIT and is reaped after 2MSL.
    b.close(second_child).unwrap();
    settle(&mut a, &mut b, VirtualTime::ZERO);
    a.close(second).unwrap();
    settle(&mut a, &mut b, VirtualTime::ZERO);
    assert_eq!(a.state_of(second), None, "a reaped its middle connection");
    let later = VirtualTime::ZERO + VirtualDuration::from_secs(61);
    settle(&mut a, &mut b, later);
    assert_eq!(b.state_of(second_child), None, "b reaped its middle connection");

    // Every way in still reaches the third connection, and only it.
    assert_eq!(a.state_of(first), Some(TcpState::Estab));
    assert_eq!(a.state_of(third), Some(TcpState::Estab));
    assert_eq!(a.send_data(third, b"to the third").unwrap(), 12);
    assert_eq!(a.metrics_of(third).expect("third's metrics").bytes_in_flight, 12);
    assert_eq!(a.metrics_of(first).expect("first's metrics").bytes_in_flight, 0);
    assert_eq!(a.send_data(second, b"x"), Err(ProtoError::NotOpen));
    assert!(a.metrics_of(second).is_none());
    settle(&mut a, &mut b, later);
    assert_eq!(data_of(&b_log, third_child.0), b"to the third");
    assert_eq!(a.metrics_of(third).expect("third's metrics").bytes_in_flight, 0, "and the ACK came back");

    // An inbound segment for the third is demultiplexed to the third.
    b.send_data(third_child, b"from the third").unwrap();
    settle(&mut a, &mut b, later);
    assert_eq!(data_of(&a_log, third.0), b"from the third");
    assert!(data_of(&a_log, first.0).is_empty());
}
