//! The engine's connection table seen from outside: it is the only
//! table (id → slot is derived, never mirrored), `step` drains fired
//! connections in id order, the ephemeral-port search stops after one
//! lap, the accept queue is bounded in connections and in bytes, and a
//! connection that has said all it will holds no send buffer. Each test
//! drives whole engines over the in-memory test link; the tests that
//! need to see slot numbers are beside the table, in `engine.rs`.

use foxbasis::obs::{Event, EventSink};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::{ProtoError, Protocol};
use foxtcp::testlink::{immediate, no_nagle, Engine, Pair};
use foxtcp::TcpState;
use foxtcp::{TcpConfig, TcpConnId, TcpEvent, TcpPattern};

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
    let cfg = no_nagle();
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

/// Reaping a connection out of the middle of the table takes its entry
/// out of the id → slot index; every id-keyed operation must still reach
/// the ones on either side.
#[test]
fn reaping_the_middle_connection_leaves_the_rest_reachable() {
    let cfg = immediate();
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

/// The children `b`'s first listener (its connection 0) has announced,
/// oldest first.
fn announced(p: &Pair) -> Vec<TcpConnId> {
    p.events_of(1, TcpConnId(0))
        .into_iter()
        .filter_map(|e| match e {
            TcpEvent::NewConnection(child) => Some(child),
            _ => None,
        })
        .collect()
}

/// A child nobody has adopted has no user to take its data, so what it
/// accepts stays charged to its receive window: a peer that completes a
/// handshake nobody `accept`s can park one window of bytes in the
/// engine, not as many as it cares to send. (The engine used to release
/// the window as it parked each delivery, and held all 400 000.)
#[test]
fn an_unadopted_child_parks_one_window_and_no_more() {
    let client_cfg = TcpConfig { send_buffer: 65_536, ..immediate() };
    let server_cfg = TcpConfig { initial_window: 4096, ..immediate() };
    let mut p = Pair::new(client_cfg, server_cfg);
    let client = p.connect(80);
    p.settle();
    let client = client.try_established(&p.a).expect("the client established").id();

    let payload: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    for _ in 0..400 {
        sent += p.a.send_data(client, &payload[sent..(sent + 1000).min(payload.len())]).unwrap();
        p.settle();
    }
    assert_eq!(sent, 4096 + 65_536, "one window left the client; its send buffer filled behind that");

    // Adoption flushes what was parked — one window — reopens the
    // window and says so; the rest follows.
    let child = p.accept().expect("the listener announced the child").id();
    assert_eq!(p.data_of(1, child).len(), 4096, "parked behind a 4096-byte window");
    for _ in 0..1000 {
        p.settle();
        if sent == payload.len() {
            break;
        }
        sent += p.a.send_data(client, &payload[sent..]).unwrap();
    }
    assert_eq!(p.data_of(1, child), payload, "every byte sent before and after adoption");
}

/// `reap` looks only at connections something listed, and a listed
/// connection that is not reapable yet is left for whatever finishes the
/// job to list again: here a child that was reset before anyone adopted
/// it, whose `Established` and `Reset` wait for a user.
#[test]
fn a_closed_child_is_reaped_on_the_step_after_its_adoption() {
    let mut p = Pair::new(immediate(), immediate());
    let client = p.connect(80);
    p.settle();
    let child = announced(&p)[0];
    p.a.abort(client.id()).unwrap();
    p.settle();
    assert_eq!(
        p.b.state_of(child),
        Some(TcpState::Closed),
        "closed, listed, and kept: its events are parked"
    );
    p.settle();
    assert_eq!(p.b.state_of(child), Some(TcpState::Closed), "and not looked at again meanwhile");

    let adopted = p.accept().expect("a dead child can still be adopted").id();
    assert_eq!(adopted, child);
    assert_eq!(p.events_of(1, child), [TcpEvent::Established, TcpEvent::Reset]);
    p.settle();
    assert_eq!(p.b.state_of(child), None, "reaped by the step that followed");
}

/// The listener's count of unadopted children goes down once per child,
/// at the first of adoption or `Closed` — through a child that dies
/// unadopted and one adopted only after it died, a SYN is admitted
/// exactly when the scan the count replaced would have admitted it.
/// (Debug builds also compare count and scan after every `step`.)
#[test]
fn the_accept_queue_counts_each_child_once() {
    let server_cfg = TcpConfig { backlog: 1, ..immediate() };
    let mut p = Pair::new(immediate(), server_cfg);
    let refused = |p: &Pair| p.b.stats().syns_dropped;

    // One child fills the queue; a second SYN is dropped unanswered.
    let first = p.connect(80);
    p.settle();
    let second = p.connect(80);
    p.settle();
    assert_eq!((announced(&p).len(), refused(&p)), (1, 1));

    // The first child dies unadopted: its place is free at `Closed`,
    // not at adoption, and the second client's retried SYN takes it.
    p.a.abort(first.id()).unwrap();
    p.settle();
    p.run_for(1_500, 100);
    assert_eq!((announced(&p).len(), refused(&p)), (2, 1));
    assert!(second.try_established(&p.a).is_ok(), "admitted on its first retry");

    // Adopting the dead child gives back nothing a second time: with
    // one live child still unadopted the queue is full.
    let dead = p.accept().expect("the dead child").id();
    assert_eq!(p.events_of(1, dead), [TcpEvent::Established, TcpEvent::Reset]);
    let third = p.connect(80);
    p.settle();
    assert_eq!((announced(&p).len(), refused(&p)), (2, 2));

    // Adopting the live one does.
    let live = p.accept().expect("the live child").id();
    assert_eq!(p.b.state_of(live), Some(TcpState::Estab));
    p.run_for(1_500, 100);
    assert_eq!((announced(&p).len(), refused(&p)), (3, 2));
    assert!(third.try_established(&p.a).is_ok());
}

/// The send ring holds storage for what the connection has had queued
/// at once, and gives it back when our FIN is acknowledged: FIN-WAIT-2
/// and TIME-WAIT hold no buffer however much the connection sent.
#[test]
fn a_senders_ring_is_released_once_its_fin_is_acknowledged() {
    let cfg = TcpConfig { send_buffer: 65_536, initial_window: 65_535, ..immediate() };
    let mut p = Pair::new(cfg.clone(), cfg);
    let (client, child) = p.open(80);
    let ring = |p: &Pair| p.a.core_of(client).expect("still in the table").tcb.send_buf.storage();
    assert_eq!(ring(&p), 0, "nothing written, nothing allocated");

    let payload = vec![0x5a; 40_000];
    assert_eq!(p.a.send_data(client, &payload), Ok(40_000));
    assert_eq!(ring(&p), 65_536, "40 000 bytes queued at once");
    p.run_for(100, 1);
    assert_eq!(p.data_of(1, child), payload);
    assert_eq!(ring(&p), 65_536, "kept while the connection may send again");

    p.a.close(client).unwrap();
    p.settle();
    assert_eq!(p.a.state_of(client), Some(TcpState::FinWait2));
    assert_eq!(ring(&p), 0, "our FIN is acknowledged: nothing more will be sent or resent");
    p.b.close(child).unwrap();
    p.settle();
    assert_eq!(p.a.state_of(client), Some(TcpState::TimeWait));
    assert_eq!(ring(&p), 0);
}
