//! The engine end to end: two whole engines over the in-memory test
//! link (`foxtcp::testlink::Pair`), through handshake, transfer, loss,
//! flow control, close and abort. No IP, no Ethernet, no simulator —
//! every failure here is a TCP bug.

use foxbasis::obs::{flags, Event, EventSink, StateName, TimerKind};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::{ProtoError, Protocol};
use foxtcp::testlink::{immediate, no_nagle, Pair};
use foxtcp::{TcpConfig, TcpConnId, TcpEvent, TcpPattern, TcpState, TcpStats};
use foxwire::tcp::TcpSegment;
use simnet::{Account, CostModel, Host as SimHost, HostHandle, Medium};
use std::cell::RefCell;
use std::rc::Rc;

/// `a` feeds `payload` into `client` as flow control admits it, running
/// the pair `ms` (in `tick_ms` steps) between writes; 3000 writes is the
/// tightest bound any caller ever put on "wedged".
fn pump(p: &mut Pair, client: TcpConnId, payload: &[u8], ms: u64, tick_ms: u64) {
    let mut sent = 0;
    let mut spins = 0;
    while sent < payload.len() {
        sent += p.a.send_data(client, &payload[sent..]).unwrap();
        p.run_for(ms, tick_ms);
        spins += 1;
        assert!(spins < 3000, "transfer wedged at {sent} bytes");
    }
}

#[test]
fn three_way_handshake_establishes_both_sides() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (client, child) = p.open(80);
    assert_eq!(p.a.state_of(client), Some(TcpState::Estab));
    assert_eq!(p.b.state_of(child), Some(TcpState::Estab));
    assert!(p.events_of(0, client).contains(&TcpEvent::Established));
    assert!(p.events_of(1, child).contains(&TcpEvent::Established));
}

#[test]
fn data_flows_client_to_server() {
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let (client, child) = p.open(80);
    p.a.send(client, (), b"hello from the fox".to_vec()).unwrap();
    p.settle();
    assert_eq!(p.data_of(1, child), b"hello from the fox");
}

#[test]
fn data_flows_both_directions() {
    let mut p = Pair::new(no_nagle(), no_nagle());
    let (client, child) = p.open(80);
    p.a.send(client, (), b"ping".to_vec()).unwrap();
    p.settle();
    p.b.send(child, (), b"pong".to_vec()).unwrap();
    p.settle();
    assert_eq!(p.data_of(1, child), b"ping");
    assert_eq!(p.data_of(0, client), b"pong");
}

#[test]
fn bulk_transfer_with_flow_control() {
    // 100 KB through a 4096-byte window: many round trips, windows
    // opening and closing, delayed ACKs, the works.
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let (client, child) = p.open(80);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    pump(&mut p, client, &payload, 50, 10);
    p.run_for(2000, 50);
    let got = p.data_of(1, child);
    assert_eq!(got.len(), payload.len());
    assert_eq!(got, payload);
}

/// Satellite regression: segments the fast path fully handles must
/// charge exactly the accounts (and update exactly the stats) the
/// full SEGMENT-ARRIVES DAG would.
#[test]
fn fast_and_slow_path_charge_the_same_accounts() {
    fn run(fast_path: bool) -> (Vec<(u64, u64)>, TcpStats, TcpStats) {
        let cfg = TcpConfig { fast_path, ..no_nagle() };
        let ha = HostHandle::new(SimHost::new("a", CostModel::decstation_sml(), true));
        let hb = HostHandle::new(SimHost::new("b", CostModel::decstation_sml(), true));
        let mut p = Pair::with_hosts(cfg.clone(), cfg, [ha.clone(), hb.clone()], VirtualTime::ZERO);
        let (client, child) = p.open(80);
        // Bidirectional bulk: exercises both fast-path cases (pure
        // ACK of new data, pure in-order data) on both hosts.
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let (mut sa, mut sb) = (0, 0);
        while sa < payload.len() || sb < payload.len() {
            if sa < payload.len() {
                sa += p.a.send_data(client, &payload[sa..]).unwrap();
            }
            if sb < payload.len() {
                sb += p.b.send_data(child, &payload[sb..]).unwrap();
            }
            p.run_for(50, 10);
        }
        p.run_for(1000, 50);
        assert_eq!(p.data_of(1, child).len(), payload.len());
        assert_eq!(p.data_of(0, client).len(), payload.len());
        let accounts = Account::ALL
            .iter()
            .map(|&acc| (ha.with(|h| h.booked(acc)).as_micros(), hb.with(|h| h.booked(acc)).as_micros()))
            .collect();
        (accounts, p.a.stats(), p.b.stats())
    }

    let (acc_fast, a_fast, b_fast) = run(true);
    let (acc_slow, a_slow, b_slow) = run(false);
    assert!(a_fast.fastpath_hits > 0, "fast run must actually take the fast path");
    assert_eq!(a_slow.fastpath_hits, 0);
    assert_eq!(acc_fast, acc_slow, "fast and slow path must charge the same accounts");
    // Same stats, except the hit/miss split that defines the paths.
    let neutral = |mut s: TcpStats| {
        s.fastpath_hits = 0;
        s.fastpath_misses = 0;
        s
    };
    assert_eq!(neutral(a_fast), neutral(a_slow));
    assert_eq!(neutral(b_fast), neutral(b_slow));
}

/// The obs layer sees the whole life of a connection: transitions,
/// actions, timers, segments, the adoption — and metrics summarize it.
#[test]
fn obs_records_typed_events_and_metrics() {
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let sink = EventSink::recording(4096);
    p.a.set_obs(sink.for_host(0));
    p.b.set_obs(sink.for_host(1));
    let (client, child) = p.open(80);
    p.a.send(client, (), b"observable".to_vec()).unwrap();
    p.settle();
    let m = p.b.metrics_of(child).expect("child metrics");
    assert!(m.segments_received > 0);
    assert_eq!(m.bytes_delivered, 10);
    p.a.close(client).unwrap();
    p.b.close(child).unwrap();
    p.run_for(120_000, 5_000);

    let evs = sink.events();
    let has = |f: &dyn Fn(&Event) -> bool| evs.iter().any(|e| f(&e.event));
    assert!(has(&|e| matches!(e, Event::StateTransition { to: StateName::Estab, .. })));
    assert!(has(&|e| matches!(e, Event::StateTransition { to: StateName::TimeWait, .. })));
    assert!(has(&|e| matches!(e, Event::SegTx { flags: f, .. } if *f == flags::SYN)));
    assert!(has(&|e| matches!(e, Event::SegRx { flags: f, .. } if *f == flags::SYN | flags::ACK)));
    assert!(has(&|e| matches!(e, Event::Action { tag: "Process_Data" })));
    assert!(has(&|e| matches!(e, Event::TimerSet { timer: TimerKind::Resend, .. })));
    assert!(has(&|e| matches!(e, Event::TimerFire { timer: TimerKind::TimeWait })));
    // The one adoption, with the `Established` the child parked for it.
    let adoptions: Vec<_> = evs.iter().filter(|e| matches!(e.event, Event::Adopt { .. })).collect();
    assert!(matches!(adoptions[..], [e] if e.conn == child.0 && e.event == Event::Adopt { parked: 1 }));
    assert!(evs.iter().any(|e| e.host == 0) && evs.iter().any(|e| e.host == 1));
    assert_eq!(sink.dropped(), 0);
}

#[test]
fn graceful_close_sequence() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (client, child) = p.open(80);

    p.a.close(client).unwrap();
    p.settle();
    // Peer saw our FIN.
    assert!(p.events_of(1, child).contains(&TcpEvent::PeerClosed));
    assert_eq!(p.b.state_of(child), Some(TcpState::CloseWait));
    assert_eq!(p.a.state_of(client), Some(TcpState::FinWait2));

    p.b.close(child).unwrap();
    p.settle();
    assert!(p.events_of(0, client).contains(&TcpEvent::PeerClosed));
    // b's side is fully closed (reaped after Closed event).
    assert!(p.events_of(1, child).contains(&TcpEvent::Closed));
    // a lingers in TIME-WAIT.
    assert_eq!(p.a.state_of(client), Some(TcpState::TimeWait));
    // ... and completes after 2MSL.
    p.run_for(61_000, 1000);
    assert!(p.events_of(0, client).contains(&TcpEvent::Closed));
    assert_eq!(p.a.state_of(client), None, "reaped after close");
}

#[test]
fn connect_to_closed_port_is_reset() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let client = p
        .a
        .open(TcpPattern::Active { remote: 1, remote_port: 4444, local_port: 0 }, p.recorder(0, TcpConnId(7)))
        .unwrap();
    p.settle();
    assert!(p.events_of(0, TcpConnId(7)).contains(&TcpEvent::Reset));
    assert_eq!(p.a.state_of(client), None, "connection reaped after reset");
    assert_eq!(p.b.stats().rsts_sent, 1);
}

#[test]
fn syn_advertises_rfc_879_mss_for_the_link() {
    // Regression for the MSS derivation: the test link reports the
    // conventional 1500-byte Ethernet MTU, and the SYN on the wire
    // must carry 1460 — both 20-byte headers subtracted, through
    // the one shared `mss_for_mtu` helper.
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let seen = Rc::new(RefCell::new(Vec::new()));
    let tap = seen.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_, bytes| {
            if let Ok(seg) = TcpSegment::decode_buf(bytes, None) {
                if seg.header.flags.syn {
                    tap.borrow_mut().push(seg.header.mss());
                }
            }
            true
        }),
    );
    let (client, _child) = p.open(80);
    assert_eq!(seen.borrow().as_slice(), &[Some(1460)], "one SYN, MSS 1460 for MTU 1500");
    assert!(p.a.state_of(client).is_some());
}

#[test]
fn transfer_survives_packet_loss() {
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let (client, child) = p.open(80);
    // Drop every 5th frame toward the server.
    p.link.set_filter_toward(1, Box::new(|i, _| !(i + 1).is_multiple_of(5)));
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
    pump(&mut p, client, &payload, 200, 50);
    p.run_for(30_000, 250);
    let got = p.data_of(1, child);
    assert_eq!(got.len(), payload.len(), "all bytes despite loss");
    assert_eq!(got, payload);
    assert!(p.a.stats().retransmits > 0, "loss must cause retransmissions");
    assert!(p.link.dropped() > 0);
}

#[test]
fn syn_retransmits_then_gives_up() {
    let mut p = Pair::new(
        TcpConfig { syn_retries: 2, user_timeout_ms: 600_000, ..TcpConfig::default() },
        TcpConfig::default(),
    );
    // Black-hole everything toward b.
    p.link.set_filter_toward(1, Box::new(|_, _| false));
    let client = p
        .a
        .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, p.recorder(0, TcpConnId(7)))
        .unwrap();
    p.run_for(120_000, 500);
    let events = p.events_of(0, TcpConnId(7));
    assert!(events.contains(&TcpEvent::TimedOut), "{events:?}");
    assert_eq!(p.a.state_of(client), None);
    assert!(p.link.dropped() >= 3, "initial SYN plus at least 2 retries");
}

/// The retry budget is the configured one from the first SYN on, so the
/// handshake gives up at whichever of `max_retransmits` and
/// `syn_retries` runs out first.
#[test]
fn max_retransmits_bounds_the_handshake_too() {
    for (max_retransmits, syn_retries, syns) in [(2, 5, 3), (20, 15, 16)] {
        let cfg =
            TcpConfig { max_retransmits, syn_retries, user_timeout_ms: 36_000_000, ..TcpConfig::default() };
        let mut p = Pair::new(cfg, TcpConfig::default());
        p.link.set_filter_toward(1, Box::new(|_, _| false));
        let active = TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 };
        p.a.open(active, p.recorder(0, TcpConnId(7))).unwrap();
        p.run_for(1_000_000, 1_000);
        assert!(p.events_of(0, TcpConnId(7)).contains(&TcpEvent::TimedOut));
        assert_eq!(p.link.dropped(), syns, "SYNs sent under {max_retransmits}/{syn_retries}");
    }
}

#[test]
fn zero_window_then_reopen_via_probe() {
    // Server app stops consuming (we emulate by a tiny window),
    // then the client's persist probe keeps the connection alive.
    // Server with a 512-byte window.
    let mut p = Pair::new(no_nagle(), TcpConfig { initial_window: 512, ..TcpConfig::default() });
    let (client, child) = p.open(80);
    let payload = vec![0x5a_u8; 4000];
    pump(&mut p, client, &payload, 400, 100);
    p.run_for(20_000, 250);
    assert_eq!(p.data_of(1, child).len(), payload.len());
}

/// A write into a closed window asks for the persist timer, but only the
/// first ask arms it: a writer that writes more often than the probe
/// interval still probes at the first arm's deadline.
#[test]
fn writes_into_a_zero_window_do_not_postpone_the_probe() {
    // `b`'s listener never adopts its child, which parks what arrives
    // against its 512-byte window: once 512 bytes are in, it is shut.
    let mut p = Pair::new(immediate(), TcpConfig { initial_window: 512, ..immediate() });
    let client = p.connect(80);
    p.settle();
    let client = client.try_established(&p.a).expect("the handshake completed").id();
    let sink = EventSink::recording(4096);
    p.a.set_obs(sink.clone());
    assert_eq!(p.a.send_data(client, &[1; 1024]).unwrap(), 1024);
    p.settle();
    let armed = sink.events().into_iter().find_map(|e| match e.event {
        Event::TimerSet { timer: TimerKind::Persist, after_ms } => {
            Some(e.at + VirtualDuration::from_millis(after_ms))
        }
        _ => None,
    });
    let due = armed.expect("the closed window armed Persist");
    // One byte every 10 ms, each taken into the send buffer behind the
    // closed window, until the first deadline.
    while p.now() + VirtualDuration::from_millis(10) < due {
        p.link.advance_to(p.now() + VirtualDuration::from_millis(10));
        assert_eq!(p.a.send_data(client, &[2]).unwrap(), 1, "the send buffer has room");
        p.settle();
    }
    assert_eq!(p.a.stats().probe_fires, 0, "no probe before the deadline");
    p.link.advance_to(due);
    p.settle();
    assert_eq!(p.a.stats().probe_fires, 1, "the probe goes at the first arm's deadline");
}

#[test]
fn listener_backlog_bounds_embryonic_connections() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig { backlog: 1, ..TcpConfig::default() });
    let _listener = p.b.open(TcpPattern::Passive { local_port: 80 }, p.recorder(1, TcpConnId(999))).unwrap();
    // Stop SYN+ACKs from reaching client so children stay embryonic.
    p.link.set_filter_toward(0, Box::new(|_, _| false));
    for i in 0..3 {
        let _ = p.a.open(
            TcpPattern::Active { remote: 1, remote_port: 80, local_port: 10_000 + i },
            Box::new(|_| {}),
        );
    }
    p.settle();
    let embryonic =
        (0..200u32).filter_map(|i| p.b.state_of(TcpConnId(i))).filter(|s| s.is_syn_received()).count();
    assert_eq!(embryonic, 1, "backlog 1 admits a single embryonic child");
}

#[test]
fn abort_sends_rst_peer_sees_reset() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (client, child) = p.open(80);
    p.a.abort(client).unwrap();
    p.settle();
    assert!(p.events_of(1, child).contains(&TcpEvent::Reset));
    assert!(p.events_of(0, client).contains(&TcpEvent::Closed));
}

#[test]
fn send_on_unknown_connection_errors() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    assert_eq!(p.a.send(TcpConnId(42), (), b"x".to_vec()), Err(ProtoError::NotOpen));
    assert_eq!(p.a.close(TcpConnId(42)), Err(ProtoError::NotOpen));
}

#[test]
fn send_pushback_when_buffer_full() {
    let mut p = Pair::new(
        TcpConfig { send_buffer: 1000, ..no_nagle() },
        TcpConfig { initial_window: 256, ..TcpConfig::default() },
    );
    let (client, _child) = p.open(80);
    // Fill beyond window + buffer.
    let r = p.a.send(client, (), vec![0; 5000]);
    assert_eq!(r, Err(ProtoError::WouldBlock));
    let n = p.a.send_data(client, &vec![0; 5000]).unwrap();
    assert!(n > 0 && n <= 1000);
}

#[test]
fn duplicate_active_open_rejected() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let pattern = TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 };
    p.a.open(pattern.clone(), Box::new(|_| {})).unwrap();
    let again = p.a.open(pattern, Box::new(|_| {}));
    assert_eq!(again.unwrap_err(), ProtoError::AlreadyOpen);
}

#[test]
fn duplicate_listen_rejected() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    p.b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
    assert_eq!(
        p.b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap_err(),
        ProtoError::AlreadyOpen
    );
}

#[test]
fn server_close_first_client_second() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (client, child) = p.open(80);
    p.b.close(child).unwrap();
    p.settle();
    assert_eq!(p.a.state_of(client), Some(TcpState::CloseWait));
    p.a.close(client).unwrap();
    p.settle();
    assert!(p.events_of(0, client).contains(&TcpEvent::Closed));
    // Server side lingers in TIME-WAIT, then finishes.
    assert_eq!(p.b.state_of(child), Some(TcpState::TimeWait));
    p.run_for(61_000, 1000);
    assert!(p.events_of(1, child).contains(&TcpEvent::Closed));
    assert_eq!(p.b.state_of(child), None);
}

#[test]
fn data_before_close_is_delivered_with_fin() {
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let (client, child) = p.open(80);
    p.a.send(client, (), b"last words".to_vec()).unwrap();
    p.a.close(client).unwrap();
    p.settle();
    let evs = p.events_of(1, child);
    assert_eq!(p.data_of(1, child), b"last words");
    let data_pos = evs.iter().position(|e| matches!(e, TcpEvent::Data(_))).unwrap();
    let fin_pos = evs.iter().position(|e| *e == TcpEvent::PeerClosed).unwrap();
    assert!(data_pos < fin_pos, "data precedes the close notice: {evs:?}");
}

#[test]
fn determinism_same_run_same_stats() {
    let run = || {
        let mut p = Pair::new(no_nagle(), TcpConfig::default());
        let (client, _child) = p.open(80);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 7) as u8).collect();
        pump(&mut p, client, &payload, 50, 10);
        p.run_for(1000, 50);
        (p.a.stats(), p.b.stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn fast_path_dominates_bulk_transfer() {
    let mut p = Pair::new(no_nagle(), TcpConfig::default());
    let (client, _child) = p.open(80);
    pump(&mut p, client, &vec![3u8; 50_000], 50, 10);
    p.run_for(1000, 50);
    let b_stats = p.b.stats();
    assert!(
        b_stats.fastpath_hits > b_stats.fastpath_misses,
        "receiver fast path should dominate: {b_stats:?}"
    );
}
