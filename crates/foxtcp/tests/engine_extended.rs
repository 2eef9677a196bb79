//! The engine's corners, each over `foxtcp::testlink::Pair`: the §4
//! priority extension, simultaneous open, urgent data, half-close, the
//! golden segment trace, and sequence-number wraparound.

use foxbasis::obs::{flags, flags_to_string, Event, EventSink};
use foxbasis::time::VirtualTime;
use foxproto::Protocol;
use foxtcp::testlink::{immediate, Pair};
use foxtcp::{TcpConfig, TcpConnId, TcpEvent, TcpPattern, TcpState};
use foxwire::tcp::{TcpFlags, TcpHeader, TcpSegment};
use simnet::HostHandle;

/// `a` feeds `payload` into `conn` a millisecond tick at a time until
/// `b` has delivered all of it (or 100 000 ticks have passed).
fn stream(p: &mut Pair, conn: TcpConnId, payload: &[u8]) {
    let mut sent = 0;
    for _ in 0..100_000 {
        if sent < payload.len() {
            sent += p.a.send_data(conn, &payload[sent..]).unwrap_or(0);
        }
        p.tick(1);
        if p.b.stats().bytes_delivered >= payload.len() as u64 {
            break;
        }
    }
}

// The §4 scheduling extension: with `latency_priority` on, queued
// outbound segments are executed ahead of other actions.

#[test]
fn send_segments_jump_the_queue() {
    let cfg = TcpConfig { latency_priority: true, ..immediate() };
    let mut p = Pair::new(cfg.clone(), cfg);
    let (conn, child) = p.open(80);
    assert_eq!(p.a.state_of(conn), Some(TcpState::Estab));
    p.a.send(conn, (), b"priority-scheduled".to_vec()).unwrap();
    p.settle();
    assert_eq!(
        &p.data_of(1, child)[..],
        b"priority-scheduled",
        "correctness unchanged under priority scheduling"
    );
}

#[test]
fn priority_and_fifo_deliver_identical_streams() {
    let run = |priority: bool| {
        let cfg = TcpConfig { latency_priority: priority, ..immediate() };
        let mut p = Pair::new(cfg.clone(), cfg);
        let (conn, child) = p.open(80);
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        stream(&mut p, conn, &payload);
        let out = p.data_of(1, child);
        assert_eq!(out.len(), payload.len(), "priority={priority}");
        (out, payload)
    };
    let (fifo_stream, payload) = run(false);
    let (prio_stream, _) = run(true);
    assert_eq!(fifo_stream, payload);
    assert_eq!(prio_stream, payload, "byte stream identical under either scheduler");
}

#[test]
fn simultaneous_open_establishes_both_sides() {
    // Both ends actively open to each other with fixed ports: the
    // SYNs cross, each side enters Syn_Active (the paper's
    // active-open SYN-RECEIVED variant), and both establish.
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (tag_a, tag_b) = (TcpConnId(1000), TcpConnId(2000));
    let ca =
        p.a.open(TcpPattern::Active { remote: 1, remote_port: 2000, local_port: 1000 }, p.recorder(0, tag_a))
            .unwrap();
    let cb =
        p.b.open(TcpPattern::Active { remote: 0, remote_port: 1000, local_port: 2000 }, p.recorder(1, tag_b))
            .unwrap();
    p.settle();
    let (ev_a, ev_b) = (p.events_of(0, tag_a), p.events_of(1, tag_b));
    assert_eq!(p.a.state_of(ca), Some(TcpState::Estab), "events: {ev_a:?}");
    assert_eq!(p.b.state_of(cb), Some(TcpState::Estab), "events: {ev_b:?}");
    assert!(ev_a.contains(&TcpEvent::Established));
    assert!(ev_b.contains(&TcpEvent::Established));
}

#[test]
fn urgent_pointer_signalled_once_per_region() {
    let mut p = Pair::new(immediate(), immediate());
    let (ca, child) = p.open(80);
    assert_eq!(p.a.state_of(ca), Some(TcpState::Estab));
    let urgents =
        |p: &Pair| p.events_of(1, child).iter().filter(|e| matches!(e, TcpEvent::Urgent(_))).count();
    p.a.send(ca, (), b"urgent!".to_vec()).unwrap();
    // Rewrite in flight: set URG + urgent pointer on every data frame
    // that crosses from here on. (The test link carries raw TCP bytes;
    // decode, set, re-encode.) "urgent!" itself is already on the wire.
    p.link.set_filter_toward(
        1,
        Box::new(move |_, bytes| {
            if let Ok(mut seg) = TcpSegment::decode_buf(bytes, None) {
                if !seg.payload.is_empty() {
                    seg.header.flags.urg = true;
                    seg.header.urgent = seg.payload.len() as u16;
                    *bytes = seg.encode_buf(None).unwrap();
                }
            }
            true
        }),
    );
    p.settle();
    let before = urgents(&p);
    // Send one urgent-marked chunk.
    p.a.send(ca, (), b"more".to_vec()).unwrap();
    p.settle();
    assert!(urgents(&p) > before, "urgent event delivered: {:?}", p.events_of(1, child));
    // Data itself still arrives in order.
    assert_eq!(p.data_of(1, child), b"urgent!more");
}

#[test]
fn traces_record_segment_flow_when_enabled() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let sink = EventSink::recording(256);
    p.a.set_obs(sink.for_host(0));
    p.open(80);
    let evs = sink.events();
    let syn_ack = flags::SYN | flags::ACK;
    assert!(evs.iter().any(|e| matches!(e.event, Event::SegTx { flags: flags::SYN, .. })), "{evs:?}");
    assert!(evs.iter().any(|e| matches!(e.event, Event::SegRx { flags, .. } if flags == syn_ack)), "{evs:?}");
    // No sink installed on b: silent.
    assert!(evs.iter().all(|e| e.host == 0), "{evs:?}");
}

#[test]
fn urgent_test_filter_decodes_what_engine_encodes() {
    // Sanity for the filter trick above: decode(encode(x)) == x with
    // checksums off (the TestAux configuration).
    let mut h = TcpHeader::new(1, 2);
    h.flags = TcpFlags::ACK;
    let seg = TcpSegment { header: h, payload: b"xyz"[..].into() };
    let bytes = seg.clone().encode_buf(None).unwrap();
    assert_eq!(TcpSegment::decode_buf(&bytes, None).unwrap(), seg);
}

/// TCP's half-close semantics: after the peer FINs, our side may keep
/// sending (CLOSE-WAIT is a sending state).
#[test]
fn data_flows_from_close_wait() {
    let mut p = Pair::new(immediate(), immediate());
    let (ca, cb) = p.open(80);

    // a closes first: a -> FIN-WAIT, b -> CLOSE-WAIT.
    p.a.close(ca).unwrap();
    p.settle();
    assert_eq!(p.b.state_of(cb), Some(TcpState::CloseWait));
    assert_eq!(p.a.state_of(ca), Some(TcpState::FinWait2));

    // b keeps talking on the half-open connection.
    p.b.send(cb, (), b"parting data".to_vec()).unwrap();
    p.settle();
    assert_eq!(p.data_of(0, ca), b"parting data", "CLOSE-WAIT can still send");

    // And finally closes: full teardown, a through TIME-WAIT.
    p.b.close(cb).unwrap();
    p.settle();
    assert_eq!(p.a.state_of(ca), Some(TcpState::TimeWait));
    assert!(p.events_of(0, ca).contains(&TcpEvent::PeerClosed));
}

/// "Once the actions have been placed on the queue the behavior of TCP
/// is completely deterministic and testable" — pinned as a golden
/// trace: the exact segment sequence of a canonical handshake +
/// exchange + close, captured by a recording [`EventSink`].
#[test]
fn canonical_session_trace_is_stable() {
    let run = || {
        let mut p = Pair::new(immediate(), immediate());
        let sink = EventSink::recording(1024);
        p.a.set_obs(sink.clone());
        let (ca, _) = p.open(80);
        p.a.send(ca, (), b"abc".to_vec()).unwrap();
        p.settle();
        p.a.close(ca).unwrap();
        p.settle();
        assert_eq!(sink.dropped(), 0);
        sink.events()
    };
    let t1 = run();
    let t2 = run();
    assert_eq!(t1, t2, "identical event streams across runs");

    // The flag sequence of a's transmissions is the textbook session.
    let tx_flags: Vec<String> = t1
        .iter()
        .filter_map(|e| match e.event {
            Event::SegTx { flags, .. } => Some(flags_to_string(flags)),
            _ => None,
        })
        .collect();
    assert_eq!(tx_flags, vec!["SYN", "ACK", "PSH+ACK", "FIN+ACK"], "full stream:\n{t1:#?}");
}

/// Sequence-number wraparound: a transfer that crosses 2^32 in the
/// middle of the stream must be seamless — the reason `ubyte4`
/// arithmetic (`foxbasis::seq::Seq`) exists at all.
#[test]
fn stream_crosses_sequence_space_wrap() {
    // Start the virtual clock so the clock-derived ISS sits just
    // below 2^32; a 200 KB transfer then wraps mid-stream.
    let start = VirtualTime::from_micros(((u32::MAX as u64) - 60_000) * 4);
    let mut p = Pair::with_hosts(immediate(), immediate(), [HostHandle::free(), HostHandle::free()], start);
    let (conn, child) = p.open(80);

    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    stream(&mut p, conn, &payload);
    let got = p.data_of(1, child);
    assert_eq!(got.len(), payload.len(), "transfer wedged at the wrap");
    assert_eq!(&got[..], &payload[..]);
    assert_eq!(p.a.stats().retransmits, 0, "clean link: the wrap alone must not confuse RTT/resend");
}
