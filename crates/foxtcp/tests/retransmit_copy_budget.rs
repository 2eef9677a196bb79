//! The copy budget of a retransmission: one staging copy per segment
//! resent, and nothing else.
//!
//! The resend queue holds sequence ranges; the flight's bytes live once,
//! in the send buffer, so a retransmission stages its payload again
//! (`send::stage` — the same counted copy a first transmission makes)
//! into a buffer nobody else holds, and every encoder below writes its
//! header into that buffer in place. If either half regresses — a
//! segment is staged more than once, or a shared handle forces a header
//! prepend to re-home the payload — the thread's copy counter catches it
//! here: it must read exactly one copy and the payload per segment
//! resent, so a re-home while encoding would show as a copy too many.

use foxbasis::buf::{copy_mark, reset_copy_stats};
use foxtcp::testlink::{immediate, Pair};
use foxwire::tcp::TcpSegment;
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn a_retransmission_copies_its_payload_once() {
    reset_copy_stats();
    let mut p = Pair::new(immediate(), immediate());
    let (client, _child) = p.open(80);
    assert!(
        matches!(p.a.state_of(client), Some(foxtcp::TcpState::Estab)),
        "handshake must complete before the episode"
    );

    // Stage and transmit one window's worth of data. The first
    // transmission's staging copies happen here, outside the measured
    // window, and the data is lost in flight: drop everything toward
    // the server from now on.
    p.link.set_filter_toward(1, Box::new(|_, _| false));
    let payload = vec![0xB5u8; 2000];
    let sent = p.a.send_data(client, &payload).unwrap();
    assert_eq!(sent, payload.len());
    p.settle();
    assert!(p.link.dropped() > 0, "the initial flight must be in the black hole");

    // The episode: every RTO re-sends the front segment. Nothing but
    // retransmissions leaves `a`, so the payload bytes it sends are the
    // retransmitted bytes.
    let stats_before = p.a.stats();
    let mark = copy_mark();
    p.run_for(10_000, 100);
    let delta = mark.delta();
    let stats_after = p.a.stats();

    let retransmits = stats_after.retransmits - stats_before.retransmits;
    assert!(retransmits > 0, "the episode must actually retransmit");
    assert_eq!(delta.copies, retransmits, "one staging copy per segment resent ({delta:?})");
    assert_eq!(delta.bytes, stats_after.bytes_sent - stats_before.bytes_sent, "of exactly its payload");
}

#[test]
fn resending_a_whole_flight_after_a_timeout_copies_each_segment_once() {
    // The multi-segment episode: the flight is lost whole, the link
    // heals, and after the timeout every segment of it goes out again,
    // ACK by ACK, under slow start. Every one of those retransmissions
    // stages its own range of the send buffer.
    reset_copy_stats();
    let mut p = Pair::new(immediate(), immediate());
    let (client, child) = p.open(80);
    let payload = vec![0xB5u8; 4000]; // the peer's window admits three segments of it
                                      // Open the congestion window past the flight, then lose the flight.
    for _ in 0..3 {
        p.a.send_data(client, &payload).unwrap();
        p.settle();
    }
    p.link.set_filter_toward(1, Box::new(|_, _| false));
    assert_eq!(p.a.send_data(client, &payload).unwrap(), payload.len());
    p.settle();
    // Healed, and counting the data segments that cross.
    let data_segments = Rc::new(Cell::new(0u64));
    let tap = data_segments.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_, bytes| {
            let seg = TcpSegment::decode_buf(bytes, None).expect("a TCP segment");
            tap.set(tap.get() + u64::from(!seg.payload.is_empty()));
            true
        }),
    );

    let stats_before = p.a.stats();
    let mark = copy_mark();
    p.run_for(1_500, 100);
    let delta = mark.delta();
    let stats_after = p.a.stats();

    assert_eq!(stats_after.rto_fires, stats_before.rto_fires + 1, "one timeout");
    assert_eq!(stats_after.retransmits, stats_before.retransmits + 3, "all three segments went out again");
    assert_eq!(p.data_of(1, child).len(), 4 * payload.len(), "and arrived");
    // Three retransmissions and the tail the peer's window had held
    // back: each staged once, and no byte of the write twice.
    assert_eq!(data_segments.get(), 4);
    assert_eq!(
        (delta.copies, delta.bytes),
        (data_segments.get(), payload.len() as u64),
        "and none copied again on the way down"
    );
}

#[test]
fn retransmitted_bytes_still_arrive_intact() {
    // Staging a range a second time must read the bytes it read the
    // first time, whatever the send buffer took in or released between.
    let mut p = Pair::new(immediate(), immediate());
    let (client, child) = p.open(80);

    // Lose the first flight entirely, then heal.
    p.link.set_filter_toward(1, Box::new(|i, _| i >= 3));
    let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    while sent < payload.len() {
        sent += p.a.send_data(client, &payload[sent..]).unwrap();
        p.run_for(400, 100);
    }
    p.run_for(20_000, 250);

    assert!(p.a.stats().retransmits > 0, "the first flight was dropped");
    let got = p.data_of(1, child);
    assert_eq!(got.len(), payload.len());
    assert_eq!(got, payload, "retransmitted payloads must be byte-identical");
}
