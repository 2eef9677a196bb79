//! Regression: a pure retransmission must not memcpy.
//!
//! The resend queue holds the same [`foxbasis::buf::PacketBuf`] that was
//! segmented out of the send buffer, so retransmitting re-references it
//! (a refcount bump) and the wire encoder writes the header into the
//! buffer's reserved headroom in place. If either property regresses —
//! the queue re-reads the ring, or a stale view forces the header
//! prepend onto the counted realloc path — the copy counter catches it
//! here.

use foxbasis::buf::{copy_mark, reset_copy_stats};
use foxtcp::testlink::Pair;
use foxtcp::TcpConfig;
use std::cell::RefCell;
use std::rc::Rc;

fn immediate() -> TcpConfig {
    TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() }
}

#[test]
fn pure_retransmit_episode_copies_nothing() {
    reset_copy_stats();
    let mut p = Pair::new(immediate(), immediate());
    let (client, _child) = p.open(80);
    assert!(
        matches!(p.a.state_of(client), Some(foxtcp::TcpState::Estab)),
        "handshake must complete before the episode"
    );

    // Stage and transmit one window's worth of data. The segmentation
    // copy (ring -> PacketBuf) happens here, outside the measured
    // window, and the data is lost in flight: drop everything toward
    // the server from now on.
    p.link.set_filter_toward(1, Box::new(|_| false));
    let payload = vec![0xB5u8; 2000];
    let sent = p.a.send_data(client, &payload).unwrap();
    assert_eq!(sent, payload.len());
    p.settle();
    assert!(p.link.dropped() > 0, "the initial flight must be in the black hole");

    // The pure-retransmit episode: every RTO re-sends the queued
    // segment. Re-referencing the queued PacketBuf and writing the
    // header into its headroom must move zero payload bytes.
    let stats_before = p.a.stats();
    let mark = copy_mark();
    p.run_for(10_000, 100);
    let delta = mark.delta();
    let stats_after = p.a.stats();

    assert!(
        stats_after.retransmits > stats_before.retransmits,
        "the episode must actually retransmit (got {} -> {})",
        stats_before.retransmits,
        stats_after.retransmits
    );
    assert_eq!(delta.copies, 0, "a pure retransmission must not copy ({delta:?})");
    assert_eq!(delta.bytes, 0, "a pure retransmission must not move bytes ({delta:?})");
    assert_eq!(
        stats_after.buf_copies, stats_before.buf_copies,
        "the engine's copy counter must not advance during pure retransmission"
    );
    assert_eq!(stats_after.buf_copy_bytes, stats_before.buf_copy_bytes);
}

#[test]
fn resending_a_whole_flight_after_a_timeout_copies_nothing() {
    // The multi-segment episode: the flight is lost whole, the link
    // heals, and after the timeout every segment of it goes out again,
    // ACK by ACK, under slow start. Every one of those retransmissions
    // re-references its queued payload.
    reset_copy_stats();
    let mut p = Pair::new(immediate(), immediate());
    let (client, child) = p.open(80);
    let payload = vec![0xB5u8; 4000]; // three segments, inside the 4096-byte window
                                      // Open the congestion window past the flight, then lose the flight.
    for _ in 0..3 {
        p.a.send_data(client, &payload).unwrap();
        p.settle();
    }
    p.link.set_filter_toward(1, Box::new(|_| false));
    assert_eq!(p.a.send_data(client, &payload).unwrap(), payload.len());
    p.settle();
    p.link.set_filter_toward(1, Box::new(|_| true));

    let stats_before = p.a.stats();
    p.run_for(1_500, 100);
    let stats_after = p.a.stats();

    assert_eq!(stats_after.rto_fires, stats_before.rto_fires + 1, "one timeout");
    assert_eq!(stats_after.retransmits, stats_before.retransmits + 3, "all three segments went out again");
    assert_eq!(p.data_of(1, child).len(), 4 * payload.len(), "and arrived");
    assert_eq!(stats_after.buf_copies, stats_before.buf_copies, "without a single payload copy");
    assert_eq!(stats_after.buf_copy_bytes, stats_before.buf_copy_bytes);
}

#[test]
fn retransmitted_bytes_still_arrive_intact() {
    // The zero-copy path must still deliver the right bytes once the
    // link heals: re-referencing must not alias mutated state.
    let mut p = Pair::new(immediate(), immediate());
    let (client, child) = p.open(80);

    // Lose the first flight entirely, then heal.
    let drops = Rc::new(RefCell::new(0u32));
    let d2 = drops.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_| {
            let mut n = d2.borrow_mut();
            *n += 1;
            *n > 3
        }),
    );
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
