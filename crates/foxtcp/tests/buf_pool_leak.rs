//! The leak detector for the engines' buffer pools (`foxbasis::buf::BufPool`).
//!
//! Every segment an engine sends is staged in a block of its pool, and
//! the block comes home when its last handle drops — on the peer's
//! receive path, in the peer's reassembly queue, in a test's filter. So
//! an engine at rest has every block it ever made back home, and it
//! never made many more than it once had in flight. Both are counted
//! here over a transfer on a wire that drops, duplicates and reorders.

use foxbasis::buf::PacketBuf;
use foxproto::Protocol;
use foxtcp::testlink::Pair;
use foxtcp::{TcpConfig, TcpConnId};
use std::cell::RefCell;
use std::rc::Rc;

/// Frames held back by [`mangle`], waiting to be put on the wire late.
type Late = Rc<RefCell<Vec<PacketBuf>>>;

/// A wide SACK connection, delayed ACKs on, Nagle off, and no
/// congestion control, so that the flight fills the 64 KB window (about
/// 45 segments) however much the schedule below loses.
fn wide() -> TcpConfig {
    TcpConfig {
        initial_window: 64 * 1024,
        send_buffer: 128 * 1024,
        window_scale: true,
        sack: true,
        nagle: false,
        congestion_control: false,
        ..TcpConfig::default()
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Of every 13 frames toward `side`, one is lost, one arrives now and
/// again later (a duplicate, sharing the original's block), and one
/// arrives only later (reordered). [`release`] puts the late ones back on
/// the wire.
fn mangle(p: &Pair, side: u8) -> Late {
    let late = Late::default();
    let held = late.clone();
    p.link.set_filter_toward(
        side,
        Box::new(move |i, frame| match i % 13 {
            3 => false,
            k @ (6 | 9) => {
                held.borrow_mut().push(frame.clone());
                k == 6
            }
            _ => true,
        }),
    );
    late
}

/// Sends the frames held for `side` from the other end, newest first.
fn release(p: &Pair, side: u8, late: &Late) {
    let frames = std::mem::take(&mut *late.borrow_mut());
    for frame in frames.into_iter().rev() {
        p.link.endpoint(1 - side).send(1 - side, side, frame).expect("the link takes it");
    }
}

/// Segments `conn` has sent and not yet had acknowledged.
fn flight(p: &Pair, conn: TcpConnId) -> usize {
    p.a.core_of(conn).map_or(0, |core| core.tcb().send_side().resend_queue().len())
}

#[test]
fn every_block_an_engine_made_is_home_once_the_pair_is_at_rest() {
    let mut p = Pair::new(wide(), wide());
    let (client, child) = p.open(80);
    let late = [mangle(&p, 0), mangle(&p, 1)];
    let data = pattern(400 * 1024);

    let (mut sent, mut flight_high) = (0, 0);
    while p.b.stats().bytes_delivered < data.len() as u64 {
        assert!(p.now().as_millis() < 600_000, "the transfer stalled");
        if sent < data.len() {
            sent += p.a.send_data(client, &data[sent..]).expect("open");
        }
        flight_high = flight_high.max(flight(&p, client));
        p.run_for(20, 10);
        flight_high = flight_high.max(flight(&p, client));
        for side in [0, 1] {
            release(&p, side, &late[side as usize]);
        }
    }
    // Past every delayed ACK and retransmission; then the filters go,
    // and with them the last handles they could hold.
    p.run_for(5_000, 100);
    for side in [0, 1] {
        release(&p, side, &late[side as usize]);
    }
    p.run_for(5_000, 100);
    assert_eq!(p.data_of(1, child), data, "the transfer arrived whole and in order");
    assert!(p.link.dropped() > 0, "the schedule lost frames");
    assert!(flight(&p, client) == 0 && p.link.in_flight_toward(0) + p.link.in_flight_toward(1) == 0);
    for side in [0, 1] {
        p.link.set_filter_toward(side, Box::new(|_, _| true));
    }
    drop(late);

    for (name, pool) in [("a", p.a.buf_pool()), ("b", p.b.buf_pool())] {
        assert_eq!(pool.free(), pool.made(), "engine {name} leaked blocks");
        assert!(
            pool.made() <= flight_high + 4,
            "engine {name} made {} blocks for a flight of at most {flight_high} segments",
            pool.made()
        );
    }
}
