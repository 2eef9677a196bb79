//! The engine's heap budget, pinned as exact counts: heap calls per
//! round trip, with and without options, and heap bytes held per idle
//! connection.
//!
//! ROADMAP item 2 asks for an engine that is "allocation-free per
//! segment" and prefers "the allocator count over a `hot_alloc` lint":
//! this is that count. Two engines over `testlink` (no dev/eth/ip, no
//! simnet — the engine's own allocations and nothing else) in
//! ESTABLISHED play the benchmark's `rr` exchange: 64 bytes one way,
//! 64 bytes back, each reply piggybacking the ACK and cancelling the
//! delayed-ACK timer the request armed. The run is deterministic, so
//! the count is a constant; a change that moves it has to say so here.
//!
//! The second budget is what a connection costs when it is doing
//! nothing (ROADMAP item 5): the bytes the two engines still hold for a
//! population of ESTABLISHED connections that each made one such round
//! trip and fell idle. Equally deterministic, equally pinned.

#[path = "../../foxbasis/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, live_bytes};
use foxbasis::time::VirtualDuration;
use foxtcp::testlink::Pair;
use foxtcp::{TcpConfig, TcpConnId, TcpEvent};
use foxwire::ipv4::Ipv4Addr;
use std::cell::Cell;
use std::rc::Rc;

/// Heap calls one 64-byte request/response costs the two engines
/// together, in steady state, with options negotiated or not. What is
/// left is the two `TcpEvent::Data` vectors, one per segment, that hand
/// the user its bytes. Each segment's staged storage and its `Rc` (2
/// each until PR 25) now come from the sending engine's `BufPool` and go
/// back to it when the receiver drops the frame. A header holds its
/// options inline, so a timestamped segment costs what a bare one does;
/// while options were a vector, encoding and decoding each allocated
/// one, and the round trip with timestamps on cost 6.
/// The commit before this test spent 36.927 (not even a whole number:
/// its timer wheel re-grew a vector on most `step`s).
const ALLOCS_PER_ROUND_TRIP: u64 = 2;

const ROUND_TRIPS: u64 = 1_000;

/// How many connections the idle budget is taken over.
const IDLE_PAIRS: u64 = 64;

/// Heap bytes the two engines hold for [`IDLE_PAIRS`] ESTABLISHED
/// connections (so twice as many connection ends, and the listener),
/// each idle after one 64-byte round trip, under the benchmark's
/// 512 KB / 256 KB buffer configuration: 1 994 per end.
/// What an end holds: its slot in the engine's table (the `Conn` itself,
/// most of the figure), a 64-byte send ring, its handler's box, the
/// warmed-up `to_do` and resend queues, and its share of the table's
/// index, the demux and the timer wheel — the table's share with the
/// slack a doubling vector carries at this population (the listening
/// engine has 65 connections in 128 slots). Before the ring grew by use
/// the same population held 512 KB more per end, whatever it sent.
/// Since PR 25 it also holds the engines' free blocks: 14 296 bytes
/// over the 233 720 before, almost all of it 65 pooled blocks, because
/// the last settle fires the 64 clients' delayed ACKs in one step and so
/// once had 64 of one engine's blocks outstanding together (the other
/// engine never had more than one); the rest is a pool handle per
/// connection.
/// Since options went inline it is 7 232 bytes over the 248 016 before:
/// - +2 144: 67 pooled blocks, each with 32 bytes more headroom (96, so
///   a TCP header with every option byte used still goes on in place);
/// - +6 176: the `to_do` queues' 772 slots (the 64 clients' warmed to
///   8, the children's and the listener's to 4), each 8 bytes larger: a
///   `TcpAction` is 96 bytes, not 88, because a header is 64 bytes, not
///   48, with its options inline, while a `PacketBuf` is 24, not 32,
///   with 32-bit view bounds;
/// - −1 088: 136 `TestMsg` slots, 68 in the test link's in-flight queues
///   and 68 in the engines' receive queues, each 8 bytes smaller with the
///   `PacketBuf`.
const BYTES_HELD_BY_IDLE_PAIRS: u64 = 255_248;

/// `foxharness::bench::BenchProfile::Modern.tcp_config()`, which this
/// crate cannot name (the harness depends on it).
fn modern() -> TcpConfig {
    TcpConfig {
        initial_window: 256 * 1024,
        send_buffer: 512 * 1024,
        window_scale: true,
        delayed_ack_ms: Some(1),
        ack_coalesce_segments: Some(8),
        congestion_control: false,
        ..TcpConfig::default()
    }
}

/// A handler that counts delivered payload bytes and keeps nothing
/// (the rig's own recording handler would allocate per event).
fn counting(into: &Rc<Cell<usize>>) -> foxproto::Handler<TcpEvent> {
    let into = into.clone();
    Box::new(move |e| {
        if let TcpEvent::Data(d) = e {
            into.set(into.get() + d.len());
        }
    })
}

/// The benchmark's `rr` exchange, once: 64 bytes from `a`'s `client` to
/// `b`'s `server` and 64 back. 6 µs a round trip is the `rr` workload's
/// virtual pace: the 1 ms delayed ACK never fires, it is cancelled by
/// the reply.
fn round_trip(p: &mut Pair, client: TcpConnId, server: TcpConnId) {
    assert_eq!(p.a.send_data(client, &[0x5a; 64]), Ok(64));
    p.now += VirtualDuration::from_micros(3);
    p.settle();
    assert_eq!(p.b.send_data(server, &[0xa5; 64]), Ok(64));
    p.now += VirtualDuration::from_micros(3);
    p.settle();
}

#[test]
fn established_round_trip_allocations_are_pinned() {
    round_trip_allocations_are_pinned(modern());
}

/// The same round trip with timestamps and SACK negotiated: every
/// segment carries a timestamps option.
#[test]
fn round_trip_allocations_with_options_are_pinned() {
    round_trip_allocations_are_pinned(TcpConfig { timestamps: true, sack: true, ..modern() });
}

fn round_trip_allocations_are_pinned(cfg: TcpConfig) {
    let mut p = Pair::new(cfg.clone(), cfg.clone());
    let (got_a, got_b) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let (client, server) = p.open(80);
    p.a.set_handler(client, counting(&got_a)).unwrap();
    p.b.set_handler(server, counting(&got_b)).unwrap();
    let agreed = p.a.core_of(client).unwrap().tcb().negotiated();
    assert_eq!((agreed.ts_on(), agreed.sack_on()), (cfg.timestamps, cfg.sack), "negotiated as configured");

    // Warm-up: buffers, queues and the wheel's slab reach their
    // steady-state capacity, and the run crosses tick roll-overs.
    for _ in 0..ROUND_TRIPS {
        round_trip(&mut p, client, server);
    }
    let (before, wheel_before) = (allocs(), p.a.wheel_stats());
    for _ in 0..ROUND_TRIPS {
        round_trip(&mut p, client, server);
    }
    let spent = allocs() - before;

    assert_eq!(got_a.get() as u64, 2 * ROUND_TRIPS * 64, "every reply arrived");
    assert_eq!(got_b.get() as u64, 2 * ROUND_TRIPS * 64, "every request arrived");
    let wheel = p.a.wheel_stats();
    assert_eq!(wheel.fires, wheel_before.fires, "no delayed ACK fired: every one was cancelled");
    assert!(
        wheel.cancels - wheel_before.cancels >= ROUND_TRIPS,
        "a delayed ACK was cancelled per round trip"
    );
    assert_eq!(
        spent,
        ALLOCS_PER_ROUND_TRIP * ROUND_TRIPS,
        "heap calls per ESTABLISHED round trip moved ({} over {ROUND_TRIPS} round trips)",
        spent as f64 / ROUND_TRIPS as f64
    );
}

#[test]
fn idle_established_connections_hold_a_pinned_number_of_bytes() {
    let mut p = Pair::new(modern(), modern());
    let got = Rc::new(Cell::new(0));
    // The parsed state-machine spec is process-wide and built by
    // whichever thread's first transition needs it (debug builds): not
    // this test's to be charged with, so it is built before the reading.
    std::sync::LazyLock::force(&foxtcp::control::fsm::SPEC);
    let before = live_bytes();

    // The listener's user remembers the child it was last told of and
    // nothing else.
    let announced = Rc::new(Cell::new(None));
    let tell = announced.clone();
    let listener =
        p.b.listen(
            80,
            Box::new(move |e| {
                if let TcpEvent::NewConnection(child) = e {
                    tell.set(Some(child));
                }
            }),
        )
        .unwrap();
    for _ in 0..IDLE_PAIRS {
        let client = p.a.connect(1, 80, 0, counting(&got)).unwrap().id();
        p.settle();
        let child: TcpConnId = announced.take().expect("the listener announced the child");
        listener.accept(&mut p.b, child, counting(&got)).unwrap();
        round_trip(&mut p, client, child);
    }
    // Past every delayed ACK: nothing in flight, no timer pending.
    p.now += VirtualDuration::from_millis(10);
    p.settle();
    assert_eq!(got.get() as u64, IDLE_PAIRS * 128, "every request and every reply arrived");
    assert!(p.a.wheel_stats().arms > 0 && p.link.in_flight_toward(0) + p.link.in_flight_toward(1) == 0);

    let held = live_bytes().wrapping_sub(before);
    assert_eq!(
        held,
        BYTES_HELD_BY_IDLE_PAIRS,
        "bytes held by {IDLE_PAIRS} idle pairs moved ({} per connection end)",
        held / (2 * IDLE_PAIRS)
    );
    assert!(held / (2 * IDLE_PAIRS) < 2048, "an idle connection costs 2 KB or more");
    // Most of it is the connection itself, which the TCB's records did not grow.
    assert!(std::mem::size_of::<foxtcp::ConnCore<Ipv4Addr>>() <= 440, "a connection core outgrew 440 bytes");
}
