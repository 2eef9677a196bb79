//! The engine's heap budget per round trip, pinned as an exact count.
//!
//! ROADMAP item 2 asks for an engine that is "allocation-free per
//! segment" and prefers "the allocator count over a `hot_alloc` lint":
//! this is that count. Two engines over `testlink` (no dev/eth/ip, no
//! simnet — the engine's own allocations and nothing else) in
//! ESTABLISHED play the benchmark's `rr` exchange: 64 bytes one way,
//! 64 bytes back, each reply piggybacking the ACK and cancelling the
//! delayed-ACK timer the request armed. The run is deterministic, so
//! the count is a constant; a change that moves it has to say so here.

#[path = "../../foxbasis/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use foxbasis::time::VirtualDuration;
use foxtcp::testlink::Pair;
use foxtcp::{TcpConfig, TcpEvent};
use std::cell::Cell;
use std::rc::Rc;

/// Heap calls one 64-byte request/response costs the two engines
/// together, in steady state. What is left: per segment, the staged
/// payload's storage and its `Rc` (2), the decoded header's option
/// vector when the segment carries options (0 here), and the `Vec` a
/// `TcpEvent::Data` hands the user (1); two segments per round trip.
/// The commit before this test spent 36.927 (not even a whole number:
/// its timer wheel re-grew a vector on most `step`s).
const ALLOCS_PER_ROUND_TRIP: u64 = 6;

const ROUND_TRIPS: u64 = 1_000;

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

#[test]
fn established_round_trip_allocations_are_pinned() {
    let mut p = Pair::new(modern(), modern());
    let (got_a, got_b) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let (client, server) = p.open(80);
    p.a.set_handler(client, counting(&got_a)).unwrap();
    p.b.set_handler(server, counting(&got_b)).unwrap();

    let round_trip = |p: &mut Pair| {
        // 6 µs a round trip is the `rr` workload's virtual pace: the
        // 1 ms delayed ACK never fires, it is cancelled by the reply.
        assert_eq!(p.a.send_data(client, &[0x5a; 64]), Ok(64));
        p.now += VirtualDuration::from_micros(3);
        p.settle();
        assert_eq!(p.b.send_data(server, &[0xa5; 64]), Ok(64));
        p.now += VirtualDuration::from_micros(3);
        p.settle();
    };
    // Warm-up: buffers, queues and the wheel's slab reach their
    // steady-state capacity, and the run crosses tick roll-overs.
    for _ in 0..ROUND_TRIPS {
        round_trip(&mut p);
    }
    let (before, wheel_before) = (allocs(), p.a.wheel_stats());
    for _ in 0..ROUND_TRIPS {
        round_trip(&mut p);
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
