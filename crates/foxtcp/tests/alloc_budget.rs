//! The engine's heap budget, pinned as exact counts: heap calls per
//! round trip, with and without options, heap calls per whole
//! connection lifecycle, heap bytes held per idle connection, and what
//! a reaped connection's spare record holds.
//!
//! An engine "allocation-free per segment" is checked by the allocator's
//! count, not by a lint (DESIGN.md §5.6): this is that count. Two
//! engines over `testlink` (no dev/eth/ip, no simnet — the engine's own
//! allocations and nothing else) in ESTABLISHED play the benchmark's
//! `rr` exchange: 64 bytes one way, 64 bytes back, each reply
//! piggybacking the ACK and cancelling the delayed-ACK timer the request
//! armed. The run is deterministic, so the count is a constant; a change
//! that moves it has to say so here.
//!
//! The second budget is what a connection costs when it is doing
//! nothing (DESIGN.md §5.15): the bytes the two engines still hold for a
//! population of ESTABLISHED connections that each made one such round
//! trip and fell idle. Equally deterministic, equally pinned.

#[path = "../../foxbasis/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, live_bytes};
use foxbasis::ring::STORAGE_FLOOR;
use foxbasis::time::VirtualDuration;
use foxproto::Protocol;
use foxtcp::data::tcb::SentSegment;
use foxtcp::testlink::Pair;
use foxtcp::{ListeningSocket, TcpAction, TcpConfig, TcpConnId, TcpEvent};
use simnet::Medium;
use std::cell::Cell;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

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

/// Heap calls one whole connection lifecycle — connect, 64 bytes each
/// way, close, both ends reaped — costs two warm engines. What is left
/// is the two `TcpEvent::Data` vectors that hand each user its 64
/// bytes, as in [`ALLOCS_PER_ROUND_TRIP`]. Everything else a lifecycle
/// uses is already there:
/// - each end's record is the spare its slot's last tenant left (the
///   engine recycles reaped records in place), so its `to_do` queue
///   (4 calls a lifecycle while records were freed: each end's grew
///   0 → 4 → 8), its resend queue (2: the SYN's entry), its send ring
///   (2: kept at its 64-byte floor through the FIN's ACK) and the
///   child's parked-event vector (1: its `Established` waits for
///   `accept`) start with the capacity they grew before;
/// - the handlers box closures that capture nothing, which allocates
///   nothing;
/// - the table, its index, the demux, the wheel, the pool and the
///   link's queues are warm, and connect and reap write one entry each
///   without growing any of them.
///
/// The commit before records were recycled spent 11.
const ALLOCS_PER_LIFECYCLE: u64 = 2;

const LIFECYCLES: u64 = 200;

/// How many connections the idle budget is taken over.
const IDLE_PAIRS: u64 = 64;

/// Heap bytes the two engines hold for [`IDLE_PAIRS`] ESTABLISHED
/// connections (so twice as many connection ends, and the listener),
/// each idle after one 64-byte round trip, under the benchmark's
/// 512 KB / 256 KB buffer configuration: 1 822 per end.
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
///
/// Since an ACK of new data stopped queueing a no-op action it is 24 576
/// bytes under the 255 248 before: the 64 clients' `to_do` queues warm to
/// 4 slots, not 8, so 256 slots of 96 bytes go.
///
/// Since the table's id → slot index and the demux's three namespaces
/// became `FlatIndex`es it is 7 224 bytes over the 230 672 before: they
/// hold 14 400 bytes where the id list and the ordered trees held 7 176
/// (1 536 of vectors, 5 640 of tree nodes), 112.5 per end against 56.
/// An index is kept under half full, so each engine's 64 or 65 ids and
/// 64 flows sit in 256 slots (8 and 16 bytes a slot), the client's 64
/// port counts in 256 more, and the listening port and its count in 4
/// each: slack, against the trees' node headers and half-filled leaves.
///
/// Since the congestion state became the two windows alone it is 4 608
/// bytes under the 237 896 before: a `Conn` is 600 bytes, not 624, and
/// the two tables hold 192 slots of it (the client engine's 64 and the
/// listening engine's 128).
const BYTES_HELD_BY_IDLE_PAIRS: u64 = 233_288;

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
    p.link.advance_to(p.now() + VirtualDuration::from_micros(3));
    p.settle();
    assert_eq!(p.b.send_data(server, &[0xa5; 64]), Ok(64));
    p.link.advance_to(p.now() + VirtualDuration::from_micros(3));
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

/// The lifecycle budget's configuration: the benchmark's `churn`
/// buffers and TIME-WAIT, so a closed connection is reaped 10 ms after
/// it gets there.
fn churn() -> TcpConfig {
    TcpConfig { initial_window: 8192, send_buffer: 8192, time_wait_ms: 10, ..modern() }
}

/// Payload bytes the lifecycle test's handlers were handed.
static LIFECYCLE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The child the lifecycle test's listener announced last.
static LIFECYCLE_CHILD: AtomicU32 = AtomicU32::new(u32::MAX);

/// One whole connection lifecycle over the benchmark's `churn`
/// exchange: `a` connects to `b`'s listener, 64 bytes go each way, `a`
/// closes and then `b`, and both ends are reaped (`a`'s once its 10 ms
/// of TIME-WAIT are up). The handlers are closures that capture nothing
/// — boxing one allocates nothing — so what the lifecycle costs is the
/// engines'.
fn lifecycle(p: &mut Pair, listener: &ListeningSocket) {
    fn count(e: TcpEvent) {
        if let TcpEvent::Data(d) = e {
            LIFECYCLE_BYTES.fetch_add(d.len(), Ordering::Relaxed);
        }
    }
    let client = p.a.connect(1, 80, 0, Box::new(count)).unwrap().id();
    p.settle();
    let child = TcpConnId(LIFECYCLE_CHILD.load(Ordering::Relaxed));
    listener.accept(&mut p.b, child, Box::new(count)).unwrap();
    round_trip(p, client, child);
    p.a.close(client).unwrap();
    p.settle();
    p.b.close(child).unwrap();
    p.settle();
    p.link.advance_to(p.now() + VirtualDuration::from_millis(11));
    p.settle();
    assert_eq!((p.a.state_of(client), p.b.state_of(child)), (None, None), "both ends reaped");
}

#[test]
fn a_warm_engine_runs_a_lifecycle_in_a_pinned_number_of_heap_calls() {
    let mut p = Pair::new(churn(), churn());
    let listener =
        p.b.listen(
            80,
            Box::new(|e| {
                if let TcpEvent::NewConnection(child) = e {
                    LIFECYCLE_CHILD.store(child.0, Ordering::Relaxed);
                }
            }),
        )
        .unwrap();
    // Warm-up: the first lifecycle grows both ends' records, which stay
    // behind as spares; the rest let the wheel and the pool settle.
    for _ in 0..LIFECYCLES {
        lifecycle(&mut p, &listener);
    }
    let before = allocs();
    for _ in 0..LIFECYCLES {
        lifecycle(&mut p, &listener);
    }
    let spent = allocs() - before;
    assert_eq!(LIFECYCLE_BYTES.load(Ordering::Relaxed), 2 * LIFECYCLES as usize * 128, "every byte arrived");
    assert_eq!(
        spent,
        ALLOCS_PER_LIFECYCLE * LIFECYCLES,
        "heap calls per lifecycle moved ({} over {LIFECYCLES} lifecycles)",
        spent as f64 / LIFECYCLES as f64
    );
}

/// The child the spare-bound test's listener announced last.
static BOUND_CHILD: AtomicU32 = AtomicU32::new(u32::MAX);

/// Opens `n` connections side by side, each exchanging 64 bytes each
/// way; closes them all, `a` first, and runs past TIME-WAIT so both
/// engines reap all of them. Immediate ACKs: nothing is left for a timer
/// to send, so what the engines hold afterwards does not depend on how
/// many ACKs one step happened to fire.
fn open_and_reap(p: &mut Pair, listener: &ListeningSocket, n: usize) {
    let mut open = Vec::with_capacity(n);
    for _ in 0..n {
        let client = p.a.connect(1, 80, 0, Box::new(|_| {})).unwrap().id();
        p.settle();
        let child = TcpConnId(BOUND_CHILD.load(Ordering::Relaxed));
        listener.accept(&mut p.b, child, Box::new(|_| {})).unwrap();
        assert_eq!(p.a.send_data(client, &[0x5a; 64]), Ok(64));
        p.settle();
        assert_eq!(p.b.send_data(child, &[0xa5; 64]), Ok(64));
        p.settle();
        open.push((client, child));
    }
    for &(client, child) in &open {
        p.a.close(client).unwrap();
        p.settle();
        p.b.close(child).unwrap();
        p.settle();
    }
    p.link.advance_to(p.now() + VirtualDuration::from_millis(11));
    p.settle();
    assert!(open.iter().all(|&(c, s)| (p.a.state_of(c), p.b.state_of(s)) == (None, None)), "all reaped");
}

/// Spares are bounded by the slot high-water and cost what DESIGN.md
/// §5.15 says one costs. After `K` side-by-side lifecycles every slot
/// is vacant; running them again reuses every spare and the engines
/// hold not one byte more. Running `K + J` grows the table by `J`
/// slots, inside capacity the table, the free list, the indexes, the
/// wheel and the scratch lists already have at `K`, so the bytes added
/// are exactly the `J` new spares' heap, by the formula: for this
/// lifecycle a client's spare keeps a `to_do` queue of 8 actions (it
/// grew 0 → 4 → 8), a resend queue of 4 entries and a 64-byte send
/// ring, and a child's the same plus an event vector of 4, where its
/// `Established` waited for `accept`.
#[test]
fn spares_cost_what_the_formula_says_and_no_more_than_the_slot_high_water() {
    const K: usize = 40;
    const J: usize = 8;
    let cfg = TcpConfig { delayed_ack_ms: None, ..churn() };
    let mut p = Pair::new(cfg.clone(), cfg);
    let listener =
        p.b.listen(
            80,
            Box::new(|e| {
                if let TcpEvent::NewConnection(child) = e {
                    BOUND_CHILD.store(child.0, Ordering::Relaxed);
                }
            }),
        )
        .unwrap();
    open_and_reap(&mut p, &listener, K);
    let first = live_bytes();
    open_and_reap(&mut p, &listener, K);
    assert_eq!(live_bytes().wrapping_sub(first), 0, "reusing {K} spares holds nothing more");
    open_and_reap(&mut p, &listener, K + J);
    let grown = live_bytes().wrapping_sub(first);

    let (action, sent, event) = (size_of::<TcpAction>(), size_of::<SentSegment>(), size_of::<TcpEvent>());
    let client_spare = 8 * action + 4 * sent + STORAGE_FLOOR;
    let child_spare = client_spare + 4 * event;
    assert_eq!((action, sent, event), (96, 12, 24), "the formula's element sizes");
    assert_eq!(grown, (J * (client_spare + child_spare)) as u64, "{J} more spares, by the formula");
    assert_eq!((client_spare, child_spare), (880, 976));
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
    p.link.advance_to(p.now() + VirtualDuration::from_millis(10));
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
    // Most of it is the connection itself, whose core carries no lower-layer address.
    assert!(std::mem::size_of::<foxtcp::ConnCore>() <= 408, "a connection core outgrew 408 bytes");
}
