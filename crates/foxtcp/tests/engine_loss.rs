//! Loss recovery, end to end over `foxtcp::testlink::Pair`: what the
//! receiver's reassembly queue keeps, what the sender resends after a
//! timeout and in which order, and which ACKs reach the scoreboard.
//!
//! Every test runs at a frozen clock except where it says it is waiting
//! for the retransmission timer, so nothing in it depends on pacing.

use foxbasis::buf::PacketBuf;
use foxbasis::seq::Seq;
use foxbasis::time::VirtualDuration;
use foxproto::Protocol;
use foxtcp::data::transfer::MAX_OUT_OF_ORDER;
use foxtcp::testlink::Pair;
use foxtcp::{TcpConfig, TcpConnId};
use foxwire::tcp::{TcpOption, TcpOptions, TcpSegment};
use simnet::Medium;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// The full-sized segment of the test link (MTU 1500, no timestamps).
const MSS: u32 = 1460;

/// A wide, SACK-capable connection with nothing waiting on a timer:
/// immediate ACKs, no Nagle.
fn wide() -> TcpConfig {
    TcpConfig {
        initial_window: 256 * 1024,
        send_buffer: 512 * 1024,
        window_scale: true,
        sack: true,
        nagle: false,
        delayed_ack_ms: None,
        ..TcpConfig::default()
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Opens a connection and streams data over the clean link until the
/// sender's congestion window covers `segments` full segments. Returns
/// the ids and what was streamed.
fn warmed_up(p: &mut Pair, segments: u32) -> (TcpConnId, TcpConnId, Vec<u8>) {
    let (client, child) = p.open(80);
    let mut streamed = Vec::new();
    while p.a.metrics_of(client).expect("open").cwnd < segments * MSS {
        let chunk = pattern(32 * MSS as usize);
        assert_eq!(p.a.send_data(client, &chunk).unwrap(), chunk.len());
        p.settle();
        streamed.extend_from_slice(&chunk);
    }
    assert_eq!(p.data_of(1, child), streamed, "the warm-up must arrive");
    (client, child, streamed)
}

/// How often each data segment (by sequence number) has been put on the
/// wire toward `b`, in a filter that also drops what `lose` names.
fn tap_toward_b(p: &Pair, mut lose: impl FnMut(Seq) -> bool + 'static) -> Rc<RefCell<BTreeMap<u32, u32>>> {
    let sends = Rc::new(RefCell::new(BTreeMap::new()));
    let tap = sends.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_, bytes| {
            let seg = TcpSegment::decode_buf(bytes, None).expect("a TCP segment");
            if seg.payload.is_empty() {
                return true;
            }
            *tap.borrow_mut().entry(seg.header.seq.0).or_insert(0) += 1;
            !lose(seg.header.seq)
        }),
    );
    sends
}

/// Keeps the last frame that crossed toward `a`, dropping all of them
/// while `black_hole` is set.
fn tap_toward_a(p: &Pair, black_hole: Rc<Cell<bool>>) -> Rc<RefCell<Option<PacketBuf>>> {
    let last = Rc::new(RefCell::new(None));
    let tap = last.clone();
    p.link.set_filter_toward(
        0,
        Box::new(move |_, bytes| {
            *tap.borrow_mut() = Some(bytes.clone());
            !black_hole.get()
        }),
    );
    last
}

/// Puts `seg` on the wire from `from`'s link address to the other's, as
/// if that engine had sent it.
fn inject(p: &Pair, from: u8, seg: &TcpSegment) {
    let frame = seg.clone().encode_buf(None).expect("encodes");
    p.link.endpoint(from).send(from, 1 - from, frame).expect("the link takes it");
}

/// (i) One hole with 64 full segments behind it, under a 256 KB window:
/// the receiver keeps all 64 — it advertised room for them — its SACK
/// says so, and the hole is the only thing ever sent twice.
#[test]
fn the_receiver_keeps_what_its_window_promised() {
    let mut p = Pair::new(wide(), wide());
    let (client, child, streamed) = warmed_up(&mut p, 70);
    let hole = p.a.core_of(client).unwrap().tcb().seq().snd_nxt;
    let blocked = Rc::new(Cell::new(true));
    let still_blocked = blocked.clone();
    let sends = tap_toward_b(&p, move |seq| seq == hole && still_blocked.get());

    let payload = pattern(65 * MSS as usize);
    assert_eq!(p.a.send_data(client, &payload).unwrap(), payload.len());
    p.settle();

    let behind_the_hole = [(hole + MSS, hole + 65 * MSS)];
    let rx = p.b.core_of(child).unwrap().tcb();
    assert_eq!(rx.recv_side().out_of_order().len(), 64, "every segment behind the hole is held");
    assert_eq!(*rx.recv_side().sack_blocks_to_send(), behind_the_hole);
    let tx = p.a.core_of(client).unwrap().tcb();
    assert_eq!(tx.send_side().sack_scoreboard(), behind_the_hole, "and the sender knows it");
    assert_eq!(sends.borrow()[&hole.0], 2, "the third duplicate resent the hole (into the filter)");

    // The fast retransmission was lost too, which only the timer sees.
    blocked.set(false);
    p.run_for(1_100, 100);
    assert_eq!(p.data_of(1, child)[streamed.len()..], payload[..]);
    assert!(p.b.core_of(child).unwrap().tcb().recv_side().out_of_order().is_empty());
    for (seq, times) in sends.borrow().iter() {
        assert_eq!(*times, if *seq == hole.0 { 3 } else { 1 }, "segment {seq} went out {times} times");
    }
}

/// (ii) Most of the tail of a 32-segment flight and every ACK lost, the
/// timer fired once: one `Rto`, then the rest of the old flight leaves
/// under slow start — 1, 2, 4 … segments per round of ACKs — less what
/// the scoreboard shows arrived, and every byte is delivered.
#[test]
fn a_timeout_resends_the_old_flight_under_slow_start() {
    let mut p = Pair::new(wide(), wide());
    let (client, child, streamed) = warmed_up(&mut p, 40);
    let base = p.a.core_of(client).unwrap().tcb().seq().snd_nxt;
    // Segments 20..=30 are lost; 31 arrives, out of order.
    let lossy = Rc::new(Cell::new(true));
    let (still_lossy, acks_lost) = (lossy.clone(), lossy.clone());
    let sends =
        tap_toward_b(&p, move |seq| still_lossy.get() && (20 * MSS..31 * MSS).contains(&seq.since(base)));
    tap_toward_a(&p, acks_lost);

    let payload = pattern(32 * MSS as usize);
    assert_eq!(p.a.send_data(client, &payload).unwrap(), payload.len());
    p.settle();
    assert_eq!(p.a.core_of(client).unwrap().tcb().seq().snd_una, base, "no ACK came back");
    let rto_fires = p.a.stats().rto_fires;

    // The link heals and the retransmission timer (one second: the RTT
    // of this link is nothing) expires.
    lossy.set(false);
    p.link.advance_to(p.now() + VirtualDuration::from_millis(1_000));
    let sent_so_far = || sends.borrow().values().sum::<u32>();
    let mut rounds = Vec::new();
    let (a, b) = (&mut p.a, &mut p.b);
    simnet::settle(&[&p.link], |now| {
        let before = sent_so_far();
        let moved = a.step(now) | b.step(now);
        rounds.push(sent_so_far() - before);
        moved
    });
    rounds.retain(|n| *n > 0);

    assert_eq!(p.a.stats().rto_fires, rto_fires + 1, "exactly one timeout");
    assert_eq!(rounds, [1, 2, 4, 5], "the front segment, then the eleven lost ones under slow start");
    assert_eq!(p.a.stats().recoveries, 0, "none of it was fast recovery");
    assert_eq!(sends.borrow()[&(base + 31 * MSS).0], 1, "the SACKed last segment is never resent");
    assert_eq!(p.data_of(1, child)[streamed.len()..], payload[..]);
    assert!(p.a.core_of(client).unwrap().tcb().seq().recovery.is_none(), "the episode is over");
}

/// (iii) After a timeout, duplicate ACKs for data below the recovery
/// point are the echo of the sender's own retransmissions: three of
/// them enter no fast recovery and halve no window (RFC 6582 §4).
#[test]
fn duplicates_after_a_timeout_enter_no_fast_recovery() {
    let mut p = Pair::new(wide(), wide());
    let (client, _child, _) = warmed_up(&mut p, 16);
    let last_ack = tap_toward_a(&p, Rc::new(Cell::new(false)));
    // One more exchange, so the tap holds b's latest ACK: it
    // acknowledges everything sent so far and states the current window.
    p.a.send_data(client, b"x").unwrap();
    p.settle();
    let ack = TcpSegment::decode_buf(last_ack.borrow().as_ref().expect("b acknowledged"), None).unwrap();
    assert_eq!(ack.header.ack, p.a.core_of(client).unwrap().tcb().seq().snd_nxt);

    p.link.set_filter_toward(1, Box::new(|_, _| false));
    p.a.send_data(client, &pattern(8 * MSS as usize)).unwrap();
    p.settle();
    p.link.advance_to(p.now() + VirtualDuration::from_millis(1_000));
    p.settle();
    let after_rto = p.a.stats();
    assert_eq!(after_rto.rto_fires, 1);
    let (cwnd, ssthresh) = {
        let tcb = p.a.core_of(client).unwrap().tcb();
        assert!(tcb.seq().recovery.is_some_and(|r| r.by_rto));
        (tcb.cc().cwnd(), tcb.cc().ssthresh())
    };

    for _ in 0..5 {
        inject(&p, 1, &ack);
    }
    p.settle();
    let stats = p.a.stats();
    assert_eq!(stats.recoveries, after_rto.recoveries, "no RecoveryEntered");
    assert_eq!(stats.fast_retransmits, after_rto.fast_retransmits);
    assert_eq!(stats.segments_sent, after_rto.segments_sent, "and nothing was sent on their account");
    let tcb = p.a.core_of(client).unwrap().tcb();
    assert_eq!(tcb.seq().dup_acks, 5, "they were duplicates");
    assert_eq!((tcb.cc().cwnd(), tcb.cc().ssthresh()), (cwnd, ssthresh));
}

/// (iv) During fast recovery, a pure ACK of new data whose window field
/// has not changed has header prediction's shape — and if it carries a
/// SACK block the scoreboard must still see it.
#[test]
fn a_partial_ack_with_sack_blocks_reaches_the_scoreboard() {
    let mut p = Pair::new(wide(), wide());
    let (client, _child, _) = warmed_up(&mut p, 16);
    let base = p.a.core_of(client).unwrap().tcb().seq().snd_nxt;
    // Segments 0 and 5 of the next flight never arrive.
    tap_toward_b(&p, move |seq| [0, 5 * MSS].contains(&seq.since(base)));
    let last_ack = tap_toward_a(&p, Rc::new(Cell::new(false)));
    p.a.send_data(client, &pattern(10 * MSS as usize)).unwrap();
    p.settle();
    let tcb = p.a.core_of(client).unwrap().tcb();
    assert!(tcb.seq().recovery.is_some_and(|r| !r.by_rto), "three duplicates entered fast recovery");
    let segment_5 = (base + 5 * MSS, base + 6 * MSS);
    assert!(!tcb.send_side().sacked(segment_5.0, segment_5.1));

    // b's last duplicate ACK, rewritten: it now acknowledges segment 0
    // and reports segment 5. Same window, no payload, in sequence.
    let mut ack =
        TcpSegment::decode_buf(last_ack.borrow().as_ref().expect("b sent duplicates"), None).unwrap();
    assert_eq!(ack.header.ack, base);
    ack.header.ack = base + MSS;
    let mut options = TcpOptions::new();
    if let Some((tsval, tsecr)) = ack.header.timestamps() {
        options.push(TcpOption::Timestamps(tsval, tsecr)).unwrap();
    }
    options.push(TcpOption::Sack([segment_5].into_iter().collect())).unwrap();
    ack.header.options = options;
    inject(&p, 1, &ack);
    p.settle();

    let tcb = p.a.core_of(client).unwrap().tcb();
    assert_eq!(tcb.seq().snd_una, base + MSS, "it was a partial ACK");
    assert!(tcb.seq().recovery.is_some(), "below the recovery point");
    assert!(tcb.send_side().sacked(segment_5.0, segment_5.1), "and its SACK block was read");
    assert_eq!(tcb.send_side().sack_scoreboard(), [(base + MSS, base + 10 * MSS)]);
}

/// (v) A flood of one-byte out-of-order segments: the queue takes what
/// fits its three bounds — ranges, entries, bytes — and no more, whether
/// the bytes are scattered (a hole between each) or contiguous.
#[test]
fn one_byte_segments_cannot_outgrow_the_reassembly_queue() {
    let mut p = Pair::new(wide(), wide());
    let (client, child, _) = warmed_up(&mut p, 2);
    // A data segment of a's to take the header from.
    let last_data = Rc::new(RefCell::new(None));
    let tap = last_data.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_, bytes| {
            *tap.borrow_mut() = Some(bytes.clone());
            true
        }),
    );
    p.a.send_data(client, b"x").unwrap();
    p.settle();
    let mut seg = TcpSegment::decode_buf(last_data.borrow().as_ref().unwrap(), None).unwrap();
    let rcv_nxt = p.b.core_of(child).unwrap().tcb().seq().rcv_nxt;

    seg.payload = vec![0x5a].into();
    for i in 0..4096 {
        seg.header.seq = rcv_nxt + 2 + 2 * i;
        inject(&p, 0, &seg);
    }
    p.settle();
    let rx = p.b.core_of(child).unwrap().tcb();
    assert_eq!(
        rx.recv_side().out_of_order_ranges().count(),
        MAX_OUT_OF_ORDER,
        "scattered bytes stop at the range bound"
    );
    assert_eq!(rx.recv_side().out_of_order().len(), MAX_OUT_OF_ORDER);

    // The same flood again, contiguous from where the last range ends.
    let last_range_end = rx.recv_side().out_of_order_ranges().last().expect("32 ranges").1;
    for i in 0..4096 {
        seg.header.seq = last_range_end + i;
        inject(&p, 0, &seg);
    }
    p.settle();
    let rx = p.b.core_of(child).unwrap().tcb();
    assert_eq!(rx.max_out_of_order_entries(), 2 * 256 * 1024 / MSS as usize);
    assert_eq!(
        rx.recv_side().out_of_order().len(),
        rx.max_out_of_order_entries(),
        "contiguous bytes stop at the entry bound"
    );
    assert_eq!(
        rx.recv_side().out_of_order_ranges().count(),
        MAX_OUT_OF_ORDER,
        "having only extended the last range"
    );
    rx.check_invariants();
    assert_eq!(rx.seq().rcv_nxt, rcv_nxt, "none of it was in order");
}
