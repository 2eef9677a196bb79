//! Property-based adversarial tests: arbitrary segments against the
//! Receive module, and whole-engine transfers over randomly failing
//! links. The quasi-synchronous design's promise is determinism and
//! testability; these properties pin down the safety side — no input
//! sequence may panic the stack or corrupt its invariants.

use foxbasis::buf::BufPool;
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxtcp::control::segment;
use foxtcp::tcb::TcpState;
use foxtcp::testlink::{immediate, Pair};
use foxtcp::{ConnCore, TcpConfig};
use foxwire::tcp::{TcpFlags, TcpHeader, TcpSegment};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone)]
struct ArbSegment {
    seq: u32,
    ack: u32,
    flags: u8,
    window: u16,
    payload_len: usize,
}

fn arb_segment() -> impl Strategy<Value = ArbSegment> {
    (any::<u32>(), any::<u32>(), 0u8..64, any::<u16>(), 0usize..2000).prop_map(
        |(seq, ack, flags, window, payload_len)| ArbSegment { seq, ack, flags, window, payload_len },
    )
}

/// Segments biased toward the connection's live window, where the
/// interesting branches are.
fn biased_segment(base_seq: u32, base_ack: u32) -> impl Strategy<Value = ArbSegment> {
    (-20_000i64..20_000, -20_000i64..20_000, 0u8..64, any::<u16>(), 0usize..1600).prop_map(
        move |(dseq, dack, flags, window, payload_len)| ArbSegment {
            seq: (base_seq as i64).wrapping_add(dseq) as u32,
            ack: (base_ack as i64).wrapping_add(dack) as u32,
            flags,
            window,
            payload_len,
        },
    )
}

fn to_segment(a: &ArbSegment) -> TcpSegment {
    let mut h = TcpHeader::new(4000, 80);
    h.seq = Seq(a.seq);
    h.ack = Seq(a.ack);
    h.flags = TcpFlags::from_u8(a.flags);
    h.window = a.window;
    TcpSegment { header: h, payload: vec![0x7u8; a.payload_len].into() }
}

fn estab_core() -> ConnCore<u8> {
    let cfg = TcpConfig::default();
    let mut core: ConnCore<u8> = ConnCore::new(&cfg, 80, Seq(1_000_000), 1460, BufPool::new());
    core.remote = Some((9, 4000));
    core.state = TcpState::Estab;
    core.tcb.mss = 1000;
    core.tcb.snd_una = Seq(1_000_001);
    core.tcb.snd_nxt = Seq(1_000_001);
    core.tcb.irs = Seq(5_000_000);
    core.tcb.rcv_nxt = Seq(5_000_001);
    core.tcb.snd_wnd = 4096;
    core
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No arbitrary segment sequence can panic SEGMENT-ARRIVES or break
    /// the TCB invariants, from ESTABLISHED.
    #[test]
    fn receive_dag_is_total_from_estab(
        segs in proptest::collection::vec(arb_segment(), 1..40),
    ) {
        let cfg = TcpConfig::default();
        let mut core = estab_core();
        for (i, a) in segs.iter().enumerate() {
            let _ = segment::segment_arrives(&cfg, &mut core, to_segment(a), VirtualTime::from_millis(i as u64));
            core.tcb.clear_pending_actions();
            core.tcb.check_invariants();
            if core.state == TcpState::Closed {
                break;
            }
        }
    }

    /// Same, with segments biased into the live window (deeper branches).
    #[test]
    fn receive_dag_is_total_near_window(
        segs in proptest::collection::vec(biased_segment(5_000_001, 1_000_001), 1..40),
    ) {
        let cfg = TcpConfig::default();
        let mut core = estab_core();
        for (i, a) in segs.iter().enumerate() {
            let _ = segment::segment_arrives(&cfg, &mut core, to_segment(a), VirtualTime::from_millis(i as u64));
            core.tcb.clear_pending_actions();
            core.tcb.check_invariants();
            if core.state == TcpState::Closed {
                break;
            }
        }
    }

    /// Every non-listen state survives arbitrary segments.
    #[test]
    fn receive_dag_is_total_in_all_states(
        state_ix in 0usize..9,
        segs in proptest::collection::vec(biased_segment(5_000_001, 1_000_001), 1..25),
    ) {
        let states = [
            TcpState::SynSent { retries_left: 3 },
            TcpState::SynActive,
            TcpState::SynPassive { retries_left: 3 },
            TcpState::Estab,
            TcpState::FinWait1,
            TcpState::FinWait2,
            TcpState::CloseWait,
            TcpState::Closing,
            TcpState::TimeWait,
        ];
        let cfg = TcpConfig::default();
        let mut core = estab_core();
        core.state = states[state_ix].clone();
        if matches!(core.state, TcpState::FinWait1 | TcpState::Closing) {
            core.tcb.fin_seq = Some(core.tcb.snd_nxt);
            core.tcb.snd_nxt += 1;
        }
        for (i, a) in segs.iter().enumerate() {
            let _ = segment::segment_arrives(&cfg, &mut core, to_segment(a), VirtualTime::from_millis(i as u64));
            core.tcb.clear_pending_actions();
            core.tcb.check_invariants();
            if core.state == TcpState::Closed {
                break;
            }
        }
    }
}

// Whole-engine property: under an arbitrary drop pattern, a transfer
// either completes with a byte-exact stream or makes no false delivery
// — the received bytes are always a prefix of what was sent.
//
// The body lives in `stream_prefix_property` so the checked-in
// regression case (see fuzz.proptest-regressions) can be replayed as an
// explicit test below, independent of the fuzzer's seed decoding.
fn stream_prefix_property(drop_mask: &[bool], payload_len: usize) {
    let cfg = immediate();
    let mut p = Pair::new(cfg.clone(), cfg);

    // Drop frames toward the server according to the mask, cycling.
    let mask = drop_mask.to_vec();
    let idx = Rc::new(RefCell::new(0usize));
    let i2 = idx.clone();
    p.link.set_filter_toward(
        1,
        Box::new(move |_| {
            let mut i = i2.borrow_mut();
            let keep = !mask[*i % mask.len()];
            *i += 1;
            keep
        }),
    );

    let conn = p.connect(80).id();
    let payload: Vec<u8> = (0..payload_len as u32).map(|i| (i % 251) as u8).collect();

    // The handshake itself runs through the drop mask, so the child is
    // adopted whenever it first appears (it buffers its events until
    // then).
    let mut sent = 0;
    let mut child = None;
    for _ in 0..4_000 {
        if sent < payload.len() {
            sent += p.a.send_data(conn, &payload[sent..]).unwrap_or(0);
        }
        p.tick(100);
        child = child.or_else(|| p.accept());
        if p.b.stats().bytes_delivered >= payload.len() as u64 {
            break;
        }
    }
    let received = child.map_or(Vec::new(), |c| p.data_of(1, c.id()));
    // The received stream must be an exact prefix — never reordered,
    // never duplicated, never corrupted.
    assert!(received.len() <= payload.len());
    assert_eq!(&received[..], &payload[..received.len()]);
    // Completion can only be demanded when the adversary's drop
    // runs are short: a long run is indistinguishable from a dead
    // link, where giving up (the user timeout) is the *correct*
    // behavior. Bound the cyclic run length at 3.
    let doubled: Vec<bool> = drop_mask.iter().chain(drop_mask.iter()).copied().collect();
    let max_run = doubled.split(|d| !*d).map(|run| run.len()).max().unwrap_or(0);
    if max_run <= 3 {
        assert_eq!(received.len(), payload.len(), "transfer wedged (max drop run {max_run})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_stream_is_always_an_exact_prefix(
        drop_mask in proptest::collection::vec(any::<bool>(), 64),
        payload_len in 1usize..20_000,
    ) {
        stream_prefix_property(&drop_mask, payload_len);
    }
}

/// The checked-in shrunk counterexample from fuzz.proptest-regressions:
/// two six-frame drop bursts (indices 5–10 and 14–19 of the cyclic
/// mask) against an 8193-byte transfer. Before fast recovery handled
/// partial ACKs, this pattern wedged the transfer into repeated
/// timeouts past the driver's iteration budget. Replayed explicitly so
/// the pin survives even if the fuzzer's seed format changes.
#[test]
fn regression_burst_drops_payload_8193() {
    let mut drop_mask = vec![false; 64];
    for i in (5..=10).chain(14..=19) {
        drop_mask[i] = true;
    }
    stream_prefix_property(&drop_mask, 8193);
}
