//! Property-based adversarial tests of the Receive module: arbitrary
//! segments against SEGMENT-ARRIVES, from every synchronized state. The
//! quasi-synchronous design's promise is determinism and testability;
//! these properties pin down the safety side — no input sequence may
//! panic the receive DAG or corrupt the TCB's invariants, and what the
//! SYNs agreed stays agreed. They start from states and sequence points
//! no handshake would hand them, so they live inside the crate, where
//! the fixture that places a connection there is visible.

use crate::control::{segment, state};
use crate::data::transfer::Fixture;
use crate::{ConnCore, TcpConfig, TcpState};
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpSegment};
use proptest::prelude::*;

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
    h.window = wire_window(u32::from(a.window), 0);
    TcpSegment { header: h, payload: vec![0x7u8; a.payload_len].into() }
}

/// ESTABLISHED with every option agreed, so that there is something
/// for a segment to renegotiate.
fn estab_core() -> ConnCore {
    let cfg = TcpConfig { window_scale: true, sack: true, timestamps: true, ..TcpConfig::default() };
    Fixture { cfg, snd: Seq(1_000_001), rcv: Seq(5_000_001), peer_wscale: 2, ..Fixture::default() }.core()
}

/// Feeds `segs` to `core` one at a time, checking the TCB after each,
/// until the connection closes. Once synchronized, a connection's
/// [`crate::data::transfer::Negotiated`] is read-only: no segment may
/// change it.
fn feed(core: &mut ConnCore, segs: &[ArbSegment]) {
    let cfg = TcpConfig::default();
    for (i, a) in segs.iter().enumerate() {
        let (agreed, synchronized) = (core.tcb.negotiated(), core.state.is_synchronized());
        let _ = segment::segment_arrives(&cfg, core, to_segment(a), VirtualTime::from_millis(i as u64));
        core.tcb.to_do.clear();
        core.tcb.check_invariants();
        assert!(!synchronized || core.tcb.negotiated() == agreed, "a segment renegotiated: {a:?}");
        if core.state == TcpState::Closed {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No arbitrary segment sequence can panic SEGMENT-ARRIVES or break
    /// the TCB invariants, from ESTABLISHED.
    #[test]
    fn receive_dag_is_total_from_estab(
        segs in proptest::collection::vec(arb_segment(), 1..40),
    ) {
        feed(&mut estab_core(), &segs);
    }

    /// Same, with segments biased into the live window (deeper branches).
    #[test]
    fn receive_dag_is_total_near_window(
        segs in proptest::collection::vec(biased_segment(5_000_001, 1_000_001), 1..40),
    ) {
        feed(&mut estab_core(), &segs);
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
        let mut core = estab_core();
        if matches!(states[state_ix], TcpState::FinWait1 | TcpState::Closing) {
            state::close(&TcpConfig::default(), &mut core, VirtualTime::ZERO).unwrap(); // our FIN in flight
            core.tcb.to_do.clear();
        }
        core.state.force(states[state_ix].clone());
        feed(&mut core, &segs);
    }
}
