//! Property-based adversarial tests of the Receive module: arbitrary
//! segments against SEGMENT-ARRIVES, from every synchronized state. The
//! quasi-synchronous design's promise is determinism and testability;
//! these properties pin down the safety side — no input sequence may
//! panic the receive DAG or corrupt the TCB's invariants. They start
//! from states and sequence points no handshake would hand them, so
//! they live inside the crate, where the test hooks that place a
//! connection there are visible.

use crate::control::segment;
use crate::{ConnCore, TcpConfig, TcpState};
use foxbasis::buf::BufPool;
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

fn estab_core() -> ConnCore<u8> {
    let cfg = TcpConfig::default();
    let mut core: ConnCore<u8> = ConnCore::new(&cfg, 80, Seq(1_000_000), 1460, BufPool::new());
    core.remote = Some((9, 4000));
    core.state.force(TcpState::Estab);
    core.tcb.mss = 1000;
    core.tcb.set_snd(Seq(1_000_001), Seq(1_000_001));
    core.tcb.set_rcv(Seq(5_000_000), Seq(5_000_001));
    core.tcb.set_snd_wnd(4096);
    core
}

/// Feeds `segs` to `core` one at a time, checking the TCB after each,
/// until the connection closes.
fn feed(core: &mut ConnCore<u8>, segs: &[ArbSegment]) {
    let cfg = TcpConfig::default();
    for (i, a) in segs.iter().enumerate() {
        let _ = segment::segment_arrives(&cfg, core, to_segment(a), VirtualTime::from_millis(i as u64));
        core.tcb.clear_pending_actions();
        core.tcb.check_invariants();
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
        core.state.force(states[state_ix].clone());
        if matches!(*core.state, TcpState::FinWait1 | TcpState::Closing) {
            let nxt = core.tcb.snd_nxt();
            core.tcb.fin_seq = Some(nxt);
            core.tcb.set_snd(core.tcb.snd_una(), nxt + 1);
        }
        feed(&mut core, &segs);
    }
}
