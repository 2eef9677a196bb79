//! Header prediction (paper §4), kept as a count. The paper: "We have
//! however implemented fast-path receive and send routines which handle
//! the normal cases quickly, and defer to the full code for the less
//! common cases."
//!
//! This is Van Jacobson's header prediction, specialized to the two
//! common cases of an established bulk connection:
//!
//! 1. a pure in-sequence ACK of new data with no window change — the
//!    sender's steady state;
//! 2. a pure in-sequence data segment with nothing new in its ACK field
//!    — the receiver's steady state.
//!
//! [`predicted`] says whether a segment is one of them and changes
//! nothing. The engine counts its answer into `TcpStats::fastpath_hits`
//! and `fastpath_misses` — the §4 story is that hit rate — and then
//! hands every segment to the Receive module's one SEGMENT-ARRIVES DAG.
//! A second routine for these two shapes moved no virtual-time or exact
//! figure, and its send-window update broke RFC 793's rule
//! (EXPERIMENTS.md has what it saved in wall time).

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::data::transfer;
use crate::{ConnCore, TcpState};
use foxwire::tcp::TcpSegment;

/// True if header prediction takes `seg`: one of the two steady-state
/// shapes above, or a segment of their header that PAWS drops (a hit:
/// the drop and its re-ACK are all the processing it gets).
pub fn predicted(core: &ConnCore, seg: &TcpSegment) -> bool {
    if core.state != TcpState::Estab {
        return false;
    }
    let h = &seg.header;
    let tcb = &core.tcb;
    // Flags must be exactly ACK, the sequence exactly what we expect,
    // and the window unchanged — compared post-scaling, so with wscale
    // negotiated an unchanged 16-bit field still predicts.
    if h.flags.syn || h.flags.fin || h.flags.rst || h.flags.urg || !h.flags.ack {
        return false;
    }
    if h.seq != tcb.rcv_nxt || tcb.neg.scale_peer_window(h.window, false) != tcb.snd_wnd {
        return false;
    }
    // SACK blocks are loss-recovery input (RFC 2018), which the
    // prediction knows nothing of.
    if tcb.neg.sack_on() && !h.sack_blocks().is_empty() {
        return false;
    }
    if transfer::paws_drops(core, h) {
        return true;
    }
    if seg.payload.is_empty() {
        h.ack.in_open_closed(tcb.snd_una, tcb.snd_nxt)
    } else {
        // Nothing new acknowledged, the whole payload fits our buffer,
        // and nothing waits in reassembly.
        h.ack == tcb.snd_una && tcb.fits_in_order(seg.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::segment::segment_arrives;
    use crate::data::send;
    use crate::data::transfer::Fixture;
    use crate::testlink::no_nagle;
    use crate::TcpConfig;
    use foxbasis::seq::Seq;
    use foxbasis::time::VirtualTime;
    use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpOption};

    fn estab() -> ConnCore {
        Fixture::default().core()
    }

    /// `estab()` with one 500-byte segment from 100 in flight.
    fn with_flight() -> ConnCore {
        let mut core = estab();
        assert_eq!(send::user_send(&no_nagle(), &mut core, &[1; 500], VirtualTime::ZERO), 500);
        core.tcb.to_do.clear();
        core
    }

    fn seg(seq: u32, ack: u32, window: u32, payload: &[u8]) -> TcpSegment {
        let mut h = TcpHeader::new(2000, 1000);
        h.seq = Seq(seq);
        h.ack = Seq(ack);
        h.flags = TcpFlags::ACK;
        h.window = wire_window(window, 0);
        TcpSegment { header: h, payload: payload.into() }
    }

    /// `seg` carrying a timestamps option with this TSval.
    fn stamped_seg(seq: u32, tsval: u32, payload: &[u8]) -> TcpSegment {
        let mut s = seg(seq, 100, 4096, payload);
        s.header.options.push(TcpOption::Timestamps(tsval, 0)).unwrap();
        s
    }

    /// `estab()` with timestamps agreed and TS.Recent at 500.
    fn stamped() -> ConnCore {
        Fixture {
            cfg: TcpConfig { timestamps: true, ..TcpConfig::default() },
            ts_recent: 500,
            ..Fixture::default()
        }
        .core()
    }

    #[test]
    fn pure_ack_of_new_data_predicted() {
        assert!(predicted(&with_flight(), &seg(5000, 600, 4096, b"")));
    }

    #[test]
    fn pure_in_order_data_predicted() {
        assert!(predicted(&estab(), &seg(5000, 100, 4096, &[9u8; 700])));
    }

    #[test]
    fn rejects_non_estab() {
        let mut core = estab();
        core.state.force(TcpState::FinWait1);
        assert!(!predicted(&core, &seg(5000, 100, 4096, b"x")));
    }

    #[test]
    fn rejects_flag_anomalies() {
        let core = estab();
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.fin = true;
        assert!(!predicted(&core, &s));
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.syn = true;
        assert!(!predicted(&core, &s));
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.ack = false;
        assert!(!predicted(&core, &s));
    }

    #[test]
    fn rejects_out_of_sequence() {
        assert!(!predicted(&estab(), &seg(5001, 100, 4096, b"late")));
    }

    #[test]
    fn rejects_window_change() {
        assert!(!predicted(&estab(), &seg(5000, 100, 2048, b"")));
    }

    #[test]
    fn rejects_old_ack_as_pure_ack() {
        let core = with_flight();
        assert!(!predicted(&core, &seg(5000, 100, 4096, b"")), "nothing new acknowledged");
        assert!(!predicted(&core, &seg(5000, 700, 4096, b"")), "acknowledges unsent data");
    }

    #[test]
    fn rejects_data_when_reassembly_pending() {
        let mut core = estab();
        core.tcb.insert_out_of_order(Seq(6000), vec![1; 10], false);
        assert!(!predicted(&core, &seg(5000, 100, 4096, b"abc")));
    }

    #[test]
    fn rejects_sack_blocks_on_a_sack_connection() {
        let sack = Fixture { cfg: TcpConfig { sack: true, ..TcpConfig::default() }, ..Fixture::default() };
        let core = sack.core();
        let mut s = seg(5000, 100, 4096, b"abc");
        assert!(predicted(&core, &s));
        s.header.options.push(TcpOption::Sack([(Seq(6000), Seq(6010))].into_iter().collect())).unwrap();
        assert!(!predicted(&core, &s));
    }

    #[test]
    fn scaled_window_predicts_correctly() {
        // snd_wnd 4096 with shift 4 means the wire field reads 256; the
        // prediction must compare post-scaling or every segment of a
        // wscale connection misses.
        let scaled = Fixture {
            cfg: TcpConfig { window_scale: true, ..TcpConfig::default() },
            peer_wscale: 4,
            ..Fixture::default()
        };
        let core = scaled.core();
        assert!(predicted(&core, &seg(5000, 100, 256, &[3u8; 50])));
        // And a genuinely changed window still misses.
        assert!(!predicted(&core, &seg(5000, 100, 128, b"")));
    }

    #[test]
    fn paws_drop_is_predicted_whatever_its_ack() {
        let core = stamped();
        assert!(predicted(&core, &stamped_seg(5000, 501, &[1u8; 10])), "a current timestamp predicts");
        assert!(predicted(&core, &stamped_seg(5000, 499, &[1u8; 10])), "an old one is a PAWS drop");
        // A pure ACK of nothing new misses, unless PAWS drops it.
        assert!(!predicted(&core, &stamped_seg(5000, 501, b"")));
        assert!(predicted(&core, &stamped_seg(5000, 499, b"")));
    }

    #[test]
    fn rejects_data_when_buffer_tight() {
        let cfg = TcpConfig::default();
        let mut core = estab();
        let fill = seg(5000, 100, 4096, &[1u8; 4086]);
        assert!(predicted(&core, &fill));
        let _ = segment_arrives(&cfg, &mut core, fill, VirtualTime::ZERO);
        assert!(!predicted(&core, &seg(9086, 100, 4096, &[1u8; 20])), "ten bytes of buffer left");
    }
}
