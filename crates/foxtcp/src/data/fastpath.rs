//! The fast path (paper §4): "We have however implemented fast-path
//! receive and send routines which handle the normal cases quickly, and
//! defer to the full code for the less common cases."
//!
//! This is Van Jacobson's header prediction, specialized to the two
//! common cases of an established bulk connection:
//!
//! 1. a pure in-sequence ACK of new data with no window change — the
//!    sender's steady state;
//! 2. a pure in-sequence data segment with nothing new in its ACK field
//!    — the receiver's steady state.
//!
//! Anything else returns `false` and falls through to the Receive
//! module's full SEGMENT-ARRIVES DAG — in particular any segment that
//! carries SACK blocks on a connection that negotiated them: the blocks
//! are the sender's only view of what survived a loss, and the header
//! prediction above knows nothing of options.

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::data::{resend, send, transfer};
use crate::{ConnCore, TcpConfig, TcpState};
use foxbasis::time::VirtualTime;
use foxwire::tcp::TcpSegment;

/// Attempts fast-path processing; returns `true` if the segment was
/// fully handled.
pub fn try_fast(cfg: &TcpConfig, core: &mut ConnCore, seg: &TcpSegment, now: VirtualTime) -> bool {
    if core.state != TcpState::Estab {
        return false;
    }
    let h = &seg.header;
    // Header prediction: flags must be exactly ACK, sequence must be
    // exactly what we expect, and the window must not change.
    if h.flags.syn || h.flags.fin || h.flags.rst || h.flags.urg || !h.flags.ack {
        return false;
    }
    if h.seq != core.tcb.rcv_nxt {
        return false;
    }
    // The wire field is compared post-scaling: with wscale negotiated an
    // unchanged 16-bit field still predicts an unchanged true window.
    if core.tcb.neg.scale_peer_window(h.window, false) != core.tcb.snd_wnd {
        return false;
    }
    // SACK blocks are loss-recovery input (RFC 2018): only the full
    // path's ACK processing folds them into the scoreboard, and a
    // partial ACK that carries them must not be consumed without that.
    // Declined before the timestamp step, so nothing runs twice.
    if core.tcb.neg.sack_on() && !h.sack_blocks().is_empty() {
        return false;
    }
    // RFC 7323's fast-path timestamp check: PAWS-reject old segments,
    // and keep TS.Recent / the pending echo fresh for RTTM.
    if !transfer::process_timestamps(core, h, now) {
        return true; // dropped and re-ACKed: fully handled
    }

    if seg.payload.is_empty() {
        // Case 1: pure ACK of new data.
        if h.ack.in_open_closed(core.tcb.snd_una, core.tcb.snd_nxt) {
            resend::process_ack(cfg, core, h.ack, now);
            // The slow path runs update_send_window on every acceptable
            // ACK. The window is unchanged here (predicate above), but
            // WL1/WL2 must still advance or they go stale: once rcv_nxt
            // outruns a stale snd_wl1 by 2^31, the wrapping comparison
            // in the WL rules inverts and a legitimate later window
            // update is rejected.
            core.tcb.snd_wl1 = h.seq;
            core.tcb.snd_wl2 = h.ack;
            send::maybe_send(cfg, core, now);
            return true;
        }
        false
    } else {
        // Case 2: pure in-order data, nothing new acknowledged, the
        // whole payload fits our buffer, and no reassembly for the full
        // path to manage.
        if h.ack != core.tcb.snd_una || !core.tcb.fits_in_order(seg.payload.len()) {
            return false;
        }
        // Keep WL1/WL2 fresh exactly as the slow path's
        // update_send_window would (window unchanged by predicate).
        (core.tcb.snd_wl1, core.tcb.snd_wl2) = (h.seq, h.ack);
        // Delivered — with the same user-boundary copy the slow path
        // pays, the only time the receive side touches the payload after
        // its checksum, and deliberately outside the copy counter: the
        // paper keeps the user copy out of its benchmarks — and ACKed or
        // not by the slow path's own rule.
        transfer::take_in_order(cfg, core, seg, now);
        // The slow path ends every non-duplicate segment with a send
        // attempt; without it, data queued while this (bidirectional)
        // segment was processed would sit until the next timer.
        send::maybe_send(cfg, core, now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::transfer::Fixture;
    use crate::testlink::no_nagle;
    use foxbasis::seq::Seq;
    use foxwire::tcp::{wire_window, TcpFlags, TcpHeader};

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

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

    #[test]
    fn pure_ack_taken_fast() {
        let mut core = with_flight();
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 600, 4096, b""), VirtualTime::ZERO));
        assert_eq!(core.tcb.snd_una, Seq(600));
        assert!(core.tcb.snd.resend_queue().is_empty());
    }

    #[test]
    fn pure_data_taken_fast() {
        let mut core = estab();
        let payload = vec![9u8; 700];
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, &payload), VirtualTime::ZERO));
        assert_eq!(core.tcb.rcv_nxt, Seq(5700));
        let tags: Vec<_> = core.tcb.to_do.drain_all().iter().map(|a| a.tag()).collect();
        assert!(tags.contains(&"User_Data"));
    }

    #[test]
    fn rejects_non_estab() {
        let mut core = estab();
        core.state.force(TcpState::FinWait1);
        assert!(!try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, b"x"), VirtualTime::ZERO));
    }

    #[test]
    fn rejects_flag_anomalies() {
        let mut core = estab();
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.fin = true;
        assert!(!try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.syn = true;
        assert!(!try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
        let mut s = seg(5000, 100, 4096, b"");
        s.header.flags.ack = false;
        assert!(!try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
    }

    #[test]
    fn rejects_out_of_sequence() {
        let mut core = estab();
        assert!(!try_fast(&cfg(), &mut core, &seg(5001, 100, 4096, b"late"), VirtualTime::ZERO));
    }

    #[test]
    fn rejects_window_change() {
        let mut core = estab();
        assert!(!try_fast(&cfg(), &mut core, &seg(5000, 100, 2048, b""), VirtualTime::ZERO));
    }

    #[test]
    fn rejects_old_ack_as_pure_ack() {
        let mut core = estab();
        core.tcb.snd_una = Seq(200);
        core.tcb.snd_nxt = Seq(600);
        assert!(!try_fast(&cfg(), &mut core, &seg(5000, 200, 4096, b""), VirtualTime::ZERO));
    }

    #[test]
    fn rejects_data_when_reassembly_pending() {
        let mut core = estab();
        core.tcb.insert_out_of_order(Seq(6000), vec![1; 10], false);
        assert!(!try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, b"abc"), VirtualTime::ZERO));
    }

    #[test]
    fn fast_path_advances_wl_state() {
        // Both fast-path cases must leave snd_wl1/snd_wl2 exactly where
        // the slow path's update_send_window would.
        let mut core = with_flight();
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 600, 4096, b""), VirtualTime::ZERO));
        assert_eq!(core.tcb.snd_wl1, Seq(5000), "case 1 must advance WL1");
        assert_eq!(core.tcb.snd_wl2, Seq(600), "case 1 must advance WL2");

        let mut core = estab();
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, &[9u8; 700]), VirtualTime::ZERO));
        assert_eq!(core.tcb.snd_wl1, Seq(5000), "case 2 must advance WL1");
        assert_eq!(core.tcb.snd_wl2, Seq(100), "case 2 must advance WL2");
    }

    #[test]
    fn window_update_accepted_after_long_fast_path_run() {
        // Regression: header prediction never advanced snd_wl1, so once
        // rcv_nxt outran the stale value by >= 2^31 the wrapping WL
        // comparison inverted and a legitimate window update from the
        // peer was silently refused.
        let mut core = estab();
        core.tcb.snd_wl1 = Seq(5000u32.wrapping_sub(0x8000_0001));
        core.tcb.snd_wl2 = Seq(100);
        // The stale WL1 now compares "ahead of" the current sequence.
        assert!(!core.tcb.snd_wl1.lt(Seq(5000)));

        // A fast-path data segment (what a long bulk receive is made of).
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, &[7u8; 100]), VirtualTime::ZERO));

        // The peer opens its window: a pure ACK with a new window. The
        // fast path refuses it (window change) and the full DAG must
        // accept the update.
        let upd = seg(5100, 100, 8192, b"");
        let _ = crate::control::segment::segment_arrives(&cfg(), &mut core, upd, VirtualTime::ZERO);
        assert_eq!(
            core.tcb.snd_wnd, 8192,
            "a legitimate window update must not be rejected by stale WL state"
        );
    }

    #[test]
    fn fast_path_data_segment_flushes_queued_sends_like_slow_path() {
        // The slow path ends every acceptable segment with maybe_send;
        // the fast path's data case skipped it, stranding queued data on
        // bidirectional connections until the next timer or ACK.
        let mut core = estab();
        // Queued, as if the window had just kept us from sending it.
        assert_eq!(core.tcb.snd.write(&[5u8; 300]), 300);

        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, &[9u8; 200]), VirtualTime::ZERO));
        let tags: Vec<_> = core.tcb.to_do.drain_all().iter().map(|a| a.tag()).collect();
        assert!(
            tags.contains(&"Send_Segment"),
            "fast path must attempt to send queued data like the slow path, got {tags:?}"
        );
    }

    #[test]
    fn scaled_window_predicts_correctly() {
        // snd_wnd 4096 with shift 4 means the wire field reads 256; the
        // fast path must compare post-scaling or every segment of a
        // wscale connection falls to the slow path.
        let scaled =
            Fixture { cfg: TcpConfig { window_scale: true, ..cfg() }, peer_wscale: 4, ..Fixture::default() };
        let mut core = scaled.core();
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 256, &[3u8; 50]), VirtualTime::ZERO));
        assert_eq!(core.tcb.rcv_nxt, Seq(5050));
        // And a genuinely changed window still falls through.
        let mut core = scaled.core();
        assert!(!try_fast(&cfg(), &mut core, &seg(5000, 100, 128, b""), VirtualTime::ZERO));
    }

    #[test]
    fn paws_checked_on_fast_path() {
        use foxwire::tcp::TcpOption;
        let mut core = stamped();
        let mut s = seg(5000, 100, 4096, &[1u8; 10]);
        s.header.options.push(TcpOption::Timestamps(499, 0)).unwrap();
        assert!(try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO), "PAWS drop is a handled segment");
        assert_eq!(core.tcb.rcv_nxt, Seq(5000), "old-timestamp data not consumed");
        let mut s = seg(5000, 100, 4096, &[1u8; 10]);
        s.header.options.push(TcpOption::Timestamps(501, 0)).unwrap();
        assert!(try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
        assert_eq!(core.tcb.rcv_nxt, Seq(5010));
        // TS.Recent is 501 now, so a segment stamped 500 is old.
        let mut s = seg(5010, 100, 4096, &[1u8; 10]);
        s.header.options.push(TcpOption::Timestamps(500, 0)).unwrap();
        assert!(try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
        assert_eq!(core.tcb.rcv_nxt, Seq(5010), "TS.Recent advanced");
    }

    /// `estab()` with timestamps agreed and TS.Recent at 500.
    fn stamped() -> ConnCore {
        Fixture { cfg: TcpConfig { timestamps: true, ..cfg() }, ts_recent: 500, ..Fixture::default() }.core()
    }

    #[test]
    fn paws_drop_on_fast_path_emits_duplicate_ack() {
        // Regression pin for the "dropped and re-ACKed: fully handled"
        // claim above: a PAWS-rejected segment taken on the fast path
        // must leave a duplicate ACK in the to_do queue, exactly as the
        // slow path's PAWS drop does (RFC 7323 §5.3: "Send an
        // acknowledgment in reply"). The engine drains to_do after
        // try_fast returns, so an action here *is* an emitted segment.
        use foxwire::tcp::TcpOption;
        let mut core = stamped();
        let mut s = seg(5000, 100, 4096, &[1u8; 10]);
        s.header.options.push(TcpOption::Timestamps(499, 0)).unwrap();
        assert!(try_fast(&cfg(), &mut core, &s, VirtualTime::ZERO));
        let acks = core.tcb.drain_segments();
        assert_eq!(acks.len(), 1, "exactly one re-ACK must be staged, got {acks:?}");
        let h = &acks[0].header;
        assert!(h.flags.ack && !h.flags.syn && !h.flags.fin && !h.flags.rst);
        assert_eq!(h.ack, Seq(5000), "the re-ACK must re-assert rcv_nxt");
        assert_eq!(h.seq, Seq(100), "the re-ACK carries snd_nxt");

        // And the same drop on the *slow* path stages the same ACK —
        // the parity the fast path's early return claims.
        let mut core = stamped();
        let mut s = seg(5000, 100, 4096, &[1u8; 10]);
        s.header.options.push(TcpOption::Timestamps(499, 0)).unwrap();
        let _ = crate::control::segment::segment_arrives(&cfg(), &mut core, s, VirtualTime::ZERO);
        let slow_acks: Vec<_> = core.tcb.drain_segments().iter().map(|s| s.header.ack).collect();
        assert_eq!(slow_acks, vec![Seq(5000)], "slow-path PAWS drop must stage the same re-ACK");
    }

    #[test]
    fn rejects_data_when_buffer_tight() {
        let mut core = estab();
        assert!(try_fast(&cfg(), &mut core, &seg(5000, 100, 4096, &[1u8; 4086]), VirtualTime::ZERO));
        assert!(!try_fast(&cfg(), &mut core, &seg(9086, 100, 4096, &[1u8; 20]), VirtualTime::ZERO));
    }
}
