//! The Send module: "segments outgoing data and places corresponding
//! Send_Segment actions onto the to_do queue" (paper §4).
//!
//! Nothing here transmits — transmission is the Action module's job
//! (performed by the engine when a `Send_Segment` action reaches the
//! front of the queue). This module only decides *what* may be sent
//! given the peer's window, the congestion window, MSS, and Nagle's
//! algorithm, and stages the segments.

use crate::action::TcpAction;
use crate::data::resend;
use crate::data::tcb::SentSegment;
use crate::{ConnCore, TcpConfig};
use foxbasis::buf::{BufPool, PacketBuf, DEFAULT_HEADROOM};
use foxbasis::obs::{LossEvent, TimerKind};
use foxbasis::seq::Seq;
use foxbasis::time::VirtualTime;
use foxwire::tcp::{TcpFlags, TcpHeader, TcpSegment};

/// Why no option push onto a header this module builds is refused: a
/// SYN carries at most 19 option bytes (MSS, window scale,
/// SACK-permitted, timestamps) and any later segment 36 (timestamps and
/// three SACK blocks), of the 40 there are.
pub(crate) const OPTIONS_FIT: &str = "a header's options fit the 40-byte option space";

/// The RFC 7323 timestamp clock: the virtual clock in milliseconds,
/// truncated to the 32-bit TSval field (wrap is handled by the
/// modular-arithmetic comparisons on the receive side).
pub fn ts_val(now: VirtualTime) -> u32 {
    now.as_millis() as u32
}

/// Builds a header for the current connection state: ports, `rcv_nxt`
/// acknowledgment, advertised window (scaled per the negotiation), and
/// the options the TCB says it wears (`Tcb::push_options`): a SYN's
/// negotiable set, timestamps once agreed, and — when `sack` asks, as
/// it does for everything but a retransmission — SACK blocks.
pub fn make_header(core: &ConnCore, flags: TcpFlags, seq: Seq, now: VirtualTime, sack: bool) -> TcpHeader {
    let mut h = TcpHeader::new(core.local_port, core.remote_port);
    h.seq = seq;
    h.ack = if flags.ack { core.tcb.rcv_nxt } else { Seq(0) };
    h.flags = flags;
    h.window = core.tcb.wire_window_field(flags.syn);
    core.tcb.push_options(&mut h, core.our_mss, sack, now).expect(OPTIONS_FIT);
    h
}

/// Stages a pure ACK of the current `rcv_nxt`.
pub fn queue_ack(core: &mut ConnCore, now: VirtualTime) {
    let header = make_header(core, TcpFlags::ACK, core.tcb.snd_nxt, now, true);
    core.tcb.clock.acked();
    let payload = core.pool.empty();
    core.tcb.push_action(TcpAction::SendSegment(TcpSegment { header, payload }));
}

/// Stages our SYN (active open) or SYN+ACK (passive/simultaneous open).
/// Advances `snd_nxt` over the SYN octet and records it for
/// retransmission.
pub fn queue_syn(core: &mut ConnCore, with_ack: bool, now: VirtualTime) {
    let flags = if with_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN };
    let header = make_header(core, flags, core.tcb.iss, now, true);
    let payload = core.pool.empty();
    core.tcb.push_action(TcpAction::SendSegment(TcpSegment { header, payload }));
    if core.tcb.snd_nxt == core.tcb.iss {
        let iss = core.tcb.iss;
        core.tcb.snd_nxt = iss + 1;
        resend::record_sent(&mut core.tcb, SentSegment { seq: iss, len: 0, syn: true, fin: false }, now);
    }
}

/// Stages the `len` bytes of the send buffer that start at sequence
/// number `seq` into a block of the engine's pool, with headroom for
/// every header below: the one copy a transmission makes — the first, a
/// window probe or a retransmission alike — with the checksum computed
/// while that copy has the bytes in cache (the paper's Fig. 10 combined
/// copy/checksum idea). The buffer goes down the stack by value; the
/// bytes stay in `send_buf` until they are acknowledged, so nothing
/// here or in the resend queue keeps a handle to it, and the block goes
/// home as soon as the layers below are done with it.
///
/// `send_buf` begins at `snd_una`, less the SYN's sequence number while
/// that is unacknowledged. The queue is push-back/pop-front and the SYN,
/// at `iss`, is the first thing a connection ever sends, so only the
/// front entry can carry it.
pub fn stage(core: &ConnCore, seq: Seq, len: u32) -> PacketBuf {
    let tcb = &core.tcb;
    let syn_outstanding = tcb.snd.resend_queue().front().is_some_and(|s| s.syn);
    let offset = (seq.since(tcb.snd_una) as usize).saturating_sub(usize::from(syn_outstanding));
    core.pool.build_summed(DEFAULT_HEADROOM, len as usize, |dst| {
        let (got, sum) = tcb.snd.send_buf().peek_at_sum(offset, dst);
        debug_assert_eq!(got, dst.len(), "staged bytes must be present");
        sum
    })
}

/// Stages as much pending data (and the pending FIN) as the windows
/// allow. This is the segmentation loop; each staged segment is recorded
/// in the retransmission queue.
pub fn maybe_send(cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) {
    loop {
        let tcb = &core.tcb;
        if tcb.fin_sent() {
            return; // sequence space exhausted
        }
        let unsent = tcb.unsent();
        let usable = tcb.usable_window();
        let take = unsent.min(usable).min(tcb.neg.eff_mss());

        let fin_now = tcb.snd.fin_pending() && unsent == take; // this segment (possibly empty) drains the buffer

        if take == 0 && !fin_now {
            // Nothing sendable. If data is stuck behind a closed window,
            // make sure the persist machinery is armed.
            if unsent > 0 && usable == 0 && tcb.flight_size() == 0 {
                let probe_in = tcb.persist_timeout().as_millis();
                core.tcb.push_action(TcpAction::SetTimer(TimerKind::Persist, probe_in));
            }
            return;
        }

        // Nagle: hold small segments while anything is in flight.
        if cfg.nagle && !fin_now && take < tcb.neg.eff_mss() && tcb.flight_size() > 0 && take == unsent {
            return;
        }

        let seq = tcb.snd_nxt;
        let payload = stage(core, seq, take);
        let push = take > 0 && take == unsent;
        let flags = TcpFlags { ack: true, psh: push, fin: fin_now, ..TcpFlags::default() };
        let header = make_header(core, flags, seq, now, true);
        core.tcb.push_action(TcpAction::SendSegment(TcpSegment { header, payload }));
        core.tcb.snd_nxt = seq + take + u32::from(fin_now);
        core.tcb.clock.acked();
        core.tcb.push_action(TcpAction::ClearTimer(TimerKind::DelayedAck));
        resend::record_sent(&mut core.tcb, SentSegment { seq, len: take, syn: false, fin: fin_now }, now);
        if fin_now {
            return;
        }
    }
}

/// Accepts user bytes into the send buffer (the paper's `queued` store);
/// returns how many were accepted (zero means the buffer is full — flow
/// control pushes back on the user — or the user has closed).
pub fn user_send(cfg: &TcpConfig, core: &mut ConnCore, data: &[u8], now: VirtualTime) -> usize {
    let written = core.tcb.snd.write(data);
    if written > 0 {
        maybe_send(cfg, core, now);
    }
    written
}

/// The persist (zero-window probe) timer fired: send one byte beyond
/// the window to force the peer to re-advertise, and re-arm with
/// backoff.
pub fn window_probe(_cfg: &TcpConfig, core: &mut ConnCore, now: VirtualTime) {
    let tcb = &core.tcb;
    if tcb.snd_wnd > 0 || tcb.unsent() == 0 {
        return; // window opened meanwhile, or nothing to probe with
    }
    let seq = core.tcb.snd_nxt;
    let payload = stage(core, seq, 1);
    let header = make_header(core, TcpFlags { ack: true, psh: true, ..TcpFlags::default() }, seq, now, true);
    core.tcb.push_action(TcpAction::SendSegment(TcpSegment { header, payload }));
    core.tcb.snd_nxt = seq + 1;
    resend::record_sent(&mut core.tcb, SentSegment { seq, len: 1, syn: false, fin: false }, now);
    // Back off the *persist* exponent, not the RTT one: the peer will
    // ACK the probe byte, and that ACK resets `rtt.backoff` in
    // `process_ack` — which used to pin the probe interval at its base
    // value forever. The persist exponent only resets when the window
    // actually opens (`transfer::update_send_window`).
    core.tcb.persist_backoff = (core.tcb.persist_backoff + 1).min(6);
    core.tcb.push_action(TcpAction::Loss(LossEvent::Probe));
    let next = core.tcb.persist_timeout().as_millis();
    core.tcb.push_action(TcpAction::SetTimer(TimerKind::Persist, next));
}

/// Stages an RST in reply to `seg`, per RFC 793 page 36: take the
/// sequence number from the offending segment's ACK when it has one,
/// otherwise ACK everything it occupied. The RST is staged in `pool`,
/// the engine's, whether or not a connection sends it.
pub fn reset_for(pool: &BufPool, local_port: u16, seg: &TcpSegment) -> TcpSegment {
    let mut h = TcpHeader::new(local_port, seg.header.src_port);
    if seg.header.flags.ack {
        h.seq = seg.header.ack;
        h.flags = TcpFlags::RST;
    } else {
        h.seq = Seq(0);
        h.ack = seg.header.seq + seg.seq_len();
        h.flags = TcpFlags::RST_ACK;
    }
    TcpSegment { header: h, payload: pool.empty() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::transfer::Fixture;
    use crate::testlink::no_nagle;
    use crate::TcpState;

    fn estab_core(wnd: u32) -> ConnCore {
        Fixture { snd_wnd: wnd, ..Fixture::default() }.core()
    }

    #[test]
    fn segmentation_respects_mss() {
        let cfg = no_nagle();
        let mut core = estab_core(10_000);
        let n = user_send(&cfg, &mut core, &[7u8; 2500], VirtualTime::ZERO);
        assert_eq!(n, 2500);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].payload.len(), 1000);
        assert_eq!(segs[1].payload.len(), 1000);
        assert_eq!(segs[2].payload.len(), 500);
        assert_eq!(segs[0].header.seq, Seq(100));
        assert_eq!(segs[1].header.seq, Seq(1100));
        assert_eq!(segs[2].header.seq, Seq(2100));
        assert!(segs[2].header.flags.psh, "last segment pushes");
        assert!(!segs[0].header.flags.psh);
        assert_eq!(core.tcb.snd_nxt, Seq(2600));
        assert_eq!(core.tcb.snd.resend_queue().len(), 3);
    }

    #[test]
    fn segmentation_subtracts_the_timestamp_option() {
        // RFC 6691 §3: the MSS never accounts for options, so with
        // timestamps on the segmentation loop must shave the option's
        // 12 padded bytes — a "full" segment sized by the raw MSS would
        // overflow the link MTU and fragment.
        let cfg = no_nagle();
        let timestamps = TcpConfig { timestamps: true, ..TcpConfig::default() };
        let mut core = Fixture { cfg: timestamps, snd_wnd: 10_000, ..Fixture::default() }.core();
        let n = user_send(&cfg, &mut core, &[7u8; 2000], VirtualTime::ZERO);
        assert_eq!(n, 2000);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].payload.len(), 988, "mss 1000 less the 12-byte option");
        assert_eq!(segs[1].payload.len(), 988);
        assert_eq!(segs[2].payload.len(), 24);
        assert_eq!(
            segs[0].header.header_len() + segs[0].payload.len(),
            20 + 1000,
            "header plus payload fills exactly what the raw MSS promised the link"
        );
    }

    #[test]
    fn send_respects_peer_window() {
        let cfg = no_nagle();
        let mut core = estab_core(1500);
        user_send(&cfg, &mut core, &[1u8; 4000], VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        let sent: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, 1500, "only the advertised window goes out");
        assert_eq!(core.tcb.unsent(), 2500);
    }

    #[test]
    fn send_respects_congestion_window() {
        let cfg = no_nagle();
        let mut core = estab_core(60_000);
        core.tcb.cc.set_cwnd(2000);
        user_send(&cfg, &mut core, &[1u8; 8000], VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        let sent: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, 2000);
    }

    #[test]
    fn nagle_holds_small_tail() {
        let cfg = TcpConfig::default(); // nagle on
        let mut core = estab_core(10_000);
        user_send(&cfg, &mut core, &[1u8; 1300], VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        // First 1000 go out (nothing in flight yet), the 300-byte tail
        // is held while the first segment is unacknowledged.
        assert_eq!(segs.len(), 2 - 1, "tail held: {segs:?}");
        assert_eq!(segs[0].payload.len(), 1000);
        assert_eq!(core.tcb.unsent(), 300);
    }

    #[test]
    fn nagle_off_sends_immediately() {
        let cfg = no_nagle();
        let mut core = estab_core(10_000);
        user_send(&cfg, &mut core, &[1u8; 1300], VirtualTime::ZERO);
        assert_eq!(core.tcb.drain_segments().len(), 2);
        assert_eq!(core.tcb.unsent(), 0);
    }

    #[test]
    fn zero_window_arms_persist() {
        let cfg = no_nagle();
        let mut core = estab_core(0);
        user_send(&cfg, &mut core, &[1u8; 100], VirtualTime::ZERO);
        let acts: Vec<String> = core.tcb.to_do.drain_all().iter().map(|a| format!("{a:?}")).collect();
        assert!(acts.iter().any(|a| a.starts_with("Set_Timer(Persist")), "{acts:?}");
        assert!(!acts.iter().any(|a| a.starts_with("Send_Segment")));
    }

    #[test]
    fn window_probe_sends_one_byte() {
        let cfg = no_nagle();
        let mut core = estab_core(0);
        user_send(&cfg, &mut core, b"probe-me", VirtualTime::ZERO);
        core.tcb.to_do.clear();
        window_probe(&cfg, &mut core, VirtualTime::from_millis(500));
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].payload, b"p");
        assert_eq!(core.tcb.snd_nxt, Seq(101));
    }

    /// Why `Tcb::check_invariants` does not assert `snd_nxt ≤ snd_una +
    /// snd_wnd`: a probe sends past a closed window on purpose, and every
    /// relation that *is* asserted still holds.
    #[test]
    fn a_window_probe_sends_past_the_window() {
        let cfg = no_nagle();
        let mut core = estab_core(0);
        user_send(&cfg, &mut core, b"probe-me", VirtualTime::ZERO);
        window_probe(&cfg, &mut core, VirtualTime::from_millis(500));
        let tcb = &core.tcb;
        assert!(tcb.snd_nxt.since(tcb.snd_una) > tcb.snd_wnd, "{tcb:?}");
        tcb.check_invariants();
    }

    #[test]
    fn persist_backoff_survives_probe_acks() {
        // Regression: the probe interval used to ride on `rtt.backoff`,
        // which the ACK of each probe byte resets — so probes re-fired
        // at a constant interval forever. The persist exponent must keep
        // growing across answered probes until the window opens.
        let cfg = no_nagle();
        let mut core = estab_core(0);
        user_send(&cfg, &mut core, &[7u8; 100], VirtualTime::ZERO);
        core.tcb.to_do.clear();
        let mut intervals = Vec::new();
        let mut now = VirtualTime::ZERO;
        for _ in 0..4 {
            window_probe(&cfg, &mut core, now);
            // The peer ACKs the probe byte but still advertises zero.
            let ack = core.tcb.snd_nxt;
            resend::process_ack(&cfg, &mut core, ack, now);
            assert_eq!(core.tcb.snd.rtt().backoff, 0, "the probe ACK resets the RTT backoff");
            let acts: Vec<String> = core.tcb.to_do.drain_all().iter().map(|a| format!("{a:?}")).collect();
            let ms: u64 = acts
                .iter()
                .filter_map(|a| a.strip_prefix("Set_Timer(Persist, "))
                .map(|rest| rest.trim_end_matches("ms)").parse().unwrap())
                .next_back()
                .expect("probe re-arms the persist timer");
            intervals.push(ms);
            now += foxbasis::time::VirtualDuration::from_millis(ms);
        }
        assert_eq!(intervals, vec![2000, 4000, 8000, 16000], "intervals must double");
    }

    #[test]
    fn window_opening_resets_persist_backoff() {
        let cfg = no_nagle();
        let mut core = estab_core(0);
        user_send(&cfg, &mut core, &[7u8; 100], VirtualTime::ZERO);
        for _ in 0..3 {
            window_probe(&cfg, &mut core, VirtualTime::from_millis(500));
        }
        assert_eq!(core.tcb.persist_backoff, 3);
        core.tcb.persist_backoff = 0; // what transfer::update_send_window does
        assert_eq!(core.tcb.persist_timeout(), core.tcb.snd.rtt().rto, "back to the base interval");
    }

    #[test]
    fn probe_skipped_when_window_open() {
        let cfg = TcpConfig::default();
        let mut core = estab_core(1000);
        core.tcb.snd.write(b"data");
        window_probe(&cfg, &mut core, VirtualTime::ZERO);
        assert!(core.tcb.drain_segments().is_empty());
    }

    #[test]
    fn fin_piggybacks_on_last_segment() {
        let cfg = no_nagle();
        let mut core = estab_core(10_000);
        core.tcb.snd.write(&[9u8; 500]);
        core.tcb.close_send();
        maybe_send(&cfg, &mut core, VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].header.flags.fin);
        assert_eq!(segs[0].payload.len(), 500);
        assert!(core.tcb.fin_sent());
        assert_eq!(core.tcb.snd_nxt, Seq(601), "FIN consumes one sequence number");
    }

    #[test]
    fn bare_fin_when_buffer_empty() {
        let cfg = TcpConfig::default();
        let mut core = estab_core(10_000);
        core.tcb.close_send();
        maybe_send(&cfg, &mut core, VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].header.flags.fin && segs[0].header.flags.ack);
        assert!(segs[0].payload.is_empty());
    }

    #[test]
    fn no_data_after_fin() {
        let cfg = TcpConfig::default();
        let mut core = estab_core(10_000);
        core.tcb.close_send();
        maybe_send(&cfg, &mut core, VirtualTime::ZERO);
        assert_eq!(user_send(&cfg, &mut core, b"late", VirtualTime::ZERO), 0);
    }

    #[test]
    fn syn_carries_mss_option() {
        let cfg = TcpConfig::default();
        let mut core = ConnCore::new(&cfg, 1000, 2000, Seq(100), 1460, BufPool::new());
        core.state.force(TcpState::SynSent { retries_left: 3 });
        queue_syn(&mut core, false, VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].header.flags.syn && !segs[0].header.flags.ack);
        assert_eq!(segs[0].header.mss(), Some(1460));
        assert_eq!(core.tcb.snd_nxt, Seq(101));
        assert_eq!(core.tcb.snd.resend_queue().len(), 1);
        // Re-queueing (retransmission path) does not double-advance.
        queue_syn(&mut core, false, VirtualTime::ZERO);
        assert_eq!(core.tcb.snd_nxt, Seq(101));
        assert_eq!(core.tcb.snd.resend_queue().len(), 1);
    }

    #[test]
    fn stage_reads_past_an_unacknowledged_syn_from_offset_zero() {
        // The SYN holds a sequence number and no byte of the buffer:
        // while it is at the front of the queue, `iss + 1` is offset 0.
        let cfg = TcpConfig::default();
        let mut core = ConnCore::new(&cfg, 1000, 2000, Seq(100), 1460, BufPool::new());
        core.state.force(TcpState::SynSent { retries_left: 3 });
        queue_syn(&mut core, false, VirtualTime::ZERO);
        core.tcb.snd.write(b"early data");
        assert_eq!(stage(&core, Seq(101), 5), b"early");
        assert_eq!(stage(&core, Seq(106), 5), b" data");
        assert!(stage(&core, Seq(100), 0).is_empty(), "the SYN itself stages nothing");
        // Acknowledged, the SYN leaves the queue and the arithmetic is plain.
        resend::process_ack(&cfg, &mut core, Seq(101), VirtualTime::ZERO);
        assert_eq!(stage(&core, Seq(106), 5), b" data");
    }

    #[test]
    fn syn_offers_configured_options_and_syn_ack_echoes_negotiated() {
        let cfg = TcpConfig {
            window_scale: true,
            sack: true,
            timestamps: true,
            initial_window: 1 << 20,
            ..TcpConfig::default()
        };
        let mut core = ConnCore::new(&cfg, 1000, 2000, Seq(100), 1460, BufPool::new());
        core.state.force(TcpState::SynSent { retries_left: 3 });
        queue_syn(&mut core, false, VirtualTime::from_millis(250));
        let segs = core.tcb.drain_segments();
        let h = &segs[0].header;
        assert_eq!(h.mss(), Some(1460));
        assert_eq!(h.wscale(), Some(5), "offers the shift covering a 1 MiB buffer");
        assert!(h.sack_permitted());
        assert_eq!(h.timestamps(), Some((250, 0)), "TSecr is zero on the initial SYN");
        assert_eq!(u32::from(h.window), 0xffff, "a SYN window is never scaled");

        // A SYN+ACK echoes only what was negotiated: here the peer
        // offered nothing, so nothing is echoed even though we offer.
        let mut core = ConnCore::new(&cfg, 1000, 2000, Seq(100), 1460, BufPool::new());
        core.state.force(TcpState::SynPassive { retries_left: 3 });
        queue_syn(&mut core, true, VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        let h = &segs[0].header;
        assert_eq!(h.wscale(), None);
        assert!(!h.sack_permitted());
        assert_eq!(h.timestamps(), None);
        assert_eq!(h.mss(), Some(1460), "MSS always rides on a SYN");
    }

    #[test]
    fn negotiated_segments_carry_timestamps_and_sack_blocks() {
        let cfg = TcpConfig { timestamps: true, sack: true, ..TcpConfig::default() };
        let mut core = Fixture { cfg, snd_wnd: 10_000, ts_recent: 777, ..Fixture::default() }.core();
        core.tcb.insert_out_of_order(Seq(6000), vec![1u8; 100], false);
        queue_ack(&mut core, VirtualTime::from_millis(1234));
        let segs = core.tcb.drain_segments();
        let h = &segs[0].header;
        assert_eq!(h.timestamps(), Some((1234, 777)));
        assert_eq!(*h.sack_blocks(), [(Seq(6000), Seq(6100))]);
    }

    #[test]
    fn ack_header_reflects_rcv_state() {
        let mut core = estab_core(1000);
        core.tcb.rcv_nxt = Seq(9999);
        queue_ack(&mut core, VirtualTime::ZERO);
        let segs = core.tcb.drain_segments();
        assert_eq!(segs[0].header.ack, Seq(9999));
        assert_eq!(u32::from(segs[0].header.window), 4096);
        assert!(segs[0].payload.is_empty());
    }

    #[test]
    fn rst_reply_rules() {
        // With ACK: RST takes its sequence from the ACK field.
        let mut seg = TcpSegment { header: TcpHeader::new(5555, 80), payload: b"x"[..].into() };
        seg.header.flags = TcpFlags::ACK;
        seg.header.ack = Seq(777);
        let rst = reset_for(&BufPool::new(), 80, &seg);
        assert_eq!(rst.header.seq, Seq(777));
        assert!(rst.header.flags.rst && !rst.header.flags.ack);
        assert_eq!(rst.header.src_port, 80);
        assert_eq!(rst.header.dst_port, 5555);
        // Without ACK: seq 0, ack covers the segment.
        seg.header.flags = TcpFlags::SYN;
        seg.header.seq = Seq(100);
        let rst = reset_for(&BufPool::new(), 80, &seg);
        assert_eq!(rst.header.seq, Seq(0));
        assert_eq!(rst.header.ack, Seq(100 + 1 + 1)); // SYN + 1 payload byte
        assert!(rst.header.flags.rst && rst.header.flags.ack);
    }

    #[test]
    fn send_buffer_full_pushes_back() {
        let cfg = TcpConfig { send_buffer: 100, nagle: false, ..TcpConfig::default() };
        let mut core = Fixture { cfg: cfg.clone(), snd_wnd: 0, ..Fixture::default() }.core(); // nothing drains
        assert_eq!(user_send(&cfg, &mut core, &[1; 60], VirtualTime::ZERO), 60);
        assert_eq!(user_send(&cfg, &mut core, &[1; 60], VirtualTime::ZERO), 40);
        assert_eq!(user_send(&cfg, &mut core, &[1; 60], VirtualTime::ZERO), 0);
    }
}
