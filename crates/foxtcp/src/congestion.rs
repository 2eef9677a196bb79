//! The congestion-control seam: every write to `cwnd`/`ssthresh` in the
//! stack happens here, behind the [`CongestionControl`] trait.
//!
//! The paper's claim is that a structured stack keeps extensions local;
//! this module is the test for congestion control. The Resend module
//! reports *events* (an ACK of new data, the third duplicate, a partial
//! ACK, an RTO) and the algorithm decides the windows. Two algorithms
//! prove the seam: [`Reno`] (NewReno, RFC 5681/6582 — bit-for-bit the
//! arithmetic the stack always had) and [`Cubic`] (RFC 8312 in integer
//! fixed-point, so the simulation stays deterministic).
//!
//! The compiler enforces it: the two windows are private fields of
//! [`Cc`], the TCB's `cc`, so code outside this module can read them
//! ([`Cc::cwnd`], [`Cc::ssthresh`]) and cannot write them. The module
//! sits at the crate root, outside [`crate::data`], so it can read the
//! TCB's sequence space and cannot write it either.

use crate::data::tcb::Tcb;
use foxbasis::time::VirtualTime;

/// Algorithm selector carried by [`crate::TcpConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CcAlg {
    /// NewReno (RFC 5681 slow start / congestion avoidance with the
    /// RFC 6582 recovery refinements) — the default, and byte-identical
    /// to the pre-seam arithmetic.
    #[default]
    Reno,
    /// CUBIC (RFC 8312), in integer fixed-point.
    Cubic,
}

/// The mutable window view an algorithm operates on. `cwnd == 0` means
/// congestion control is disabled for the connection (the ablation
/// switch); algorithms must leave a zero window untouched.
#[derive(Clone, PartialEq, Debug)]
pub struct CcWindow {
    /// Congestion window, bytes.
    pub cwnd: u32,
    /// Slow-start threshold, bytes.
    pub ssthresh: u32,
}

/// The seam the Resend module talks through. One method per
/// congestion-relevant event; implementations own all window writes.
pub trait CongestionControl {
    /// Connection established: set the initial window.
    fn init(&mut self, w: &mut CcWindow, mss: u32);
    /// `bytes_acked` new bytes acknowledged outside recovery.
    fn on_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32, now: VirtualTime);
    /// A duplicate ACK while already recovering: a segment left the
    /// network, so the window may inflate.
    fn dup_ack_inflate(&mut self, w: &mut CcWindow, mss: u32);
    /// The third duplicate ACK: entering fast recovery with `flight`
    /// bytes outstanding.
    fn enter_recovery(&mut self, w: &mut CcWindow, mss: u32, flight: u32, now: VirtualTime);
    /// A partial ACK during recovery acknowledged `bytes_acked`.
    fn partial_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32);
    /// The ACK covering the recovery point: recovery ends.
    fn exit_recovery(&mut self, w: &mut CcWindow, mss: u32, now: VirtualTime);
    /// Retransmission timeout with `flight` bytes outstanding.
    fn on_rto(&mut self, w: &mut CcWindow, mss: u32, flight: u32, now: VirtualTime);
}

/// NewReno. Stateless — the windows themselves are the whole state.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Reno;

impl CongestionControl for Reno {
    fn init(&mut self, w: &mut CcWindow, mss: u32) {
        w.cwnd = mss;
        w.ssthresh = u32::MAX;
    }

    fn on_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32, _now: VirtualTime) {
        // Appropriate Byte Counting (RFC 3465): growth is credited by
        // bytes actually acknowledged, capped at one MSS per ACK, so an
        // attacker dividing one segment's ACK into many sub-MSS ACKs
        // earns no more window than the single honest ACK would. For
        // full-segment ACKs (bytes_acked >= mss) the arithmetic is
        // bit-identical to the historical ack-counted code.
        let credit = bytes_acked.min(mss);
        if w.cwnd < w.ssthresh {
            w.cwnd = w.cwnd.saturating_add(credit); // slow start
        } else {
            w.cwnd = w.cwnd.saturating_add(((mss.saturating_mul(credit)) / w.cwnd).max(1));
        }
    }

    fn dup_ack_inflate(&mut self, w: &mut CcWindow, mss: u32) {
        w.cwnd = w.cwnd.saturating_add(mss);
    }

    fn enter_recovery(&mut self, w: &mut CcWindow, mss: u32, flight: u32, _now: VirtualTime) {
        w.ssthresh = (flight / 2).max(2 * mss);
        if w.cwnd > 0 {
            // ssthresh plus the three segments the duplicates ACKed.
            w.cwnd = w.ssthresh.saturating_add(3 * mss);
        }
    }

    fn partial_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32) {
        w.cwnd = w.cwnd.saturating_sub(bytes_acked).saturating_add(mss).max(mss);
    }

    fn exit_recovery(&mut self, w: &mut CcWindow, mss: u32, _now: VirtualTime) {
        w.cwnd = w.ssthresh.max(mss);
    }

    fn on_rto(&mut self, w: &mut CcWindow, mss: u32, flight: u32, _now: VirtualTime) {
        w.ssthresh = (flight / 2).max(2 * mss);
        if w.cwnd > 0 {
            w.cwnd = mss; // back to slow start
        }
    }
}

/// CUBIC's multiplicative-decrease factor β = 717/1024 ≈ 0.7.
const CUBIC_BETA_NUM: u64 = 717;
const CUBIC_BETA_DEN: u64 = 1024;

/// CUBIC (RFC 8312), integer fixed-point. The cubic function
/// `W(t) = C·(t−K)³ + W_max` is evaluated in milliseconds and
/// MSS-units with C = 0.4, so the target window per ACK is exact
/// integer arithmetic — no floats, fully deterministic.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Cubic {
    /// Window size (bytes) just before the last reduction.
    w_max: u32,
    /// Start of the current congestion-avoidance epoch.
    epoch: Option<VirtualTime>,
}

/// Integer cube root by binary search (`⌊n^(1/3)⌋`).
fn icbrt(n: u64) -> u64 {
    // ∛(2^64) < 2^22, so this range covers every u64; overflow in mid³
    // (checked, not saturating) correctly reads as "too big".
    let (mut lo, mut hi) = (0u64, 1u64 << 22);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let cube = mid.checked_mul(mid).and_then(|sq| sq.checked_mul(mid));
        if cube.is_some_and(|c| c <= n) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

impl Cubic {
    /// The RFC 8312 target window at `elapsed` ms into the epoch, in
    /// bytes. `K = ∛(W_max·(1−β)/C)` seconds; windows in MSS units.
    fn target(&self, mss: u32, elapsed_ms: u64) -> u32 {
        let mss64 = u64::from(mss.max(1));
        let w_max_mss = (u64::from(self.w_max) / mss64).max(1);
        // K³ = W_max·(1−β)/C = W_max·0.3/0.4 = 0.75·W_max  (seconds³)
        // In ms: K_ms³ = 0.75e9·W_max.
        let k_ms = icbrt(750_000_000u64.saturating_mul(w_max_mss));
        let d = elapsed_ms as i64 - k_ms as i64;
        let d = d.clamp(-1_000_000, 1_000_000); // bound the cube
        let cube = (d.unsigned_abs()).pow(3);
        // C·d³ with C = 0.4 and d in ms: 0.4/1e9 = 4/1e10 (MSS units).
        let delta_mss = cube.saturating_mul(4) / 10_000_000_000;
        let w_mss =
            if d < 0 { w_max_mss.saturating_sub(delta_mss) } else { w_max_mss.saturating_add(delta_mss) };
        u32::try_from(w_mss.saturating_mul(mss64)).unwrap_or(u32::MAX)
    }
}

impl CongestionControl for Cubic {
    fn init(&mut self, w: &mut CcWindow, mss: u32) {
        w.cwnd = mss;
        w.ssthresh = u32::MAX;
        self.w_max = 0;
        self.epoch = None;
    }

    fn on_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32, now: VirtualTime) {
        if w.cwnd < w.ssthresh {
            // Byte-counted slow start, as Reno (RFC 3465 defense
            // against ACK division).
            w.cwnd = w.cwnd.saturating_add(bytes_acked.min(mss));
            return;
        }
        let epoch = *self.epoch.get_or_insert(now);
        if self.w_max == 0 {
            // No loss yet: congestion avoidance from the current window.
            self.w_max = w.cwnd;
        }
        // As in Reno, an ACK never earns more window than it acknowledged
        // bytes (ACK-division defense); full-segment ACKs are unchanged.
        let credit = bytes_acked.min(mss);
        let target = self.target(mss, now.saturating_since(epoch).as_millis());
        if target > w.cwnd {
            // Spread the climb over roughly one window of ACKs.
            let per_ack = ((target - w.cwnd) / (w.cwnd / mss.max(1)).max(1)).max(1);
            w.cwnd = w.cwnd.saturating_add(per_ack.min(credit));
        } else {
            // At/above the curve: probe very slowly (one MSS per window).
            w.cwnd = w.cwnd.saturating_add(((mss * mss / w.cwnd.max(1)).max(1) / 4 + 1).min(credit));
        }
    }

    fn dup_ack_inflate(&mut self, w: &mut CcWindow, mss: u32) {
        w.cwnd = w.cwnd.saturating_add(mss);
    }

    fn enter_recovery(&mut self, w: &mut CcWindow, mss: u32, _flight: u32, _now: VirtualTime) {
        self.w_max = w.cwnd.max(mss);
        let reduced = (u64::from(w.cwnd) * CUBIC_BETA_NUM / CUBIC_BETA_DEN) as u32;
        w.ssthresh = reduced.max(2 * mss);
        if w.cwnd > 0 {
            w.cwnd = w.ssthresh.saturating_add(3 * mss);
        }
        self.epoch = None;
    }

    fn partial_ack(&mut self, w: &mut CcWindow, mss: u32, bytes_acked: u32) {
        w.cwnd = w.cwnd.saturating_sub(bytes_acked).saturating_add(mss).max(mss);
    }

    fn exit_recovery(&mut self, w: &mut CcWindow, mss: u32, now: VirtualTime) {
        w.cwnd = w.ssthresh.max(mss);
        self.epoch = Some(now); // the cubic clock restarts at the plateau
    }

    fn on_rto(&mut self, w: &mut CcWindow, mss: u32, _flight: u32, _now: VirtualTime) {
        self.w_max = w.cwnd.max(mss);
        let reduced = (u64::from(w.cwnd) * CUBIC_BETA_NUM / CUBIC_BETA_DEN) as u32;
        w.ssthresh = reduced.max(2 * mss);
        if w.cwnd > 0 {
            w.cwnd = mss;
        }
        self.epoch = None;
    }
}

/// The per-connection algorithm instance. An enum rather than a
/// `Box<dyn>` so the TCB stays plain data (`Clone`, `PartialEq`),
/// allocation-free and the dispatch deterministic; both variants
/// implement [`CongestionControl`] and the enum forwards.
#[derive(Clone, PartialEq, Debug)]
enum CcMachine {
    Reno(Reno),
    Cubic(Cubic),
}

impl CcMachine {
    fn new(alg: CcAlg) -> CcMachine {
        match alg {
            CcAlg::Reno => CcMachine::Reno(Reno),
            CcAlg::Cubic => CcMachine::Cubic(Cubic::default()),
        }
    }

    fn as_cc(&mut self) -> &mut dyn CongestionControl {
        match self {
            CcMachine::Reno(r) => r,
            CcMachine::Cubic(c) => c,
        }
    }
}

/// A connection's congestion state: the two windows and the algorithm
/// that owns them. Both fields are private, so only this module writes
/// `cwnd`/`ssthresh`; [`Cc::cwnd`] and [`Cc::ssthresh`] are the readers.
#[derive(Clone, PartialEq, Debug)]
pub struct Cc {
    w: CcWindow,
    alg: CcMachine,
}

impl Cc {
    /// A connection's congestion state before establishment: no window
    /// (`cwnd == 0`, which [`init`] opens), no threshold, and an
    /// instance of `alg`.
    pub fn new(alg: CcAlg) -> Cc {
        Cc { w: CcWindow { cwnd: 0, ssthresh: u32::MAX }, alg: CcMachine::new(alg) }
    }

    /// Congestion window, bytes (0: congestion control is off).
    pub fn cwnd(&self) -> u32 {
        self.w.cwnd
    }

    /// Slow-start threshold, bytes.
    pub fn ssthresh(&self) -> u32 {
        self.w.ssthresh
    }
}

/// Test hook: the module tests that start a connection at a given
/// congestion window. Compiled into this crate's own unit tests and
/// nowhere else.
#[cfg(test)]
impl Cc {
    pub(crate) fn set_cwnd(&mut self, cwnd: u32) {
        self.w.cwnd = cwnd;
    }
}

// ---------------------------------------------------------------------
// The module-level entry points the rest of the stack calls. Each
// replicates the guard structure the inline Reno code had, so behavior
// without options is unchanged.
// ---------------------------------------------------------------------

/// Runs `f` on the TCB's windows, in place, through the algorithm seam.
fn with_windows<P>(tcb: &mut Tcb<P>, f: impl FnOnce(&mut dyn CongestionControl, &mut CcWindow, u32)) {
    let mss = tcb.negotiated().mss();
    let Cc { w, alg } = &mut tcb.cc;
    f(alg.as_cc(), w, mss);
}

/// Connection established: initial window (one MSS) and cleared
/// threshold.
pub fn init<P>(tcb: &mut Tcb<P>) {
    with_windows(tcb, |cc, w, mss| cc.init(w, mss));
}

/// New data acknowledged outside recovery: grow the window.
pub fn on_ack<P>(tcb: &mut Tcb<P>, bytes_acked: u32, now: VirtualTime) {
    if tcb.cc.w.cwnd == 0 || bytes_acked == 0 {
        return;
    }
    with_windows(tcb, |cc, w, mss| cc.on_ack(w, mss, bytes_acked, now));
}

/// A duplicate ACK while recovering: inflate.
pub fn dup_ack_inflate<P>(tcb: &mut Tcb<P>) {
    if tcb.cc.w.cwnd == 0 {
        return;
    }
    with_windows(tcb, |cc, w, mss| cc.dup_ack_inflate(w, mss));
}

/// Third duplicate ACK: recovery entry (ssthresh moves even with the
/// window ablated, matching the historical behavior).
pub fn enter_recovery<P>(tcb: &mut Tcb<P>, now: VirtualTime) {
    let flight = tcb.flight_size();
    with_windows(tcb, |cc, w, mss| cc.enter_recovery(w, mss, flight, now));
}

/// Partial ACK during recovery: deflate by what was acknowledged.
pub fn partial_ack<P>(tcb: &mut Tcb<P>, bytes_acked: u32) {
    if tcb.cc.w.cwnd == 0 {
        return;
    }
    with_windows(tcb, |cc, w, mss| cc.partial_ack(w, mss, bytes_acked));
}

/// Recovery point acknowledged: deflate to ssthresh.
pub fn exit_recovery<P>(tcb: &mut Tcb<P>, now: VirtualTime) {
    if tcb.cc.w.cwnd == 0 {
        return;
    }
    with_windows(tcb, |cc, w, mss| cc.exit_recovery(w, mss, now));
}

/// Retransmission timeout: collapse to slow start.
pub fn on_rto<P>(tcb: &mut Tcb<P>, now: VirtualTime) {
    let flight = tcb.flight_size();
    with_windows(tcb, |cc, w, mss| cc.on_rto(w, mss, flight, now));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(cwnd: u32, ssthresh: u32) -> CcWindow {
        CcWindow { cwnd, ssthresh }
    }

    #[test]
    fn reno_matches_historical_arithmetic() {
        let mut reno = Reno;
        let mut win = w(0, 0);
        reno.init(&mut win, 1000);
        assert_eq!((win.cwnd, win.ssthresh), (1000, u32::MAX));
        // Slow start doubles per window (one MSS per ACK).
        reno.on_ack(&mut win, 1000, 1000, VirtualTime::ZERO);
        assert_eq!(win.cwnd, 2000);
        // Above ssthresh: additive increase mss²/cwnd.
        win.ssthresh = 2000;
        reno.on_ack(&mut win, 1000, 1000, VirtualTime::ZERO);
        assert_eq!(win.cwnd, 2000 + 1000 * 1000 / 2000);
        // Recovery entry: half the flight, floored, plus three segments.
        let mut win = w(6000, u32::MAX);
        reno.enter_recovery(&mut win, 1000, 3000, VirtualTime::ZERO);
        assert_eq!((win.cwnd, win.ssthresh), (5000, 2000));
        reno.dup_ack_inflate(&mut win, 1000);
        assert_eq!(win.cwnd, 6000);
        reno.partial_ack(&mut win, 1000, 1000);
        assert_eq!(win.cwnd, 6000);
        reno.exit_recovery(&mut win, 1000, VirtualTime::ZERO);
        assert_eq!(win.cwnd, 2000);
        let mut win = w(8000, u32::MAX);
        reno.on_rto(&mut win, 1000, 4000, VirtualTime::ZERO);
        assert_eq!((win.cwnd, win.ssthresh), (1000, 2000));
    }

    #[test]
    fn ack_division_earns_bytes_not_acks() {
        // Savage et al.'s ACK-division attack: the receiver splits one
        // segment's acknowledgement into many sub-MSS ACKs. Byte
        // counting makes the 10 division ACKs worth exactly what the
        // one honest ACK was worth — the acknowledged bytes.
        let mut reno = Reno;
        let mut honest = w(1000, u32::MAX);
        reno.on_ack(&mut honest, 1000, 1000, VirtualTime::ZERO);
        let mut attacked = w(1000, u32::MAX);
        for _ in 0..10 {
            reno.on_ack(&mut attacked, 1000, 100, VirtualTime::ZERO);
        }
        assert_eq!(honest.cwnd, attacked.cwnd, "division earned nothing extra");
        // Congestion avoidance: sub-MSS ACKs earn proportionally less.
        let mut ca = w(4000, 2000);
        reno.on_ack(&mut ca, 1000, 1000, VirtualTime::ZERO);
        assert_eq!(ca.cwnd, 4000 + 1000 * 1000 / 4000);
        let mut ca_div = w(4000, 2000);
        reno.on_ack(&mut ca_div, 1000, 100, VirtualTime::ZERO);
        assert_eq!(ca_div.cwnd, 4000 + 1000 * 100 / 4000);
        // Cubic's slow start is byte-counted the same way.
        let mut cubic = Cubic::default();
        let mut win = w(1000, 10_000);
        for _ in 0..10 {
            cubic.on_ack(&mut win, 1000, 100, VirtualTime::ZERO);
        }
        assert_eq!(win.cwnd, 2000, "ten 100-byte ACKs = one 1000-byte ACK");
    }

    #[test]
    fn icbrt_exact_and_floor() {
        assert_eq!(icbrt(0), 0);
        assert_eq!(icbrt(1), 1);
        assert_eq!(icbrt(26), 2);
        assert_eq!(icbrt(27), 3);
        assert_eq!(icbrt(1_000_000_000), 1000);
        assert_eq!(icbrt(u64::MAX), 2_642_245);
    }

    #[test]
    fn cubic_reduces_by_beta_and_regrows_toward_w_max() {
        let mut cubic = Cubic::default();
        let mut win = w(0, 0);
        cubic.init(&mut win, 1000);
        assert_eq!(win.cwnd, 1000);
        // Loss at 100 KB: β-reduction, not a halving.
        let mut win = w(100_000, u32::MAX);
        cubic.enter_recovery(&mut win, 1000, 100_000, VirtualTime::ZERO);
        assert_eq!(win.ssthresh, (100_000u64 * 717 / 1024) as u32);
        cubic.exit_recovery(&mut win, 1000, VirtualTime::from_millis(1000));
        assert_eq!(win.cwnd, win.ssthresh);
        // The concave climb approaches W_max = 100 KB as time passes.
        let start = win.cwnd;
        let mut now = VirtualTime::from_millis(1000);
        for _ in 0..20_000 {
            now += foxbasis::time::VirtualDuration::from_millis(1);
            cubic.on_ack(&mut win, 1000, 1000, now);
        }
        assert!(win.cwnd > start, "the window must grow: {} -> {}", start, win.cwnd);
        assert!(win.cwnd >= 90_000, "approaches W_max: {}", win.cwnd);
    }

    #[test]
    fn cubic_slow_starts_below_ssthresh() {
        let mut cubic = Cubic::default();
        let mut win = w(1000, 10_000);
        cubic.on_ack(&mut win, 1000, 1000, VirtualTime::ZERO);
        assert_eq!(win.cwnd, 2000, "slow start is unchanged");
    }

    #[test]
    fn machine_dispatches_and_guards_ablation() {
        let mut core: crate::ConnCore<u8> = crate::data::transfer::Fixture::default().core();
        crate::data::send::user_send(&Default::default(), &mut core, &[0; 4000], VirtualTime::ZERO);
        let tcb = &mut core.tcb;
        // cwnd == 0 (ablated): growth and inflation are no-ops.
        on_ack(tcb, 1000, VirtualTime::ZERO);
        dup_ack_inflate(tcb);
        assert_eq!(tcb.cc.cwnd(), 0);
        init(tcb);
        assert_eq!((tcb.cc.cwnd(), tcb.cc.ssthresh()), (1000, u32::MAX));
        assert_eq!(tcb.flight_size(), 4000);
        enter_recovery(tcb, VirtualTime::ZERO);
        assert_eq!((tcb.cc.cwnd(), tcb.cc.ssthresh()), (5000, 2000));
    }
}
