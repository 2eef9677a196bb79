//! The timer wheel's heap budget: none.
//!
//! The paper's Fig. 11 timer is "simple and fast" only given "fast heap
//! allocation of the shared state"; the wheel's answer is to have no
//! per-timer heap state. Once its slab and its fired-timer buffer have
//! grown to the working set, arming, cancelling, firing and cascading
//! allocate nothing — counted here, not argued.

mod common {
    pub mod counting_alloc;
}

use common::counting_alloc::allocs;
use foxbasis::time::VirtualTime;
use foxbasis::wheel::{TimerId, TimerWheel};

/// One request/response exchange as a TCP engine's timers see it: a
/// delayed ACK armed a millisecond out and cancelled by the reply, a
/// retransmission timer re-armed (cancel + arm) by each ACK, a
/// short timer that really fires, and several `advance`s inside one
/// tick for every one that crosses into the next.
fn cycle(w: &mut TimerWheel<(u32, u8)>, now: &mut u64, resend: &mut TimerId) -> usize {
    let mut fired = 0;
    let ack = w.arm(VirtualTime::from_micros(*now + 1_000), (0, 1));
    *now += 3;
    fired += w.advance(VirtualTime::from_micros(*now)).len();
    assert!(w.cancel(ack));
    assert!(w.cancel(*resend));
    *resend = w.arm(VirtualTime::from_micros(*now + 200_000), (0, 0));
    w.arm(VirtualTime::from_micros(*now + 40), (0, 2));
    for _ in 0..4 {
        *now += 25;
        fired += w.advance(VirtualTime::from_micros(*now)).len();
    }
    fired
}

#[test]
fn a_warm_wheel_never_allocates() {
    let mut w = TimerWheel::new(VirtualTime::ZERO);
    let mut now = 0u64;
    // A standing population across the levels, so that tick roll-overs
    // have entries to cascade: 1 ms to ~17 minutes out.
    for i in 0..200u64 {
        w.arm(VirtualTime::from_micros(1_000 + i * i * i * 130), (i as u32, 3));
    }
    let mut resend = w.arm(VirtualTime::from_micros(200_000), (0, 0));
    for _ in 0..1_000 {
        cycle(&mut w, &mut now, &mut resend);
    }

    let before = (allocs(), w.stats());
    let mut fired = 0;
    for _ in 0..10_000 {
        fired += cycle(&mut w, &mut now, &mut resend);
    }
    let after = (allocs(), w.stats());

    assert_eq!(after.0 - before.0, 0, "arm/cancel/advance on a warm wheel touched the heap");
    // The cycles did what they claim: every kind of work was exercised.
    assert!(fired >= 10_000, "the short timer fired every cycle");
    assert_eq!(after.1.arms - before.1.arms, 30_000);
    assert_eq!(after.1.cancels - before.1.cancels, 20_000);
    assert!(after.1.cascades > before.1.cascades, "the standing population cascaded");
    assert!(now >> 10 > 1_000, "the run crossed many tick roll-overs");
}
