//! The discrete-event loop: the one place that decides how hosts and
//! frames take turns.
//!
//! A round steps the hosts at the media's common instant, then lets
//! the media move frames. [`settle`] runs rounds until nothing is left
//! to do, jumping the clock from one delivery to the next; [`drive`] runs
//! them on a ticking clock, so timers fire, until a condition holds or a
//! deadline passes, skipping the ticks at which no host has anything
//! due. Every medium in a run is kept on one clock.

use crate::net::SimNet;
use foxbasis::time::{VirtualDuration, VirtualTime};

/// Rounds [`settle`] runs before it calls the run a livelock.
pub const SETTLE_ROUNDS: usize = 1000;

/// Rounds [`drive`] runs at one instant: hosts may ping-pong frames that
/// arrive "now" several times (zero-latency CPU models).
const ROUNDS_PER_INSTANT: usize = 64;

/// What the loop runs hosts over: a clock, and frames that come due on
/// it. A simulated segment ([`SimNet`]) is one; so is an in-memory link
/// whose frames are in the receiver's queue as soon as they are sent.
pub trait Medium {
    /// The medium's clock.
    fn now(&self) -> VirtualTime;
    /// When the earliest frame still in flight is due, if any.
    fn next_delivery(&self) -> Option<VirtualTime>;
    /// Moves the clock to `t`, delivering every frame due by then.
    fn advance_to(&self, t: VirtualTime);
}

impl Medium for SimNet {
    fn now(&self) -> VirtualTime {
        SimNet::now(self)
    }

    fn next_delivery(&self) -> Option<VirtualTime> {
        SimNet::next_delivery(self)
    }

    fn advance_to(&self, t: VirtualTime) {
        SimNet::advance_to(self, t);
    }
}

/// Brings every medium to the latest of their clocks and returns it.
fn common_instant<M: Medium + ?Sized>(media: &[&M]) -> VirtualTime {
    let now = media.iter().map(|m| m.now()).max().expect("at least one medium");
    advance_all(media, now);
    now
}

fn advance_all<M: Medium + ?Sized>(media: &[&M], t: VirtualTime) {
    for m in media {
        m.advance_to(t);
    }
}

/// The earliest pending delivery on any medium.
fn next_delivery<M: Medium + ?Sized>(media: &[&M]) -> Option<VirtualTime> {
    media.iter().filter_map(|m| m.next_delivery()).min()
}

/// Runs `step` (which steps every host at the instant it is given and
/// reports whether any did something) and the media until a round in
/// which no host does anything and no frame is in flight. Between
/// rounds the clock jumps to the earliest pending delivery; no timer
/// fires unless a delivery carries the clock past it. A medium whose
/// frames are delivered as they are sent has no pending delivery, so
/// over it every round runs at the instant `settle` started at.
///
/// # Panics
/// If the run is still busy after [`SETTLE_ROUNDS`] rounds.
pub fn settle<M: Medium + ?Sized>(media: &[&M], mut step: impl FnMut(VirtualTime) -> bool) {
    let mut now = common_instant(media);
    for _ in 0..SETTLE_ROUNDS {
        let mut progress = step(now);
        if let Some(t) = next_delivery(media) {
            advance_all(media, t);
            now = t;
            progress = true;
        }
        if !progress {
            return;
        }
    }
    panic!("did not settle in {SETTLE_ROUNDS} rounds");
}

/// Runs `step` over `hosts` and the segments until `done(hosts)` or
/// `deadline`, and returns the instant at which `done` first held (or
/// the deadline).
///
/// At each instant, rounds of `step` and the delivery of frames that are
/// due repeat until quiet (at most 64); then `done` is polled. The clock
/// moves on the grid of `tick` from the current instant: to the first
/// instant on it at or after the earliest of `wake(hosts)` (when a host
/// next has work that no frame brings), the next delivery (at least 1 µs
/// on) and `deadline`, or to that delivery or `deadline` if either comes
/// sooner. `tick` is the timer grid: 1 ms reproduces the paper's timings
/// faithfully at simulation speeds of millions of virtual seconds per
/// wall second, and the instants at which nothing is due are skipped.
/// `wake` is asked only when the next instant would be a plain tick; a
/// `wake` of `Some(VirtualTime::ZERO)` visits every tick.
///
/// Skipping is invisible only if `done` keeps one contract: a poll that
/// changes nothing is followed by an identical poll until a host steps,
/// and a poll that waits for an instant with nothing due asks `wake` for
/// it.
pub fn drive<H: ?Sized>(
    nets: &[&SimNet],
    hosts: &mut H,
    mut step: impl FnMut(&mut H, VirtualTime) -> bool,
    mut done: impl FnMut(&mut H) -> bool,
    mut wake: impl FnMut(&H) -> Option<VirtualTime>,
    tick: VirtualDuration,
    deadline: VirtualTime,
) -> VirtualTime {
    let mut now = common_instant(nets);
    loop {
        for _ in 0..ROUNDS_PER_INSTANT {
            let mut progress = step(hosts, now);
            if next_delivery(nets).is_some_and(|t| t <= now) {
                advance_all(nets, now);
                progress = true;
            }
            if !progress {
                break;
            }
        }
        if done(hosts) || now >= deadline {
            return now;
        }
        let delivery = next_delivery(nets).map(|t| t.max(now + VirtualDuration::from_micros(1)));
        let soonest = |t: VirtualTime| delivery.map_or(t, |d| d.min(t)).min(deadline);
        let mut next = soonest(now + tick);
        if next == now + tick {
            // A plain tick: on to the first one at or after the earliest
            // instant at which anything is due.
            let due = soonest(wake(hosts).unwrap_or(deadline));
            let ticks = due.saturating_since(now).as_micros().div_ceil(tick.as_micros().max(1)).max(1);
            next = soonest(now + tick * ticks);
        }
        advance_all(nets, next);
        now = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Port;
    use foxwire::ether::{EthAddr, EtherType, Frame};

    fn frame(dst: EthAddr, src: EthAddr) -> Vec<u8> {
        Frame::new(dst, src, EtherType::Other(0x1234), vec![0xab; 64]).encode_buf().unwrap().to_vec()
    }

    /// Stations that send every frame they receive back to its sender
    /// while they have bounces left.
    struct Bouncers {
        ports: Vec<Port>,
        bounces_left: usize,
        received: usize,
    }

    impl Bouncers {
        fn step(&mut self) -> bool {
            let mut progress = false;
            for p in &self.ports {
                while let Some(f) = p.recv() {
                    progress = true;
                    self.received += 1;
                    if self.bounces_left > 0 {
                        self.bounces_left -= 1;
                        let src = Frame::decode_buf(&f).unwrap().src;
                        p.send(frame(src, p.addr()));
                    }
                }
            }
            progress
        }
    }

    /// Two segments, each with a frame on its way from host 1 to host 2.
    fn two_segments(bounces: usize) -> (SimNet, SimNet, Bouncers) {
        let nets = (SimNet::ethernet_10mbps(1), SimNet::ethernet_10mbps(2));
        let mut ports = Vec::new();
        for net in [&nets.0, &nets.1] {
            let (a, b) = (net.attach(EthAddr::host(1)), net.attach(EthAddr::host(2)));
            a.send(frame(b.addr(), a.addr()));
            ports.extend([a, b]);
        }
        (nets.0, nets.1, Bouncers { ports, bounces_left: bounces, received: 0 })
    }

    #[test]
    fn settle_moves_frames_on_every_segment_until_all_are_quiet() {
        let (n1, n2, mut hosts) = two_segments(5);
        settle(&[&n1, &n2], |_| hosts.step());
        assert_eq!(hosts.received, 2 + 5, "both first frames and every bounce arrived");
        assert_eq!((n1.next_delivery(), n2.next_delivery()), (None, None));
        assert_eq!(n1.now(), n2.now(), "one clock");
    }

    #[test]
    #[should_panic(expected = "did not settle")]
    fn settle_panics_on_a_run_that_never_quiesces() {
        let net = SimNet::ethernet_10mbps(1);
        settle(&[&net], |_| true);
    }

    #[test]
    fn drive_returns_when_done_holds_or_at_the_deadline() {
        let tick = VirtualDuration::from_millis(1);
        let deadline = VirtualTime::from_millis(20);
        let every = Some(VirtualTime::ZERO);

        let (n1, n2, mut hosts) = two_segments(0);
        let first = n1.next_delivery().min(n2.next_delivery()).unwrap();
        let at =
            drive(&[&n1, &n2], &mut hosts, |h, _| h.step(), |h| h.received > 0, |_| every, tick, deadline);
        assert_eq!(at, first, "the first instant a frame is in");
        assert_eq!((n1.now(), n2.now()), (at, at));

        let (n1, n2, mut hosts) = two_segments(3);
        let at = drive(&[&n1, &n2], &mut hosts, |h, _| h.step(), |_| false, |_| every, tick, deadline);
        assert_eq!(at, deadline);
        assert_eq!((n1.now(), n2.now()), (deadline, deadline));
        assert_eq!(hosts.received, 2 + 3);
    }

    /// A host that wants the instant 7.5 ms, on a 1 ms grid that a
    /// delivery shifted by 0.3 ms: the loop steps it at the first tick
    /// of that grid at or after 7.5 ms and at no instant between, and
    /// polls `done` only where it stepped.
    #[test]
    fn drive_skips_to_the_first_tick_at_or_after_the_earliest_due_instant() {
        let tick = VirtualDuration::from_millis(1);
        let net = SimNet::ethernet_10mbps(1);
        let (a, b) = (net.attach(EthAddr::host(1)), net.attach(EthAddr::host(2)));
        net.advance_to(VirtualTime::from_micros(300));
        a.send(frame(b.addr(), a.addr()));
        let arrival = net.next_delivery().unwrap();
        let mut stepped = Vec::new();
        let mut polled = 0;
        let wake = VirtualTime::from_micros(7_500);
        let at = drive(
            &[&net],
            &mut stepped,
            |s, now| {
                s.push(now);
                b.recv().is_some()
            },
            |s| {
                polled += 1;
                s.last().is_some_and(|&t| t >= wake)
            },
            |_| Some(wake),
            tick,
            VirtualTime::from_millis(20),
        );
        let first_after = arrival + tick * (wake - arrival).as_micros().div_ceil(1_000);
        assert_eq!(at, first_after);
        assert_eq!(stepped.first(), Some(&VirtualTime::from_micros(300)));
        assert!(stepped.contains(&arrival), "the delivery instant: {stepped:?}");
        assert_eq!(stepped.last(), Some(&first_after));
        assert_eq!(stepped.iter().filter(|&&t| t > arrival && t < first_after).count(), 0, "{stepped:?}");
        assert_eq!(polled, 3, "the start, the delivery and the wake");
    }
}
