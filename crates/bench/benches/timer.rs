//! The Fig. 11 timer, on today's hardware — and the wheel both TCP
//! stacks actually arm their timers on.
//!
//! "The entire code for starting a timer, clearing a timer, and timer
//! expiration is shown in Figure 11 ... it is simple and fast. A simple
//! timer implementation such as this one depends for performance on
//! having both fast thread creation and switching, and fast heap
//! allocation of the shared state."
//!
//! The `wheel` group measures [`foxbasis::wheel::TimerWheel`] on the
//! same three operations, each with 0, 100 and 10 000 *other* timers
//! pending (none of them due during the run): O(1) means the rows of
//! one operation read the same.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fox_scheduler::{timer, Scheduler};
use foxbasis::time::VirtualTime;
use foxbasis::wheel::TimerWheel;
use std::hint::black_box;

fn bench_timer(c: &mut Criterion) {
    // start + clear before expiry (the common case: the ACK arrives and
    // the retransmit timer is cancelled).
    c.bench_function("timer_start_clear", |b| {
        let mut s = Scheduler::new();
        b.iter(|| {
            let h = timer::start_ms(
                &mut s,
                1000,
                Box::new(|_s| {
                    black_box(0u64);
                }),
            );
            h.clear();
            s.run_ready(); // park the sleeper thread
        })
    });

    // start + expire (the timeout path): fork, sleep, wake, run handler.
    c.bench_function("timer_start_expire", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            timer::start_ms(
                &mut s,
                1,
                Box::new(|_s| {
                    black_box(0u64);
                }),
            );
            s.run_until_idle();
        })
    });

    // 64 concurrent timers expiring in order (a busy host's retransmit,
    // delayed-ack and persist timers across many connections).
    c.bench_function("timer_64_concurrent", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            for i in 0..64u64 {
                timer::start_ms(
                    &mut s,
                    1 + (i % 7),
                    Box::new(|_s| {
                        black_box(0u64);
                    }),
                );
            }
            s.advance_to(VirtualTime::from_millis(10));
        })
    });
}

/// A wheel at time zero with `others` timers pending an hour and more
/// out, 60 ms apart: spread over the upper levels, never due here.
fn wheel_with(others: u64) -> TimerWheel<u64> {
    let mut w = TimerWheel::new(VirtualTime::ZERO);
    for i in 0..others {
        w.arm(VirtualTime::from_micros(3_600_000_000 + i * 60_000), i);
    }
    w
}

fn bench_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("wheel");
    for others in [0u64, 100, 10_000] {
        // start + clear before expiry: `timer_start_clear`'s counterpart.
        g.bench_function(BenchmarkId::new("arm_cancel", others), |b| {
            let mut w = wheel_with(others);
            b.iter(|| {
                let id = w.arm(VirtualTime::from_micros(1_000), 0);
                w.cancel(black_box(id))
            })
        });

        // What an idle `Tcp::step` pays: the clock has not left the
        // tick and nothing is due.
        g.bench_function(BenchmarkId::new("advance_same_tick", others), |b| {
            let mut w = wheel_with(others);
            b.iter(|| w.advance(black_box(VirtualTime::from_micros(500))).len())
        });

        // The request/response cycle: a delayed ACK armed 1 ms out,
        // cancelled by the reply, the clock creeping 3 µs a step — so
        // 341 same-tick advances for every tick roll-over.
        g.bench_function(BenchmarkId::new("rr_cycle", others), |b| {
            let mut w = wheel_with(others);
            let mut now = 0u64;
            b.iter(|| {
                let id = w.arm(VirtualTime::from_micros(now + 1_000), 0);
                w.cancel(id);
                now += 3;
                w.advance(VirtualTime::from_micros(now)).len()
            })
        });
    }

    // 64 timers armed into the next few ticks and fired in order:
    // `timer_64_concurrent`'s counterpart.
    g.bench_function("arm_64_advance_tick", |b| {
        let mut w = wheel_with(0);
        let mut now = 0u64;
        b.iter(|| {
            for i in 0..64u64 {
                w.arm(VirtualTime::from_micros(now + 1_000 * (1 + i % 7)), i);
            }
            now += 10_000;
            w.advance(VirtualTime::from_micros(now)).len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_timer, bench_wheel);
criterion_main!(benches);
