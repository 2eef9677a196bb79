//! The TCP engine itself, on today's hardware: what does the
//! quasi-synchronous structured implementation cost per segment in real
//! Rust, fast path on and off?
//!
//! The paper could not yet answer "is the structured design as fast as C"
//! ("the maturity of our current implementation is as yet insufficient
//! to demonstrate this"); this bench answers it for the Rust rendering
//! by driving whole bulk transfers through two engines over an in-memory
//! link with zero modeled cost — every nanosecond measured is real
//! protocol processing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foxtcp::testlink::Pair;
use foxtcp::TcpConfig;
use std::hint::black_box;

fn transfer(bytes: usize, fast_path: bool) -> u64 {
    let cfg = TcpConfig {
        nagle: false,
        delayed_ack_ms: None,
        fast_path,
        initial_window: 65_535,
        send_buffer: 65_535,
        ..TcpConfig::default()
    };
    let mut p = Pair::new(cfg.clone(), cfg);
    let (conn, child) = p.open(80);
    // The receiver keeps nothing: the rig's recording handler would.
    p.b.set_handler(child, Box::new(|_| {})).unwrap();

    let payload = vec![0xa5u8; 8192];
    let mut sent = 0;
    while p.b.stats().bytes_delivered < bytes as u64 {
        if sent < bytes {
            sent += p.a.send_data(conn, &payload[..payload.len().min(bytes - sent)]).unwrap_or(0);
        }
        p.tick(1);
    }
    p.a.stats().segments_sent + p.b.stats().segments_sent
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    let bytes = 262_144usize;
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_with_input(BenchmarkId::new("bulk_fastpath_on", bytes), &bytes, |b, &n| {
        b.iter(|| black_box(transfer(n, true)))
    });
    group.bench_with_input(BenchmarkId::new("bulk_fastpath_off", bytes), &bytes, |b, &n| {
        b.iter(|| black_box(transfer(n, false)))
    });
    group.finish();
}

/// The full simulated stacks under both cost profiles: each iteration
/// is one complete bulk transfer through device, Ethernet, IP, and TCP
/// on both hosts (1994: paper config, unbatched; modern: gigabit link,
/// GRO/TSO batching, wscale, coalesced ACKs).
fn bench_profiles(c: &mut Criterion) {
    use foxharness::bench::BenchProfile;
    use foxharness::stack::StackKind;
    let mut group = c.benchmark_group("engine_profiles");
    group.sample_size(15);
    let bytes = 200_000usize;
    group.throughput(Throughput::Bytes(bytes as u64));
    for (kind, kname) in [(StackKind::FoxStandard, "fox"), (StackKind::XKernel, "xk")] {
        for profile in [BenchProfile::Paper1994, BenchProfile::Modern] {
            let id = BenchmarkId::new(format!("{kname}_{}", profile.name()), bytes);
            group.bench_with_input(id, &bytes, |b, &n| {
                let cell = profile.cell(kind, 42);
                b.iter(|| black_box(cell.bulk(n).sender.segments_sent))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_profiles);
criterion_main!(benches);
