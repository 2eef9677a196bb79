//! What does the event layer cost? Two answers:
//!
//! * `emit`: the raw per-call price of `EventSink::emit` with the sink
//!   off (a single branch; the closure never runs) and with it
//!   recording into the bounded ring.
//! * `transfer`: a whole 256 KB bulk transfer through two TCP engines
//!   over the in-memory test link, traced vs untraced — the end-to-end
//!   overhead a `tables --trace` run pays. Off-path overhead must be
//!   negligible: the untraced transfer carries the sink field but never
//!   touches a ring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foxbasis::obs::{Event, EventSink};
use foxbasis::time::VirtualTime;
use foxtcp::testlink::Pair;
use foxtcp::TcpConfig;
use std::hint::black_box;

fn transfer(bytes: usize, sink: EventSink) -> u64 {
    let cfg = TcpConfig {
        nagle: false,
        delayed_ack_ms: None,
        initial_window: 65_535,
        send_buffer: 65_535,
        ..TcpConfig::default()
    };
    let mut p = Pair::new(cfg.clone(), cfg);
    p.a.set_obs(sink.for_host(0));
    p.b.set_obs(sink.for_host(1));
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
    p.b.stats().bytes_delivered
}

fn bench_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs-emit");
    g.throughput(Throughput::Elements(1));
    let off = EventSink::off();
    g.bench_function(BenchmarkId::new("emit", "off"), |b| {
        b.iter(|| {
            off.emit(VirtualTime::ZERO, 0, || Event::Action { tag: black_box("Process_Data") });
        })
    });
    let on = EventSink::recording(4096);
    g.bench_function(BenchmarkId::new("emit", "recording"), |b| {
        b.iter(|| {
            on.emit(VirtualTime::ZERO, 0, || Event::Action { tag: black_box("Process_Data") });
        })
    });
    g.finish();
}

fn bench_transfer(c: &mut Criterion) {
    let bytes = 256 * 1024;
    let mut g = c.benchmark_group("obs-transfer");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("256KiB", "untraced"), |b| {
        b.iter(|| black_box(transfer(bytes, EventSink::off())))
    });
    g.bench_function(BenchmarkId::new("256KiB", "traced"), |b| {
        b.iter(|| black_box(transfer(bytes, EventSink::recording(foxbasis::obs::DEFAULT_RING_CAPACITY))))
    });
    g.finish();
}

criterion_group!(benches, bench_emit, bench_transfer);
criterion_main!(benches);
