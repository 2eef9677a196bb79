//! The buffer architecture's before/after: bytes actually memcpy'd per
//! segment on the Table 1 bulk-transfer path.
//!
//! Before (the Vec-per-layer path, rebuilt here for comparison): stage
//! the payload out of the send ring into a fresh vector, copy header +
//! payload into the wire frame, and copy the payload back out after
//! decoding — every payload byte moves three times per segment, plus a
//! separate checksum pass.
//!
//! After (the `PacketBuf` path): one combined copy+checksum pass stages
//! the payload into a buffer with reserved headroom (paper Fig. 10),
//! the header is written into that headroom in place, delivery is a
//! refcount bump, and the receiver's payload is a slice of the same
//! storage — every payload byte moves once.
//!
//! Run `cargo bench --bench buf` for the wall-clock comparison; the
//! byte accounting below prints first and is recorded in
//! EXPERIMENTS.md (target: ≥ 60% fewer bytes memcpy'd per segment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foxbasis::buf::{copy_mark, PacketBuf, DEFAULT_HEADROOM};
use foxbasis::ring::RingBuffer;
use foxbasis::seq::Seq;
use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpSegment};
use std::hint::black_box;

fn header() -> TcpHeader {
    let mut h = TcpHeader::new(5000, 80);
    h.seq = Seq(100);
    h.ack = Seq(200);
    h.flags = TcpFlags { ack: true, psh: true, ..TcpFlags::default() };
    h.window = wire_window(4096, 0);
    h
}

const PSEUDO: Option<u16> = Some(0x1b2c);

/// One segment's trip the old way; returns bytes memcpy'd.
fn legacy_trip(ring: &RingBuffer, size: usize) -> usize {
    // Stage out of the ring (copy 1), checksum is a separate pass
    // inside encode.
    let mut staged = vec![0u8; size];
    let got = ring.peek_at(0, &mut staged);
    assert_eq!(got, size);
    let moved_stage = staged.len();
    let seg = TcpSegment { header: header(), payload: staged.into() };
    // Header + payload into the frame (copy 2).
    let frame = seg.encode_buf(PSEUDO).expect("encode").to_vec();
    let moved_encode = frame.len();
    // Payload back out of the frame (copy 3).
    let rx = TcpSegment::decode_buf(&PacketBuf::from_vec(frame), PSEUDO).expect("decode");
    let delivered = rx.payload.to_vec();
    let moved_decode = delivered.len();
    black_box(delivered);
    moved_stage + moved_encode + moved_decode
}

/// One segment's trip the `PacketBuf` way; returns bytes memcpy'd
/// (read off the copy counter — the path itself claims zero besides
/// the single staging pass).
fn packetbuf_trip(ring: &RingBuffer, size: usize) -> usize {
    let mark = copy_mark();
    // Combined copy+checksum out of the ring (the only copy).
    let payload = PacketBuf::build_summed(DEFAULT_HEADROOM, size, |dst| {
        let (got, sum) = ring.peek_at_sum(0, dst);
        assert_eq!(got, size);
        sum
    });
    let seg = TcpSegment { header: header(), payload };
    // Header into the headroom, in place; the frame IS the payload
    // buffer. Delivery down the stack is a refcount bump.
    let frame = seg.encode_buf(PSEUDO).expect("encode_buf");
    // Receiver slices the payload out of the same storage.
    let rx = TcpSegment::decode_buf(&frame, PSEUDO).expect("decode_buf");
    black_box(rx);
    let delta = mark.delta();
    delta.bytes as usize
}

/// Prints the byte accounting (the number EXPERIMENTS.md records).
fn report_bytes_per_segment() {
    let size = 1460usize; // the Table 1 bulk path's MSS-sized segment
    let mut ring = RingBuffer::new(8192);
    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    ring.write(&data);

    let before = legacy_trip(&ring, size);
    let after = packetbuf_trip(&ring, size);
    let reduction = 100.0 * (before - after) as f64 / before as f64;
    println!("bytes memcpy'd per {size}-byte segment:");
    println!("  Vec-per-layer (before)  {before:6} B");
    println!("  PacketBuf     (after)   {after:6} B");
    println!("  reduction               {reduction:5.1}%  (target >= 60%)");
    assert!(reduction >= 60.0, "the zero-copy path must cut per-segment memcpy by >= 60%");
}

fn bench_buf(c: &mut Criterion) {
    report_bytes_per_segment();
    let mut group = c.benchmark_group("segment_path");
    for &size in &[512usize, 1460] {
        let mut ring = RingBuffer::new(8192);
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        ring.write(&data);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("legacy_vec", size), &ring, |b, ring| {
            b.iter(|| black_box(legacy_trip(black_box(ring), size)))
        });
        group.bench_with_input(BenchmarkId::new("packetbuf", size), &ring, |b, ring| {
            b.iter(|| black_box(packetbuf_trip(black_box(ring), size)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_buf);
criterion_main!(benches);
