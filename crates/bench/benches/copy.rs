//! The §5 copy comparison, on today's hardware.
//!
//! Paper: SML copy ≈ 300 µs/KB vs `bcopy` ≈ 61 µs/KB (≈ 5×), because
//! "the current compiler ... checks array bounds on every access and
//! recomputes pointers on every access". The Rust rendering compares the
//! same three shapes: a checked word-at-a-time loop, a checked
//! byte-at-a-time loop, and `memcpy` — plus the copy the stack itself
//! makes per segment: one MSS into the send ring and back out, across
//! the ring's wrap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foxbasis::copy::{byte_copy, checked_word_copy, optimized_copy};
use foxbasis::ring::RingBuffer;
use foxbasis::wordarray::WordArray;
use std::hint::black_box;

fn bench_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("copy");
    for &size in &[1024usize, 1460, 8192, 65536] {
        let src_bytes: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let src = WordArray::from_slice(&src_bytes);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("checked_word_copy_sml", size), &src, |b, src| {
            let mut dst = WordArray::new(size);
            b.iter(|| checked_word_copy(black_box(src), black_box(&mut dst)))
        });
        group.bench_with_input(BenchmarkId::new("byte_copy", size), &src, |b, src| {
            let mut dst = WordArray::new(size);
            b.iter(|| byte_copy(black_box(src), black_box(&mut dst)))
        });
        group.bench_with_input(BenchmarkId::new("optimized_copy_bcopy", size), &src_bytes, |b, src| {
            let mut dst = vec![0u8; size];
            b.iter(|| optimized_copy(black_box(src), black_box(&mut dst)))
        });
    }
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    const MSS: usize = 1460;
    let mut group = c.benchmark_group("ring");
    group.throughput(Throughput::Bytes(2 * MSS as u64));
    let src: Vec<u8> = (0..MSS).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; MSS];
    // Two bytes of slack: each round leaves the head two bytes further
    // back, so all but 2 rounds in 731 split the write and the peek into
    // two runs, at every alignment in turn.
    let mut ring = RingBuffer::new(MSS + 2);
    group.bench_function(BenchmarkId::new("write_peek_at_across_wrap", MSS), |b| {
        b.iter(|| {
            ring.write(black_box(&src));
            let n = ring.peek_at(0, black_box(&mut dst));
            ring.skip(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_copy, bench_ring);
criterion_main!(benches);
