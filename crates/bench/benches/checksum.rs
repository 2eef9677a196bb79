//! The §5 checksum comparison, on today's hardware.
//!
//! Paper (DECstation 5000/125): Fig. 10's word-at-a-time algorithm with
//! deferred carries ran at 343 µs/KB; the x-kernel's byte-oriented
//! routine at 375 µs/KB. The *claim* is the ratio: the better algorithm
//! wins despite SML's bounds checks. Here both algorithms are measured
//! with Criterion beside the kernel production code actually runs
//! (`ones_complement_sum`), and the frame check sequence — the other
//! per-byte pass every frame pays twice — is measured against the
//! bit-at-a-time definition it replaced. EXPERIMENTS.md records the
//! per-KB figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foxbasis::checksum::{byte_check, ones_complement_sum, word_check, ChecksumAccum};
use foxwire::ether::crc32;
use std::hint::black_box;

fn data(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    for &size in &[64usize, 1024, 1460, 8192, 65536] {
        let buf = data(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("word_check_fig10", size), &buf, |b, buf| {
            b.iter(|| word_check(black_box(buf)))
        });
        group.bench_with_input(BenchmarkId::new("byte_check_xkernel", size), &buf, |b, buf| {
            b.iter(|| byte_check(black_box(buf)))
        });
        group.bench_with_input(BenchmarkId::new("ones_complement_sum_production", size), &buf, |b, buf| {
            b.iter(|| ones_complement_sum(black_box(buf)))
        });
        group.bench_with_input(BenchmarkId::new("streaming_accum", size), &buf, |b, buf| {
            b.iter(|| {
                let mut acc = ChecksumAccum::new();
                acc.add_bytes(black_box(buf));
                acc.finish()
            })
        });
    }
    group.finish();
}

/// CRC-32 by its definition, one bit per step: what `crc32` was before
/// the tables, re-declared here as the baseline.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    // Minimum frame, one MSS of payload, a full frame.
    for &size in &[64usize, 1460, 1514] {
        let buf = data(size);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sliced_production", size), &buf, |b, buf| {
            b.iter(|| crc32(black_box(buf)))
        });
        group.bench_with_input(BenchmarkId::new("bitwise", size), &buf, |b, buf| {
            b.iter(|| crc32_bitwise(black_box(buf)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checksum, bench_crc32);
criterion_main!(benches);
