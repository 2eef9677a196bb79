//! FaultConfig reordering is deterministic, not merely bounded: with a
//! nonzero jitter, two runs from the same seed must deliver the same
//! frames in the same order, byte for byte. Jitter is allowed to
//! *reorder* traffic; it is never allowed to make a run unrepeatable.

use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::ether::{EthAddr, EtherType, Frame};
use proptest::prelude::*;
use simnet::{FaultConfig, NetConfig, SimNet};

fn payload_frame(i: u8, len: usize) -> Vec<u8> {
    Frame::new(EthAddr::host(2), EthAddr::host(1), EtherType::Other(0x1234), vec![i; len])
        .encode_buf()
        .unwrap()
        .to_vec()
}

/// One seeded run: `count` frames of varying sizes through a jittery
/// (and optionally lossy) segment; returns the delivered bytes in
/// arrival order plus the final statistics.
fn run(seed: u64, jitter_us: u64, drop: f64, count: u8) -> (Vec<Vec<u8>>, simnet::NetStats) {
    let cfg = NetConfig {
        faults: FaultConfig {
            jitter: VirtualDuration::from_micros(jitter_us),
            drop_chance: drop,
            ..FaultConfig::default()
        },
        ..NetConfig::default()
    };
    let net = SimNet::new(cfg, seed);
    let a = net.attach(EthAddr::host(1));
    let b = net.attach(EthAddr::host(2));
    for i in 0..count {
        a.send(payload_frame(i, 64 + usize::from(i)));
    }
    net.advance_to(VirtualTime::from_millis(500));
    let mut got = Vec::new();
    while let Some(f) = b.recv() {
        got.push(f.bytes().to_vec());
    }
    (got, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed, same jitter → identical delivery order and stats.
    #[test]
    fn same_seed_same_delivery_order(
        seed in any::<u64>(),
        jitter_us in 1u64..5_000,
        drop_permille in 0u32..400,
        count in 2u8..40,
    ) {
        let drop = f64::from(drop_permille) / 1000.0;
        let first = run(seed, jitter_us, drop, count);
        let second = run(seed, jitter_us, drop, count);
        prop_assert_eq!(&first.0, &second.0, "delivery order must replay bit-identically");
        prop_assert_eq!(first.1, second.1);
    }

    /// Jitter must actually be able to reorder: with a jitter window far
    /// wider than the serialization gap, some seed within a small family
    /// produces an out-of-order delivery (so the determinism above is
    /// not vacuous).
    #[test]
    fn jitter_reorders_somewhere(seed in any::<u64>()) {
        let reordered = (0..16u64).any(|s| {
            let (got, _) = run(seed.wrapping_add(s), 4_000, 0.0, 12);
            let ids: Vec<u8> = got.iter().map(|f| f[14]).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            ids != sorted
        });
        prop_assert!(reordered, "a 4 ms jitter window should reorder 12 back-to-back frames");
    }
}
