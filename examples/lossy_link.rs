//! Fault injection: the conditions the Resend module exists for.
//!
//! Runs the bulk workload across increasingly hostile wires — drops,
//! corruption, duplication, reordering jitter — and shows the transfer
//! completing intact every time, with the Karn/Jacobson machinery
//! visible in the retransmission counts.
//!
//! Run with: `cargo run --release --example lossy_link`

use foxbasis::time::VirtualDuration;
use foxharness::stack::StackKind;
use foxharness::Cell;
use foxtcp::TcpConfig;
use simnet::{CostModel, FaultConfig, NetConfig};

fn run(label: &str, faults: FaultConfig) {
    let cfg = TcpConfig { delayed_ack_ms: None, ..TcpConfig::default() };
    let net = NetConfig { faults, ..NetConfig::default() };
    let bytes = 250_000;
    let r = Cell { net, ..Cell::new(StackKind::FoxStandard, CostModel::modern(), cfg, 4242) }.bulk(bytes);
    assert_eq!(r.bytes, bytes, "{label}: data must arrive complete and intact");
    let n = r.net;
    println!(
        "{label:<28} {:>7.3} Mb/s  retx={:<4} dropped={:<4} corrupted={:<4} dup={:<3} ooo-segs={}",
        r.throughput_mbps,
        r.sender.retransmits,
        n.frames_dropped_fault,
        n.frames_corrupted,
        n.frames_duplicated,
        r.receiver.segments_received - r.receiver.fastpath_hits, // header prediction's misses
    );
}

fn main() {
    println!("250 KB through a 10 Mb/s wire under increasing abuse (window 4096):");
    println!();
    run("clean", FaultConfig::default());
    run("3% drop", FaultConfig { drop_chance: 0.03, ..FaultConfig::default() });
    run("10% drop", FaultConfig { drop_chance: 0.10, ..FaultConfig::default() });
    run("3% corruption", FaultConfig { corrupt_chance: 0.03, ..FaultConfig::default() });
    run("5% duplication", FaultConfig { duplicate_chance: 0.05, ..FaultConfig::default() });
    run(
        "2 ms reordering jitter",
        FaultConfig { jitter: VirtualDuration::from_millis(2), ..FaultConfig::default() },
    );
    run(
        "everything at once",
        FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.03,
            duplicate_chance: 0.03,
            jitter: VirtualDuration::from_millis(1),
            ..FaultConfig::default()
        },
    );
    println!();
    println!("every run delivered all 250,000 bytes byte-for-byte intact.");
}
