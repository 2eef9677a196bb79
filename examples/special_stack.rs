//! Fig. 3's non-standard composition: `Special_Tcp` — TCP directly over
//! Ethernet, no IP, TCP checksums off.
//!
//! "This makes it possible to combine protocols in new and useful ways,
//! for instance by having an instance of TCP run directly over ethernet,
//! without IP." The safety argument is the Ethernet CRC; our simulated
//! Ethernet really computes and verifies the FCS, so we also demonstrate
//! that wire corruption is caught *below* TCP even with TCP checksums
//! disabled.
//!
//! Run with: `cargo run --release --example special_stack`

use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::Cell;
use foxtcp::TcpConfig;
use simnet::CostModel;

fn transfer(kind: StackKind, corrupt: f64, label: &str) {
    let mut cell = Cell::new(kind, CostModel::modern(), TcpConfig::default(), 99);
    cell.net.faults.corrupt_chance = corrupt;
    let r = cell.bulk(300_000);
    println!(
        "{label:<38} {:>6.2} Mb/s  retransmits={:<3} corrupted-frames={:<3} tcp-checksum-drops={}",
        r.throughput_mbps, r.sender.retransmits, r.net.frames_corrupted, r.receiver.checksum_failures,
    );
    assert_eq!(r.bytes, 300_000, "transfer must complete intact");
}

fn main() {
    println!("structure Standard_Tcp = Tcp (structure Lower = Ip,  val do_checksums = true)");
    println!("structure Special_Tcp  = Tcp (structure Lower = Eth, val do_checksums = false)");
    println!();

    // Both compositions carry the same workload on a clean wire.
    transfer(StackKind::FoxStandard, 0.0, "Standard_Tcp, clean wire");
    transfer(StackKind::FoxSpecial, 0.0, "Special_Tcp,  clean wire");

    // With 2% frame corruption the standard stack drops bad segments at
    // the TCP checksum; the special stack has no TCP checksum, yet the
    // data still arrives intact — the Ethernet FCS rejects the frames
    // below TCP ("specific knowledge that the Ethernet implementation
    // implements the CRC correctly").
    transfer(StackKind::FoxStandard, 0.02, "Standard_Tcp, 2% corruption");
    transfer(StackKind::FoxSpecial, 0.02, "Special_Tcp,  2% corruption");

    // And the quickstart exchange works over the special stack too.
    let (net, mut a, mut b) =
        Cell::new(StackKind::FoxSpecial, CostModel::modern(), TcpConfig::default(), 1).pair(EventSink::off());
    b.listen(80);
    let conn = a.connect(80);
    let mut bc = None;
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| {
            if bc.is_none() {
                bc = st[1].accept();
            }
            bc.is_some() && st[0].established(conn)
        },
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    a.send(conn, b"no IP layer under this segment");
    let bc = bc.unwrap();
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| st[1].received_len(bc) > 0,
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    println!();
    println!("Special_Tcp delivered: {:?}", String::from_utf8_lossy(&b.recv(bc)));
}
