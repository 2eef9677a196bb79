//! Quickstart: two hosts on a simulated 10 Mb/s Ethernet talk TCP.
//!
//! This assembles the paper's `Standard_Tcp` stack (Fig. 3) on two
//! simulated machines, performs the three-way handshake, exchanges a
//! little data in both directions, and closes cleanly — narrating each
//! phase.
//!
//! Run with: `cargo run --example quickstart`

use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::Cell;
use foxtcp::TcpConfig;
use simnet::CostModel;

fn main() {
    // The whole experiment, declared: `Standard_Tcp` at both ends of an
    // isolated 10 Mb/s Ethernet segment, deterministic under seed 7.
    // `CostModel::modern()` runs the protocol code "for free"; swap in
    // `CostModel::decstation_sml()` to feel 1994.
    let cell = Cell::new(StackKind::FoxStandard, CostModel::modern(), TcpConfig::default(), 7);

    // Two stations: MAC 02:...:01 / IP 10.0.0.1 and 02:...:02 / 10.0.0.2.
    let (net, mut alice, mut bob) = cell.pair(EventSink::off());

    println!("== passive open: bob listens on port 7777");
    bob.listen(7777);

    println!("== active open: alice connects (SYN / SYN+ACK / ACK follow)");
    let a_conn = alice.connect(7777);

    let mut b_conn = None;
    drive(
        &net,
        &mut [&mut alice, &mut bob],
        |st| {
            if b_conn.is_none() {
                b_conn = st[1].accept();
            }
            b_conn.is_some() && st[0].established(a_conn)
        },
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    let b_conn = b_conn.expect("bob accepted");
    println!("   established at t = {} (both sides)", net.now());

    println!("== alice -> bob");
    assert_eq!(alice.send(a_conn, b"four score and seven years ago"), 30);
    drive(
        &net,
        &mut [&mut alice, &mut bob],
        |st| st[1].received_len(b_conn) >= 30,
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    let got = bob.recv(b_conn);
    println!("   bob received {:?}", String::from_utf8_lossy(&got));

    println!("== bob -> alice");
    bob.send(b_conn, b"connection-specialized upcalls at work");
    drive(
        &net,
        &mut [&mut alice, &mut bob],
        |st| st[0].received_len(a_conn) > 0,
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    println!("   alice received {:?}", String::from_utf8_lossy(&alice.recv(a_conn)));

    println!("== close: FIN / ACK / FIN / ACK, then TIME-WAIT");
    alice.close(a_conn);
    drive(
        &net,
        &mut [&mut alice, &mut bob],
        |st| st[1].peer_closed(b_conn),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    bob.close(b_conn);
    drive(
        &net,
        &mut [&mut alice, &mut bob],
        |st| st[1].finished(b_conn),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(5_000),
    );
    println!("   bob fully closed; alice lingers in TIME-WAIT for 2MSL");

    let a = alice.stats();
    let b = bob.stats();
    println!("== totals at t = {}", net.now());
    println!("   alice: {} segments out, {} in", a.segments_sent, a.segments_received);
    println!("   bob:   {} segments out, {} in", b.segments_sent, b.segments_received);
    println!("   wire:  {:?}", net.stats());
}
