//! Whole-system end-to-end properties: determinism at system scale (the
//! paper's central testability claim), data integrity under arbitrary
//! network abuse, and the behavior of the full stack's substrate
//! features (ARP, fragmentation, ICMP) under the same roof as TCP.

use foxbasis::buf::{copy_mark, PacketBuf};
use foxbasis::obs::{Event, EventSink};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::Cell;
use foxtcp::TcpConfig;
use foxwire::{EtherType, Frame, Ipv4Packet, TcpSegment};
use simnet::{CostModel, FaultConfig, NetConfig};

fn cfg() -> TcpConfig {
    TcpConfig { delayed_ack_ms: None, ..TcpConfig::default() }
}

/// `kind` at both ends on free CPUs with [`cfg`], over `net`.
fn cell(kind: StackKind, net: NetConfig, seed: u64) -> Cell {
    Cell { net, ..Cell::new(kind, CostModel::modern(), cfg(), seed) }
}

/// "Once the actions have been placed on the queue the behavior of TCP
/// is completely deterministic and testable" — at whole-system scale:
/// identical seeds must give bit-identical statistics even on a hostile
/// network, and different seeds must diverge.
#[test]
fn system_scale_determinism() {
    let run = |seed: u64| {
        let faults = FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.02,
            duplicate_chance: 0.02,
            jitter: VirtualDuration::from_millis(1),
            ..FaultConfig::default()
        };
        let netcfg = NetConfig { faults, ..NetConfig::default() };
        let cell = Cell { cost: CostModel::decstation_sml(), ..cell(StackKind::FoxStandard, netcfg, seed) };
        let res = cell.bulk(100_000);
        (res.elapsed, res.sender, res.receiver, res.net)
    };
    let a = run(12345);
    let b = run(12345);
    assert_eq!(a, b, "same seed, same everything");
    let c = run(54321);
    assert_ne!(a.3, c.3, "different seed, different network history");
}

/// Data integrity across every fault class at once, all three stacks.
#[test]
fn integrity_under_abuse_all_stacks() {
    for kind in [StackKind::FoxStandard, StackKind::FoxSpecial, StackKind::XKernel] {
        let faults = FaultConfig {
            drop_chance: 0.04,
            corrupt_chance: 0.02,
            duplicate_chance: 0.02,
            jitter: VirtualDuration::from_micros(800),
            ..FaultConfig::default()
        };
        let netcfg = NetConfig { faults, ..NetConfig::default() };
        let res = cell(kind, netcfg, 777).bulk(60_000);
        assert_eq!(res.bytes, 60_000, "{}: incomplete", kind.name());
        assert!(res.sender.retransmits > 0, "{}: loss must have caused retransmits", kind.name());
    }
}

/// Fast recovery under Gilbert–Elliott burst loss: short bursts knock
/// out part of a window, the duplicate ACKs behind the hole trigger
/// fast retransmit, and the whole transfer completes without a single
/// retransmission-timer fallback. (Seed 173 is a pinned deterministic
/// run whose bursts all land mid-window; the window is 16 KB ≈ 11 MSS
/// so three duplicates can actually accumulate.)
#[test]
fn burst_loss_recovers_without_rto() {
    let tcp =
        TcpConfig { initial_window: 16384, send_buffer: 32768, delayed_ack_ms: None, ..TcpConfig::default() };
    let netcfg = NetConfig { faults: FaultConfig::bursty(1.0 / 60.0, 0.5, 1.0), ..NetConfig::default() };
    let deadline = VirtualTime::from_millis(120_000);
    let res = Cell { tcp, deadline, ..cell(StackKind::FoxStandard, netcfg, 173) }.bulk(200_000);
    assert_eq!(res.bytes, 200_000, "burst-loss transfer must complete");
    let st = res.sender;
    assert!(st.recoveries > 0, "losses must be repaired by fast recovery: {st:?}");
    assert!(st.fast_retransmits > 0, "{st:?}");
    assert_eq!(st.rto_fires, 0, "no retransmission-timer fallback: {st:?}");
    assert!(st.retransmits >= st.fast_retransmits, "{st:?}");
}

/// The receive-queue bound (the 24 KB "Mach buffer"): a sender that
/// bursts more than the receiver's queue drops frames at the buffer and
/// TCP recovers — no wedge, no corruption.
#[test]
fn kernel_buffer_overflow_recovers() {
    let netcfg = NetConfig { rx_capacity: 4096, ..NetConfig::default() }; // a tiny kernel buffer
    let res = cell(StackKind::FoxStandard, netcfg, 31).bulk(80_000);
    assert_eq!(res.bytes, 80_000);
}

/// RTT through the full stack is sane: more than the wire time, far less
/// than a timer artifact, and the mean sits between min and max.
#[test]
fn rtt_through_full_stack() {
    let r = cell(StackKind::FoxStandard, NetConfig::default(), 5).ping(25, 64);
    assert_eq!(r.rounds, 25);
    // Wire time for a small frame is ~120 µs round trip.
    assert!(r.mean_rtt >= VirtualDuration::from_micros(100), "{:?}", r.mean_rtt);
    assert!(r.mean_rtt <= VirtualDuration::from_millis(50), "{:?}", r.mean_rtt);
    assert!(r.min_rtt <= r.mean_rtt && r.mean_rtt <= r.max_rtt);
}

/// The 1994 machine model must reproduce the paper's headline relation:
/// Fox Net markedly slower than the x-kernel, both far below the wire.
#[test]
fn paper_speed_relation_holds() {
    let bytes = 200_000; // smaller than Table 1's 10^6 to keep tests fast
    let run = |kind: StackKind, cost: CostModel| {
        foxharness::experiments::table1_cell(kind, cost, 42).bulk(bytes).throughput_mbps
    };
    let fox = run(StackKind::FoxStandard, CostModel::decstation_sml());
    let xk = run(StackKind::XKernel, CostModel::decstation_c());
    assert!(fox < xk, "fox {fox} must be slower than xk {xk}");
    let ratio = fox / xk;
    assert!((0.1..=0.5).contains(&ratio), "throughput ratio {ratio:.2} should bracket the paper's 0.24");
    assert!(xk < 10.0, "nobody beats the wire");
}

/// A drive over a long silent period does not spin or wedge (timers and
/// idle detection cooperate).
#[test]
fn quiescent_stack_stays_quiescent() {
    let (net, mut a, mut b) = cell(StackKind::FoxStandard, NetConfig::default(), 1).pair(EventSink::off());
    b.listen(1);
    let conn = a.connect(1);
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| st[0].established(conn),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(2_000),
    );
    // Ten idle virtual minutes.
    drive(
        &net,
        &mut [&mut a, &mut b],
        |_| false,
        VirtualDuration::from_millis(100),
        VirtualTime::from_millis(600_000),
    );
    assert!(a.established(conn), "connection survives idleness");
    let before = a.stats().segments_sent;
    a.send(conn, b"still alive");
    let mut bc = None;
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| {
            if bc.is_none() {
                bc = st[1].accept();
            }
            bc.is_some_and(|c| st[1].received_len(c) > 0)
        },
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(660_000),
    );
    assert!(a.stats().segments_sent > before);
}

/// No layer re-homes a frame on its way down, options or not. Over the
/// full dev/eth/ip stack with SACK and timestamps on, through loss and
/// the retransmissions it forces, the thread's copy counter reads
/// exactly one staging copy per data segment either end sent,
/// retransmissions included, of exactly its payload, plus the two ARP
/// packets. The receive-side term is zero: each layer slices its
/// payload out of the frame, and the user's bytes are read out of the
/// view without a counted copy.
#[test]
fn no_layer_rehomes_an_optioned_frame_under_loss() {
    let tcp = TcpConfig { sack: true, timestamps: true, ..cfg() };
    let faults = FaultConfig { drop_chance: 0.03, ..FaultConfig::default() };
    let cell = Cell { tcp, ..cell(StackKind::FoxStandard, NetConfig { faults, ..NetConfig::default() }, 89) };
    let mark = copy_mark();
    let run = cell.traced_bulk(200_000);
    let copied = mark.delta();

    assert_eq!((run.bulk.bytes, run.dropped), (200_000, 0), "delivered whole, traced whole");
    assert!(run.bulk.sender.retransmits > 0, "the loss forced retransmissions");
    let sent: Vec<u64> = run
        .events
        .iter()
        .filter_map(|e| match e.event {
            Event::SegTx { len, .. } if len > 0 => Some(u64::from(len)),
            _ => None,
        })
        .collect();
    // Beside them, the only copies are the ARP exchange's: a request and
    // a reply, each one packet staged.
    let arp = (2, 2 * foxwire::arp::PACKET_LEN as u64);
    assert_eq!(copied.copies, sent.len() as u64 + arp.0, "one staging copy per data segment sent");
    assert_eq!(copied.bytes, sent.iter().sum::<u64>() + arp.1, "of exactly its payload");

    // The options were on the wire: every TCP segment is timestamped, and
    // the receiver reported its holes in SACK blocks.
    let pcap = run.pcap.bytes();
    let (mut segments, mut stamped, mut sacked, mut at) = (0, 0, 0, 24); // past the global header
    while at < pcap.len() {
        let len = u32::from_le_bytes(pcap[at + 8..at + 12].try_into().unwrap()) as usize;
        let frame = Frame::decode_buf(&PacketBuf::from(&pcap[at + 16..at + 16 + len])).unwrap();
        at += 16 + len;
        if frame.ethertype != EtherType::Ipv4 {
            continue; // the ARP exchange
        }
        let ip = Ipv4Packet::decode_buf(&frame.payload).unwrap();
        let seg = TcpSegment::decode_buf(&ip.payload, None).unwrap();
        segments += 1;
        stamped += usize::from(seg.header.timestamps().is_some());
        sacked += usize::from(!seg.header.sack_blocks().is_empty());
    }
    assert_eq!(stamped, segments, "every segment carries timestamps");
    assert!(sacked > 0, "SACK blocks reported the holes");
}
