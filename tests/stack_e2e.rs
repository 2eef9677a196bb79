//! Whole-system end-to-end properties: determinism at system scale (the
//! paper's central testability claim), data integrity under arbitrary
//! network abuse, and the behavior of the full stack's substrate
//! features (ARP, fragmentation, ICMP) under the same roof as TCP.

use fox_scheduler::SchedHandle;
use foxbasis::buf::{copy_mark, PacketBuf};
use foxbasis::obs::{Event, EventSink};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::{fox_station, ip_of, mac_of, StackKind};
use foxharness::Cell;
use foxproto::aux::IpAuxImpl;
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig};
use foxproto::shared::Shared;
use foxtcp::{Tcp, TcpConfig};
use foxwire::ether::MTU;
use foxwire::{EtherType, Frame, IpProtocol, Ipv4Packet, TcpSegment};
use simnet::{CostModel, FaultConfig, HostHandle, NetConfig, SimNet};

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

/// A clean exchange re-runs no CRC-32: every frame leaves its sender
/// sealed, with its FCS unwritten, and arrives sealed, so neither
/// host's Ethernet layer checks one again. A promiscuous port that never
/// reads a byte sees every frame the wire carried still sealed — which a
/// read anywhere on the send path (the wire's own look at the
/// destination address, say) would have undone.
#[test]
fn a_clean_exchange_runs_no_fcs_check_and_every_frame_stays_sealed() {
    let net = SimNet::new(NetConfig::gigabit(), 41);
    let snoop = net.attach(mac_of(99));
    snoop.set_promiscuous(true);
    let standard = |id: u16, peer: u16| {
        let host = HostHandle::free();
        let eth =
            Shared::new(Eth::new(Dev::new(net.attach(mac_of(id)), host.clone()), mac_of(id), host.clone()));
        let ip = Ip::new(eth.clone(), mac_of(id), IpConfig::isolated(ip_of(id)), host.clone());
        let aux = IpAuxImpl::new(ip_of(id), IpProtocol::Tcp, MTU);
        let tcp = Tcp::new(ip, aux, IpProtocol::Tcp, cfg(), SchedHandle::new(), host.clone());
        (fox_station(tcp, host, ip_of(peer), "fox"), eth)
    };
    let ((mut a, a_eth), (mut b, b_eth)) = (standard(1, 2), standard(2, 1));
    b.listen(7);
    let conn = a.connect(7);
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
    let bc = bc.expect("accepted");
    let data = vec![0x3c; 4_000];
    assert_eq!(a.send(conn, &data), data.len());
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| st[1].received_len(bc) == data.len(),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(10_000),
    );
    assert_eq!(b.recv(bc), data);
    b.send(bc, b"thanks");
    drive(
        &net,
        &mut [&mut a, &mut b],
        |st| st[0].received_len(conn) == 6,
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(15_000),
    );
    assert_eq!(a.recv(conn), b"thanks");
    // Let the last ACK land.
    drive(
        &net,
        &mut [&mut a, &mut b],
        |_| false,
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(20_000),
    );

    for (name, eth) in [("a", &a_eth), ("b", &b_eth)] {
        let s = eth.with(|e| e.stats());
        assert!(s.delivered > 5, "{name}: {s:?}");
        assert_eq!((s.fcs_checked, s.bad_fcs), (0, 0), "{name}: {s:?}");
    }
    let mut seen = 0;
    while let Some(frame) = snoop.recv() {
        assert!(frame.is_sealed(), "frame {seen} ({} bytes) reached the wire unsealed", frame.len());
        seen += 1;
    }
    assert_eq!(seen, net.stats().frames_sent, "the snoop saw every frame");
}
