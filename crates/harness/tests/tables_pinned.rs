//! Byte-for-byte pins of the paper tables. PR 7 adds a second cost
//! profile, device batching, and ACK coalescing around the same engine
//! code these tables run through — these tests are the contract that
//! all of it is invisible at the defaults: the rendered Table 1 and
//! Table 2 must not drift by a single byte from the output the seed
//! repo produced (captured before any of the new knobs existed).

use foxharness::experiments as exp;

/// The new knobs must default off: no ACK coalescing override and no
/// device batching in the paper configuration, or the pins below would
/// be testing the wrong experiment.
#[test]
fn paper_config_leaves_the_new_knobs_off() {
    let cfg = exp::paper_tcp_config();
    assert_eq!(cfg.ack_coalesce_segments, None, "coalescing must be opt-in");
    assert_eq!(cfg.delayed_ack_ms, None, "the paper bulk runs ack immediately");
    let batch = foxproto::dev::BatchConfig::default();
    assert_eq!((batch.rx_burst, batch.tx_burst), (1, 1), "batching must be opt-in");
}

#[test]
fn table1_renders_byte_for_byte() {
    let expected = "\
Table 1: Speed Comparison of TCP Implementations (paper: 0.6 / 2.5 Mb/s, 36 / 4.9 ms)
--------------------------------------------------
|                   | Fox Net | x-kernel | ratio |
--------------------------------------------------
| Throughput (Mb/s) |     0.6 |      2.5 |  0.24 |
|   Round-Trip (ms) |    32.2 |      5.3 |  6.04 |
--------------------------------------------------";
    let got = format!("{}", exp::render_table1(&exp::table1(42)));
    assert_eq!(got.trim_end(), expected, "Table 1 drifted from the pinned rendering");
}

#[test]
fn table2_renders_byte_for_byte() {
    let expected = "\
Table 2: Execution Profile (Percent of Total Time) of the TCP/IP stack
-------------------------------------------------------------
|         component | Sender | Receiver | paper S | paper R |
-------------------------------------------------------------
|               TCP |   28.8 |     28.9 |    29.0 |    27.5 |
|                IP |    7.9 |      7.9 |     7.8 |     9.7 |
| eth, Mach interf. |   11.0 |     11.0 |    11.2 |    11.9 |
|              copy |    9.6 |      9.6 |    10.5 |     6.3 |
|          checksum |    4.7 |      4.7 |     5.1 |     5.6 |
|         Mach send |    7.3 |      7.3 |     7.5 |     6.0 |
|       packet wait |   17.6 |     18.1 |    15.8 |     9.3 |
|             g. c. |    3.4 |      3.4 |     3.4 |     5.0 |
|             misc. |    4.7 |      4.7 |     4.7 |     7.3 |
|   counters (est.) |    4.7 |      4.4 |     5.2 |     5.4 |
|             total |   99.8 |    100.0 |   100.2 |    94.0 |
-------------------------------------------------------------";
    let got = format!("{}", exp::render_table2(&exp::table2(42)));
    assert_eq!(got.trim_end(), expected, "Table 2 drifted from the pinned rendering");
}

/// FNV-1a-64, written out here so the pin below shares no code with the
/// checksum, FCS or ring kernels it guards.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The frames are pinned the way the tables are: a hash of every byte
/// that crossed the medium (libpcap-framed, so virtual timestamps and
/// frame lengths are covered too). The constants were captured at commit
/// db9c00e, before the ring, checksum and CRC-32 kernels were rewritten;
/// a codec, checksum or FCS change that moves one wire byte fails here
/// instead of silently re-baselining.
#[test]
fn wire_is_pinned() {
    use foxharness::stack::StackKind;
    use simnet::CostModel;

    for (kind, want) in
        [(StackKind::FoxStandard, 0x2c10_1756_9dd1_3d35_u64), (StackKind::XKernel, 0x007c_c973_260f_100a_u64)]
    {
        let run = exp::table1_cell(kind, CostModel::modern(), 42).traced_bulk(100_000);
        assert_eq!(run.bulk.bytes, 100_000);
        assert_eq!(fnv1a64(&run.pcap.bytes()), want, "{kind:?}: Table 1 bulk frames drifted from the pin");
    }

    // The loss matrix's "corrupt 3%" cell with every option offered: corrupted
    // frames cross the medium and die at the receiver's FCS check, the
    // holes they leave draw SACK blocks, and the sender retransmits.
    // (This one constant was re-captured when the receiver began listing
    // the newest range first, RFC 2018 §4: an ACK that reports two or
    // three ranges carries the same blocks in another order; and again
    // when a write into the closed window stopped re-arming a pending
    // persist timer: the cell's probe goes at t+1 046 479 µs, the first
    // arm's deadline, not 1 ms later, and every later frame with it.)
    let cfg =
        foxtcp::TcpConfig { window_scale: true, sack: true, timestamps: true, ..exp::loss_matrix_config() };
    let faults = simnet::FaultConfig { corrupt_chance: 0.03, ..simnet::FaultConfig::default() };
    let run = exp::loss_cell(StackKind::FoxStandard, faults, cfg, 42).traced_bulk(200_000);
    assert_eq!(run.bulk.bytes, 200_000);
    assert!(
        run.bulk.net.frames_corrupted > 0 && run.bulk.sender.retransmits > 0,
        "the cell must exercise recovery"
    );
    assert_eq!(
        fnv1a64(&run.pcap.bytes()),
        0x3367_725f_3549_4dbf_u64,
        "lossy-cell frames drifted from the pin"
    );
}
