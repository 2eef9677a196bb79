//! Every retransmission timeout of one lossy bulk transfer, classified
//! from the event stream (DESIGN.md §5.14).
//!
//! The cell is `foxperf`'s `bulk-loss` workload on the first of its three
//! compiled-in fault schedules: the modern profile over Gilbert–Elliott
//! bursts (enter 1/500, leave 1/3, lose 90 % inside), 20 µs of jitter
//! and 0.05 % corruption, with SACK, timestamps and Reno on. Before
//! loss recovery stopped waiting for the timer this one transfer read
//! 226 timeouts for 109 dropped frames, 184 of them *crawl*: a timeout
//! whose predecessor was also a timeout and bought exactly one segment.
//! EXPERIMENTS.md has the table.

use foxbasis::obs::{flags, Event, EventSink, LossEvent, Stamped};
use foxbasis::time::VirtualDuration;
use foxharness::stack::StackKind;
use foxharness::workload::bulk_transfer;
use foxharness::{BenchProfile, Cell};
use foxtcp::TcpConfig;
use simnet::FaultConfig;

const BYTES: usize = 20_000_000;
/// `SplitMix(foxperf's FAULT_SEED).next_u64()`: its first schedule.
const SCHEDULE: u64 = 0x1fd6_311a_12fb_98c1;
/// The link's MSS; a data segment carries 12 bytes less (timestamps).
const MSS: u32 = 1460;
/// The bulk sender is the cell's first station, and the first host on
/// the segment.
const SENDER_HOST: u32 = 0;

fn bulk_loss_cell() -> Cell {
    let modern = BenchProfile::Modern.cell(StackKind::FoxStandard, SCHEDULE);
    let mut net = modern.net.clone();
    net.faults = FaultConfig {
        jitter: VirtualDuration::from_micros(20),
        corrupt_chance: 0.0005,
        ..FaultConfig::bursty(1.0 / 500.0, 1.0 / 3.0, 0.9)
    };
    let tcp = TcpConfig {
        sack: true,
        timestamps: true,
        congestion_control: true,
        max_retransmits: 64,
        syn_retries: 64,
        ..modern.tcp.clone()
    };
    Cell { net, tcp, ..modern }
}

/// The sender's timeouts by what they were, and its episode starts by
/// what was lost.
#[derive(Debug, Default, PartialEq)]
struct RtoClasses {
    /// The first timeout of an episode.
    start: u32,
    /// A backed-off repeat: nothing was acknowledged since the last one.
    repeat: u32,
    /// Backoff 0, the connection's previous loss event also a timeout,
    /// and `snd_una` no more than one MSS further on.
    crawl: u32,
    /// Of `start`: the receiver never saw the end of the flight, so
    /// nothing came after the loss to be acknowledged in duplicate.
    tail: u32,
    /// Of `start`: the receiver had everything; only ACKs were lost.
    ack_only: u32,
    /// Of `start`: anything else.
    other: u32,
}

/// `a` is later than `b` in sequence space (or `b` is still unset).
fn later(a: u32, b: Option<u32>) -> bool {
    b.is_none_or(|b| (a.wrapping_sub(b) as i32) > 0)
}

fn classify(events: &[Stamped], sender: u32) -> RtoClasses {
    let mut c = RtoClasses::default();
    // The sender's view: what it has sent and what has been acknowledged.
    let (mut snd_una, mut snd_nxt) = (None, None);
    // The receiver's: what it has acknowledged and the highest byte seen.
    let (mut rcv_nxt, mut rcv_seen) = (None, None);
    let (mut backoff, mut una_at_last_rto, mut last_loss_was_rto) = (0, None, false);
    for e in events {
        let from_sender = e.host == sender;
        match e.event {
            Event::SegRx { ack, flags: f, .. }
                if from_sender && f & flags::ACK != 0 && later(ack, snd_una) =>
            {
                snd_una = Some(ack);
                backoff = 0;
            }
            Event::SegTx { seq, len, .. }
                if from_sender && len > 0 && later(seq.wrapping_add(len), snd_nxt) =>
            {
                snd_nxt = Some(seq.wrapping_add(len));
            }
            Event::SegRx { seq, len, .. }
                if !from_sender && len > 0 && later(seq.wrapping_add(len), rcv_seen) =>
            {
                rcv_seen = Some(seq.wrapping_add(len));
            }
            Event::SegTx { ack, .. } if !from_sender && later(ack, rcv_nxt) => rcv_nxt = Some(ack),
            Event::Loss { kind: LossEvent::Rto } if from_sender => {
                let advanced =
                    snd_una.zip(una_at_last_rto).map(|(now, then): (u32, u32)| now.wrapping_sub(then));
                if backoff > 0 {
                    c.repeat += 1;
                } else if last_loss_was_rto && advanced.is_some_and(|a| a <= MSS) {
                    c.crawl += 1;
                } else {
                    c.start += 1;
                    if rcv_nxt == snd_nxt {
                        c.ack_only += 1;
                    } else if rcv_seen != snd_nxt {
                        c.tail += 1;
                    } else {
                        c.other += 1;
                    }
                }
                backoff += 1;
                una_at_last_rto = snd_una;
                last_loss_was_rto = true;
            }
            // The retransmissions a timeout causes are part of it.
            Event::Loss { kind } if from_sender && kind != LossEvent::RtoRetransmit => {
                last_loss_was_rto = false
            }
            _ => {}
        }
    }
    c
}

#[test]
fn no_timeout_of_a_lossy_bulk_transfer_is_a_crawl() {
    let cell = bulk_loss_cell();
    let sink = EventSink::recording(1 << 19);
    let (net, mut sender, mut receiver) = cell.pair(sink.clone());
    let r = bulk_transfer(&net, &mut sender, &mut receiver, BYTES, cell.deadline);
    assert_eq!(r.bytes, BYTES, "the transfer must complete: {cell:?}");
    assert_eq!(sink.dropped(), 0, "the ring must hold the whole run");

    let c = classify(&sink.events(), SENDER_HOST);
    println!("{c:?} of {} timeouts, {} frames dropped", r.sender.rto_fires, r.net.frames_dropped_fault);
    assert_eq!(u64::from(c.start + c.repeat + c.crawl), r.sender.rto_fires, "every timeout classified");
    assert_eq!(c.start, c.tail + c.ack_only + c.other);
    assert_eq!(c.crawl, 0, "a timeout that resends one segment and waits for the next: {c:?}");
    assert!(
        r.sender.rto_fires <= r.net.frames_dropped_fault,
        "{} timeouts for {} dropped frames: the timer is recovering what ACKs should",
        r.sender.rto_fires,
        r.net.frames_dropped_fault
    );
}
