//! The deterministic shared-Ethernet simulator.
//!
//! Model: a single half-duplex 10 Mb/s segment (a "hub", matching the
//! paper's isolated Ethernet). A frame handed to [`Port::send`] waits for
//! the medium, occupies it for its serialization time, and is delivered
//! to every other port whose address filter matches after the propagation
//! delay. Receive queues are bounded in *bytes* (default 24 KB — "we
//! leave the Mach buffer space at its standard 24K bytes"); arrivals that
//! do not fit are dropped and counted, which is exactly how the real
//! Mach kernel buffer lost packets under overrun.
//!
//! Fault injection follows smoltcp's example set: per-frame drop and
//! corruption chances, duplication, and bounded extra delay (reordering),
//! all drawn from one seeded RNG so runs are repeatable.

use crate::pcap::PcapSink;
use foxbasis::buf::PacketBuf;
use foxbasis::obs::{Event, EventSink, NO_CONN};
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::ether::{EthAddr, EtherType, Frame};
use foxwire::ipv4::{IpProtocol, Ipv4Packet};
use foxwire::tcp::{wire_window, TcpSegment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Configuration of the simulated segment.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Link bandwidth in bits per second. The paper's Ethernet: 10 Mb/s.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: VirtualDuration,
    /// Per-port receive queue capacity in bytes (the Mach kernel buffer).
    pub rx_capacity: usize,
    /// Fault injection parameters.
    pub faults: FaultConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bandwidth_bps: 10_000_000,
            propagation: VirtualDuration::from_micros(5),
            rx_capacity: 24 * 1024,
            faults: FaultConfig::default(),
        }
    }
}

impl NetConfig {
    /// A modern switched gigabit link: 1 Gb/s, 1 µs one-way propagation,
    /// and a receive ring deep enough that GRO-sized bursts are not
    /// dropped at the port. Pairs with [`crate::CostModel::modern_gbps`].
    pub fn gigabit() -> NetConfig {
        NetConfig {
            bandwidth_bps: 1_000_000_000,
            propagation: VirtualDuration::from_micros(1),
            rx_capacity: 256 * 1024,
            faults: FaultConfig::default(),
        }
    }
}

/// Fault-injection knobs (probabilities in `[0, 1]`).
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Chance a frame is silently dropped on the wire.
    pub drop_chance: f64,
    /// Chance one octet of a frame is flipped on the wire (the Ethernet
    /// FCS will catch it at the receiver, as the paper's footnote about
    /// Ethernet CRCs demands).
    pub corrupt_chance: f64,
    /// Chance a frame is delivered twice.
    pub duplicate_chance: f64,
    /// Maximum extra, random, per-frame delivery delay (causes
    /// reordering when nonzero).
    pub jitter: VirtualDuration,
    /// Gilbert–Elliott burst loss, good→bad transition: chance per
    /// frame of entering the bursty state. Zero disables the chain.
    pub burst_enter_chance: f64,
    /// Gilbert–Elliott bad→good transition: chance per frame of
    /// leaving the bursty state (so the mean burst length in frames is
    /// `1 / burst_exit_chance`).
    pub burst_exit_chance: f64,
    /// Drop chance while in the bursty state; the good state drops with
    /// the independent `drop_chance`.
    pub burst_loss_chance: f64,
    /// Per-sending-port link shaping — the segment's "personality".
    /// Index = transmitting port id; ports beyond the vector use the
    /// shared medium parameters. An empty vector (the default) is the
    /// symmetric Ethernet of every earlier experiment.
    pub shape: Vec<TxShape>,
    /// Drop-tail limit, in frames, on the queue of frames waiting for
    /// the medium (bufferbloat model: the queue itself is as deep as the
    /// configured limit; `None` = unbounded, the historical behaviour).
    pub queue_frames: Option<usize>,
    /// An MSS-clamping middlebox: every TCP SYN crossing the wire has
    /// its MSS option rewritten down to this value (checksums and FCS
    /// recomputed). Deterministic — no randomness is consumed.
    pub mss_clamp: Option<u16>,
    /// Chance a decodable TCP frame has one header field deterministically
    /// mutated in flight by the in-loop fuzzer (seq/ack bit flips, window
    /// zeroing, payload truncation, option garbling). Checksums are
    /// recomputed, so the mutation reaches the victim's TCP validation
    /// rather than dying at the FCS. Zero (the default) consumes no
    /// randomness.
    pub mutate_chance: f64,
}

/// Per-direction link shaping: overrides applied to frames sent by one
/// port (direction = transmitting port on this two-host segment).
#[derive(Clone, Debug, Default)]
pub struct TxShape {
    /// Serialization bandwidth for this direction; `None` inherits the
    /// segment's shared [`NetConfig::bandwidth_bps`].
    pub bandwidth_bps: Option<u64>,
    /// Extra one-way delay added on top of the segment's propagation.
    pub extra_delay: VirtualDuration,
}

impl FaultConfig {
    /// A lossy profile: `p` chance each of drop and corruption.
    pub fn lossy(p: f64) -> FaultConfig {
        FaultConfig { drop_chance: p, corrupt_chance: p, ..FaultConfig::default() }
    }

    /// A Gilbert–Elliott burst-loss profile: enter the bad state with
    /// chance `enter` per frame, leave it with chance `exit`, and drop
    /// each frame seen in the bad state with chance `loss`.
    pub fn bursty(enter: f64, exit: f64, loss: f64) -> FaultConfig {
        FaultConfig {
            burst_enter_chance: enter,
            burst_exit_chance: exit,
            burst_loss_chance: loss,
            ..FaultConfig::default()
        }
    }

    /// An asymmetric link: port 0 transmits at `fast_bps`, port 1 at
    /// `slow_bps`, with `slow_extra_delay` added in the slow direction
    /// (ADSL-style up/down mismatch).
    pub fn asymmetric(fast_bps: u64, slow_bps: u64, slow_extra_delay: VirtualDuration) -> FaultConfig {
        FaultConfig {
            shape: vec![
                TxShape { bandwidth_bps: Some(fast_bps), extra_delay: VirtualDuration::ZERO },
                TxShape { bandwidth_bps: Some(slow_bps), extra_delay: slow_extra_delay },
            ],
            ..FaultConfig::default()
        }
    }

    /// The dialup↔gigabit mismatch: port 0 answers at 1 Gb/s while port
    /// 1 crawls through a 56 kb/s modem with 60 ms of extra latency.
    pub fn dialup_mismatch() -> FaultConfig {
        FaultConfig::asymmetric(1_000_000_000, 56_000, VirtualDuration::from_millis(60))
    }

    /// A bufferbloat personality: the medium queue is `limit` frames
    /// deep — latency balloons as the queue fills, and only frame
    /// `limit + 1` is (drop-tail) lost.
    pub fn bufferbloat(limit: usize) -> FaultConfig {
        FaultConfig { queue_frames: Some(limit), ..FaultConfig::default() }
    }

    /// An MSS-clamping middlebox profile (e.g. a PPPoE box rewriting
    /// SYNs down to `mss`).
    pub fn clamped(mss: u16) -> FaultConfig {
        FaultConfig { mss_clamp: Some(mss), ..FaultConfig::default() }
    }

    /// An in-loop fuzzer profile: each decodable TCP frame is mutated
    /// with chance `p` (header-field flips, truncation, option garbling),
    /// deterministically under the segment's seed.
    pub fn fuzzing(p: f64) -> FaultConfig {
        FaultConfig { mutate_chance: p, ..FaultConfig::default() }
    }
}

/// Aggregate statistics of a segment.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames accepted for transmission.
    pub frames_sent: u64,
    /// Frame deliveries into receive queues (a broadcast counts once per
    /// receiving port).
    pub frames_delivered: u64,
    /// Frames dropped by fault injection.
    pub frames_dropped_fault: u64,
    /// Frames corrupted by fault injection.
    pub frames_corrupted: u64,
    /// Frames duplicated by fault injection.
    pub frames_duplicated: u64,
    /// Arrivals dropped because a receive queue was full.
    pub frames_dropped_overflow: u64,
    /// Frames dropped at the tail of a full (bufferbloat-limited)
    /// medium queue.
    pub frames_dropped_queue: u64,
    /// Frames mutated by the in-loop fuzzer.
    pub frames_mutated: u64,
    /// Frames rewritten by a middlebox hook (MSS clamping).
    pub frames_rewritten: u64,
    /// Payload bytes accepted for transmission.
    pub bytes_sent: u64,
}

struct Delivery {
    at: VirtualTime,
    seq: u64,
    port: usize,
    frame: PacketBuf,
}

impl PartialEq for Delivery {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Delivery {
    fn cmp(&self, o: &Self) -> Ordering {
        o.at.cmp(&self.at).then_with(|| o.seq.cmp(&self.seq))
    }
}

struct PortState {
    addr: EthAddr,
    promiscuous: bool,
    rx: VecDeque<PacketBuf>,
    rx_bytes: usize,
    rx_capacity: usize,
    overflow_drops: u64,
}

struct NetCore {
    now: VirtualTime,
    config: NetConfig,
    medium_free_at: VirtualTime,
    ports: Vec<PortState>,
    pending: BinaryHeap<Delivery>,
    next_seq: u64,
    rng: StdRng,
    stats: NetStats,
    capture: Option<PcapSink>,
    obs: EventSink,
    /// Gilbert–Elliott channel state: `true` while in the bursty (bad)
    /// state. The chain advances one step per transmitted frame.
    burst_bad: bool,
    /// Serialization-end times of frames still in (or entering) the
    /// medium queue; consulted only when `faults.queue_frames` is set.
    tx_queue: VecDeque<VirtualTime>,
}

impl NetCore {
    fn transmit(&mut self, from: usize, at: VirtualTime, frame: PacketBuf) {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        // FIFO arbitration for the shared medium. `at` lets a host hand
        // over a frame "in the future" (when its simulated CPU finishes
        // building it) without forcing the global clock forward first.
        let arrival = self.now.max(at);
        // Bufferbloat drop-tail: frames whose serialization has not
        // finished by the moment this one arrives are still queued.
        if let Some(limit) = self.config.faults.queue_frames {
            while self.tx_queue.front().is_some_and(|&e| e <= arrival) {
                self.tx_queue.pop_front();
            }
            if self.tx_queue.len() >= limit {
                self.stats.frames_dropped_queue += 1;
                self.obs.emit_for(arrival, from as u32, NO_CONN, || Event::FrameDrop { reason: "queue" });
                return;
            }
        }
        let start = arrival.max(self.medium_free_at);
        let bandwidth = self
            .config
            .faults
            .shape
            .get(from)
            .and_then(|s| s.bandwidth_bps)
            .unwrap_or(self.config.bandwidth_bps);
        let serialize = VirtualDuration::from_micros((frame.len() as u64 * 8 * 1_000_000) / bandwidth);
        let end = start + serialize;
        self.medium_free_at = end;
        if self.config.faults.queue_frames.is_some() {
            self.tx_queue.push_back(end);
        }

        // Medium-level faults: one roll per frame, shared by all
        // receivers (it is one wire). The Gilbert–Elliott chain steps
        // first; in the bad state the burst loss chance replaces the
        // independent one.
        if self.burst_bad {
            if self.rng.gen_bool(self.config.faults.burst_exit_chance) {
                self.burst_bad = false;
            }
        } else if self.rng.gen_bool(self.config.faults.burst_enter_chance) {
            self.burst_bad = true;
        }
        let drop_p = if self.burst_bad {
            self.config.faults.burst_loss_chance
        } else {
            self.config.faults.drop_chance
        };
        if self.rng.gen_bool(drop_p) {
            self.stats.frames_dropped_fault += 1;
            self.obs.emit_for(end, from as u32, NO_CONN, || Event::FrameDrop { reason: "fault" });
            return;
        }
        let mut frame = frame;
        if self.rng.gen_bool(self.config.faults.corrupt_chance) && !frame.is_empty() {
            // The bit flips in place when the wire holds the frame's
            // last handle. When someone else still holds it (a sender
            // that keeps what it sent, a capture tap) it flips on a
            // private deep copy — the only copy the wire ever makes —
            // never on bytes another handle can see.
            if frame.bytes_mut().is_none() {
                frame = frame.clone_owned();
            }
            let at = self.rng.gen_range(0..frame.len());
            let bit = self.rng.gen_range(0u32..8);
            {
                let mut b = frame.bytes_mut().expect("the wire holds the last handle");
                b[at] ^= 1u8 << bit;
            }
            self.stats.frames_corrupted += 1;
            self.obs.emit_for(end, from as u32, NO_CONN, || Event::FrameCorrupt);
        }
        // Middlebox rewrite: deterministic MSS clamping of SYN options.
        // No randomness is consumed.
        if let Some(mss) = self.config.faults.mss_clamp {
            if let Some(rewritten) = clamp_mss(&frame, mss) {
                frame = rewritten;
                self.stats.frames_rewritten += 1;
                self.obs.emit_for(end, from as u32, NO_CONN, || Event::FrameRewrite { kind: "mss_clamp" });
            }
        }
        // In-loop fuzzer: mutate one header field of a live TCP segment,
        // re-encoding with valid checksums so the mutation reaches the
        // victim's TCP validation. The roll happens only when the chance
        // is nonzero so default configurations replay their historical
        // RNG sequence exactly.
        if self.config.faults.mutate_chance > 0.0 && self.rng.gen_bool(self.config.faults.mutate_chance) {
            if let Some((mutated, kind)) = mutate_tcp(&mut self.rng, &frame) {
                frame = mutated;
                self.stats.frames_mutated += 1;
                self.obs.emit_for(end, from as u32, NO_CONN, || Event::FrameMutate { kind });
            }
        }
        // Record what actually went on the wire (post-corruption), like
        // a passive tap would see it.
        if let Some(cap) = &self.capture {
            cap.record(end, &frame.bytes());
        }
        let copies = if self.rng.gen_bool(self.config.faults.duplicate_chance) {
            self.stats.frames_duplicated += 1;
            2
        } else {
            1
        };
        let dst = frame_dst(&frame);
        let extra_delay = self.config.faults.shape.get(from).map_or(VirtualDuration::ZERO, |s| s.extra_delay);
        for _ in 0..copies {
            let jitter = if self.config.faults.jitter.is_zero() {
                VirtualDuration::ZERO
            } else {
                VirtualDuration::from_micros(self.rng.gen_range(0..=self.config.faults.jitter.as_micros()))
            };
            let at = end + self.config.propagation + extra_delay + jitter;
            for (i, p) in self.ports.iter().enumerate() {
                if i == from {
                    continue; // a port does not hear its own transmission
                }
                let matches = p.promiscuous
                    || dst == Some(p.addr)
                    || dst == Some(EthAddr::BROADCAST)
                    || dst.is_some_and(|d| d.is_multicast());
                if matches {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.pending.push(Delivery { at, seq, port: i, frame: frame.clone() });
                }
            }
        }
    }

    fn advance_to(&mut self, t: VirtualTime) {
        assert!(t >= self.now, "network clock may not run backwards");
        while let Some(top) = self.pending.peek() {
            if top.at > t {
                break;
            }
            let d = self.pending.pop().expect("peeked");
            self.now = self.now.max(d.at);
            let p = &mut self.ports[d.port];
            if p.rx_bytes + d.frame.len() > p.rx_capacity {
                p.overflow_drops += 1;
                self.stats.frames_dropped_overflow += 1;
                self.obs.emit_for(d.at, d.port as u32, NO_CONN, || Event::FrameDrop { reason: "overflow" });
            } else {
                p.rx_bytes += d.frame.len();
                let bytes = d.frame.len() as u32;
                p.rx.push_back(d.frame);
                self.stats.frames_delivered += 1;
                self.obs.emit_for(d.at, d.port as u32, NO_CONN, || Event::FrameDeliver { bytes });
            }
        }
        self.now = t;
    }
}

/// Decodes a frame down to its TCP segment, or `None` for anything the
/// middlebox/fuzzer hooks should pass through untouched (non-IPv4,
/// non-TCP, fragments, undecodable bytes).
fn decode_tcp(frame: &PacketBuf) -> Option<(Frame, Ipv4Packet, TcpSegment)> {
    let eth = Frame::decode_buf(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::decode_buf(&eth.payload).ok()?;
    if ip.header.protocol != IpProtocol::Tcp || ip.header.is_fragment() {
        return None;
    }
    let tcp = TcpSegment::decode_buf(&ip.payload, None).ok()?;
    Some((eth, ip, tcp))
}

/// Re-encodes a rewritten TCP segment into a full frame with correct
/// TCP checksum, IP header checksum, and Ethernet FCS. The payload is
/// still a view of the original frame, so prepending the TCP header
/// re-homes it (one copy per rewritten frame); the IP and Ethernet
/// headers then go on in place.
fn encode_tcp(eth: Frame, ip: Ipv4Packet, tcp: TcpSegment) -> Option<PacketBuf> {
    let tcp_bytes = tcp.encode_v4(Some((ip.header.src, ip.header.dst))).ok()?;
    let ip_bytes = Ipv4Packet { header: ip.header, payload: tcp_bytes }.encode_buf().ok()?;
    Frame::new(eth.dst, eth.src, EtherType::Ipv4, ip_bytes).encode_buf().ok()
}

/// The MSS-clamping middlebox: rewrites the MSS option of a TCP SYN
/// down to `mss`. Returns `None` when the frame is left untouched.
fn clamp_mss(frame: &PacketBuf, mss: u16) -> Option<PacketBuf> {
    let (eth, ip, mut tcp) = decode_tcp(frame)?;
    if !tcp.header.flags.syn {
        return None;
    }
    if !tcp.header.options.clamp_mss(mss) {
        return None;
    }
    encode_tcp(eth, ip, tcp)
}

/// The in-loop fuzzer: applies one seeded mutation to a live TCP
/// segment's header (or payload length), re-encoding with valid
/// checksums. The mutation corpus mirrors the `decode_no_panic` fuzz
/// harness: bit flips in sequencing fields, window zeroing, payload
/// truncation, and option garbling with a wrong length.
fn mutate_tcp(rng: &mut StdRng, frame: &PacketBuf) -> Option<(PacketBuf, &'static str)> {
    let (eth, ip, mut tcp) = decode_tcp(frame)?;
    let kind = match rng.gen_range(0u8..5) {
        0 => {
            tcp.header.seq = Seq(tcp.header.seq.0 ^ (1u32 << rng.gen_range(0u32..32)));
            "flip_seq"
        }
        1 => {
            tcp.header.ack = Seq(tcp.header.ack.0 ^ (1u32 << rng.gen_range(0u32..32)));
            "flip_ack"
        }
        2 => {
            tcp.header.window = wire_window(0, 0);
            "zero_window"
        }
        3 => {
            let len = tcp.payload.len();
            if len > 0 {
                let cut = rng.gen_range(0..len);
                tcp.payload = tcp.payload.slice(0, cut);
            }
            "truncate"
        }
        _ => {
            // A known option kind (MSS = 2) with an impossible length:
            // the receiver's decoder must reject the segment cleanly. A
            // header with no room left for it is passed through.
            tcp.header.options.push_raw(2, &[0]).ok()?;
            "garble_options"
        }
    };
    encode_tcp(eth, ip, tcp).map(|f| (f, kind))
}

/// The destination address at the front of `frame`, read through a
/// sub-view so a sealed frame's FCS stays unwritten.
fn frame_dst(frame: &PacketBuf) -> Option<EthAddr> {
    if frame.len() < 6 {
        return None;
    }
    let mut a = [0u8; 6];
    a.copy_from_slice(&frame.slice(0, 6).bytes());
    Some(EthAddr(a))
}

/// A shared Ethernet segment. Cloning the handle shares the segment.
#[derive(Clone)]
pub struct SimNet {
    core: Rc<RefCell<NetCore>>,
}

impl SimNet {
    /// A segment with the given configuration and RNG seed.
    pub fn new(config: NetConfig, seed: u64) -> SimNet {
        SimNet {
            core: Rc::new(RefCell::new(NetCore {
                now: VirtualTime::ZERO,
                medium_free_at: VirtualTime::ZERO,
                config,
                ports: Vec::new(),
                pending: BinaryHeap::new(),
                next_seq: 0,
                rng: StdRng::seed_from_u64(seed),
                stats: NetStats::default(),
                capture: None,
                obs: EventSink::off(),
                burst_bad: false,
                tx_queue: VecDeque::new(),
            })),
        }
    }

    /// A default 10 Mb/s fault-free segment.
    pub fn ethernet_10mbps(seed: u64) -> SimNet {
        SimNet::new(NetConfig::default(), seed)
    }

    /// Attaches a station with MAC address `addr`; returns its port.
    pub fn attach(&self, addr: EthAddr) -> Port {
        let mut core = self.core.borrow_mut();
        let rx_capacity = core.config.rx_capacity;
        core.ports.push(PortState {
            addr,
            promiscuous: false,
            rx: VecDeque::new(),
            rx_bytes: 0,
            rx_capacity,
            overflow_drops: 0,
        });
        Port { net: self.core.clone(), id: core.ports.len() - 1 }
    }

    /// Current network time.
    pub fn now(&self) -> VirtualTime {
        self.core.borrow().now
    }

    /// Time of the next pending delivery, if any.
    pub fn next_delivery(&self) -> Option<VirtualTime> {
        self.core.borrow().pending.peek().map(|d| d.at)
    }

    /// Advances the clock, moving due frames into receive queues.
    pub fn advance_to(&self, t: VirtualTime) {
        self.core.borrow_mut().advance_to(t);
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NetStats {
        self.core.borrow().stats
    }

    /// Attaches a pcap tap; every frame on the medium (as the wire sees
    /// it, after any injected corruption) is recorded with its virtual
    /// timestamp. Returns the sink to read or write out.
    pub fn capture(&self) -> PcapSink {
        let sink = PcapSink::new();
        self.core.borrow_mut().capture = Some(sink.clone());
        sink
    }

    /// Installs an event sink: frame drop/corrupt/deliver events are
    /// recorded, attributed to the port (= host id) concerned (frame
    /// *transmission* is emitted by the device layer, which knows when
    /// the host's CPU actually finished the frame). The default sink is
    /// off and records nothing.
    pub fn set_obs(&self, sink: EventSink) {
        self.core.borrow_mut().obs = sink;
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        write!(f, "SimNet(now={:?}, ports={}, pending={})", core.now, core.ports.len(), core.pending.len())
    }
}

/// One station's attachment to the segment.
#[derive(Clone)]
pub struct Port {
    net: Rc<RefCell<NetCore>>,
    id: usize,
}

impl Port {
    /// The station's configured MAC address.
    pub fn addr(&self) -> EthAddr {
        self.net.borrow().ports[self.id].addr
    }

    /// This port's position on the segment (attach order, from 0) — the
    /// host id the segment stamps its own frame events with.
    pub fn index(&self) -> u32 {
        self.id as u32
    }

    /// Enables reception of all frames regardless of destination.
    pub fn set_promiscuous(&self, on: bool) {
        self.net.borrow_mut().ports[self.id].promiscuous = on;
    }

    /// Hands a frame to the medium at the current network time. The
    /// buffer is delivered to matching ports by reference-count bump —
    /// the wire itself copies nothing (except under injected
    /// corruption).
    pub fn send(&self, frame: impl Into<PacketBuf>) {
        let mut core = self.net.borrow_mut();
        let id = self.id;
        let now = core.now;
        core.transmit(id, now, frame.into());
    }

    /// Hands a frame to the medium at time `at` (which may be later than
    /// the network clock — the host's CPU finished building the frame
    /// then). `at` earlier than the network clock is clamped to now.
    pub fn send_at(&self, at: VirtualTime, frame: impl Into<PacketBuf>) {
        let mut core = self.net.borrow_mut();
        let id = self.id;
        core.transmit(id, at, frame.into());
    }

    /// Takes the next received frame, if any.
    pub fn recv(&self) -> Option<PacketBuf> {
        let mut core = self.net.borrow_mut();
        let p = &mut core.ports[self.id];
        let frame = p.rx.pop_front();
        if let Some(f) = &frame {
            p.rx_bytes -= f.len();
        }
        frame
    }

    /// True if a frame is waiting.
    pub fn has_rx(&self) -> bool {
        !self.net.borrow().ports[self.id].rx.is_empty()
    }

    /// Arrivals this port lost to a full receive queue.
    pub fn overflow_drops(&self) -> u64 {
        self.net.borrow().ports[self.id].overflow_drops
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Port({}, {:?})", self.id, self.addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxwire::ether::{EtherType, Frame};
    use foxwire::tcp::TcpOption;

    fn frame_to(dst: EthAddr, src: EthAddr, n: usize) -> Vec<u8> {
        Frame::new(dst, src, EtherType::Other(0x1234), vec![0xab; n]).encode_buf().unwrap().to_vec()
    }

    #[test]
    fn unicast_reaches_only_the_addressee() {
        let net = SimNet::ethernet_10mbps(1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        let c = net.attach(EthAddr::host(3));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 100));
        net.advance_to(VirtualTime::from_millis(10));
        assert!(b.has_rx());
        assert!(!c.has_rx());
        assert!(!a.has_rx(), "sender does not hear its own frame");
        let got = b.recv().unwrap();
        assert!(Frame::decode_buf(&got).is_ok());
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let net = SimNet::ethernet_10mbps(1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        let c = net.attach(EthAddr::host(3));
        a.send(frame_to(EthAddr::BROADCAST, EthAddr::host(1), 50));
        net.advance_to(VirtualTime::from_millis(1));
        assert!(b.has_rx() && c.has_rx());
    }

    #[test]
    fn promiscuous_port_hears_all() {
        let net = SimNet::ethernet_10mbps(1);
        let a = net.attach(EthAddr::host(1));
        let _b = net.attach(EthAddr::host(2));
        let snoop = net.attach(EthAddr::host(9));
        snoop.set_promiscuous(true);
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 10));
        net.advance_to(VirtualTime::from_millis(1));
        assert!(snoop.has_rx());
    }

    #[test]
    fn serialization_delay_matches_bandwidth() {
        // 1250 payload bytes → frame = 14 + 1250 + 4 = 1268 bytes
        // = 10144 bits at 10 Mb/s = 1014.4 µs plus 5 µs propagation.
        let net = SimNet::ethernet_10mbps(1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 1250));
        let at = net.next_delivery().unwrap();
        assert_eq!(at.as_micros(), 1014 + 5);
        net.advance_to(at);
        assert!(b.has_rx());
    }

    #[test]
    fn medium_is_serialized_fifo() {
        // Two back-to-back frames: the second cannot start until the
        // first finishes serializing.
        let net = SimNet::ethernet_10mbps(1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        let _ = b;
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 1250));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 1250));
        net.advance_to(VirtualTime::from_millis(50));
        let s = net.stats();
        assert_eq!(s.frames_delivered, 2);
        // Both frames delivered; the second ~1014 µs after the first.
        // (Verified via medium_free_at: total occupied 2028 µs.)
        assert_eq!(net.now(), VirtualTime::from_millis(50));
    }

    #[test]
    fn rx_queue_overflow_drops_and_counts() {
        let cfg = NetConfig { rx_capacity: 200, ..NetConfig::default() }; // tiny "Mach buffer"
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        for _ in 0..5 {
            a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 100));
        }
        net.advance_to(VirtualTime::from_millis(100));
        // Each encoded frame is 118 bytes; only one fits in 200.
        assert_eq!(b.overflow_drops(), 4);
        assert!(b.recv().is_some());
        assert!(b.recv().is_none());
        assert_eq!(net.stats().frames_dropped_overflow, 4);
    }

    #[test]
    fn draining_rx_frees_capacity() {
        let cfg = NetConfig { rx_capacity: 130, ..NetConfig::default() };
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 100));
        net.advance_to(VirtualTime::from_millis(10));
        assert!(b.recv().is_some());
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 100));
        net.advance_to(VirtualTime::from_millis(20));
        assert!(b.recv().is_some(), "capacity was freed by the first recv");
    }

    #[test]
    fn drop_fault_loses_frames() {
        let mut cfg = NetConfig::default();
        cfg.faults.drop_chance = 1.0;
        let net = SimNet::new(cfg, 42);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
        net.advance_to(VirtualTime::from_millis(10));
        assert!(!b.has_rx());
        assert_eq!(net.stats().frames_dropped_fault, 1);
    }

    #[test]
    fn corruption_fault_is_caught_by_fcs() {
        let mut cfg = NetConfig::default();
        cfg.faults.corrupt_chance = 1.0;
        let net = SimNet::new(cfg, 42);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
        net.advance_to(VirtualTime::from_millis(10));
        let got = b.recv().unwrap();
        assert!(Frame::decode_buf(&got).is_err(), "FCS must catch wire corruption");
        assert_eq!(net.stats().frames_corrupted, 1);
    }

    #[test]
    fn corruption_copies_a_frame_only_while_another_handle_holds_it() {
        use foxbasis::buf::copy_mark;
        let mut cfg = NetConfig::default();
        cfg.faults.corrupt_chance = 1.0;
        let net = SimNet::new(cfg, 42);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        let sent = frame_to(EthAddr::host(2), EthAddr::host(1), 64);
        let frame = PacketBuf::from_vec(sent.clone());

        // Held elsewhere too: the bit flips on a private copy.
        let mark = copy_mark();
        a.send(frame.clone());
        net.advance_to(VirtualTime::from_millis(10));
        assert_ne!(b.recv().unwrap(), sent);
        assert_eq!(frame, sent, "the other handle still sees what it had");
        assert_eq!(mark.delta().copies, 1);

        // The wire's alone: in place, no copy.
        let mark = copy_mark();
        a.send(frame);
        net.advance_to(VirtualTime::from_millis(20));
        assert_ne!(b.recv().unwrap(), sent);
        assert_eq!(mark.delta().copies, 0);
        assert_eq!(net.stats().frames_corrupted, 2);
    }

    #[test]
    fn duplication_fault_delivers_twice() {
        let mut cfg = NetConfig::default();
        cfg.faults.duplicate_chance = 1.0;
        let net = SimNet::new(cfg, 42);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
        net.advance_to(VirtualTime::from_millis(10));
        assert!(b.recv().is_some());
        assert!(b.recv().is_some());
        assert_eq!(net.stats().frames_duplicated, 1);
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // Pinned chain: once entered, the bad state drops everything
        // until exit. enter=1 ⇒ the first frame already steps into the
        // bad state; exit=0 ⇒ it never leaves.
        let cfg = NetConfig { faults: FaultConfig::bursty(1.0, 0.0, 1.0), ..NetConfig::default() };
        let net = SimNet::new(cfg, 3);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        for _ in 0..10 {
            a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
        }
        net.advance_to(VirtualTime::from_millis(100));
        assert_eq!(net.stats().frames_dropped_fault, 10, "all frames fall in the burst");
        assert!(!b.has_rx());
    }

    #[test]
    fn burst_loss_spares_good_state() {
        // enter=0 ⇒ the chain never leaves the good state; the burst
        // loss chance must then be irrelevant.
        let cfg = NetConfig { faults: FaultConfig::bursty(0.0, 0.5, 1.0), ..NetConfig::default() };
        let net = SimNet::new(cfg, 3);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        for _ in 0..10 {
            a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
        }
        net.advance_to(VirtualTime::from_millis(100));
        assert_eq!(net.stats().frames_dropped_fault, 0);
        let mut got = 0;
        while b.recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 10);
    }

    #[test]
    fn burst_runs_are_longer_than_independent_runs() {
        // With the same long-run loss rate (~25%), the Gilbert–Elliott
        // chain must produce a longer maximum run of consecutive drops
        // than independent losses do. Drop/delivery order is recovered
        // from the per-frame fate: one frame per advance, checked right
        // after.
        let run_lengths = |faults: FaultConfig| {
            let cfg = NetConfig { faults, ..NetConfig::default() };
            let net = SimNet::new(cfg, 11);
            let a = net.attach(EthAddr::host(1));
            let b = net.attach(EthAddr::host(2));
            let mut max_run = 0u32;
            let mut run = 0u32;
            let mut t = VirtualTime::ZERO;
            for _ in 0..400 {
                a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64));
                t += VirtualDuration::from_millis(1);
                net.advance_to(t);
                if b.recv().is_some() {
                    run = 0;
                } else {
                    run += 1;
                    max_run = max_run.max(run);
                }
            }
            max_run
        };
        // Stationary loss of bursty(1/30, 1/10, 1.0): bad-state share
        // = enter/(enter+exit) = 0.25, dropping everything while bad.
        let bursty = run_lengths(FaultConfig::bursty(1.0 / 30.0, 0.1, 1.0));
        let independent = run_lengths(FaultConfig { drop_chance: 0.25, ..FaultConfig::default() });
        assert!(
            bursty > independent,
            "burst max run {bursty} should exceed independent max run {independent}"
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let cfg = NetConfig {
                faults: FaultConfig { jitter: VirtualDuration::from_micros(500), ..FaultConfig::lossy(0.3) },
                ..NetConfig::default()
            };
            let net = SimNet::new(cfg, seed);
            let a = net.attach(EthAddr::host(1));
            let b = net.attach(EthAddr::host(2));
            for i in 0..50 {
                a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 64 + i));
            }
            net.advance_to(VirtualTime::from_millis(200));
            let mut got = Vec::new();
            while let Some(f) = b.recv() {
                got.push(f);
            }
            (got, net.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds should diverge");
    }

    fn tcp_frame(src_host: u8, dst_host: u8, flags: foxwire::tcp::TcpFlags, payload: &[u8]) -> Vec<u8> {
        use foxwire::ipv4::{Ipv4Addr, Ipv4Header};
        use foxwire::tcp::TcpHeader;
        let src_ip = Ipv4Addr::new(10, 0, 0, src_host);
        let dst_ip = Ipv4Addr::new(10, 0, 0, dst_host);
        let mut h = TcpHeader::new(4000, 80);
        h.seq = Seq(1000);
        h.ack = Seq(2000);
        h.flags = flags;
        h.window = wire_window(4096, 0);
        if flags.syn {
            h.options.push(TcpOption::MaxSegmentSize(1460)).unwrap();
        }
        let seg = TcpSegment { header: h, payload: payload.into() };
        let tcp_bytes = seg.encode_v4(Some((src_ip, dst_ip))).unwrap();
        let pkt = Ipv4Packet { header: Ipv4Header::new(IpProtocol::Tcp, src_ip, dst_ip), payload: tcp_bytes };
        Frame::new(
            EthAddr::host(dst_host),
            EthAddr::host(src_host),
            EtherType::Ipv4,
            pkt.encode_buf().unwrap(),
        )
        .encode_buf()
        .unwrap()
        .to_vec()
    }

    fn delivered_tcp(frame: &PacketBuf) -> TcpSegment {
        let eth = Frame::decode_buf(frame).expect("FCS valid after rewrite");
        let ip = Ipv4Packet::decode_buf(&eth.payload).unwrap();
        TcpSegment::decode_buf(&ip.payload, None).unwrap()
    }

    #[test]
    fn asymmetric_shape_slows_one_direction() {
        let cfg = NetConfig {
            faults: FaultConfig::asymmetric(10_000_000, 1_000_000, VirtualDuration::from_millis(1)),
            ..NetConfig::default()
        };
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1)); // port 0: fast direction
        let b = net.attach(EthAddr::host(2)); // port 1: slow direction
        a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 1250));
        let fast = net.next_delivery().unwrap();
        assert_eq!(fast.as_micros(), 1014 + 5, "fast direction at the shared rate");
        net.advance_to(fast);
        assert!(b.recv().is_some());
        b.send(frame_to(EthAddr::host(1), EthAddr::host(2), 1250));
        let slow = net.next_delivery().unwrap();
        // 10144 bits at 1 Mb/s = 10144 µs, + 5 µs propagation + 1 ms extra.
        assert_eq!(slow.as_micros() - fast.as_micros(), 10144 + 5 + 1000);
    }

    #[test]
    fn bufferbloat_queue_drops_at_the_tail() {
        let cfg = NetConfig { faults: FaultConfig::bufferbloat(2), ..NetConfig::default() };
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        for _ in 0..5 {
            a.send(frame_to(EthAddr::host(2), EthAddr::host(1), 1250));
        }
        net.advance_to(VirtualTime::from_millis(100));
        let s = net.stats();
        assert_eq!(s.frames_dropped_queue, 3, "only the queue depth survives");
        assert_eq!(s.frames_delivered, 2);
        assert!(b.recv().is_some() && b.recv().is_some() && b.recv().is_none());
    }

    #[test]
    fn mss_clamp_rewrites_syn_only() {
        let cfg = NetConfig { faults: FaultConfig::clamped(536), ..NetConfig::default() };
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        a.send(tcp_frame(1, 2, foxwire::tcp::TcpFlags::SYN, b""));
        a.send(tcp_frame(1, 2, foxwire::tcp::TcpFlags::ACK, b"data"));
        net.advance_to(VirtualTime::from_millis(100));
        let syn = delivered_tcp(&b.recv().unwrap());
        assert_eq!(syn.header.mss(), Some(536), "SYN MSS clamped");
        let data = delivered_tcp(&b.recv().unwrap());
        assert_eq!(&data.payload.bytes()[..], b"data", "non-SYN untouched");
        assert_eq!(net.stats().frames_rewritten, 1);
    }

    #[test]
    fn mutator_is_deterministic_and_preserves_fcs() {
        let run = |seed| {
            let cfg = NetConfig { faults: FaultConfig::fuzzing(1.0), ..NetConfig::default() };
            let net = SimNet::new(cfg, seed);
            let a = net.attach(EthAddr::host(1));
            let b = net.attach(EthAddr::host(2));
            for i in 0..20u8 {
                a.send(tcp_frame(1, 2, foxwire::tcp::TcpFlags::ACK, &[i; 100]));
            }
            net.advance_to(VirtualTime::from_millis(100));
            let mut got = Vec::new();
            while let Some(f) = b.recv() {
                // Checksums are recomputed: every mutated frame still
                // passes the FCS and reaches TCP validation.
                assert!(Frame::decode_buf(&f).is_ok());
                got.push(f.bytes().to_vec());
            }
            (got, net.stats())
        };
        let (got, stats) = run(9);
        assert_eq!(stats.frames_mutated, 20);
        assert_eq!((got, stats), run(9), "same seed, bit-identical frames");
    }

    #[test]
    fn non_tcp_frames_pass_hooks_untouched() {
        let mut cfg = NetConfig::default();
        cfg.faults.mss_clamp = Some(536);
        cfg.faults.mutate_chance = 1.0;
        let net = SimNet::new(cfg, 1);
        let a = net.attach(EthAddr::host(1));
        let b = net.attach(EthAddr::host(2));
        let raw = frame_to(EthAddr::host(2), EthAddr::host(1), 64);
        a.send(raw.clone());
        net.advance_to(VirtualTime::from_millis(10));
        assert_eq!(b.recv().unwrap().bytes().to_vec(), raw);
        let s = net.stats();
        assert_eq!((s.frames_mutated, s.frames_rewritten), (0, 0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn network_clock_cannot_run_backwards() {
        let net = SimNet::ethernet_10mbps(1);
        net.advance_to(VirtualTime::from_millis(5));
        net.advance_to(VirtualTime::from_millis(1));
    }
}

#[cfg(test)]
mod pcap_tests {
    use super::*;
    use foxwire::ether::{EtherType, Frame};

    #[test]
    fn capture_records_wire_traffic() {
        let net = SimNet::ethernet_10mbps(1);
        let cap = net.capture();
        let a = net.attach(EthAddr::host(1));
        let _b = net.attach(EthAddr::host(2));
        let frame = Frame::new(EthAddr::host(2), EthAddr::host(1), EtherType::Ipv4, vec![9; 64])
            .encode_buf()
            .unwrap()
            .to_vec();
        a.send(frame.clone());
        net.advance_to(VirtualTime::from_millis(5));
        assert_eq!(cap.frame_count(), 1);
        let bytes = cap.bytes();
        // Global header (24) + record header (16) + frame.
        assert_eq!(bytes.len(), 24 + 16 + frame.len());
        assert_eq!(&bytes[24 + 16..], &frame[..]);
    }
}
