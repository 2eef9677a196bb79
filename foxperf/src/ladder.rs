//! The layer ladder: wall time attributed to layers from outside, by
//! standing the paper's composable stack (Fig. 3) up one layer at a time
//! and subtracting.
//!
//! Two kinds of rung. The *replay* rungs take a wire capture of the
//! workload itself — every frame the real stations exchanged, with its
//! virtual timestamp — and push that same stream through `foxwire`'s
//! codecs alone, then a raw `simnet` port, then `Dev`, `Eth(Dev)` and
//! `Ip(Eth(Dev))`, each driven only through `Protocol::{open, send,
//! step}`. They work for any workload. The *stack* rungs run the
//! workload's application pattern on benchmark-owned `Tcp` instances:
//! over the in-memory test link (engine alone), over
//! `Ip(Eth(Dev))` with the free cost model, and over the same with the
//! modern cost model and device batching. They exist for the two
//! single-connection patterns, bulk and round-trip.

use crate::counters::{dev_rx_batching, engine_counts, EngineCounts};
use crate::workloads::{net_config, tcp_config, Workload, MSG_LEN, MSS};
use fox_scheduler::SchedHandle;
use foxbasis::buf::{PacketBuf, DEFAULT_HEADROOM};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::bench::BenchProfile;
use foxharness::stack::{ip_of, mac_of};
use foxproto::aux::IpAux;
use foxproto::dev::{BatchConfig, Dev, DevConn};
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig};
use foxproto::{IpAuxImpl, Protocol};
use foxtcp::testlink::{LinkPair, TestAux};
use foxtcp::{Tcp, TcpConfig, TcpConnId, TcpEvent, TcpPattern};
use foxwire::ether::{EthAddr, EtherType, Frame};
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use foxwire::pseudo;
use foxwire::tcp::TcpSegment;
use simnet::{CostModel, Host, HostHandle, NetConfig, PcapSink, SimNet};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Keeps the smaller of `*slot` and `ns` (0 means no sample yet): a
/// rung's passes all do the same work, so the fastest is the one the
/// host disturbed least.
fn keep_fastest(slot: &mut f64, ns: f64) {
    if *slot == 0.0 || ns < *slot {
        *slot = ns;
    }
}

// ----------------------------------------------------------------------
// The captured stream
// ----------------------------------------------------------------------

/// One frame of the workload's own traffic.
pub struct CapFrame {
    /// When the wire finished serializing it (virtual).
    pub at: VirtualTime,
    /// 0 if station 1 sent it, 1 if station 2 did.
    pub from: usize,
    /// The frame as the wire carried it (after any injected corruption).
    pub bytes: Vec<u8>,
}

/// Parses a libpcap stream as `simnet::PcapSink` writes it
/// (little-endian, microsecond timestamps, whole frames).
pub fn frames_of(capture: &PcapSink) -> Vec<CapFrame> {
    const GLOBAL_HEADER: usize = 24;
    const RECORD_HEADER: usize = 16;
    let raw = capture.bytes();
    let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes")) as usize;
    let station1 = mac_of(1);
    let mut frames = Vec::with_capacity(capture.frame_count() as usize);
    let mut at = GLOBAL_HEADER;
    while at + RECORD_HEADER <= raw.len() {
        let (secs, micros, len) = (word(at), word(at + 4), word(at + 8));
        let bytes = raw[at + RECORD_HEADER..at + RECORD_HEADER + len].to_vec();
        let from = usize::from(bytes.get(6..12) != Some(&station1.0[..]));
        frames.push(CapFrame {
            at: VirtualTime::from_micros(secs as u64 * 1_000_000 + micros as u64),
            from,
            bytes,
        });
        at += RECORD_HEADER + len;
    }
    frames
}

// ----------------------------------------------------------------------
// Replay rungs
// ----------------------------------------------------------------------

/// What the replay rungs measured, per frame of the captured stream.
#[derive(Clone, Debug, Default)]
pub struct ReplayRungs {
    /// Frames in the capture.
    pub frames: usize,
    /// Frames `foxwire::ether` rejects (a corrupted frame's FCS).
    pub fcs_drops: u64,
    /// `foxwire` decode + encode of one frame, nanoseconds.
    pub wire_ns: f64,
    /// Raw port send + advance + recv of one frame.
    pub simnet_ns: f64,
    /// The same through `Dev`.
    pub dev_ns: f64,
    /// The same through `Eth(Dev)`.
    pub eth_ns: f64,
    /// The same through `Ip(Eth(Dev))`.
    pub ip_ns: f64,
    /// Frames the receiving `Dev`s drained per GRO batch (useful
    /// outcomes over attempts of receive batching).
    pub frames_per_batch: f64,
    /// A rung that lost frames, if any did.
    pub error: Option<String>,
}

/// A captured frame taken apart outside the timed loops into the payload
/// each rung hands to its top layer. Each buffer descends one stack only
/// (the raw frame is never written to; `Eth` writes into `ip_packet`'s
/// head- and tailroom, `Ip` into `segment`'s), so one set serves a whole
/// pass.
struct Parts {
    at: VirtualTime,
    from: usize,
    frame: PacketBuf,
    /// `Some` for well-formed TCP-in-IPv4 frames.
    tcp: Option<TcpParts>,
}

struct TcpParts {
    dst_mac: EthAddr,
    dst_ip: Ipv4Addr,
    /// The IP packet, with headroom for the Ethernet header.
    ip_packet: PacketBuf,
    /// The TCP segment, with headroom for IP and Ethernet.
    segment: PacketBuf,
}

fn take_apart(f: &CapFrame) -> Parts {
    let frame = PacketBuf::from_vec(f.bytes.clone());
    let tcp = (|| {
        let eth = Frame::decode_buf(&frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::decode_buf(&eth.payload).ok()?;
        if ip.header.protocol != IpProtocol::Tcp || ip.header.is_fragment() {
            return None;
        }
        let total = ip.header.header_len() + ip.payload.len();
        let ip_packet = PacketBuf::with_headroom(DEFAULT_HEADROOM, &eth.payload.bytes()[..total]);
        let segment = PacketBuf::with_headroom(DEFAULT_HEADROOM, &ip.payload.bytes());
        Some(TcpParts { dst_mac: eth.dst, dst_ip: ip.header.dst, ip_packet, segment })
    })();
    Parts { at: f.at, from: f.from, frame, tcp }
}

/// The codecs alone: every frame decoded down to its TCP segment the way
/// the receive path does, then a segment with the same payload encoded
/// back up the way the send path does (one staging copy into a buffer
/// with headroom, then three in-place header prepends and the FCS).
fn wire_rung(parts: &[Parts]) -> (Duration, u64) {
    let mut fcs_drops = 0;
    let t = Instant::now();
    for p in parts {
        let eth = match Frame::decode_buf(&p.frame) {
            Ok(f) => f,
            Err(_) => {
                fcs_drops += 1;
                continue;
            }
        };
        if eth.ethertype != EtherType::Ipv4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::decode_buf(&eth.payload) else { continue };
        let sum = pseudo::v4_sum(ip.header.src, ip.header.dst, IpProtocol::Tcp, ip.payload.len());
        let Ok(seg) = TcpSegment::decode_buf(&ip.payload, Some(sum)) else { continue };
        let staged =
            TcpSegment { payload: PacketBuf::with_headroom(DEFAULT_HEADROOM, &seg.payload.bytes()), ..seg };
        let Ok(tcp_bytes) = staged.encode_buf(Some(sum)) else { continue };
        let Ok(ip_bytes) = (Ipv4Packet { header: ip.header, payload: tcp_bytes }).encode_buf() else {
            continue;
        };
        let out = Frame::new(eth.dst, eth.src, EtherType::Ipv4, ip_bytes).encode_buf();
        black_box(out.map(|b| b.len()).unwrap_or(0));
    }
    (t.elapsed(), fcs_drops)
}

/// Replays the stream through two endpoints on a clean gigabit segment:
/// the clock follows the capture's timestamps, both ends are stepped at
/// every instant a frame was sent, and each frame is sent from the side
/// that sent it. `send` returns false for frames the rung skips.
fn replay<E>(
    parts: &[Parts],
    net: &SimNet,
    ends: &mut [E; 2],
    mut step: impl FnMut(&mut E, VirtualTime),
    mut send: impl FnMut(&mut E, &Parts) -> bool,
    received: &Cell<u64>,
) -> Result<(Duration, u64), String> {
    let mut sent = 0u64;
    let t = Instant::now();
    for p in parts {
        let now = net.now().max(p.at);
        net.advance_to(now);
        step(&mut ends[0], now);
        step(&mut ends[1], now);
        if send(&mut ends[p.from], p) {
            sent += 1;
        }
    }
    // Let the tail arrive (and, on the IP rung, anything ARP held back).
    for _ in 0..1000 {
        if received.get() >= sent {
            break;
        }
        let now = net.now() + VirtualDuration::from_micros(100);
        net.advance_to(now);
        step(&mut ends[0], now);
        step(&mut ends[1], now);
    }
    let wall = t.elapsed();
    if received.get() == sent {
        Ok((wall, sent))
    } else {
        Err(format!("{} of {sent} replayed frames arrived", received.get()))
    }
}

fn counting<T: 'static>(count: &Rc<Cell<u64>>) -> foxproto::Handler<T> {
    let count = count.clone();
    Box::new(move |m| {
        black_box(&m);
        count.set(count.get() + 1);
    })
}

fn clean_net(seed: u64) -> SimNet {
    SimNet::new(NetConfig::gigabit(), seed)
}

fn modern_dev(net: &SimNet, id: u16, host: &HostHandle) -> Dev {
    let mut dev = Dev::new(net.attach(mac_of(id)), host.clone());
    dev.set_batching(BenchProfile::Modern.batch());
    dev
}

fn wide_subnet(local: Ipv4Addr) -> IpConfig {
    // What `foxharness::stack` gives its stations.
    IpConfig { local, prefix_len: 16, gateway: None, ttl: 64 }
}

/// Runs every replay rung over `capture`, `reps` times each, and
/// reports each rung's fastest pass.
pub fn replay_rungs(capture: &PcapSink, seed: u64, reps: usize) -> ReplayRungs {
    let frames = frames_of(capture);
    let mut out = ReplayRungs { frames: frames.len(), ..ReplayRungs::default() };
    if frames.is_empty() {
        out.error = Some("the capture is empty".into());
        return out;
    }
    let per_frame = |wall: Duration, n: u64| wall.as_nanos() as f64 / n.max(1) as f64;
    let fail = |out: &mut ReplayRungs, rung: &str, e: String| out.error = Some(format!("{rung} rung: {e}"));
    let host = HostHandle::free();

    for _ in 0..reps {
        // Each pass takes the frames apart afresh: a replayed buffer has
        // had headers written into its headroom.
        let parts: Vec<Parts> = frames.iter().map(take_apart).collect();

        let (wall, drops) = wire_rung(&parts);
        out.fcs_drops = drops;
        keep_fastest(&mut out.wire_ns, per_frame(wall, parts.len() as u64));

        // Raw ports.
        let net = clean_net(seed);
        let got = Rc::new(Cell::new(0u64));
        let mut ports = [net.attach(mac_of(1)), net.attach(mac_of(2))];
        let g = got.clone();
        let drain = move |port: &mut simnet::Port, _now: VirtualTime| {
            while let Some(f) = port.recv() {
                black_box(f.len());
                g.set(g.get() + 1);
            }
        };
        let send = |port: &mut simnet::Port, p: &Parts| {
            port.send(p.frame.clone());
            true
        };
        match replay(&parts, &net, &mut ports, drain, send, &got) {
            Ok((wall, n)) => keep_fastest(&mut out.simnet_ns, per_frame(wall, n)),
            Err(e) => fail(&mut out, "simnet", e),
        }

        // Dev.
        let net = clean_net(seed);
        let got = Rc::new(Cell::new(0u64));
        let mut devs = [modern_dev(&net, 1, &host), modern_dev(&net, 2, &host)];
        for d in &mut devs {
            d.open((), counting(&got)).expect("a fresh device opens");
        }
        let result = replay(
            &parts,
            &net,
            &mut devs,
            |d, now| {
                d.step(now);
            },
            |d, p| d.send(DevConn, (), p.frame.clone()).is_ok(),
            &got,
        );
        match result {
            Ok((wall, n)) => {
                keep_fastest(&mut out.dev_ns, per_frame(wall, n));
                let (frames, batches) =
                    devs.iter().map(dev_rx_batching).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
                out.frames_per_batch = frames as f64 / batches.max(1) as f64;
            }
            Err(e) => fail(&mut out, "dev", e),
        }

        // Eth(Dev).
        let net = clean_net(seed);
        let got = Rc::new(Cell::new(0u64));
        let mut eths = [1u16, 2].map(|id| Eth::new(modern_dev(&net, id, &host), mac_of(id), host.clone()));
        let conns =
            [0, 1].map(|i| eths[i].open(EtherType::Ipv4, counting(&got)).expect("a fresh ethernet opens"));
        let result = replay(
            &parts,
            &net,
            &mut eths,
            |e, now| {
                e.step(now);
            },
            |e, p| match &p.tcp {
                Some(t) => e.send(conns[p.from], t.dst_mac, t.ip_packet.clone()).is_ok(),
                None => false,
            },
            &got,
        );
        match result {
            Ok((wall, n)) => keep_fastest(&mut out.eth_ns, per_frame(wall, n)),
            Err(e) => fail(&mut out, "eth", e),
        }

        // Ip(Eth(Dev)).
        let net = clean_net(seed);
        let got = Rc::new(Cell::new(0u64));
        let mut ips = [1u16, 2].map(|id| {
            let eth = Eth::new(modern_dev(&net, id, &host), mac_of(id), host.clone());
            Ip::new(eth, mac_of(id), wide_subnet(ip_of(id)), host.clone())
        });
        let conns = [0, 1].map(|i| ips[i].open(IpProtocol::Tcp, counting(&got)).expect("a fresh ip opens"));
        let result = replay(
            &parts,
            &net,
            &mut ips,
            |ip, now| {
                ip.step(now);
            },
            |ip, p| match &p.tcp {
                Some(t) => ip.send(conns[p.from], t.dst_ip, t.segment.clone()).is_ok(),
                None => false,
            },
            &got,
        );
        match result {
            Ok((wall, n)) => keep_fastest(&mut out.ip_ns, per_frame(wall, n)),
            Err(e) => fail(&mut out, "ip", e),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Stack rungs
// ----------------------------------------------------------------------

/// The application pattern a stack rung runs.
#[derive(Copy, Clone, Debug)]
pub enum Pattern {
    /// Station 2 asks station 1 for this many bytes and discards them.
    Bulk(usize),
    /// This many 64-byte request/response round trips on one connection.
    RoundTrips(usize),
}

impl Pattern {
    /// Operations the pattern performs.
    pub fn ops(self) -> usize {
        match self {
            Pattern::Bulk(bytes) => bytes.div_ceil(MSS),
            Pattern::RoundTrips(n) => n,
        }
    }
}

/// What one stack rung measured.
#[derive(Copy, Clone, Debug, Default)]
pub struct StackRung {
    /// Wall nanoseconds per operation (fastest of the reps).
    pub ns_per_op: f64,
    /// Both engines' own counters.
    pub counts: EngineCounts,
    /// `Tcp::step` calls the rung's driver made, both ends.
    pub steps: u64,
}

const PORT: u16 = 2000;
const TICK: VirtualDuration = VirtualDuration::from_millis(1);

/// One benchmark-owned TCP endpoint: the engine, its simulated machine,
/// and what its upcalls have seen.
struct End<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    tcp: Tcp<L, A>,
    host: HostHandle,
    received: Rc<Cell<usize>>,
    established: Rc<Cell<bool>>,
    children: Rc<RefCell<Vec<TcpConnId>>>,
    steps: u64,
}

impl<L, A> End<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn new(tcp: Tcp<L, A>, host: HostHandle) -> End<L, A> {
        End {
            tcp,
            host,
            received: Rc::new(Cell::new(0)),
            established: Rc::new(Cell::new(false)),
            children: Rc::new(RefCell::new(Vec::new())),
            steps: 0,
        }
    }

    /// The upcall of a data connection: count, never keep.
    fn data_handler(&self) -> foxproto::Handler<TcpEvent> {
        let (received, established) = (self.received.clone(), self.established.clone());
        Box::new(move |ev| match ev {
            TcpEvent::Established => established.set(true),
            TcpEvent::Data(d) => received.set(received.get() + d.len()),
            _ => {}
        })
    }

    fn listen(&mut self) {
        let children = self.children.clone();
        let pattern = TcpPattern::Passive { local_port: PORT };
        self.tcp
            .open(
                pattern,
                Box::new(move |ev| {
                    if let TcpEvent::NewConnection(c) = ev {
                        children.borrow_mut().push(c);
                    }
                }),
            )
            .expect("listen on a fresh engine");
    }

    /// Adopts the next connection the listener spawned, if one arrived.
    fn accept(&mut self) -> Option<TcpConnId> {
        let child = self.children.borrow_mut().pop()?;
        self.tcp.set_handler(child, self.data_handler()).ok()?;
        Some(child)
    }
}

/// `sim::drive`, for engines the benchmark owns: settle both ends at the
/// current instant until nothing moves, ask the application, advance to
/// the next delivery or tick. `net` is `None` on the in-memory link,
/// where there is nothing to deliver and only timers move the clock.
fn drive_own<L, A>(
    net: Option<&SimNet>,
    now: &mut VirtualTime,
    a: &mut End<L, A>,
    b: &mut End<L, A>,
    mut done: impl FnMut(&mut End<L, A>, &mut End<L, A>) -> bool,
) where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    loop {
        for _ in 0..64 {
            let mut progress = false;
            for end in [&mut *a, &mut *b] {
                end.host.begin(*now);
                progress |= end.tcp.step(*now);
                end.steps += 1;
                end.host.end();
            }
            if let Some(net) = net {
                if net.next_delivery().is_some_and(|t| t <= *now) {
                    net.advance_to(*now);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if done(a, b) {
            return;
        }
        let mut next = *now + TICK;
        if let Some(net) = net {
            if let Some(t) = net.next_delivery() {
                next = next.min(t.max(*now + VirtualDuration::from_micros(1)));
            }
            net.advance_to(next);
        }
        *now = next;
    }
}

/// Runs `pattern` between two owned endpoints: `a` listens, `b`
/// connects to it at `a_addr`.
fn run_pattern<L, A>(
    net: Option<&SimNet>,
    mut a: End<L, A>,
    mut b: End<L, A>,
    a_addr: L::Peer,
    pattern: Pattern,
) -> Result<RungRun, String>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    let mut now = VirtualTime::ZERO;
    let t = Instant::now();
    a.listen();
    let active = TcpPattern::Active { remote: a_addr, remote_port: PORT, local_port: 0 };
    let bc = b.tcp.open(active, b.data_handler()).map_err(|e| format!("connect: {e}"))?;
    let mut ac = None;
    drive_own(net, &mut now, &mut a, &mut b, |a, b| {
        if ac.is_none() {
            ac = a.accept();
        }
        ac.is_some() && b.established.get()
    });
    let ac = ac.expect("the listener accepted");
    match pattern {
        Pattern::Bulk(bytes) => {
            // As `workload::bulk_transfer`: an 8-byte request, then the
            // sender keeps its buffer full from an 8 KB chunk.
            let chunk = vec![0xa5u8; 8192];
            let taken = b.tcp.send_data(bc, &(bytes as u64).to_be_bytes()).unwrap_or(0);
            if taken != 8 {
                return Err("the request did not fit an empty window".into());
            }
            let mut produced = 0;
            drive_own(net, &mut now, &mut a, &mut b, |a, b| {
                if a.received.get() >= 8 && produced < bytes {
                    let n = chunk.len().min(bytes - produced);
                    produced += a.tcp.send_data(ac, &chunk[..n]).unwrap_or(0);
                }
                b.received.get() >= bytes
            });
        }
        Pattern::RoundTrips(rounds) => {
            let msg = [0x42u8; MSG_LEN];
            let mut answered = 0;
            for round in 1..=rounds {
                if b.tcp.send_data(bc, &msg).unwrap_or(0) != MSG_LEN {
                    return Err(format!("request {round} did not fit an empty window"));
                }
                drive_own(net, &mut now, &mut a, &mut b, |a, b| {
                    let unanswered = a.received.get() - answered;
                    if unanswered > 0 {
                        answered += a.tcp.send_data(ac, &vec![0x42u8; unanswered]).unwrap_or(0);
                    }
                    b.received.get() >= round * MSG_LEN
                });
            }
        }
    }
    let wall = t.elapsed();
    let counts = engine_counts(&a.tcp).plus(&engine_counts(&b.tcp));
    let want = match pattern {
        Pattern::Bulk(bytes) => bytes + 8,
        Pattern::RoundTrips(n) => 2 * n * MSG_LEN,
    };
    if counts.bytes_delivered == want as u64 {
        Ok(RungRun { wall, counts, steps: a.steps + b.steps })
    } else {
        Err(format!("{} bytes delivered, {want} wanted", counts.bytes_delivered))
    }
}

/// One run of one stack rung.
pub struct RungRun {
    wall: Duration,
    counts: EngineCounts,
    steps: u64,
}

/// `Tcp` over the in-memory test link with a free host: the engine and
/// nothing else (no checksums either — the link cannot corrupt).
pub fn engine_rung(cfg: &TcpConfig, pattern: Pattern) -> Result<RungRun, String> {
    let link = LinkPair::new();
    let end = |side: u8| {
        let host = HostHandle::free();
        End::new(
            Tcp::new(link.endpoint(side), TestAux, (), cfg.clone(), SchedHandle::new(), host.clone()),
            host,
        )
    };
    run_pattern(None, end(0), end(1), 0u8, pattern)
}

/// `Tcp(Ip(Eth(Dev)))` on a simulated segment, assembled as
/// `foxharness::stack::standard_station` assembles it but without the
/// station around it.
pub fn stack_rung(
    net_cfg: NetConfig,
    seed: u64,
    cfg: &TcpConfig,
    cost: fn() -> CostModel,
    batch: BatchConfig,
    pattern: Pattern,
) -> Result<RungRun, String> {
    let net = SimNet::new(net_cfg, seed);
    let end = |id: u16| {
        let host = HostHandle::new(Host::new("host", cost(), false));
        let mut dev = Dev::new(net.attach(mac_of(id)), host.clone());
        dev.set_batching(batch);
        let eth = Eth::new(dev, mac_of(id), host.clone());
        let ip = Ip::new(eth, mac_of(id), wide_subnet(ip_of(id)), host.clone());
        let aux = IpAuxImpl::new(ip_of(id), IpProtocol::Tcp, foxwire::ether::MTU);
        End::new(Tcp::new(ip, aux, IpProtocol::Tcp, cfg.clone(), SchedHandle::new(), host.clone()), host)
    };
    let (a, b) = (end(1), end(2));
    run_pattern(Some(&net), a, b, ip_of(1), pattern)
}

/// The three stack rungs of one workload.
#[derive(Copy, Clone, Debug, Default)]
pub struct StackRungs {
    /// `Tcp` over the test link.
    pub engine: StackRung,
    /// `Tcp(Ip(Eth(Dev)))`, free cost model, unbatched device.
    pub stack_free: StackRung,
    /// The same under `CostModel::modern_gbps` with GRO/TSO batching —
    /// the stack exactly as the stations run it.
    pub stack_modern: StackRung,
}

/// Runs the stack rungs for `w` (`reps` times each, fastest kept).
/// `bulk-loss` gets only the last rung, for its engine counters: a
/// per-layer time budget of a run that mostly waits for timers says
/// nothing. `churn` and `fanin` have no single-connection pattern.
pub fn stack_rungs(w: Workload, pattern: Pattern, seed: u64, reps: usize) -> Result<StackRungs, String> {
    let cfg = tcp_config(w);
    let profile = BenchProfile::Modern;
    let ops = pattern.ops() as f64;
    let rung = |run: &dyn Fn() -> Result<RungRun, String>| -> Result<StackRung, String> {
        let mut out = StackRung::default();
        for _ in 0..reps {
            let r = run()?;
            keep_fastest(&mut out.ns_per_op, r.wall.as_nanos() as f64 / ops);
            out.counts = r.counts;
            out.steps = r.steps;
        }
        Ok(out)
    };
    let modern = || stack_rung(net_config(w), seed, &cfg, CostModel::modern_gbps, profile.batch(), pattern);
    if w == Workload::BulkLoss {
        return Ok(StackRungs { stack_modern: rung(&modern)?, ..StackRungs::default() });
    }
    Ok(StackRungs {
        engine: rung(&|| engine_rung(&cfg, pattern))?,
        stack_free: rung(&|| {
            stack_rung(net_config(w), seed, &cfg, CostModel::modern, BatchConfig::default(), pattern)
        })?,
        stack_modern: rung(&modern)?,
    })
}
