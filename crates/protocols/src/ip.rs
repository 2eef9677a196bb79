//! The IPv4 layer: routing, fragmentation, reassembly, ARP-driven
//! delivery.
//!
//! The paper singles IP fragment reassembly out as the canonical
//! automatic-storage-management workload ("IP fragment reassembly may on
//! occasion need buffers for reassembling a large number of packets
//! simultaneously, but normally won't"); the [`Reassembler`] here is that
//! machinery, bounded and deadline-pruned.

use crate::arp::{ArpCache, ArpEffect};
use crate::eth::EthIncoming;
use crate::upcall::{Bindings, Inbox};
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::arp::ArpPacket;
use foxwire::ether::{EthAddr, EtherType};
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Header, Ipv4Packet};
use simnet::{HostHandle, Work};
use std::collections::BTreeMap;
use std::fmt;

/// Reassembly gives up on a datagram after this long (RFC 1122's
/// suggested 15–120 s range).
pub const REASSEMBLY_TIMEOUT: VirtualDuration = VirtualDuration::from_secs(30);
/// At most this many datagrams may be in reassembly at once.
pub const MAX_REASSEMBLIES: usize = 16;
/// How long we keep retrying ARP for a next hop before declaring it
/// unreachable and dropping queued packets.
pub const ARP_GIVE_UP: VirtualDuration = VirtualDuration::from_secs(5);

/// What an upper layer receives from `Ip`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpIncoming {
    /// Sender.
    pub src: Ipv4Addr,
    /// Destination (ours, or a broadcast).
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProtocol,
    /// Reassembled payload (for unfragmented datagrams, a zero-copy
    /// slice of the received frame).
    pub payload: PacketBuf,
}

/// Connection handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IpConn(u32);

/// Host-side IP configuration.
#[derive(Clone, Debug)]
pub struct IpConfig {
    /// Our address.
    pub local: Ipv4Addr,
    /// Subnet prefix length (for direct-vs-gateway routing).
    pub prefix_len: u8,
    /// Default gateway for off-subnet destinations.
    pub gateway: Option<Ipv4Addr>,
    /// Initial TTL on sent packets.
    pub ttl: u8,
}

impl IpConfig {
    /// A /24 host with no gateway (the isolated-segment setup of the
    /// paper's benchmark).
    pub fn isolated(local: Ipv4Addr) -> IpConfig {
        IpConfig { local, prefix_len: 24, gateway: None, ttl: 64 }
    }
}

/// Drop/delivery counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IpStats {
    /// Packets delivered upward.
    pub delivered: u64,
    /// Packets sent (post-fragmentation count).
    pub sent: u64,
    /// Undecodable or checksum-failing packets.
    pub bad: u64,
    /// Packets not addressed to us.
    pub not_ours: u64,
    /// Packets with no listening connection.
    pub no_listener: u64,
    /// Datagrams abandoned in reassembly.
    pub reassembly_expired: u64,
    /// Packets dropped because ARP never resolved.
    pub unresolved: u64,
}

struct Reassembly {
    /// Disjoint fragments sorted by offset. The disjointness is an
    /// invariant `insert` maintains: arrivals are clipped against what
    /// is already held, so overlap resolution is deterministic
    /// regardless of arrival order *within* the policy — bytes that
    /// arrived first are never displaced (first-arrival wins; RFC 791
    /// leaves overlap policy open).
    chunks: Vec<(usize, PacketBuf)>,
    total: Option<usize>,
    started: VirtualTime,
    proto: IpProtocol,
    src: Ipv4Addr,
    dst: Ipv4Addr,
}

impl Reassembly {
    fn insert(&mut self, offset: usize, data: PacketBuf, last: bool) {
        if last && self.total.is_none() {
            // First final fragment fixes the datagram length; a
            // conflicting later claim does not move it.
            self.total = Some(offset + data.len());
        }
        // Clip the newcomer against every byte range already held,
        // keeping only still-uncovered pieces as zero-copy slices.
        // Exact duplicates and fully-covered arrivals vanish entirely.
        let end = offset + data.len();
        let mut from = offset;
        let mut pieces = Vec::new();
        for (o, d) in &self.chunks {
            let (co, ce) = (*o, *o + d.len());
            if ce <= from || co >= end {
                continue;
            }
            if from < co {
                pieces.push((from, data.slice(from - offset, co - offset)));
            }
            from = from.max(ce);
            if from >= end {
                break;
            }
        }
        if from < end {
            pieces.push((from, data.slice(from - offset, end - offset)));
        }
        self.chunks.extend(pieces);
        self.chunks.sort_by_key(|(o, _)| *o);
    }

    fn complete(&self) -> Option<PacketBuf> {
        let total = self.total?;
        // The chunks are disjoint and sorted, so coverage of [0, total)
        // is a single monotone walk.
        let mut covered = 0usize;
        for (o, d) in &self.chunks {
            if *o > covered {
                return None; // hole
            }
            covered = covered.max(*o + d.len());
            if covered >= total {
                break;
            }
        }
        if covered < total {
            return None;
        }
        if self.chunks.len() == 1 && self.chunks[0].0 == 0 {
            // Single piece covering everything: hand it up zero-copy.
            let mut buf = self.chunks[0].1.clone();
            buf.truncate(total);
            return Some(buf);
        }
        // The one genuine reassembly copy, off the single-segment fast
        // path: stitch the fragment slices into a fresh buffer.
        Some(PacketBuf::build(0, total, |out| {
            for (o, d) in &self.chunks {
                if *o >= total {
                    break;
                }
                let end = (*o + d.len()).min(total);
                out[*o..end].copy_from_slice(&d.bytes()[..end - *o]);
            }
        }))
    }
}

/// The fragment reassembler.
pub struct Reassembler {
    inflight: BTreeMap<(Ipv4Addr, u16, u8), Reassembly>,
}

impl Reassembler {
    fn new() -> Reassembler {
        Reassembler { inflight: BTreeMap::new() }
    }

    /// Feeds one fragment; returns the whole datagram when complete.
    fn input(&mut self, now: VirtualTime, pkt: Ipv4Packet) -> Option<IpIncoming> {
        let key = (pkt.header.src, pkt.header.ident, pkt.header.protocol.to_u8());
        if !self.inflight.contains_key(&key) && self.inflight.len() >= MAX_REASSEMBLIES {
            return None; // table full: drop (bounded memory)
        }
        let entry = self.inflight.entry(key).or_insert_with(|| Reassembly {
            chunks: Vec::new(),
            total: None,
            started: now,
            proto: pkt.header.protocol,
            src: pkt.header.src,
            dst: pkt.header.dst,
        });
        let last = !pkt.header.more_frags;
        entry.insert(pkt.header.frag_byte_offset(), pkt.payload, last);
        if let Some(payload) = entry.complete() {
            if let Some(done) = self.inflight.remove(&key) {
                return Some(IpIncoming { src: done.src, dst: done.dst, proto: done.proto, payload });
            }
        }
        None
    }

    fn expire(&mut self, now: VirtualTime) -> u64 {
        if self.inflight.is_empty() {
            return 0;
        }
        let before = self.inflight.len();
        self.inflight.retain(|_, r| now.saturating_since(r.started) <= REASSEMBLY_TIMEOUT);
        (before - self.inflight.len()) as u64
    }

    /// Number of datagrams currently being reassembled.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

/// One IPv4 interface on an Ethernet-like layer: the IPv4 and ARP
/// bindings, which feed one inbox so that ARP and IPv4 frames keep their
/// arrival order, the ARP cache, and the interface's address and prefix.
/// A host's [`Ip`] holds one; a [`crate::router::Router`] holds one per
/// interface.
pub(crate) struct Link<L: Protocol> {
    lower: L,
    /// The (IPv4, ARP) bindings, once attached.
    bound: Option<(L::ConnId, L::ConnId)>,
    inbox: Inbox<EthIncoming>,
    arp: ArpCache,
    addr: Ipv4Addr,
    prefix_len: u8,
}

/// What [`Link::next`] took from the inbox.
pub(crate) enum Arrival {
    /// An IPv4 packet, still encoded.
    Ipv4(PacketBuf),
    /// An ARP packet, already answered.
    Arp,
    /// A frame that does not decode.
    Bad,
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Link<L> {
    /// The interface `addr`/`prefix_len` at station address `mac` over
    /// `lower`.
    pub(crate) fn new(lower: L, mac: EthAddr, addr: Ipv4Addr, prefix_len: u8) -> Link<L> {
        Link { lower, bound: None, inbox: Inbox::new(), arp: ArpCache::new(mac, addr), addr, prefix_len }
    }

    /// Opens both bindings below, once.
    pub(crate) fn attach(&mut self) -> Result<(), ProtoError> {
        if self.bound.is_none() {
            let ipv4 = self.lower.open(EtherType::Ipv4, self.inbox.handler())?;
            let arp = self.lower.open(EtherType::Arp, self.inbox.handler())?;
            self.bound = Some((ipv4, arp));
        }
        Ok(())
    }

    /// The interface's address.
    pub(crate) fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    fn subnet(&self, a: Ipv4Addr) -> u32 {
        let mask = if self.prefix_len == 0 { 0 } else { !0u32 << (32 - self.prefix_len) };
        a.to_u32() & mask
    }

    /// Whether `a` is on the interface's subnet.
    pub(crate) fn on_link(&self, a: Ipv4Addr) -> bool {
        self.subnet(a) == self.subnet(self.addr)
    }

    /// Whether `dst` is the limited broadcast or the subnet's broadcast
    /// address.
    pub(crate) fn is_broadcast(&self, dst: Ipv4Addr) -> bool {
        if dst == Ipv4Addr::BROADCAST {
            return true;
        }
        let host_bits = 32 - u32::from(self.prefix_len);
        let subnet_broadcast = self.subnet(self.addr) | ((1u64 << host_bits) as u32).wrapping_sub(1);
        dst.to_u32() == subnet_broadcast
    }

    /// Sends the encoded IPv4 `packet` to the station at `hop`, or to
    /// every station for `None`. A hop ARP has not resolved yet gets the
    /// packet queued behind a request.
    pub(crate) fn send(
        &mut self,
        now: VirtualTime,
        hop: Option<Ipv4Addr>,
        packet: PacketBuf,
    ) -> Result<(), ProtoError> {
        let (ipv4, _) = self.bound.ok_or(ProtoError::NotOpen)?;
        match hop {
            None => self.lower.send(ipv4, EthAddr::BROADCAST, packet),
            Some(hop) => match self.arp.lookup(now, hop) {
                // The per-packet case: a live mapping, nothing to queue,
                // no effect list to build.
                Some(mac) => self.lower.send(ipv4, mac, packet),
                None => {
                    let effects = self.arp.resolve(now, hop, packet);
                    self.apply(effects)
                }
            },
        }
    }

    fn apply(&mut self, effects: Vec<ArpEffect>) -> Result<(), ProtoError> {
        let (ipv4, arp) = self.bound.ok_or(ProtoError::NotOpen)?;
        for e in effects {
            match e {
                ArpEffect::Transmit(arp_pkt, mac) => self.lower.send(arp, mac, arp_pkt.encode())?,
                ArpEffect::Release(packets, mac) => {
                    for p in packets {
                        self.lower.send(ipv4, mac, p)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The oldest arrival not yet taken. An ARP packet is answered (and
    /// the packets it releases sent) here.
    pub(crate) fn next(&mut self, now: VirtualTime) -> Option<Arrival> {
        let msg = self.inbox.next()?;
        Some(match msg.ethertype {
            EtherType::Ipv4 => Arrival::Ipv4(msg.payload),
            EtherType::Arp => match ArpPacket::decode(&msg.payload.bytes()) {
                Ok(pkt) => {
                    let effects = self.arp.input(now, &pkt);
                    let _ = self.apply(effects);
                    Arrival::Arp
                }
                Err(_) => Arrival::Bad,
            },
            _ => Arrival::Bad,
        })
    }

    /// Drives the layer below, which fills the inbox.
    pub(crate) fn step(&mut self, now: VirtualTime) -> bool {
        self.lower.step(now)
    }

    /// Gives up on next hops whose ARP requests went unanswered for
    /// [`ARP_GIVE_UP`]; returns how many queued packets were dropped.
    pub(crate) fn expire(&mut self, now: VirtualTime) -> u64 {
        self.arp.expire_pending(now, ARP_GIVE_UP)
    }

    /// Whether a next hop waits for ARP, whose give-up [`Link::expire`]
    /// checks at every step.
    pub(crate) fn awaits_arp(&self) -> bool {
        self.arp.has_pending()
    }

    /// Due now while an arrival waits in the inbox or a next hop waits
    /// for ARP; otherwise when the lower layer is.
    pub(crate) fn poll_at(&self) -> Option<VirtualTime> {
        if self.inbox.is_empty() && !self.awaits_arp() {
            self.lower.poll_at()
        } else {
            Some(VirtualTime::ZERO)
        }
    }
}

/// The IPv4 layer over an Ethernet-like lower protocol.
pub struct Ip<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> {
    link: Link<L>,
    config: IpConfig,
    host: HostHandle,
    reasm: Reassembler,
    bindings: Bindings<IpProtocol, IpIncoming>,
    next_ident: u16,
    stats: IpStats,
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Ip<L> {
    /// An IP host at `config.local` over `lower`, whose station address
    /// is `local_eth`.
    pub fn new(lower: L, local_eth: EthAddr, config: IpConfig, host: HostHandle) -> Ip<L> {
        Ip {
            link: Link::new(lower, local_eth, config.local, config.prefix_len),
            config,
            host,
            reasm: Reassembler::new(),
            bindings: Bindings::new(),
            next_ident: 1,
            stats: IpStats::default(),
        }
    }

    /// The MTU available to transports: Ethernet payload minus our
    /// header (the `mtu` of the paper's `IP_AUX`).
    pub fn mtu(&self) -> usize {
        foxwire::ether::MTU - foxwire::ipv4::HEADER_LEN
    }

    /// Layer statistics.
    pub fn stats(&self) -> IpStats {
        self.stats
    }

    fn next_hop(&self, dst: Ipv4Addr) -> Result<Option<Ipv4Addr>, ProtoError> {
        if self.link.is_broadcast(dst) {
            return Ok(None); // link broadcast
        }
        if self.link.on_link(dst) {
            return Ok(Some(dst));
        }
        self.config.gateway.map(Some).ok_or(ProtoError::Unreachable)
    }

    fn transmit_packet(
        &mut self,
        now: VirtualTime,
        bytes: PacketBuf,
        dst: Ipv4Addr,
    ) -> Result<(), ProtoError> {
        self.stats.sent += 1;
        let hop = self.next_hop(dst)?;
        let sent = self.link.send(now, hop, bytes);
        if self.link.awaits_arp() {
            // Its give-up is checked at every step (see `poll_at`).
            self.host.wake_at(VirtualTime::ZERO);
        }
        sent
    }

    /// One IPv4 packet from the link: checked, reassembled if it is a
    /// fragment, and delivered.
    fn input(&mut self, now: VirtualTime, payload: PacketBuf) {
        self.host.charge(Work::IpPacket);
        let pkt = match Ipv4Packet::decode_buf(&payload) {
            Ok(p) => p,
            Err(_) => {
                self.stats.bad += 1;
                return;
            }
        };
        if pkt.header.dst != self.config.local && !self.link.is_broadcast(pkt.header.dst) {
            self.stats.not_ours += 1;
            return;
        }
        let msg = if pkt.header.is_fragment() {
            match self.reasm.input(now, pkt) {
                Some(whole) => whole,
                None => {
                    // Its expiry is checked at every step (see `poll_at`).
                    self.host.wake_at(VirtualTime::ZERO);
                    return;
                }
            }
        } else {
            IpIncoming {
                src: pkt.header.src,
                dst: pkt.header.dst,
                proto: pkt.header.protocol,
                payload: pkt.payload,
            }
        };
        if self.bindings.deliver(msg.proto, msg) {
            self.stats.delivered += 1;
        } else {
            self.stats.no_listener += 1;
        }
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Protocol for Ip<L> {
    type Pattern = IpProtocol;
    type Peer = Ipv4Addr;
    type Incoming = IpIncoming;
    type ConnId = IpConn;

    fn open(&mut self, proto: IpProtocol, handler: Handler<IpIncoming>) -> Result<IpConn, ProtoError> {
        self.link.attach()?;
        self.bindings.bind(proto, handler).map(IpConn)
    }

    fn send(&mut self, conn: IpConn, to: Ipv4Addr, payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        let payload: PacketBuf = payload.into();
        let proto = self.bindings.key_of(conn.0)?;
        self.host.charge(Work::IpPacket);
        let now = self.host.with(|h| h.now_busy());
        let mtu = self.mtu();
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);

        if payload.len() <= mtu {
            let header =
                Ipv4Header { ident, ttl: self.config.ttl, ..Ipv4Header::new(proto, self.config.local, to) };
            let bytes = Ipv4Packet { header, payload }.encode_buf().map_err(|_| ProtoError::TooBig)?;
            return self.transmit_packet(now, bytes, to);
        }

        // Fragment: chunks must be multiples of 8 bytes except the last.
        let chunk = mtu & !7;
        let mut offset = 0;
        while offset < payload.len() {
            let end = (offset + chunk).min(payload.len());
            let more = end < payload.len();
            let header = Ipv4Header {
                ident,
                ttl: self.config.ttl,
                more_frags: more,
                frag_offset: (offset / 8) as u16,
                ..Ipv4Header::new(proto, self.config.local, to)
            };
            if offset > 0 {
                self.host.charge(Work::IpPacket); // each extra fragment costs
            }
            let bytes = Ipv4Packet { header, payload: payload.slice(offset, end) }
                .encode_buf()
                .map_err(|_| ProtoError::TooBig)?;
            self.transmit_packet(now, bytes, to)?;
            offset = end;
        }
        Ok(())
    }

    fn close(&mut self, conn: IpConn) -> Result<(), ProtoError> {
        self.bindings.unbind(conn.0)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = self.link.step(now);
        while let Some(arrival) = self.link.next(now) {
            progress = true;
            match arrival {
                Arrival::Ipv4(payload) => self.input(now, payload),
                Arrival::Arp => {}
                Arrival::Bad => self.stats.bad += 1,
            }
        }
        self.stats.reassembly_expired += self.reasm.expire(now);
        self.stats.unresolved += self.link.expire(now);
        progress
    }

    /// Due now while a datagram is in reassembly, since its expiry is
    /// checked at every step; otherwise as the link is. Taking on either
    /// kind of work lowers the host's alarm to now.
    fn poll_at(&self) -> Option<VirtualTime> {
        if self.reasm.in_flight() > 0 {
            Some(VirtualTime::ZERO)
        } else {
            self.link.poll_at()
        }
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming> + fmt::Debug> fmt::Debug
    for Ip<L>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ip({}, conns={}, over {:?})", self.config.local, self.bindings.len(), self.link.lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use simnet::SimNet;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Stack = Ip<Eth<Dev>>;

    fn station(net: &SimNet, id: u8) -> Stack {
        let host = HostHandle::free();
        let mac = EthAddr::host(id);
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
        Ip::new(eth, mac, IpConfig::isolated(Ipv4Addr::new(10, 0, 0, id)), host)
    }

    fn listen(ip: &mut Stack, proto: IpProtocol) -> Rc<RefCell<Vec<IpIncoming>>> {
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ip.open(proto, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
        got
    }

    #[test]
    fn datagram_exchange_with_arp_resolution() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"hello ip".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got.borrow().len(), 1, "datagram arrives after ARP resolves");
        let m = &got.borrow()[0];
        assert_eq!(m.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(m.payload, b"hello ip");
        assert!(a.stats().sent >= 1);
    }

    /// `poll_at` down the stack: due while a frame waits at the port or
    /// a next hop waits for ARP, and taking on the latter makes the host
    /// due too.
    #[test]
    fn poll_at_reports_waiting_frames_and_unanswered_arp() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        assert_eq!((a.poll_at(), b.poll_at()), (None, None), "idle");
        a.host.set_alarm(None);
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"hello".to_vec()).unwrap();
        assert_eq!(a.poll_at(), Some(VirtualTime::ZERO), "the next hop waits for ARP");
        assert_eq!(a.host.alarm(), Some(VirtualTime::ZERO), "and the host is due");
        net.advance_to(VirtualTime::from_millis(1));
        assert_eq!(b.poll_at(), Some(VirtualTime::ZERO), "the request waits at b's port");
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!((a.poll_at(), b.poll_at()), (None, None), "answered and delivered");
    }

    #[test]
    fn second_datagram_uses_cached_arp() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"one".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        let arp_frames_before = net.stats().frames_sent;
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"two".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got.borrow().len(), 2);
        // Only one more frame on the wire: the datagram itself.
        assert_eq!(net.stats().frames_sent, arp_frames_before + 1);
    }

    #[test]
    fn large_datagram_fragments_and_reassembles() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), payload.clone()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].payload, payload);
        assert_eq!(a.stats().sent, 3, "4000 bytes over 1480-byte MTU = 3 fragments");
        assert_eq!(b.reasm.in_flight(), 0);
    }

    #[test]
    fn off_subnet_without_gateway_is_unreachable() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        assert_eq!(a.send(conn, Ipv4Addr::new(99, 9, 9, 9), b"far".to_vec()), Err(ProtoError::Unreachable));
    }

    #[test]
    fn broadcast_delivery() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let mut c = station(&net, 3);
        let got_b = listen(&mut b, IpProtocol::Udp);
        let got_c = listen(&mut c, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::BROADCAST, b"all".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now) | c.step(now));
        assert_eq!(got_b.borrow().len(), 1);
        assert_eq!(got_c.borrow().len(), 1);
        // Subnet broadcast too.
        a.send(conn, Ipv4Addr::new(10, 0, 0, 255), b"subnet".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now) | c.step(now));
        assert_eq!(got_b.borrow().len(), 2);
    }

    #[test]
    fn wrong_destination_not_delivered() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        // Hand-craft a packet to 10.0.0.9 but send it to B's MAC.
        let pkt = Ipv4Packet {
            header: Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 9)),
            payload: b"misdirected"[..].into(),
        };
        let got = listen(&mut b, IpProtocol::Udp);
        // Use a's lower Eth directly through its Protocol interface by
        // opening a raw Ipv4 conn... simplest: encode an Eth frame on the
        // wire through a fresh station's Dev.
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let rc = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        raw.send(rc, EthAddr::host(2), pkt.encode_buf().unwrap()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert!(got.borrow().is_empty());
        assert_eq!(b.stats().not_ours, 1);
    }

    #[test]
    fn no_listener_counted() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let _tcp_only = listen(&mut b, IpProtocol::Tcp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"udp".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(b.stats().no_listener, 1);
    }

    /// Every packet queued behind a next hop nobody answers counts once
    /// when ARP gives up on it.
    #[test]
    fn packets_queued_to_a_silent_hop_count_as_unresolved() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        for payload in [b"one", b"two", b"six"] {
            a.send(conn, Ipv4Addr::new(10, 0, 0, 9), payload.to_vec()).unwrap();
        }
        simnet::settle(&[&net], |now| a.step(now));
        assert_eq!(a.stats().unresolved, 0, "still asking");
        net.advance_to(net.now() + ARP_GIVE_UP + VirtualDuration::from_secs(1));
        a.step(net.now());
        assert_eq!((a.stats().sent, a.stats().unresolved), (3, 3));
    }

    #[test]
    fn duplicate_proto_open_rejected() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        a.open(IpProtocol::Tcp, Box::new(|_| {})).unwrap();
        assert_eq!(a.open(IpProtocol::Tcp, Box::new(|_| {})).unwrap_err(), ProtoError::AlreadyOpen);
    }

    #[test]
    fn reassembly_expires_incomplete_datagrams() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        // Craft a lone first-fragment.
        let header = Ipv4Header {
            ident: 77,
            more_frags: true,
            ..Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        };
        let pkt = Ipv4Packet { header, payload: vec![0u8; 8].into() };
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let rc = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        raw.send(rc, EthAddr::host(2), pkt.encode_buf().unwrap()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(b.reasm.in_flight(), 1);
        net.advance_to(net.now() + VirtualDuration::from_secs(31));
        b.step(net.now());
        assert_eq!(b.reasm.in_flight(), 0);
        assert_eq!(b.stats().reassembly_expired, 1);
        assert!(got.borrow().is_empty());
    }

    /// RFC 791 keys fragments by source, destination, protocol and
    /// identification: two datagrams from one source that share an
    /// identification but not a protocol reassemble apart, however
    /// their fragments interleave.
    #[test]
    fn fragments_sharing_an_ident_reassemble_by_protocol() {
        let net = SimNet::ethernet_10mbps(5);
        let mut b = station(&net, 2);
        let got_udp = listen(&mut b, IpProtocol::Udp);
        let got_tcp = listen(&mut b, IpProtocol::Tcp);
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let rc = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        let udp: Vec<u8> = (0..16).collect();
        let tcp: Vec<u8> = (100..116).collect();
        let fragment = |proto, data: &[u8], half: usize| {
            let header = Ipv4Header {
                ident: 42,
                more_frags: half == 0,
                frag_offset: half as u16,
                ..Ipv4Header::new(proto, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            };
            Ipv4Packet { header, payload: data[8 * half..8 * half + 8].into() }
        };
        for half in [0, 1] {
            for (proto, data) in [(IpProtocol::Udp, &udp), (IpProtocol::Tcp, &tcp)] {
                raw.send(rc, EthAddr::host(2), fragment(proto, data, half).encode_buf().unwrap()).unwrap();
            }
        }
        simnet::settle(&[&net], |now| b.step(now));
        let payloads = |got: &Rc<RefCell<Vec<IpIncoming>>>| -> Vec<Vec<u8>> {
            got.borrow().iter().map(|m| m.payload.to_vec()).collect()
        };
        assert_eq!(payloads(&got_udp), [udp], "the UDP datagram, intact");
        assert_eq!(payloads(&got_tcp), [tcp], "the TCP datagram, intact");
        assert_eq!(b.reasm.in_flight(), 0);
    }

    #[test]
    fn reassembly_table_is_bounded() {
        let net = SimNet::ethernet_10mbps(5);
        let mut b = station(&net, 2);
        listen(&mut b, IpProtocol::Udp);
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let rc = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        for ident in 0..(MAX_REASSEMBLIES as u16 + 10) {
            let header = Ipv4Header {
                ident,
                more_frags: true,
                ..Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            };
            let pkt = Ipv4Packet { header, payload: vec![0u8; 8].into() };
            raw.send(rc, EthAddr::host(2), pkt.encode_buf().unwrap()).unwrap();
        }
        simnet::settle(&[&net], |now| b.step(now));
        assert_eq!(b.reasm.in_flight(), MAX_REASSEMBLIES);
    }
}

#[cfg(test)]
mod gateway_tests {
    use super::*;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use simnet::SimNet;

    /// Off-subnet traffic goes to the configured gateway's MAC (the
    /// gateway would forward it; we verify the next-hop decision by
    /// watching which station hears the frame).
    #[test]
    fn off_subnet_packets_go_to_the_gateway() {
        let net = SimNet::ethernet_10mbps(3);
        let host = HostHandle::free();
        let mac = EthAddr::host(1);
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
        let mut ip = Ip::new(
            eth,
            mac,
            IpConfig {
                local: Ipv4Addr::new(10, 0, 0, 1),
                prefix_len: 24,
                gateway: Some(Ipv4Addr::new(10, 0, 0, 254)),
                ttl: 64,
            },
            host,
        );
        // The "gateway": a station at 10.0.0.254 that just answers ARP.
        let ghost = HostHandle::free();
        let gmac = EthAddr::host(254);
        let geth = Eth::new(Dev::new(net.attach(gmac), ghost.clone()), gmac, ghost.clone());
        let mut gw = Ip::new(geth, gmac, IpConfig::isolated(Ipv4Addr::new(10, 0, 0, 254)), ghost);
        gw.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();

        let conn = ip.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        ip.send(conn, Ipv4Addr::new(192, 168, 7, 7), b"far away".to_vec()).unwrap();
        simnet::settle(&[&net], |now| ip.step(now) | gw.step(now));
        // The gateway heard the packet addressed (at the Ethernet level)
        // to it; its IP layer counted it "not ours" because the IP
        // destination is beyond it — exactly a router's inbound view.
        assert_eq!(gw.stats().not_ours, 1, "{:?}", gw.stats());
        // And without a gateway the same send refuses immediately
        // (covered by `off_subnet_without_gateway_is_unreachable`).
    }
}
