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
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::fifo::Fifo;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::arp::ArpPacket;
use foxwire::ether::{EthAddr, EtherType};
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Header, Ipv4Packet};
use simnet::{HostHandle, Work};
use std::collections::BTreeMap;
use std::fmt;
use std::{cell::RefCell, rc::Rc};

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

struct Conn {
    id: IpConn,
    proto: IpProtocol,
    handler: Handler<IpIncoming>,
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
        let before = self.inflight.len();
        self.inflight.retain(|_, r| now.saturating_since(r.started) <= REASSEMBLY_TIMEOUT);
        (before - self.inflight.len()) as u64
    }

    /// Number of datagrams currently being reassembled.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

/// The IPv4 layer over an Ethernet-like lower protocol.
pub struct Ip<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> {
    lower: L,
    config: IpConfig,
    host: HostHandle,
    ipv4_conn: Option<L::ConnId>,
    arp_conn: Option<L::ConnId>,
    rx: Rc<RefCell<Fifo<EthIncoming>>>,
    arp: ArpCache,
    reasm: Reassembler,
    conns: Vec<Conn>,
    next_id: u32,
    next_ident: u16,
    stats: IpStats,
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Ip<L> {
    /// An IP host at `config.local` over `lower`, whose station address
    /// is `local_eth`.
    pub fn new(lower: L, local_eth: EthAddr, config: IpConfig, host: HostHandle) -> Ip<L> {
        let arp = ArpCache::new(local_eth, config.local);
        Ip {
            lower,
            config,
            host,
            ipv4_conn: None,
            arp_conn: None,
            rx: Rc::new(RefCell::new(Fifo::new())),
            arp,
            reasm: Reassembler::new(),
            conns: Vec::new(),
            next_id: 0,
            next_ident: 1,
            stats: IpStats::default(),
        }
    }

    /// Our address.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.config.local
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

    fn ensure_lower_open(&mut self) -> Result<(), ProtoError> {
        if self.ipv4_conn.is_none() {
            let q = self.rx.clone();
            self.ipv4_conn =
                Some(self.lower.open(EtherType::Ipv4, Box::new(move |m| q.borrow_mut().add(m)))?);
            let q = self.rx.clone();
            self.arp_conn = Some(self.lower.open(EtherType::Arp, Box::new(move |m| q.borrow_mut().add(m)))?);
        }
        Ok(())
    }

    fn subnet_of(&self, addr: Ipv4Addr) -> u32 {
        let mask = if self.config.prefix_len == 0 { 0 } else { !0u32 << (32 - self.config.prefix_len) };
        addr.to_u32() & mask
    }

    fn is_broadcast_for_us(&self, dst: Ipv4Addr) -> bool {
        if dst == Ipv4Addr::BROADCAST {
            return true;
        }
        let host_bits = 32 - u32::from(self.config.prefix_len);
        let subnet_broadcast =
            self.subnet_of(self.config.local) | ((1u64 << host_bits) as u32).wrapping_sub(1);
        dst.to_u32() == subnet_broadcast
    }

    fn next_hop(&self, dst: Ipv4Addr) -> Result<Option<Ipv4Addr>, ProtoError> {
        if self.is_broadcast_for_us(dst) {
            return Ok(None); // link broadcast
        }
        if self.subnet_of(dst) == self.subnet_of(self.config.local) {
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
        let conn = self.ipv4_conn.expect("lower opened");
        self.stats.sent += 1;
        match self.next_hop(dst)? {
            None => self.lower.send(conn, EthAddr::BROADCAST, bytes),
            Some(hop) => match self.arp.lookup(now, hop) {
                // The per-packet case: a live mapping, nothing to queue,
                // no effect list to build.
                Some(mac) => self.lower.send(conn, mac, bytes),
                None => {
                    let effects = self.arp.resolve(now, hop, bytes);
                    self.apply_arp_effects(effects)
                }
            },
        }
    }

    fn apply_arp_effects(&mut self, effects: Vec<ArpEffect>) -> Result<(), ProtoError> {
        for e in effects {
            match e {
                ArpEffect::Transmit(arp_pkt, dst_mac) => {
                    let conn = self.arp_conn.expect("lower opened");
                    self.lower.send(conn, dst_mac, arp_pkt.encode())?;
                }
                ArpEffect::Release(packets, dst_mac) => {
                    let conn = self.ipv4_conn.expect("lower opened");
                    for p in packets {
                        self.lower.send(conn, dst_mac, p)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn deliver(&mut self, msg: IpIncoming) {
        match self.conns.iter_mut().find(|c| c.proto == msg.proto) {
            Some(conn) => {
                self.stats.delivered += 1;
                (conn.handler)(msg);
            }
            None => self.stats.no_listener += 1,
        }
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Protocol for Ip<L> {
    type Pattern = IpProtocol;
    type Peer = Ipv4Addr;
    type Incoming = IpIncoming;
    type ConnId = IpConn;

    fn open(&mut self, proto: IpProtocol, handler: Handler<IpIncoming>) -> Result<IpConn, ProtoError> {
        self.ensure_lower_open()?;
        if self.conns.iter().any(|c| c.proto == proto) {
            return Err(ProtoError::AlreadyOpen);
        }
        let id = IpConn(self.next_id);
        self.next_id += 1;
        self.conns.push(Conn { id, proto, handler });
        Ok(id)
    }

    fn send(&mut self, conn: IpConn, to: Ipv4Addr, payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        let payload: PacketBuf = payload.into();
        let proto = self.conns.iter().find(|c| c.id == conn).map(|c| c.proto).ok_or(ProtoError::NotOpen)?;
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
        let before = self.conns.len();
        self.conns.retain(|c| c.id != conn);
        if self.conns.len() == before {
            return Err(ProtoError::NotOpen);
        }
        Ok(())
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = self.lower.step(now);
        loop {
            let msg = match self.rx.borrow_mut().next() {
                Some(m) => m,
                None => break,
            };
            progress = true;
            match msg.ethertype {
                EtherType::Arp => {
                    if let Ok(pkt) = ArpPacket::decode(&msg.payload.bytes()) {
                        let effects = self.arp.input(now, &pkt);
                        let _ = self.apply_arp_effects(effects);
                    } else {
                        self.stats.bad += 1;
                    }
                }
                EtherType::Ipv4 => {
                    self.host.charge(Work::IpPacket);
                    let pkt = match Ipv4Packet::decode_buf(&msg.payload) {
                        Ok(p) => p,
                        Err(_) => {
                            self.stats.bad += 1;
                            continue;
                        }
                    };
                    if pkt.header.dst != self.config.local && !self.is_broadcast_for_us(pkt.header.dst) {
                        self.stats.not_ours += 1;
                        continue;
                    }
                    if pkt.header.is_fragment() {
                        if let Some(whole) = self.reasm.input(now, pkt) {
                            self.deliver(whole);
                        }
                    } else {
                        let m = IpIncoming {
                            src: pkt.header.src,
                            dst: pkt.header.dst,
                            proto: pkt.header.protocol,
                            payload: pkt.payload,
                        };
                        self.deliver(m);
                    }
                }
                _ => self.stats.bad += 1,
            }
        }
        self.stats.reassembly_expired += self.reasm.expire(now);
        for _dead in self.arp.expire_pending(now, ARP_GIVE_UP) {
            self.stats.unresolved += 1;
        }
        progress
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming> + fmt::Debug> fmt::Debug
    for Ip<L>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ip({}, conns={}, over {:?})", self.config.local, self.conns.len(), self.lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use simnet::SimNet;

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

    /// Run both stacks until the network and queues go quiet.
    fn settle(net: &SimNet, stacks: &mut [&mut Stack]) {
        for _ in 0..100 {
            let mut progress = false;
            for s in stacks.iter_mut() {
                progress |= s.step(net.now());
            }
            if let Some(t) = net.next_delivery() {
                net.advance_to(t);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    #[test]
    fn datagram_exchange_with_arp_resolution() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"hello ip".to_vec()).unwrap();
        settle(&net, &mut [&mut a, &mut b]);
        assert_eq!(got.borrow().len(), 1, "datagram arrives after ARP resolves");
        let m = &got.borrow()[0];
        assert_eq!(m.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(m.payload, b"hello ip");
        assert!(a.stats().sent >= 1);
    }

    #[test]
    fn second_datagram_uses_cached_arp() {
        let net = SimNet::ethernet_10mbps(5);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = listen(&mut b, IpProtocol::Udp);
        let conn = a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"one".to_vec()).unwrap();
        settle(&net, &mut [&mut a, &mut b]);
        let arp_frames_before = net.stats().frames_sent;
        a.send(conn, Ipv4Addr::new(10, 0, 0, 2), b"two".to_vec()).unwrap();
        settle(&net, &mut [&mut a, &mut b]);
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
        settle(&net, &mut [&mut a, &mut b]);
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
        settle(&net, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(got_b.borrow().len(), 1);
        assert_eq!(got_c.borrow().len(), 1);
        // Subnet broadcast too.
        a.send(conn, Ipv4Addr::new(10, 0, 0, 255), b"subnet".to_vec()).unwrap();
        settle(&net, &mut [&mut a, &mut b, &mut c]);
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
        settle(&net, &mut [&mut a, &mut b]);
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
        settle(&net, &mut [&mut a, &mut b]);
        assert_eq!(b.stats().no_listener, 1);
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
        settle(&net, &mut [&mut a, &mut b]);
        assert_eq!(b.reasm.in_flight(), 1);
        net.advance_to(net.now() + VirtualDuration::from_secs(31));
        b.step(net.now());
        assert_eq!(b.reasm.in_flight(), 0);
        assert_eq!(b.stats().reassembly_expired, 1);
        assert!(got.borrow().is_empty());
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
        for _ in 0..60 {
            if let Some(t) = net.next_delivery() {
                net.advance_to(t);
            }
            b.step(net.now());
        }
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
        for _ in 0..50 {
            if let Some(t) = net.next_delivery() {
                net.advance_to(t);
            }
            let p1 = ip.step(net.now());
            let p2 = gw.step(net.now());
            if !p1 && !p2 {
                break;
            }
        }
        // The gateway heard the packet addressed (at the Ethernet level)
        // to it; its IP layer counted it "not ours" because the IP
        // destination is beyond it — exactly a router's inbound view.
        assert_eq!(gw.stats().not_ours, 1, "{:?}", gw.stats());
        // And without a gateway the same send refuses immediately
        // (covered by `off_subnet_without_gateway_is_unreachable`).
    }
}
