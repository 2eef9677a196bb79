//! A multi-interface IP router.
//!
//! The paper's benchmark ran on one isolated segment ("in the absence of
//! routers", as §3's Special_Tcp discussion notes), but the Ip layer's
//! gateway configuration implies one — so here it is: a store-and-
//! forward IPv4 router joining any number of simulated segments, with
//! per-interface ARP (each interface is a host's own IP `Link`: its
//! bindings, ARP cache and subnet), TTL decrement, and the RFC 1624
//! *incremental* header-checksum update
//! (`foxbasis::checksum::incremental_update`) on the forwarding fast
//! path, exactly as real routers avoid re-summing the whole header.

use crate::dev::Dev;
use crate::eth::Eth;
use crate::ip::{Arrival, Link};
use crate::ProtoError;
use foxbasis::buf::PacketBuf;
use foxbasis::checksum::incremental_update;
use foxbasis::time::VirtualTime;
use foxwire::ether::EthAddr;
use foxwire::ipv4::Ipv4Addr;
use simnet::{HostHandle, SimNet};
use std::fmt;

/// Forwarding statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets forwarded between interfaces.
    pub forwarded: u64,
    /// Packets dropped because TTL reached zero.
    pub ttl_expired: u64,
    /// Packets with no route (no interface owns the destination subnet).
    pub no_route: u64,
    /// Packets addressed to the router itself (absorbed).
    pub for_router: u64,
    /// Undecodable packets.
    pub bad: u64,
    /// Forwarded packets dropped because ARP never resolved their
    /// destination.
    pub unresolved: u64,
}

/// The router.
pub struct Router {
    ifs: Vec<Link<Eth<Dev>>>,
    stats: RouterStats,
}

impl Router {
    /// A router with no interfaces yet.
    pub fn new() -> Router {
        Router { ifs: Vec::new(), stats: RouterStats::default() }
    }

    /// Attaches an interface to `net` with the given link and IP
    /// identity.
    pub fn add_interface(
        &mut self,
        net: &SimNet,
        mac: EthAddr,
        addr: Ipv4Addr,
        prefix_len: u8,
        host: HostHandle,
    ) -> Result<(), ProtoError> {
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let mut link = Link::new(eth, mac, addr, prefix_len);
        link.attach()?;
        self.ifs.push(link);
        Ok(())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Drives the router.
    pub fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = false;
        for i in 0..self.ifs.len() {
            progress |= self.ifs[i].step(now);
            while let Some(arrival) = self.ifs[i].next(now) {
                progress = true;
                match arrival {
                    Arrival::Ipv4(packet) => self.forward(now, packet),
                    Arrival::Arp => {}
                    Arrival::Bad => self.stats.bad += 1,
                }
            }
            self.stats.unresolved += self.ifs[i].expire(now);
        }
        progress
    }

    /// The earliest instant at which [`Router::step`] has work that no
    /// arriving frame brings: the earliest of its interfaces'.
    pub fn poll_at(&self) -> Option<VirtualTime> {
        self.ifs.iter().filter_map(Link::poll_at).min()
    }

    /// The forwarding path. Works on raw header bytes so the checksum
    /// can be updated incrementally.
    fn forward(&mut self, now: VirtualTime, buf: PacketBuf) {
        let (dst, ttl) = {
            let b = buf.bytes();
            // Minimal header sanity; full validation happens at end hosts.
            if b.len() < foxwire::ipv4::HEADER_LEN || b[0] >> 4 != 4 {
                self.stats.bad += 1;
                return;
            }
            (Ipv4Addr([b[16], b[17], b[18], b[19]]), b[8])
        };
        if self.ifs.iter().any(|f| f.addr() == dst) {
            self.stats.for_router += 1;
            return; // the router offers no services of its own
        }
        // Route: the interface owning the destination subnet.
        let out = match self.ifs.iter().position(|f| f.on_link(dst)) {
            Some(i) => i,
            None => {
                self.stats.no_route += 1;
                return;
            }
        };
        if ttl <= 1 {
            self.stats.ttl_expired += 1;
            return;
        }
        // TTL and the incremental checksum update (RFC 1624): the
        // TTL/protocol 16-bit word loses 0x0100. The mutation happens in
        // place when this hop holds the only handle to the buffer;
        // otherwise (the frame it was sliced from is still alive
        // somewhere on the same simulated machine) on a private copy —
        // never on bytes another handle can see.
        let mut bytes = buf;
        if bytes.bytes_mut().is_none() {
            bytes = bytes.clone_owned();
        }
        {
            let mut b = bytes.bytes_mut().expect("owned");
            let old_word = u16::from_be_bytes([b[8], b[9]]);
            b[8] = ttl - 1;
            let new_word = u16::from_be_bytes([b[8], b[9]]);
            let old_check = u16::from_be_bytes([b[10], b[11]]);
            let new_check = incremental_update(old_check, old_word, new_word);
            b[10..12].copy_from_slice(&new_check.to_be_bytes());
        }

        self.stats.forwarded += 1;
        // Eth over Dev refuses only an over-MTU frame, and a forwarded
        // frame is no larger than the one that arrived.
        let _ = self.ifs[out].send(now, Some(dst), bytes);
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Router({} interfaces, {:?})", self.ifs.len(), self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::{Ip, IpConfig, IpIncoming, ARP_GIVE_UP};
    use crate::Protocol;
    use foxbasis::time::VirtualDuration;
    use foxwire::ipv4::IpProtocol;
    use std::cell::RefCell;
    use std::rc::Rc;

    type HostStation = (Ip<Eth<Dev>>, crate::ip::IpConn, Rc<RefCell<Vec<IpIncoming>>>);

    fn host_station(net: &SimNet, mac_id: u8, addr: Ipv4Addr, gateway: Ipv4Addr) -> HostStation {
        let host = HostHandle::free();
        let mac = EthAddr::host(mac_id);
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
        let mut ip = Ip::new(
            eth,
            mac,
            IpConfig { local: addr, prefix_len: 24, gateway: Some(gateway), ttl: 64 },
            host,
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let conn = ip.open(IpProtocol::Udp, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
        (ip, conn, got)
    }

    #[test]
    fn forwards_between_segments_with_ttl_decrement() {
        // Segment 1: 10.0.0.0/24, segment 2: 10.0.1.0/24; the router is
        // .254 on both. Host A sends a UDP-proto datagram to host B
        // across it.
        let net1 = SimNet::ethernet_10mbps(1);
        let net2 = SimNet::ethernet_10mbps(2);
        let (mut a, _a_udp, _) =
            host_station(&net1, 1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 254));
        let (mut b, _b_udp, got_b) =
            host_station(&net2, 2, Ipv4Addr::new(10, 0, 1, 2), Ipv4Addr::new(10, 0, 1, 254));
        let mut router = Router::new();
        router
            .add_interface(&net1, EthAddr::host(101), Ipv4Addr::new(10, 0, 0, 254), 24, HostHandle::free())
            .unwrap();
        router
            .add_interface(&net2, EthAddr::host(102), Ipv4Addr::new(10, 0, 1, 254), 24, HostHandle::free())
            .unwrap();

        let conn = a.open(IpProtocol::Icmp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 1, 2), b"across the router".to_vec()).unwrap();

        simnet::settle(&[&net1, &net2], |now| a.step(now) | b.step(now) | router.step(now));
        // A sent on its Icmp conn, so the IP proto is Icmp and B (which
        // listens on Udp) won't deliver it — but the router must have
        // forwarded it all the same.
        assert_eq!(router.stats().forwarded, 1, "{:?}", router.stats());

        let conn_udp = _a_udp;
        a.send(conn_udp, Ipv4Addr::new(10, 0, 1, 2), b"across the router".to_vec()).unwrap();
        simnet::settle(&[&net1, &net2], |now| a.step(now) | b.step(now) | router.step(now));
        assert_eq!(got_b.borrow().len(), 1);
        assert_eq!(got_b.borrow()[0].payload, b"across the router");
        assert_eq!(got_b.borrow()[0].src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(router.stats().forwarded, 2);
    }

    #[test]
    fn ttl_expiry_drops() {
        let net1 = SimNet::ethernet_10mbps(1);
        let net2 = SimNet::ethernet_10mbps(2);
        let host = HostHandle::free();
        let mac = EthAddr::host(1);
        let eth = Eth::new(Dev::new(net1.attach(mac), host.clone()), mac, host.clone());
        let mut a = Ip::new(
            eth,
            mac,
            IpConfig {
                local: Ipv4Addr::new(10, 0, 0, 1),
                prefix_len: 24,
                gateway: Some(Ipv4Addr::new(10, 0, 0, 254)),
                ttl: 1, // expires at the first hop
            },
            host,
        );
        a.open(IpProtocol::Udp, Box::new(|_| {})).unwrap();
        let (mut b, _b_udp, got_b) =
            host_station(&net2, 2, Ipv4Addr::new(10, 0, 1, 2), Ipv4Addr::new(10, 0, 1, 254));
        let mut router = Router::new();
        router
            .add_interface(&net1, EthAddr::host(101), Ipv4Addr::new(10, 0, 0, 254), 24, HostHandle::free())
            .unwrap();
        router
            .add_interface(&net2, EthAddr::host(102), Ipv4Addr::new(10, 0, 1, 254), 24, HostHandle::free())
            .unwrap();
        let conn = a.open(IpProtocol::Icmp, Box::new(|_| {})).unwrap();
        a.send(conn, Ipv4Addr::new(10, 0, 1, 2), b"too far".to_vec()).unwrap();
        simnet::settle(&[&net1, &net2], |now| a.step(now) | b.step(now) | router.step(now));
        assert_eq!(router.stats().ttl_expired, 1);
        assert!(got_b.borrow().is_empty());
    }

    #[test]
    fn unroutable_destination_counted() {
        let net1 = SimNet::ethernet_10mbps(1);
        let (mut a, a_udp, _) =
            host_station(&net1, 1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 254));
        let mut router = Router::new();
        router
            .add_interface(&net1, EthAddr::host(101), Ipv4Addr::new(10, 0, 0, 254), 24, HostHandle::free())
            .unwrap();
        a.send(a_udp, Ipv4Addr::new(172, 16, 0, 9), b"nowhere".to_vec()).unwrap();
        simnet::settle(&[&net1], |now| a.step(now) | router.step(now));
        assert_eq!(router.stats().no_route, 1);
    }

    /// A router gives up on a destination nobody answers ARP for, as a
    /// host does, and counts the packet it held for it.
    #[test]
    fn unanswered_arp_drops_the_held_packet() {
        let net1 = SimNet::ethernet_10mbps(1);
        let net2 = SimNet::ethernet_10mbps(2);
        let (mut a, a_udp, _) =
            host_station(&net1, 1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 254));
        let mut router = Router::new();
        router
            .add_interface(&net1, EthAddr::host(101), Ipv4Addr::new(10, 0, 0, 254), 24, HostHandle::free())
            .unwrap();
        router
            .add_interface(&net2, EthAddr::host(102), Ipv4Addr::new(10, 0, 1, 254), 24, HostHandle::free())
            .unwrap();
        a.send(a_udp, Ipv4Addr::new(10, 0, 1, 9), b"nobody home".to_vec()).unwrap();
        simnet::settle(&[&net1, &net2], |now| a.step(now) | router.step(now));
        assert_eq!((router.stats().forwarded, router.stats().unresolved), (1, 0), "held, still asking");
        let later = net1.now().max(net2.now()) + ARP_GIVE_UP + VirtualDuration::from_secs(1);
        net1.advance_to(later);
        net2.advance_to(later);
        router.step(later);
        assert_eq!(router.stats().unresolved, 1, "{:?}", router.stats());
    }

    /// The forwarded packet's header checksum stays valid — the
    /// incremental update really works (end hosts verify it on decode,
    /// so the first test implies this; here we check the byte-level
    /// property directly).
    #[test]
    fn incremental_checksum_stays_valid() {
        use foxwire::ipv4::{Ipv4Header, Ipv4Packet};
        let pkt = Ipv4Packet {
            header: Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 2)),
            payload: b"check me"[..].into(),
        };
        let mut bytes = pkt.encode_buf().unwrap().to_vec();
        // Simulate the router's in-place mutation.
        let old_word = u16::from_be_bytes([bytes[8], bytes[9]]);
        bytes[8] -= 1;
        let new_word = u16::from_be_bytes([bytes[8], bytes[9]]);
        let old_check = u16::from_be_bytes([bytes[10], bytes[11]]);
        let new_check = incremental_update(old_check, old_word, new_word);
        bytes[10..12].copy_from_slice(&new_check.to_be_bytes());
        let decoded = Ipv4Packet::decode_buf(&foxbasis::buf::PacketBuf::from_vec(bytes))
            .expect("checksum must verify after update");
        assert_eq!(decoded.header.ttl, 63);
    }
}
