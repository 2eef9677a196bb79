//! UDP as a functor over `(Lower, Aux)` — the paper: "A structure
//! satisfying this signature (`IP_AUX`) must be supplied as a parameter
//! to the UDP functor as well."
//!
//! Like `Tcp`, `Udp<L, A>` is generic in its lower protocol and its
//! auxiliary structure, with the sharing constraints expressed as
//! associated-type bounds — so UDP-over-raw-Ethernet type-checks exactly
//! like `Special_Tcp` does.

use crate::aux::IpAux;
use crate::upcall::{Below, Bindings};
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use foxwire::udp::UdpDatagram;
use simnet::{HostHandle, Work};
use std::fmt;

/// What a UDP client receives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpIncoming<A> {
    /// Sender address and port.
    pub src: (A, u16),
    /// The local port it arrived on.
    pub dst_port: u16,
    /// Payload — a zero-copy slice of the arriving datagram.
    pub payload: PacketBuf,
}

/// Connection handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct UdpConn(u32);

/// Layer statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams delivered to sockets.
    pub delivered: u64,
    /// Datagrams sent.
    pub sent: u64,
    /// Undecodable or checksum-failing datagrams.
    pub bad: u64,
    /// Datagrams for ports nobody bound.
    pub no_listener: u64,
}

/// The UDP layer.
pub struct Udp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    below: Below<L>,
    aux: A,
    host: HostHandle,
    /// Whether to compute/verify checksums (the functor's
    /// `compute_checksums`; also forced off when `aux.check` is `None`).
    compute_checksums: bool,
    /// Bound by local port.
    sockets: Bindings<u16, UdpIncoming<L::Peer>>,
    stats: UdpStats,
}

impl<L, A> Udp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// Instantiates the functor: `Udp(structure Lower, structure Aux,
    /// val compute_checksums, structure B)`. `lower_pattern` is the
    /// demux pattern UDP claims from the lower layer (`IpProtocol::Udp`
    /// over IP).
    pub fn new(
        lower: L,
        aux: A,
        lower_pattern: L::Pattern,
        compute_checksums: bool,
        host: HostHandle,
    ) -> Udp<L, A> {
        Udp {
            below: Below::new(lower, lower_pattern),
            aux,
            host,
            compute_checksums,
            sockets: Bindings::new(),
            stats: UdpStats::default(),
        }
    }

    /// Layer statistics.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }
}

impl<L, A> Protocol for Udp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// The local port to bind.
    type Pattern = u16;
    /// (address, port) of the remote.
    type Peer = (L::Peer, u16);
    type Incoming = UdpIncoming<L::Peer>;
    type ConnId = UdpConn;

    fn open(&mut self, local_port: u16, handler: Handler<Self::Incoming>) -> Result<UdpConn, ProtoError> {
        self.below.attach()?;
        self.sockets.bind(local_port, handler).map(UdpConn)
    }

    /// A datagram larger than the MTU goes down whole, for the IP layer
    /// to fragment.
    fn send(
        &mut self,
        conn: UdpConn,
        to: Self::Peer,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError> {
        let local_port = self.sockets.key_of(conn.0)?;
        let (addr, port) = to;
        let d = UdpDatagram { src_port: local_port, dst_port: port, payload: payload.into() };
        let total = d.payload.len() + foxwire::udp::HEADER_LEN;
        let pseudo = if self.compute_checksums { self.aux.check(&addr, total) } else { None };
        if self.compute_checksums && pseudo.is_some() {
            self.host.charge(Work::Checksum(total));
        }
        let bytes = d.encode_buf(pseudo).map_err(|_| ProtoError::TooBig)?;
        self.stats.sent += 1;
        self.below.send(addr, bytes)
    }

    fn close(&mut self, conn: UdpConn) -> Result<(), ProtoError> {
        self.sockets.unbind(conn.0)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = self.below.step(now);
        while let Some(msg) = self.below.next() {
            progress = true;
            let (src_addr, datagram) = {
                let info = self.aux.info(&msg);
                let pseudo = if self.compute_checksums {
                    // Verification length comes from the datagram's own
                    // header (see the padding note on
                    // `UdpDatagram::decode_buf`); reconstruct the claimed
                    // length for the pseudo-sum.
                    let claimed = if info.data.len() >= 6 {
                        let b = info.data.bytes();
                        usize::from(u16::from_be_bytes([b[4], b[5]]))
                    } else {
                        info.data.len()
                    };
                    self.aux.check(&info.src, claimed)
                } else {
                    None
                };
                if pseudo.is_some() {
                    self.host.charge(Work::Checksum(info.data.len()));
                }
                (info.src.clone(), UdpDatagram::decode_buf(info.data, pseudo))
            };
            let d = match datagram {
                Ok(d) => d,
                Err(_) => {
                    self.stats.bad += 1;
                    continue;
                }
            };
            let incoming =
                UdpIncoming { src: (src_addr, d.src_port), dst_port: d.dst_port, payload: d.payload };
            if self.sockets.deliver(incoming.dst_port, incoming) {
                self.stats.delivered += 1;
            } else {
                self.stats.no_listener += 1;
            }
        }
        progress
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        self.below.poll_at()
    }
}

impl<L, A> fmt::Debug for Udp<L, A>
where
    L: Protocol + fmt::Debug,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Udp(sockets={}, over {:?})", self.sockets.len(), self.below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::IpAuxImpl;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use crate::ip::{Ip, IpConfig};
    use foxwire::ether::EthAddr;
    use foxwire::ipv4::{IpProtocol, Ipv4Addr};
    use simnet::SimNet;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Stack = Udp<Ip<Eth<Dev>>, IpAuxImpl>;

    fn station(net: &SimNet, id: u8) -> Stack {
        let host = HostHandle::free();
        let mac = EthAddr::host(id);
        let local = Ipv4Addr::new(10, 0, 0, id);
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
        let ip = Ip::new(eth, mac, IpConfig::isolated(local), host.clone());
        let mtu = ip.mtu();
        Udp::new(ip, IpAuxImpl::new(local, IpProtocol::Udp, mtu), IpProtocol::Udp, true, host)
    }

    fn bind(u: &mut Stack, port: u16) -> Rc<RefCell<Vec<UdpIncoming<Ipv4Addr>>>> {
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        u.open(port, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
        got
    }

    #[test]
    fn datagram_exchange() {
        let net = SimNet::ethernet_10mbps(11);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = bind(&mut b, 6969);
        let sock = a.open(5000, Box::new(|_| {})).unwrap();
        a.send(sock, (Ipv4Addr::new(10, 0, 0, 2), 6969), b"abcdefg".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got.borrow().len(), 1);
        let m = &got.borrow()[0];
        assert_eq!(m.src, (Ipv4Addr::new(10, 0, 0, 1), 5000));
        assert_eq!(m.dst_port, 6969);
        assert_eq!(m.payload, b"abcdefg");
    }

    #[test]
    fn reply_to_sender() {
        let net = SimNet::ethernet_10mbps(11);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got_b = bind(&mut b, 7);
        let got_a = bind(&mut a, 5001);
        let sock_a = a.open(5000, Box::new(|_| {})).unwrap();
        let _ = got_a;
        a.send(sock_a, (Ipv4Addr::new(10, 0, 0, 2), 7), b"ping".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        let src = got_b.borrow()[0].src;
        // Echo back to wherever it came from — but to a's bound port.
        let sock_b = b.open(7000, Box::new(|_| {})).unwrap();
        b.send(sock_b, (src.0, 5001), b"pong".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got_a.borrow().len(), 1);
        assert_eq!(got_a.borrow()[0].payload, b"pong");
    }

    #[test]
    fn unbound_port_counts_no_listener() {
        let net = SimNet::ethernet_10mbps(11);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        bind(&mut b, 1000);
        let sock = a.open(5000, Box::new(|_| {})).unwrap();
        a.send(sock, (Ipv4Addr::new(10, 0, 0, 2), 2000), b"x".to_vec()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(b.stats().no_listener, 1);
        assert_eq!(b.stats().delivered, 0);
    }

    #[test]
    fn duplicate_bind_rejected_close_unbinds() {
        let net = SimNet::ethernet_10mbps(11);
        let mut a = station(&net, 1);
        let s = a.open(9, Box::new(|_| {})).unwrap();
        assert_eq!(a.open(9, Box::new(|_| {})).unwrap_err(), ProtoError::AlreadyOpen);
        a.close(s).unwrap();
        a.open(9, Box::new(|_| {})).unwrap();
    }

    #[test]
    fn large_datagram_fragments_through_ip() {
        let net = SimNet::ethernet_10mbps(11);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = bind(&mut b, 6969);
        let sock = a.open(5000, Box::new(|_| {})).unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        a.send(sock, (Ipv4Addr::new(10, 0, 0, 2), 6969), payload.clone()).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].payload, payload);
    }
}
