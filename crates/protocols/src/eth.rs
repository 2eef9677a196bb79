//! The Ethernet protocol layer.
//!
//! Frames arriving from the device are FCS-verified, filtered by
//! destination address, and demultiplexed by ethertype to whichever
//! upper connection opened that type. Sends are framed and handed down.
//! Per Fig. 3 of the paper, `Eth` satisfies the same [`Protocol`]
//! signature as `Ip`, which is what lets `Special_Tcp` run directly on
//! top of it.

use crate::upcall::{Below, Bindings};
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use foxwire::ether::{EthAddr, EtherType, Frame};
use simnet::{HostHandle, Work};
use std::fmt;

/// What an upper layer receives from `Eth`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EthIncoming {
    /// Sender's MAC.
    pub src: EthAddr,
    /// Destination MAC (ours, or broadcast).
    pub dst: EthAddr,
    /// The demuxed ethertype.
    pub ethertype: EtherType,
    /// Frame payload (may include Ethernet padding; upper layers carry
    /// their own lengths). A zero-copy slice of the received frame
    /// buffer.
    pub payload: PacketBuf,
}

/// Connection handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct EthConn(u32);

/// Error/drop counters for the layer.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EthStats {
    /// Frames that failed FCS verification (wire corruption).
    pub bad_fcs: u64,
    /// Frames for an ethertype nobody opened.
    pub no_listener: u64,
    /// Frames delivered upward.
    pub delivered: u64,
    /// Frames sent.
    pub sent: u64,
}

/// The Ethernet layer over a device (`L` is [`crate::dev::Dev`] in real
/// stacks; anything with the same signature in tests).
pub struct Eth<L: Protocol<Pattern = (), Peer = (), Incoming = PacketBuf>> {
    below: Below<L>,
    local: EthAddr,
    host: HostHandle,
    bindings: Bindings<EtherType, EthIncoming>,
    stats: EthStats,
}

impl<L: Protocol<Pattern = (), Peer = (), Incoming = PacketBuf>> Eth<L> {
    /// An Ethernet station with address `local` over `lower`.
    pub fn new(lower: L, local: EthAddr, host: HostHandle) -> Eth<L> {
        Eth {
            below: Below::new(lower, ()),
            local,
            host,
            bindings: Bindings::new(),
            stats: EthStats::default(),
        }
    }

    /// Layer statistics.
    pub fn stats(&self) -> EthStats {
        self.stats
    }
}

impl<L: Protocol<Pattern = (), Peer = (), Incoming = PacketBuf>> Protocol for Eth<L> {
    type Pattern = EtherType;
    type Peer = EthAddr;
    type Incoming = EthIncoming;
    type ConnId = EthConn;

    fn open(&mut self, ethertype: EtherType, handler: Handler<EthIncoming>) -> Result<EthConn, ProtoError> {
        self.below.attach()?;
        self.bindings.bind(ethertype, handler).map(EthConn)
    }

    fn send(&mut self, conn: EthConn, to: EthAddr, payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        let ethertype = self.bindings.key_of(conn.0)?;
        self.host.charge(Work::EthFrame);
        let frame =
            Frame::new(to, self.local, ethertype, payload).encode_buf().map_err(|_| ProtoError::TooBig)?;
        self.stats.sent += 1;
        self.below.send((), frame)
    }

    fn close(&mut self, conn: EthConn) -> Result<(), ProtoError> {
        self.bindings.unbind(conn.0)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = self.below.step(now);
        while let Some(raw) = self.below.next() {
            progress = true;
            self.host.charge(Work::EthFrame);
            let frame = match Frame::decode_buf(&raw) {
                Ok(f) => f,
                Err(_) => {
                    self.stats.bad_fcs += 1;
                    continue;
                }
            };
            if frame.dst != self.local && !frame.dst.is_broadcast() && !frame.dst.is_multicast() {
                continue; // not for us (promiscuous delivery, other host)
            }
            let msg = EthIncoming {
                src: frame.src,
                dst: frame.dst,
                ethertype: frame.ethertype,
                payload: frame.payload,
            };
            if self.bindings.deliver(msg.ethertype, msg) {
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

impl<L: Protocol<Pattern = (), Peer = (), Incoming = PacketBuf> + fmt::Debug> fmt::Debug for Eth<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Eth({:?}, conns={}, over {:?})", self.local, self.bindings.len(), self.below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use simnet::{NetConfig, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn station(net: &SimNet, id: u8) -> Eth<Dev> {
        let host = HostHandle::free();
        let addr = EthAddr::host(id);
        Eth::new(Dev::new(net.attach(addr), host.clone()), addr, host)
    }

    fn collect(eth: &mut Eth<Dev>, et: EtherType) -> Rc<RefCell<Vec<EthIncoming>>> {
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        eth.open(et, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
        got
    }

    #[test]
    fn demux_by_ethertype() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let ip_rx = collect(&mut b, EtherType::Ipv4);
        let arp_rx = collect(&mut b, EtherType::Arp);
        let a_conn = a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        a.send(a_conn, EthAddr::host(2), b"ip payload".to_vec()).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert_eq!(ip_rx.borrow().len(), 1);
        assert!(arp_rx.borrow().is_empty());
        let m = &ip_rx.borrow()[0];
        assert_eq!(m.src, EthAddr::host(1));
        assert_eq!(&m.payload.bytes()[..10], b"ip payload");
    }

    #[test]
    fn corrupted_frames_counted_not_delivered() {
        let mut cfg = NetConfig::default();
        cfg.faults.corrupt_chance = 1.0;
        let net = SimNet::new(cfg, 9);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let rx = collect(&mut b, EtherType::Ipv4);
        let c = a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        a.send(c, EthAddr::host(2), vec![0; 64]).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert!(rx.borrow().is_empty());
        assert_eq!(b.stats().bad_fcs, 1);
    }

    #[test]
    fn unclaimed_ethertype_counted() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let _rx = collect(&mut b, EtherType::Arp);
        let c = a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        a.send(c, EthAddr::host(2), vec![0; 10]).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert_eq!(b.stats().no_listener, 1);
    }

    #[test]
    fn broadcast_delivered() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let rx = collect(&mut b, EtherType::Arp);
        let c = a.open(EtherType::Arp, Box::new(|_| {})).unwrap();
        a.send(c, EthAddr::BROADCAST, b"who-has".to_vec()).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert_eq!(rx.borrow().len(), 1);
        assert!(rx.borrow()[0].dst.is_broadcast());
    }

    #[test]
    fn duplicate_ethertype_open_rejected() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        assert_eq!(a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap_err(), ProtoError::AlreadyOpen);
    }

    #[test]
    fn close_frees_the_ethertype() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        let c = a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        a.close(c).unwrap();
        assert_eq!(a.close(c), Err(ProtoError::NotOpen));
        a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        assert_eq!(a.send(c, EthAddr::host(2), vec![]), Err(ProtoError::NotOpen));
    }

    #[test]
    fn oversized_send_rejected() {
        let net = SimNet::ethernet_10mbps(1);
        let mut a = station(&net, 1);
        let c = a.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        assert_eq!(a.send(c, EthAddr::host(2), vec![0; 2000]), Err(ProtoError::TooBig));
    }
}
