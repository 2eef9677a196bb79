//! Virtual protocols — x-kernel-style layers that add function without
//! adding a wire protocol of their own (paper §6: "The x-kernel has also
//! developed ideas that we have not (yet) made use of, such as virtual
//! protocols" — here we do make use of one).
//!
//! [`SizedPayload`] solves the problem that makes raw Ethernet an
//! imperfect transport substrate: frames are padded to 46 bytes and
//! carry no payload length, but TCP segments rely on the layer below to
//! delimit them (IP's total-length field does it in the standard stack).
//! `SizedPayload` prepends a 2-byte big-endian length on send and strips
//! padding on receive, so `Special_Tcp = Tcp(SizedPayload(Eth(Dev)))`
//! sees exact segments.

use crate::eth::EthIncoming;
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use foxwire::ether::{EthAddr, EtherType};
use std::fmt;

/// The length-framing virtual protocol.
pub struct SizedPayload<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> {
    lower: L,
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> SizedPayload<L> {
    /// Wraps `lower`.
    pub fn new(lower: L) -> SizedPayload<L> {
        SizedPayload { lower }
    }

    /// The wrapped layer.
    pub fn lower(&self) -> &L {
        &self.lower
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming>> Protocol for SizedPayload<L> {
    type Pattern = EtherType;
    type Peer = EthAddr;
    type Incoming = EthIncoming;
    type ConnId = L::ConnId;

    fn open(
        &mut self,
        pattern: EtherType,
        mut handler: Handler<EthIncoming>,
    ) -> Result<Self::ConnId, ProtoError> {
        self.lower.open(
            pattern,
            Box::new(move |mut msg: EthIncoming| {
                // Strip the framing: 2-byte length, then that many
                // bytes — a zero-copy reslice of the arriving buffer.
                if msg.payload.len() < 2 {
                    return; // runt: drop
                }
                let len = {
                    let b = msg.payload.bytes();
                    usize::from(u16::from_be_bytes([b[0], b[1]]))
                };
                if msg.payload.len() < 2 + len {
                    return; // inconsistent: drop
                }
                msg.payload = msg.payload.slice(2, 2 + len);
                handler(msg);
            }),
        )
    }

    fn send(
        &mut self,
        conn: Self::ConnId,
        to: EthAddr,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError> {
        let mut framed = payload.into();
        if framed.len() > usize::from(u16::MAX) {
            return Err(ProtoError::TooBig);
        }
        let len = framed.len() as u16;
        // Into the headroom: no copy of the payload bytes.
        framed.prepend_header(&len.to_be_bytes());
        self.lower.send(conn, to, framed)
    }

    fn close(&mut self, conn: Self::ConnId) -> Result<(), ProtoError> {
        self.lower.close(conn)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.lower.step(now)
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        self.lower.poll_at()
    }
}

impl<L: Protocol<Pattern = EtherType, Peer = EthAddr, Incoming = EthIncoming> + fmt::Debug> fmt::Debug
    for SizedPayload<L>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SizedPayload({:?})", self.lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use simnet::{HostHandle, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn station(net: &SimNet, id: u8) -> SizedPayload<Eth<Dev>> {
        let host = HostHandle::free();
        let mac = EthAddr::host(id);
        SizedPayload::new(Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host))
    }

    #[test]
    fn short_payload_survives_padding() {
        let net = SimNet::ethernet_10mbps(2);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open(EtherType::TcpDirect, Box::new(move |m| g.borrow_mut().push(m.payload))).unwrap();
        let c = a.open(EtherType::TcpDirect, Box::new(|_| {})).unwrap();
        a.send(c, EthAddr::host(2), b"tiny".to_vec()).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        // Without the adapter the payload would come back padded to 46
        // bytes; with it, exactly 4.
        assert_eq!(*got.borrow(), vec![b"tiny".to_vec()]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let net = SimNet::ethernet_10mbps(2);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open(EtherType::TcpDirect, Box::new(move |m| g.borrow_mut().push(m.payload))).unwrap();
        let c = a.open(EtherType::TcpDirect, Box::new(|_| {})).unwrap();
        a.send(c, EthAddr::host(2), Vec::new()).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert_eq!(*got.borrow(), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn full_mtu_minus_framing_fits() {
        let net = SimNet::ethernet_10mbps(2);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open(EtherType::TcpDirect, Box::new(move |m| g.borrow_mut().push(m.payload))).unwrap();
        let c = a.open(EtherType::TcpDirect, Box::new(|_| {})).unwrap();
        let payload = vec![7u8; foxwire::ether::MTU - 2];
        a.send(c, EthAddr::host(2), payload.clone()).unwrap();
        net.advance_to(VirtualTime::from_millis(5));
        b.step(net.now());
        assert_eq!(got.borrow()[0], payload);
        // One more byte does not fit the Ethernet MTU.
        assert!(a.send(c, EthAddr::host(2), vec![0; foxwire::ether::MTU - 1]).is_err());
    }
}
