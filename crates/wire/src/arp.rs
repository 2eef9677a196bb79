//! ARP for IPv4 over Ethernet (RFC 826).
//!
//! Below the paper's IP layer sits the real business of putting IP
//! datagrams on an Ethernet: resolving the next hop's MAC address. The
//! Fox Net ran on a live Ethernet segment, so its Eth layer had this
//! machinery too; here it is in full (request/reply, plus gratuitous
//! announcements handled by the protocol layer above).

use crate::bytes::ByteReader;
use crate::ether::EthAddr;
use crate::ipv4::Ipv4Addr;
use crate::{need, WireError};

/// Wire length of an IPv4-over-Ethernet ARP packet.
pub const PACKET_LEN: usize = 28;

/// ARP operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// An ARP packet (fixed to Ethernet/IPv4 hardware and protocol spaces).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_eth: EthAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_eth: EthAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A who-has request for `target_ip`.
    pub fn request(sender_eth: EthAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket { op: ArpOp::Request, sender_eth, sender_ip, target_eth: EthAddr([0; 6]), target_ip }
    }

    /// The is-at reply to this request, from the owner of the target
    /// address.
    pub fn reply_from(&self, owner_eth: EthAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_eth: owner_eth,
            sender_ip: self.target_ip,
            target_eth: self.sender_eth,
            target_ip: self.sender_ip,
        }
    }

    /// Externalizes the packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PACKET_LEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
        out.push(6); // hlen
        out.push(4); // plen
        out.extend_from_slice(
            &match self.op {
                ArpOp::Request => 1u16,
                ArpOp::Reply => 2u16,
            }
            .to_be_bytes(),
        );
        out.extend_from_slice(&self.sender_eth.0);
        out.extend_from_slice(&self.sender_ip.0);
        out.extend_from_slice(&self.target_eth.0);
        out.extend_from_slice(&self.target_ip.0);
        out
    }

    /// Internalizes a packet, checking the hardware/protocol spaces.
    /// Every access goes through the checked [`ByteReader`], so short
    /// input yields `Err(Truncated)` from whichever field runs out —
    /// never a panic.
    #[deny(clippy::indexing_slicing)]
    pub fn decode(buf: &[u8]) -> Result<ArpPacket, WireError> {
        need("arp packet", buf, PACKET_LEN)?;
        let mut r = ByteReader::new("arp packet", buf);
        let htype = r.u16_be()?;
        let ptype = r.u16_be()?;
        if htype != 1 {
            return Err(WireError::Unsupported { field: "arp htype", value: u32::from(htype) });
        }
        if ptype != 0x0800 {
            return Err(WireError::Unsupported { field: "arp ptype", value: u32::from(ptype) });
        }
        if r.u8()? != 6 || r.u8()? != 4 {
            return Err(WireError::Malformed("arp address lengths"));
        }
        let op = match r.u16_be()? {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => return Err(WireError::Unsupported { field: "arp op", value: u32::from(other) }),
        };
        let sender_eth = EthAddr(r.array::<6>()?);
        let sender_ip = Ipv4Addr(r.array::<4>()?);
        let target_eth = EthAddr(r.array::<6>()?);
        let target_ip = Ipv4Addr(r.array::<4>()?);
        Ok(ArpPacket { op, sender_eth, sender_ip, target_eth, target_ip })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_reply_roundtrip() {
        let req =
            ArpPacket::request(EthAddr::host(1), Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let bytes = req.encode();
        assert_eq!(bytes.len(), PACKET_LEN);
        assert_eq!(ArpPacket::decode(&bytes).unwrap(), req);

        let rep = req.reply_from(EthAddr::host(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.target_eth, EthAddr::host(1));
        assert_eq!(ArpPacket::decode(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn wrong_spaces_rejected() {
        let req = ArpPacket::request(EthAddr::host(1), Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        let mut bytes = req.encode();
        bytes[1] = 6; // htype = token ring, say
        assert!(matches!(ArpPacket::decode(&bytes), Err(WireError::Unsupported { .. })));
        let mut bytes = req.encode();
        bytes[3] = 0xdd;
        assert!(matches!(ArpPacket::decode(&bytes), Err(WireError::Unsupported { .. })));
        let mut bytes = req.encode();
        bytes[4] = 8;
        assert!(matches!(ArpPacket::decode(&bytes), Err(WireError::Malformed(_))));
        let mut bytes = req.encode();
        bytes[7] = 9;
        assert!(matches!(ArpPacket::decode(&bytes), Err(WireError::Unsupported { .. })));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(ArpPacket::decode(&[0; 10]), Err(WireError::Truncated { .. })));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            is_req: bool,
            se in any::<[u8; 6]>(), si in any::<[u8; 4]>(),
            te in any::<[u8; 6]>(), ti in any::<[u8; 4]>(),
        ) {
            let p = ArpPacket {
                op: if is_req { ArpOp::Request } else { ArpOp::Reply },
                sender_eth: EthAddr(se), sender_ip: Ipv4Addr(si),
                target_eth: EthAddr(te), target_ip: Ipv4Addr(ti),
            };
            prop_assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
        }
    }
}
