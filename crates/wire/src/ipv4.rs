//! The IPv4 header (RFC 791), with the fragmentation fields the Ip
//! layer's reassembly machinery uses.

use crate::bytes::{prefix, range, ByteReader};
use crate::{need, WireError};
use foxbasis::buf::PacketBuf;
use foxbasis::checksum;
use std::fmt;

/// An IPv4 address.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Builds an address from dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// The limited-broadcast address 255.255.255.255.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr([255; 4]);

    /// The unspecified address 0.0.0.0.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0; 4]);

    /// The big-endian 32-bit value.
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// From a 32-bit value.
    pub fn from_u32(v: u32) -> Ipv4Addr {
        Ipv4Addr(v.to_be_bytes())
    }

    /// The `hash` function of the paper's `IP_AUX` signature.
    pub fn hash(self) -> u64 {
        u64::from(self.to_u32()).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// The `makestring` function of the paper's `IP_AUX` signature.
    pub fn makestring(self) -> String {
        format!("{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.makestring())
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.makestring())
    }
}

/// IP protocol numbers the stack knows about.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IpProtocol {
    /// 1.
    Icmp,
    /// 6.
    Tcp,
    /// 17.
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProtocol {
    /// The 8-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Parses the 8-bit wire value.
    pub fn from_u8(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// Length of the option-free IPv4 header.
pub const HEADER_LEN: usize = 20;
/// The longest header the 4-bit IHL field can describe (40 option bytes).
pub const MAX_HEADER_LEN: usize = 60;

/// The fields of an IPv4 header (options carried raw; the stack ignores
/// them, as the paper's did — "IPv4 options are silently ignored" is also
/// smoltcp's policy).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Type-of-service byte.
    pub tos: u8,
    /// Identification (for fragment reassembly).
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes (length must be a multiple of 4, at most 40).
    pub options: Vec<u8>,
}

impl Ipv4Header {
    /// A standard header with the common defaults (TTL 64, no
    /// fragmentation, no options).
    pub fn new(protocol: IpProtocol, src: Ipv4Addr, dst: Ipv4Addr) -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            ident: 0,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        HEADER_LEN + self.options.len()
    }

    /// The fragment offset in bytes.
    pub fn frag_byte_offset(&self) -> usize {
        usize::from(self.frag_offset) * 8
    }

    /// True if this packet is a fragment of a larger datagram.
    pub fn is_fragment(&self) -> bool {
        self.more_frags || self.frag_offset != 0
    }
}

/// A full IPv4 packet: header plus payload. The payload is a
/// [`PacketBuf`] view of the same storage the transport layer built —
/// encoding prepends the IP header into its headroom in place.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Packet {
    /// The header.
    pub header: Ipv4Header,
    /// The payload bytes.
    pub payload: PacketBuf,
}

impl Ipv4Packet {
    /// Externalizes the packet **in place**, consuming it: the
    /// checksummed header is prepended into the payload buffer's
    /// headroom and the same storage continues down the stack. The
    /// header checksum only touches the 20–60 header bytes; the payload
    /// is not read.
    ///
    /// # Errors
    /// Fails if options are not 32-bit aligned or too long, or if the
    /// total length exceeds 65535.
    pub fn encode_buf(self) -> Result<PacketBuf, WireError> {
        let mut header = [0u8; MAX_HEADER_LEN];
        let n = self.encode_header(&mut header)?;
        let mut buf = self.payload;
        buf.prepend_header(&header[..n]);
        Ok(buf)
    }

    /// Serializes the header into the front of `out`, computing its
    /// checksum, and returns its length.
    fn encode_header(&self, out: &mut [u8; MAX_HEADER_LEN]) -> Result<usize, WireError> {
        let h = &self.header;
        if !h.options.len().is_multiple_of(4) || h.options.len() > MAX_HEADER_LEN - HEADER_LEN {
            return Err(WireError::Malformed("ipv4 options length"));
        }
        let len = h.header_len();
        let total_len = len + self.payload.len();
        if total_len > 65535 {
            return Err(WireError::Malformed("ipv4 total length"));
        }
        out[0] = 0x40 | (len / 4) as u8;
        out[1] = h.tos;
        out[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        out[4..6].copy_from_slice(&h.ident.to_be_bytes());
        let mut flags_frag = h.frag_offset & 0x1fff;
        if h.dont_frag {
            flags_frag |= 0x4000;
        }
        if h.more_frags {
            flags_frag |= 0x2000;
        }
        out[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        out[8] = h.ttl;
        out[9] = h.protocol.to_u8();
        out[10..12].fill(0); // checksum placeholder
        out[12..16].copy_from_slice(&h.src.0);
        out[16..20].copy_from_slice(&h.dst.0);
        out[HEADER_LEN..len].copy_from_slice(&h.options);
        let csum = checksum::checksum(&out[..len]);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(len)
    }

    /// Internalizes a packet from a [`PacketBuf`] view, verifying
    /// version, lengths, and the header checksum, and slicing the payload
    /// out of the same storage (zero-copy). Extra bytes after
    /// `total_length` (Ethernet padding) are discarded, which is why the
    /// length field exists.
    #[deny(clippy::indexing_slicing)]
    pub fn decode_buf(buf: &PacketBuf) -> Result<Ipv4Packet, WireError> {
        let (header, ihl, total_len) = Ipv4Packet::parse_header(&buf.bytes())?;
        Ok(Ipv4Packet { header, payload: buf.slice(ihl, total_len) })
    }

    /// Parses and validates the header. All byte access is through the
    /// checked [`ByteReader`]/[`range`] helpers: malformed or truncated
    /// input is an error, never a panic.
    #[deny(clippy::indexing_slicing)]
    fn parse_header(buf: &[u8]) -> Result<(Ipv4Header, usize, usize), WireError> {
        need("ipv4 header", buf, HEADER_LEN)?;
        let mut r = ByteReader::new("ipv4 header", buf);
        let ver_ihl = r.u8()?;
        let version = ver_ihl >> 4;
        if version != 4 {
            return Err(WireError::Unsupported { field: "ip version", value: u32::from(version) });
        }
        let ihl = usize::from(ver_ihl & 0x0f) * 4;
        if ihl < HEADER_LEN {
            return Err(WireError::Malformed("ipv4 IHL"));
        }
        need("ipv4 options", buf, ihl)?;
        let tos = r.u8()?;
        let total_len = usize::from(r.u16_be()?);
        if total_len < ihl {
            return Err(WireError::Malformed("ipv4 total length below IHL"));
        }
        need("ipv4 payload", buf, total_len)?;
        if checksum::ones_complement_sum(prefix("ipv4 header", buf, ihl)?) != 0xffff {
            return Err(WireError::BadChecksum("ipv4 header"));
        }
        let ident = r.u16_be()?;
        let flags_frag = r.u16_be()?;
        let ttl = r.u8()?;
        let protocol = IpProtocol::from_u8(r.u8()?);
        r.skip(2)?; // header checksum, verified above
        let src = Ipv4Addr(r.array::<4>()?);
        let dst = Ipv4Addr(r.array::<4>()?);
        let header = Ipv4Header {
            tos,
            ident,
            dont_frag: flags_frag & 0x4000 != 0,
            more_frags: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl,
            protocol,
            src,
            dst,
            options: range("ipv4 options", buf, HEADER_LEN, ihl)?.to_vec(),
        };
        Ok((header, ihl, total_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test shorthand: a copy of `p`'s wire bytes, leaving `p` intact.
    fn wire(p: &Ipv4Packet) -> Result<Vec<u8>, WireError> {
        Ok(p.clone().encode_buf()?.to_vec())
    }

    /// Test shorthand: `bytes` decoded as a packet.
    fn read(bytes: &[u8]) -> Result<Ipv4Packet, WireError> {
        Ipv4Packet::decode_buf(&PacketBuf::from_vec(bytes.to_vec()))
    }

    fn sample() -> Ipv4Packet {
        Ipv4Packet {
            header: Ipv4Header::new(IpProtocol::Tcp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
            payload: b"payload bytes".to_vec().into(),
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = wire(&p).unwrap();
        assert_eq!(read(&bytes).unwrap(), p);
    }

    #[test]
    fn trailing_padding_is_discarded() {
        let p = sample();
        let mut bytes = wire(&p).unwrap();
        bytes.extend_from_slice(&[0xaa; 10]); // Ethernet pad garbage
        assert_eq!(read(&bytes).unwrap(), p);
    }

    #[test]
    fn header_checksum_verified() {
        let mut bytes = wire(&sample()).unwrap();
        bytes[8] = bytes[8].wrapping_add(1); // corrupt TTL
        assert_eq!(read(&bytes), Err(WireError::BadChecksum("ipv4 header")));
    }

    #[test]
    fn version_and_ihl_validation() {
        let mut bytes = wire(&sample()).unwrap();
        bytes[0] = 0x60 | (bytes[0] & 0x0f);
        assert!(matches!(read(&bytes), Err(WireError::Unsupported { .. })));
        let mut bytes = wire(&sample()).unwrap();
        bytes[0] = 0x41; // IHL = 4 bytes, impossible
        assert!(matches!(read(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn total_length_shorter_than_ihl_rejected() {
        let mut bytes = wire(&sample()).unwrap();
        bytes[2] = 0;
        bytes[3] = 8;
        // fix checksum so we reach the length check? No: length checked
        // before checksum, so corruption is fine here.
        assert!(matches!(read(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn fragment_fields_roundtrip() {
        let mut p = sample();
        p.header.more_frags = true;
        p.header.frag_offset = 185; // 1480 bytes
        p.header.ident = 0xbeef;
        let q = read(&wire(&p).unwrap()).unwrap();
        assert!(q.header.is_fragment());
        assert_eq!(q.header.frag_byte_offset(), 1480);
        assert_eq!(q.header.ident, 0xbeef);
    }

    #[test]
    fn options_roundtrip_and_validation() {
        let mut p = sample();
        p.header.options = vec![1, 1, 1, 1]; // four NOPs
        let q = read(&wire(&p).unwrap()).unwrap();
        assert_eq!(q.header.options, vec![1, 1, 1, 1]);
        p.header.options = vec![1, 1, 1]; // not 32-bit aligned
        assert!(wire(&p).is_err());
        p.header.options = vec![1; 44]; // too long
        assert!(wire(&p).is_err());
    }

    #[test]
    fn protocol_numbers() {
        for p in [IpProtocol::Icmp, IpProtocol::Tcp, IpProtocol::Udp, IpProtocol::Other(99)] {
            assert_eq!(IpProtocol::from_u8(p.to_u8()), p);
        }
    }

    #[test]
    fn addr_helpers() {
        let a = Ipv4Addr::new(192, 168, 69, 1);
        assert_eq!(a.makestring(), "192.168.69.1");
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
        assert_ne!(a.hash(), Ipv4Addr::new(192, 168, 69, 2).hash());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            tos: u8, ident: u16, ttl: u8, proto: u8,
            src: [u8; 4], dst: [u8; 4],
            frag_offset in 0u16..0x2000,
            more_frags: bool, dont_frag: bool,
            payload in proptest::collection::vec(any::<u8>(), 0..1400),
        ) {
            let p = Ipv4Packet {
                header: Ipv4Header {
                    tos, ident, dont_frag, more_frags, frag_offset,
                    ttl, protocol: IpProtocol::from_u8(proto),
                    src: Ipv4Addr(src), dst: Ipv4Addr(dst),
                    options: Vec::new(),
                },
                payload: payload.into(),
            };
            let bytes = wire(&p).unwrap();
            prop_assert_eq!(read(&bytes).unwrap(), p);
        }

        #[test]
        fn corrupting_any_header_byte_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            at in 0usize..20,
            flip in 1u8..=255,
        ) {
            let p = Ipv4Packet {
                header: Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(1,2,3,4), Ipv4Addr::new(5,6,7,8)),
                payload: payload.into(),
            };
            let mut bytes = wire(&p).unwrap();
            bytes[at] ^= flip;
            // Either some structural validation fires or the checksum
            // catches it; silent acceptance of a *different* packet is
            // the only failure. (A flip may leave the packet decodable
            // but only if it decodes to different content with a failing
            // checksum — assert decode fails OR fields differ.)
            match read(&bytes) {
                Err(_) => {}
                Ok(q) => prop_assert_eq!(q, p, "corruption silently accepted"),
            }
        }
    }
}
