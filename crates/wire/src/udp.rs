//! The UDP header (RFC 768).
//!
//! The paper notes that a structure satisfying `IP_AUX` "must be supplied
//! as a parameter to the UDP functor as well" — UDP shares TCP's need for
//! the pseudo-header checksum.

use crate::bytes::{prefix, ByteReader};
use crate::ipv4::{IpProtocol, Ipv4Addr};
use crate::{need, pseudo, WireError};
use foxbasis::buf::PacketBuf;

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: PacketBuf,
}

impl UdpDatagram {
    fn header_bytes(&self, total: usize) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        h
    }

    /// Externalizes the datagram, consuming it: the header goes into its
    /// payload buffer's headroom in place and the payload bytes are not
    /// touched (the checksum reuses the buffer's memoized ones-sum).
    /// `pseudo_sum` is the partial sum over the pseudo-header including
    /// length (see `TcpSegment::encode_buf`). Per RFC 768, a computed
    /// checksum of zero is transmitted as 0xFFFF, and a transmitted zero
    /// means "no checksum".
    pub fn encode_buf(self, pseudo_sum: Option<u16>) -> Result<PacketBuf, WireError> {
        let total = HEADER_LEN + self.payload.len();
        if total > 65535 {
            return Err(WireError::Malformed("udp datagram too long"));
        }
        let mut header = self.header_bytes(total);
        if let Some(p) = pseudo_sum {
            let mut acc = foxbasis::checksum::ChecksumAccum::new();
            // The header is an even number of bytes, so the payload's
            // folded sum adds positionally correctly after it.
            acc.add_word(p).add_bytes(&header).add_word(self.payload.ones_sum());
            let mut csum = acc.finish();
            if csum == 0 {
                csum = 0xffff;
            }
            header[6..8].copy_from_slice(&csum.to_be_bytes());
        }
        let mut buf = self.payload;
        buf.prepend_header(&header);
        Ok(buf)
    }

    /// Parses the header and verifies length and (optionally) checksum.
    /// Returns `(src_port, dst_port, length)`. All byte access is
    /// through the checked [`ByteReader`]/[`prefix`] helpers.
    #[deny(clippy::indexing_slicing)]
    fn parse(buf: &[u8], pseudo_sum: Option<u16>) -> Result<(u16, u16, usize), WireError> {
        need("udp header", buf, HEADER_LEN)?;
        let mut r = ByteReader::new("udp header", buf);
        let src_port = r.u16_be()?;
        let dst_port = r.u16_be()?;
        let length = usize::from(r.u16_be()?);
        if length < HEADER_LEN {
            return Err(WireError::Malformed("udp length"));
        }
        need("udp payload", buf, length)?;
        let wire_checksum = r.u16_be()?;
        if let Some(p) = pseudo_sum {
            if wire_checksum != 0 {
                let mut acc = foxbasis::checksum::ChecksumAccum::new();
                acc.add_word(p).add_bytes(prefix("udp datagram", buf, length)?);
                if acc.sum() != 0xffff {
                    return Err(WireError::BadChecksum("udp"));
                }
            }
        }
        Ok((src_port, dst_port, length))
    }

    /// Internalizes a datagram from a [`PacketBuf`], returning the
    /// payload as a zero-copy slice of the same buffer; verifies the
    /// checksum when a pseudo-sum is supplied and the sender computed one.
    ///
    /// Padding note: the pseudo-header's length field is the UDP length,
    /// which for a valid datagram equals the length field in its own
    /// header — not `buf.len()`, which may include link-layer padding. A
    /// caller building `pseudo_sum` (e.g. with [`pseudo::v4_sum`]) passes
    /// that claimed length, read from bytes 4–5, so padding does not
    /// disturb the sum.
    #[deny(clippy::indexing_slicing)]
    pub fn decode_buf(buf: &PacketBuf, pseudo_sum: Option<u16>) -> Result<UdpDatagram, WireError> {
        let (src_port, dst_port, length) = UdpDatagram::parse(&buf.bytes(), pseudo_sum)?;
        Ok(UdpDatagram { src_port, dst_port, payload: buf.slice(HEADER_LEN, length) })
    }

    /// [`encode_buf`](Self::encode_buf) with the standard IPv4
    /// pseudo-header.
    pub fn encode_v4(self, checksum_over: Option<(Ipv4Addr, Ipv4Addr)>) -> Result<PacketBuf, WireError> {
        let pseudo = checksum_over
            .map(|(src, dst)| pseudo::v4_sum(src, dst, IpProtocol::Udp, HEADER_LEN + self.payload.len()));
        self.encode_buf(pseudo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 1);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 69, 2);

    /// Test shorthand: a copy of `d`'s wire bytes, checksummed over the
    /// pseudo-header from `A` to `B`, leaving `d` intact.
    fn wire_v4(d: &UdpDatagram) -> Vec<u8> {
        d.clone().encode_v4(Some((A, B))).unwrap().to_vec()
    }

    /// Test shorthand: `bytes` decoded, the checksum verified over the
    /// pseudo-header from `A` to `B` with the datagram's claimed length
    /// (the padding note on `decode_buf`).
    fn read_v4(bytes: &[u8]) -> Result<UdpDatagram, WireError> {
        let claimed = usize::from(u16::from_be_bytes([bytes[4], bytes[5]]));
        let sum = pseudo::v4_sum(A, B, IpProtocol::Udp, claimed);
        UdpDatagram::decode_buf(&PacketBuf::from_vec(bytes.to_vec()), Some(sum))
    }

    /// Test shorthand: `bytes` decoded, the checksum field ignored.
    fn read(bytes: &[u8]) -> Result<UdpDatagram, WireError> {
        UdpDatagram::decode_buf(&PacketBuf::from_vec(bytes.to_vec()), None)
    }

    #[test]
    fn roundtrip() {
        let d = UdpDatagram { src_port: 6969, dst_port: 53, payload: b"query"[..].into() };
        let bytes = wire_v4(&d);
        assert_eq!(read_v4(&bytes).unwrap(), d);
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: b"x"[..].into() };
        let mut bytes = d.encode_buf(None).unwrap().to_vec();
        assert_eq!(&bytes[6..8], &[0, 0]);
        // Corrupt the payload: decode still succeeds because checksum 0
        // means the sender didn't compute one.
        bytes[8] ^= 0xff;
        assert!(read_v4(&bytes).is_ok());
    }

    #[test]
    fn corruption_detected_when_checksummed() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: b"pay"[..].into() };
        let mut bytes = wire_v4(&d);
        bytes[9] ^= 0x01;
        assert_eq!(read_v4(&bytes), Err(WireError::BadChecksum("udp")));
    }

    #[test]
    fn trailing_padding_discarded() {
        let d = UdpDatagram { src_port: 9, dst_port: 10, payload: b"ab"[..].into() };
        let mut bytes = wire_v4(&d);
        bytes.extend_from_slice(&[0; 20]); // Ethernet padding
        assert_eq!(read_v4(&bytes).unwrap(), d);
    }

    #[test]
    fn bad_length_rejected() {
        let d = UdpDatagram { src_port: 9, dst_port: 10, payload: PacketBuf::new() };
        let mut bytes = d.encode_buf(None).unwrap().to_vec();
        bytes[5] = 4; // length 4 < header
        assert!(matches!(read(&bytes), Err(WireError::Malformed(_))));
        bytes[5] = 200; // length beyond buffer
        assert!(matches!(read(&bytes), Err(WireError::Truncated { .. })));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            src_port: u16, dst_port: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..2000),
        ) {
            let d = UdpDatagram { src_port, dst_port, payload: payload.into() };
            let bytes = wire_v4(&d);
            prop_assert_eq!(read_v4(&bytes).unwrap(), d);
        }
    }
}
