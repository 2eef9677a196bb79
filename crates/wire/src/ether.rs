//! Ethernet II framing with the IEEE 802.3 CRC-32 frame check sequence.
//!
//! The simulated network carries real frames: destination and source
//! MAC addresses, an ethertype, payload padded to the 46-byte minimum,
//! and a trailing FCS. Verifying the FCS on receive is what justifies the
//! paper's `Special_Tcp` composition (TCP over raw Ethernet with TCP
//! checksums disabled): corruption injected by the fault model is caught
//! here, below TCP.

use crate::bytes::{prefix, ByteReader};
use crate::{need, WireError};
use foxbasis::buf::PacketBuf;
use std::fmt;

/// A 48-bit IEEE MAC address.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthAddr(pub [u8; 6]);

impl EthAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthAddr = EthAddr([0xff; 6]);

    /// A locally-administered unicast address derived from a small host
    /// id — the convention the examples use (`02:00:00:00:00:<id>`).
    pub const fn host(id: u8) -> EthAddr {
        EthAddr([0x02, 0, 0, 0, 0, id])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == EthAddr::BROADCAST
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl fmt::Debug for EthAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Display for EthAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The ethertypes the stack understands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// 0x0800.
    Ipv4,
    /// 0x0806.
    Arp,
    /// 0x88B5 (IEEE local experimental) — used by the paper's
    /// `Special_Tcp` stack, which runs TCP directly over Ethernet.
    TcpDirect,
    /// Anything else, carried through unparsed.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::TcpDirect => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// Parses the 16-bit wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x88b5 => EtherType::TcpDirect,
            other => EtherType::Other(other),
        }
    }
}

/// Minimum Ethernet payload (frames are padded up to this).
pub const MIN_PAYLOAD: usize = 46;
/// Maximum Ethernet payload — the MTU the IP layer sees.
pub const MTU: usize = 1500;
/// Header bytes: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;
/// Trailer bytes: FCS(4).
pub const FCS_LEN: usize = 4;

/// A decoded Ethernet frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Destination MAC.
    pub dst: EthAddr,
    /// Source MAC.
    pub src: EthAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload, excluding padding is *not* recoverable at this layer —
    /// receivers get the padded payload and upper layers use their own
    /// length fields, exactly as on real Ethernet.
    pub payload: PacketBuf,
}

/// The reflected IEEE 802.3 generator polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

/// Slice-by-16 lookup tables: `CRC32_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so sixteen input bytes fold
/// into the state with sixteen independent lookups instead of 128
/// shifts.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        // The running state only touches the first four bytes; the other
        // twelve lookups do not wait for it.
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xff) as usize]
            ^ t[14][(head >> 8 & 0xff) as usize]
            ^ t[13][(head >> 16 & 0xff) as usize]
            ^ t[12][(head >> 24) as usize];
        for (k, &b) in c.iter().enumerate().skip(4) {
            crc ^= t[15 - k][usize::from(b)];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

impl Frame {
    /// Builds a frame.
    pub fn new(dst: EthAddr, src: EthAddr, ethertype: EtherType, payload: impl Into<PacketBuf>) -> Frame {
        Frame { dst, src, ethertype, payload: payload.into() }
    }

    /// Externalizes the frame — header, payload padded to the minimum,
    /// and the FCS — **in place**, consuming it: header into the payload
    /// buffer's headroom, minimum-payload padding and FCS into its
    /// tailroom. The FCS pass reads the frame once (the link layer's
    /// checksum cost, charged by the virtual model as before); the
    /// payload bytes are not copied.
    ///
    /// # Errors
    /// Fails with [`WireError::Malformed`] if the payload exceeds the
    /// MTU.
    pub fn encode_buf(self) -> Result<PacketBuf, WireError> {
        if self.payload.len() > MTU {
            return Err(WireError::Malformed("ethernet payload exceeds MTU"));
        }
        let mut header = [0u8; HEADER_LEN];
        header[0..6].copy_from_slice(&self.dst.0);
        header[6..12].copy_from_slice(&self.src.0);
        header[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        let mut buf = self.payload;
        let pad = MIN_PAYLOAD.saturating_sub(buf.len());
        buf.prepend_header(&header);
        buf.append_zeros(pad);
        let fcs = crc32(&buf.bytes());
        buf.append(&fcs.to_be_bytes());
        Ok(buf)
    }

    /// Internalizes a frame from a [`PacketBuf`] view, verifying the FCS
    /// and slicing the (padded) payload out of the same storage
    /// (zero-copy).
    #[deny(clippy::indexing_slicing)]
    pub fn decode_buf(buf: &PacketBuf) -> Result<Frame, WireError> {
        let (dst, src, ethertype, body_len) = Frame::parse(&buf.bytes())?;
        Ok(Frame { dst, src, ethertype, payload: buf.slice(HEADER_LEN, body_len) })
    }

    #[deny(clippy::indexing_slicing)]
    fn parse(buf: &[u8]) -> Result<(EthAddr, EthAddr, EtherType, usize), WireError> {
        need("ethernet frame", buf, HEADER_LEN + MIN_PAYLOAD + FCS_LEN)?;
        let body_len = buf.len().saturating_sub(FCS_LEN);
        let body = prefix("ethernet frame", buf, body_len)?;
        let mut trailer = ByteReader::new("ethernet FCS", buf);
        trailer.skip(body_len)?;
        let fcs = trailer.u32_be()?;
        if crc32(body) != fcs {
            return Err(WireError::BadChecksum("ethernet FCS"));
        }
        let mut r = ByteReader::new("ethernet header", body);
        let dst = EthAddr(r.array::<6>()?);
        let src = EthAddr(r.array::<6>()?);
        let ethertype = EtherType::from_u16(r.u16_be()?);
        Ok((dst, src, ethertype, body_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time: the oracle the table kernel is
    /// held to.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Test shorthand: `bytes` decoded as a frame.
    fn read(bytes: &[u8]) -> Result<Frame, WireError> {
        Frame::decode_buf(&PacketBuf::from_vec(bytes.to_vec()))
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
        // Lengths through four 16-byte strides plus every tail length,
        // at every offset into one allocation.
        let backing: Vec<u8> = (0..83u32).map(|i| (i * 151 + 3) as u8).collect();
        for align in 0..16 {
            for len in 0..=67 {
                let data = &backing[align..align + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_with_padding() {
        let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Ipv4, b"short".to_vec());
        let bytes = f.clone().encode_buf().unwrap().to_vec();
        assert_eq!(bytes.len(), HEADER_LEN + MIN_PAYLOAD + FCS_LEN);
        let g = read(&bytes).unwrap();
        assert_eq!(g.dst, f.dst);
        assert_eq!(g.src, f.src);
        assert_eq!(g.ethertype, EtherType::Ipv4);
        assert_eq!(&g.payload.bytes()[..5], b"short");
        assert!(g.payload.bytes()[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn corruption_is_detected_by_fcs() {
        let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Arp, vec![7; 100]);
        let mut bytes = f.encode_buf().unwrap().to_vec();
        bytes[40] ^= 0x20;
        assert_eq!(read(&bytes), Err(WireError::BadChecksum("ethernet FCS")));
    }

    #[test]
    fn oversized_payload_rejected() {
        let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Ipv4, vec![0; MTU + 1]);
        assert!(matches!(f.encode_buf(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn runt_frame_rejected() {
        assert!(matches!(read(&[0u8; 30]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn address_predicates() {
        assert!(EthAddr::BROADCAST.is_broadcast());
        assert!(EthAddr::BROADCAST.is_multicast());
        assert!(!EthAddr::host(3).is_broadcast());
        assert!(!EthAddr::host(3).is_multicast());
        assert_eq!(format!("{}", EthAddr::host(0xab)), "02:00:00:00:00:ab");
    }

    #[test]
    fn ethertype_mapping() {
        for et in [EtherType::Ipv4, EtherType::Arp, EtherType::TcpDirect, EtherType::Other(0x1234)] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bitwise_definition_on_full_frames(
            frame in proptest::collection::vec(any::<u8>(), HEADER_LEN + MTU),
        ) {
            prop_assert_eq!(crc32(&frame), crc32_bitwise(&frame));
        }

        #[test]
        fn roundtrip_any_payload(
            dst in any::<[u8; 6]>(),
            src in any::<[u8; 6]>(),
            ethertype: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..=MTU),
        ) {
            let f = Frame::new(EthAddr(dst), EthAddr(src), EtherType::from_u16(ethertype), payload.clone());
            let bytes = f.clone().encode_buf().unwrap().to_vec();
            let g = read(&bytes).unwrap();
            prop_assert_eq!(g.dst, f.dst);
            prop_assert_eq!(g.src, f.src);
            prop_assert_eq!(g.ethertype.to_u16(), ethertype);
            prop_assert_eq!(&g.payload.bytes()[..payload.len()], &payload[..]);
        }

        #[test]
        fn single_bit_flips_always_detected(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            bit in 0usize..512,
        ) {
            let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Ipv4, payload);
            let mut bytes = f.encode_buf().unwrap().to_vec();
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(read(&bytes).is_err());
        }
    }
}
