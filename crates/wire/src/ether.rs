//! Ethernet II framing with the IEEE 802.3 CRC-32 frame check sequence.
//!
//! The simulated network carries real frames: destination and source
//! MAC addresses, an ethertype, payload padded to the 46-byte minimum,
//! and a trailing FCS. Verifying the FCS on receive is what justifies the
//! paper's `Special_Tcp` composition (TCP over raw Ethernet with TCP
//! checksums disabled): corruption injected by the fault model is caught
//! here, below TCP.
//!
//! The FCS is the NIC's work — on the paper's DECstation the controller
//! computed it, and Table 2 prices no such pass — so the codec leaves it
//! to the buffer's seal (`foxbasis::buf`'s module docs): the encoder
//! appends the trailer and seals the frame without running the CRC, the
//! trailer is written when someone first reads or writes the frame, and
//! the decoder skips the check on a frame that is still sealed, because
//! nobody can have changed it. Every other frame — a captured one, one
//! the wire corrupted, one a middlebox rewrote and did not seal — is
//! checked in full.

use crate::bytes::{prefix, ByteReader};
use crate::WireError;
use foxbasis::buf::PacketBuf;
pub use foxbasis::buf::FCS_LEN;
pub use foxbasis::checksum::crc32;
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
/// The shortest frame: header, minimum payload and FCS.
const MIN_FRAME: usize = HEADER_LEN + MIN_PAYLOAD + FCS_LEN;

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

impl Frame {
    /// Builds a frame.
    pub fn new(dst: EthAddr, src: EthAddr, ethertype: EtherType, payload: impl Into<PacketBuf>) -> Frame {
        Frame { dst, src, ethertype, payload: payload.into() }
    }

    /// Externalizes the frame — header, payload padded to the minimum,
    /// and the FCS — **in place**, consuming it: header into the payload
    /// buffer's headroom, minimum-payload padding and the FCS trailer into
    /// its tailroom. The frame comes back sealed: its FCS is written when
    /// someone first reads it (a capture, a corrupting wire), and not at
    /// all if only a receiving [`Frame::decode_buf`] sees it. Neither the
    /// payload nor, in release builds, any other byte is read.
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
        buf.seal_fcs();
        Ok(buf)
    }

    /// Internalizes a frame from a [`PacketBuf`] view, verifying the FCS
    /// and slicing the (padded) payload out of the same storage
    /// (zero-copy). A view [`Frame::encode_buf`] sealed and nobody has
    /// touched since is not re-checked: the header is read through a
    /// sub-view that stops short of the trailer, so the decode writes no
    /// FCS either. Debug builds check it in full all the same, on a clone
    /// that leaves the seal on `buf`, and assert that it holds.
    #[deny(clippy::indexing_slicing)]
    pub fn decode_buf(buf: &PacketBuf) -> Result<Frame, WireError> {
        let len = buf.len();
        if len < MIN_FRAME {
            return Err(WireError::Truncated { what: "ethernet frame", need: MIN_FRAME, have: len });
        }
        if buf.is_sealed() {
            debug_assert!(
                Frame::check_fcs(&buf.clone().bytes()).is_ok(),
                "a sealed frame's FCS does not hold"
            );
        } else {
            Frame::check_fcs(&buf.bytes())?;
        }
        let body = buf.slice(0, len.saturating_sub(FCS_LEN));
        let (dst, src, ethertype) = Frame::parse_header(&body.bytes())?;
        Ok(Frame { dst, src, ethertype, payload: body.slice(HEADER_LEN, body.len()) })
    }

    /// Checks a whole frame's FCS against its body.
    #[deny(clippy::indexing_slicing)]
    fn check_fcs(frame: &[u8]) -> Result<(), WireError> {
        let body_len = frame.len().saturating_sub(FCS_LEN);
        let body = prefix("ethernet frame", frame, body_len)?;
        let mut trailer = ByteReader::new("ethernet FCS", frame);
        trailer.skip(body_len)?;
        if crc32(body) != trailer.u32_be()? {
            return Err(WireError::BadChecksum("ethernet FCS"));
        }
        Ok(())
    }

    /// The addresses and ethertype at the front of a frame's body.
    #[deny(clippy::indexing_slicing)]
    fn parse_header(body: &[u8]) -> Result<(EthAddr, EthAddr, EtherType), WireError> {
        let mut r = ByteReader::new("ethernet header", body);
        let dst = EthAddr(r.array::<6>()?);
        let src = EthAddr(r.array::<6>()?);
        Ok((dst, src, EtherType::from_u16(r.u16_be()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test shorthand: `bytes` decoded as a frame.
    fn read(bytes: &[u8]) -> Result<Frame, WireError> {
        Frame::decode_buf(&PacketBuf::from_vec(bytes.to_vec()))
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

        /// Every read of a sealed frame — `to_vec`, `clone_owned`, `==`,
        /// a sealed clone's after its twin's — shows the eager encoding
        /// byte for byte, and leaves the reader unsealed.
        #[test]
        fn a_sealed_frame_reads_as_its_eager_encoding(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            how in 0u8..4,
        ) {
            let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Ipv4, payload);
            let want = eager(&f);
            let sealed = f.encode_buf().unwrap();
            prop_assert!(sealed.is_sealed());
            let twin = sealed.clone();
            match how {
                0 => prop_assert_eq!(sealed.to_vec(), want.clone()),
                1 => prop_assert_eq!(sealed.clone_owned(), want.clone()),
                2 => prop_assert!(sealed == PacketBuf::from_vec(want.clone())),
                _ => prop_assert_eq!(&*sealed.bytes(), &want[..]),
            }
            prop_assert!(!sealed.is_sealed());
            prop_assert!(twin.is_sealed(), "a clone keeps its own seal");
            prop_assert_eq!(twin.to_vec(), want);
        }

        /// Whatever is done to a sealed frame — a bit flipped through
        /// `bytes_mut` or on a private copy, bytes cut off, appended or
        /// prepended, a sub-view cut — leaves it unsealed, so the
        /// receiver checks it in full: it decodes exactly as the same
        /// bytes never sealed, and a frame whose bytes changed is
        /// rejected. A sealed clone held across the change keeps its
        /// seal and its bytes, and still decodes.
        #[test]
        fn a_frame_changed_after_sealing_is_checked_in_full(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            op in 0u8..7,
            at: usize,
            n in 1usize..8,
            hold_twin: bool,
        ) {
            let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Ipv4, payload);
            let want = eager(&f);
            let mut buf = f.encode_buf().unwrap();
            let twin = hold_twin.then(|| buf.clone());
            let len = want.len();
            let mut model = want.clone();
            match op {
                0 => {
                    let bit = at % (len * 8);
                    if buf.bytes_mut().is_none() {
                        buf = buf.clone_owned();
                    }
                    buf.bytes_mut().unwrap()[bit / 8] ^= 1 << (bit % 8);
                    model[bit / 8] ^= 1 << (bit % 8);
                }
                1 => {
                    buf.trim_back(n);
                    model.truncate(len - n);
                }
                2 => {
                    buf.truncate(len - n);
                    model.truncate(len - n);
                }
                3 => {
                    buf.append(&vec![at as u8; n]);
                    model.extend(vec![at as u8; n]);
                }
                4 => {
                    buf.prepend_header(&vec![at as u8; n]);
                    model.splice(0..0, vec![at as u8; n]);
                }
                5 => {
                    let from = at % n;
                    buf = buf.slice(from, len - (n - from) % n);
                    model = model[from..len - (n - from) % n].to_vec();
                }
                _ => {
                    buf.trim_front(n);
                    model.drain(..n);
                }
            }
            prop_assert!(!buf.is_sealed());
            let got = Frame::decode_buf(&buf);
            prop_assert_eq!(&got, &read(&model));
            if model != want {
                prop_assert!(got.is_err(), "a changed frame was accepted");
            }
            if let Some(twin) = twin {
                prop_assert!(twin.is_sealed());
                prop_assert!(Frame::decode_buf(&twin).is_ok());
                prop_assert_eq!(twin.to_vec(), want);
            }
        }
    }

    /// What `encode_buf` wrote before the seal, built by hand: header,
    /// payload padded to the minimum, then the CRC-32 of both.
    fn eager(f: &Frame) -> Vec<u8> {
        let mut v = [f.dst.0, f.src.0].concat();
        v.extend_from_slice(&f.ethertype.to_u16().to_be_bytes());
        v.extend_from_slice(&f.payload.bytes());
        v.resize(v.len().max(HEADER_LEN + MIN_PAYLOAD), 0);
        let fcs = crc32(&v);
        v.extend_from_slice(&fcs.to_be_bytes());
        v
    }

    #[test]
    fn a_sealed_decode_reads_no_trailer() {
        let f = Frame::new(EthAddr::host(1), EthAddr::host(2), EtherType::Arp, vec![9; 80]);
        let sealed = f.clone().encode_buf().unwrap();
        let got = Frame::decode_buf(&sealed).unwrap();
        assert_eq!((got.dst, got.src, got.ethertype), (f.dst, f.src, f.ethertype));
        assert!(sealed.is_sealed(), "the decode read the header through a view short of the trailer");
        assert_eq!(got.payload, f.payload);
    }
}
