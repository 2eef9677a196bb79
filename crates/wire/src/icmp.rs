//! ICMP echo request/reply (RFC 792) — enough of ICMP for the `ping`
//! example and for keeping the Ip layer honest about demultiplexing.

use crate::bytes::ByteReader;
use crate::{need, WireError};
use foxbasis::checksum;

/// Echo message header length.
pub const HEADER_LEN: usize = 8;

/// An ICMP echo request or reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpEcho {
    /// True for a request (type 8), false for a reply (type 0).
    pub is_request: bool,
    /// Identifier (usually the pinger's "process id").
    pub ident: u16,
    /// Sequence number of this ping.
    pub seq: u16,
    /// Echoed payload.
    pub payload: Vec<u8>,
}

impl IcmpEcho {
    /// Externalizes the message with its checksum.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        if HEADER_LEN + self.payload.len() > 65515 {
            return Err(WireError::Malformed("icmp echo too long"));
        }
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.push(if self.is_request { 8 } else { 0 });
        out.push(0); // code
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.payload);
        let csum = checksum::checksum(&out);
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        Ok(out)
    }

    /// Internalizes an echo message, verifying type, code and checksum.
    /// All field access is through the checked [`ByteReader`]; short
    /// input is `Err(Truncated)`, never a panic.
    #[deny(clippy::indexing_slicing)]
    pub fn decode(buf: &[u8]) -> Result<IcmpEcho, WireError> {
        need("icmp echo", buf, HEADER_LEN)?;
        let mut r = ByteReader::new("icmp echo", buf);
        let is_request = match r.u8()? {
            8 => true,
            0 => false,
            other => return Err(WireError::Unsupported { field: "icmp type", value: u32::from(other) }),
        };
        let code = r.u8()?;
        if code != 0 {
            return Err(WireError::Unsupported { field: "icmp code", value: u32::from(code) });
        }
        if checksum::ones_complement_sum(buf) != 0xffff {
            return Err(WireError::BadChecksum("icmp"));
        }
        r.skip(2)?; // checksum field, verified above over the whole message
        Ok(IcmpEcho { is_request, ident: r.u16_be()?, seq: r.u16_be()?, payload: r.rest().to_vec() })
    }

    /// The reply to this request, echoing ident, seq and payload.
    pub fn reply(&self) -> IcmpEcho {
        IcmpEcho { is_request: false, ident: self.ident, seq: self.seq, payload: self.payload.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_request_and_reply() {
        let req = IcmpEcho { is_request: true, ident: 0x1234, seq: 7, payload: b"ping!".to_vec() };
        let bytes = req.encode().unwrap();
        assert_eq!(IcmpEcho::decode(&bytes).unwrap(), req);
        let rep = req.reply();
        assert!(!rep.is_request);
        assert_eq!(rep.ident, req.ident);
        assert_eq!(rep.seq, req.seq);
        assert_eq!(IcmpEcho::decode(&rep.encode().unwrap()).unwrap(), rep);
    }

    #[test]
    fn corruption_detected() {
        let req = IcmpEcho { is_request: true, ident: 1, seq: 1, payload: vec![9; 32] };
        let mut bytes = req.encode().unwrap();
        bytes[12] ^= 0x40;
        assert_eq!(IcmpEcho::decode(&bytes), Err(WireError::BadChecksum("icmp")));
    }

    #[test]
    fn non_echo_types_rejected() {
        let req = IcmpEcho { is_request: true, ident: 1, seq: 1, payload: Vec::new() };
        let mut bytes = req.encode().unwrap();
        bytes[0] = 3; // destination unreachable
        assert!(matches!(IcmpEcho::decode(&bytes), Err(WireError::Unsupported { .. })));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            is_request: bool, ident: u16, seq: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let m = IcmpEcho { is_request, ident, seq, payload };
            prop_assert_eq!(IcmpEcho::decode(&m.encode().unwrap()).unwrap(), m);
        }
    }
}
