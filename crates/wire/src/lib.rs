//! # Wire formats
//!
//! Packet externalization and internalization — the terms the paper's
//! Action module uses for encoding a TCP segment onto the wire and
//! decoding an incoming packet. This crate holds the byte-level formats
//! for every protocol in the Fox Net stack:
//!
//! * [`ether`] — Ethernet II framing, including the IEEE 802.3 CRC-32
//!   frame check sequence. The paper's non-standard composition example
//!   (TCP directly over Ethernet with TCP checksums off) is only sound
//!   "if there is specific knowledge that the Ethernet implementation
//!   implements the CRC correctly" — so our simulated Ethernet really
//!   does compute and verify the FCS;
//! * [`arp`] — Address Resolution Protocol for IPv4 over Ethernet;
//! * [`ipv4`] — the IPv4 header with fragmentation fields and header
//!   checksum;
//! * [`icmp`] — ICMP echo (ping);
//! * [`udp`] — UDP;
//! * [`tcp`] — the TCP header, flags and options, the options held
//!   inline in wire form;
//! * [`pseudo`] — the TCP/UDP pseudo-header checksum over IPv4
//!   addresses (the `check` function of the paper's `IP_AUX` signature,
//!   Fig. 5).
//!
//! Every decoder is total: malformed input yields a [`WireError`], never
//! a panic — the type-safety story of the paper, enforced with `Result`
//! instead of exceptions.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]
// rx_panic (DESIGN.md §5.8): the whole crate is on the packet-input
// path; each `decode*`/`parse*` fn also denies `indexing_slicing`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arp;
pub mod bytes;
pub mod ether;
pub mod icmp;
pub mod ipv4;
pub mod pseudo;
pub mod tcp;
pub mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use ether::{EthAddr, EtherType, Frame};
pub use icmp::IcmpEcho;
pub use ipv4::{IpProtocol, Ipv4Addr, Ipv4Header, Ipv4Packet};
pub use tcp::{TcpFlags, TcpHeader, TcpOption, TcpSegment};
pub use udp::UdpDatagram;

use std::fmt;

// The deepest header stack the TCP path builds — a TCP header with a
// full option space over IPv4 over Ethernet, 94 bytes — fits the
// headroom every staged payload gets, so each layer prepends in place
// and no frame re-homes on its way down.
const _: () =
    assert!(tcp::MAX_HEADER_LEN + ipv4::HEADER_LEN + ether::HEADER_LEN <= foxbasis::buf::DEFAULT_HEADROOM);
// A header holds its options inline: making, cloning or dropping one
// costs no heap call.
const _: () = assert!(!std::mem::needs_drop::<TcpHeader>());

/// Decoding/encoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the fixed header, or shorter than a length
    /// field claims.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// A checksum did not verify.
    BadChecksum(&'static str),
    /// A version / header-length / ethertype field had an unsupported
    /// value.
    Unsupported {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A length or option field is internally inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            WireError::BadChecksum(what) => write!(f, "bad {what} checksum"),
            WireError::Unsupported { field, value } => {
                write!(f, "unsupported {field} value {value:#x}")
            }
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

pub(crate) fn need(what: &'static str, buf: &[u8], n: usize) -> Result<(), WireError> {
    if buf.len() < n {
        Err(WireError::Truncated { what, need: n, have: buf.len() })
    } else {
        Ok(())
    }
}
