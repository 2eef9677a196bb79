//! Totality fuzz: no byte sequence may panic any decoder. ("In SML it is
//! impossible to dereference an integer" — and in Rust it is impossible
//! to read out of bounds; but a decoder could still *panic*, which for
//! systems code is a crash. These properties pin down graceful failure.)

use foxbasis::buf::PacketBuf;
use foxwire::arp::ArpPacket;
use foxwire::ether::Frame;
use foxwire::icmp::IcmpEcho;
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Packet};
use foxwire::pseudo::v4_sum;
use foxwire::tcp::TcpSegment;
use foxwire::udp::UdpDatagram;
use proptest::prelude::*;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// `bytes` as the buffer the decoders take.
fn buf(bytes: &[u8]) -> PacketBuf {
    PacketBuf::from_vec(bytes.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn no_decoder_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let b = buf(&bytes);
        let _ = Frame::decode_buf(&b);
        let _ = ArpPacket::decode(&bytes);
        let _ = Ipv4Packet::decode_buf(&b);
        let _ = IcmpEcho::decode(&bytes);
        let _ = UdpDatagram::decode_buf(&b, None);
        let _ = UdpDatagram::decode_buf(&b, Some(v4_sum(A, B, IpProtocol::Udp, bytes.len())));
        let _ = TcpSegment::decode_buf(&b, None);
        let _ = TcpSegment::decode_buf(&b, Some(v4_sum(A, B, IpProtocol::Tcp, bytes.len())));
    }

    /// Truncating a valid packet at any point yields an error, never a
    /// panic and never silent acceptance of a shorter packet as valid.
    #[test]
    fn truncation_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..400,
    ) {
        let mut h = foxwire::tcp::TcpHeader::new(1, 2);
        h.flags = foxwire::tcp::TcpFlags::ACK;
        let seg = TcpSegment { header: h, payload: payload.clone().into() };
        let bytes = seg.encode_v4(Some((A, B))).unwrap().to_vec();
        let cut = cut.min(bytes.len());
        let _ = TcpSegment::decode_buf(&buf(&bytes[..cut]), Some(v4_sum(A, B, IpProtocol::Tcp, cut)));

        let ip = Ipv4Packet {
            header: foxwire::ipv4::Ipv4Header::new(IpProtocol::Tcp, A, B),
            payload: payload.into(),
        };
        let bytes = ip.encode_buf().unwrap().to_vec();
        let cut2 = cut.min(bytes.len());
        if cut2 < bytes.len() {
            prop_assert!(Ipv4Packet::decode_buf(&buf(&bytes[..cut2])).is_err(), "short IPv4 must not validate");
        }
    }

    /// Decoding valid frames through a layered path (Frame -> Ipv4 ->
    /// Tcp) never panics even when inner layers are garbage.
    #[test]
    fn layered_garbage_is_contained(inner in proptest::collection::vec(any::<u8>(), 0..1400)) {
        let f = Frame::new(
            foxwire::ether::EthAddr::host(2),
            foxwire::ether::EthAddr::host(1),
            foxwire::ether::EtherType::Ipv4,
            inner,
        );
        let decoded = Frame::decode_buf(&f.encode_buf().unwrap()).unwrap();
        if let Ok(ip) = Ipv4Packet::decode_buf(&decoded.payload) {
            let (src, dst, len) = (ip.header.src, ip.header.dst, ip.payload.len());
            let _ = TcpSegment::decode_buf(&ip.payload, None);
            let _ = TcpSegment::decode_buf(&ip.payload, Some(v4_sum(src, dst, IpProtocol::Tcp, len)));
            let _ = UdpDatagram::decode_buf(&ip.payload, Some(v4_sum(src, dst, IpProtocol::Udp, len)));
            let _ = IcmpEcho::decode(&ip.payload.bytes());
        }
    }
}
