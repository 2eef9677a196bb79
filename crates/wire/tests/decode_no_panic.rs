//! Totality of every wire decoder: `decode(arbitrary bytes)` returns
//! `Ok` or `Err`, never panics. This is the property the `rx_panic`
//! deny attributes enforce statically — here it is exercised dynamically,
//! with adversarial inputs that include truncations of valid packets
//! (the inputs most likely to defeat a length check).

use foxbasis::buf::PacketBuf;
use foxwire::ipv4::Ipv4Addr;
use foxwire::{ArpPacket, Frame, IcmpEcho, Ipv4Packet, TcpSegment, UdpDatagram};
use proptest::prelude::*;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

proptest! {
    #[test]
    fn arp_decode_total(buf in bytes(64)) {
        let _ = ArpPacket::decode(&buf);
    }

    #[test]
    fn ether_decode_total(buf in bytes(128)) {
        let _ = Frame::decode(&buf);
        let _ = Frame::decode_buf(&PacketBuf::from_vec(buf));
    }

    #[test]
    fn icmp_decode_total(buf in bytes(96)) {
        let _ = IcmpEcho::decode(&buf);
    }

    #[test]
    fn ipv4_decode_total(buf in bytes(128)) {
        let _ = Ipv4Packet::decode(&buf);
    }

    #[test]
    fn tcp_decode_total(buf in bytes(128)) {
        let _ = TcpSegment::decode(&buf, None);
        let _ = TcpSegment::decode_buf(&PacketBuf::from_vec(buf), Some(0x1234));
    }

    #[test]
    fn udp_decode_total(buf in bytes(96)) {
        let _ = UdpDatagram::decode(&buf, None);
        let _ = UdpDatagram::decode_v4(&buf, Some((A, B)));
        let _ = UdpDatagram::decode_buf(&PacketBuf::from_vec(buf), Some(0x1234));
    }

    // Adversarial option lists: arbitrary bytes spliced into the option
    // region of an otherwise valid header. Exercises every option
    // parser (wscale, SACK-permitted, SACK blocks, timestamps, MSS),
    // RFC 1122 unknown-kind skipping, truncated lengths, and the
    // `len < 2` check that prevents a zero-length-option parse loop.
    #[test]
    fn garbled_option_lists_never_panic_or_loop(opts in bytes(40)) {
        let mut header = foxwire::TcpHeader::new(2000, 5000);
        header.window = 4096;
        let seg = TcpSegment { header, payload: PacketBuf::from_vec(b"x".to_vec()) };
        let mut wire = seg.encode_buf(None).unwrap().to_vec();
        // Rewrite the data offset to cover the injected option bytes
        // (rounded down to a 32-bit boundary) and splice them in.
        let opt_len = opts.len() & !3;
        wire.splice(20..20, opts[..opt_len].iter().copied());
        wire[12] = (((20 + opt_len) / 4) as u8) << 4;
        let _ = TcpSegment::decode(&wire, None);
    }

    // Well-formed option kinds with every possible length byte: a known
    // kind with a wrong length must come back `Err`, never a panic or
    // a mis-parse that claims the following option's bytes.
    #[test]
    fn known_option_kinds_with_arbitrary_lengths(kind in 0u8..=16, len: u8, fill: u8) {
        let mut header = foxwire::TcpHeader::new(2000, 5000);
        header.window = 4096;
        let seg = TcpSegment { header, payload: PacketBuf::new() };
        let mut wire = seg.encode_buf(None).unwrap().to_vec();
        let mut opts = vec![kind, len];
        opts.resize(40, fill);
        wire.splice(20..20, opts.iter().copied());
        wire[12] = (((20 + 40) / 4) as u8) << 4;
        let _ = TcpSegment::decode(&wire, None);
    }

    // Truncations and single-byte corruptions of well-formed packets:
    // the adversarial cases a pure random byte soup rarely reaches
    // (valid length fields with one byte missing, bad option lengths
    // inside an otherwise valid TCP header, ...).
    #[test]
    fn truncated_valid_packets_never_panic(cut in 0usize..200, flip in 0usize..200) {
        let mut header = foxwire::TcpHeader::new(2000, 5000);
        header.window = 4096;
        header.options = vec![
            foxwire::TcpOption::MaxSegmentSize(1460),
            foxwire::TcpOption::WindowScale(7),
            foxwire::TcpOption::SackPermitted,
            foxwire::TcpOption::Timestamps(1000, 2000),
        ];
        let tcp = TcpSegment { header, payload: PacketBuf::from_vec(b"payload".to_vec()) };
        let seg = tcp.encode_v4(Some((A, B))).unwrap().to_vec();
        let ip = Ipv4Packet {
            header: foxwire::ipv4::Ipv4Header::new(foxwire::IpProtocol::Tcp, A, B),
            payload: PacketBuf::from_vec(seg.clone()),
        }
        .encode_buf()
        .unwrap()
        .to_vec();
        for base in [&seg, &ip] {
            let cut = cut.min(base.len());
            let _ = TcpSegment::decode(&base[..cut], None);
            let _ = Ipv4Packet::decode(&base[..cut]);
            let mut mutated = base.clone();
            let flip = flip % mutated.len().max(1);
            if let Some(b) = mutated.get_mut(flip) {
                *b = b.wrapping_add(1);
            }
            let _ = TcpSegment::decode(&mutated, None);
            let _ = Ipv4Packet::decode(&mutated);
            let _ = UdpDatagram::decode_v4(&mutated, Some((A, B)));
            let _ = ArpPacket::decode(&mutated);
            let _ = IcmpEcho::decode(&mutated);
        }
    }
}
