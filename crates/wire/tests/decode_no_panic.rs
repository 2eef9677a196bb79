//! Totality of every wire decoder: `decode(arbitrary bytes)` returns
//! `Ok` or `Err`, never panics. This is the property the `rx_panic`
//! deny attributes enforce statically — here it is exercised dynamically,
//! with adversarial inputs that include truncations of valid packets
//! (the inputs most likely to defeat a length check). Frame, IPv4, TCP
//! and UDP are reached through their one decoder, `decode_buf`, which
//! every byte of input passes through to the shared header parser.

use foxbasis::buf::PacketBuf;
use foxwire::ipv4::Ipv4Addr;
use foxwire::pseudo::v4_sum;
use foxwire::tcp::wire_window;
use foxwire::{ArpPacket, Frame, IcmpEcho, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};
use proptest::prelude::*;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// `bytes` as the buffer the decoders take.
fn buf(bytes: &[u8]) -> PacketBuf {
    PacketBuf::from_vec(bytes.to_vec())
}

/// The pseudo-header sum from `A` to `B` for `len` bytes of `protocol`.
fn sum(protocol: IpProtocol, len: usize) -> Option<u16> {
    Some(v4_sum(A, B, protocol, len))
}

/// A TCP header with the option bytes' data offset left to the caller.
fn tcp_header() -> foxwire::TcpHeader {
    let mut header = foxwire::TcpHeader::new(2000, 5000);
    header.window = wire_window(4096, 0);
    header
}

proptest! {
    #[test]
    fn arp_decode_total(b in bytes(64)) {
        let _ = ArpPacket::decode(&b);
    }

    #[test]
    fn ether_decode_total(b in bytes(128)) {
        let _ = Frame::decode_buf(&buf(&b));
    }

    #[test]
    fn icmp_decode_total(b in bytes(96)) {
        let _ = IcmpEcho::decode(&b);
    }

    #[test]
    fn ipv4_decode_total(b in bytes(128)) {
        let _ = Ipv4Packet::decode_buf(&buf(&b));
    }

    #[test]
    fn tcp_decode_total(b in bytes(128)) {
        let _ = TcpSegment::decode_buf(&buf(&b), None);
        let _ = TcpSegment::decode_buf(&buf(&b), Some(0x1234));
    }

    #[test]
    fn udp_decode_total(b in bytes(96)) {
        let _ = UdpDatagram::decode_buf(&buf(&b), None);
        let _ = UdpDatagram::decode_buf(&buf(&b), sum(IpProtocol::Udp, b.len()));
        let _ = UdpDatagram::decode_buf(&buf(&b), Some(0x1234));
    }

    // Adversarial option lists: arbitrary bytes spliced into the option
    // region of an otherwise valid header. Exercises every option
    // parser (wscale, SACK-permitted, SACK blocks, timestamps, MSS),
    // RFC 1122 unknown-kind skipping, truncated lengths, and the
    // `len < 2` check that prevents a zero-length-option parse loop.
    #[test]
    fn garbled_option_lists_never_panic_or_loop(opts in bytes(40)) {
        let seg = TcpSegment { header: tcp_header(), payload: PacketBuf::from_vec(b"x".to_vec()) };
        let mut wire = seg.encode_buf(None).unwrap().to_vec();
        // Rewrite the data offset to cover the injected option bytes
        // (rounded down to a 32-bit boundary) and splice them in.
        let opt_len = opts.len() & !3;
        wire.splice(20..20, opts[..opt_len].iter().copied());
        wire[12] = (((20 + opt_len) / 4) as u8) << 4;
        // What the decoder accepts, it keeps byte for byte up to
        // End-of-List, and its encoding decodes to the same segment.
        if let Ok(seg) = TcpSegment::decode_buf(&buf(&wire), None) {
            let kept = seg.header.options.as_bytes().len();
            prop_assert_eq!(seg.header.options.as_bytes(), &wire[20..20 + kept]);
            let again = seg.clone().encode_buf(None).unwrap();
            prop_assert_eq!(TcpSegment::decode_buf(&again, None).unwrap(), seg);
        }
    }

    // Well-formed option kinds with every possible length byte: a known
    // kind with a wrong length must come back `Err`, never a panic or
    // a mis-parse that claims the following option's bytes.
    #[test]
    fn known_option_kinds_with_arbitrary_lengths(kind in 0u8..=16, len: u8, fill: u8) {
        let seg = TcpSegment { header: tcp_header(), payload: PacketBuf::new() };
        let mut wire = seg.encode_buf(None).unwrap().to_vec();
        let mut opts = vec![kind, len];
        opts.resize(40, fill);
        wire.splice(20..20, opts.iter().copied());
        wire[12] = (((20 + 40) / 4) as u8) << 4;
        let _ = TcpSegment::decode_buf(&buf(&wire), None);
    }

    // Truncations and single-byte corruptions of well-formed packets:
    // the adversarial cases a pure random byte soup rarely reaches
    // (valid length fields with one byte missing, bad option lengths
    // inside an otherwise valid TCP header, ...).
    #[test]
    fn truncated_valid_packets_never_panic(cut in 0usize..200, flip in 0usize..200) {
        let mut header = tcp_header();
        for option in [
            foxwire::TcpOption::MaxSegmentSize(1460),
            foxwire::TcpOption::WindowScale(7),
            foxwire::TcpOption::SackPermitted,
            foxwire::TcpOption::Timestamps(1000, 2000),
        ] {
            header.options.push(option).unwrap();
        }
        let tcp = TcpSegment { header, payload: PacketBuf::from_vec(b"payload".to_vec()) };
        let seg = tcp.encode_v4(Some((A, B))).unwrap().to_vec();
        let ip = Ipv4Packet {
            header: foxwire::ipv4::Ipv4Header::new(IpProtocol::Tcp, A, B),
            payload: PacketBuf::from_vec(seg.clone()),
        }
        .encode_buf()
        .unwrap()
        .to_vec();
        for base in [&seg, &ip] {
            let cut = cut.min(base.len());
            let _ = TcpSegment::decode_buf(&buf(&base[..cut]), None);
            let _ = Ipv4Packet::decode_buf(&buf(&base[..cut]));
            let mut mutated = base.clone();
            let flip = flip % mutated.len().max(1);
            if let Some(b) = mutated.get_mut(flip) {
                *b = b.wrapping_add(1);
            }
            let _ = TcpSegment::decode_buf(&buf(&mutated), None);
            let _ = Ipv4Packet::decode_buf(&buf(&mutated));
            let _ = UdpDatagram::decode_buf(&buf(&mutated), sum(IpProtocol::Udp, mutated.len()));
            let _ = ArpPacket::decode(&mutated);
            let _ = IcmpEcho::decode(&mutated);
        }
    }
}
