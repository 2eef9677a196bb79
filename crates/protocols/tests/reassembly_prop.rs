//! Property: IP reassembly is order-independent and duplication-proof —
//! any permutation of a datagram's fragments, with arbitrary duplicates
//! injected, reassembles to the original payload.

use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig, IpIncoming};
use foxproto::Protocol;
use foxwire::ether::{EthAddr, EtherType};
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Header, Ipv4Packet};
use proptest::prelude::*;
use simnet::{HostHandle, SimNet};
use std::cell::RefCell;
use std::rc::Rc;

fn receiving_station(net: &SimNet) -> (Ip<Eth<Dev>>, Rc<RefCell<Vec<IpIncoming>>>) {
    let host = HostHandle::free();
    let mac = EthAddr::host(2);
    let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
    let mut ip = Ip::new(eth, mac, IpConfig::isolated(Ipv4Addr::new(10, 0, 0, 2)), host);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    ip.open(IpProtocol::Udp, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
    (ip, got)
}

fn fragments_of(payload: &[u8], chunk: usize) -> Vec<Ipv4Packet> {
    let chunk = (chunk.max(8) / 8) * 8;
    let mut out = Vec::new();
    let mut off = 0;
    while off < payload.len() {
        let end = (off + chunk).min(payload.len());
        out.push(Ipv4Packet {
            header: Ipv4Header {
                ident: 99,
                more_frags: end < payload.len(),
                frag_offset: (off / 8) as u16,
                ..Ipv4Header::new(IpProtocol::Udp, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            },
            payload: payload[off..end].into(),
        });
        off = end;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_arrival_order_reassembles(
        len in 100usize..6000,
        chunk in 64usize..1480,
        order_seed in any::<u64>(),
        dup_mask in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let payload: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
        let mut frags = fragments_of(&payload, chunk);

        // Deterministic permutation from the seed.
        let mut s = order_seed;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }
        // Duplicate some fragments.
        let dups: Vec<Ipv4Packet> = frags
            .iter()
            .enumerate()
            .filter(|(i, _)| *dup_mask.get(i % dup_mask.len()).unwrap_or(&false))
            .map(|(_, f)| f.clone())
            .collect();
        frags.extend(dups);

        // Inject through a raw Ethernet sender.
        let net = SimNet::ethernet_10mbps(7);
        let (mut ip, got) = receiving_station(&net);
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let conn = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        for f in &frags {
            raw.send(conn, EthAddr::host(2), f.clone().encode_buf().unwrap()).unwrap();
        }
        simnet::settle(&[&net], |now| ip.step(now));
        // A complete duplicate set legitimately reassembles a second
        // datagram (IP is not required to suppress whole-datagram
        // duplication — transports are). The invariants: at least one
        // delivery, and every delivery byte-exact.
        prop_assert!(!got.borrow().is_empty(), "the datagram must reassemble");
        for d in got.borrow().iter() {
            prop_assert_eq!(&d.payload, &payload);
        }
    }

    /// Overlapping and duplicate fragments resolve deterministically:
    /// first-arrival wins, byte for byte, against a reference model that
    /// applies the same policy to a flat array. Conflicting overlap
    /// content (noise fragments carry a different fill) makes any
    /// deviation from the policy visible.
    #[test]
    fn overlapping_fragments_first_arrival_wins(
        total_units in 3usize..16,
        chunk_units in 1usize..4,
        noise in proptest::collection::vec((0usize..16, 1usize..8, any::<u8>()), 0..12),
        order_seed in any::<u64>(),
    ) {
        let total = total_units * 8;
        let payload: Vec<u8> = (0..total as u32).map(|i| (i % 249) as u8).collect();

        // (offset, content, is_last) in wire form.
        let mut pieces: Vec<(usize, Vec<u8>, bool)> = Vec::new();
        let chunk = chunk_units * 8;
        let mut off = 0;
        while off < total {
            let end = (off + chunk).min(total);
            pieces.push((off, payload[off..end].to_vec(), end == total));
            off = end;
        }
        for (ou, lu, fill) in &noise {
            let o = (ou % total_units) * 8;
            let l = ((lu % total_units).max(1) * 8).min(total - o);
            if l == 0 { continue; }
            // Noise never claims to be the final fragment, so the
            // datagram length is fixed by the genuine last fragment.
            pieces.push((o, vec![*fill; l], false));
        }

        // Deterministic permutation of real + noise arrivals.
        let mut s = order_seed;
        for i in (1..pieces.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            pieces.swap(i, j);
        }

        // Reference model: a flat byte array filled first-arrival-wins,
        // completing (and resetting, as the reassembler removes done
        // datagrams) exactly when [0, total) is covered.
        let mut model: Vec<Option<u8>> = Vec::new();
        let mut model_total: Option<usize> = None;
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (o, data, last) in &pieces {
            if *last && model_total.is_none() {
                model_total = Some(o + data.len());
            }
            if model.len() < o + data.len() {
                model.resize(o + data.len(), None);
            }
            for (i, &b) in data.iter().enumerate() {
                if model[o + i].is_none() {
                    model[o + i] = Some(b);
                }
            }
            if let Some(t) = model_total {
                if model.len() >= t && model[..t].iter().all(|b| b.is_some()) {
                    expected.push(model[..t].iter().map(|b| b.unwrap()).collect());
                    model.clear();
                    model_total = None;
                }
            }
        }

        let net = SimNet::ethernet_10mbps(13);
        let (mut ip, got) = receiving_station(&net);
        let host = HostHandle::free();
        let mac = EthAddr::host(7);
        let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
        let conn = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
        for (o, data, last) in &pieces {
            let pkt = Ipv4Packet {
                header: Ipv4Header {
                    ident: 44,
                    more_frags: !*last,
                    frag_offset: (o / 8) as u16,
                    ..Ipv4Header::new(
                        IpProtocol::Udp,
                        Ipv4Addr::new(10, 0, 0, 1),
                        Ipv4Addr::new(10, 0, 0, 2),
                    )
                },
                payload: data.as_slice().into(),
            };
            raw.send(conn, EthAddr::host(2), pkt.encode_buf().unwrap()).unwrap();
        }
        simnet::settle(&[&net], |now| ip.step(now));

        let got = got.borrow();
        prop_assert_eq!(got.len(), expected.len(), "completion count must match the model");
        for (d, want) in got.iter().zip(expected.iter()) {
            prop_assert_eq!(&d.payload, want);
        }
        // The genuine content always wins over later-arriving noise for
        // the first completed datagram when the real fragments led.
        if let Some(first) = expected.first() {
            prop_assert_eq!(first.len(), total);
        }
    }
}

/// Replays the checked-in proptest regression (`reassembly_prop.
/// proptest-regressions`: `len = 100, chunk = 64, order_seed = 0,
/// dup_mask = [true, true, false, ...]`) as a named case, so the
/// historical failure runs on every `cargo test` by name rather than
/// only through proptest's seed file. Both fragments are duplicated —
/// a complete duplicate set — which once tripped the reassembler into
/// delivering a corrupt second datagram.
#[test]
fn regression_complete_duplicate_set_len_100_chunk_64() {
    let len = 100usize;
    let chunk = 64usize;
    let payload: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
    let mut frags = fragments_of(&payload, chunk);

    // order_seed = 0 leaves the shuffle below fully deterministic (and
    // with two fragments, nearly in order) — kept identical to the
    // property body so the replay is the replay.
    let mut s = 0u64;
    for i in (1..frags.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        frags.swap(i, j);
    }
    let dup_mask = [true, true, false, false, false, false, false, false];
    let dups: Vec<Ipv4Packet> = frags
        .iter()
        .enumerate()
        .filter(|(i, _)| dup_mask[i % dup_mask.len()])
        .map(|(_, f)| f.clone())
        .collect();
    frags.extend(dups);

    let net = SimNet::ethernet_10mbps(7);
    let (mut ip, got) = receiving_station(&net);
    let host = HostHandle::free();
    let mac = EthAddr::host(7);
    let mut raw = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host);
    let conn = raw.open(EtherType::Ipv4, Box::new(|_| {})).unwrap();
    for f in &frags {
        raw.send(conn, EthAddr::host(2), f.clone().encode_buf().unwrap()).unwrap();
    }
    simnet::settle(&[&net], |now| ip.step(now));
    assert!(!got.borrow().is_empty(), "the datagram must reassemble");
    for d in got.borrow().iter() {
        assert_eq!(&d.payload, &payload);
    }
}
