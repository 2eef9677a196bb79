//! The substrate protocols on their own: ARP resolution, ICMP ping, and
//! a UDP echo exchange — the x-kernel-style layers below TCP working as
//! a host stack (several upper protocols sharing one Ip instance via
//! `Shared`).
//!
//! Run with: `cargo run --example ping`

use foxbasis::time::VirtualTime;
use foxproto::aux::IpAuxImpl;
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::icmp::{Icmp, Ping};
use foxproto::ip::{Ip, IpConfig};
use foxproto::shared::Shared;
use foxproto::udp::Udp;
use foxproto::Protocol;
use foxwire::ether::EthAddr;
use foxwire::ipv4::{IpProtocol, Ipv4Addr};
use simnet::{HostHandle, SimNet};
use std::cell::RefCell;
use std::rc::Rc;

type HostIp = Shared<Ip<Eth<Dev>>>;

struct HostStack {
    ip: HostIp,
    icmp: Icmp<HostIp>,
    udp: Udp<HostIp, IpAuxImpl>,
}

fn station(net: &SimNet, id: u8) -> HostStack {
    let host = HostHandle::free();
    let mac = EthAddr::host(id);
    let local = Ipv4Addr::new(192, 168, 69, id);
    let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
    let ip = Shared::new(Ip::new(eth, mac, IpConfig::isolated(local), host.clone()));
    let mtu = ip.with(|i| i.mtu());
    let mut icmp = Icmp::new(ip.clone(), host.clone());
    icmp.activate().expect("icmp responder");
    let udp = Udp::new(ip.clone(), IpAuxImpl::new(local, IpProtocol::Udp, mtu), IpProtocol::Udp, true, host);
    HostStack { ip, icmp, udp }
}

impl HostStack {
    fn step(&mut self, now: VirtualTime) -> bool {
        self.icmp.step(now) | self.udp.step(now) | self.ip.step(now)
    }
}

fn main() {
    let net = SimNet::ethernet_10mbps(5);
    let mut a = station(&net, 1);
    let mut b = station(&net, 2);

    println!("== ping 192.168.69.2 (first probe also resolves ARP)");
    let mut ping = Ping::new(&mut a.icmp, 0xF0F0).expect("ping session");
    for _ in 0..4 {
        let t0 = net.now();
        let seq = ping.probe(&mut a.icmp, Ipv4Addr::new(192, 168, 69, 2), t0).unwrap();
        simnet::settle(&[&net], |now| a.step(now) | b.step(now));
        let got = ping.replies().iter().any(|r| r.seq == seq);
        println!("   icmp_seq={seq} {} t={}", if got { "reply received" } else { "timed out" }, net.now());
    }
    println!("   {} requests answered by the remote responder", b.icmp.stats().requests_answered);

    println!();
    println!("== UDP echo on port 6969 (responds with reversed chunks, like the classic demo)");
    let echo_log = Rc::new(RefCell::new(Vec::<(Ipv4Addr, u16, Vec<u8>)>::new()));
    let log = echo_log.clone();
    b.udp
        .open(6969, Box::new(move |m| log.borrow_mut().push((m.src.0, m.src.1, m.payload.to_vec()))))
        .expect("bind echo port");

    let replies = Rc::new(RefCell::new(Vec::<Vec<u8>>::new()));
    let r2 = replies.clone();
    let a_sock = a.udp.open(5000, Box::new(move |m| r2.borrow_mut().push(m.payload.to_vec()))).unwrap();

    a.udp.send(a_sock, (Ipv4Addr::new(192, 168, 69, 2), 6969), b"abcdefg".to_vec()).unwrap();
    simnet::settle(&[&net], |now| a.step(now) | b.step(now));

    // The echo application: reverse and send back.
    let pending: Vec<_> = echo_log.borrow_mut().drain(..).collect();
    let b_sock = b.udp.open(6969 + 1, Box::new(|_| {})).unwrap();
    for (src, port, mut data) in pending {
        data.reverse();
        b.udp.send(b_sock, (src, port), data).ok(); // back to the sender
    }
    simnet::settle(&[&net], |now| a.step(now) | b.step(now));
    for r in replies.borrow().iter() {
        println!("   echoed back: {:?}", String::from_utf8_lossy(r));
    }

    println!();
    println!("wire totals: {:?}", net.stats());
}
