//! Two Ethernet segments, one IP router, one TCP session across them.
//!
//! Exercises the whole substrate at once: per-segment ARP, gateway
//! routing at the hosts, store-and-forward at the router (TTL decrement
//! with RFC 1624 incremental checksum update), and the structured TCP on
//! top, end to end.
//!
//! Run with: `cargo run --release --example routed`

use fox_scheduler::SchedHandle;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::aux::IpAuxImpl;
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig};
use foxproto::router::Router;
use foxproto::Protocol;
use foxtcp::{Tcp, TcpConfig, TcpConnId, TcpEvent, TcpPattern};
use foxwire::ether::EthAddr;
use foxwire::ipv4::{IpProtocol, Ipv4Addr};
use simnet::{HostHandle, SimNet};
use std::cell::RefCell;
use std::rc::Rc;

type Stack = Tcp<Ip<Eth<Dev>>, IpAuxImpl>;

fn station(net: &SimNet, mac_id: u8, addr: Ipv4Addr, gateway: Ipv4Addr) -> Stack {
    let host = HostHandle::free();
    let mac = EthAddr::host(mac_id);
    let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
    let ip = Ip::new(
        eth,
        mac,
        IpConfig { local: addr, prefix_len: 24, gateway: Some(gateway), ttl: 64 },
        host.clone(),
    );
    let mtu = ip.mtu();
    let aux = IpAuxImpl::new(addr, IpProtocol::Tcp, mtu);
    let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
    Tcp::new(ip, aux, IpProtocol::Tcp, cfg, SchedHandle::new(), host)
}

fn main() {
    println!("segment 1 (10.0.0.0/24)  <->  router  <->  segment 2 (10.0.1.0/24)");
    let net1 = SimNet::ethernet_10mbps(11);
    let net2 = SimNet::ethernet_10mbps(22);
    let mut client = station(&net1, 1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 254));
    let mut server = station(&net2, 2, Ipv4Addr::new(10, 0, 1, 2), Ipv4Addr::new(10, 0, 1, 254));
    let mut router = Router::new();
    router
        .add_interface(&net1, EthAddr::host(101), Ipv4Addr::new(10, 0, 0, 254), 24, HostHandle::free())
        .unwrap();
    router
        .add_interface(&net2, EthAddr::host(102), Ipv4Addr::new(10, 0, 1, 254), 24, HostHandle::free())
        .unwrap();

    let events = Rc::new(RefCell::new(Vec::new()));
    let received = Rc::new(RefCell::new(Vec::new()));
    server.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
    let ev = events.clone();
    let conn = client
        .open(
            TcpPattern::Active { remote: Ipv4Addr::new(10, 0, 1, 2), remote_port: 80, local_port: 0 },
            Box::new(move |e| ev.borrow_mut().push(e)),
        )
        .unwrap();

    let drive = |client: &mut Stack, server: &mut Stack, router: &mut Router, ms: u64| {
        let deadline = net1.now().max(net2.now()) + VirtualDuration::from_millis(ms);
        simnet::drive(
            &[&net1, &net2],
            &mut (client, server, router),
            |(c, s, r), now| c.step(now) | s.step(now) | r.step(now),
            |_| false,
            |_| Some(VirtualTime::ZERO),
            VirtualDuration::from_millis(1),
            deadline,
        );
    };

    drive(&mut client, &mut server, &mut router, 2_000);
    assert!(events.borrow().contains(&TcpEvent::Established));
    println!("connected: 10.0.0.1 -> 10.0.1.2 (SYN crossed the router both ways)");

    let r = received.clone();
    server
        .set_handler(
            TcpConnId(1),
            Box::new(move |e| {
                if let TcpEvent::Data(d) = e {
                    r.borrow_mut().extend_from_slice(&d);
                }
            }),
        )
        .unwrap();

    let payload: Vec<u8> = (0..120_000u32).map(|i| (i % 247) as u8).collect();
    let mut sent = 0;
    while received.borrow().len() < payload.len() {
        sent += client.send_data(conn, &payload[sent..]).unwrap_or(0);
        drive(&mut client, &mut server, &mut router, 100);
    }
    println!(
        "transferred {} bytes across subnets, byte-exact: {}",
        received.borrow().len(),
        received.borrow().as_slice() == payload.as_slice()
    );
    println!("router: {:?}", router.stats());
    println!("segment 1: {:?}", net1.stats());
    println!("segment 2: {:?}", net2.stats());
}
