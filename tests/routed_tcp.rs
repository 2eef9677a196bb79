//! End-to-end across subnets: the structured TCP connects from
//! 10.0.0.1 through an IP router to 10.0.1.2 — two simulated Ethernet
//! segments, gateway routing, per-segment ARP, TTL decrement, and the
//! full TCP session on top. The deepest composition the substrate
//! supports, exercised end to end.

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
use std::cell::{Cell, RefCell};
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

#[test]
fn tcp_session_through_the_router() {
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

    let received = Rc::new(RefCell::new(Vec::new()));
    let events = Rc::new(RefCell::new(Vec::new()));
    server.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
    let ev = events.clone();
    let conn = client
        .open(
            TcpPattern::Active { remote: Ipv4Addr::new(10, 0, 1, 2), remote_port: 80, local_port: 0 },
            Box::new(move |e| ev.borrow_mut().push(e)),
        )
        .unwrap();

    // Drive both segments and all three boxes on one logical clock,
    // counting the instants the loop stops at.
    let (instants, last) = (Cell::new(0u64), Cell::new(None));
    let drive = |client: &mut Stack, server: &mut Stack, router: &mut Router, until_ms: u64| {
        simnet::drive(
            &[&net1, &net2],
            &mut (client, server, router),
            |(c, s, r), now| {
                if last.replace(Some(now)) != Some(now) {
                    instants.set(instants.get() + 1);
                }
                c.step(now) | s.step(now) | r.step(now)
            },
            |_| false,
            |(c, s, r)| [c.poll_at(), s.poll_at(), r.poll_at()].into_iter().flatten().min(),
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(until_ms),
        );
    };

    drive(&mut client, &mut server, &mut router, 2_000);
    assert!(
        events.borrow().contains(&TcpEvent::Established),
        "handshake across the router: {:?}, router {:?}",
        events.borrow(),
        router.stats()
    );

    // Adopt the server-side child and stream data across.
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

    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 247) as u8).collect();
    let mut sent = 0;
    for _ in 0..200 {
        sent += client.send_data(conn, &payload[sent..]).unwrap_or(0);
        let base = net1.now().max(net2.now()).as_millis();
        drive(&mut client, &mut server, &mut router, base + 100);
        if received.borrow().len() >= payload.len() {
            break;
        }
    }
    assert_eq!(received.borrow().len(), payload.len(), "router stats: {:?}", router.stats());
    assert_eq!(&received.borrow()[..], &payload[..]);
    assert!(router.stats().forwarded > 80, "every segment crossed the router: {:?}", router.stats());

    // Clean close across subnets.
    client.close(conn).unwrap();
    let base = net1.now().max(net2.now()).as_millis();
    drive(&mut client, &mut server, &mut router, base + 500);
    assert!(
        events.borrow().iter().any(|e| matches!(e, TcpEvent::PeerClosed)) || {
            // server closed nothing yet; client is in FIN-WAIT-2 once its
            // FIN is acked — verify via state.
            client.state_of(conn) == Some(foxtcp::TcpState::FinWait2)
        }
    );

    // Every box reports when it is next due, so the loop skips the
    // ticks at which none is.
    let ticks = net1.now().as_millis();
    assert!(instants.get() < ticks, "stopped at {} instants over {ticks} ticks", instants.get());
}
