//! The paper's §3 composability claims, checked by the compiler and then
//! exercised: "the compiler can check that any composition of layers is
//! proper and that all the functions required of 'the layer below TCP',
//! for example, are present as functor parameters before allowing the
//! composition."

use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::Cell;
use foxproto::aux::EthAux;
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::udp::Udp;
use foxproto::vp::SizedPayload;
use foxproto::Protocol;
use foxtcp::TcpConfig;
use foxwire::ether::{EthAddr, EtherType};
use simnet::{CostModel, HostHandle, SimNet};
use std::cell::RefCell;
use std::rc::Rc;

/// Fig. 3, both assemblies, as types: this test exists mostly to
/// *compile* — instantiating the TCP functor over IP and over raw
/// Ethernet with the matching aux structures is the paper's
/// compiler-checked-composition demonstration.
#[test]
fn standard_and_special_assemblies_build_and_run() {
    for kind in [StackKind::FoxStandard, StackKind::FoxSpecial] {
        let (net, mut a, mut b) =
            Cell::new(kind, CostModel::modern(), TcpConfig::default(), 3).pair(EventSink::off());
        b.listen(1234);
        let conn = a.connect(1234);
        let mut bc = None;
        drive(
            &net,
            &mut [&mut a, &mut b],
            |st| {
                if bc.is_none() {
                    bc = st[1].accept();
                }
                bc.is_some() && st[0].established(conn)
            },
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(5_000),
        );
        assert!(a.established(conn), "{}: handshake", kind.name());
        a.send(conn, b"composable");
        let bc = bc.unwrap();
        drive(
            &net,
            &mut [&mut a, &mut b],
            |st| st[1].received_len(bc) >= 10,
            VirtualDuration::from_millis(1),
            VirtualTime::from_millis(5_000),
        );
        assert_eq!(b.recv(bc), b"composable", "{}", kind.name());
    }
}

/// The same genericity applies to UDP: `Udp(structure Lower = Eth ...)`
/// — a UDP running directly over Ethernet, no IP — type-checks and
/// works, because `Eth` satisfies `PROTOCOL` and `EthAux` satisfies
/// `IP_AUX`.
#[test]
fn udp_directly_over_ethernet() {
    let net = SimNet::ethernet_10mbps(9);
    let mk = |id: u8| {
        let host = HostHandle::free();
        let mac = EthAddr::host(id);
        let eth = SizedPayload::new(Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone()));
        Udp::new(eth, EthAux::new(), EtherType::TcpDirect, false, host)
    };
    let mut a = mk(1);
    let mut b = mk(2);
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    b.open(6969, Box::new(move |m| g.borrow_mut().push(m))).unwrap();
    let sock = a.open(5000, Box::new(|_| {})).unwrap();
    a.send(sock, (EthAddr::host(2), 6969), b"udp over raw ethernet".to_vec()).unwrap();
    simnet::settle(&[&net], |now| a.step(now) | b.step(now));
    assert_eq!(got.borrow().len(), 1);
    assert_eq!(got.borrow()[0].payload, b"udp over raw ethernet");
    assert_eq!(got.borrow()[0].src, (EthAddr::host(1), 5000));
}
