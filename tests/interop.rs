//! Interoperation: the structured Fox TCP and the monolithic x-kernel
//! baseline speak the same RFC 793 wire protocol, so they must talk to
//! each other — in both directions, under loss, with graceful closes.
//! (The paper ran its stack against other implementations on a live
//! Ethernet; this is the simulated equivalent.)

use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::station::Station;
use foxharness::Cell;
use foxtcp::TcpConfig;
use simnet::{CostModel, FaultConfig, NetConfig, SimNet};

fn cfg() -> TcpConfig {
    TcpConfig { delayed_ack_ms: None, ..TcpConfig::default() }
}

fn pair(
    client: StackKind,
    server: StackKind,
    seed: u64,
    faults: FaultConfig,
) -> (SimNet, Box<dyn Station>, Box<dyn Station>) {
    let net = NetConfig { faults, ..NetConfig::default() };
    Cell { receiver: server, net, ..Cell::new(client, CostModel::modern(), cfg(), seed) }
        .pair(EventSink::off())
}

fn exchange(client_kind: StackKind, server_kind: StackKind, faults: FaultConfig, bytes: usize) {
    let (net, mut c, mut s) = pair(client_kind, server_kind, 1717, faults);
    s.listen(80);
    let cc = c.connect(80);
    let mut sc = None;
    drive(
        &net,
        &mut [&mut c, &mut s],
        |st| {
            if sc.is_none() {
                sc = st[1].accept();
            }
            sc.is_some() && st[0].established(cc)
        },
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(120_000),
    );
    let sc = sc.unwrap_or_else(|| panic!("{} -> {}: no handshake", client_kind.name(), server_kind.name()));

    // Client streams `bytes`; server echoes the total count at the end.
    let payload: Vec<u8> = (0..bytes as u32).map(|i| (i % 253) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    drive(
        &net,
        &mut [&mut c, &mut s],
        |st| {
            if sent < payload.len() {
                sent += st[0].send(cc, &payload[sent..]);
            }
            received.extend_from_slice(&st[1].recv(sc));
            received.len() >= payload.len()
        },
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(600_000),
    );
    assert_eq!(
        received.len(),
        payload.len(),
        "{} -> {}: transfer incomplete",
        client_kind.name(),
        server_kind.name()
    );
    assert_eq!(received, payload, "{} -> {}: data corrupted", client_kind.name(), server_kind.name());

    // Graceful close initiated by the client.
    c.close(cc);
    drive(
        &net,
        &mut [&mut c, &mut s],
        |st| st[1].peer_closed(sc),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(600_000),
    );
    s.close(sc);
    drive(
        &net,
        &mut [&mut c, &mut s],
        |st| st[1].finished(sc),
        VirtualDuration::from_millis(1),
        VirtualTime::from_millis(600_000),
    );
}

#[test]
fn fox_client_to_xk_server() {
    exchange(StackKind::FoxStandard, StackKind::XKernel, FaultConfig::default(), 60_000);
}

#[test]
fn xk_client_to_fox_server() {
    exchange(StackKind::XKernel, StackKind::FoxStandard, FaultConfig::default(), 60_000);
}

#[test]
fn fox_to_xk_with_loss() {
    exchange(
        StackKind::FoxStandard,
        StackKind::XKernel,
        FaultConfig { drop_chance: 0.03, ..FaultConfig::default() },
        30_000,
    );
}

#[test]
fn xk_to_fox_with_corruption() {
    exchange(
        StackKind::XKernel,
        StackKind::FoxStandard,
        FaultConfig { corrupt_chance: 0.03, ..FaultConfig::default() },
        30_000,
    );
}

#[test]
fn fox_to_fox_duplication_and_jitter() {
    exchange(
        StackKind::FoxStandard,
        StackKind::FoxStandard,
        FaultConfig {
            duplicate_chance: 0.05,
            jitter: VirtualDuration::from_millis(1),
            ..FaultConfig::default()
        },
        30_000,
    );
}
