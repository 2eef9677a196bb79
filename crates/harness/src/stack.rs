//! Stack assembly — the paper's Fig. 3, as code:
//!
//! ```text
//! structure Device = ...
//! structure Eth = Eth (structure Lower = Device ...)
//! structure Ip  = Ip  (structure Lower = Eth ...)
//! structure Standard_Tcp = Tcp (structure Lower = Ip,  val do_checksums = true  ...)
//! structure Special_Tcp  = Tcp (structure Lower = Eth, val do_checksums = false ...)
//! ```
//!
//! Here the instantiations are generic-type applications; the compiler
//! checks every sharing constraint. The same device/Ethernet/IP substrate
//! also carries the x-kernel baseline, so the Table 1 comparison holds
//! everything but the TCP implementation (and its cost model) equal.

use crate::station::{ConnHandle, ScaleCounters, Station, StationStats};
use fox_scheduler::SchedHandle;
use foxbasis::obs::{ConnMetrics, EventSink};
use foxbasis::time::VirtualTime;
use foxproto::aux::IpAux;
use foxproto::dev::{BatchConfig, Dev};
use foxproto::eth::Eth;
use foxproto::ip::{Ip, IpConfig};
use foxproto::vp::SizedPayload;
use foxproto::{EthAux, IpAuxImpl, Protocol};
use foxtcp::{ConnectingSocket, EstablishedSocket, ListeningSocket, Tcp, TcpConfig, TcpConnId, TcpEvent};
use foxwire::ether::{EthAddr, EtherType};
use foxwire::ipv4::{IpProtocol, Ipv4Addr};
use simnet::{CostModel, Host, HostHandle, SimNet};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use xktcp::{XkConfig, XkEvent, XkTcp};

/// Which stack to build for an experiment.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StackKind {
    /// `Standard_Tcp`: the structured TCP over IP over Ethernet.
    FoxStandard,
    /// `Special_Tcp`: the structured TCP directly over Ethernet,
    /// checksums off (Fig. 3's non-standard composition).
    FoxSpecial,
    /// The x-kernel/Berkeley-style baseline over IP over Ethernet.
    XKernel,
}

impl StackKind {
    /// Builds a station of this kind attached to `net` — the single
    /// constructor under [`crate::cell::Cell::pair`] and `many_flows`.
    ///
    /// `id` numbers the host (MAC `02:...:id`, IP `10.0.0.id`); the
    /// station's peer is host `peer_id`. `cost` is the machine model;
    /// `profiled` enables the Table 2 counters. `sink` is installed in
    /// every layer (device, host GC, TCP engine), stamped with the wire
    /// port the station was attached to. `BatchConfig::default()` (both
    /// bursts 1) is exactly the unbatched device.
    #[allow(clippy::too_many_arguments, reason = "pinned: foxperf compiles against this signature")]
    pub fn build_batched(
        self,
        net: &SimNet,
        id: u16,
        peer_id: u16,
        cost: CostModel,
        profiled: bool,
        tcp_cfg: TcpConfig,
        sink: EventSink,
        batch: BatchConfig,
    ) -> Box<dyn Station> {
        let sub = Substrate::new(net, id, cost, profiled, &sink, batch);
        match self {
            StackKind::FoxStandard => standard_station(sub, id, peer_id, tcp_cfg),
            StackKind::FoxSpecial => special_station(sub, peer_id, tcp_cfg),
            StackKind::XKernel => xk_station(sub, id, peer_id, &tcp_cfg),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StackKind::FoxStandard => "Fox Net",
            StackKind::FoxSpecial => "Fox Net (TCP/Eth)",
            StackKind::XKernel => "x-kernel",
        }
    }
}

fn host_handle(id: u16, cost: CostModel, profiled: bool) -> HostHandle {
    let name: &'static str = match id {
        1 => "host1",
        2 => "host2",
        _ => "host",
    };
    HostHandle::new(Host::new(name, cost, profiled))
}

/// MAC for a station id. Ids below 256 keep the classic
/// `02:00:00:00:00:<id>` form; the high byte extends the space so the
/// scale experiment can attach hundreds of hosts to one segment.
pub fn mac_of(id: u16) -> EthAddr {
    EthAddr([0x02, 0, 0, 0, (id >> 8) as u8, (id & 0xff) as u8])
}

/// IP for a station id: `10.0.<hi>.<lo>` (same as the old
/// `10.0.0.<id>` for ids below 256).
pub fn ip_of(id: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (id >> 8) as u8, (id & 0xff) as u8)
}

/// A /16 host config: like [`IpConfig::isolated`] but wide enough that
/// the scale experiment's hosts (10.0.1.x and up) stay on-subnet.
fn ip_config(local: Ipv4Addr) -> IpConfig {
    IpConfig { local, prefix_len: 16, gateway: None, ttl: 64 }
}

/// What all three compositions stand on — Fig. 3's `Device` and `Eth`
/// lines: the simulated machine, and a batched, observed device under
/// Ethernet.
struct Substrate {
    host: HostHandle,
    /// The caller's sink stamped with the wire port `net.attach` handed
    /// out — the host id `SimNet` stamps its own events with — so the
    /// device-side and wire-side views of one frame land under the same
    /// host whatever order stations are built in.
    sink: EventSink,
    mac: EthAddr,
    eth: Eth<Dev>,
}

impl Substrate {
    fn new(
        net: &SimNet,
        id: u16,
        cost: CostModel,
        profiled: bool,
        sink: &EventSink,
        batch: BatchConfig,
    ) -> Substrate {
        let host = host_handle(id, cost, profiled);
        let mac = mac_of(id);
        let port = net.attach(mac);
        let sink = sink.for_host(port.index());
        host.with(|h| h.set_obs(sink.clone()));
        let mut dev = Dev::new(port, host.clone());
        dev.set_batching(batch);
        dev.set_obs(sink.clone());
        Substrate { eth: Eth::new(dev, mac, host.clone()), host, sink, mac }
    }

    /// `Ip (structure Lower = Eth ...)` for station `id`, with the aux
    /// structure a TCP over it needs.
    fn ip(self, id: u16) -> (HostHandle, EventSink, Ip<Eth<Dev>>, IpAuxImpl) {
        let local = ip_of(id);
        let ip = Ip::new(self.eth, self.mac, ip_config(local), self.host.clone());
        // The TCP aux carries the *link* MTU (1500 on Ethernet), not IP's
        // post-header capacity: RFC 879 expresses the MSS against the link
        // MTU (mss_for_mtu subtracts both 20-byte headers), so a 1500-byte
        // link advertises 1460 and each full segment fills a frame exactly.
        let aux = IpAuxImpl::new(local, IpProtocol::Tcp, foxwire::ether::MTU);
        (self.host, self.sink, ip, aux)
    }
}

/// `Standard_Tcp = Tcp (structure Lower = Ip ...)`.
fn standard_station(sub: Substrate, id: u16, peer_id: u16, tcp_cfg: TcpConfig) -> Box<dyn Station> {
    let (host, sink, ip, aux) = sub.ip(id);
    let sched = SchedHandle::new();
    let tcp = Tcp::new(ip, aux, IpProtocol::Tcp, tcp_cfg, sched.clone(), host.clone());
    FoxStation::boxed(tcp, sched, host, sink, ip_of(peer_id), StackKind::FoxStandard)
}

/// `Special_Tcp = Tcp (structure Lower = Eth ...)` — with the
/// `SizedPayload` virtual protocol delimiting segments, and TCP
/// checksums off (the Ethernet FCS carries integrity).
fn special_station(sub: Substrate, peer_id: u16, mut tcp_cfg: TcpConfig) -> Box<dyn Station> {
    tcp_cfg.compute_checksums = false; // val do_checksums = false
    let eth = SizedPayload::new(sub.eth);
    let sched = SchedHandle::new();
    let tcp = Tcp::new(eth, EthAux::new(), EtherType::TcpDirect, tcp_cfg, sched.clone(), sub.host.clone());
    FoxStation::boxed(tcp, sched, sub.host, sub.sink, mac_of(peer_id), StackKind::FoxSpecial)
}

/// The x-kernel baseline over the standard substrate.
fn xk_station(sub: Substrate, id: u16, peer_id: u16, tcp_cfg: &TcpConfig) -> Box<dyn Station> {
    let (host, sink, ip, aux) = sub.ip(id);
    let cfg = XkConfig {
        window: tcp_cfg.initial_window,
        send_buffer: tcp_cfg.send_buffer,
        checksums: tcp_cfg.compute_checksums,
        delayed_ack_ms: tcp_cfg.delayed_ack_ms,
        time_wait_ms: tcp_cfg.time_wait_ms,
        max_retransmits: tcp_cfg.max_retransmits,
        backlog: tcp_cfg.backlog,
        window_scale: tcp_cfg.window_scale,
        sack: tcp_cfg.sack,
        timestamps: tcp_cfg.timestamps,
        ack_coalesce_segments: tcp_cfg.ack_coalesce_segments,
    };
    let mut tcp = XkTcp::new(ip, aux, IpProtocol::Tcp, cfg, host.clone());
    tcp.set_obs(sink);
    Box::new(XkStation {
        tcp,
        host,
        peer: ip_of(peer_id),
        conns: Vec::new(),
        listener: None,
        accepted: VecDeque::new(),
        state: BTreeMap::new(),
    })
}

// ----- Fox station -----

#[derive(Default)]
struct ConnBuf {
    established: bool,
    peer_closed: bool,
    finished: bool,
    data: Vec<u8>,
}

/// A connection at its current lifecycle stage: the typestate wrapper
/// the station holds for it. Sending requires promotion to
/// `Established` first — there is no way to reach `send_data` from the
/// `Connecting` arm.
enum SocketStage {
    /// Handshake in flight (active open or freshly accepted child).
    Connecting(ConnectingSocket),
    /// Synchronized: data can move.
    Established(EstablishedSocket),
}

struct FoxStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    tcp: Tcp<L, A>,
    _sched: SchedHandle,
    host: HostHandle,
    peer: L::Peer,
    kind: &'static str,
    bufs: BTreeMap<u32, Rc<RefCell<ConnBuf>>>,
    accepted: Rc<RefCell<VecDeque<TcpConnId>>>,
    listener: Option<ListeningSocket>,
    socks: BTreeMap<u32, SocketStage>,
}

fn buf_handler(buf: Rc<RefCell<ConnBuf>>) -> foxproto::Handler<TcpEvent> {
    Box::new(move |ev| {
        let mut b = buf.borrow_mut();
        match ev {
            TcpEvent::Established => b.established = true,
            // `recv` takes the whole vector, so most deliveries find the
            // buffer drained: keep the engine's vector, copy nothing.
            TcpEvent::Data(d) if b.data.is_empty() => b.data = d,
            TcpEvent::Data(d) => b.data.extend_from_slice(&d),
            TcpEvent::PeerClosed => b.peer_closed = true,
            TcpEvent::Closed | TcpEvent::Reset | TcpEvent::TimedOut => b.finished = true,
            TcpEvent::NewConnection(_) | TcpEvent::Urgent(_) => {}
        }
    })
}

impl<L, A> FoxStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn boxed(
        mut tcp: Tcp<L, A>,
        sched: SchedHandle,
        host: HostHandle,
        sink: EventSink,
        peer: L::Peer,
        kind: StackKind,
    ) -> Box<dyn Station>
    where
        L: 'static,
        A: 'static,
    {
        tcp.set_obs(sink);
        Box::new(FoxStation {
            tcp,
            _sched: sched,
            host,
            peer,
            kind: kind.name(),
            bufs: BTreeMap::new(),
            accepted: Rc::new(RefCell::new(VecDeque::new())),
            listener: None,
            socks: BTreeMap::new(),
        })
    }

    /// Promotes a `Connecting` socket to `Established` if its handshake
    /// has completed; leaves it (and any other stage) untouched
    /// otherwise.
    fn promote(&mut self, conn: ConnHandle) {
        if matches!(self.socks.get(&conn), Some(SocketStage::Connecting(_))) {
            let Some(SocketStage::Connecting(sock)) = self.socks.remove(&conn) else {
                unreachable!("just matched Connecting");
            };
            let stage = match sock.try_established(&self.tcp) {
                Ok(est) => SocketStage::Established(est),
                Err(still) => SocketStage::Connecting(still),
            };
            self.socks.insert(conn, stage);
        }
    }
}

impl<L, A> Station for FoxStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let buf = Rc::new(RefCell::new(ConnBuf::default()));
        let sock = self
            .tcp
            .connect(self.peer.clone(), remote_port, 0, buf_handler(buf.clone()))
            .expect("active open");
        let conn = sock.id().0;
        self.bufs.insert(conn, buf);
        self.socks.insert(conn, SocketStage::Connecting(sock));
        conn
    }

    fn listen(&mut self, local_port: u16) {
        let acc = self.accepted.clone();
        self.listener = Some(
            self.tcp
                .listen(
                    local_port,
                    Box::new(move |ev| {
                        if let TcpEvent::NewConnection(c) = ev {
                            acc.borrow_mut().push_back(c);
                        }
                    }),
                )
                .expect("listen"),
        );
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        let child = self.accepted.borrow_mut().pop_front()?;
        let listener = self.listener.as_ref()?;
        let buf = Rc::new(RefCell::new(ConnBuf::default()));
        let sock = listener.accept(&mut self.tcp, child, buf_handler(buf.clone())).ok()?;
        self.bufs.insert(child.0, buf);
        self.socks.insert(child.0, SocketStage::Connecting(sock));
        Some(child.0)
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        self.promote(conn);
        match self.socks.get(&conn) {
            Some(SocketStage::Established(sock)) => sock.send_data(&mut self.tcp, data).unwrap_or(0),
            _ => 0, // not yet established (or already closed): nothing taken
        }
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        self.bufs.get(&conn).map_or(Vec::new(), |b| std::mem::take(&mut b.borrow_mut().data))
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.bufs.get(&conn).map_or(0, |b| b.borrow().data.len())
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.bufs.get(&conn).is_some_and(|b| b.borrow().established)
    }

    fn conn_state(&self, conn: ConnHandle) -> &'static str {
        self.tcp.state_of(TcpConnId(conn)).map_or("", |s| s.name())
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.bufs.get(&conn).is_some_and(|b| b.borrow().peer_closed)
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.bufs.get(&conn).is_some_and(|b| b.borrow().finished)
    }

    fn close(&mut self, conn: ConnHandle) {
        // Closing consumes the typestate wrapper, whatever its stage.
        match self.socks.remove(&conn) {
            Some(SocketStage::Connecting(sock)) => {
                let _ = sock.close(&mut self.tcp);
            }
            Some(SocketStage::Established(sock)) => {
                let _ = sock.close(&mut self.tcp);
            }
            None => {
                let _ = self.tcp.close(TcpConnId(conn));
            }
        }
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.tcp.step(now)
    }

    fn host(&self) -> HostHandle {
        self.host.clone()
    }

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn stats(&self) -> StationStats {
        let s = self.tcp.stats();
        StationStats {
            segments_sent: s.segments_sent,
            segments_received: s.segments_received,
            retransmits: s.retransmits,
            bytes_sent: s.bytes_sent,
            fastpath_hits: s.fastpath_hits,
            checksum_failures: s.checksum_failures,
            fast_retransmits: s.fast_retransmits,
            recoveries: s.recoveries,
            rto_fires: s.rto_fires,
            probe_fires: s.probe_fires,
            rst_rejected_seq: s.rst_rejected_seq,
            acks_ignored_unsent_data: s.acks_ignored_unsent_data,
            syns_dropped: s.syns_dropped,
        }
    }

    fn set_obs(&mut self, sink: EventSink) {
        self.tcp.set_obs(sink);
    }

    fn metrics(&self, conn: ConnHandle) -> Option<ConnMetrics> {
        self.tcp.metrics_of(TcpConnId(conn))
    }

    fn scale_counters(&self) -> ScaleCounters {
        let w = self.tcp.wheel_stats();
        let d = self.tcp.demux_stats();
        ScaleCounters {
            timer_arms: w.arms,
            timer_cancels: w.cancels,
            timer_fires: w.fires,
            timer_cascades: w.cascades,
            demux_lookups: d.lookups,
            demux_steps: d.steps,
        }
    }
}

// ----- x-kernel station -----

struct XkStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    tcp: XkTcp<L, A>,
    host: HostHandle,
    peer: L::Peer,
    conns: Vec<xktcp::SockId>,
    listener: Option<xktcp::SockId>,
    accepted: VecDeque<xktcp::SockId>,
    state: BTreeMap<u32, ConnBuf>,
}

impl<L, A> XkStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn pump(&mut self) {
        // Drain events and receive buffers into our ConnBufs.
        if let Some(l) = self.listener {
            while let Some(ev) = self.tcp.poll_event(l) {
                if let XkEvent::Accepted(c) = ev {
                    self.accepted.push_back(c);
                    self.conns.push(c);
                    self.state.entry(c.0).or_default();
                }
            }
        }
        for i in 0..self.conns.len() {
            let c = self.conns[i];
            while let Some(ev) = self.tcp.poll_event(c) {
                let b = self.state.entry(c.0).or_default();
                match ev {
                    XkEvent::Connected => b.established = true,
                    XkEvent::PeerClosed => b.peer_closed = true,
                    XkEvent::Closed | XkEvent::Reset | XkEvent::TimedOut => b.finished = true,
                    XkEvent::Accepted(_) => {}
                }
            }
            let mut tmp = [0u8; 4096];
            loop {
                let n = self.tcp.recv(c, &mut tmp).unwrap_or(0);
                if n == 0 {
                    break;
                }
                self.state.entry(c.0).or_default().data.extend_from_slice(&tmp[..n]);
            }
        }
    }
}

impl<L, A> Station for XkStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let c = self.tcp.connect(self.peer.clone(), remote_port, 0).expect("connect");
        self.conns.push(c);
        self.state.insert(c.0, ConnBuf::default());
        c.0
    }

    fn listen(&mut self, local_port: u16) {
        self.listener = Some(self.tcp.listen(local_port).expect("listen"));
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        self.accepted.pop_front().map(|c| c.0)
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        self.tcp.send(xktcp::SockId(conn), data).unwrap_or(0)
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        self.state.get_mut(&conn).map_or(Vec::new(), |b| std::mem::take(&mut b.data))
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.state.get(&conn).map_or(0, |b| b.data.len())
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.established)
    }

    fn conn_state(&self, conn: ConnHandle) -> &'static str {
        self.tcp.state_of(xktcp::SockId(conn)).map_or("", |s| s.name())
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.peer_closed)
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.state.get(&conn).is_some_and(|b| b.finished)
    }

    fn close(&mut self, conn: ConnHandle) {
        let _ = self.tcp.close(xktcp::SockId(conn));
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let p = self.tcp.step(now);
        self.pump();
        p
    }

    fn host(&self) -> HostHandle {
        self.host.clone()
    }

    fn kind(&self) -> &'static str {
        "x-kernel"
    }

    fn stats(&self) -> StationStats {
        let s = self.tcp.stats();
        StationStats {
            segments_sent: s.segments_sent,
            segments_received: s.segments_received,
            retransmits: s.retransmits,
            bytes_sent: s.bytes_sent,
            fastpath_hits: 0,
            checksum_failures: s.checksum_failures,
            rst_rejected_seq: s.rst_rejected_seq,
            acks_ignored_unsent_data: s.acks_ignored_unsent_data,
            ..StationStats::default()
        }
    }

    fn set_obs(&mut self, sink: EventSink) {
        self.tcp.set_obs(sink);
    }

    fn metrics(&self, conn: ConnHandle) -> Option<ConnMetrics> {
        self.tcp.metrics_of(xktcp::SockId(conn))
    }

    fn scale_counters(&self) -> ScaleCounters {
        let w = self.tcp.wheel_stats();
        let s = self.tcp.stats();
        ScaleCounters {
            timer_arms: w.arms,
            timer_cancels: w.cancels,
            timer_fires: w.fires,
            timer_cascades: w.cascades,
            demux_lookups: s.demux_lookups,
            demux_steps: s.demux_steps,
        }
    }

    fn debug_line(&self) -> String {
        self.conns.iter().filter_map(|c| self.tcp.debug_of(*c)).collect::<Vec<_>>().join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::bulk_transfer;
    use foxbasis::obs::{Event, DEFAULT_RING_CAPACITY};

    /// Stations stamp their events with the wire port `net.attach` gave
    /// them, not with one guessed from their id — so the device's and the
    /// wire's view of one frame agree on the host even when station 2 is
    /// built (and attached) before station 1.
    #[test]
    fn device_and_wire_events_share_a_host_in_any_build_order() {
        let net = SimNet::new(simnet::NetConfig::default(), 5);
        let sink = EventSink::recording(DEFAULT_RING_CAPACITY);
        net.set_obs(sink.clone());
        let build = |id, peer| {
            let (cost, tcp) = (CostModel::modern(), TcpConfig::default());
            StackKind::FoxStandard.build_batched(
                &net,
                id,
                peer,
                cost,
                false,
                tcp,
                sink.clone(),
                BatchConfig::default(),
            )
        };
        let mut receiver = build(2, 1); // wire port 0
        let mut sender = build(1, 2); // wire port 1
        let r = bulk_transfer(&net, &mut sender, &mut receiver, 20_000, VirtualTime::from_millis(60_000));
        assert_eq!(r.bytes, 20_000);

        let events = sink.events();
        let sizes = |host: u32, pick: fn(&Event) -> Option<u32>| -> Vec<u32> {
            events.iter().filter(|e| e.host == host).filter_map(|e| pick(&e.event)).collect()
        };
        let sent = |e: &Event| if let Event::FrameTx { bytes } = e { Some(*bytes) } else { None };
        let delivered = |e: &Event| if let Event::FrameDeliver { bytes } = e { Some(*bytes) } else { None };
        // On a clean two-port segment, what one port's device sends is
        // what the wire delivers at the other port, in order (the run
        // may end with the last frames still in flight).
        for port in [0, 1] {
            let (tx, rx) = (sizes(port, sent), sizes(1 - port, delivered));
            assert!(!rx.is_empty() && tx.starts_with(&rx), "port {port} sent {tx:?}, the other got {rx:?}");
        }
        assert_ne!(sizes(0, sent), sizes(1, sent), "the directions must differ for the check to bite");
    }
}
