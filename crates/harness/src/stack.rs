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
use foxbasis::flat::FlatIndex;
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
use std::collections::VecDeque;
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
            StackKind::XKernel => xk_over_ip(sub, id, peer_id, &tcp_cfg),
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
    let mut tcp = Tcp::new(ip, aux, IpProtocol::Tcp, tcp_cfg, SchedHandle::new(), host.clone());
    tcp.set_obs(sink);
    fox_station(tcp, host, ip_of(peer_id), StackKind::FoxStandard.name())
}

/// `Special_Tcp = Tcp (structure Lower = Eth ...)` — with the
/// `SizedPayload` virtual protocol delimiting segments, and TCP
/// checksums off (the Ethernet FCS carries integrity).
fn special_station(sub: Substrate, peer_id: u16, mut tcp_cfg: TcpConfig) -> Box<dyn Station> {
    tcp_cfg.compute_checksums = false; // val do_checksums = false
    let eth = SizedPayload::new(sub.eth);
    let mut tcp =
        Tcp::new(eth, EthAux::new(), EtherType::TcpDirect, tcp_cfg, SchedHandle::new(), sub.host.clone());
    tcp.set_obs(sub.sink);
    fox_station(tcp, sub.host, mac_of(peer_id), StackKind::FoxSpecial.name())
}

/// The x-kernel baseline over the standard substrate.
fn xk_over_ip(sub: Substrate, id: u16, peer_id: u16, tcp_cfg: &TcpConfig) -> Box<dyn Station> {
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
    xk_station(tcp, host, ip_of(peer_id))
}

/// Boxes an already-built structured TCP, over any lower layer, as a
/// station whose connections go toward `peer`. `kind` names it in
/// reports.
pub fn fox_station<L, A>(
    tcp: Tcp<L, A>,
    host: HostHandle,
    peer: L::Peer,
    kind: &'static str,
) -> Box<dyn Station>
where
    L: Protocol + 'static,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming> + 'static,
{
    Box::new(FoxStation::new(tcp, host, peer, kind))
}

/// Boxes an already-built x-kernel baseline, over any lower layer, as a
/// station whose connections go toward `peer`.
pub fn xk_station<L, A>(tcp: XkTcp<L, A>, host: HostHandle, peer: L::Peer) -> Box<dyn Station>
where
    L: Protocol + 'static,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming> + 'static,
{
    Box::new(XkStation {
        tcp,
        host,
        peer,
        conns: ConnTable::default(),
        live: Vec::new(),
        listener: None,
        accepted: VecDeque::new(),
    })
}

// ----- The connection table both stations keep -----

/// What a station records of one connection: what its stack has told
/// it, and the bytes `recv` has yet to hand out.
#[derive(Default)]
struct ConnBuf {
    /// The connection's handle, listed under when it ends.
    conn: ConnHandle,
    established: bool,
    peer_closed: bool,
    finished: bool,
    data: Vec<u8>,
}

impl ConnBuf {
    /// The stack delivered the connection's end (Closed, Reset or
    /// TimedOut): lists its handle, once, for [`ConnTable::forget_ended`].
    fn end(&mut self, ended: &RefCell<Vec<ConnHandle>>) {
        if !std::mem::replace(&mut self.finished, true) {
            ended.borrow_mut().push(self.conn);
        }
    }
}

/// A connection in a [`ConnTable`]: its record and the station's own part.
#[derive(Default)]
struct Entry<S> {
    /// `None` only in the index's vacant slots.
    buf: Option<Rc<RefCell<ConnBuf>>>,
    sock: S,
}

/// Every connection a station opened or accepted and has not forgotten,
/// and the one rule by which it forgets them (see [`Station`]).
#[derive(Default)]
struct ConnTable<S> {
    conns: FlatIndex<u32, Entry<S>>,
    /// One past the highest handle filed.
    issued: u32,
    /// Handles whose end the stack has delivered, not yet forgotten:
    /// fox's handlers list them, xk's `pump` does.
    ended: Rc<RefCell<Vec<ConnHandle>>>,
    /// Records of forgotten connections, cleared, for the next ones.
    spare: Vec<Rc<RefCell<ConnBuf>>>,
}

impl<S: Default> ConnTable<S> {
    /// A record for a new connection: a forgotten one's, if one is spare.
    fn new_buf(&mut self) -> Rc<RefCell<ConnBuf>> {
        self.forget_ended();
        self.spare.pop().unwrap_or_default()
    }

    /// Files connection `conn` with its record.
    fn file(&mut self, conn: ConnHandle, buf: Rc<RefCell<ConnBuf>>, sock: S) {
        buf.borrow_mut().conn = conn;
        self.conns.insert(conn, Entry { buf: Some(buf), sock });
        self.issued = self.issued.max(conn + 1);
    }

    /// `conn`'s record, while the station has it.
    fn buf(&self, conn: ConnHandle) -> Option<&RefCell<ConnBuf>> {
        self.conns.get(&conn)?.buf.as_deref()
    }

    /// The forget rule: drops every connection whose end the stack has
    /// delivered, that the stack will deliver nothing more for — nothing
    /// but the table holds its record: fox's engine dropped the handler
    /// holding it when it reaped the connection, and xk's never had one —
    /// and that has nothing left to `recv`. Its record, cleared, is kept
    /// for the next connection.
    fn forget_ended(&mut self) {
        let (conns, spare) = (&mut self.conns, &mut self.spare);
        let over = |c: &Entry<S>| {
            c.buf.as_ref().is_some_and(|b| Rc::strong_count(b) == 1 && b.borrow().data.is_empty())
        };
        self.ended.borrow_mut().retain(|&conn| {
            let Some(buf) = conns.remove_where(&conn, over).and_then(|c| c.buf) else {
                return conns.get(&conn).is_some();
            };
            *buf.borrow_mut() = ConnBuf::default();
            spare.push(buf);
            false
        });
    }

    /// True once the stack has delivered `conn`'s end, or the station has
    /// forgotten it: it issued `conn`, no longer files it, and `unfiled`
    /// (what the stack holds that the station never files: a listener, a
    /// child not yet accepted) says it is not one of those.
    fn finished(&self, conn: ConnHandle, unfiled: impl FnOnce() -> bool) -> bool {
        match self.buf(conn) {
            Some(b) => b.borrow().finished,
            None => conn < self.issued && !unfiled(),
        }
    }
}

/// The `Station` methods both stations answer alike: from their
/// [`ConnTable`], their host and their engine's sink.
macro_rules! answered_alike {
    () => {
        fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
            self.conns.buf(conn).map_or(Vec::new(), |b| std::mem::take(&mut b.borrow_mut().data))
        }

        fn received_len(&self, conn: ConnHandle) -> usize {
            self.conns.buf(conn).map_or(0, |b| b.borrow().data.len())
        }

        fn established(&self, conn: ConnHandle) -> bool {
            self.conns.buf(conn).is_some_and(|b| b.borrow().established)
        }

        fn peer_closed(&self, conn: ConnHandle) -> bool {
            self.conns.buf(conn).is_some_and(|b| b.borrow().peer_closed)
        }

        fn host(&self) -> HostHandle {
            self.host.clone()
        }

        fn set_obs(&mut self, sink: EventSink) {
            self.tcp.set_obs(sink);
        }
    };
}

// ----- Fox station -----

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
    host: HostHandle,
    peer: L::Peer,
    kind: &'static str,
    /// Each connection's record, which its handler fills, and its
    /// typestate wrapper until the user closes it.
    conns: ConnTable<Option<SocketStage>>,
    accepted: Rc<RefCell<VecDeque<TcpConnId>>>,
    listener: Option<ListeningSocket>,
}

impl<L, A> FoxStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn new(tcp: Tcp<L, A>, host: HostHandle, peer: L::Peer, kind: &'static str) -> FoxStation<L, A> {
        FoxStation {
            tcp,
            host,
            peer,
            kind,
            conns: ConnTable::default(),
            accepted: Rc::new(RefCell::new(VecDeque::new())),
            listener: None,
        }
    }

    /// A record for a new connection, and the handler that fills it.
    fn new_buf(&mut self) -> (Rc<RefCell<ConnBuf>>, foxproto::Handler<TcpEvent>) {
        let (buf, ended) = (self.conns.new_buf(), self.conns.ended.clone());
        let b = buf.clone();
        let handler = Box::new(move |ev| {
            let mut b = b.borrow_mut();
            match ev {
                TcpEvent::Established => b.established = true,
                // `recv` takes the whole vector, so most deliveries find the
                // buffer drained: keep the engine's vector, copy nothing.
                TcpEvent::Data(d) if b.data.is_empty() => b.data = d,
                TcpEvent::Data(d) => b.data.extend_from_slice(&d),
                TcpEvent::PeerClosed => b.peer_closed = true,
                TcpEvent::Closed | TcpEvent::Reset | TcpEvent::TimedOut => b.end(&ended),
                TcpEvent::NewConnection(_) | TcpEvent::Urgent(_) => {}
            }
        });
        (buf, handler)
    }
}

impl<L, A> Station for FoxStation<L, A>
where
    L: Protocol + 'static,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming> + 'static,
{
    answered_alike!();

    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let (buf, handler) = self.new_buf();
        let sock = self.tcp.connect(self.peer.clone(), remote_port, 0, handler).expect("active open");
        let conn = sock.id().0;
        self.conns.file(conn, buf, Some(SocketStage::Connecting(sock)));
        conn
    }

    fn listen(&mut self, local_port: u16) {
        let acc = self.accepted.clone();
        let handler = Box::new(move |ev| {
            if let TcpEvent::NewConnection(c) = ev {
                acc.borrow_mut().push_back(c);
            }
        });
        self.listener = Some(self.tcp.listen(local_port, handler).expect("listen"));
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        let child = self.accepted.borrow_mut().pop_front()?;
        let (buf, handler) = self.new_buf();
        // Adopting hands the child what it parked, its end among them.
        buf.borrow_mut().conn = child.0;
        let listener = self.listener.as_ref()?;
        let sock = listener.accept(&mut self.tcp, child, handler).ok()?;
        self.conns.file(child.0, buf, Some(SocketStage::Connecting(sock)));
        Some(child.0)
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        let Some(c) = self.conns.conns.get_mut(&conn) else { return 0 };
        // A `Connecting` wrapper whose handshake has completed is
        // promoted in place first.
        c.sock = match c.sock.take() {
            Some(SocketStage::Connecting(sock)) => Some(match sock.try_established(&self.tcp) {
                Ok(est) => SocketStage::Established(est),
                Err(still) => SocketStage::Connecting(still),
            }),
            stage => stage,
        };
        match &c.sock {
            Some(SocketStage::Established(sock)) => sock.send_data(&mut self.tcp, data).unwrap_or(0),
            _ => 0, // not yet established (or already closed): nothing taken
        }
    }

    fn conn_state(&self, conn: ConnHandle) -> &'static str {
        self.tcp.state_of(TcpConnId(conn)).map_or("", |s| s.name())
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.conns.finished(conn, || self.tcp.state_of(TcpConnId(conn)).is_some())
    }

    fn close(&mut self, conn: ConnHandle) {
        // Closing consumes the typestate wrapper, whatever its stage; the
        // listener closes through its typed wrapper too.
        let _ = match self.conns.conns.get_mut(&conn).and_then(|c| c.sock.take()) {
            Some(SocketStage::Connecting(sock)) => sock.close(&mut self.tcp),
            Some(SocketStage::Established(sock)) => sock.close(&mut self.tcp),
            None => match self.listener.take_if(|l| l.id().0 == conn) {
                Some(listener) => listener.close(&mut self.tcp),
                None => self.tcp.close(TcpConnId(conn)),
            },
        };
    }

    fn abort(&mut self, conn: ConnHandle) {
        // ABORT has no typed wrapper; whatever wrapper the connection
        // (or listener) had dies with it.
        if let Some(c) = self.conns.conns.get_mut(&conn) {
            c.sock = None;
        }
        self.listener.take_if(|l| l.id().0 == conn);
        let _ = self.tcp.abort(TcpConnId(conn));
    }

    fn listener(&self) -> Option<ConnHandle> {
        self.listener.as_ref().map(|l| l.id().0)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let progress = self.tcp.step(now);
        self.conns.forget_ended();
        progress
    }

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn stats(&self) -> StationStats {
        self.tcp.stats()
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

    fn engine(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(&mut self.tcp)
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
    /// Each connection's record, which `pump` fills.
    conns: ConnTable<()>,
    /// The sockets whose end `pump` has not pulled yet: the ones it polls.
    live: Vec<xktcp::SockId>,
    listener: Option<xktcp::SockId>,
    accepted: VecDeque<xktcp::SockId>,
}

impl<L, A> XkStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// Files a new socket and starts polling it.
    fn file(&mut self, sock: xktcp::SockId) {
        let buf = self.conns.new_buf();
        self.conns.file(sock.0, buf, ());
        self.live.push(sock);
    }

    /// Pulls every live socket's events and received bytes into its
    /// record; a socket whose end it pulls is polled no more.
    fn pump(&mut self) {
        if let Some(l) = self.listener {
            while let Some(ev) = self.tcp.poll_event(l) {
                if let XkEvent::Accepted(c) = ev {
                    self.accepted.push_back(c);
                    self.file(c);
                }
            }
        }
        let (tcp, conns) = (&mut self.tcp, &self.conns);
        self.live.retain(|&c| {
            let Some(buf) = conns.buf(c.0) else { return false };
            let mut b = buf.borrow_mut();
            while let Some(ev) = tcp.poll_event(c) {
                match ev {
                    XkEvent::Connected => b.established = true,
                    XkEvent::PeerClosed => b.peer_closed = true,
                    XkEvent::Closed | XkEvent::Reset | XkEvent::TimedOut => b.end(&conns.ended),
                    XkEvent::Accepted(_) => {}
                }
            }
            let mut tmp = [0u8; 4096];
            while let Ok(n @ 1..) = tcp.recv(c, &mut tmp) {
                b.data.extend_from_slice(&tmp[..n]);
            }
            !b.finished
        });
        self.conns.forget_ended();
    }
}

impl<L, A> Station for XkStation<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    answered_alike!();

    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let c = self.tcp.connect(self.peer.clone(), remote_port, 0).expect("connect");
        self.file(c);
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

    fn conn_state(&self, conn: ConnHandle) -> &'static str {
        self.tcp.state_of(xktcp::SockId(conn)).map_or("", |s| s.name())
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        // A child is filed as soon as it is announced: the listener is
        // all the stack holds that the station does not.
        self.conns.finished(conn, || self.listener.is_some_and(|l| l.0 == conn))
    }

    fn close(&mut self, conn: ConnHandle) {
        let _ = self.tcp.close(xktcp::SockId(conn));
    }

    fn listener(&self) -> Option<ConnHandle> {
        self.listener.map(|l| l.0)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let p = self.tcp.step(now);
        self.pump();
        p
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
            checksum_failures: s.checksum_failures,
            rst_rejected_seq: s.rst_rejected_seq,
            acks_ignored_unsent_data: s.acks_ignored_unsent_data,
            ..StationStats::default()
        }
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
        self.live.iter().filter_map(|c| self.tcp.debug_of(*c)).collect::<Vec<_>>().join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::bulk_transfer;
    use fox_scheduler::Scheduler;
    use foxbasis::obs::{Event, DEFAULT_RING_CAPACITY};
    use foxbasis::time::VirtualDuration;
    use foxtcp::testlink::{LinkPair, TestAux, TestLower};
    use simnet::Medium;

    type TestStation = FoxStation<TestLower, TestAux>;

    /// Steps both stations at the link's clock until neither has work.
    fn settle(link: &LinkPair, a: &mut TestStation, b: &mut TestStation) {
        simnet::settle(&[link], |now| a.step(now) | b.step(now));
    }

    /// A station forgets a connection once the engine has reaped it with
    /// nothing left to read, and the next `accept` reuses its record; the
    /// forgotten handle still reads as finished, with nothing received.
    /// The client never asks `finished`, and forgets its connections
    /// once their TIME-WAIT is over all the same.
    #[test]
    fn a_finished_drained_connection_is_forgotten_and_its_buffer_reused() {
        let link = LinkPair::new();
        let cfg = TcpConfig { time_wait_ms: 10, ..TcpConfig::default() };
        let station = |side: u8| {
            let sched = SchedHandle::from_scheduler(Scheduler::starting_at(VirtualTime::ZERO));
            let tcp = Tcp::new(link.endpoint(side), TestAux, (), cfg.clone(), sched, HostHandle::free());
            FoxStation::new(tcp, HostHandle::free(), 1 - side, "test")
        };
        let (mut client, mut server) = (station(0), station(1));
        server.listen(80);
        let mut last: Option<(ConnHandle, *const RefCell<ConnBuf>)> = None;
        for round in 0..3 {
            let c = client.connect(80);
            settle(&link, &mut client, &mut server);
            let s = server.accept().expect("a child to accept");
            let buf = Rc::as_ptr(server.conns.conns.get(&s).and_then(|c| c.buf.as_ref()).expect("filed"));
            if let Some((old, old_buf)) = last {
                assert_eq!(buf, old_buf, "round {round}: the forgotten connection's buffer is reused");
                assert!(server.conns.conns.get(&old).is_none(), "round {round}: the old handle is forgotten");
                assert!(server.finished(old) && server.received_len(old) == 0 && server.recv(old).is_empty());
            }
            assert_eq!(client.send(c, b"ping"), 4);
            settle(&link, &mut client, &mut server);
            assert_eq!(server.recv(s), b"ping");
            assert_eq!(server.send(s, b"pong"), 4);
            client.close(c);
            settle(&link, &mut client, &mut server);
            assert!(server.peer_closed(s));
            server.close(s);
            settle(&link, &mut client, &mut server);
            assert!(server.finished(s), "round {round}: LAST-ACK is over");
            assert_eq!(client.recv(c), b"pong");
            last = Some((s, buf));
        }
        assert_eq!(client.conns.conns.len(), 3, "the client's connections wait out TIME-WAIT");
        link.advance_to(link.now() + VirtualDuration::from_millis(11));
        settle(&link, &mut client, &mut server);
        assert!(client.conns.conns.is_empty(), "over, they are forgotten unasked");
        assert!(!server.finished(ConnHandle::MAX), "a handle never issued is not finished");
    }

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
