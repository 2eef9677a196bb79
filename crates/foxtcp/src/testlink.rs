//! The whole-engine test rig: an in-memory lower protocol, and two
//! engines joined by it.
//!
//! The paper's test structure runs each module against the standard
//! without a live network; [`LinkPair`] extends that to whole-engine
//! tests: two [`TestLower`] endpoints joined by loss-free (or
//! deterministically lossy) in-memory queues, with addresses that are
//! plain `u8`s. No IP, no Ethernet, no simulated segment — every test
//! failure is a TCP bug.
//!
//! The companion [`TestAux`] satisfies `IP_AUX` with checksums disabled
//! (the in-memory link never corrupts), so the full engine runs over it
//! unchanged — the same genericity that lets `Special_Tcp` run over raw
//! Ethernet.
//!
//! The link is a [`simnet::Medium`] and owns the rig's one clock, so
//! everything stepped over it settles in `simnet::settle`, the loop the
//! simulator's own runs use. A sent frame is in the receiver's queue at
//! once; the link never has a delivery pending.
//!
//! [`Pair`] is the rig every two-engine test and bench drives: both
//! engines, the link between them and a log of what each side's users
//! were told.
//!
//! [`check_replay`] runs an engine's recorded input log
//! ([`Tcp::set_recorder`]) again on a lone engine over a [`Replay`] — a
//! lower layer of any peer and message types, so any recorded stack can
//! be replayed — and checks that it does the same thing.

use crate::engine::{Input, InputLog, UserCall};
use crate::{ConnectingSocket, ListeningSocket, Tcp, TcpConfig, TcpConnId, TcpEvent};
use fox_scheduler::{SchedHandle, Scheduler};
use foxbasis::buf::PacketBuf;
use foxbasis::obs::{first_divergence, EventSink, Stamped, NO_CONN};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::aux::{AuxInfo, IpAux};
use foxproto::{Handler, ProtoError, Protocol};
use simnet::{HostHandle, Medium};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

/// A message on the test link: (source address, bytes). The frame rides
/// as the [`PacketBuf`] the sender handed down — delivery is a refcount
/// bump, exactly like the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestMsg {
    /// Sender's link address.
    pub src: u8,
    /// Segment bytes.
    pub data: PacketBuf,
}

/// Policy hook: inspect/modify/drop frames in transit. It is given the
/// frame's index among those offered toward its side since it was
/// installed (from 0), so a drop rule is a function of the index.
/// Returns `false` to drop the frame.
pub type Filter = Box<dyn FnMut(u64, &mut PacketBuf) -> bool>;

struct Wire {
    /// Frames in flight toward endpoint 0 / 1.
    toward: [VecDeque<TestMsg>; 2],
    /// Each side's filter and the index of the next frame it is offered.
    filters: [Option<(u64, Filter)>; 2],
    /// Frames dropped by filters.
    dropped: u64,
    /// The link's clock.
    now: VirtualTime,
}

/// A pair of connected test endpoints.
pub struct LinkPair {
    wire: Rc<RefCell<Wire>>,
}

impl LinkPair {
    /// A fresh, loss-free pair, its clock at zero. Endpoint addresses
    /// are 0 and 1.
    pub fn new() -> LinkPair {
        LinkPair {
            wire: Rc::new(RefCell::new(Wire {
                toward: [VecDeque::new(), VecDeque::new()],
                filters: [None, None],
                dropped: 0,
                now: VirtualTime::ZERO,
            })),
        }
    }

    /// The endpoint with address `side` (0 or 1).
    pub fn endpoint(&self, side: u8) -> TestLower {
        assert!(side < 2);
        TestLower { wire: self.wire.clone(), side, handler: None, opened: false }
    }

    /// Installs a filter on frames *toward* `side`; the next frame
    /// offered to it is its frame 0.
    pub fn set_filter_toward(&self, side: u8, filter: Filter) {
        self.wire.borrow_mut().filters[usize::from(side)] = Some((0, filter));
    }

    /// Frames dropped by filters so far.
    pub fn dropped(&self) -> u64 {
        self.wire.borrow().dropped
    }

    /// Frames currently in flight toward `side`.
    pub fn in_flight_toward(&self, side: u8) -> usize {
        self.wire.borrow().toward[usize::from(side)].len()
    }
}

impl Default for LinkPair {
    fn default() -> Self {
        LinkPair::new()
    }
}

impl Medium for LinkPair {
    fn now(&self) -> VirtualTime {
        self.wire.borrow().now
    }

    /// Always `None`: a sent frame is already in the receiver's queue.
    fn next_delivery(&self) -> Option<VirtualTime> {
        None
    }

    /// # Panics
    /// If `t` is before the link's clock.
    fn advance_to(&self, t: VirtualTime) {
        let now = &mut self.wire.borrow_mut().now;
        assert!(t >= *now, "the link's clock cannot run backwards");
        *now = t;
    }
}

/// One endpoint of a [`LinkPair`].
pub struct TestLower {
    wire: Rc<RefCell<Wire>>,
    side: u8,
    handler: Option<Handler<TestMsg>>,
    opened: bool,
}

impl Protocol for TestLower {
    type Pattern = ();
    type Peer = u8;
    type Incoming = TestMsg;
    type ConnId = u8;

    fn open(&mut self, _p: (), handler: Handler<TestMsg>) -> Result<u8, ProtoError> {
        if self.opened {
            return Err(ProtoError::AlreadyOpen);
        }
        self.opened = true;
        self.handler = Some(handler);
        Ok(self.side)
    }

    fn send(&mut self, _conn: u8, to: u8, payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        if to > 1 {
            return Err(ProtoError::Unreachable);
        }
        let mut wire = self.wire.borrow_mut();
        let mut payload = payload.into();
        let keep = match &mut wire.filters[usize::from(to)] {
            Some((i, f)) => {
                *i += 1;
                f(*i - 1, &mut payload)
            }
            None => true,
        };
        if keep {
            let src = self.side;
            wire.toward[usize::from(to)].push_back(TestMsg { src, data: payload });
        } else {
            wire.dropped += 1;
        }
        Ok(())
    }

    fn close(&mut self, _conn: u8) -> Result<(), ProtoError> {
        self.opened = false;
        self.handler = None;
        Ok(())
    }

    fn step(&mut self, _now: VirtualTime) -> bool {
        let mut progress = false;
        loop {
            let msg = self.wire.borrow_mut().toward[usize::from(self.side)].pop_front();
            match msg {
                Some(m) => {
                    progress = true;
                    if let Some(h) = &mut self.handler {
                        h(m);
                    }
                }
                None => break,
            }
        }
        progress
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        let waiting = !self.wire.borrow().toward[usize::from(self.side)].is_empty();
        waiting.then_some(VirtualTime::ZERO)
    }
}

/// `IP_AUX` for the test link: no checksums, a generous MTU.
#[derive(Clone, Debug, Default)]
pub struct TestAux;

impl IpAux for TestAux {
    type Address = u8;
    type Incoming = TestMsg;

    fn hash(addr: &u8) -> u64 {
        u64::from(*addr)
    }

    fn makestring(addr: &u8) -> String {
        format!("host{addr}")
    }

    fn info<'a>(&self, msg: &'a TestMsg) -> AuxInfo<'a, u8> {
        AuxInfo { src: msg.src, data: &msg.data }
    }

    fn check(&self, _remote: &u8, _len: usize) -> Option<u16> {
        None
    }

    fn mtu(&self) -> usize {
        1500 // the conventional Ethernet link MTU, so the MSS pins at 1460
    }
}

/// A whole TCP engine over the test link.
pub type Engine = Tcp<TestLower, TestAux>;

type EventLog = Rc<RefCell<Vec<(TcpConnId, TcpEvent)>>>;

/// The default configuration with Nagle off: every write goes out as
/// soon as the windows allow.
pub fn no_nagle() -> TcpConfig {
    TcpConfig { nagle: false, ..TcpConfig::default() }
}

/// Immediate ACKs and no Nagle: nothing in the exchange waits on a
/// timer, so a test can run at a frozen clock.
pub fn immediate() -> TcpConfig {
    TcpConfig { delayed_ack_ms: None, ..no_nagle() }
}

/// Two engines joined by a [`LinkPair`], whose clock they are stepped
/// at, and a log of every event either side's users received.
///
/// `a` (link address 0) is the active opener and `b` (address 1) the
/// listener in [`Pair::open`]; everything else about the engines is
/// reachable through the public fields, so a test that needs the raw
/// lifecycle (a listener of its own, a handler of its own via
/// [`Tcp::set_handler`], a filter on `link`) just uses it.
pub struct Pair {
    /// The wire between the engines: the clock, filters and the drop
    /// count.
    pub link: LinkPair,
    /// The engine at link address 0.
    pub a: Engine,
    /// The engine at link address 1.
    pub b: Engine,
    logs: [EventLog; 2],
    listeners: Vec<(u16, ListeningSocket)>,
    /// How much of `b`'s log [`Pair::accept`] has already searched.
    accepted_to: usize,
}

impl Pair {
    /// Two engines with free (zero-cost) hosts, clocks at zero.
    pub fn new(cfg_a: TcpConfig, cfg_b: TcpConfig) -> Pair {
        Pair::with_hosts(cfg_a, cfg_b, [HostHandle::free(), HostHandle::free()], VirtualTime::ZERO)
    }

    /// Two engines charging `hosts` (side 0, side 1), their clocks
    /// starting at `start`.
    pub fn with_hosts(
        cfg_a: TcpConfig,
        cfg_b: TcpConfig,
        hosts: [HostHandle; 2],
        start: VirtualTime,
    ) -> Pair {
        let link = LinkPair::new();
        link.advance_to(start);
        let [host_a, host_b] = hosts;
        let engine = |side, cfg, host| {
            let sched = SchedHandle::from_scheduler(Scheduler::starting_at(start));
            Tcp::new(link.endpoint(side), TestAux, (), cfg, sched, host)
        };
        let (a, b) = (engine(0, cfg_a, host_a), engine(1, cfg_b, host_b));
        Pair { link, a, b, logs: Default::default(), listeners: Vec::new(), accepted_to: 0 }
    }

    /// A handler that logs every event for `side` under `tag`.
    pub fn recorder(&self, side: u8, tag: TcpConnId) -> Handler<TcpEvent> {
        let log = self.logs[usize::from(side)].clone();
        Box::new(move |e| log.borrow_mut().push((tag, e)))
    }

    /// The link's clock: the instant the engines are stepped at.
    pub fn now(&self) -> VirtualTime {
        self.link.now()
    }

    /// Steps both engines at the link's clock until neither makes
    /// progress.
    ///
    /// # Panics
    /// If they are still talking after [`simnet::SETTLE_ROUNDS`] rounds.
    pub fn settle(&mut self) {
        let (a, b) = (&mut self.a, &mut self.b);
        simnet::settle(&[&self.link], |now| a.step(now) | b.step(now));
    }

    /// Advances the clock `ms` and steps each engine once — a host's
    /// poll loop, for tests that pace a transfer themselves.
    pub fn tick(&mut self, ms: u64) {
        let now = self.now() + VirtualDuration::from_millis(ms);
        self.link.advance_to(now);
        self.a.step(now);
        self.b.step(now);
    }

    /// Advances the clock `ms` in `tick_ms` steps, settling at each.
    pub fn run_for(&mut self, ms: u64, tick_ms: u64) {
        let end = self.now() + VirtualDuration::from_millis(ms);
        while self.now() < end {
            self.link.advance_to((self.now() + VirtualDuration::from_millis(tick_ms)).min(end));
            self.settle();
        }
    }

    /// `a` starts a connection to `b`'s `port` from an ephemeral port,
    /// `b` listening there from the first call on. Both log under their
    /// own connection ids.
    pub fn connect(&mut self, port: u16) -> ConnectingSocket {
        if !self.listeners.iter().any(|(p, _)| *p == port) {
            let (handler, id) = self.late_recorder(1);
            let listener = self.b.listen(port, handler).expect("listen");
            id.set(listener.id());
            self.listeners.push((port, listener));
        }
        let (handler, id) = self.late_recorder(0);
        let client = self.a.connect(1, port, 0, handler).expect("connect");
        id.set(client.id());
        client
    }

    /// Adopts the next child a listener of [`Pair::connect`]'s announced
    /// and this rig has not adopted yet, logging it under its own id.
    pub fn accept(&mut self) -> Option<ConnectingSocket> {
        let (at, listener, child) =
            self.logs[1].borrow().iter().enumerate().skip(self.accepted_to).find_map(
                |(at, (l, e))| match e {
                    TcpEvent::NewConnection(c) => Some((at, *l, *c)),
                    _ => None,
                },
            )?;
        self.accepted_to = at + 1;
        let handler = self.recorder(1, child);
        let (_, listener) = self.listeners.iter().find(|(_, l)| l.id() == listener)?;
        listener.accept(&mut self.b, child, handler).ok()
    }

    /// One established connection `a` → `b:port`: connect, settle,
    /// accept. Returns `(a's id, b's child id)`.
    ///
    /// # Panics
    /// If either side is not synchronized once the pair has settled.
    pub fn open(&mut self, port: u16) -> (TcpConnId, TcpConnId) {
        let client = self.connect(port);
        self.settle();
        let child = self.accept().expect("the listener announced no child");
        let client = client.try_established(&self.a).expect("the client did not establish");
        let child = child.try_established(&self.b).expect("the child did not establish");
        (client.id(), child.id())
    }

    /// Every event `side` logged for `conn`, in delivery order.
    pub fn events_of(&self, side: u8, conn: TcpConnId) -> Vec<TcpEvent> {
        let log = self.logs[usize::from(side)].borrow();
        log.iter().filter(|(c, _)| *c == conn).map(|(_, e)| e.clone()).collect()
    }

    /// The payload bytes `side` received on `conn`, concatenated.
    pub fn data_of(&self, side: u8, conn: TcpConnId) -> Vec<u8> {
        let log = self.logs[usize::from(side)].borrow();
        let mut out = Vec::new();
        for (c, e) in log.iter() {
            match e {
                TcpEvent::Data(d) if *c == conn => out.extend_from_slice(d),
                _ => {}
            }
        }
        out
    }

    /// A recorder whose tag is filled in once the engine's `listen` or
    /// `connect` has returned the connection's id (no event is
    /// delivered before then).
    fn late_recorder(&self, side: u8) -> (Handler<TcpEvent>, Rc<Cell<TcpConnId>>) {
        let id = Rc::new(Cell::new(TcpConnId(u32::MAX)));
        let (log, tag) = (self.logs[usize::from(side)].clone(), id.clone());
        (Box::new(move |e| log.borrow_mut().push((tag.get(), e))), id)
    }
}

/// The lower layer of a lone engine replaying a recorded run: each tick
/// it hands up the arrivals the log says that tick pulled, and what the
/// engine sends goes nowhere. `P` and `M` are the peer and message
/// types of the recording engine's lower layer, so the replaying engine
/// runs over the recording one's aux structure.
pub struct Replay<P, M> {
    due: Rc<RefCell<VecDeque<M>>>,
    handler: Option<Handler<M>>,
    peer: PhantomData<P>,
}

impl<P: Clone + PartialEq + fmt::Debug + 'static, M: 'static> Protocol for Replay<P, M> {
    type Pattern = ();
    type Peer = P;
    type Incoming = M;
    type ConnId = ();

    fn open(&mut self, _pattern: (), handler: Handler<M>) -> Result<(), ProtoError> {
        self.handler = Some(handler);
        Ok(())
    }

    fn send(&mut self, _conn: (), _to: P, _payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        Ok(())
    }

    fn close(&mut self, _conn: ()) -> Result<(), ProtoError> {
        Ok(())
    }

    fn step(&mut self, _now: VirtualTime) -> bool {
        let mut progress = false;
        loop {
            let Some(msg) = self.due.borrow_mut().pop_front() else { return progress };
            progress = true;
            if let Some(h) = &mut self.handler {
                h(msg);
            }
        }
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        (!self.due.borrow().is_empty()).then_some(VirtualTime::ZERO)
    }
}

/// One input in a line, for reports: an arrival shows only that it is
/// one, a send only its length.
impl<P: fmt::Debug, M> fmt::Debug for Input<'_, P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Input::Arrival(_) => write!(f, "Arrival"),
            Input::Tick(now) => write!(f, "Tick({now:?})"),
            Input::User(UserCall::Open(pattern, _)) => write!(f, "Open({pattern:?})"),
            Input::User(UserCall::Send(conn, data)) => write!(f, "Send({}, {} B)", conn.0, data.len()),
            Input::User(UserCall::Close(conn)) => write!(f, "Close({})", conn.0),
            Input::User(UserCall::Abort(conn)) => write!(f, "Abort({})", conn.0),
            Input::User(UserCall::Adopt(conn, _)) => write!(f, "Adopt({})", conn.0),
        }
    }
}

/// Replays (and empties) `log`, the input log of `recorded` from its first input on,
/// on a lone engine with the same configuration and aux structure,
/// whose clock starts at the first input's instant, and checks that it
/// did what `recorded` did: `events`, everything `recorded` emitted,
/// come out again event for event, and every connection `events` names
/// ends with the same state and an equal TCB, and the engine with the
/// same statistics.
///
/// # Errors
/// A report of the first difference: for a stream, the input during
/// which the replay parted from it (a tick stands for the arrivals it
/// pulled) and the streams' [`first_divergence`].
pub fn check_replay<L, A>(
    recorded: &Tcp<L, A>,
    events: &[Stamped],
    log: &InputLog<L::Peer, L::Incoming>,
) -> Result<(), String>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming> + Clone,
{
    let log = log.take();
    let start = log.first().map_or(VirtualTime::ZERO, |(at, _)| *at);
    let sink = EventSink::recording(2 * events.len() + 64).for_host(events.first().map_or(0, |e| e.host));
    let due = Rc::new(RefCell::new(VecDeque::new()));
    let lower = Replay { due: due.clone(), handler: None, peer: PhantomData };
    let sched = SchedHandle::from_scheduler(Scheduler::starting_at(start));
    let mut lone = Tcp::new(lower, recorded.aux.clone(), (), recorded.cfg.clone(), sched, HostHandle::free());
    lone.set_obs(sink.clone());
    // Per input applied: its index, what it was, and how many events
    // the replay had emitted once it was done.
    let mut ends: Vec<(usize, String, usize)> = Vec::new();
    let (mut clock, mut log) = (start, log.into_iter().enumerate().peekable());
    while let Some((i, (at, input))) = log.next() {
        let what = format!("{input:?}");
        if let Input::Tick(now) = input {
            clock = clock.max(now);
            while let Some((_, (at, Input::Arrival(_)))) = log.peek() {
                if *at != clock {
                    return Err(format!("input #{i}: an arrival at {at:?} in a tick at {clock:?}"));
                }
                let Some((_, (_, Input::Arrival(msg)))) = log.next() else { unreachable!() };
                due.borrow_mut().push_back(msg);
            }
        } else if at != clock {
            return Err(format!("input #{i} ({what}) came at {at:?}, the engine's clock read {clock:?}"));
        }
        // A refused call is refused again: its result is in the stream.
        let _ = lone.apply(input);
        ends.push((i, what, sink.len()));
    }

    let replayed = sink.events();
    if let Some(d) = first_divergence(events, &replayed) {
        let at = match ends.iter().find(|(.., end)| *end > d.index) {
            Some((i, what, _)) => format!("input #{i}, {what}"),
            None => "the end of the log".to_string(),
        };
        return Err(format!(
            "the replay parts from the recorded run at {at} ({} dropped): {d:#?}",
            sink.dropped()
        ));
    }
    let last = events.iter().filter(|e| e.conn != NO_CONN).map(|e| e.conn).max();
    for conn in (0..last.map_or(0, |c| c + 1)).map(TcpConnId) {
        let [was, is] =
            [recorded.core_of(conn), lone.core_of(conn)].map(|c| c.map(|c| (c.state.name(), c.tcb())));
        if was != is {
            return Err(format!("connection {} ends otherwise: recorded {was:#?}, replayed {is:#?}", conn.0));
        }
    }
    if recorded.stats() != lone.stats() {
        return Err(format!("statistics: recorded {:?}, replayed {:?}", recorded.stats(), lone.stats()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TcpState;
    use std::cell::RefCell;

    #[test]
    fn frames_cross_the_link() {
        let pair = LinkPair::new();
        let mut a = pair.endpoint(0);
        let mut b = pair.endpoint(1);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open((), Box::new(move |m| g.borrow_mut().push(m))).unwrap();
        a.open((), Box::new(|_| {})).unwrap();
        a.send(0, 1, b"hello".to_vec()).unwrap();
        assert!(b.step(VirtualTime::ZERO));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0], TestMsg { src: 0, data: b"hello"[..].into() });
        // Run as a medium, the link settles once both queues are empty.
        a.send(0, 1, b"again".to_vec()).unwrap();
        b.send(1, 0, b"back".to_vec()).unwrap();
        simnet::settle(&[&pair], |now| a.step(now) | b.step(now));
        assert_eq!((pair.in_flight_toward(0), pair.in_flight_toward(1), got.borrow().len()), (0, 0, 2));
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn the_link_clock_never_runs_backwards() {
        let pair = LinkPair::new();
        pair.advance_to(VirtualTime::from_millis(2));
        pair.advance_to(VirtualTime::from_millis(1));
    }

    #[test]
    fn filters_drop_frames() {
        let pair = LinkPair::new();
        let mut a = pair.endpoint(0);
        let mut b = pair.endpoint(1);
        b.open((), Box::new(|_| {})).unwrap();
        a.open((), Box::new(|_| {})).unwrap();
        pair.set_filter_toward(1, Box::new(|i, _| i % 2 == 1)); // drop frames 0, 2, ...
        for _ in 0..4 {
            a.send(0, 1, vec![0]).unwrap();
        }
        b.step(VirtualTime::ZERO);
        assert_eq!(pair.dropped(), 2);
        // A new filter counts from 0 again: it drops only its first frame.
        pair.set_filter_toward(1, Box::new(|i, _| i > 0));
        for _ in 0..3 {
            a.send(0, 1, vec![0]).unwrap();
        }
        assert_eq!((pair.dropped(), pair.in_flight_toward(1)), (3, 2));
    }

    #[test]
    fn open_establishes_both_sides() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        let (client, child) = p.open(80);
        assert_eq!(p.a.state_of(client), Some(TcpState::Estab));
        assert_eq!(p.b.state_of(child), Some(TcpState::Estab));
        // A second connection shares the listener and logs apart.
        let (second, second_child) = p.open(80);
        assert_ne!((second, second_child), (client, child));
        assert_eq!(p.events_of(0, second), [TcpEvent::Established]);
        assert_eq!(p.events_of(1, second_child), [TcpEvent::Established]);
    }

    #[test]
    fn a_filter_drop_shows_through_the_pair() {
        let mut p = Pair::new(no_nagle(), TcpConfig::default());
        let (client, child) = p.open(80);
        p.link.set_filter_toward(1, Box::new(|_, _| false));
        p.a.send_data(client, b"lost").unwrap();
        p.settle();
        assert_eq!(p.link.dropped(), 1, "the one data segment");
        assert!(p.data_of(1, child).is_empty());
        // The wire heals; the retransmission gets through.
        p.link.set_filter_toward(1, Box::new(|_, _| true));
        p.run_for(2_000, 100);
        assert_eq!(p.data_of(1, child), b"lost");
        assert_eq!(p.link.dropped(), 1);
    }

    /// Shifting every segment's sequence number out of the receiver's
    /// window desynchronizes the two ends: each unacceptable segment
    /// draws an ACK that is unacceptable in turn (RFC 793 p. 69), and
    /// the exchange never falls silent.
    #[test]
    #[should_panic(expected = "did not settle")]
    fn settle_panics_on_a_pair_that_never_quiesces() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        let (client, _child) = p.open(80);
        for side in [0, 1] {
            p.link.set_filter_toward(
                side,
                Box::new(|_, bytes| {
                    let mut seg = foxwire::tcp::TcpSegment::decode_buf(bytes, None).unwrap();
                    seg.header.seq += 1_000_000;
                    *bytes = seg.encode_buf(None).unwrap();
                    true
                }),
            );
        }
        p.a.send_data(client, b"desynchronized").unwrap();
        p.settle();
    }
}
