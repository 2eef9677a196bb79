//! RFC-793 §3.9 conformance: both TCP implementations, one script.
//!
//! Every scenario is a table of [`Step`]s — user calls on the system
//! under test (SUT) interleaved with raw segments crafted by a scripted
//! peer — and runs unchanged against the structured stack
//! ([`foxtcp::Tcp`]) and the monolithic baseline ([`xktcp::XkTcp`]).
//! The peer is *not* a TCP: it is the test itself, holding the other
//! end of a [`LinkPair`] and encoding/decoding [`TcpSegment`]s by hand,
//! so every transition is pinned against the standard's state diagram
//! rather than against whatever the other implementation happens to do.
//!
//! State names are normalized to the RFC's vocabulary (`SYN-RECEIVED`,
//! `FIN-WAIT-1`, ...) because the two stacks factor the diagram
//! differently: fox splits SYN-RECEIVED into `SynActive`/`SynPassive`
//! (the paper's Fig. 6), and a connection that has been reaped reads as
//! `CLOSED`.
//!
//! The scenarios live in one registry ([`SCENARIOS`]) so the suite can
//! be ratcheted against the declared state machine: every run records
//! the `(state, trigger, state')` transitions each stack emits through
//! `foxbasis::obs`, and [`runtime_transitions_cover_the_fsm_spec`] fails
//! if any edge of `spec/tcp_fsm.txt` (which `control::fsm::transition`
//! holds every fox state write to) is never exercised at runtime —
//! unless the spec line carries a documented `@untested` exemption for
//! that stack.

use fox_scheduler::SchedHandle;
use foxbasis::obs::{Event, EventSink};
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::Protocol;
use foxtcp::control::fsm::{self, SpecEdge, Trigger};
use foxtcp::testlink::{LinkPair, Pair, TestAux, TestLower};
use foxtcp::{
    ConnectingSocket, EstablishedSocket, ListeningSocket, Tcp, TcpConfig, TcpConnId, TcpEvent, TcpState,
};
use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpSegment};
use simnet::HostHandle;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::rc::Rc;
use xktcp::{SockId, XkConfig, XkEvent, XkTcp};

/// Port the SUT listens on in passive scenarios.
const SUT_LISTEN_PORT: u16 = 80;
/// Local port the SUT binds in active scenarios.
const SUT_ACTIVE_PORT: u16 = 4000;
/// The scripted peer's port.
const PEER_PORT: u16 = 9000;
/// The peer's initial sequence number.
const PEER_ISS: u32 = 1000;

/// One entry of a scenario table.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// SUT: passive open on [`SUT_LISTEN_PORT`].
    Listen,
    /// SUT: active open toward the peer.
    Connect,
    /// SUT: graceful close of the data connection.
    Close,
    /// SUT: graceful close of the listener.
    CloseListener,
    /// SUT: queue a small payload on the data connection.
    Send,
    /// SUT: ABORT the data connection (fox only — the monolithic
    /// baseline has no abort API, which `spec/tcp_fsm.txt` records as
    /// `@untested(xk: ...)` on every abort edge).
    Abort,
    /// SUT: ABORT the listener (fox only).
    AbortListener,
    /// Peer → SUT: bare SYN (consumes one peer sequence number).
    Syn,
    /// Peer → SUT: SYN+ACK acknowledging everything seen.
    SynAck,
    /// Peer → SUT: pure ACK of everything seen.
    Ack,
    /// Peer → SUT: FIN+ACK acknowledging everything seen.
    Fin,
    /// Peer → SUT: FIN that does *not* acknowledge the SUT's FIN —
    /// the crossing FIN of a simultaneous close.
    FinCrossing,
    /// Peer → SUT: RST (with ACK, so it is acceptable in SYN-SENT too).
    Rst,
    /// Peer → SUT: RST whose sequence sits `offset` bytes past
    /// RCV.NXT — inside the window but not exact. RFC 5961 §3.2 says
    /// this must NOT abort; it draws a challenge ACK instead.
    RstInWindow(u32),
    /// Assert the data connection's normalized state.
    Expect(&'static str),
    /// Assert the listener's normalized state.
    ExpectListener(&'static str),
    /// Assert the SUT transmitted a segment matching the pattern
    /// (consumes received segments up to and including the match).
    ExpectTx(Pat),
    /// Advance virtual time by this many milliseconds, stepping the SUT.
    Wait(u64),
}

/// What a transmitted segment must look like.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pat {
    /// SYN without ACK (active open).
    Syn,
    /// SYN+ACK (passive handshake reply).
    SynAck,
    /// A data-less ACK acknowledging everything the peer has sent.
    AckOnly,
    /// Any segment with FIN set.
    Fin,
    /// Any segment with RST set.
    Rst,
}

/// The driver interface both stacks are wrapped in. "The connection"
/// is the single data connection a scenario exercises: the active
/// client, or the first child a listener spawns.
trait Sut {
    fn kind(&self) -> &'static str;
    /// Routes the stack's typed event stream into `sink` so the
    /// coverage ratchet can read the transitions back out.
    fn set_obs(&mut self, sink: EventSink);
    fn listen(&mut self);
    fn connect(&mut self);
    fn close_conn(&mut self);
    fn close_listener(&mut self);
    /// Queues a small payload on the data connection (it must be in a
    /// state that accepts sends).
    fn send_data(&mut self, data: &[u8]);
    /// ABORT (RFC 793 p. 62) on the data connection. Scenarios using
    /// this are marked [`Stacks::FoxOnly`]; the default is unreachable.
    fn abort_conn(&mut self) {
        panic!("[{}] stack has no abort API", self.kind());
    }
    /// ABORT on the listener (fox only, as above).
    fn abort_listener(&mut self) {
        panic!("[{}] stack has no abort API", self.kind());
    }
    /// One step at `now`; returns true if progress was made.
    fn step(&mut self, now: VirtualTime) -> bool;
    /// Raw (un-normalized) state name of the data connection;
    /// `"Closed"` once the stack has forgotten it.
    fn conn_state(&self) -> &'static str;
    fn listener_state(&self) -> &'static str;
}

/// Maps both stacks' state vocabularies onto RFC 793's.
fn normalize(raw: &str) -> &'static str {
    match raw {
        "Closed" => "CLOSED",
        "Listen" => "LISTEN",
        "SynSent" => "SYN-SENT",
        // fox factors SYN-RECEIVED by how it was reached (paper Fig. 6);
        // xk keeps the RFC's single state.
        "SynActive" | "SynPassive" | "SynReceived" => "SYN-RECEIVED",
        "Estab" | "Established" => "ESTABLISHED",
        "FinWait1" => "FIN-WAIT-1",
        "FinWait2" => "FIN-WAIT-2",
        "CloseWait" => "CLOSE-WAIT",
        "Closing" => "CLOSING",
        "LastAck" => "LAST-ACK",
        "TimeWait" => "TIME-WAIT",
        other => panic!("unknown state name {other:?}"),
    }
}

// ---------------------------------------------------------------- fox

/// The data connection's typestate wrapper, at whichever stage it
/// currently holds. The wrapper is consumed on close; `FoxSut` keeps
/// the bare [`TcpConnId`] separately for state queries afterwards.
enum FoxConn {
    Connecting(ConnectingSocket),
    Established(EstablishedSocket),
}

struct FoxSut {
    tcp: Tcp<TestLower, TestAux>,
    _sched: SchedHandle,
    events: Rc<RefCell<Vec<TcpEvent>>>,
    listener: Option<ListeningSocket>,
    listener_id: Option<TcpConnId>,
    conn: Option<FoxConn>,
    conn_id: Option<TcpConnId>,
}

impl FoxSut {
    fn new(link: &LinkPair) -> FoxSut {
        let sched = SchedHandle::new();
        let tcp =
            Tcp::new(link.endpoint(1), TestAux, (), TcpConfig::default(), sched.clone(), HostHandle::free());
        FoxSut {
            tcp,
            _sched: sched,
            events: Rc::new(RefCell::new(Vec::new())),
            listener: None,
            listener_id: None,
            conn: None,
            conn_id: None,
        }
    }

    fn recorder(&self) -> foxproto::Handler<TcpEvent> {
        let ev = self.events.clone();
        Box::new(move |e| ev.borrow_mut().push(e))
    }
}

impl Sut for FoxSut {
    fn kind(&self) -> &'static str {
        "fox"
    }

    fn set_obs(&mut self, sink: EventSink) {
        self.tcp.set_obs(sink);
    }

    fn listen(&mut self) {
        let h = self.recorder();
        let sock = self.tcp.listen(SUT_LISTEN_PORT, h).unwrap();
        self.listener_id = Some(sock.id());
        self.listener = Some(sock);
    }

    fn connect(&mut self) {
        let h = self.recorder();
        let sock = self.tcp.connect(0, PEER_PORT, SUT_ACTIVE_PORT, h).unwrap();
        self.conn_id = Some(sock.id());
        self.conn = Some(FoxConn::Connecting(sock));
    }

    fn close_conn(&mut self) {
        // Close consumes the wrapper at whatever stage the handshake
        // reached; promote first so an established connection closes
        // through the `EstablishedSocket` it really is.
        match self.conn.take().expect("no connection to close") {
            FoxConn::Connecting(sock) => match sock.try_established(&self.tcp) {
                Ok(est) => est.close(&mut self.tcp).unwrap(),
                Err(still) => still.close(&mut self.tcp).unwrap(),
            },
            FoxConn::Established(sock) => sock.close(&mut self.tcp).unwrap(),
        }
    }

    fn close_listener(&mut self) {
        // Keep `listener_id` so the state query still answers (reaped
        // listeners read as CLOSED).
        self.listener.take().expect("no listener to close").close(&mut self.tcp).unwrap();
    }

    fn send_data(&mut self, data: &[u8]) {
        // Data moves only through the established-stage wrapper; the
        // wrapper survives into CLOSE-WAIT, where RFC 793 still allows
        // sends (only our peer has finished).
        let Some(FoxConn::Established(est)) = &self.conn else {
            panic!("send_data needs an established connection");
        };
        let n = est.send_data(&mut self.tcp, data).unwrap();
        assert_eq!(n, data.len(), "send buffer accepted the payload");
    }

    fn abort_conn(&mut self) {
        let id = self.conn_id.expect("no connection to abort");
        self.conn = None; // the typed wrapper is dead with the connection
        self.tcp.abort(id).unwrap();
    }

    fn abort_listener(&mut self) {
        let id = self.listener_id.expect("no listener to abort");
        self.listener = None;
        self.tcp.abort(id).unwrap();
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let progress = self.tcp.step(now);
        if self.conn_id.is_none() {
            // Adopt the listener's first child so its state is visible
            // and its terminal event lets the engine reap it.
            let child = self.events.borrow().iter().find_map(|e| match e {
                TcpEvent::NewConnection(c) => Some(*c),
                _ => None,
            });
            if let Some(c) = child {
                let ev = self.events.clone();
                let listener = self.listener.as_ref().expect("a child implies a listener");
                let sock =
                    listener.accept(&mut self.tcp, c, Box::new(move |e| ev.borrow_mut().push(e))).unwrap();
                self.conn_id = Some(c);
                self.conn = Some(FoxConn::Connecting(sock));
            }
        }
        // Promote the wrapper once the handshake completes, so closes
        // after establishment go through `EstablishedSocket`.
        if let Some(FoxConn::Connecting(_)) = self.conn {
            let Some(FoxConn::Connecting(sock)) = self.conn.take() else { unreachable!() };
            self.conn = Some(match sock.try_established(&self.tcp) {
                Ok(est) => FoxConn::Established(est),
                Err(still) => FoxConn::Connecting(still),
            });
        }
        progress
    }

    fn conn_state(&self) -> &'static str {
        match self.conn_id {
            None => "Closed",
            Some(c) => self.tcp.state_of(c).map_or("Closed", |s| s.name()),
        }
    }

    fn listener_state(&self) -> &'static str {
        match self.listener_id {
            None => "Closed",
            Some(l) => self.tcp.state_of(l).map_or("Closed", |s| s.name()),
        }
    }
}

// ----------------------------------------------------------------- xk

struct XkSut {
    tcp: XkTcp<TestLower, TestAux>,
    listener: Option<SockId>,
    conn: Option<SockId>,
}

impl XkSut {
    fn new(link: &LinkPair) -> XkSut {
        let tcp = XkTcp::new(link.endpoint(1), TestAux, (), XkConfig::default(), HostHandle::free());
        XkSut { tcp, listener: None, conn: None }
    }
}

impl Sut for XkSut {
    fn kind(&self) -> &'static str {
        "xk"
    }

    fn set_obs(&mut self, sink: EventSink) {
        self.tcp.set_obs(sink);
    }

    fn listen(&mut self) {
        self.listener = Some(self.tcp.listen(SUT_LISTEN_PORT).unwrap());
    }

    fn connect(&mut self) {
        self.conn = Some(self.tcp.connect(0, PEER_PORT, SUT_ACTIVE_PORT).unwrap());
    }

    fn close_conn(&mut self) {
        let c = self.conn.expect("no connection to close");
        self.tcp.close(c).unwrap();
    }

    fn close_listener(&mut self) {
        let l = self.listener.expect("no listener to close");
        self.tcp.close(l).unwrap();
    }

    fn send_data(&mut self, data: &[u8]) {
        let c = self.conn.expect("no connection to send on");
        let n = self.tcp.send(c, data).unwrap();
        assert_eq!(n, data.len(), "send buffer accepted the payload");
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let progress = self.tcp.step(now);
        if let Some(l) = self.listener {
            while let Some(e) = self.tcp.poll_event(l) {
                if let XkEvent::Accepted(c) = e {
                    self.conn.get_or_insert(c);
                }
            }
        }
        progress
    }

    fn conn_state(&self) -> &'static str {
        match self.conn {
            None => "Closed",
            Some(c) => self.tcp.state_of(c).map_or("Closed", |s| s.name()),
        }
    }

    fn listener_state(&self) -> &'static str {
        match self.listener {
            None => "Closed",
            Some(l) => self.tcp.state_of(l).map_or("Closed", |s| s.name()),
        }
    }
}

// --------------------------------------------------------- the runner

/// The scripted peer plus the bookkeeping the script needs: its own
/// next sequence number, the SUT's (observed, not computed), and every
/// segment the SUT has transmitted.
struct Harness {
    sut: Box<dyn Sut>,
    lower: TestLower,
    rx: Rc<RefCell<VecDeque<TcpSegment>>>,
    now: VirtualTime,
    /// Next sequence number the peer will send.
    peer_nxt: u32,
    /// Everything the SUT has sent us, cumulatively acknowledged.
    sut_nxt: u32,
    /// Sequence number of the SUT's FIN, once seen.
    sut_fin_seq: Option<u32>,
    /// Where peer segments are addressed (learned from SUT traffic).
    dst_port: u16,
    /// Transmit log and the assertion cursor into it.
    got: Vec<TcpSegment>,
    cursor: usize,
}

impl Harness {
    fn new(link: &LinkPair, sut: Box<dyn Sut>) -> Harness {
        let rx: Rc<RefCell<VecDeque<TcpSegment>>> = Rc::new(RefCell::new(VecDeque::new()));
        let sink = rx.clone();
        let mut lower = link.endpoint(0);
        lower
            .open(
                (),
                Box::new(move |m| {
                    let seg = TcpSegment::decode_buf(&m.data, None).expect("undecodable segment");
                    sink.borrow_mut().push_back(seg);
                }),
            )
            .unwrap();
        Harness {
            sut,
            lower,
            rx,
            now: VirtualTime::ZERO,
            peer_nxt: PEER_ISS,
            sut_nxt: 0,
            sut_fin_seq: None,
            dst_port: SUT_LISTEN_PORT,
            got: Vec::new(),
            cursor: 0,
        }
    }

    /// Steps SUT and peer until neither makes progress.
    fn settle(&mut self) {
        for _ in 0..256 {
            let p = self.sut.step(self.now);
            self.lower.step(self.now);
            let mut fresh = false;
            loop {
                let seg = self.rx.borrow_mut().pop_front();
                match seg {
                    Some(seg) => {
                        fresh = true;
                        self.note(seg);
                    }
                    None => break,
                }
            }
            if !p && !fresh {
                return;
            }
        }
        panic!("[{}] did not settle", self.sut.kind());
    }

    /// Records a segment from the SUT; the link is in-order and
    /// loss-free, so cumulative state just follows the latest segment.
    fn note(&mut self, seg: TcpSegment) {
        self.dst_port = seg.header.src_port;
        self.sut_nxt = seg.header.seq.0.wrapping_add(seg.seq_len());
        if seg.header.flags.fin {
            self.sut_fin_seq = Some(seg.header.seq.0.wrapping_add(seg.payload.len() as u32));
        }
        self.got.push(seg);
    }

    /// Peer → SUT.
    fn send(&mut self, flags: TcpFlags, seq: u32, ack: u32) {
        let mut h = TcpHeader::new(PEER_PORT, self.dst_port);
        h.seq = Seq(seq);
        h.ack = Seq(ack);
        h.flags = flags;
        h.window = wire_window(4096, 0);
        let seg = TcpSegment { header: h, payload: foxbasis::buf::PacketBuf::new() };
        let buf = seg.encode_buf(None).unwrap();
        self.lower.send(0, 1, buf).unwrap();
        self.settle();
    }

    fn run(&mut self, name: &str, steps: &[Step]) {
        for (i, step) in steps.iter().enumerate() {
            let ctx = format!("[{} · {name} · step {i}: {step:?}]", self.sut.kind());
            match *step {
                Step::Listen => {
                    self.sut.listen();
                    self.settle();
                }
                Step::Connect => {
                    self.sut.connect();
                    self.settle();
                }
                Step::Close => {
                    self.sut.close_conn();
                    self.settle();
                }
                Step::CloseListener => {
                    self.sut.close_listener();
                    self.settle();
                }
                Step::Send => {
                    self.sut.send_data(b"ratchet");
                    self.settle();
                }
                Step::Abort => {
                    self.sut.abort_conn();
                    self.settle();
                }
                Step::AbortListener => {
                    self.sut.abort_listener();
                    self.settle();
                }
                Step::Syn => {
                    let seq = self.peer_nxt;
                    self.peer_nxt = self.peer_nxt.wrapping_add(1);
                    self.send(TcpFlags::SYN, seq, 0);
                }
                Step::SynAck => {
                    let seq = self.peer_nxt;
                    self.peer_nxt = self.peer_nxt.wrapping_add(1);
                    let ack = self.sut_nxt;
                    self.send(TcpFlags::SYN_ACK, seq, ack);
                }
                Step::Ack => {
                    let (seq, ack) = (self.peer_nxt, self.sut_nxt);
                    self.send(TcpFlags::ACK, seq, ack);
                }
                Step::Fin => {
                    let seq = self.peer_nxt;
                    self.peer_nxt = self.peer_nxt.wrapping_add(1);
                    let ack = self.sut_nxt;
                    self.send(TcpFlags::FIN_ACK, seq, ack);
                }
                Step::FinCrossing => {
                    let seq = self.peer_nxt;
                    self.peer_nxt = self.peer_nxt.wrapping_add(1);
                    let ack = self.sut_fin_seq.expect("no SUT FIN to cross");
                    self.send(TcpFlags::FIN_ACK, seq, ack);
                }
                Step::Rst => {
                    let (seq, ack) = (self.peer_nxt, self.sut_nxt);
                    self.send(TcpFlags::RST_ACK, seq, ack);
                }
                Step::RstInWindow(offset) => {
                    let (seq, ack) = (self.peer_nxt.wrapping_add(offset), self.sut_nxt);
                    self.send(TcpFlags::RST_ACK, seq, ack);
                }
                Step::Expect(want) => {
                    let raw = self.sut.conn_state();
                    let have = normalize(raw);
                    assert_eq!(have, want, "{ctx} connection is {raw}");
                }
                Step::ExpectListener(want) => {
                    let raw = self.sut.listener_state();
                    let have = normalize(raw);
                    assert_eq!(have, want, "{ctx} listener is {raw}");
                }
                Step::ExpectTx(pat) => {
                    let found = self.got[self.cursor..].iter().position(|seg| {
                        let f = &seg.header.flags;
                        match pat {
                            Pat::Syn => f.syn && !f.ack,
                            Pat::SynAck => f.syn && f.ack,
                            Pat::Fin => f.fin,
                            Pat::Rst => f.rst,
                            Pat::AckOnly => {
                                !f.syn
                                    && !f.fin
                                    && !f.rst
                                    && f.ack
                                    && seg.payload.is_empty()
                                    && seg.header.ack.0 == self.peer_nxt
                            }
                        }
                    });
                    match found {
                        Some(off) => self.cursor += off + 1,
                        None => panic!(
                            "{ctx} expected {pat:?}, transmit log since last match: {:?}",
                            self.got[self.cursor..]
                                .iter()
                                .map(|s| format!(
                                    "seq={} ack={} {}{}{}{}",
                                    s.header.seq.0,
                                    s.header.ack.0,
                                    if s.header.flags.syn { "S" } else { "" },
                                    if s.header.flags.ack { "A" } else { "" },
                                    if s.header.flags.fin { "F" } else { "" },
                                    if s.header.flags.rst { "R" } else { "" },
                                ))
                                .collect::<Vec<_>>()
                        ),
                    }
                }
                Step::Wait(ms) => {
                    let end = self.now + VirtualDuration::from_millis(ms);
                    while self.now < end {
                        self.now = (self.now + VirtualDuration::from_millis(1000)).min(end);
                        self.settle();
                    }
                }
            }
        }
    }
}

/// Which stacks a scenario runs on. Everything is [`Stacks::Both`]
/// except the abort rows: the monolithic baseline has no abort API
/// (the `@untested(xk: ...)` exemptions in `spec/tcp_fsm.txt`).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stacks {
    Both,
    FoxOnly,
}

/// One row of the conformance suite: a named step table and the stacks
/// it applies to. The registry form (rather than free-standing tests)
/// is what lets the coverage ratchet run *every* scenario and union the
/// observed transitions.
struct Scenario {
    name: &'static str,
    stacks: Stacks,
    steps: &'static [Step],
}

impl Scenario {
    fn runs_on(&self, stack: &str) -> bool {
        self.stacks == Stacks::Both || stack == "fox"
    }
}

/// Runs one scenario against one stack, returning the normalized
/// `(from, trigger, to)` transitions the stack emitted while it ran.
/// Normalized self-loops (e.g. a retransmission that re-enters the same
/// RFC state) are dropped: the spec graph has no self-edges.
fn run_on(stack: &'static str, sc: &Scenario) -> BTreeSet<(&'static str, &'static str, &'static str)> {
    let link = LinkPair::new();
    let mut sut: Box<dyn Sut> = match stack {
        "fox" => Box::new(FoxSut::new(&link)),
        "xk" => Box::new(XkSut::new(&link)),
        other => panic!("unknown stack {other:?}"),
    };
    let sink = EventSink::recording(1 << 16);
    sut.set_obs(sink.clone());
    let mut h = Harness::new(&link, sut);
    h.run(sc.name, sc.steps);
    let mut out = BTreeSet::new();
    for ev in sink.events() {
        if let Event::StateTransition { from, to, cause } = ev.event {
            let (f, t) = (normalize(from), normalize(to));
            if f != t {
                out.insert((f, cause, t));
            }
        }
    }
    assert_eq!(sink.dropped(), 0, "[{stack} · {}] event ring overflowed", sc.name);
    out
}

/// Runs a registered scenario against every stack it applies to.
fn conform(name: &str) {
    let sc = SCENARIOS.iter().find(|s| s.name == name).expect("scenario not in SCENARIOS");
    for stack in ["fox", "xk"] {
        if sc.runs_on(stack) {
            run_on(stack, sc);
        }
    }
}

// ------------------------------------------------------ the scenarios

use Step::*;

/// How long the peer stays silent to exhaust a retransmission budget.
/// The slower giver-upper is xk: 12 retransmits of a 1 s initial RTO
/// backing off ×2 to the 64 s cap fire at 1+2+...+64·6 ≈ 511 s; the
/// 13th fire finds the budget spent and closes. (fox's SYN states give
/// up after `syn_retries = 5` ≈ 63 s, its other states on the same
/// 12-retransmit budget.)
const EXHAUST_MS: u64 = 540_000;

/// 2MSL (60 s in both stacks' default configs), with margin.
const TWO_MSL_MS: u64 = 61_000;

static SCENARIOS: &[Scenario] = &[
    // ---- the RFC 793 §3.9 diagram walks --------------------------
    Scenario {
        name: "passive_open_then_remote_close",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            ExpectListener("LISTEN"),
            Syn,
            Expect("SYN-RECEIVED"),
            ExpectTx(Pat::SynAck),
            Ack,
            Expect("ESTABLISHED"),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect("CLOSE-WAIT"),
            Close,
            ExpectTx(Pat::Fin),
            Expect("LAST-ACK"),
            Ack,
            Expect("CLOSED"),
            ExpectListener("LISTEN"),
        ],
    },
    Scenario {
        name: "passive_open_then_local_close",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Expect("SYN-RECEIVED"),
            ExpectTx(Pat::SynAck),
            Ack,
            Expect("ESTABLISHED"),
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            Ack,
            Expect("FIN-WAIT-2"),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect("TIME-WAIT"),
            Wait(TWO_MSL_MS),
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "active_open_then_local_close",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            Expect("SYN-SENT"),
            SynAck,
            ExpectTx(Pat::AckOnly),
            Expect("ESTABLISHED"),
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            Ack,
            Expect("FIN-WAIT-2"),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect("TIME-WAIT"),
            Wait(TWO_MSL_MS),
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "simultaneous_open",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            Expect("SYN-SENT"),
            Syn,
            ExpectTx(Pat::SynAck),
            Expect("SYN-RECEIVED"),
            Ack,
            Expect("ESTABLISHED"),
        ],
    },
    Scenario {
        name: "simultaneous_close",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Expect("ESTABLISHED"),
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            FinCrossing,
            ExpectTx(Pat::AckOnly),
            Expect("CLOSING"),
            Ack,
            Expect("TIME-WAIT"),
            Wait(TWO_MSL_MS),
            Expect("CLOSED"),
        ],
    },
    // ---- FIN variants the diagram quotes but the walks miss ------
    Scenario {
        // The handshake-completing FIN+ACK: SYN-RECEIVED jumps straight
        // to CLOSE-WAIT (RFC 793 p. 75 processes ACK, then FIN, in one
        // segment).
        name: "fin_completes_handshake_in_syn_received",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect("SYN-RECEIVED"), Fin, Expect("CLOSE-WAIT")],
    },
    Scenario {
        // A FIN that also acknowledges our FIN: FIN-WAIT-1 jumps
        // straight to TIME-WAIT, skipping FIN-WAIT-2.
        name: "fin_acking_our_fin_skips_fin_wait_2",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect("ESTABLISHED"),
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect("TIME-WAIT"),
        ],
    },
    // ---- user closes from every closeable state ------------------
    Scenario {
        name: "close_in_listen",
        stacks: Stacks::Both,
        steps: &[Listen, ExpectListener("LISTEN"), CloseListener, ExpectListener("CLOSED")],
    },
    Scenario {
        name: "close_in_syn_sent",
        stacks: Stacks::Both,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect("SYN-SENT"), Close, Expect("CLOSED")],
    },
    Scenario {
        // "Queue this until all preceding SENDs have been segmentized,
        // then form a FIN": closing a half-open passive child enters
        // FIN-WAIT-1 even though the handshake never completed.
        name: "close_in_syn_received",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect("SYN-RECEIVED"), Close, Expect("FIN-WAIT-1")],
    },
    // ---- RST handling ---------------------------------------------
    Scenario {
        name: "syn_to_closed_port_draws_rst",
        stacks: Stacks::Both,
        steps: &[Syn, ExpectTx(Pat::Rst)],
    },
    Scenario {
        name: "rst_in_syn_sent",
        stacks: Stacks::Both,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect("SYN-SENT"), Rst, Expect("CLOSED")],
    },
    Scenario {
        name: "rst_in_syn_received",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            ExpectTx(Pat::SynAck),
            Expect("SYN-RECEIVED"),
            Rst,
            Expect("CLOSED"),
            ExpectListener("LISTEN"),
        ],
    },
    Scenario {
        name: "rst_in_established",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Expect("ESTABLISHED"), Rst, Expect("CLOSED"), ExpectListener("LISTEN")],
    },
    Scenario {
        name: "in_window_rst_challenges_instead_of_aborting",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect("ESTABLISHED"),
            RstInWindow(100),
            Expect("ESTABLISHED"),
            ExpectTx(Pat::AckOnly),
            Rst,
            Expect("CLOSED"),
            ExpectListener("LISTEN"),
        ],
    },
    Scenario {
        name: "rst_one_byte_past_rcv_nxt_still_challenges",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect("ESTABLISHED"),
            RstInWindow(1),
            Expect("ESTABLISHED"),
            ExpectTx(Pat::AckOnly),
        ],
    },
    Scenario {
        name: "rst_in_fin_wait_1",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            Rst,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "rst_in_fin_wait_2",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Expect("ESTABLISHED"),
            Close,
            ExpectTx(Pat::Fin),
            Ack,
            Expect("FIN-WAIT-2"),
            Rst,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "rst_in_close_wait",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect("CLOSE-WAIT"), Rst, Expect("CLOSED")],
    },
    Scenario {
        name: "rst_in_closing",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Close,
            ExpectTx(Pat::Fin),
            FinCrossing,
            Expect("CLOSING"),
            Rst,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "rst_in_last_ack",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Fin,
            Expect("CLOSE-WAIT"),
            Close,
            Expect("LAST-ACK"),
            Rst,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "rst_in_time_wait",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Close,
            ExpectTx(Pat::Fin),
            Ack,
            Fin,
            Expect("TIME-WAIT"),
            Rst,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "rst_in_listen_is_ignored",
        stacks: Stacks::Both,
        steps: &[Listen, Rst, ExpectListener("LISTEN")],
    },
    // ---- in-window SYN is an error in every synchronized state ----
    // "If the SYN is in the window it is an error, send a reset ...
    // and return." (RFC 793 p. 71.)
    Scenario {
        name: "syn_in_syn_received_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect("SYN-RECEIVED"), Syn, ExpectTx(Pat::Rst), Expect("CLOSED")],
    },
    Scenario {
        name: "syn_in_established_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Expect("ESTABLISHED"), Syn, ExpectTx(Pat::Rst), Expect("CLOSED")],
    },
    Scenario {
        name: "syn_in_fin_wait_1_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Close, ExpectTx(Pat::Fin), Expect("FIN-WAIT-1"), Syn, Expect("CLOSED")],
    },
    Scenario {
        name: "syn_in_fin_wait_2_resets",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Close,
            ExpectTx(Pat::Fin),
            Ack,
            Expect("FIN-WAIT-2"),
            Syn,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "syn_in_close_wait_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect("CLOSE-WAIT"), Syn, Expect("CLOSED")],
    },
    Scenario {
        name: "syn_in_closing_resets",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Close,
            ExpectTx(Pat::Fin),
            FinCrossing,
            Expect("CLOSING"),
            Syn,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "syn_in_last_ack_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Close, Expect("LAST-ACK"), Syn, Expect("CLOSED")],
    },
    Scenario {
        name: "syn_in_time_wait_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Close, Ack, Fin, Expect("TIME-WAIT"), Syn, Expect("CLOSED")],
    },
    // ---- retransmission budgets give up (the paper's user timeout) --
    Scenario {
        name: "handshake_times_out_in_syn_sent",
        stacks: Stacks::Both,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect("SYN-SENT"), Wait(EXHAUST_MS), Expect("CLOSED")],
    },
    Scenario {
        // The embryonic child dies when its SYN-ACK is never answered;
        // the listener is untouched.
        name: "syn_ack_retransmits_exhaust_in_syn_received",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Expect("SYN-RECEIVED"),
            Wait(EXHAUST_MS),
            Expect("CLOSED"),
            ExpectListener("LISTEN"),
        ],
    },
    Scenario {
        name: "unacked_data_times_out_in_established",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Expect("ESTABLISHED"), Send, Wait(EXHAUST_MS), Expect("CLOSED")],
    },
    Scenario {
        name: "unacked_fin_times_out_in_fin_wait_1",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Close,
            ExpectTx(Pat::Fin),
            Expect("FIN-WAIT-1"),
            Wait(EXHAUST_MS),
            Expect("CLOSED"),
        ],
    },
    Scenario {
        // RFC 793 still allows SENDs in CLOSE-WAIT; if the peer (which
        // already finished its side) never acknowledges them, the
        // budget runs out there too.
        name: "unacked_data_times_out_in_close_wait",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect("CLOSE-WAIT"), Send, Wait(EXHAUST_MS), Expect("CLOSED")],
    },
    Scenario {
        name: "unacked_fin_times_out_in_closing",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Close,
            ExpectTx(Pat::Fin),
            FinCrossing,
            Expect("CLOSING"),
            Wait(EXHAUST_MS),
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "unacked_fin_times_out_in_last_ack",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Fin,
            Expect("CLOSE-WAIT"),
            Close,
            Expect("LAST-ACK"),
            Wait(EXHAUST_MS),
            Expect("CLOSED"),
        ],
    },
    // ---- ABORT from every state (fox only: xk has no abort API) ----
    Scenario {
        name: "abort_in_listen",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, ExpectListener("LISTEN"), AbortListener, ExpectListener("CLOSED")],
    },
    Scenario {
        name: "abort_in_syn_sent",
        stacks: Stacks::FoxOnly,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect("SYN-SENT"), Abort, Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_syn_received",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Expect("SYN-RECEIVED"), Abort, Expect("CLOSED"), ExpectListener("LISTEN")],
    },
    Scenario {
        // A synchronized abort puts an RST on the wire (RFC 793 p. 62).
        name: "abort_in_established",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Expect("ESTABLISHED"), Abort, ExpectTx(Pat::Rst), Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_fin_wait_1",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Expect("FIN-WAIT-1"), Abort, Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_fin_wait_2",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Ack, Expect("FIN-WAIT-2"), Abort, Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_close_wait",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Fin, Expect("CLOSE-WAIT"), Abort, Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_closing",
        stacks: Stacks::FoxOnly,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Close,
            ExpectTx(Pat::Fin),
            FinCrossing,
            Expect("CLOSING"),
            Abort,
            Expect("CLOSED"),
        ],
    },
    Scenario {
        name: "abort_in_last_ack",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Fin, Close, Expect("LAST-ACK"), Abort, Expect("CLOSED")],
    },
    Scenario {
        name: "abort_in_time_wait",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Ack, Fin, Expect("TIME-WAIT"), Abort, Expect("CLOSED")],
    },
];

// ------------------------------------------------- per-scenario tests

/// RFC 793 §3.9, passive side: LISTEN → SYN-RECEIVED → ESTABLISHED,
/// then the peer closes first: CLOSE-WAIT → LAST-ACK → CLOSED. The
/// listener survives its child.
#[test]
fn passive_open_then_remote_close() {
    conform("passive_open_then_remote_close");
}

/// The quoted chain of the state diagram: a passively accepted child
/// closes first and walks LISTEN → SYN-RECEIVED → ESTABLISHED →
/// FIN-WAIT-1 → FIN-WAIT-2 → TIME-WAIT → CLOSED.
#[test]
fn passive_open_then_local_close() {
    conform("passive_open_then_local_close");
}

/// Active side of the same walk: CLOSED → SYN-SENT → ESTABLISHED,
/// then local close through TIME-WAIT.
#[test]
fn active_open_then_local_close() {
    conform("active_open_then_local_close");
}

/// Simultaneous open: SYN-SENT → SYN-RECEIVED when a SYN (not a
/// SYN-ACK) answers ours.
#[test]
fn simultaneous_open() {
    conform("simultaneous_open");
}

/// Simultaneous close: FIN-WAIT-1 → CLOSING → TIME-WAIT when the FINs
/// cross on the wire.
#[test]
fn simultaneous_close() {
    conform("simultaneous_close");
}

/// An ACK-bearing FIN against SYN-RECEIVED completes the handshake and
/// half-closes in one segment: SYN-RECEIVED → CLOSE-WAIT.
#[test]
fn fin_completes_handshake_in_syn_received() {
    conform("fin_completes_handshake_in_syn_received");
}

/// A FIN that also acknowledges our FIN skips FIN-WAIT-2:
/// FIN-WAIT-1 → TIME-WAIT.
#[test]
fn fin_acking_our_fin_skips_fin_wait_2() {
    conform("fin_acking_our_fin_skips_fin_wait_2");
}

/// CLOSE in LISTEN tears the listener down.
#[test]
fn close_in_listen() {
    conform("close_in_listen");
}

/// CLOSE in SYN-SENT deletes the embryonic connection without a FIN.
#[test]
fn close_in_syn_sent() {
    conform("close_in_syn_sent");
}

/// CLOSE in SYN-RECEIVED queues a FIN: SYN-RECEIVED → FIN-WAIT-1.
#[test]
fn close_in_syn_received() {
    conform("close_in_syn_received");
}

/// A SYN to a port nobody listens on draws an RST (RFC 793 p. 65).
#[test]
fn syn_to_closed_port_draws_rst() {
    conform("syn_to_closed_port_draws_rst");
}

/// An acceptable RST in SYN-SENT kills the connection attempt.
#[test]
fn rst_in_syn_sent() {
    conform("rst_in_syn_sent");
}

/// An RST against a half-open passive child reaps the child and leaves
/// the listener in LISTEN.
#[test]
fn rst_in_syn_received() {
    conform("rst_in_syn_received");
}

/// An exact-rcv_nxt RST in ESTABLISHED aborts the connection.
#[test]
fn rst_in_established() {
    conform("rst_in_established");
}

/// RFC 5961 §3.2: an in-window RST that is not at exactly rcv_nxt
/// draws a challenge ACK instead of aborting.
#[test]
fn in_window_rst_challenges_instead_of_aborting() {
    conform("in_window_rst_challenges_instead_of_aborting");
}

/// The boundary case: one byte past rcv_nxt is still "in window,
/// not exact" and must be challenged.
#[test]
fn rst_one_byte_past_rcv_nxt_still_challenges() {
    conform("rst_one_byte_past_rcv_nxt_still_challenges");
}

/// An RST mid-close (FIN-WAIT-1) aborts the close handshake.
#[test]
fn rst_in_fin_wait_1() {
    conform("rst_in_fin_wait_1");
}

/// An RST in FIN-WAIT-2 aborts the half-closed connection.
#[test]
fn rst_in_fin_wait_2() {
    conform("rst_in_fin_wait_2");
}

/// An RST in CLOSE-WAIT aborts instead of finishing the close.
#[test]
fn rst_in_close_wait() {
    conform("rst_in_close_wait");
}

/// An RST in CLOSING aborts the simultaneous close.
#[test]
fn rst_in_closing() {
    conform("rst_in_closing");
}

/// An RST in LAST-ACK aborts instead of delivering the final ACK.
#[test]
fn rst_in_last_ack() {
    conform("rst_in_last_ack");
}

/// An RST in TIME-WAIT releases the port before 2MSL expires.
#[test]
fn rst_in_time_wait() {
    conform("rst_in_time_wait");
}

/// A listener ignores stray RSTs (RFC 793 p. 65, LISTEN: "An incoming
/// RST should be ignored").
#[test]
fn rst_in_listen_is_ignored() {
    conform("rst_in_listen_is_ignored");
}

/// An in-window SYN in SYN-RECEIVED is an error: reset the connection.
#[test]
fn syn_in_syn_received_resets() {
    conform("syn_in_syn_received_resets");
}

/// An in-window SYN in ESTABLISHED is an error: reset the connection.
#[test]
fn syn_in_established_resets() {
    conform("syn_in_established_resets");
}

/// An in-window SYN in FIN-WAIT-1 is an error: reset the connection.
#[test]
fn syn_in_fin_wait_1_resets() {
    conform("syn_in_fin_wait_1_resets");
}

/// An in-window SYN in FIN-WAIT-2 is an error: reset the connection.
#[test]
fn syn_in_fin_wait_2_resets() {
    conform("syn_in_fin_wait_2_resets");
}

/// An in-window SYN in CLOSE-WAIT is an error: reset the connection.
#[test]
fn syn_in_close_wait_resets() {
    conform("syn_in_close_wait_resets");
}

/// An in-window SYN in CLOSING is an error: reset the connection.
#[test]
fn syn_in_closing_resets() {
    conform("syn_in_closing_resets");
}

/// An in-window SYN in LAST-ACK is an error: reset the connection.
#[test]
fn syn_in_last_ack_resets() {
    conform("syn_in_last_ack_resets");
}

/// An in-window SYN in TIME-WAIT is an error: reset the connection.
#[test]
fn syn_in_time_wait_resets() {
    conform("syn_in_time_wait_resets");
}

/// A SYN nobody answers exhausts its retransmission budget:
/// SYN-SENT → CLOSED by timer.
#[test]
fn handshake_times_out_in_syn_sent() {
    conform("handshake_times_out_in_syn_sent");
}

/// A SYN-ACK nobody answers exhausts its budget and reaps the child:
/// SYN-RECEIVED → CLOSED by timer, listener untouched.
#[test]
fn syn_ack_retransmits_exhaust_in_syn_received() {
    conform("syn_ack_retransmits_exhaust_in_syn_received");
}

/// Data the peer never acknowledges exhausts the budget:
/// ESTABLISHED → CLOSED by timer.
#[test]
fn unacked_data_times_out_in_established() {
    conform("unacked_data_times_out_in_established");
}

/// A FIN the peer never acknowledges exhausts the budget:
/// FIN-WAIT-1 → CLOSED by timer.
#[test]
fn unacked_fin_times_out_in_fin_wait_1() {
    conform("unacked_fin_times_out_in_fin_wait_1");
}

/// Data sent in CLOSE-WAIT that is never acknowledged exhausts the
/// budget: CLOSE-WAIT → CLOSED by timer.
#[test]
fn unacked_data_times_out_in_close_wait() {
    conform("unacked_data_times_out_in_close_wait");
}

/// A crossing FIN whose ACK never arrives exhausts the budget:
/// CLOSING → CLOSED by timer.
#[test]
fn unacked_fin_times_out_in_closing() {
    conform("unacked_fin_times_out_in_closing");
}

/// The final ACK never arrives: LAST-ACK → CLOSED by timer.
#[test]
fn unacked_fin_times_out_in_last_ack() {
    conform("unacked_fin_times_out_in_last_ack");
}

/// ABORT in LISTEN deletes the listener (fox only).
#[test]
fn abort_in_listen() {
    conform("abort_in_listen");
}

/// ABORT in SYN-SENT deletes the TCB without sending anything.
#[test]
fn abort_in_syn_sent() {
    conform("abort_in_syn_sent");
}

/// ABORT in SYN-RECEIVED reaps the child; the listener survives.
#[test]
fn abort_in_syn_received() {
    conform("abort_in_syn_received");
}

/// ABORT in ESTABLISHED puts an RST on the wire (RFC 793 p. 62).
#[test]
fn abort_in_established() {
    conform("abort_in_established");
}

/// ABORT in FIN-WAIT-1 abandons the close handshake.
#[test]
fn abort_in_fin_wait_1() {
    conform("abort_in_fin_wait_1");
}

/// ABORT in FIN-WAIT-2 abandons the half-closed connection.
#[test]
fn abort_in_fin_wait_2() {
    conform("abort_in_fin_wait_2");
}

/// ABORT in CLOSE-WAIT abandons the close instead of finishing it.
#[test]
fn abort_in_close_wait() {
    conform("abort_in_close_wait");
}

/// ABORT in CLOSING abandons the simultaneous close.
#[test]
fn abort_in_closing() {
    conform("abort_in_closing");
}

/// ABORT in LAST-ACK abandons the wait for the final ACK.
#[test]
fn abort_in_last_ack() {
    conform("abort_in_last_ack");
}

/// ABORT in TIME-WAIT releases the port before 2MSL expires.
#[test]
fn abort_in_time_wait() {
    conform("abort_in_time_wait");
}

// ------------------------------------------------- the coverage ratchet

/// Every transition `spec/tcp_fsm.txt` admits must be *witnessed at
/// runtime* by some scenario above, per stack — and no scenario may
/// witness a transition the spec does not admit. Edges a stack cannot
/// reach are exempted in the spec file itself with
/// `@untested(stack: reason)`, so skipping coverage is a reviewed spec
/// edit, not a silent gap. A new spec edge fails this test until a
/// scenario exercises it: the ratchet only tightens.
#[test]
fn runtime_transitions_cover_the_fsm_spec() {
    let mut failures = Vec::new();
    for stack in ["fox", "xk"] {
        let mut seen = BTreeSet::new();
        for sc in SCENARIOS {
            if sc.runs_on(stack) {
                seen.extend(run_on(stack, sc));
            }
        }
        let key = |e: &SpecEdge| (e.from, e.trigger.name(), e.to);
        // Nothing observed that the spec does not admit.
        for (from, trigger, to) in seen.iter().filter(|s| !fsm::SPEC.iter().any(|e| key(e) == **s)) {
            failures
                .push(format!("[{stack}] observed transition outside the spec: {from} -> {to} : {trigger}"));
        }
        // Everything the spec admits (minus exemptions) observed.
        let testable: Vec<_> = fsm::SPEC.iter().filter(|e| e.untested != Some(stack)).collect();
        let missed: Vec<_> = testable.iter().filter(|e| !seen.contains(&key(e))).collect();
        for e in &missed {
            let (from, trigger, to) = key(e);
            failures
                .push(format!("[{stack}] spec edge never witnessed at runtime: {from} -> {to} : {trigger}"));
        }
        println!("[{stack}] fsm coverage: {}/{} spec edges", testable.len() - missed.len(), testable.len());
    }
    assert!(failures.is_empty(), "fsm coverage ratchet failed:\n{}", failures.join("\n"));
}

/// RFC 9293 Fig. 5, typed in independently of `spec/tcp_fsm.txt` (from
/// the figure, as `handshake`'s transcription in SNIPPETS.md does): the
/// textbook diagram is a subgraph of the declared machine. The figure
/// labels edges "event / action"; the trigger here is the event (`rcv
/// SYN,ACK` is `syn`, by flag precedence). Two of its edges the stack
/// deliberately lacks, and each says why.
#[test]
fn rfc9293_figure_5_is_a_subgraph_of_the_spec() {
    use Trigger::*;
    const FIG5: &[(&str, Trigger, &str)] = &[
        ("CLOSED", Open, "LISTEN"),            // passive OPEN
        ("CLOSED", Open, "SYN-SENT"),          // active OPEN / snd SYN
        ("LISTEN", Syn, "SYN-RECEIVED"),       // rcv SYN / snd SYN,ACK
        ("LISTEN", Close, "CLOSED"),           // CLOSE / delete TCB
        ("SYN-SENT", Syn, "SYN-RECEIVED"),     // rcv SYN / snd SYN,ACK
        ("SYN-SENT", Syn, "ESTABLISHED"),      // rcv SYN,ACK / snd ACK
        ("SYN-SENT", Close, "CLOSED"),         // CLOSE / delete TCB
        ("SYN-RECEIVED", Ack, "ESTABLISHED"),  // rcv ACK of SYN
        ("SYN-RECEIVED", Close, "FIN-WAIT-1"), // CLOSE / snd FIN
        ("ESTABLISHED", Close, "FIN-WAIT-1"),  // CLOSE / snd FIN
        ("ESTABLISHED", Fin, "CLOSE-WAIT"),    // rcv FIN / snd ACK
        ("FIN-WAIT-1", Ack, "FIN-WAIT-2"),     // rcv ACK of FIN
        ("FIN-WAIT-1", Fin, "CLOSING"),        // rcv FIN / snd ACK
        ("FIN-WAIT-2", Fin, "TIME-WAIT"),      // rcv FIN / snd ACK
        ("CLOSE-WAIT", Close, "LAST-ACK"),     // CLOSE / snd FIN
        ("CLOSING", Ack, "TIME-WAIT"),         // rcv ACK of FIN
        ("LAST-ACK", Ack, "CLOSED"),           // rcv ACK of FIN
        ("TIME-WAIT", Timer, "CLOSED"),        // Timeout=2MSL / delete TCB
    ];
    const LACKING: &[((&str, Trigger, &str), &str)] = &[
        (
            ("LISTEN", Open, "SYN-SENT"),
            "SEND on a listener: neither stack turns a listening socket active (`ListeningSocket` has \
             no send); the user opens a second, active connection instead",
        ),
        (
            ("SYN-RECEIVED", Rst, "LISTEN"),
            "the figure's note 1: an RST closes the embryonic child (SYN-RECEIVED -> CLOSED : rst) and \
             the parent listener never left LISTEN, so nothing returns to it",
        ),
    ];
    let in_spec =
        |(from, trigger, to)| fsm::SPEC.iter().any(|e| (e.from, e.trigger, e.to) == (from, trigger, to));
    for &edge in FIG5 {
        assert!(in_spec(edge), "Fig. 5 edge not in spec: {edge:?}");
    }
    for &(edge, why) in LACKING {
        assert!(!in_spec(edge), "{edge:?} is now in the spec; it was left out because: {why}");
    }
    assert_eq!(FIG5.len() + LACKING.len(), 20, "Fig. 5 draws twenty edges");
}

// ------------------------------------------------- SYN-flood recovery

/// A raw peer that floods from many source ports and watches which of
/// them the xk listener answers. (fox faces real clients below: its
/// peer is a second engine on `foxtcp::testlink::Pair`.)
struct FloodPeer {
    lower: TestLower,
    rx: Rc<RefCell<VecDeque<TcpSegment>>>,
}

impl FloodPeer {
    fn new(link: &LinkPair) -> FloodPeer {
        let rx: Rc<RefCell<VecDeque<TcpSegment>>> = Rc::new(RefCell::new(VecDeque::new()));
        let sink = rx.clone();
        let mut lower = link.endpoint(0);
        lower
            .open(
                (),
                Box::new(move |m| {
                    let seg = TcpSegment::decode_buf(&m.data, None).expect("undecodable segment");
                    sink.borrow_mut().push_back(seg);
                }),
            )
            .unwrap();
        FloodPeer { lower, rx }
    }

    fn send(&mut self, src_port: u16, flags: TcpFlags, seq: u32, ack: u32) {
        let mut h = TcpHeader::new(src_port, SUT_LISTEN_PORT);
        h.seq = Seq(seq);
        h.ack = Seq(ack);
        h.flags = flags;
        h.window = wire_window(4096, 0);
        let seg = TcpSegment { header: h, payload: foxbasis::buf::PacketBuf::new() };
        self.lower.send(0, 1, seg.encode_buf(None).unwrap()).unwrap();
    }

    /// Steps `tcp` at time zero until it and the link fall silent,
    /// returning every `(dst_port, segment)` it transmitted meanwhile.
    fn exchange(&mut self, tcp: &mut XkTcp<TestLower, TestAux>) -> Vec<(u16, TcpSegment)> {
        let now = VirtualTime::ZERO;
        let mut seen = Vec::new();
        for _ in 0..256 {
            let progress = tcp.step(now);
            self.lower.step(now);
            let fresh: Vec<_> = self.rx.borrow_mut().drain(..).map(|s| (s.header.dst_port, s)).collect();
            if !progress && fresh.is_empty() {
                return seen;
            }
            seen.extend(fresh);
        }
        panic!("[xk] did not settle");
    }
}

fn is_syn_ack(seg: &TcpSegment) -> bool {
    seg.header.flags.syn && seg.header.flags.ack
}

/// Flood a backlog-2 listener with 5 SYNs, check only 2 are answered,
/// finish those handshakes (which is all xk needs for a child to leave
/// its accept queue: SYN-RECEIVED ends at establishment), then retry one
/// of the dropped SYNs and see it admitted — the bounded queue recovers
/// instead of wedging.
#[test]
fn xk_syn_flood_drops_beyond_backlog_and_recovers() {
    let link = LinkPair::new();
    let cfg = XkConfig { backlog: 2, ..XkConfig::default() };
    let mut tcp = XkTcp::new(link.endpoint(1), TestAux, (), cfg, HostHandle::free());
    tcp.listen(SUT_LISTEN_PORT).unwrap();
    let mut peer = FloodPeer::new(&link);

    // Five clients, one burst. Backlog is 2.
    for port in [9001u16, 9002, 9003, 9004, 9005] {
        peer.send(port, TcpFlags::SYN, 1000, 0);
    }
    let replies = peer.exchange(&mut tcp);
    let answered: Vec<u16> = replies.iter().filter(|(_, s)| is_syn_ack(s)).map(|(p, _)| *p).collect();
    assert_eq!(answered, vec![9001, 9002], "only the backlog is admitted");

    // Finish the admitted handshakes.
    for (port, seg) in replies.iter().filter(|(_, s)| is_syn_ack(s)) {
        peer.send(*port, TcpFlags::ACK, 1001, seg.header.seq.0.wrapping_add(1));
    }
    peer.exchange(&mut tcp);

    // One of the silently dropped clients retransmits its SYN; the
    // drained queue now has room.
    peer.send(9004, TcpFlags::SYN, 1000, 0);
    let replies = peer.exchange(&mut tcp);
    assert!(
        replies.iter().any(|(p, s)| *p == 9004 && is_syn_ack(s)),
        "retransmitted SYN is admitted after the queue drains"
    );
}

/// The same property for fox, against five real clients: a backlog-2
/// listener admits the first two SYNs of a burst and sheds three; once
/// the user has accepted the two children (fox counts a child against
/// the backlog until it is adopted), the shed clients' retransmitted
/// SYNs are admitted in their turn.
#[test]
fn fox_syn_flood_drops_beyond_backlog_and_recovers() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig { backlog: 2, ..TcpConfig::default() });
    let clients: Vec<TcpConnId> = (0..5).map(|_| p.connect(SUT_LISTEN_PORT).id()).collect();
    p.settle();
    let established =
        |p: &Pair| clients.iter().map(|c| p.a.state_of(*c) == Some(TcpState::Estab)).collect::<Vec<_>>();
    assert_eq!(established(&p), [true, true, false, false, false], "only the backlog is admitted");
    assert_eq!(p.b.stats().syns_dropped, 3, "three of the five SYNs were shed");

    // Accepting a child (installing its handler) takes it off the
    // listener's queue; the shed clients' SYN timers then retry.
    while p.accept().is_some() {}
    p.run_for(2_000, 100);
    assert_eq!(established(&p), [true, true, true, true, false], "retransmitted SYNs are admitted");
    while p.accept().is_some() {}
    p.run_for(4_000, 100);
    assert_eq!(established(&p), [true; 5], "the queue recovers instead of wedging");
}

// ------------------------------------------- typestate lifecycle (fox)

/// The positive half of the typestate story: a connection driven end to
/// end — listen → accept → try_established → send_data → close —
/// touching the engine only through the typed wrappers. (The negative
/// half lives in `foxtcp::socket`'s `compile_fail` doctests.)
#[test]
fn fox_typed_lifecycle_listen_accept_send_close() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (listener_tag, client_tag) = (TcpConnId(SUT_LISTEN_PORT.into()), TcpConnId(PEER_PORT.into()));
    let listener = p.b.listen(SUT_LISTEN_PORT, p.recorder(1, listener_tag)).unwrap();
    let client = p.a.connect(1, SUT_LISTEN_PORT, PEER_PORT, p.recorder(0, client_tag)).unwrap();
    p.settle();
    client.try_established(&p.a).expect("the client's handshake has completed");

    // Adopt the announced child through the typed accept; the
    // handshake is already complete, so it promotes immediately.
    let child = p
        .events_of(1, listener_tag)
        .iter()
        .find_map(|e| match e {
            TcpEvent::NewConnection(c) => Some(*c),
            _ => None,
        })
        .expect("listener announced its child");
    let conn = listener.accept(&mut p.b, child, Box::new(|_| {})).unwrap();
    let est = conn.try_established(&p.b).expect("handshake has completed");

    // Data moves only through the established stage.
    assert_eq!(est.send_data(&mut p.b, b"typed").unwrap(), 5);
    assert!(est.send_capacity(&p.b).unwrap() > 0);
    p.settle();
    assert_eq!(p.data_of(0, client_tag), b"typed", "the payload went out");

    // Close consumes the socket and puts a FIN on the wire; the peer
    // acknowledges it and keeps its own half open.
    est.close(&mut p.b).unwrap();
    p.settle();
    assert!(p.events_of(0, client_tag).contains(&TcpEvent::PeerClosed), "FIN transmitted");
    assert_eq!(p.b.state_of(child).expect("still tracked").name(), "FinWait2");
    listener.close(&mut p.b).unwrap();
}

// --------------------------------------------- post-reap observability

/// Once fox reaps a closed connection, `state_of` and `metrics_of`
/// answer `None` — never a stale snapshot of the dead connection.
#[test]
fn fox_reaped_connection_reads_none() {
    let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
    let (client, child) = p.open(SUT_LISTEN_PORT);
    assert!(p.b.state_of(child).is_some(), "live connection is observable");
    assert!(p.b.metrics_of(child).is_some());

    // Passive close: peer's FIN, our FIN, peer's final ACK. LAST-ACK
    // collapses straight to CLOSED, so the reaper takes the connection
    // as soon as its Closed event has been delivered.
    p.a.close(client).unwrap();
    p.settle();
    p.b.close(child).unwrap();
    p.settle();

    assert_eq!(p.b.state_of(child), None, "reaped: no stale state");
    assert!(p.b.metrics_of(child).is_none(), "reaped: no stale metrics");
    assert!(p.b.send_capacity(child).is_err(), "reaped: capacity is an error, not 0");
    let (_, next_child) = p.open(SUT_LISTEN_PORT);
    assert_ne!(next_child, child, "the listener survives its child");
}

/// The xk baseline keeps the same post-reap contract: an accepted child
/// that finishes its close and drains its events vanishes from
/// `state_of`/`metrics_of` instead of lingering as a stale entry.
/// (Only children are reaped — the listener itself stays.)
#[test]
fn xk_reaped_child_reads_none() {
    let link = LinkPair::new();
    let mut tcp = XkTcp::new(link.endpoint(1), TestAux, (), XkConfig::default(), HostHandle::free());
    let listener = tcp.listen(SUT_LISTEN_PORT).unwrap();
    let mut peer = FloodPeer::new(&link);

    peer.send(PEER_PORT, TcpFlags::SYN, PEER_ISS, 0);
    let replies = peer.exchange(&mut tcp);
    let (_, syn_ack) = replies.iter().find(|(_, s)| is_syn_ack(s)).expect("SYN-ACK answers the SYN");
    let sut_iss = syn_ack.header.seq.0;
    peer.send(PEER_PORT, TcpFlags::ACK, PEER_ISS + 1, sut_iss.wrapping_add(1));
    peer.exchange(&mut tcp);

    let mut child = None;
    while let Some(e) = tcp.poll_event(listener) {
        if let XkEvent::Accepted(c) = e {
            child = Some(c);
        }
    }
    let child = child.expect("listener accepted its child");
    assert!(tcp.state_of(child).is_some(), "live child is observable");
    assert!(tcp.metrics_of(child).is_some());

    // Passive close of the child.
    peer.send(PEER_PORT, TcpFlags::FIN_ACK, PEER_ISS + 1, sut_iss.wrapping_add(1));
    peer.exchange(&mut tcp);
    tcp.close(child).unwrap();
    peer.exchange(&mut tcp);
    peer.send(PEER_PORT, TcpFlags::ACK, PEER_ISS + 2, sut_iss.wrapping_add(2));
    peer.exchange(&mut tcp);

    // xk reaps only once the user has drained the child's events.
    while tcp.poll_event(child).is_some() {}
    tcp.step(VirtualTime::ZERO);

    assert_eq!(tcp.state_of(child), None, "reaped: no stale state");
    assert!(tcp.metrics_of(child).is_none(), "reaped: no stale metrics");
    assert!(tcp.state_of(listener).is_some(), "the listener survives its child");
}
