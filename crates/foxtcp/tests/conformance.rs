//! RFC-793 §3.9 conformance: both TCP implementations, one script.
//!
//! Every scenario is a table of [`Step`]s — user calls on the system
//! under test (SUT) interleaved with raw segments crafted by a scripted
//! peer — and runs unchanged against the structured stack
//! ([`foxtcp::Tcp`]) and the monolithic baseline ([`xktcp::XkTcp`]),
//! each driven as a [`Station`], the harness's one driver interface.
//! The peer is *not* a TCP: it is the test itself, holding the other
//! end of a [`LinkPair`], building segments with [`forge`] and
//! following the SUT through a [`WireView`] — the adversary's wire-side
//! core — so every transition is pinned against the standard's state
//! diagram rather than against whatever the other implementation
//! happens to do. The SUT opens actively from its own ephemeral port;
//! the peer learns it from the wire.
//!
//! States are checked as RFC 793 states (`RfcState`, here `Rfc`)
//! because the two stacks factor the diagram differently: fox splits
//! SYN-RECEIVED into `SynActive`/`SynPassive` (the paper's Fig. 6). Each
//! stack's state name knows its RFC state, and a connection the stack
//! has forgotten reads as CLOSED.
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
use foxbasis::obs::{Event, EventSink, RfcState as Rfc, StateName, Trigger};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::advpeer::{forge, WireView};
use foxharness::stack::{fox_station, xk_station};
use foxharness::station::{ConnHandle, Station};
use foxproto::Protocol;
use foxtcp::control::fsm::{self, SpecEdge};
use foxtcp::testlink::{check_replay, LinkPair, Pair, TestAux, TestLower, TestMsg};
use foxtcp::{InputLog, Tcp, TcpConfig, TcpConnId, TcpEvent, TcpState};
use foxwire::tcp::{TcpFlags, TcpSegment};
use simnet::{HostHandle, Medium};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use xktcp::{XkConfig, XkEvent, XkState, XkTcp};

/// Port the SUT listens on in passive scenarios.
const SUT_LISTEN_PORT: u16 = 80;
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
    /// Assert the data connection's RFC state.
    Expect(Rfc),
    /// Assert the listener's RFC state.
    ExpectListener(Rfc),
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

// --------------------------------------------------------- the runner

/// The other end of the link from the SUT: not a TCP, only raw
/// segments out and every segment the SUT transmitted, decoded, in.
struct Peer {
    link: LinkPair,
    lower: TestLower,
    rx: Rc<RefCell<Vec<TcpSegment>>>,
}

impl Peer {
    /// Takes endpoint 0 of `link`; the SUT holds endpoint 1.
    fn new(link: LinkPair) -> Peer {
        let rx = Rc::new(RefCell::new(Vec::new()));
        let sink = rx.clone();
        let mut lower = link.endpoint(0);
        lower
            .open(
                (),
                Box::new(move |m| {
                    let seg = TcpSegment::decode_buf(&m.data, None).expect("undecodable segment");
                    sink.borrow_mut().push(seg);
                }),
            )
            .unwrap();
        Peer { link, lower, rx }
    }

    /// Puts a bare segment `ports.0` → `ports.1` on the wire.
    fn send(&mut self, ports: (u16, u16), flags: TcpFlags, seq: u32, ack: Option<u32>) {
        let seg = forge(ports, flags, seq, ack, 4096, &[], &[]);
        self.lower.send(0, 1, seg.encode_buf(None).unwrap()).unwrap();
    }

    /// Settles the SUT (stepped by `sut_step`) and the peer at the
    /// link's clock, and returns every segment the SUT transmitted
    /// meanwhile.
    fn exchange(&mut self, mut sut_step: impl FnMut(VirtualTime) -> bool) -> Vec<TcpSegment> {
        let lower = &mut self.lower;
        simnet::settle(&[&self.link], |now| sut_step(now) | lower.step(now));
        self.rx.take()
    }
}

/// The scripted peer plus the bookkeeping the script needs: its own
/// next sequence number, what the SUT has shown of itself on the wire
/// (observed, not computed), and every segment the SUT has transmitted.
struct Harness {
    sut: Box<dyn Station>,
    /// The single data connection a scenario exercises: the active
    /// client, or the first child the listener spawns.
    conn: Option<ConnHandle>,
    /// The listener, once the scenario opened one.
    listener: Option<ConnHandle>,
    peer: Peer,
    /// Next sequence number the peer will send.
    peer_nxt: u32,
    /// The SUT's side of the wire; its port starts at the listening one.
    sut_view: WireView,
    /// Transmit log and the assertion cursor into it.
    got: Vec<TcpSegment>,
    cursor: usize,
}

impl Harness {
    /// Steps SUT and peer until neither makes progress, follows what the
    /// SUT sent (the link is in-order and loss-free, so the latest
    /// segment is the SUT's cumulative state), then adopts the
    /// listener's first child as the data connection.
    fn settle(&mut self) {
        let sut = &mut self.sut;
        for seg in self.peer.exchange(|now| sut.step(now)) {
            self.sut_view.observe(&seg);
            self.got.push(seg);
        }
        if self.conn.is_none() {
            self.conn = self.sut.accept();
        }
    }

    /// Peer → SUT.
    fn send(&mut self, flags: TcpFlags, seq: u32, ack: Option<u32>) {
        self.peer.send((PEER_PORT, self.sut_view.port), flags, seq, ack);
    }

    /// The peer's next sequence number, advanced past a SYN or FIN.
    fn take_seq(&mut self) -> u32 {
        self.peer_nxt = self.peer_nxt.wrapping_add(1);
        self.peer_nxt.wrapping_sub(1)
    }

    fn run(&mut self, name: &str, steps: &[Step]) {
        for (i, step) in steps.iter().enumerate() {
            let ctx = format!("[{} · {name} · step {i}: {step:?}]", self.sut.kind());
            let conn = self.conn;
            let (sut_nxt, listener) = (self.sut_view.seq_end, self.listener);
            match *step {
                Step::Listen => {
                    self.sut.listen(SUT_LISTEN_PORT);
                    self.listener = self.sut.listener();
                }
                Step::Connect => self.conn = Some(self.sut.connect(PEER_PORT)),
                Step::Close => self.sut.close(conn.expect("no connection to close")),
                Step::CloseListener => self.sut.close(listener.expect("no listener to close")),
                Step::Send => {
                    let n = self.sut.send(conn.expect("no connection to send on"), b"ratchet");
                    assert_eq!(n, 7, "{ctx} send buffer accepted the payload");
                }
                Step::Abort => self.sut.abort(conn.expect("no connection to abort")),
                Step::AbortListener => self.sut.abort(listener.expect("no listener to abort")),
                Step::Syn => {
                    let seq = self.take_seq();
                    self.send(TcpFlags::SYN, seq, None);
                }
                Step::SynAck => {
                    let seq = self.take_seq();
                    self.send(TcpFlags::SYN_ACK, seq, Some(sut_nxt));
                }
                Step::Ack => self.send(TcpFlags::ACK, self.peer_nxt, Some(sut_nxt)),
                Step::Fin => {
                    let seq = self.take_seq();
                    self.send(TcpFlags::FIN_ACK, seq, Some(sut_nxt));
                }
                Step::FinCrossing => {
                    let seq = self.take_seq();
                    let ack = self.sut_view.fin_seq.expect("no SUT FIN to cross");
                    self.send(TcpFlags::FIN_ACK, seq, Some(ack));
                }
                Step::Rst => self.send(TcpFlags::RST_ACK, self.peer_nxt, Some(sut_nxt)),
                Step::RstInWindow(offset) => {
                    self.send(TcpFlags::RST_ACK, self.peer_nxt.wrapping_add(offset), Some(sut_nxt))
                }
                Step::Expect(want) => {
                    let raw = conn.map_or("", |c| self.sut.conn_state(c));
                    assert_eq!(Rfc::of_name(raw), Some(want), "{ctx} connection is {raw:?}");
                    continue;
                }
                Step::ExpectListener(want) => {
                    let raw = listener.map_or("", |l| self.sut.conn_state(l));
                    assert_eq!(Rfc::of_name(raw), Some(want), "{ctx} listener is {raw:?}");
                    continue;
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
                    continue;
                }
                Step::Wait(ms) => {
                    let end = self.peer.link.now() + VirtualDuration::from_millis(ms);
                    while self.peer.link.now() < end {
                        let next = (self.peer.link.now() + VirtualDuration::from_millis(1000)).min(end);
                        self.peer.link.advance_to(next);
                        self.settle();
                    }
                    continue;
                }
            }
            // A user call or a peer segment: let it land.
            self.settle();
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

/// Runs one scenario against one stack, returning the `(from, trigger,
/// to)` RFC-state transitions the stack emitted while it ran. A move
/// within one RFC state (fox's `SynActive` and `SynPassive` are both
/// SYN-RECEIVED) is dropped: the spec graph has no self-edges.
fn run_on(stack: &'static str, sc: &Scenario) -> BTreeSet<(Rfc, Trigger, Rfc)> {
    let (_, sink) = run(stack, sc, None);
    let mut out = BTreeSet::new();
    for ev in sink.events() {
        if let Event::StateTransition { from, to, cause } = ev.event {
            let (f, t) = (from.rfc(), to.rfc());
            if f != t {
                out.insert((f, cause, t));
            }
        }
    }
    out
}

/// Runs one scenario against one stack, the fox engine keeping its
/// input in `log` if one is given; returns the SUT and what it emitted.
fn run(
    stack: &'static str,
    sc: &Scenario,
    log: Option<InputLog<u8, TestMsg>>,
) -> (Box<dyn Station>, EventSink) {
    let link = LinkPair::new();
    let host = HostHandle::free();
    let mut sut = match stack {
        "fox" => {
            let cfg = TcpConfig::default();
            let mut tcp = Tcp::new(link.endpoint(1), TestAux, (), cfg, SchedHandle::new(), host.clone());
            if let Some(log) = log {
                tcp.set_recorder(log);
            }
            fox_station(tcp, host, 0, stack)
        }
        "xk" => {
            xk_station(XkTcp::new(link.endpoint(1), TestAux, (), XkConfig::default(), host.clone()), host, 0)
        }
        other => panic!("unknown stack {other:?}"),
    };
    let sink = EventSink::recording(1 << 16);
    sut.set_obs(sink.clone());
    let mut h = Harness {
        sut,
        conn: None,
        listener: None,
        peer: Peer::new(link),
        peer_nxt: PEER_ISS,
        sut_view: WireView { port: SUT_LISTEN_PORT, ..WireView::default() },
        got: Vec::new(),
        cursor: 0,
    };
    h.run(sc.name, sc.steps);
    assert_eq!(sink.dropped(), 0, "[{stack} · {}] event ring overflowed", sc.name);
    (h.sut, sink)
}

/// The engine is a function of its inputs (paper §4: once arrivals and
/// expirations are `to_do` actions, "behaviour is totally ordered and
/// deterministic"): every fox scenario's recorded input log, replayed
/// on a lone engine, gives the same event stream, and every connection
/// ends with an equal TCB.
#[test]
fn every_fox_scenario_replays_on_a_lone_engine() {
    let mut failures = Vec::new();
    for sc in SCENARIOS.iter().filter(|sc| sc.runs_on("fox")) {
        let log = InputLog::default();
        let (mut sut, sink) = run("fox", sc, Some(log.clone()));
        let engine =
            sut.engine().and_then(|e| e.downcast_ref::<Tcp<TestLower, TestAux>>()).expect("a fox engine");
        if let Err(report) = check_replay(engine, &sink.events(), &log) {
            failures.push(format!("[{}] {report}", sc.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
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
            ExpectListener(Rfc::Listen),
            Syn,
            Expect(Rfc::SynReceived),
            ExpectTx(Pat::SynAck),
            Ack,
            Expect(Rfc::Established),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::CloseWait),
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::LastAck),
            Ack,
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        name: "passive_open_then_local_close",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Expect(Rfc::SynReceived),
            ExpectTx(Pat::SynAck),
            Ack,
            Expect(Rfc::Established),
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::FinWait1),
            Ack,
            Expect(Rfc::FinWait2),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::TimeWait),
            Wait(TWO_MSL_MS),
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "active_open_then_local_close",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            Expect(Rfc::SynSent),
            SynAck,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::Established),
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::FinWait1),
            Ack,
            Expect(Rfc::FinWait2),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::TimeWait),
            Wait(TWO_MSL_MS),
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "simultaneous_open",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            Expect(Rfc::SynSent),
            Syn,
            ExpectTx(Pat::SynAck),
            Expect(Rfc::SynReceived),
            Ack,
            Expect(Rfc::Established),
        ],
    },
    Scenario {
        name: "simultaneous_close",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Expect(Rfc::Established),
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::FinWait1),
            FinCrossing,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::Closing),
            Ack,
            Expect(Rfc::TimeWait),
            Wait(TWO_MSL_MS),
            Expect(Rfc::Closed),
        ],
    },
    // ---- FIN variants the diagram quotes but the walks miss ------
    Scenario {
        // The handshake-completing FIN+ACK: SYN-RECEIVED jumps straight
        // to CLOSE-WAIT (RFC 793 p. 75 processes ACK, then FIN, in one
        // segment).
        name: "fin_completes_handshake_in_syn_received",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect(Rfc::SynReceived), Fin, Expect(Rfc::CloseWait)],
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
            Expect(Rfc::Established),
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::FinWait1),
            Fin,
            ExpectTx(Pat::AckOnly),
            Expect(Rfc::TimeWait),
        ],
    },
    // ---- user closes from every closeable state ------------------
    Scenario {
        name: "close_in_listen",
        stacks: Stacks::Both,
        steps: &[Listen, ExpectListener(Rfc::Listen), CloseListener, ExpectListener(Rfc::Closed)],
    },
    Scenario {
        name: "close_in_syn_sent",
        stacks: Stacks::Both,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect(Rfc::SynSent), Close, Expect(Rfc::Closed)],
    },
    Scenario {
        // "Queue this until all preceding SENDs have been segmentized,
        // then form a FIN": closing a half-open passive child enters
        // FIN-WAIT-1 even though the handshake never completed.
        name: "close_in_syn_received",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect(Rfc::SynReceived), Close, Expect(Rfc::FinWait1)],
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
        steps: &[Connect, ExpectTx(Pat::Syn), Expect(Rfc::SynSent), Rst, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "rst_in_syn_received",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            ExpectTx(Pat::SynAck),
            Expect(Rfc::SynReceived),
            Rst,
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        name: "rst_in_established",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect(Rfc::Established),
            Rst,
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        name: "in_window_rst_challenges_instead_of_aborting",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect(Rfc::Established),
            RstInWindow(100),
            Expect(Rfc::Established),
            ExpectTx(Pat::AckOnly),
            Rst,
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        name: "rst_one_byte_past_rcv_nxt_still_challenges",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Expect(Rfc::Established),
            RstInWindow(1),
            Expect(Rfc::Established),
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
            Expect(Rfc::FinWait1),
            Rst,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "rst_in_fin_wait_2",
        stacks: Stacks::Both,
        steps: &[
            Connect,
            ExpectTx(Pat::Syn),
            SynAck,
            Expect(Rfc::Established),
            Close,
            ExpectTx(Pat::Fin),
            Ack,
            Expect(Rfc::FinWait2),
            Rst,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "rst_in_close_wait",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect(Rfc::CloseWait), Rst, Expect(Rfc::Closed)],
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
            Expect(Rfc::Closing),
            Rst,
            Expect(Rfc::Closed),
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
            Expect(Rfc::CloseWait),
            Close,
            Expect(Rfc::LastAck),
            Rst,
            Expect(Rfc::Closed),
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
            Expect(Rfc::TimeWait),
            Rst,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "rst_in_listen_is_ignored",
        stacks: Stacks::Both,
        steps: &[Listen, Rst, ExpectListener(Rfc::Listen)],
    },
    // ---- in-window SYN is an error in every synchronized state ----
    // "If the SYN is in the window it is an error, send a reset ...
    // and return." (RFC 793 p. 71.)
    Scenario {
        name: "syn_in_syn_received_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Expect(Rfc::SynReceived), Syn, ExpectTx(Pat::Rst), Expect(Rfc::Closed)],
    },
    Scenario {
        name: "syn_in_established_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Expect(Rfc::Established), Syn, ExpectTx(Pat::Rst), Expect(Rfc::Closed)],
    },
    Scenario {
        name: "syn_in_fin_wait_1_resets",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Ack,
            Close,
            ExpectTx(Pat::Fin),
            Expect(Rfc::FinWait1),
            Syn,
            Expect(Rfc::Closed),
        ],
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
            Expect(Rfc::FinWait2),
            Syn,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "syn_in_close_wait_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect(Rfc::CloseWait), Syn, Expect(Rfc::Closed)],
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
            Expect(Rfc::Closing),
            Syn,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "syn_in_last_ack_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Close, Expect(Rfc::LastAck), Syn, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "syn_in_time_wait_resets",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Close, Ack, Fin, Expect(Rfc::TimeWait), Syn, Expect(Rfc::Closed)],
    },
    // ---- retransmission budgets give up (the paper's user timeout) --
    Scenario {
        name: "handshake_times_out_in_syn_sent",
        stacks: Stacks::Both,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect(Rfc::SynSent), Wait(EXHAUST_MS), Expect(Rfc::Closed)],
    },
    Scenario {
        // The embryonic child dies when its SYN-ACK is never answered;
        // the listener is untouched.
        name: "syn_ack_retransmits_exhaust_in_syn_received",
        stacks: Stacks::Both,
        steps: &[
            Listen,
            Syn,
            Expect(Rfc::SynReceived),
            Wait(EXHAUST_MS),
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        name: "unacked_data_times_out_in_established",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Expect(Rfc::Established), Send, Wait(EXHAUST_MS), Expect(Rfc::Closed)],
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
            Expect(Rfc::FinWait1),
            Wait(EXHAUST_MS),
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        // RFC 793 still allows SENDs in CLOSE-WAIT; if the peer (which
        // already finished its side) never acknowledges them, the
        // budget runs out there too.
        name: "unacked_data_times_out_in_close_wait",
        stacks: Stacks::Both,
        steps: &[Listen, Syn, Ack, Fin, Expect(Rfc::CloseWait), Send, Wait(EXHAUST_MS), Expect(Rfc::Closed)],
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
            Expect(Rfc::Closing),
            Wait(EXHAUST_MS),
            Expect(Rfc::Closed),
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
            Expect(Rfc::CloseWait),
            Close,
            Expect(Rfc::LastAck),
            Wait(EXHAUST_MS),
            Expect(Rfc::Closed),
        ],
    },
    // ---- ABORT from every state (fox only: xk has no abort API) ----
    Scenario {
        name: "abort_in_listen",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, ExpectListener(Rfc::Listen), AbortListener, ExpectListener(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_syn_sent",
        stacks: Stacks::FoxOnly,
        steps: &[Connect, ExpectTx(Pat::Syn), Expect(Rfc::SynSent), Abort, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_syn_received",
        stacks: Stacks::FoxOnly,
        steps: &[
            Listen,
            Syn,
            Expect(Rfc::SynReceived),
            Abort,
            Expect(Rfc::Closed),
            ExpectListener(Rfc::Listen),
        ],
    },
    Scenario {
        // A synchronized abort puts an RST on the wire (RFC 793 p. 62).
        name: "abort_in_established",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Expect(Rfc::Established), Abort, ExpectTx(Pat::Rst), Expect(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_fin_wait_1",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Expect(Rfc::FinWait1), Abort, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_fin_wait_2",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Ack, Expect(Rfc::FinWait2), Abort, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_close_wait",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Fin, Expect(Rfc::CloseWait), Abort, Expect(Rfc::Closed)],
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
            Expect(Rfc::Closing),
            Abort,
            Expect(Rfc::Closed),
        ],
    },
    Scenario {
        name: "abort_in_last_ack",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Fin, Close, Expect(Rfc::LastAck), Abort, Expect(Rfc::Closed)],
    },
    Scenario {
        name: "abort_in_time_wait",
        stacks: Stacks::FoxOnly,
        steps: &[Listen, Syn, Ack, Close, Ack, Fin, Expect(Rfc::TimeWait), Abort, Expect(Rfc::Closed)],
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
        let key = |e: &SpecEdge| (e.from, e.trigger, e.to);
        let edge = |&(from, trigger, to): &(Rfc, Trigger, Rfc)| {
            format!("{} -> {} : {}", from.name(), to.name(), trigger.name())
        };
        // Nothing observed that the spec does not admit.
        for s in seen.iter().filter(|s| !fsm::SPEC.iter().any(|e| key(e) == **s)) {
            failures.push(format!("[{stack}] observed transition outside the spec: {}", edge(s)));
        }
        // Everything the spec admits (minus exemptions) observed.
        let testable: Vec<_> = fsm::SPEC.iter().filter(|e| e.untested != Some(stack)).collect();
        let missed: Vec<_> = testable.iter().filter(|e| !seen.contains(&key(e))).collect();
        for e in &missed {
            failures.push(format!("[{stack}] spec edge never witnessed at runtime: {}", edge(&key(e))));
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
    use Rfc::*;
    use Trigger::*;
    const FIG5: &[(Rfc, Trigger, Rfc)] = &[
        (Closed, Open, Listen),          // passive OPEN
        (Closed, Open, SynSent),         // active OPEN / snd SYN
        (Listen, Syn, SynReceived),      // rcv SYN / snd SYN,ACK
        (Listen, Close, Closed),         // CLOSE / delete TCB
        (SynSent, Syn, SynReceived),     // rcv SYN / snd SYN,ACK
        (SynSent, Syn, Established),     // rcv SYN,ACK / snd ACK
        (SynSent, Close, Closed),        // CLOSE / delete TCB
        (SynReceived, Ack, Established), // rcv ACK of SYN
        (SynReceived, Close, FinWait1),  // CLOSE / snd FIN
        (Established, Close, FinWait1),  // CLOSE / snd FIN
        (Established, Fin, CloseWait),   // rcv FIN / snd ACK
        (FinWait1, Ack, FinWait2),       // rcv ACK of FIN
        (FinWait1, Fin, Closing),        // rcv FIN / snd ACK
        (FinWait2, Fin, TimeWait),       // rcv FIN / snd ACK
        (CloseWait, Close, LastAck),     // CLOSE / snd FIN
        (Closing, Ack, TimeWait),        // rcv ACK of FIN
        (LastAck, Ack, Closed),          // rcv ACK of FIN
        (TimeWait, Timer, Closed),       // Timeout=2MSL / delete TCB
    ];
    const LACKING: &[((Rfc, Trigger, Rfc), &str)] = &[
        (
            (Listen, Open, SynSent),
            "SEND on a listener: neither stack turns a listening socket active (`ListeningSocket` has \
             no send); the user opens a second, active connection instead",
        ),
        (
            (SynReceived, Rst, Listen),
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

/// Both stacks' states map onto RFC 793's as §3.9 draws them — a table
/// typed from the RFC, not derived from `StateName::rfc` — and each
/// `Station::conn_state` spelling (a state's name, or `""` once
/// forgotten) maps back through `RfcState::of_name`.
#[test]
fn every_stack_state_is_an_rfc_state() {
    use Rfc::*;
    let fox = [
        (TcpState::Closed, Closed),
        (TcpState::Listen { backlog: 1 }, Listen),
        (TcpState::SynSent { retries_left: 1 }, SynSent),
        (TcpState::SynActive, SynReceived),
        (TcpState::SynPassive { retries_left: 1 }, SynReceived),
        (TcpState::Estab, Established),
        (TcpState::FinWait1, FinWait1),
        (TcpState::FinWait2, FinWait2),
        (TcpState::CloseWait, CloseWait),
        (TcpState::Closing, Closing),
        (TcpState::LastAck, LastAck),
        (TcpState::TimeWait, TimeWait),
    ];
    let xk = [
        (XkState::Closed, Closed),
        (XkState::Listen, Listen),
        (XkState::SynSent, SynSent),
        (XkState::SynReceived, SynReceived),
        (XkState::Established, Established),
        (XkState::FinWait1, FinWait1),
        (XkState::FinWait2, FinWait2),
        (XkState::CloseWait, CloseWait),
        (XkState::Closing, Closing),
        (XkState::LastAck, LastAck),
        (XkState::TimeWait, TimeWait),
    ];
    let names: Vec<(StateName, Rfc)> =
        fox.iter().map(|(s, rfc)| (s.name(), *rfc)).chain(xk.map(|(s, rfc)| (s.name(), rfc))).collect();
    for &(name, rfc) in &names {
        assert_eq!(name.rfc(), rfc, "{name:?}");
        assert_eq!(Rfc::of_name(name.name()), Some(rfc), "{name:?} as `conn_state` spells it");
    }
    assert_eq!(Rfc::of_name(""), Some(Closed), "a connection its stack has forgotten");
    assert!(StateName::ALL.iter().all(|n| names.iter().any(|(m, _)| m == n)), "a name no stack uses");
}

// ------------------------------------------------- SYN-flood recovery

fn is_syn_ack(seg: &TcpSegment) -> bool {
    seg.header.flags.syn && seg.header.flags.ack
}

/// The raw [`Peer`] against xk (fox faces real clients below, on a
/// `Pair`): flood a backlog-2 listener with 5 SYNs, check only 2 are
/// answered, finish those handshakes (which is all xk needs for a child
/// to leave its accept queue: SYN-RECEIVED ends at establishment), then
/// retry one of the dropped SYNs and see it admitted — the bounded queue
/// recovers instead of wedging.
#[test]
fn xk_syn_flood_drops_beyond_backlog_and_recovers() {
    let link = LinkPair::new();
    let cfg = XkConfig { backlog: 2, ..XkConfig::default() };
    let mut tcp = XkTcp::new(link.endpoint(1), TestAux, (), cfg, HostHandle::free());
    tcp.listen(SUT_LISTEN_PORT).unwrap();
    let mut peer = Peer::new(link);

    // Five clients, one burst. Backlog is 2.
    for port in [9001u16, 9002, 9003, 9004, 9005] {
        peer.send((port, SUT_LISTEN_PORT), TcpFlags::SYN, 1000, None);
    }
    let replies = peer.exchange(|now| tcp.step(now));
    let answered: Vec<u16> = replies.iter().filter(|s| is_syn_ack(s)).map(|s| s.header.dst_port).collect();
    assert_eq!(answered, vec![9001, 9002], "only the backlog is admitted");

    // Finish the admitted handshakes.
    for seg in replies.iter().filter(|s| is_syn_ack(s)) {
        let ports = (seg.header.dst_port, SUT_LISTEN_PORT);
        peer.send(ports, TcpFlags::ACK, 1001, Some(seg.header.seq.0.wrapping_add(1)));
    }
    peer.exchange(|now| tcp.step(now));

    // One of the silently dropped clients retransmits its SYN; the
    // drained queue now has room.
    peer.send((9004, SUT_LISTEN_PORT), TcpFlags::SYN, 1000, None);
    let replies = peer.exchange(|now| tcp.step(now));
    assert!(
        replies.iter().any(|s| s.header.dst_port == 9004 && is_syn_ack(s)),
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
    assert_eq!(p.b.state_of(child).expect("still tracked").name(), StateName::FinWait2);
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
/// `state_of`/`metrics_of` instead of lingering as a stale entry. The
/// listener, still open, stays.
#[test]
fn xk_reaped_child_reads_none() {
    let link = LinkPair::new();
    let mut tcp = XkTcp::new(link.endpoint(1), TestAux, (), XkConfig::default(), HostHandle::free());
    let listener = tcp.listen(SUT_LISTEN_PORT).unwrap();
    let mut peer = Peer::new(link);
    let ports = (PEER_PORT, SUT_LISTEN_PORT);

    peer.send(ports, TcpFlags::SYN, PEER_ISS, None);
    let replies = peer.exchange(|now| tcp.step(now));
    let syn_ack = replies.iter().find(|s| is_syn_ack(s)).expect("SYN-ACK answers the SYN");
    let sut_iss = syn_ack.header.seq.0;
    peer.send(ports, TcpFlags::ACK, PEER_ISS + 1, Some(sut_iss.wrapping_add(1)));
    peer.exchange(|now| tcp.step(now));

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
    peer.send(ports, TcpFlags::FIN_ACK, PEER_ISS + 1, Some(sut_iss.wrapping_add(1)));
    peer.exchange(|now| tcp.step(now));
    tcp.close(child).unwrap();
    peer.exchange(|now| tcp.step(now));
    peer.send(ports, TcpFlags::ACK, PEER_ISS + 2, Some(sut_iss.wrapping_add(2)));
    peer.exchange(|now| tcp.step(now));

    // xk reaps only once the user has drained the child's events.
    while tcp.poll_event(child).is_some() {}
    tcp.step(VirtualTime::ZERO);

    assert_eq!(tcp.state_of(child), None, "reaped: no stale state");
    assert!(tcp.metrics_of(child).is_none(), "reaped: no stale metrics");
    assert!(tcp.state_of(listener).is_some(), "the listener survives its child");
}

/// An actively opened xk socket is reaped by the same rule as a child:
/// once its close and TIME-WAIT are over and its events are drained, it
/// reads `None` instead of lingering, Closed, in the socket table.
#[test]
fn xk_reaped_active_opener_reads_none() {
    let link = LinkPair::new();
    let cfg = XkConfig { time_wait_ms: 1_000, ..XkConfig::default() };
    let mut tcp = XkTcp::new(link.endpoint(1), TestAux, (), cfg, HostHandle::free());
    let mut peer = Peer::new(link);

    let client = tcp.connect(0, PEER_PORT, 0).unwrap();
    let replies = peer.exchange(|now| tcp.step(now));
    let syn = replies.iter().find(|s| s.header.flags.syn).expect("the active open sends a SYN");
    let (ports, sut_iss) = ((PEER_PORT, syn.header.src_port), syn.header.seq.0);
    peer.send(ports, TcpFlags::SYN_ACK, PEER_ISS, Some(sut_iss.wrapping_add(1)));
    peer.exchange(|now| tcp.step(now));

    // Active close: our FIN, the peer's ACK and FIN, then TIME-WAIT.
    tcp.close(client).unwrap();
    peer.exchange(|now| tcp.step(now));
    peer.send(ports, TcpFlags::FIN_ACK, PEER_ISS + 1, Some(sut_iss.wrapping_add(2)));
    peer.exchange(|now| tcp.step(now));
    assert_eq!(tcp.state_of(client).map(|s| s.name()), Some(StateName::TimeWait));

    peer.link.advance_to(peer.link.now() + VirtualDuration::from_millis(1_000));
    peer.exchange(|now| tcp.step(now));
    while tcp.poll_event(client).is_some() {}
    tcp.step(peer.link.now());

    assert_eq!(tcp.state_of(client), None, "reaped: no stale state");
    assert!(tcp.metrics_of(client).is_none(), "reaped: no stale metrics");
}
