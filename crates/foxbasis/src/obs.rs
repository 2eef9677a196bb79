//! Typed, bounded observability: the event layer that stands in for the
//! print/trace switches every functor in the paper accepts (Fig. 4).
//!
//! The paper's central claim is that quasi-synchronous control makes the
//! stack's behaviour totally ordered and deterministic. [`EventSink`]
//! turns that from an assertion into an instrument: every interesting
//! step — a state transition, an executed `to_do` action, a timer
//! set/clear/fire, a segment on the wire, a frame faulted by the
//! simulated Ethernet, a GC pause — is recorded as a typed [`Event`],
//! stamped with virtual time, host id and connection id, into a
//! fixed-capacity ring ([`EventRing`]: overwrite-oldest with a dropped
//! counter, never an unbounded `Vec`).
//!
//! Because execution is totally ordered, two identically-seeded runs
//! produce byte-identical event streams; [`first_divergence`] aligns two
//! streams and reports where (if anywhere) they part — the determinism
//! claim as a debugging tool. [`to_jsonl`] and [`to_chrome_trace`]
//! export a stream for line tools and for Perfetto / `chrome://tracing`
//! (Trace Event Format) respectively.
//!
//! The sink is zero-cost when off: a disabled sink holds no ring, and
//! [`EventSink::emit`] takes the event as a closure that is never run.

use crate::time::VirtualTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

/// Connection id used for events not tied to any connection (wire
/// frames, GC pauses).
pub const NO_CONN: u32 = u32::MAX;

/// TCP flag bits as events carry them: the wire byte's low six bits
/// (RFC 793 order), as `foxwire`'s `TcpFlags::to_u8` gives them.
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 1;
    /// SYN.
    pub const SYN: u8 = 2;
    /// RST.
    pub const RST: u8 = 4;
    /// PSH.
    pub const PSH: u8 = 8;
    /// ACK.
    pub const ACK: u8 = 16;
    /// URG.
    pub const URG: u8 = 32;
}

/// Renders a flag byte as the conventional `SYN+ACK` notation.
pub fn flags_to_string(bits: u8) -> String {
    let names = [
        (flags::SYN, "SYN"),
        (flags::FIN, "FIN"),
        (flags::RST, "RST"),
        (flags::PSH, "PSH"),
        (flags::ACK, "ACK"),
        (flags::URG, "URG"),
    ];
    let mut out = String::new();
    for (bit, name) in names {
        if bits & bit != 0 {
            if !out.is_empty() {
                out.push('+');
            }
            out.push_str(name);
        }
    }
    if out.is_empty() {
        out.push_str("none");
    }
    out
}

// ----- the vocabularies -----

/// The eleven connection states of RFC 793 §3.9, spelled (by
/// [`RfcState::name`]) as `spec/tcp_fsm.txt` spells them. The spec, its
/// guard and the conformance suite speak this vocabulary; a stack's own
/// names map onto it through [`StateName::rfc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs, reason = "each state is the RFC 793 state of the same name")]
pub enum RfcState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

impl RfcState {
    /// Every state, in declaration order.
    #[rustfmt::skip]
    pub const ALL: [RfcState; 11] = [
        Self::Closed, Self::Listen, Self::SynSent, Self::SynReceived, Self::Established, Self::FinWait1,
        Self::FinWait2, Self::CloseWait, Self::Closing, Self::LastAck, Self::TimeWait,
    ];

    /// The RFC's spelling, as in the spec file.
    pub fn name(self) -> &'static str {
        #[rustfmt::skip]
        const NAMES: [&str; 11] = [
            "CLOSED", "LISTEN", "SYN-SENT", "SYN-RECEIVED", "ESTABLISHED", "FIN-WAIT-1",
            "FIN-WAIT-2", "CLOSE-WAIT", "CLOSING", "LAST-ACK", "TIME-WAIT",
        ];
        NAMES[self as usize]
    }

    /// True in RFC 793's synchronized states: ESTABLISHED, FIN-WAIT-1,
    /// FIN-WAIT-2, CLOSE-WAIT, CLOSING, LAST-ACK and TIME-WAIT (§3.9
    /// counts SYN-RECEIVED among the non-synchronized ones).
    pub fn is_synchronized(self) -> bool {
        !matches!(self, RfcState::Closed | RfcState::Listen | RfcState::SynSent | RfcState::SynReceived)
    }

    /// The one string → state mapping: the RFC state a stack's state name
    /// ([`StateName::name`], what `Station::conn_state` returns) stands
    /// for. `""`, a connection its stack has forgotten, is CLOSED; any
    /// other string is `None`.
    pub fn of_name(name: &str) -> Option<RfcState> {
        if name.is_empty() {
            return Some(RfcState::Closed);
        }
        StateName::ALL.into_iter().find(|s| s.name() == name).map(StateName::rfc)
    }
}

/// A connection state as a stack names it: the structured stack's twelve
/// (paper Fig. 6, which splits SYN-RECEIVED into `SynActive` and
/// `SynPassive` by how it was reached) and the x-kernel baseline's
/// single `SynReceived`. Each knows its [`RfcState`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs, reason = "each name is the stack state of the same name")]
pub enum StateName {
    Closed,
    Listen,
    SynSent,
    SynActive,
    SynPassive,
    SynReceived,
    Estab,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

impl StateName {
    /// Every name, in declaration order.
    #[rustfmt::skip]
    pub const ALL: [StateName; 13] = [
        Self::Closed, Self::Listen, Self::SynSent, Self::SynActive, Self::SynPassive, Self::SynReceived,
        Self::Estab, Self::FinWait1, Self::FinWait2, Self::CloseWait, Self::Closing, Self::LastAck,
        Self::TimeWait,
    ];

    /// The name as traces and `Station::conn_state` spell it.
    pub fn name(self) -> &'static str {
        #[rustfmt::skip]
        const NAMES: [&str; 13] = [
            "Closed", "Listen", "SynSent", "SynActive", "SynPassive", "SynReceived", "Estab",
            "FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
        ];
        NAMES[self as usize]
    }

    /// The RFC 793 state this name stands for.
    pub fn rfc(self) -> RfcState {
        match self {
            StateName::Closed => RfcState::Closed,
            StateName::Listen => RfcState::Listen,
            StateName::SynSent => RfcState::SynSent,
            StateName::SynActive | StateName::SynPassive | StateName::SynReceived => RfcState::SynReceived,
            StateName::Estab => RfcState::Established,
            StateName::FinWait1 => RfcState::FinWait1,
            StateName::FinWait2 => RfcState::FinWait2,
            StateName::CloseWait => RfcState::CloseWait,
            StateName::Closing => RfcState::Closing,
            StateName::LastAck => RfcState::LastAck,
            StateName::TimeWait => RfcState::TimeWait,
        }
    }
}

/// What moves the state machine: a user call, any timer expiry, or a
/// segment — the trigger vocabulary of `spec/tcp_fsm.txt`.
#[rustfmt::skip]
#[allow(missing_docs, reason = "each trigger names the event of the same name")]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Trigger { Open, Close, Abort, Timer, Rst, Syn, Fin, Ack }

impl Trigger {
    /// Every trigger, in declaration order.
    pub const ALL: [Trigger; 8] =
        [Self::Open, Self::Close, Self::Abort, Self::Timer, Self::Rst, Self::Syn, Self::Fin, Self::Ack];

    /// The trigger a segment with flag bits `bits` (see [`flags`]) is
    /// stamped with: RST outranks SYN outranks FIN outranks its
    /// piggybacked ACK. (Both stacks drop a segment with none of the four
    /// before any state write.)
    pub fn of(bits: u8) -> Trigger {
        if bits & flags::RST != 0 {
            Trigger::Rst
        } else if bits & flags::SYN != 0 {
            Trigger::Syn
        } else if bits & flags::FIN != 0 {
            Trigger::Fin
        } else {
            Trigger::Ack
        }
    }

    /// The spelling in the spec file and in traces.
    pub fn name(self) -> &'static str {
        ["open", "close", "abort", "timer", "rst", "syn", "fin", "ack"][self as usize]
    }
}

/// The per-connection timers (the Action module's time-dependent side).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum TimerKind {
    /// Retransmission timer (the Resend module's).
    Resend,
    /// Delayed-ACK timer ("a Set_Timer for the ack timer if the ack is
    /// to be delayed").
    DelayedAck,
    /// Zero-window probe (persist) timer.
    Persist,
    /// The 2MSL TIME-WAIT timer.
    TimeWait,
    /// The user timeout of the paper's Fig. 4 functor header: "the
    /// length of time before hung operations fail".
    UserTimeout,
}

impl TimerKind {
    /// All kinds, for iteration.
    pub const ALL: [TimerKind; 5] = [
        TimerKind::Resend,
        TimerKind::DelayedAck,
        TimerKind::Persist,
        TimerKind::TimeWait,
        TimerKind::UserTimeout,
    ];

    /// The timer's name, as event exports use it.
    pub fn name(self) -> &'static str {
        match self {
            TimerKind::Resend => "Resend",
            TimerKind::DelayedAck => "DelayedAck",
            TimerKind::Persist => "Persist",
            TimerKind::TimeWait => "TimeWait",
            TimerKind::UserTimeout => "UserTimeout",
        }
    }
}

/// A loss-recovery event, threaded through the to_do queue so the
/// engine's statistics (and tests reading the queue or trace) can
/// observe *how* a transfer recovered, not just that the bytes arrived.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LossEvent {
    /// A segment was retransmitted during fast recovery without waiting
    /// for the timer: the front segment on the third duplicate ACK, or a
    /// later hole on a further duplicate or a partial ACK.
    FastRetransmit,
    /// A segment of the flight a timeout declared lost was retransmitted:
    /// the front segment when the timer fired, or the rest of that
    /// flight, under slow start, on the ACKs that followed.
    RtoRetransmit,
    /// Fast recovery was entered (Reno: cwnd inflating on further
    /// duplicate ACKs until the recovery point is acknowledged).
    RecoveryEntered,
    /// The recovery point was acknowledged; cwnd deflated to ssthresh.
    RecoveryExited,
    /// A partial ACK during fast recovery (NewReno): recovery continues,
    /// and the hole it exposed is retransmitted at once.
    PartialAck,
    /// The retransmission timer fired with data outstanding.
    Rto,
    /// The persist timer sent a zero-window probe.
    Probe,
}

impl LossEvent {
    /// The event's name, as event exports use it.
    pub fn name(self) -> &'static str {
        match self {
            LossEvent::FastRetransmit => "FastRetransmit",
            LossEvent::RtoRetransmit => "RtoRetransmit",
            LossEvent::RecoveryEntered => "RecoveryEntered",
            LossEvent::RecoveryExited => "RecoveryExited",
            LossEvent::PartialAck => "PartialAck",
            LossEvent::Rto => "Rto",
            LossEvent::Probe => "Probe",
        }
    }
}

/// A repelled state-targeted attack, threaded through the to_do queue
/// like [`LossEvent`] so the engine's statistics and trace observe
/// *which* hostile input the connection rejected, not merely that it
/// survived.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AttackEvent {
    /// An RST whose sequence number was in the receive window but not
    /// exactly `RCV.NXT` — a blind reset attempt; a challenge ACK was
    /// queued instead of aborting (RFC 5961 §3.2 semantics).
    RstBadSeq,
    /// An ACK for data never sent (`SEG.ACK > SND.NXT`) — an optimistic
    /// ACK attempt; the segment was dropped after queuing an ACK.
    AckUnsentData,
}

impl AttackEvent {
    /// The event's name, as event exports use it.
    pub fn name(self) -> &'static str {
        match self {
            AttackEvent::RstBadSeq => "RstBadSeq",
            AttackEvent::AckUnsentData => "AckUnsentData",
        }
    }
}

/// One observable step of the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A connection moved between TCP states.
    StateTransition {
        /// State before.
        from: StateName,
        /// State after.
        to: StateName,
        /// What drove the move: a user call, a timer, or the arriving
        /// segment ([`Trigger::of`]), so runtime coverage can be
        /// ratcheted against the extracted state machine.
        cause: Trigger,
    },
    /// A `to_do` action was executed (the paper's quasi-synchronous
    /// unit of work).
    Action {
        /// The action's tag, e.g. `Process_Data`.
        tag: &'static str,
    },
    /// A listener's user adopted a child (`Tcp::set_handler`), which
    /// handed the user the events it had parked.
    Adopt {
        /// Events parked for the user and handed over.
        parked: u32,
    },
    /// A timer was armed.
    TimerSet {
        /// Which timer.
        timer: TimerKind,
        /// Delay it was armed with, in milliseconds.
        after_ms: u64,
    },
    /// A timer was cleared before firing.
    TimerClear {
        /// Which timer.
        timer: TimerKind,
    },
    /// A timer expired and its action ran.
    TimerFire {
        /// Which timer.
        timer: TimerKind,
    },
    /// A retransmission/recovery episode event (fast retransmit,
    /// recovery entry/exit, partial ACK, RTO, zero-window probe).
    Loss {
        /// Which kind of loss event.
        kind: LossEvent,
    },
    /// A TCP segment was handed to the lower layer.
    SegTx {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Payload bytes.
        len: u32,
        /// Flag bits (see [`flags`]).
        flags: u8,
        /// Advertised window.
        wnd: u32,
    },
    /// A TCP segment was received and processed.
    SegRx {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Payload bytes.
        len: u32,
        /// Flag bits (see [`flags`]).
        flags: u8,
        /// Advertised window.
        wnd: u32,
    },
    /// A frame was handed to the simulated wire.
    FrameTx {
        /// Frame length in bytes.
        bytes: u32,
    },
    /// The wire (or a full receive queue) dropped a frame.
    FrameDrop {
        /// `fault` or `overflow`.
        reason: &'static str,
    },
    /// Fault injection flipped a bit in a frame.
    FrameCorrupt,
    /// The in-loop fuzzer deterministically mutated a live TCP segment
    /// on the wire (header-field flip, truncation, option garbling).
    FrameMutate {
        /// Which mutation was applied (e.g. `flip_seq`, `truncate`).
        kind: &'static str,
    },
    /// A middlebox hook rewrote a segment in flight (e.g. MSS clamping
    /// on a SYN).
    FrameRewrite {
        /// Which rewrite was applied (e.g. `mss_clamp`).
        kind: &'static str,
    },
    /// The stack recognized and repelled a state-targeted attack (bad-seq
    /// RST, optimistic ACK for unsent data, ...).
    Attack {
        /// Which attack signature was rejected.
        kind: AttackEvent,
    },
    /// A frame landed in a port's receive queue.
    FrameDeliver {
        /// Frame length in bytes.
        bytes: u32,
    },
    /// The modeled collector paused the host.
    GcPause {
        /// Pause length in microseconds.
        micros: u64,
    },
}

impl Event {
    /// The event's name, as exports use it.
    pub fn name(&self) -> &'static str {
        match self {
            Event::StateTransition { .. } => "state",
            Event::Action { .. } => "action",
            Event::Adopt { .. } => "adopt",
            Event::TimerSet { .. } => "timer_set",
            Event::TimerClear { .. } => "timer_clear",
            Event::TimerFire { .. } => "timer_fire",
            Event::Loss { .. } => "loss",
            Event::SegTx { .. } => "seg_tx",
            Event::SegRx { .. } => "seg_rx",
            Event::FrameTx { .. } => "frame_tx",
            Event::FrameDrop { .. } => "frame_drop",
            Event::FrameCorrupt => "frame_corrupt",
            Event::FrameMutate { .. } => "frame_mutate",
            Event::FrameRewrite { .. } => "frame_rewrite",
            Event::Attack { .. } => "attack",
            Event::FrameDeliver { .. } => "frame_deliver",
            Event::GcPause { .. } => "gc_pause",
        }
    }

    /// The event's payload as a JSON object (deterministic key order).
    pub fn args_json(&self) -> String {
        let mut s = String::new();
        match self {
            Event::StateTransition { from, to, cause } => {
                let (from, to, cause) = (from.name(), to.name(), cause.name());
                let _ = write!(s, "{{\"from\":\"{from}\",\"to\":\"{to}\",\"cause\":\"{cause}\"}}");
            }
            Event::Action { tag } => {
                let _ = write!(s, "{{\"tag\":\"{tag}\"}}");
            }
            Event::Adopt { parked } => {
                let _ = write!(s, "{{\"parked\":{parked}}}");
            }
            Event::TimerSet { timer, after_ms } => {
                let _ = write!(s, "{{\"timer\":\"{}\",\"after_ms\":{after_ms}}}", timer.name());
            }
            Event::TimerClear { timer } | Event::TimerFire { timer } => {
                let _ = write!(s, "{{\"timer\":\"{}\"}}", timer.name());
            }
            Event::SegTx { seq, ack, len, flags, wnd } | Event::SegRx { seq, ack, len, flags, wnd } => {
                let _ = write!(
                    s,
                    "{{\"seq\":{seq},\"ack\":{ack},\"len\":{len},\"flags\":\"{}\",\"wnd\":{wnd}}}",
                    flags_to_string(*flags)
                );
            }
            Event::FrameTx { bytes } | Event::FrameDeliver { bytes } => {
                let _ = write!(s, "{{\"bytes\":{bytes}}}");
            }
            Event::FrameDrop { reason } => {
                let _ = write!(s, "{{\"reason\":\"{reason}\"}}");
            }
            Event::FrameCorrupt => s.push_str("{}"),
            Event::FrameMutate { kind } | Event::FrameRewrite { kind } => Self::kind_json(&mut s, kind),
            Event::Loss { kind } => Self::kind_json(&mut s, kind.name()),
            Event::Attack { kind } => Self::kind_json(&mut s, kind.name()),
            Event::GcPause { micros } => {
                let _ = write!(s, "{{\"micros\":{micros}}}");
            }
        }
        s
    }

    fn kind_json(s: &mut String, kind: &str) {
        let _ = write!(s, "{{\"kind\":\"{kind}\"}}");
    }
}

/// An event with its stamp: when, which host, which connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Virtual time of the event.
    pub at: VirtualTime,
    /// The host it happened on.
    pub host: u32,
    /// The connection it belongs to ([`NO_CONN`] if none).
    pub conn: u32,
    /// The event itself.
    pub event: Event,
}

impl Stamped {
    /// One deterministic JSON object (a JSONL line, without newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t\":{},\"host\":{},\"conn\":{},\"ev\":\"{}\",\"args\":{}}}",
            self.at.as_micros(),
            self.host,
            conn_json(self.conn),
            self.event.name(),
            self.event.args_json()
        )
    }
}

fn conn_json(conn: u32) -> String {
    if conn == NO_CONN {
        "null".to_string()
    } else {
        conn.to_string()
    }
}

/// Default ring capacity: enough for a full Table 1 transfer on both
/// hosts without wrapping, small enough to stay a few megabytes.
pub const DEFAULT_RING_CAPACITY: usize = 131_072;

/// The fixed-capacity event store: overwrite-oldest, never unbounded.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<Stamped>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing { buf: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Appends an event, evicting the oldest if full.
    pub fn push(&mut self, ev: Stamped) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Stamped> {
        self.buf.iter().cloned().collect()
    }

    /// Events stored right now.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A cheap, cloneable handle instrumented code emits through.
///
/// A disabled sink ([`EventSink::off`]) holds no ring: `emit` is one
/// branch and the event closure never runs. An enabled sink shares one
/// ring across all clones (one merged, totally-ordered stream per run);
/// [`EventSink::for_host`] stamps a per-layer copy with its host id.
#[derive(Clone, Debug)]
pub struct EventSink {
    ring: Option<Rc<RefCell<EventRing>>>,
    host: u32,
}

impl EventSink {
    /// The disabled sink: nothing is recorded, nothing is allocated.
    pub fn off() -> EventSink {
        EventSink { ring: None, host: 0 }
    }

    /// A recording sink with the given ring capacity.
    pub fn recording(capacity: usize) -> EventSink {
        EventSink { ring: Some(Rc::new(RefCell::new(EventRing::new(capacity)))), host: 0 }
    }

    /// A copy of this sink stamping events with `host`.
    pub fn for_host(&self, host: u32) -> EventSink {
        EventSink { ring: self.ring.clone(), host }
    }

    /// True if events are being recorded.
    pub fn is_on(&self) -> bool {
        self.ring.is_some()
    }

    /// Records `f()` stamped `(at, host, conn)`; `f` runs only if the
    /// sink is on.
    #[inline]
    pub fn emit(&self, at: VirtualTime, conn: u32, f: impl FnOnce() -> Event) {
        if let Some(ring) = &self.ring {
            ring.borrow_mut().push(Stamped { at, host: self.host, conn, event: f() });
        }
    }

    /// Like [`EventSink::emit`] with an explicit host stamp — for shared
    /// infrastructure (the wire) that attributes events to the port it
    /// serves rather than to itself.
    #[inline]
    pub fn emit_for(&self, at: VirtualTime, host: u32, conn: u32, f: impl FnOnce() -> Event) {
        if let Some(ring) = &self.ring {
            ring.borrow_mut().push(Stamped { at, host, conn, event: f() });
        }
    }

    /// Snapshot of the stream so far, oldest first.
    pub fn events(&self) -> Vec<Stamped> {
        self.ring.as_ref().map_or_else(Vec::new, |r| r.borrow().events())
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.borrow().dropped())
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.borrow().len())
    }

    /// True if no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-connection metrics snapshot: the RTT and window state of one
/// connection. The engine's totals are its `stats()` (a harness
/// station's `StationStats`), not copied here. The x-kernel baseline
/// fills what it has: no congestion state, so `cwnd` and `ssthresh`
/// read zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnMetrics {
    /// Smoothed RTT, microseconds (None before the first sample).
    pub srtt_us: Option<u64>,
    /// Current retransmission timeout, microseconds.
    pub rto_us: u64,
    /// Congestion window, bytes (0 when congestion control is off).
    pub cwnd: u32,
    /// Slow-start threshold, bytes.
    pub ssthresh: u32,
    /// Peer-advertised send window, bytes.
    pub snd_wnd: u32,
    /// Sent-but-unacknowledged bytes.
    pub bytes_in_flight: u32,
    /// The engine-wide count of segments header prediction would not
    /// take (`TcpStats::fastpath_misses`), not this connection's: kept
    /// here only because foxperf's counter reader reads it here.
    pub fastpath_misses: u64,
}

// ----- exporters -----

/// One JSON object per line — greppable, diffable, streamable.
pub fn to_jsonl(events: &[Stamped]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// The Trace Event Format `chrome://tracing` / Perfetto opens: one
/// instant event per record, `pid` = host, `tid` = connection.
pub fn to_chrome_trace(events: &[Stamped]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
            ev.event.name(),
            ev.at.as_micros(),
            ev.host,
            if ev.conn == NO_CONN { 0 } else { ev.conn + 1 },
            ev.event.args_json()
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Where two event streams part ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first differing event.
    pub index: usize,
    /// The left stream's event there (None if it ended).
    pub left: Option<Stamped>,
    /// The right stream's event there (None if it ended).
    pub right: Option<Stamped>,
}

/// Aligns two streams and reports the first divergence, or `None` if
/// they are identical — the determinism claim, checkable.
pub fn first_divergence(a: &[Stamped], b: &[Stamped]) -> Option<Divergence> {
    for i in 0..a.len().max(b.len()) {
        let (l, r) = (a.get(i), b.get(i));
        if l != r {
            return Some(Divergence { index: i, left: l.cloned(), right: r.cloned() });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, conn: u32, event: Event) -> Stamped {
        Stamped { at: VirtualTime::from_micros(t), host: 1, conn, event }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(ev(i, 0, Event::Action { tag: "x" }));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept = ring.events();
        assert_eq!(kept[0].at, VirtualTime::from_micros(2), "oldest evicted first");
        assert_eq!(kept[2].at, VirtualTime::from_micros(4));
    }

    #[test]
    fn off_sink_records_nothing_and_never_runs_the_closure() {
        let sink = EventSink::off();
        let mut ran = false;
        sink.emit(VirtualTime::ZERO, 0, || {
            ran = true;
            Event::FrameCorrupt
        });
        assert!(!ran, "closure must not run when the sink is off");
        assert!(sink.events().is_empty());
        assert!(!sink.is_on());
    }

    #[test]
    fn clones_share_one_stream() {
        let sink = EventSink::recording(16);
        let a = sink.for_host(1);
        let b = sink.for_host(2);
        a.emit(VirtualTime::from_micros(1), 0, || Event::Action { tag: "one" });
        b.emit(VirtualTime::from_micros(2), NO_CONN, || Event::FrameCorrupt);
        let all = sink.events();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].host, 1);
        assert_eq!(all[1].host, 2);
        assert_eq!(all[1].conn, NO_CONN);
    }

    #[test]
    fn jsonl_is_deterministic_and_line_per_event() {
        let events = vec![
            ev(5, 0, Event::SegTx { seq: 100, ack: 0, len: 3, flags: flags::SYN, wnd: 4096 }),
            ev(9, NO_CONN, Event::FrameDrop { reason: "fault" }),
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":5,\"host\":1,\"conn\":0,\"ev\":\"seg_tx\",\"args\":{\"seq\":100,\"ack\":0,\"len\":3,\"flags\":\"SYN\",\"wnd\":4096}}"
        );
        assert!(lines[1].contains("\"conn\":null"));
        assert_eq!(to_jsonl(&events), jsonl, "byte-identical on re-export");
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let events = vec![ev(7, 3, Event::TimerFire { timer: TimerKind::Resend })];
        let json = to_chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"timer_fire\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":7"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":4"));
    }

    #[test]
    fn flags_render() {
        assert_eq!(flags_to_string(flags::SYN | flags::ACK), "SYN+ACK");
        assert_eq!(flags_to_string(0), "none");
        assert_eq!(flags_to_string(flags::FIN | flags::ACK | flags::PSH), "FIN+PSH+ACK");
    }

    #[test]
    fn divergence_found_at_first_difference() {
        let a = vec![ev(1, 0, Event::Action { tag: "a" }), ev(2, 0, Event::Action { tag: "b" })];
        let mut b = a.clone();
        assert_eq!(first_divergence(&a, &b), None);
        b[1] = ev(2, 0, Event::Action { tag: "c" });
        let d = first_divergence(&a, &b).expect("divergence");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.unwrap().event, Event::Action { tag: "b" });
        assert_eq!(d.right.unwrap().event, Event::Action { tag: "c" });
    }

    #[test]
    fn a_state_is_spelled_as_its_variant_is_named() {
        for n in StateName::ALL {
            assert_eq!(n.name(), format!("{n:?}"));
        }
    }

    #[test]
    fn a_segment_triggers_by_flag_precedence() {
        use flags::*;
        assert_eq!(Trigger::of(RST | SYN | FIN | ACK), Trigger::Rst);
        assert_eq!(Trigger::of(SYN | FIN | ACK), Trigger::Syn);
        assert_eq!(Trigger::of(FIN | ACK | PSH), Trigger::Fin);
        assert_eq!(Trigger::of(ACK), Trigger::Ack);
    }

    /// Every recording ring holds `capacity` of these. History: 56 and
    /// 72 B while `StateTransition` carried three `&'static str` and the
    /// timer, loss and attack events one each; 24 and 40 B since those are
    /// one-byte enums. `SegTx`'s 17 bytes keep `Event` at 24.
    #[test]
    fn event_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
        assert_eq!(std::mem::size_of::<Stamped>(), 40);
    }

    #[test]
    fn divergence_on_length_mismatch() {
        let a = vec![ev(1, 0, Event::Action { tag: "a" })];
        let b: Vec<Stamped> = Vec::new();
        let d = first_divergence(&a, &b).expect("length mismatch diverges");
        assert_eq!(d.index, 0);
        assert!(d.right.is_none());
    }
}
