//! The state machine as a declared table. `spec/tcp_fsm.txt` is the one
//! place a `FROM -> TO : trigger` edge is written down, and this module
//! holds the paper's `tcp_state` datatype ([`TcpState`]) and the only
//! code that can make or change a connection's [`State`]:
//! [`ConnCore::new`], [`transition`] and the SYN-retry count
//! [`spend_syn_retry`]. `State`'s field is private, so the compiler
//! rejects a write anywhere else; [`transition`] in debug builds asserts
//! the write is an edge of that file. So code ⊆ spec holds on every
//! debug run of anything that links foxtcp; spec ⊆ code is conformance's
//! coverage ratchet (§5.13).

use crate::action::{TcpAction, TimerKind};
use crate::data::tcb::Tcb;
use crate::{ConnCore, TcpConfig};
use foxbasis::buf::BufPool;
use foxbasis::seq::Seq;
use foxwire::tcp::TcpFlags;
use std::ops::Deref;
use std::sync::LazyLock;

/// The connection state (paper Fig. 6 `tcp_state`), with the paper's
/// twelve variants: RFC 793's single SYN-RECEIVED state is split into
/// `Syn_Active` / `Syn_Passive` because the completion action differs —
/// an active opener must also complete the user's `open`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection. (The paper's `Closed of tcp_action Q.T ref` keeps
    /// the to_do queue so queued actions can still drain; ours lives in
    /// the connection record.)
    Closed,
    /// Passive open, awaiting SYNs; the payload is the paper's `int`
    /// (bounding concurrent embryonic connections).
    Listen {
        /// Maximum embryonic (SYN-received) children.
        backlog: usize,
    },
    /// Active open, SYN sent; the `int` counts remaining retries.
    SynSent {
        /// SYN retransmissions left before giving up.
        retries_left: u32,
    },
    /// SYN-RECEIVED reached from an active open (simultaneous open).
    SynActive,
    /// SYN-RECEIVED reached from a passive open; the `int` counts
    /// retries of our SYN+ACK.
    SynPassive {
        /// SYN+ACK retransmissions left.
        retries_left: u32,
    },
    /// Connection established.
    Estab,
    /// We closed first. The paper's `Fin_Wait_1 of tcb * bool` ("our FIN
    /// has been acknowledged") is carried by `fin_seq`/`snd_una`.
    FinWait1,
    /// Our FIN acknowledged, awaiting the peer's.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Simultaneous close: FINs crossed.
    Closing,
    /// Peer closed, we closed, awaiting the ACK of our FIN.
    LastAck,
    /// Both closed; lingering 2MSL to absorb stray segments.
    TimeWait,
}

impl TcpState {
    /// True in states where user data may still be sent.
    pub fn can_send(&self) -> bool {
        matches!(self, TcpState::Estab | TcpState::CloseWait)
    }

    /// True in states where incoming segment text is accepted.
    pub fn can_receive(&self) -> bool {
        matches!(self, TcpState::Estab | TcpState::FinWait1 | TcpState::FinWait2)
    }

    /// True for the two SYN-RECEIVED flavors.
    pub fn is_syn_received(&self) -> bool {
        matches!(self, TcpState::SynActive | TcpState::SynPassive { .. })
    }

    /// True once the connection is past the three-way handshake.
    pub fn is_synchronized(&self) -> bool {
        !matches!(self, TcpState::Closed | TcpState::Listen { .. } | TcpState::SynSent { .. })
    }

    /// The RFC 793 state name, as event exports use it.
    pub fn name(&self) -> &'static str {
        match self {
            TcpState::Closed => "Closed",
            TcpState::Listen { .. } => "Listen",
            TcpState::SynSent { .. } => "SynSent",
            TcpState::SynActive => "SynActive",
            TcpState::SynPassive { .. } => "SynPassive",
            TcpState::Estab => "Estab",
            TcpState::FinWait1 => "FinWait1",
            TcpState::FinWait2 => "FinWait2",
            TcpState::CloseWait => "CloseWait",
            TcpState::Closing => "Closing",
            TcpState::LastAck => "LastAck",
            TcpState::TimeWait => "TimeWait",
        }
    }

    /// The RFC 793 name; the two SYN-RECEIVED flavors share one.
    pub fn rfc_name(&self) -> &'static str {
        match self {
            TcpState::Closed => "CLOSED",
            TcpState::Listen { .. } => "LISTEN",
            TcpState::SynSent { .. } => "SYN-SENT",
            TcpState::SynActive | TcpState::SynPassive { .. } => "SYN-RECEIVED",
            TcpState::Estab => "ESTABLISHED",
            TcpState::FinWait1 => "FIN-WAIT-1",
            TcpState::FinWait2 => "FIN-WAIT-2",
            TcpState::CloseWait => "CLOSE-WAIT",
            TcpState::Closing => "CLOSING",
            TcpState::LastAck => "LAST-ACK",
            TcpState::TimeWait => "TIME-WAIT",
        }
    }
}

/// A connection's state as [`ConnCore::state`] holds it: a [`TcpState`]
/// that only this module can make or change. It has no `Clone`, no
/// `Default` and no public constructor, so no code elsewhere can come
/// by a `State` to store. Reads go through `Deref` (`core.state.name()`,
/// `match *core.state`) and `PartialEq<TcpState>` (`core.state ==
/// TcpState::Closed`).
#[derive(Debug)]
pub struct State(TcpState);

impl Deref for State {
    type Target = TcpState;

    fn deref(&self) -> &TcpState {
        &self.0
    }
}

impl PartialEq<TcpState> for State {
    fn eq(&self, other: &TcpState) -> bool {
        self.0 == *other
    }
}

/// Test hook: the module tests that start a connection from a given
/// state put it there directly — no guard, no entry action. Compiled
/// into this crate's own unit tests and nowhere else.
#[cfg(test)]
impl State {
    pub(crate) fn force(&mut self, to: TcpState) {
        self.0 = to;
    }
}

impl<P: Clone + PartialEq + std::fmt::Debug> ConnCore<P> {
    /// A fresh closed connection core, staging its segments in `pool`;
    /// its MSS is `our_mss` until the peer's SYN says less.
    pub fn new(cfg: &TcpConfig, local_port: u16, iss: Seq, our_mss: u32, pool: BufPool) -> ConnCore<P> {
        let tcb = Tcb::new(cfg, iss, our_mss);
        ConnCore { local_port, remote: None, state: State(TcpState::Closed), tcb, our_mss, pool }
    }
}

/// RFC 793 §3.9 state names: the spec file's vocabulary.
#[rustfmt::skip]
const RFC_STATES: [&str; 11] = [
    "CLOSED", "LISTEN", "SYN-SENT", "SYN-RECEIVED", "ESTABLISHED", "FIN-WAIT-1",
    "FIN-WAIT-2", "CLOSE-WAIT", "CLOSING", "LAST-ACK", "TIME-WAIT",
];

/// What moves the machine: a user call, any timer expiry, or a segment.
#[rustfmt::skip]
#[allow(missing_docs, reason = "each trigger names the event of the same name")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger { Open, Close, Abort, Timer, Rst, Syn, Fin, Ack }

impl Trigger {
    /// Every trigger, in declaration order.
    pub const ALL: [Trigger; 8] =
        [Self::Open, Self::Close, Self::Abort, Self::Timer, Self::Rst, Self::Syn, Self::Fin, Self::Ack];

    /// The trigger an observed segment is stamped with: RST outranks SYN outranks FIN outranks its
    /// piggybacked ACK. (A segment with none of the four is dropped before any state write.)
    pub fn of(f: &TcpFlags) -> Trigger {
        match (f.rst, f.syn, f.fin) {
            (true, ..) => Trigger::Rst,
            (_, true, _) => Trigger::Syn,
            (.., true) => Trigger::Fin,
            _ => Trigger::Ack,
        }
    }

    /// The spelling in the spec file and in `StateTransition { cause }`.
    pub fn name(self) -> &'static str {
        ["open", "close", "abort", "timer", "rst", "syn", "fin", "ack"][self as usize]
    }
}

/// One `FROM -> TO : trigger` line of `spec/tcp_fsm.txt`.
#[allow(missing_docs, reason = "`from`, `to` and `trigger` are the line's three parts")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecEdge {
    pub from: &'static str,
    pub to: &'static str,
    pub trigger: Trigger,
    /// The stack (`"fox"` or `"xk"`) an `@untested(stack: reason)` excuses from witnessing the edge.
    pub untested: Option<&'static str>,
}

fn parse_edge(line: &str) -> Result<SpecEdge, &'static str> {
    let (edge, untested) = match line.split_once("@untested") {
        None => (line, None),
        Some((edge, ann)) => {
            let inner = ann.trim().strip_prefix('(').and_then(|r| r.strip_suffix(')'));
            let parts = inner.and_then(|r| r.split_once(':')).filter(|(_, why)| !why.trim().is_empty());
            let (stack, _) = parts.ok_or("@untested needs `(stack: reason)`")?;
            (edge, Some(["fox", "xk"].into_iter().find(|s| *s == stack.trim()).ok_or("unknown stack")?))
        }
    };
    let (from, rest) = edge.split_once("->").ok_or("missing `->`")?;
    let (to, trigger) = rest.split_once(':').ok_or("missing `: trigger`")?;
    let state = |s: &str| RFC_STATES.into_iter().find(|r| *r == s.trim()).ok_or("unknown state");
    let trigger = Trigger::ALL.into_iter().find(|t| t.name() == trigger.trim()).ok_or("unknown trigger")?;
    Ok(SpecEdge { from: state(from)?, to: state(to)?, trigger, untested })
}

/// Parses `#` comments, blank lines and `FROM -> TO : trigger  [@untested(fox|xk: reason)]` edges.
fn parse_spec(text: &str) -> Result<Vec<SpecEdge>, String> {
    let mut out: Vec<SpecEdge> = Vec::new();
    let lines = text.lines().map(str::trim).enumerate();
    for (i, line) in lines.filter(|(_, l)| !l.is_empty() && !l.starts_with('#')) {
        let bad = |what: &str| format!("spec:{}: {what} in `{line}`", i + 1);
        let e = parse_edge(line).map_err(bad)?;
        // A duplicate would make the coverage accounting ambiguous.
        if out.iter().any(|o| (o.from, o.to, o.trigger) == (e.from, e.to, e.trigger)) {
            return Err(bad("duplicate edge"));
        }
        out.push(e);
    }
    Ok(out)
}

/// `spec/tcp_fsm.txt`, compiled in and parsed once.
pub static SPEC: LazyLock<Vec<SpecEdge>> =
    LazyLock::new(|| parse_spec(include_str!("../../../../spec/tcp_fsm.txt")).expect("spec/tcp_fsm.txt"));

/// The guard's predicate, on RFC names: a spec edge, or no transition at all.
fn admits(from: &str, trigger: Trigger, to: &str) -> bool {
    from == to || SPEC.iter().any(|e| (e.from, e.trigger, e.to) == (from, trigger, to))
}

/// The one move of `core.state` to another state. Entering CLOSED also
/// queues the entry action every such site shares: no timer outlives
/// the connection.
#[inline]
pub(in crate::control) fn transition<P>(core: &mut ConnCore<P>, trigger: Trigger, to: TcpState) {
    let (from, into) = (core.state.rfc_name(), to.rfc_name());
    debug_assert!(admits(from, trigger, into), "not in the spec: {from} -> {into} : {}", trigger.name());
    core.state.0 = to;
    if core.state == TcpState::Closed {
        for kind in TimerKind::ALL {
            core.tcb.push_action(TcpAction::ClearTimer(kind));
        }
    }
}

/// Spends one of the SYN (or SYN+ACK) retransmissions the state counts,
/// mirroring the paper's `Syn_Sent of tcp_tcb * int`; false, spending
/// nothing, once none is left. States that count no retries always
/// answer true. The state stays what it was, so this is no transition.
pub(in crate::control) fn spend_syn_retry<P>(core: &mut ConnCore<P>) -> bool {
    match &mut core.state.0 {
        TcpState::SynSent { retries_left } | TcpState::SynPassive { retries_left } => {
            let any_left = *retries_left > 0;
            *retries_left = retries_left.saturating_sub(1);
            any_left
        }
        _ => true,
    }
}

/// Edges, in the order given, as Graphviz DOT: user calls blue, timers dashed gray, segments black.
pub fn to_dot(edges: &[SpecEdge]) -> String {
    let mut s = String::from(
        "// spec/tcp_fsm.txt by `cargo run -p foxtcp --example fsm_dot`; a control::fsm test keeps it current.\n\
         digraph tcp_fsm {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for e in edges {
        let style = match e.trigger {
            Trigger::Open | Trigger::Close | Trigger::Abort => ", color=blue",
            Trigger::Timer => ", color=gray, style=dashed",
            _ => "",
        };
        s += &format!("  \"{}\" -> \"{}\" [label=\"{}\"{style}];\n", e.from, e.to, e.trigger.name());
    }
    s + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_guard_admits_exactly_spec_edges_and_self_edges() {
        let listed = |f, t, to| SPEC.iter().any(|e| (e.from, e.trigger, e.to) == (f, t, to));
        for (from, to) in RFC_STATES.into_iter().flat_map(|f| RFC_STATES.map(|to| (f, to))) {
            for t in Trigger::ALL {
                assert_eq!(admits(from, t, to), from == to || listed(from, t, to), "{from} -> {to} : {t:?}");
            }
        }
        assert_eq!(SPEC.iter().filter(|e| e.from != e.to).count(), 54, "54 edges, none a self-edge");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ESTABLISHED -> CLOSING : fin")]
    fn a_write_outside_the_spec_is_caught() {
        let mut core: ConnCore<u8> = ConnCore::new(&Default::default(), 1, Seq(0), 1460, BufPool::new());
        core.state.force(TcpState::Estab);
        transition(&mut core, Trigger::Fin, TcpState::Closing);
    }

    #[test]
    fn state_predicates() {
        assert!(TcpState::Estab.can_send());
        assert!(TcpState::CloseWait.can_send());
        assert!(!TcpState::FinWait1.can_send());
        assert!(TcpState::FinWait2.can_receive());
        assert!(!TcpState::CloseWait.can_receive());
        assert!(TcpState::SynActive.is_syn_received());
        assert!(TcpState::SynPassive { retries_left: 1 }.is_syn_received());
        assert!(!TcpState::SynSent { retries_left: 1 }.is_synchronized());
        assert!(TcpState::TimeWait.is_synchronized());
    }

    #[test]
    fn parser_reads_the_format_and_rejects_malformed_input() {
        let ok = parse_spec("# c\n\nCLOSED -> LISTEN : open @untested(xk: a (b))\nSYN-SENT->CLOSED:close\n")
            .unwrap();
        assert_eq!(ok.iter().map(|e| e.untested).collect::<Vec<_>>(), [Some("xk"), None]);
        for bad in [
            "NOWHERE -> CLOSED : rst",
            "CLOSED -> LISTEN : shrug",
            "CLOSED LISTEN open",
            "CLOSED -> LISTEN open",
            "CLOSED -> LISTEN : open\nCLOSED -> LISTEN : open",
            "CLOSED -> LISTEN : open  @untested(xk:)",
            "CLOSED -> LISTEN : open  @untested(both: retired scope)",
            "CLOSED -> LISTEN : open  @untested xk: no parens",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn checked_in_dot_file_is_current() {
        assert_eq!(to_dot(&SPEC), include_str!("../../../../docs/tcp_fsm.dot"));
    }
}
