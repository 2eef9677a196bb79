//! The state machine as a declared table. `spec/tcp_fsm.txt` is the one
//! place a `FROM -> TO : trigger` edge is written down, and this module
//! holds the paper's `tcp_state` datatype ([`TcpState`]) and the only
//! code that can make or change a connection's [`State`]:
//! [`ConnCore::new`] and its in-place twin `ConnCore::reset`,
//! `transition` and the SYN-retry count
//! `spend_syn_retry`. `State`'s field is private, so the compiler
//! rejects a write anywhere else; `transition` in debug builds asserts
//! the write is an edge of that file. So code ⊆ spec holds on every
//! debug run of anything that links foxtcp; spec ⊆ code is conformance's
//! coverage ratchet (§5.13).

use crate::action::TcpAction;
use crate::data::tcb::Tcb;
use crate::{ConnCore, TcpConfig};
use foxbasis::buf::BufPool;
use foxbasis::obs::{RfcState, StateName, TimerKind, Trigger};
use foxbasis::seq::Seq;
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
    /// True in states where incoming segment text is accepted.
    pub fn can_receive(&self) -> bool {
        matches!(self, TcpState::Estab | TcpState::FinWait1 | TcpState::FinWait2)
    }

    /// True for the two SYN-RECEIVED flavors.
    pub fn is_syn_received(&self) -> bool {
        matches!(self, TcpState::SynActive | TcpState::SynPassive { .. })
    }

    /// True once a SYN has been received: SYN-RECEIVED and RFC 793's
    /// synchronized states ([`RfcState::is_synchronized`]).
    pub fn is_synchronized(&self) -> bool {
        !matches!(self, TcpState::Closed | TcpState::Listen { .. } | TcpState::SynSent { .. })
    }

    /// The paper's Fig. 6 state name, as events carry it: the two
    /// SYN-RECEIVED flavors keep their own names ([`StateName::rfc`]
    /// gives the RFC 793 state).
    pub fn name(&self) -> StateName {
        match self {
            TcpState::Closed => StateName::Closed,
            TcpState::Listen { .. } => StateName::Listen,
            TcpState::SynSent { .. } => StateName::SynSent,
            TcpState::SynActive => StateName::SynActive,
            TcpState::SynPassive { .. } => StateName::SynPassive,
            TcpState::Estab => StateName::Estab,
            TcpState::FinWait1 => StateName::FinWait1,
            TcpState::FinWait2 => StateName::FinWait2,
            TcpState::CloseWait => StateName::CloseWait,
            TcpState::Closing => StateName::Closing,
            TcpState::LastAck => StateName::LastAck,
            TcpState::TimeWait => StateName::TimeWait,
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

impl ConnCore {
    /// A fresh closed connection core between `local_port` and
    /// `remote_port` (0 for a listener), staging its segments in `pool`;
    /// its MSS is `our_mss` until the peer's SYN says less.
    pub fn new(
        cfg: &TcpConfig,
        local_port: u16,
        remote_port: u16,
        iss: Seq,
        our_mss: u32,
        pool: BufPool,
    ) -> ConnCore {
        let tcb = Tcb::new(cfg, iss, our_mss);
        ConnCore { local_port, remote_port, state: State(TcpState::Closed), tcb, our_mss, pool }
    }

    /// Re-initialises this core in place as [`ConnCore::new`] would make
    /// it from the same arguments and the pool it already holds: the
    /// engine files a new connection in a reaped one's record this way,
    /// and its queues keep the storage they grew ([`Tcb::reset`]).
    pub(crate) fn reset(
        &mut self,
        cfg: &TcpConfig,
        local_port: u16,
        remote_port: u16,
        iss: Seq,
        our_mss: u32,
    ) {
        self.tcb.reset(cfg, iss, our_mss);
        (self.local_port, self.remote_port, self.our_mss) = (local_port, remote_port, our_mss);
        self.state = State(TcpState::Closed);
    }
}

/// One `FROM -> TO : trigger` line of `spec/tcp_fsm.txt`.
#[allow(missing_docs, reason = "`from`, `to` and `trigger` are the line's three parts")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecEdge {
    pub from: RfcState,
    pub to: RfcState,
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
    let state = |s: &str| RfcState::ALL.into_iter().find(|r| r.name() == s.trim()).ok_or("unknown state");
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

/// The guard's predicate, on RFC states: a spec edge, or no transition at all.
fn admits(from: RfcState, trigger: Trigger, to: RfcState) -> bool {
    from == to || SPEC.iter().any(|e| (e.from, e.trigger, e.to) == (from, trigger, to))
}

/// The one move of `core.state` to another state. Entering CLOSED also
/// queues the entry action every such site shares: no timer outlives
/// the connection.
#[inline]
pub(in crate::control) fn transition(core: &mut ConnCore, trigger: Trigger, to: TcpState) {
    let (from, into) = (core.state.name().rfc(), to.name().rfc());
    debug_assert!(
        admits(from, trigger, into),
        "not in the spec: {} -> {} : {}",
        from.name(),
        into.name(),
        trigger.name()
    );
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
pub(in crate::control) fn spend_syn_retry(core: &mut ConnCore) -> bool {
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
        let (from, to, trigger) = (e.from.name(), e.to.name(), e.trigger.name());
        s += &format!("  \"{from}\" -> \"{to}\" [label=\"{trigger}\"{style}];\n");
    }
    s + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_guard_admits_exactly_spec_edges_and_self_edges() {
        let listed = |f, t, to| SPEC.iter().any(|e| (e.from, e.trigger, e.to) == (f, t, to));
        for (from, to) in RfcState::ALL.into_iter().flat_map(|f| RfcState::ALL.map(|to| (f, to))) {
            for t in Trigger::ALL {
                assert_eq!(
                    admits(from, t, to),
                    from == to || listed(from, t, to),
                    "{from:?} -> {to:?} : {t:?}"
                );
            }
        }
        assert_eq!(SPEC.iter().filter(|e| e.from != e.to).count(), 54, "54 edges, none a self-edge");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ESTABLISHED -> CLOSING : fin")]
    fn a_write_outside_the_spec_is_caught() {
        let mut core = ConnCore::new(&Default::default(), 1, 0, Seq(0), 1460, BufPool::new());
        core.state.force(TcpState::Estab);
        transition(&mut core, Trigger::Fin, TcpState::Closing);
    }

    #[test]
    fn state_predicates() {
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
    fn every_rfc_state_round_trips_through_the_spec_parser() {
        for r in RfcState::ALL {
            let e = parse_edge(&format!("{0} -> {0} : timer", r.name())).expect("a state the parser knows");
            assert_eq!((e.from, e.to), (r, r));
        }
    }

    #[test]
    fn checked_in_dot_file_is_current() {
        assert_eq!(to_dot(&SPEC), include_str!("../../../../docs/tcp_fsm.dot"));
    }
}
