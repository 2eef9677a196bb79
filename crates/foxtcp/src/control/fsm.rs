//! The state machine as a declared table. `spec/tcp_fsm.txt` is the one
//! place a `FROM -> TO : trigger` edge is written down; [`transition`] is
//! the one place `core.state` is assigned (the `field_owner` lint rejects
//! a write anywhere else) and, in debug builds, asserts the write is an
//! edge of that file. So code ⊆ spec holds on every debug run of anything
//! that links foxtcp; spec ⊆ code is conformance's coverage ratchet (§5.13).

use crate::action::{TcpAction, TimerKind};
use crate::tcb::TcpState;
use crate::ConnCore;
use foxwire::tcp::TcpFlags;
use std::sync::LazyLock;

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

impl TcpState {
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

/// The only assignment to `core.state` outside test code. Entering
/// CLOSED also queues the entry action every such site shares: no timer
/// outlives the connection.
#[inline]
pub(in crate::control) fn transition<P>(core: &mut ConnCore<P>, trigger: Trigger, to: TcpState) {
    let (from, into) = (core.state.rfc_name(), to.rfc_name());
    debug_assert!(admits(from, trigger, into), "not in the spec: {from} -> {into} : {}", trigger.name());
    core.state = to;
    if core.state == TcpState::Closed {
        for kind in TimerKind::ALL {
            core.tcb.push_action(TcpAction::ClearTimer(kind));
        }
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
    use foxbasis::buf::BufPool;

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
        let mut core: ConnCore<u8> =
            ConnCore::new(&Default::default(), 1, foxbasis::seq::Seq(0), 1460, BufPool::new());
        core.state = TcpState::Estab;
        transition(&mut core, Trigger::Fin, TcpState::Closing);
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
