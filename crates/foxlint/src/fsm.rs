//! # FSM extraction — the implemented TCP state machine, recovered
//!
//! The paper's structural claim is that the SEGMENT-ARRIVES DAG and the
//! open/close/timer manipulations *are* the RFC 793 §3.9 state machine,
//! written as functions-for-merge-points. This pass makes that claim
//! checkable: it walks the two control files
//! (`crates/foxtcp/src/control/segment.rs` and `…/control/state.rs` —
//! the only files the `field_owner` lint permits to assign `core.state`)
//! and recovers every transition the code can perform, as
//! `(from-state, trigger, to-state)` triples in RFC vocabulary.
//!
//! ## Extraction rules
//!
//! The walk is brace- and match-aware, not semantic. Down every control
//! path it maintains an environment: the set of `TcpState` variants the
//! connection may be in, and what is known about the segment's
//! `rst`/`syn`/`fin`/`ack` flags. The environment is refined by:
//!
//! * `match` on `core.state` (also `core.state.clone()`, `&mut
//!   core.state`, or an alias bound by `let x = core.state.clone()`):
//!   each arm's pattern intersects the state set; `_` and binding
//!   patterns take the complement of the earlier arms.
//! * `if` on `core.state == / != TcpState::X`,
//!   `matches!(core.state, …)`, `.is_syn_received()`,
//!   `.is_synchronized()` — and the negations. When the guarded block
//!   ends in `return`, the negated constraint holds for the rest of the
//!   function (the early-return idiom the control files use).
//! * `if` on `….flags.rst/syn/fin/ack` (and negations), with the same
//!   early-return refinement. `debug_assert!(cond)` establishes `cond`.
//! * Calls into other functions of the control files propagate the
//!   caller's environment into the callee (context expansion to a
//!   fixpoint; the call graph is acyclic).
//!
//! A write `core.state = TcpState::X` yields one edge per variant in
//! the current from-set. The trigger is the entry point's kind — `open`
//! / `close` / `abort` / `timer` for the user-call and timer entries in
//! `state.rs` — or, under `segment_arrives`, the highest-precedence
//! segment flag known true: `rst` > `syn` > `fin` > `ack` (the same
//! precedence the engines use when stamping runtime
//! `StateTransition` causes, so static edges and observed edges share a
//! vocabulary). Variant names are normalized to RFC names
//! (`SynActive`/`SynPassive` → `SYN-RECEIVED`, `Estab` →
//! `ESTABLISHED`); self-edges after normalization are dropped — they
//! are unobservable at runtime (the engine only emits on a name
//! change).
//!
//! The recovered graph is ratcheted against `spec/tcp_fsm.txt` in both
//! directions, exactly like `foxlint.baseline`: an edge in code but not
//! spec fails, and an edge in spec but not code fails. See DESIGN.md
//! §5.13 for the spec-file format and the conformance-coverage ratchet
//! built on the same vocabulary.

use crate::{lex, match_brace, test_lines, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The `TcpState` variants, in declaration order (bit i of a
/// [`StateSet`] is variant i).
const VARIANTS: &[&str] = &[
    "Closed",
    "Listen",
    "SynSent",
    "SynActive",
    "SynPassive",
    "Estab",
    "FinWait1",
    "FinWait2",
    "CloseWait",
    "Closing",
    "LastAck",
    "TimeWait",
];

/// RFC 793 §3.9 names, the spec-file and coverage vocabulary.
pub const RFC_STATES: &[&str] = &[
    "CLOSED",
    "LISTEN",
    "SYN-SENT",
    "SYN-RECEIVED",
    "ESTABLISHED",
    "FIN-WAIT-1",
    "FIN-WAIT-2",
    "CLOSE-WAIT",
    "CLOSING",
    "LAST-ACK",
    "TIME-WAIT",
];

/// Everything that can cause a transition: the three user calls, the
/// timers, and the four segment flags in arrival-precedence order.
pub const TRIGGERS: &[&str] = &["open", "close", "abort", "timer", "rst", "syn", "fin", "ack"];

/// Maps a `TcpState` variant name to its RFC name.
fn rfc_name(variant: &str) -> &'static str {
    match variant {
        "Closed" => "CLOSED",
        "Listen" => "LISTEN",
        "SynSent" => "SYN-SENT",
        "SynActive" | "SynPassive" => "SYN-RECEIVED",
        "Estab" => "ESTABLISHED",
        "FinWait1" => "FIN-WAIT-1",
        "FinWait2" => "FIN-WAIT-2",
        "CloseWait" => "CLOSE-WAIT",
        "Closing" => "CLOSING",
        "LastAck" => "LAST-ACK",
        "TimeWait" => "TIME-WAIT",
        _ => "?",
    }
}

type StateSet = u16;
const ALL_STATES: StateSet = (1 << 12) - 1;

fn variant_bit(name: &str) -> Option<StateSet> {
    VARIANTS.iter().position(|v| *v == name).map(|i| 1 << i)
}

/// The four segment flags the trigger vocabulary keys on, in
/// precedence order.
const FLAGS: &[&str] = &["rst", "syn", "fin", "ack"];

/// What is known about the path taken to a program point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Env {
    states: StateSet,
    /// `Some(true)` = flag known set, `Some(false)` = known clear.
    flags: [Option<bool>; 4],
}

impl Env {
    fn top() -> Self {
        Env { states: ALL_STATES, flags: [None; 4] }
    }
    fn trigger(&self, entry: &'static str) -> &'static str {
        if entry != "seg" {
            return entry;
        }
        for (i, f) in FLAGS.iter().enumerate() {
            if self.flags[i] == Some(true) {
                return f;
            }
        }
        "?"
    }
}

/// One path constraint recovered from a condition.
#[derive(Clone, Copy, Debug)]
enum Constraint {
    /// The state is in this set (complement = not in it).
    States(StateSet),
    /// Flag `FLAGS[i]` has this value.
    Flag(usize, bool),
    /// Nothing usable.
    Unknown,
}

impl Constraint {
    fn negate(self) -> Self {
        match self {
            Constraint::States(s) => Constraint::States(ALL_STATES ^ s),
            Constraint::Flag(i, v) => Constraint::Flag(i, !v),
            Constraint::Unknown => Constraint::Unknown,
        }
    }
    fn apply(self, env: &mut Env) {
        match self {
            Constraint::States(s) => env.states &= s,
            Constraint::Flag(i, v) => env.flags[i] = Some(v),
            Constraint::Unknown => {}
        }
    }
}

/// An edge key: `(from, to, trigger)` in RFC vocabulary.
pub type EdgeKey = (String, String, String);

/// The `file:line` sites of the `core.state = …` writes behind an edge.
pub type EdgeSites = BTreeSet<(String, usize)>;

/// The implemented transition graph: `(from, to, trigger)` in RFC
/// vocabulary, each with the `file:line` sites of the contributing
/// `core.state = …` writes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsmGraph {
    /// Edge → contributing write sites.
    pub edges: BTreeMap<EdgeKey, EdgeSites>,
}

impl FsmGraph {
    /// Edge keys in deterministic order.
    pub fn keys(&self) -> Vec<EdgeKey> {
        self.edges.keys().cloned().collect()
    }
}

/// The entry points of the control files and the trigger kind each one
/// carries. `seg` resolves per-write from the flag environment.
const ENTRIES: &[(&str, &str)] = &[
    ("segment_arrives", "seg"),
    ("active_open", "open"),
    ("passive_open", "open"),
    ("spawn_embryonic", "open"),
    ("close", "close"),
    ("abort", "abort"),
    ("timer_expired", "timer"),
];

struct FileToks {
    rel: String,
    toks: Vec<Token>,
    excluded: BTreeSet<usize>,
}

struct Extractor<'a> {
    files: &'a [FileToks],
    /// fn name → (file index, body token range inside the braces).
    fns: BTreeMap<String, (usize, usize, usize)>,
    graph: FsmGraph,
    /// Problems that make the extraction unsound (unknown trigger,
    /// unknown variant, recursion).
    errors: Vec<String>,
}

/// Extracts the implemented FSM from `(rel_path, source)` pairs — in
/// the real workspace, the two `control/` files.
pub fn extract(sources: &[(&str, &str)]) -> Result<FsmGraph, String> {
    let files: Vec<FileToks> = sources
        .iter()
        .map(|(rel, src)| {
            let (toks, _) = lex(src);
            let excluded = test_lines(&toks);
            FileToks { rel: (*rel).to_string(), toks, excluded }
        })
        .collect();
    let mut fns = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let mut k = 0usize;
        while k < f.toks.len() {
            if f.toks[k].is_ident("fn") {
                if let Some(name) = f.toks.get(k + 1).and_then(|t| t.ident()) {
                    if !f.excluded.contains(&f.toks[k].line) {
                        let mut open = k + 2;
                        while open < f.toks.len()
                            && !f.toks[open].is_punct("{")
                            && !f.toks[open].is_punct(";")
                        {
                            open += 1;
                        }
                        if open < f.toks.len() && f.toks[open].is_punct("{") {
                            let close = match_brace(&f.toks, open);
                            fns.insert(name.to_string(), (fi, open + 1, close));
                            k = open + 1;
                            continue;
                        }
                    }
                }
            }
            k += 1;
        }
    }
    let mut ex = Extractor { files: &files, fns, graph: FsmGraph::default(), errors: Vec::new() };
    for (entry, kind) in ENTRIES {
        if let Some(&(fi, lo, hi)) = ex.fns.get(*entry) {
            let mut stack = vec![(*entry).to_string()];
            ex.walk(fi, lo, hi, Env::top(), kind, &mut stack);
        }
    }
    if ex.errors.is_empty() {
        Ok(ex.graph)
    } else {
        ex.errors.sort();
        ex.errors.dedup();
        Err(ex.errors.join("\n"))
    }
}

impl Extractor<'_> {
    fn record_write(&mut self, fi: usize, line: usize, to_variant: &str, env: Env, entry: &'static str) {
        let rel = self.files[fi].rel.clone();
        let Some(_) = variant_bit(to_variant) else {
            self.errors.push(format!("{rel}:{line}: state write to unknown variant `{to_variant}`"));
            return;
        };
        let trigger = env.trigger(entry);
        if trigger == "?" {
            self.errors.push(format!(
                "{rel}:{line}: cannot determine the trigger for the write to `{to_variant}` \
                 (no segment flag known on this path)"
            ));
            return;
        }
        let to = rfc_name(to_variant);
        for (i, v) in VARIANTS.iter().enumerate() {
            if env.states & (1 << i) != 0 {
                let from = rfc_name(v);
                if from == to {
                    continue; // unobservable: the name does not change
                }
                self.graph
                    .edges
                    .entry((from.to_string(), to.to_string(), trigger.to_string()))
                    .or_default()
                    .insert((rel.clone(), line));
            }
        }
    }

    /// Walks tokens `[lo, hi)` of file `fi` under `env`; returns true if
    /// the region's last statement begins with `return` (the region
    /// diverges, so a guard's negation holds after it).
    fn walk(
        &mut self,
        fi: usize,
        lo: usize,
        hi: usize,
        mut env: Env,
        entry: &'static str,
        stack: &mut Vec<String>,
    ) -> bool {
        let toks = &self.files[fi].toks;
        let mut i = lo;
        let mut stmt_start = true;
        let mut last_stmt_returns = false;
        while i < hi {
            let t = &toks[i];
            if stmt_start {
                last_stmt_returns = t.is_ident("return");
                stmt_start = false;
            }
            if t.is_punct(";") {
                stmt_start = true;
                i += 1;
                continue;
            }
            // `let x = core.state.clone();` — alias tracked per walk by
            // rewriting into a state-scrutinee marker: we just check the
            // shape inline where scrutinees are classified, so here we
            // only need to notice the binding name.
            if t.is_ident("if") {
                i = self.handle_if(fi, i, hi, &mut env, entry, stack);
                continue;
            }
            if t.is_ident("match") {
                i = self.handle_match(fi, i, hi, env, entry, stack);
                continue;
            }
            if t.is_ident("debug_assert") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                let open = i + 2;
                if toks.get(open).is_some_and(|o| o.is_punct("(")) {
                    let close = match_paren(toks, open);
                    let c = self.classify_condition(fi, open + 1, close, env, entry, stack);
                    c.apply(&mut env);
                    i = close + 1;
                    continue;
                }
            }
            // `core.state = TcpState::X` (the lexer folds `==` into one
            // punct, so a bare `=` is always an assignment).
            if t.is_ident("core")
                && toks.get(i + 1).is_some_and(|d| d.is_punct("."))
                && toks.get(i + 2).is_some_and(|s| s.is_ident("state"))
                && toks.get(i + 3).is_some_and(|e| e.is_punct("="))
                && toks.get(i + 4).is_some_and(|p| p.is_ident("TcpState"))
                && toks.get(i + 5).is_some_and(|c| c.is_punct("::"))
            {
                if let Some(variant) = toks.get(i + 6).and_then(|v| v.ident()) {
                    let variant = variant.to_string();
                    self.record_write(fi, toks[i + 6].line, &variant, env, entry);
                    i += 7;
                    // Skip a `{ … }` payload so its braces don't look
                    // like a block to the walker.
                    if i < hi && toks[i].is_punct("{") {
                        i = match_brace(toks, i) + 1;
                    }
                    continue;
                }
            }
            // A call to another control-file function: expand its body
            // under the current environment.
            if let Some(name) = t.ident() {
                let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(".") || p.is_punct("::"))
                    && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_ident("fn"));
                if is_call {
                    if let Some(&(cfi, clo, chi)) = self.fns.get(name) {
                        if stack.iter().any(|s| s == name) {
                            self.errors.push(format!(
                                "{}:{}: recursive call to `{name}` — the control DAG must stay acyclic",
                                self.files[fi].rel, t.line
                            ));
                        } else {
                            stack.push(name.to_string());
                            self.walk(cfi, clo, chi, env, entry, stack);
                            stack.pop();
                        }
                    }
                }
            }
            if t.is_punct("{") {
                // A plain nested block (or struct literal): walk it under
                // the same environment.
                let close = match_brace(toks, i);
                self.walk(fi, i + 1, close, env, entry, stack);
                i = close + 1;
                continue;
            }
            i += 1;
        }
        last_stmt_returns
    }

    /// Handles `if <cond> { … } [else if … ] [else { … }]` starting at
    /// the `if` token; returns the index just past the whole chain.
    fn handle_if(
        &mut self,
        fi: usize,
        if_idx: usize,
        hi: usize,
        env: &mut Env,
        entry: &'static str,
        stack: &mut Vec<String>,
    ) -> usize {
        let toks = &self.files[fi].toks;
        // `if let` has no classifiable condition; scan it for calls only.
        let mut j = if_idx + 1;
        // Find the `{` opening the then-block at bracket depth 0.
        let cond_lo = j;
        let mut depth = 0i32;
        while j < hi {
            match toks[j].punct() {
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth -= 1,
                Some("{") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let cond_hi = j;
        let c = self.classify_condition(fi, cond_lo, cond_hi, *env, entry, stack);
        let then_close = match_brace(&self.files[fi].toks, cond_hi);
        let mut then_env = *env;
        c.apply(&mut then_env);
        let then_diverges = self.walk(fi, cond_hi + 1, then_close, then_env, entry, stack);
        let toks = &self.files[fi].toks;
        let mut after = then_close + 1;
        let mut else_diverges = None;
        if after < hi && toks[after].is_ident("else") {
            if toks.get(after + 1).is_some_and(|n| n.is_ident("if")) {
                // else-if chain: treat the nested if under the negated
                // condition (which it refines further itself).
                let mut else_env = *env;
                c.negate().apply(&mut else_env);
                let mut scratch = else_env;
                after = self.handle_if(fi, after + 1, hi, &mut scratch, entry, stack);
                else_diverges = Some(false); // conservatively
            } else if toks.get(after + 1).is_some_and(|n| n.is_punct("{")) {
                let close = match_brace(toks, after + 1);
                let mut else_env = *env;
                c.negate().apply(&mut else_env);
                let d = self.walk(fi, after + 2, close, else_env, entry, stack);
                else_diverges = Some(d);
                after = close + 1;
            }
        }
        // Early-return refinement: a diverging branch leaves the other
        // branch's constraint in force for the rest of the region.
        match else_diverges {
            None if then_diverges => c.negate().apply(env),
            Some(true) if !then_diverges => c.apply(env),
            _ => {}
        }
        after
    }

    /// Handles a `match` starting at the `match` token. A match on the
    /// connection state narrows per arm; any other scrutinee is walked
    /// generically (every arm under the same environment). Returns the
    /// index just past the match block.
    fn handle_match(
        &mut self,
        fi: usize,
        m_idx: usize,
        hi: usize,
        env: Env,
        entry: &'static str,
        stack: &mut Vec<String>,
    ) -> usize {
        let toks = &self.files[fi].toks;
        let mut j = m_idx + 1;
        let mut depth = 0i32;
        while j < hi {
            match toks[j].punct() {
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth -= 1,
                Some("{") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let open = j;
        let close = match_brace(toks, open);
        if !is_state_scrutinee(toks, m_idx + 1, open) {
            self.walk(fi, open + 1, close, env, entry, stack);
            return close + 1;
        }
        // Arms: pattern (to `=>` at depth 0) then body (block, or expr to
        // the `,` at depth 0).
        let mut k = open + 1;
        let mut matched_so_far: StateSet = 0;
        while k < close {
            // Pattern.
            let mut pat_states: StateSet = 0;
            let mut wildcard = false;
            let mut depth = 0i32;
            let pat_lo = k;
            while k < close {
                let t = &toks[k];
                if depth == 0 && t.is_punct("=>") {
                    break;
                }
                match t.punct() {
                    Some("(") | Some("[") | Some("{") => depth += 1,
                    Some(")") | Some("]") | Some("}") => depth -= 1,
                    _ => {}
                }
                if depth == 0 && t.is_ident("if") {
                    // Arm guard: no refinement taken from it.
                }
                if depth == 0 && t.is_ident("TcpState") {
                    if let Some(v) = toks.get(k + 2).and_then(|v| v.ident()) {
                        if let Some(bit) = variant_bit(v) {
                            pat_states |= bit;
                        }
                    }
                }
                if depth == 0 && t.is_ident("_") && k == pat_lo {
                    wildcard = true;
                }
                if depth == 0 && k == pat_lo && t.ident().is_some_and(|id| id != "TcpState" && id != "_") {
                    // A bare binding pattern catches everything left.
                    wildcard = true;
                }
                k += 1;
            }
            if k >= close {
                break;
            }
            if wildcard && pat_states == 0 {
                pat_states = ALL_STATES ^ matched_so_far;
            }
            matched_so_far |= pat_states;
            let mut arm_env = env;
            arm_env.states &= pat_states;
            // Body.
            k += 1; // past `=>`
            if k < close && toks[k].is_punct("{") {
                let body_close = match_brace(toks, k);
                if arm_env.states != 0 {
                    self.walk(fi, k + 1, body_close, arm_env, entry, stack);
                }
                k = body_close + 1;
                if k < close && toks[k].is_punct(",") {
                    k += 1;
                }
            } else {
                let mut depth = 0i32;
                let body_lo = k;
                while k < close {
                    let t = &toks[k];
                    if depth == 0 && t.is_punct(",") {
                        break;
                    }
                    match t.punct() {
                        Some("(") | Some("[") | Some("{") => depth += 1,
                        Some(")") | Some("]") | Some("}") => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                if arm_env.states != 0 {
                    self.walk(fi, body_lo, k, arm_env, entry, stack);
                }
                if k < close {
                    k += 1; // past `,`
                }
            }
        }
        close + 1
    }

    /// Classifies the condition tokens `[lo, hi)`, also expanding any
    /// calls to control-file functions found inside it (e.g.
    /// `if !check_ack(…)`).
    fn classify_condition(
        &mut self,
        fi: usize,
        lo: usize,
        hi: usize,
        env: Env,
        entry: &'static str,
        stack: &mut Vec<String>,
    ) -> Constraint {
        // Expand calls appearing in the condition.
        let mut call_sites = Vec::new();
        {
            let toks = &self.files[fi].toks;
            for k in lo..hi {
                if let Some(name) = toks[k].ident() {
                    let is_call = toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                        && !toks.get(k.wrapping_sub(1)).is_some_and(|p| p.is_punct(".") || p.is_punct("::"));
                    if is_call && self.fns.contains_key(name) {
                        call_sites.push((name.to_string(), toks[k].line));
                    }
                }
            }
        }
        for (name, line) in call_sites {
            let &(cfi, clo, chi) = &self.fns[&name];
            if stack.contains(&name) {
                self.errors.push(format!(
                    "{}:{line}: recursive call to `{name}` — the control DAG must stay acyclic",
                    self.files[fi].rel
                ));
            } else {
                stack.push(name.clone());
                self.walk(cfi, clo, chi, env, entry, stack);
                stack.pop();
            }
        }
        let toks = &self.files[fi].toks;
        // Compound conditions carry no single constraint.
        if toks[lo..hi].iter().any(|t| t.is_punct("&&") || t.is_punct("||")) {
            return Constraint::Unknown;
        }
        let mut j = lo;
        let mut negated = false;
        while j < hi && toks[j].is_punct("!") {
            negated = !negated;
            j += 1;
        }
        let c = self.classify_atom(fi, j, hi);
        if negated {
            c.negate()
        } else {
            c
        }
    }

    /// A single (unnegated) condition atom.
    fn classify_atom(&mut self, fi: usize, lo: usize, hi: usize) -> Constraint {
        let toks = &self.files[fi].toks;
        if lo >= hi {
            return Constraint::Unknown;
        }
        // `matches!(scrutinee, pats)`
        if toks[lo].is_ident("matches")
            && toks.get(lo + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(lo + 2).is_some_and(|t| t.is_punct("("))
        {
            let close = match_paren(toks, lo + 2);
            // Scrutinee runs to the first depth-0 comma.
            let mut k = lo + 3;
            let mut depth = 0i32;
            while k < close {
                match toks[k].punct() {
                    Some("(") | Some("[") | Some("{") => depth += 1,
                    Some(")") | Some("]") | Some("}") => depth -= 1,
                    Some(",") if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if is_state_scrutinee(toks, lo + 3, k) {
                let mut set: StateSet = 0;
                let mut p = k;
                while p < close {
                    if toks[p].is_ident("TcpState") {
                        if let Some(v) = toks.get(p + 2).and_then(|t| t.ident()) {
                            if let Some(bit) = variant_bit(v) {
                                set |= bit;
                            }
                        }
                    }
                    p += 1;
                }
                return Constraint::States(set);
            }
            return Constraint::Unknown;
        }
        // `<scrutinee> == / != TcpState::V` (state equality).
        for k in lo..hi {
            let eq = toks[k].is_punct("==");
            let ne = toks[k].is_punct("!=");
            if (eq || ne)
                && is_state_scrutinee(toks, lo, k)
                && toks.get(k + 1).is_some_and(|t| t.is_ident("TcpState"))
            {
                if let Some(v) = toks.get(k + 3).and_then(|t| t.ident()) {
                    if let Some(bit) = variant_bit(v) {
                        let c = Constraint::States(bit);
                        return if ne { c.negate() } else { c };
                    }
                }
            }
            // Alias equality the other way round is not used.
        }
        // `<scrutinee>.is_syn_received()` / `.is_synchronized()`.
        for k in lo..hi {
            if toks[k].is_ident("is_syn_received") && is_state_scrutinee(toks, lo, k.saturating_sub(1)) {
                let set = variant_bit("SynActive").unwrap() | variant_bit("SynPassive").unwrap();
                return Constraint::States(set);
            }
            if toks[k].is_ident("is_synchronized") && is_state_scrutinee(toks, lo, k.saturating_sub(1)) {
                let unsync = variant_bit("Closed").unwrap()
                    | variant_bit("Listen").unwrap()
                    | variant_bit("SynSent").unwrap();
                return Constraint::States(ALL_STATES ^ unsync);
            }
        }
        // `….flags.rst/syn/fin/ack` — a pure field path ending in a flag.
        let mut idents: Vec<&str> = Vec::new();
        let mut pure_path = true;
        for t in &toks[lo..hi] {
            match (&t.ident(), &t.punct()) {
                (Some(id), _) => idents.push(id),
                (_, Some(".")) => {}
                _ => {
                    pure_path = false;
                    break;
                }
            }
        }
        if pure_path && idents.len() >= 2 {
            let last = idents[idents.len() - 1];
            let before = idents[idents.len() - 2];
            if before == "flags" {
                if let Some(fi) = FLAGS.iter().position(|f| *f == last) {
                    return Constraint::Flag(fi, true);
                }
            }
        }
        Constraint::Unknown
    }
}

/// Is `toks[lo..hi]` (modulo `&`/`mut` and a trailing `.clone()`) the
/// connection state — `core.state` or an alias bound from it?
/// Aliases are recognized structurally: an identifier that some earlier
/// `let <id> = core.state.clone()` in the same file binds.
fn is_state_scrutinee(toks: &[Token], mut lo: usize, mut hi: usize) -> bool {
    while lo < hi && (toks[lo].is_punct("&") || toks[lo].is_ident("mut")) {
        lo += 1;
    }
    // Strip a trailing `.clone()`.
    if hi >= lo + 4
        && toks[hi - 1].is_punct(")")
        && toks[hi - 2].is_punct("(")
        && toks[hi - 3].is_ident("clone")
        && toks[hi - 4].is_punct(".")
    {
        hi -= 4;
    }
    if hi == lo + 3
        && toks[lo].is_ident("core")
        && toks[lo + 1].is_punct(".")
        && toks[lo + 2].is_ident("state")
    {
        return true;
    }
    if hi == lo + 1 {
        if let Some(alias) = toks[lo].ident() {
            // Search backwards for `let <alias> = core.state.clone()`.
            for k in (0..lo).rev() {
                if toks[k].is_ident("let")
                    && toks.get(k + 1).is_some_and(|t| t.is_ident(alias))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct("="))
                    && toks.get(k + 3).is_some_and(|t| t.is_ident("core"))
                    && toks.get(k + 4).is_some_and(|t| t.is_punct("."))
                    && toks.get(k + 5).is_some_and(|t| t.is_ident("state"))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// The declarative spec
// ---------------------------------------------------------------------

/// Which stack an `@untested` exemption covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Untested {
    /// Neither stack can exercise the edge at runtime.
    Both,
    /// Only the structured stack is exempt.
    Fox,
    /// Only the monolithic baseline is exempt.
    Xk,
}

/// One `FROM -> TO : trigger` line of `spec/tcp_fsm.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecEdge {
    /// RFC state name.
    pub from: String,
    /// RFC state name.
    pub to: String,
    /// One of [`TRIGGERS`].
    pub trigger: String,
    /// `Some((scope, reason))` if the edge carries a documented
    /// conformance-coverage exemption.
    pub untested: Option<(Untested, String)>,
    /// 1-based spec line.
    pub line: usize,
}

impl SpecEdge {
    /// The identity the ratchets compare on.
    pub fn key(&self) -> (String, String, String) {
        (self.from.clone(), self.to.clone(), self.trigger.clone())
    }
    /// Is this edge exempt from runtime coverage for the named stack
    /// (`"fox"` or `"xk"`)?
    pub fn untested_for(&self, stack: &str) -> bool {
        match self.untested {
            Some((Untested::Both, _)) => true,
            Some((Untested::Fox, _)) => stack == "fox",
            Some((Untested::Xk, _)) => stack == "xk",
            None => false,
        }
    }
}

/// Parses `spec/tcp_fsm.txt`. Format, one edge per line:
///
/// ```text
/// # comment
/// FROM -> TO : trigger
/// FROM -> TO : trigger  @untested(both|fox|xk: reason)
/// ```
///
/// State names must be RFC names, triggers one of [`TRIGGERS`]; an
/// `@untested` exemption requires a nonempty reason.
pub fn parse_spec(text: &str) -> Result<Vec<SpecEdge>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (edge_part, untested) = match line.find("@untested") {
            Some(p) => {
                let ann = &line[p..];
                let inner = ann
                    .strip_prefix("@untested")
                    .and_then(|r| r.trim_start().strip_prefix('('))
                    .and_then(|r| r.rfind(')').map(|c| &r[..c]))
                    .ok_or_else(|| format!("spec:{line_no}: malformed @untested annotation"))?;
                let (scope, reason) = inner
                    .split_once(':')
                    .ok_or_else(|| format!("spec:{line_no}: @untested needs `scope: reason`"))?;
                let scope = match scope.trim() {
                    "both" => Untested::Both,
                    "fox" => Untested::Fox,
                    "xk" => Untested::Xk,
                    s => return Err(format!("spec:{line_no}: unknown @untested scope `{s}`")),
                };
                if reason.trim().is_empty() {
                    return Err(format!("spec:{line_no}: @untested requires a nonempty reason"));
                }
                (&line[..p], Some((scope, reason.trim().to_string())))
            }
            None => (line, None),
        };
        let (from, rest) = edge_part
            .split_once("->")
            .ok_or_else(|| format!("spec:{line_no}: expected `FROM -> TO : trigger`"))?;
        let (to, trigger) =
            rest.split_once(':').ok_or_else(|| format!("spec:{line_no}: missing `: trigger`"))?;
        let (from, to, trigger) = (from.trim(), to.trim(), trigger.trim());
        for s in [from, to] {
            if !RFC_STATES.contains(&s) {
                return Err(format!("spec:{line_no}: unknown state `{s}`"));
            }
        }
        if !TRIGGERS.contains(&trigger) {
            return Err(format!("spec:{line_no}: unknown trigger `{trigger}`"));
        }
        out.push(SpecEdge {
            from: from.to_string(),
            to: to.to_string(),
            trigger: trigger.to_string(),
            untested,
            line: line_no,
        });
    }
    // Duplicate edges would make the coverage accounting ambiguous.
    let mut seen = BTreeSet::new();
    for e in &out {
        if !seen.insert(e.key()) {
            return Err(format!("spec:{}: duplicate edge {} -> {} : {}", e.line, e.from, e.to, e.trigger));
        }
    }
    Ok(out)
}

/// The two-way code↔spec drift.
#[derive(Debug, Default)]
pub struct FsmDrift {
    /// Edges the code implements that the spec does not list, with the
    /// contributing write sites.
    pub code_only: Vec<(EdgeKey, EdgeSites)>,
    /// Edges the spec lists that the code does not implement.
    pub spec_only: Vec<SpecEdge>,
}

impl FsmDrift {
    /// No drift in either direction?
    pub fn is_clean(&self) -> bool {
        self.code_only.is_empty() && self.spec_only.is_empty()
    }
}

/// Compares the extracted graph against the spec in both directions.
pub fn diff_spec(graph: &FsmGraph, spec: &[SpecEdge]) -> FsmDrift {
    let spec_keys: BTreeSet<_> = spec.iter().map(|e| e.key()).collect();
    let mut d = FsmDrift::default();
    for (k, sites) in &graph.edges {
        if !spec_keys.contains(k) {
            d.code_only.push((k.clone(), sites.clone()));
        }
    }
    for e in spec {
        if !graph.edges.contains_key(&e.key()) {
            d.spec_only.push(e.clone());
        }
    }
    d
}

/// Renders the graph as deterministic Graphviz DOT. User-call edges are
/// blue, timer edges dashed gray, segment edges black.
pub fn to_dot(graph: &FsmGraph) -> String {
    let mut s = String::from(
        "// Generated by `foxlint --fsm-dot` from crates/foxtcp/src/control/.\n\
         // Regenerate after any state-machine change; ci.sh checks the spec\n\
         // diff, DESIGN.md \u{a7}5.13 documents the extraction rules.\n\
         digraph tcp_fsm {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    let mut states = BTreeSet::new();
    for (from, to, _) in graph.edges.keys() {
        states.insert(from.clone());
        states.insert(to.clone());
    }
    for st in &states {
        let _ = writeln!(s, "  \"{st}\";");
    }
    for (from, to, trigger) in graph.edges.keys() {
        let style = match trigger.as_str() {
            "open" | "close" | "abort" => ", color=blue",
            "timer" => ", color=gray, style=dashed",
            _ => "",
        };
        let _ = writeln!(s, "  \"{from}\" -> \"{to}\" [label=\"{trigger}\"{style}];");
    }
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------------
// Workspace entry point
// ---------------------------------------------------------------------

/// The control files the FSM lives in — exactly the set the
/// `field_owner` lint confines `core.state` writes to.
pub const CONTROL_FILES: &[&str] =
    &["crates/foxtcp/src/control/segment.rs", "crates/foxtcp/src/control/state.rs"];

/// Workspace-relative spec path.
pub const SPEC_PATH: &str = "spec/tcp_fsm.txt";

/// Outcome of `--fsm-check` over a workspace root.
#[derive(Debug)]
pub struct FsmReport {
    /// The extracted graph.
    pub graph: FsmGraph,
    /// The parsed spec.
    pub spec: Vec<SpecEdge>,
    /// The two-way diff.
    pub drift: FsmDrift,
}

/// Extracts the implemented FSM from the control files under `root`.
pub fn extract_root(root: &Path) -> Result<FsmGraph, String> {
    let mut sources = Vec::new();
    for rel in CONTROL_FILES {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        sources.push(((*rel).to_string(), src));
    }
    let refs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    extract(&refs)
}

/// Extracts the FSM from the workspace under `root` and diffs it
/// against `spec/tcp_fsm.txt`.
pub fn check_fsm(root: &Path) -> Result<FsmReport, String> {
    let graph = extract_root(root)?;
    let spec_path = root.join(SPEC_PATH);
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = parse_spec(&spec_text)?;
    let drift = diff_spec(&graph, &spec);
    Ok(FsmReport { graph, spec, drift })
}
