//! # foxlint — machine-checked invariants for trace determinism
//!
//! The paper's central claim is that a quasi-synchronous TCP produces
//! the *same trace from the same seed*. That property is global: one
//! stray `Instant::now()`, one iteration over a `HashMap`, one panic on
//! a malformed segment, and byte-identical replay silently dies. The
//! type system cannot see any of these, so this crate checks them
//! mechanically — a registry-free, dependency-free lexer over the
//! workspace source enforcing these lints:
//!
//! * [`determinism`](LINTS) — no ambient time (`Instant`, `SystemTime`)
//!   or ambient randomness (`thread_rng`, `RandomState`, …) outside
//!   `crates/bench`. All time must come from the virtual clock, all
//!   randomness from a seeded generator.
//! * `hash_iter` — no `HashMap`/`HashSet` in trace-affecting crates
//!   (foxtcp, xktcp, protocols, simnet, foxbasis, harness): hash
//!   iteration order is randomized per process, so any iteration —
//!   including `retain` — can reorder observable effects. `BTreeMap`/
//!   `BTreeSet` give the same O(log n) and a total order.
//! * `rx_panic` — no `unwrap`/`expect`/`panic!`-family calls in code a
//!   hostile packet can reach: the `crates/wire` decoders (which must
//!   also avoid unchecked indexing in `decode*`/`parse*` functions) and
//!   the segment-input paths of both TCP engines. Malformed input is an
//!   `Err`, never a crash.
//! * `field_owner` — one table (`FIELD_OWNERS`) of which files may
//!   assign which connection fields: `state` only in
//!   `crates/foxtcp/src/control/fsm.rs`, whose `transition` checks every
//!   write against `spec/tcp_fsm.txt` (DESIGN.md §5.13; control hands
//!   data an `EstablishedHandle`, data reports back through `DataEvent`,
//!   neither half writes the other's fields, §5.11); `cwnd`/`ssthresh` only in
//!   `crates/foxtcp/src/data/congestion.rs`, so every congestion
//!   decision flows through the `CongestionControl` trait; the RFC 793
//!   sequence-space fields only in the data-path modules, `tcb.rs` and
//!   the monolithic xktcp. Everything else goes through the engine API,
//!   preserving the quasi-synchronous containment of connection state.
//! * `win_cast` — no raw `as u16` on window-named values outside
//!   `crates/wire`: the codec's `wire_window` is the one sanctioned
//!   16-bit narrowing (it applies the negotiated scale and the cap).
//! * `shard_global` — no `static mut` or `thread_local!` state in the
//!   trace-affecting crates: process-global mutable state breaks replay
//!   whether or not the engine is ever sharded.
//!
//! Violations are reported as `file:line: lint: message`, and any
//! violation fails the check: there is no baseline of tolerated debt.
//! The one escape hatch is per site —
//! `// foxlint::allow(<lint>): <reason>` suppresses the same or next
//! line; the reason is mandatory.
//!
//! The analysis is lexical, not semantic — by design. It never needs to
//! resolve types, so it has zero dependencies and runs in milliseconds,
//! and the patterns it matches (banned identifiers, banned call shapes,
//! field assignments) are exactly the ones whose absence the trace
//! proofs assume. See DESIGN.md §5.8.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The lint registry: `(name, one-line description)`.
pub const LINTS: &[(&str, &str)] = &[
    ("determinism", "no ambient time or randomness outside crates/bench"),
    ("hash_iter", "no HashMap/HashSet in trace-affecting crates (randomized iteration order)"),
    ("rx_panic", "no panics or unchecked indexing in packet-input paths"),
    ("field_owner", "connection fields assigned only inside their owning modules (one table)"),
    ("win_cast", "no raw `as u16` window casts outside the wire codec"),
    ("shard_global", "no `static mut` or `thread_local!` state in trace-affecting crates"),
];

/// Crates whose execution order is observable in traces.
const TRACE_CRATES: &[&str] = &["foxtcp", "xktcp", "protocols", "simnet", "foxbasis", "harness"];

/// Identifiers that pull in wall-clock time or ambient randomness.
const NONDET_IDENTS: &[&str] =
    &["Instant", "SystemTime", "thread_rng", "from_entropy", "RandomState", "DefaultHasher"];

/// Iteration methods whose order depends on the container.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "retain", "into_iter"];

/// One `field_owner` rule: in files under `scope` (the lint as a whole
/// is confined to the trace-affecting crates), `.field <assign-op>` may
/// appear only under one of the `owners` path prefixes.
struct FieldOwner {
    fields: &'static [&'static str],
    scope: &'static str,
    owners: &'static [&'static str],
    /// What a writer outside the owners should do instead.
    instead: &'static str,
}

/// Who may assign which connection field. Where a field once fell under
/// two lints the tighter owner set is kept: `congestion.rs` sits under
/// `data/` yet may not write sequence space, and `tcb.rs` may not write
/// the congestion windows.
const FIELD_OWNERS: &[FieldOwner] = &[
    // The control/data split is internal to foxtcp: other crates
    // (including the monolithic xktcp baseline, which exists to *not*
    // have this structure) assign their own `state` fields freely.
    FieldOwner {
        fields: &["state"],
        scope: "crates/foxtcp/src/",
        owners: &["crates/foxtcp/src/control/fsm.rs"],
        instead: "a state transition is control's alone and goes through `fsm::transition`, \
                  which checks it against spec/tcp_fsm.txt — the data path reports events \
                  (DataEvent), it never assigns `state`",
    },
    FieldOwner {
        fields: &["cwnd", "ssthresh"],
        scope: "crates/",
        owners: &["crates/foxtcp/src/data/congestion.rs"],
        instead: "go through the CongestionControl trait",
    },
    // The RFC 793 sequence-space fields and the loss-recovery record
    // (`Tcb::recovery` and its three fields): the data path proper, the
    // TCB's own methods and the monolithic baseline.
    FieldOwner {
        fields: &[
            "snd_una",
            "snd_nxt",
            "snd_wnd",
            "snd_wl1",
            "snd_wl2",
            "snd_up",
            "iss",
            "irs",
            "rcv_nxt",
            "rcv_up",
            "dup_acks",
            "recovery",
            "recover",
            "high_rxt",
            "by_rto",
            "persist_backoff",
        ],
        scope: "crates/",
        owners: &[
            "crates/foxtcp/src/data/transfer.rs",
            "crates/foxtcp/src/data/send.rs",
            "crates/foxtcp/src/data/resend.rs",
            "crates/foxtcp/src/data/fastpath.rs",
            "crates/foxtcp/src/tcb.rs",
            "crates/xktcp/src/lib.rs",
        ],
        instead: "go through the engine API — control reaches the transfer machinery only \
                  through its explicit interface",
    },
];

/// foxtcp rx-path files checked whole.
const FOXTCP_RX_FILES: &[&str] = &[
    "crates/foxtcp/src/control/segment.rs",
    "crates/foxtcp/src/data/transfer.rs",
    "crates/foxtcp/src/data/fastpath.rs",
    "crates/foxtcp/src/demux.rs",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name (or `directive` for a malformed allow comment).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.lint, self.message)
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Punct(String),
}

#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub(crate) line: usize,
    pub(crate) tok: Tok,
}

impl Token {
    pub(crate) fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            Tok::Punct(_) => None,
        }
    }
    pub(crate) fn punct(&self) -> Option<&str> {
        match &self.tok {
            Tok::Punct(s) => Some(s),
            Tok::Ident(_) => None,
        }
    }
    pub(crate) fn is_punct(&self, p: &str) -> bool {
        self.punct() == Some(p)
    }
    pub(crate) fn is_ident(&self, i: &str) -> bool {
        self.ident() == Some(i)
    }
}

/// A `// foxlint::allow(<lint>): <reason>` comment.
#[derive(Debug, Clone)]
struct Allow {
    line: usize,
    lint: String,
    /// `Some(msg)` if the directive is malformed.
    error: Option<String>,
}

const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "=>", "->", "::", "..", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

pub(crate) fn lex(src: &str) -> (Vec<Token>, Vec<Allow>) {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let comment: String = chars[start..j].iter().collect();
                if let Some(a) = parse_allow(&comment, line) {
                    allows.push(a);
                }
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'` followed by
                // ident chars with no closing quote right after one char.
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    i = j;
                } else {
                    // Char literal: handle escapes, find closing quote.
                    let mut j = i + 1;
                    while j < chars.len() {
                        if chars[j] == '\\' {
                            j += 2;
                        } else if chars[j] == '\'' {
                            j += 1;
                            break;
                        } else {
                            if chars[j] == '\n' {
                                line += 1;
                            }
                            j += 1;
                        }
                    }
                    i = j;
                }
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                i = j; // numbers carry no lint signal
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Raw/byte string prefixes: r"…", r#"…"#, br"…", b"…".
                let nxt = chars.get(j).copied();
                if (word == "r" || word == "br") && (nxt == Some('"') || nxt == Some('#')) {
                    i = skip_raw_string(&chars, j, &mut line);
                } else if word == "b" && nxt == Some('"') {
                    i = skip_string(&chars, j, &mut line);
                } else {
                    toks.push(Token { line, tok: Tok::Ident(word) });
                    i = j;
                }
            }
            _ => {
                let mut matched = false;
                for op in MULTI_PUNCT {
                    if chars[i..].starts_with(&op.chars().collect::<Vec<_>>()[..]) {
                        toks.push(Token { line, tok: Tok::Punct((*op).to_string()) });
                        i += op.len();
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    toks.push(Token { line, tok: Tok::Punct(c.to_string()) });
                    i += 1;
                }
            }
        }
    }
    (toks, allows)
}

/// Skips a `"…"` string starting at the opening quote; returns the index
/// past the closing quote.
fn skip_string(chars: &[char], open: usize, line: &mut usize) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            // An escape consumes the next char too — which may be a real
            // newline (`\` line continuation, legal in `"…"`/`b"…"`).
            // Count it, or every token after the string reports one line
            // early and `foxlint::allow` stops matching its target line.
            '\\' => {
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Skips `r"…"` / `r#"…"#` starting at the first `#` or `"` after the
/// `r`/`br` prefix; returns the index past the closing delimiter.
fn skip_raw_string(chars: &[char], mut j: usize, line: &mut usize) -> usize {
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return j;
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
        } else if chars[j] == '"' {
            let mut k = j + 1;
            let mut n = 0;
            while n < hashes && chars.get(k) == Some(&'#') {
                n += 1;
                k += 1;
            }
            if n == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let t = comment.trim();
    let rest = t.strip_prefix("foxlint::allow")?;
    let make_err = |msg: &str| Some(Allow { line, lint: String::new(), error: Some(msg.to_string()) });
    let Some(rest) = rest.trim_start().strip_prefix('(') else {
        return make_err("malformed foxlint::allow: expected `(<lint>): <reason>`");
    };
    let Some(close) = rest.find(')') else {
        return make_err("malformed foxlint::allow: missing `)`");
    };
    let lint = rest[..close].trim().to_string();
    if !LINTS.iter().any(|(n, _)| *n == lint) {
        return Some(Allow {
            line,
            lint: lint.clone(),
            error: Some(format!("foxlint::allow names unknown lint `{lint}`")),
        });
    }
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return make_err("foxlint::allow requires `: <reason>` after the lint name");
    };
    if reason.trim().is_empty() {
        return make_err("foxlint::allow requires a nonempty reason");
    }
    Some(Allow { line, lint, error: None })
}

// ---------------------------------------------------------------------
// Structure discovery: test regions and fn regions
// ---------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open`, or the last token.
pub(crate) fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Lines covered by `#[cfg(test)]` / `#[test]` items (the attribute line
/// through the close of the following brace block).
pub(crate) fn test_lines(toks: &[Token]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    let mut k = 0usize;
    while k < toks.len() {
        let cfg_test = k + 6 < toks.len()
            && toks[k].is_punct("#")
            && toks[k + 1].is_punct("[")
            && toks[k + 2].is_ident("cfg")
            && toks[k + 3].is_punct("(")
            && toks[k + 4].is_ident("test")
            && toks[k + 5].is_punct(")")
            && toks[k + 6].is_punct("]");
        let bare_test = k + 3 < toks.len()
            && toks[k].is_punct("#")
            && toks[k + 1].is_punct("[")
            && toks[k + 2].is_ident("test")
            && toks[k + 3].is_punct("]");
        if cfg_test || bare_test {
            let start_line = toks[k].line;
            let mut open = k;
            while open < toks.len() && !toks[open].is_punct("{") {
                open += 1;
            }
            if open < toks.len() {
                let close = match_brace(toks, open);
                for l in start_line..=toks[close].line {
                    out.insert(l);
                }
                k = close + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// `(name, first line, last line)` of every `fn` body.
fn fn_regions(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if toks[k].is_ident("fn") {
            if let Some(name) = toks.get(k + 1).and_then(|t| t.ident()) {
                let name = name.to_string();
                let mut open = k + 2;
                while open < toks.len() && !toks[open].is_punct("{") && !toks[open].is_punct(";") {
                    open += 1;
                }
                if open < toks.len() && toks[open].is_punct("{") {
                    let close = match_brace(toks, open);
                    out.push((name, toks[k].line, toks[close].line));
                    k = open + 1; // descend: nested fns found too
                    continue;
                }
            }
        }
        k += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    krate: Option<&'a str>,
    toks: &'a [Token],
    excluded: &'a BTreeSet<usize>,
}

impl FileCtx<'_> {
    fn emit(&self, out: &mut Vec<Violation>, line: usize, lint: &'static str, message: String) {
        if !self.excluded.contains(&line) {
            out.push(Violation { path: self.rel.to_string(), line, lint, message });
        }
    }
}

fn lint_determinism(cx: &FileCtx, out: &mut Vec<Violation>) {
    if cx.krate == Some("bench") || cx.krate == Some("foxlint") {
        return;
    }
    for t in cx.toks {
        if let Some(id) = t.ident() {
            if NONDET_IDENTS.contains(&id) {
                cx.emit(
                    out,
                    t.line,
                    "determinism",
                    format!("nondeterministic source `{id}`: use the virtual clock / seeded rng"),
                );
            }
        }
    }
}

fn lint_hash_iter(cx: &FileCtx, out: &mut Vec<Violation>) {
    let Some(k) = cx.krate else { return };
    if !TRACE_CRATES.contains(&k) {
        return;
    }
    // Any hash container at all: iteration order is per-process random,
    // and even lookup-only tables invite future iteration.
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for (i, t) in cx.toks.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if id == "HashMap" || id == "HashSet" {
            cx.emit(
                out,
                t.line,
                "hash_iter",
                format!("`{id}` in trace-affecting crate: use BTreeMap/BTreeSet"),
            );
            // Remember declared names: `name: …HashMap<…` / `name = HashMap::new`.
            for back in (0..i).rev().take(8) {
                let bt = &cx.toks[back];
                if bt.is_punct(":") || bt.is_punct("=") {
                    if let Some(name) = cx.toks.get(back.wrapping_sub(1)).and_then(|t| t.ident()) {
                        hash_names.insert(name.to_string());
                    }
                    break;
                }
                if bt.is_punct(";") || bt.is_punct("{") || bt.is_punct("}") {
                    break;
                }
            }
        }
    }
    // `.iter()`-family calls on names known to be hash containers.
    for w in cx.toks.windows(4) {
        let [recv, dot, method, open] = w else { continue };
        if dot.is_punct(".")
            && open.is_punct("(")
            && method.ident().is_some_and(|m| ITER_METHODS.contains(&m))
            && recv.ident().is_some_and(|r| hash_names.contains(r))
        {
            cx.emit(
                out,
                method.line,
                "hash_iter",
                format!(
                    "iteration (`{}`) over hash container `{}`: order is nondeterministic",
                    method.ident().unwrap_or(""),
                    recv.ident().unwrap_or(""),
                ),
            );
        }
    }
}

/// Lines of `crates/xktcp/src/lib.rs` / `engine.rs` covered by the named
/// rx-path functions.
fn lines_of_fns(toks: &[Token], names: &[&str]) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for (name, lo, hi) in fn_regions(toks) {
        if names.contains(&name.as_str()) {
            for l in lo..=hi {
                set.insert(l);
            }
        }
    }
    set
}

fn lint_rx_panic(cx: &FileCtx, out: &mut Vec<Violation>) {
    let wire = cx.rel.starts_with("crates/wire/src/");
    let foxtcp_whole = FOXTCP_RX_FILES.contains(&cx.rel);
    let engine = cx.rel == "crates/foxtcp/src/engine.rs";
    let xk = cx.rel == "crates/xktcp/src/lib.rs";
    if !(wire || foxtcp_whole || engine || xk) {
        return;
    }
    // Which lines are in scope for the panic rules?
    let scoped: Option<BTreeSet<usize>> = if engine {
        Some(lines_of_fns(cx.toks, &["internalize"]))
    } else if xk {
        Some(lines_of_fns(cx.toks, &["input", "process_segment"]))
    } else {
        None // whole file
    };
    let in_scope = |line: usize| scoped.as_ref().is_none_or(|s| s.contains(&line));
    // Unchecked indexing is checked only inside wire decode*/parse* fns,
    // where the input is attacker-controlled bytes.
    let decode_lines: BTreeSet<usize> = if wire {
        fn_regions(cx.toks)
            .into_iter()
            .filter(|(n, _, _)| n.starts_with("decode") || n.starts_with("parse"))
            .flat_map(|(_, lo, hi)| lo..=hi)
            .collect()
    } else {
        BTreeSet::new()
    };
    for (i, t) in cx.toks.iter().enumerate() {
        let Some(id) = t.ident() else {
            // `x[…]`, `arr[…]`, `f()[…]`, `s.field[…]` — previous token
            // ident, `]` or `)` followed by `[`.
            if t.is_punct("[") && decode_lines.contains(&t.line) {
                let prev = i.checked_sub(1).and_then(|p| cx.toks.get(p));
                let indexes = prev.is_some_and(|p| p.ident().is_some() || p.is_punct("]") || p.is_punct(")"));
                if indexes {
                    cx.emit(
                        out,
                        t.line,
                        "rx_panic",
                        "unchecked indexing in a wire decoder: use ByteReader / get()".into(),
                    );
                }
            }
            continue;
        };
        if !in_scope(t.line) {
            continue;
        }
        let next = cx.toks.get(i + 1);
        let prev = i.checked_sub(1).and_then(|p| cx.toks.get(p));
        let method_call = prev.is_some_and(|p| p.is_punct("."))
            && next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
        if (id == "unwrap" || id == "expect") && method_call {
            cx.emit(
                out,
                t.line,
                "rx_panic",
                format!("`.{id}()` on the packet-input path: malformed input must be an Err"),
            );
        }
        if matches!(id, "panic" | "unreachable" | "todo" | "unimplemented")
            && next.is_some_and(|n| n.is_punct("!"))
        {
            cx.emit(
                out,
                t.line,
                "rx_panic",
                format!("`{id}!` on the packet-input path: return an error instead"),
            );
        }
    }
}

fn lint_field_owner(cx: &FileCtx, out: &mut Vec<Violation>) {
    let Some(k) = cx.krate else { return };
    if !TRACE_CRATES.contains(&k) {
        return;
    }
    const ASSIGN: &[&str] = &["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="];
    for w in cx.toks.windows(3) {
        let [dot, field, op] = w else { continue };
        if !dot.is_punct(".") || !op.punct().is_some_and(|o| ASSIGN.contains(&o)) {
            continue;
        }
        let Some(f) = field.ident() else { continue };
        let Some(rule) = FIELD_OWNERS.iter().find(|r| r.fields.contains(&f) && cx.rel.starts_with(r.scope))
        else {
            continue;
        };
        if !rule.owners.iter().any(|o| cx.rel.starts_with(o)) {
            cx.emit(
                out,
                field.line,
                "field_owner",
                format!("`{f}` written outside {}: {}", rule.owners.join(", "), rule.instead),
            );
        }
    }
}

/// Idents that name a window quantity. The check is lexical, so it keys
/// on the naming convention the codebase already follows.
fn is_window_name(id: &str) -> bool {
    id.contains("wnd") || id.to_ascii_lowercase().contains("window")
}

fn lint_win_cast(cx: &FileCtx, out: &mut Vec<Violation>) {
    let Some(k) = cx.krate else { return };
    // The wire codec owns the one sanctioned narrowing (`wire_window`);
    // everywhere else a bare `as u16` silently reintroduces the 64 KB cap.
    if !TRACE_CRATES.contains(&k) {
        return;
    }
    for (i, t) in cx.toks.iter().enumerate() {
        if !t.is_ident("as") || !cx.toks.get(i + 1).is_some_and(|n| n.is_ident("u16")) {
            continue;
        }
        // Scan back through the statement for a window-named operand
        // (assignment target or cast source); statement boundaries keep
        // unrelated casts out of scope.
        let windowish = cx.toks[..i]
            .iter()
            .rev()
            .take(24)
            .take_while(|b| !b.is_punct(";") && !b.is_punct("{") && !b.is_punct("}"))
            .any(|b| b.ident().is_some_and(is_window_name));
        if windowish {
            cx.emit(
                out,
                t.line,
                "win_cast",
                "raw `as u16` on a window value: use foxwire::tcp::wire_window".into(),
            );
        }
    }
}

/// Process-global mutable state is shared by every engine in the
/// process and survives from one run to the next, so a replay can read
/// what the first run left behind.
fn lint_shard_global(cx: &FileCtx, out: &mut Vec<Violation>) {
    let Some(k) = cx.krate else { return };
    if !TRACE_CRATES.contains(&k) {
        return;
    }
    for (i, t) in cx.toks.iter().enumerate() {
        if t.is_ident("static") && cx.toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            cx.emit(
                out,
                t.line,
                "shard_global",
                "`static mut` in a trace-affecting crate: every engine in the process shares it \
                 and a replay inherits it — move the state into the engine or behind an explicit \
                 channel"
                    .into(),
            );
        }
        if t.is_ident("thread_local") && cx.toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            cx.emit(
                out,
                t.line,
                "shard_global",
                "`thread_local!` in a trace-affecting crate: per-thread state outlives the run \
                 that wrote it — make it per-engine, or allow with a reason why it cannot \
                 affect traces"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------

/// Lints one file's source. `rel` is the workspace-relative path with
/// forward slashes (it selects each lint's scope). Returns the surviving
/// violations and how many were suppressed by valid allow directives.
pub fn lint_source(rel: &str, src: &str) -> (Vec<Violation>, usize) {
    let (toks, allows) = lex(src);
    let excluded = test_lines(&toks);
    let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
    let cx = FileCtx { rel, krate, toks: &toks, excluded: &excluded };
    let mut raw = Vec::new();
    lint_determinism(&cx, &mut raw);
    lint_hash_iter(&cx, &mut raw);
    lint_rx_panic(&cx, &mut raw);
    lint_field_owner(&cx, &mut raw);
    lint_win_cast(&cx, &mut raw);
    lint_shard_global(&cx, &mut raw);
    // Apply allow directives: a valid allow suppresses matching
    // violations on its own line and the following line. A malformed
    // directive is itself a violation — the escape hatch must not decay.
    let mut out = Vec::new();
    let mut allowed = 0usize;
    for a in &allows {
        if let Some(err) = &a.error {
            out.push(Violation {
                path: rel.to_string(),
                line: a.line,
                lint: "directive",
                message: err.clone(),
            });
        }
    }
    for v in raw {
        let hit = allows
            .iter()
            .any(|a| a.error.is_none() && a.lint == v.lint && (a.line == v.line || a.line + 1 == v.line));
        if hit {
            allowed += 1;
        } else {
            out.push(v);
        }
    }
    out.sort();
    (out, allowed)
}

// ---------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------

fn push_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    // read_dir order is OS-dependent: sort for a deterministic report.
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            push_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// All workspace `.rs` source files under `root`: the facade `src/` and
/// every `crates/*/src/`. Integration tests, benches, fixtures and
/// `vendor/` are intentionally out of scope.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    push_rs_files(&root.join("src"), &mut out);
    let crates_dir = root.join("crates");
    if let Ok(rd) = fs::read_dir(&crates_dir) {
        let mut members: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
        members.sort();
        for m in members {
            push_rs_files(&m.join("src"), &mut out);
        }
    }
    out
}

/// Outcome of linting a whole workspace.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// All surviving violations, sorted.
    pub violations: Vec<Violation>,
    /// Count suppressed by valid allow directives.
    pub allowed: usize,
    /// Files scanned.
    pub files: usize,
}

/// Lints every workspace file under `root`.
pub fn check_root(root: &Path) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    for path in workspace_files(root) {
        let Ok(src) = fs::read_to_string(&path) else { continue };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (vs, allowed) = lint_source(&rel, &src);
        out.violations.extend(vs);
        out.allowed += allowed;
        out.files += 1;
    }
    out.violations.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_skips_strings_comments_and_lifetimes() {
        let src = r####"
            // HashMap in a comment
            /* Instant in /* a nested */ block */
            fn f<'a>(x: &'a str) -> char {
                let _s = "HashMap<Instant>";
                let _r = r#"SystemTime"#;
                let _b = b"thread_rng";
                let _c = '\'';
                'x'
            }
        "####;
        let (toks, _) = lex(src);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(!toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(!toks.iter().any(|t| t.is_ident("thread_rng")));
        assert!(toks.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn allow_directive_parses_and_rejects() {
        let ok = parse_allow(" foxlint::allow(determinism): bench-only warmup", 3).unwrap();
        assert!(ok.error.is_none());
        assert_eq!(ok.lint, "determinism");
        let bad = parse_allow(" foxlint::allow(nosuch): reason", 3).unwrap();
        assert!(bad.error.is_some());
        let noreason = parse_allow(" foxlint::allow(rx_panic):", 3).unwrap();
        assert!(noreason.error.is_some());
        assert!(parse_allow("ordinary comment", 1).is_none());
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn t() { let m: HashMap<u8, u8> = HashMap::new(); }
            }
        ";
        let (vs, _) = lint_source("crates/foxtcp/src/x.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn fn_regions_find_nested_fns() {
        let src = "fn outer() { fn inner() {} }";
        let (toks, _) = lex(src);
        let names: Vec<_> = fn_regions(&toks).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn win_cast_flags_window_narrowing_outside_wire() {
        let src = "fn f(w: u32) -> u16 { let snd_wnd = w; snd_wnd.min(65535) as u16 }";
        let (vs, _) = lint_source("crates/foxtcp/src/send.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].lint, "win_cast");
        // crates/wire is not a trace crate: the codec owns the narrowing.
        let (vs, _) = lint_source("crates/wire/src/tcp.rs", src);
        assert!(vs.iter().all(|v| v.lint != "win_cast"), "{vs:?}");
        // Unrelated u16 casts don't trip it.
        let src = "fn g(port: u32) -> u16 { port as u16 }";
        let (vs, _) = lint_source("crates/foxtcp/src/send.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
        // Statement boundaries reset the lookback.
        let src = "fn h(window: u32, p: u32) -> u16 { let _w = window; p as u16 }";
        let (vs, _) = lint_source("crates/xktcp/src/lib.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
