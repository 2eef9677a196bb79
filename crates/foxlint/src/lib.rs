//! # foxlint — the two invariants the compiler cannot state
//!
//! The paper's central claim is that a quasi-synchronous TCP produces
//! the *same trace from the same seed*, and its structure claim is that
//! each module owns its own state. Most of the invariants behind those
//! claims are checked by the compiler: `crates/clippy.toml` bans ambient
//! time, hash containers and thread-local accessors, and lint attributes
//! deny panics on the receive path (DESIGN.md §5.8). Two are left that
//! clippy cannot express, and this crate checks them with a
//! dependency-free lexer over the workspace source:
//!
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
//!   Clippy's `disallowed_fields` flags reads as well as writes, so it
//!   cannot say "written only here, read anywhere".
//! * `win_cast` — no raw `as u16` on window-named values outside
//!   `crates/wire`: the codec's `wire_window` is the one sanctioned
//!   16-bit narrowing (it applies the negotiated scale and the cap).
//!   Clippy's `cast_possible_truncation` would flag every narrowing
//!   cast, not only the window ones.
//!
//! Violations are reported as `file:line: lint: message`, and any
//! violation fails the check: there is no baseline of tolerated debt and
//! no escape comment. An exception to `field_owner` is a row in
//! `FIELD_OWNERS`; a window narrowing goes through `wire_window`.
//! `#[cfg(test)]` and `#[test]` items are not checked.
//!
//! The analysis is lexical, not semantic — by design. It never needs to
//! resolve types, so it has zero dependencies and runs in milliseconds,
//! and the patterns it matches (field assignments, casts next to window
//! names) are exactly the ones whose absence the structure proofs
//! assume.

#![deny(clippy::allow_attributes_without_reason)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The lint registry: `(name, one-line description)`.
pub const LINTS: &[(&str, &str)] = &[
    ("field_owner", "connection fields assigned only inside their owning modules (one table)"),
    ("win_cast", "no raw `as u16` window casts outside the wire codec"),
];

/// Crates whose execution order is observable in traces.
const TRACE_CRATES: &[&str] = &["foxtcp", "xktcp", "protocols", "simnet", "foxbasis", "harness"];

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

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name.
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
enum Tok {
    Ident(String),
    Punct(String),
}

#[derive(Debug, Clone)]
struct Token {
    line: usize,
    tok: Tok,
}

impl Token {
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            Tok::Punct(_) => None,
        }
    }
    fn punct(&self) -> Option<&str> {
        match &self.tok {
            Tok::Punct(s) => Some(s),
            Tok::Ident(_) => None,
        }
    }
    fn is_punct(&self, p: &str) -> bool {
        self.punct() == Some(p)
    }
    fn is_ident(&self, i: &str) -> bool {
        self.ident() == Some(i)
    }
}

const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "=>", "->", "::", "..", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
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
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
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
    toks
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
            // early.
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

// ---------------------------------------------------------------------
// Test regions
// ---------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open`, or the last token.
fn match_brace(toks: &[Token], open: usize) -> usize {
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
fn test_lines(toks: &[Token]) -> BTreeSet<usize> {
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

// ---------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
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

fn lint_field_owner(cx: &FileCtx, out: &mut Vec<Violation>) {
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

// ---------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------

/// Lints one file's source. `rel` is the workspace-relative path with
/// forward slashes (it selects each lint's scope). Returns the
/// violations, sorted.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    // Both lints cover the trace-affecting crates only. For `win_cast`
    // that leaves out the wire codec, which owns the one sanctioned
    // narrowing (`wire_window`).
    let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
    if !krate.is_some_and(|k| TRACE_CRATES.contains(&k)) {
        return Vec::new();
    }
    let toks = lex(src);
    let excluded = test_lines(&toks);
    let cx = FileCtx { rel, toks: &toks, excluded: &excluded };
    let mut out = Vec::new();
    lint_field_owner(&cx, &mut out);
    lint_win_cast(&cx, &mut out);
    out.sort();
    out
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
    /// All violations, sorted.
    pub violations: Vec<Violation>,
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
        out.violations.extend(lint_source(&rel, &src));
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
            // cwnd in a comment
            /* snd_nxt in /* a nested */ block */
            fn f<'a>(x: &'a str) -> char {
                let _s = "cwnd = 1";
                let _r = r#"snd_wnd"#;
                let _b = b"ssthresh";
                let _c = '\'';
                'x'
            }
        "####;
        let toks = lex(src);
        for banned in ["cwnd", "snd_nxt", "snd_wnd", "ssthresh"] {
            assert!(!toks.iter().any(|t| t.is_ident(banned)), "{banned}");
        }
        assert!(toks.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn t(core: &mut Core) { core.cwnd = 1; core.snd_nxt += 2; }
            }
        ";
        let vs = lint_source("crates/foxtcp/src/x.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn win_cast_flags_window_narrowing_outside_wire() {
        let src = "fn f(w: u32) -> u16 { let snd_wnd = w; snd_wnd.min(65535) as u16 }";
        let vs = lint_source("crates/foxtcp/src/send.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].lint, "win_cast");
        // crates/wire is not a trace crate: the codec owns the narrowing.
        let vs = lint_source("crates/wire/src/tcp.rs", src);
        assert!(vs.iter().all(|v| v.lint != "win_cast"), "{vs:?}");
        // Unrelated u16 casts don't trip it.
        let src = "fn g(port: u32) -> u16 { port as u16 }";
        let vs = lint_source("crates/foxtcp/src/send.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
        // Statement boundaries reset the lookback.
        let src = "fn h(window: u32, p: u32) -> u16 { let _w = window; p as u16 }";
        let vs = lint_source("crates/xktcp/src/lib.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
