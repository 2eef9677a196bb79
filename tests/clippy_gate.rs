//! The statements of the tool-enforced invariants, pinned (DESIGN.md
//! §5.8).
//!
//! Four workspace invariants are stated as `crates/clippy.toml` entries
//! and lint attributes, and `ci.sh`'s `== clippy ==` stage (`cargo
//! clippy --workspace --all-targets -- -D warnings`) finds their
//! violations. Clippy does not run under `cargo test`, so this file
//! checks that the statements are still there: deleting a banned path, a
//! receive-path deny or a decoder's `indexing_slicing` fails here.
//!
//! Two more are stated to rustc as visibility and types — who may write
//! a connection's state, its sequence space and each record of its TCB,
//! and that a header window is narrowed only by `wire_window` — and any
//! build finds their violations. What no build notices is the statement
//! being loosened (a `pub` added, a `Clone` derived), so this file pins
//! those too.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// `determinism` and `hash_iter`.
const BANNED_TYPES: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "std::hash::RandomState",
    "std::hash::DefaultHasher",
    "std::collections::HashMap",
    "std::collections::HashSet",
];

/// `determinism`, then `shard_global`: every `LocalKey` accessor.
const BANNED_METHODS: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::LocalKey::with",
    "std::thread::LocalKey::try_with",
    "std::thread::LocalKey::get",
    "std::thread::LocalKey::set",
    "std::thread::LocalKey::take",
    "std::thread::LocalKey::replace",
    "std::thread::LocalKey::with_borrow",
    "std::thread::LocalKey::with_borrow_mut",
];

/// `rx_panic`: what a packet-input path may not call.
const RX_PANIC: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// Receive-path files denied whole (the wire crate through its root).
const RX_FILES: &[&str] = &[
    "crates/wire/src/lib.rs",
    "crates/foxtcp/src/control/segment.rs",
    "crates/foxtcp/src/data/transfer.rs",
    "crates/foxtcp/src/data/fastpath.rs",
    "crates/foxtcp/src/demux.rs",
    "crates/foxbasis/src/flat.rs",
];

/// Receive-path fns inside files that are not.
const RX_FNS: &[(&str, &str)] = &[
    ("crates/foxtcp/src/engine.rs", "internalize"),
    ("crates/xktcp/src/lib.rs", "input"),
    ("crates/xktcp/src/lib.rs", "process_segment"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let p = root().join(rel);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// The `path = "…"` entries of the TOML array `key = [ … ]`.
fn listed(toml: &str, key: &str) -> BTreeSet<String> {
    let start = toml.find(&format!("\n{key} = [")).unwrap_or_else(|| panic!("no `{key}` in clippy.toml"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("array closes")];
    body.split("path = \"").skip(1).map(|s| s[..s.find('"').expect("path closes")].to_string()).collect()
}

/// Every lint named by an `{open}…)]` attribute in `text` (`open` is
/// `#![deny(` or `#[deny(`).
fn denied(text: &str, open: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for part in text.split(open).skip(1) {
        let list = &part[..part.find(")]").unwrap_or(part.len())];
        out.extend(list.split(',').map(str::trim).filter(|l| !l.is_empty()).map(String::from));
    }
    out
}

/// `(name, attribute lines)` of every fn in `src`: the `#[…]` lines
/// (multi-line ones included) directly above it, doc comments skipped.
fn fns_with_attrs(src: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        let t = t.strip_prefix("pub(crate) ").or_else(|| t.strip_prefix("pub ")).unwrap_or(t);
        let Some(sig) = t.strip_prefix("fn ") else { continue };
        let name: String = sig.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let attrs: Vec<&str> = lines[..i]
            .iter()
            .rev()
            .map(|l| l.trim())
            .take_while(|l| ["#[", "///", "clippy::", ")]"].iter().any(|p| l.starts_with(p)))
            .filter(|l| !l.starts_with("///"))
            .collect();
        out.push((name, attrs.into_iter().rev().collect::<Vec<_>>().join("\n")));
    }
    out
}

fn missing<'a>(want: &[&'a str], have: &BTreeSet<String>) -> Vec<&'a str> {
    want.iter().copied().filter(|w| !have.contains(*w)).collect()
}

#[test]
fn clippy_toml_bans_every_path() {
    let toml = read("crates/clippy.toml");
    let types = listed(&toml, "disallowed-types");
    let methods = listed(&toml, "disallowed-methods");
    assert_eq!(missing(BANNED_TYPES, &types), Vec::<&str>::new(), "disallowed-types lost entries");
    assert_eq!(missing(BANNED_METHODS, &methods), Vec::<&str>::new(), "disallowed-methods lost entries");
}

#[test]
fn receive_path_files_and_fns_deny_panics() {
    for rel in RX_FILES {
        let have = denied(&read(rel), "#![deny(");
        assert_eq!(missing(RX_PANIC, &have), Vec::<&str>::new(), "{rel}: module-level deny lost lints");
    }
    for (rel, name) in RX_FNS {
        let fns = fns_with_attrs(&read(rel));
        let (_, attrs) =
            fns.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{rel}: no `fn {name}`"));
        let have = denied(attrs, "#[deny(");
        assert_eq!(missing(RX_PANIC, &have), Vec::<&str>::new(), "{rel}: `fn {name}` lost lints");
    }
}

#[test]
fn every_wire_decoder_denies_indexing() {
    let dir = root().join("crates/wire/src");
    let mut files: Vec<PathBuf> =
        fs::read_dir(&dir).expect("crates/wire/src").flatten().map(|e| e.path()).collect();
    files.sort();
    let mut checked = 0;
    for path in files.iter().filter(|p| p.extension().is_some_and(|e| e == "rs")) {
        let src = fs::read_to_string(path).expect("readable source");
        for (name, attrs) in fns_with_attrs(&src) {
            if !(name.starts_with("decode") || name.starts_with("parse")) {
                continue;
            }
            checked += 1;
            assert!(
                denied(&attrs, "#[deny(").contains("clippy::indexing_slicing"),
                "{}: `fn {name}` lost #[deny(clippy::indexing_slicing)]",
                path.display()
            );
        }
    }
    assert!(checked >= 10, "found only {checked} decode*/parse* fns — wrong directory?");
}

/// Every crate root states a reason for each `allow` and denies
/// `unsafe_code`, and no manifest declares a `[features]` table: the
/// workspace has no `unsafe` and no feature switch.
#[test]
fn every_crate_root_requires_a_reason_on_each_allow() {
    let crates = root().join("crates");
    let dirs: Vec<PathBuf> = fs::read_dir(&crates).expect("crates/").flatten().map(|e| e.path()).collect();
    let roots: Vec<PathBuf> = dirs.iter().map(|d| d.join("src/lib.rs")).filter(|p| p.exists()).collect();
    assert!(roots.len() >= 8, "found only {} crate roots", roots.len());
    for lib in roots {
        let src = fs::read_to_string(&lib).expect("readable source");
        let deny = denied(&src, "#![deny(");
        for lint in ["clippy::allow_attributes_without_reason", "unsafe_code"] {
            assert!(deny.contains(lint), "{}: lost #![deny({lint})]", lib.display());
        }
    }
    let manifests = dirs.iter().map(|d| d.join("Cargo.toml")).filter(|p| p.exists());
    for manifest in manifests.chain([root().join("Cargo.toml")]) {
        let toml = fs::read_to_string(&manifest).expect("readable manifest");
        assert!(
            !toml.lines().any(|l| l.trim() == "[features]"),
            "{}: declares [features]",
            manifest.display()
        );
    }
}

/// `TcpConfig` keeps its 17 fields: this pattern names each one and has
/// no `..`, so an 18th field does not compile (`error[E0027]: pattern
/// does not mention field`).
#[test]
fn tcp_config_has_seventeen_fields() {
    let foxtcp::TcpConfig {
        initial_window: _,
        compute_checksums: _,
        abort_unknown_connections: _,
        user_timeout_ms: _,
        send_buffer: _,
        delayed_ack_ms: _,
        ack_coalesce_segments: _,
        nagle: _,
        latency_priority: _,
        congestion_control: _,
        window_scale: _,
        sack: _,
        timestamps: _,
        time_wait_ms: _,
        max_retransmits: _,
        syn_retries: _,
        backlog: _,
    } = foxtcp::TcpConfig::default();
}

/// The records of the TCB, each `(owner, declaration)`: every field is
/// private to the one module that writes it.
const RECORDS: &[(&str, &str)] = &[
    ("crates/foxtcp/src/data/transfer.rs", "pub struct Negotiated {"),
    ("crates/foxtcp/src/data/transfer.rs", "pub struct RecvSide {"),
    ("crates/foxtcp/src/data/transfer.rs", "pub(crate) struct AckClock {"),
    ("crates/foxtcp/src/data/resend.rs", "pub struct SendSide {"),
];

/// The test hooks that place a connection where a rule would not let a
/// test put it, each `(file, fn)`: the state, the TCB's fixture (its
/// sequence space, window, MSS and agreed options), and the congestion
/// window.
const TEST_HOOKS: &[(&str, &str)] = &[
    ("crates/foxtcp/src/control/fsm.rs", "force"),
    ("crates/foxtcp/src/data/transfer.rs", "core"),
    ("crates/foxtcp/src/congestion.rs", "set_cwnd"),
];

/// The lines of the item declared by the line starting `decl` (after
/// indentation): the attribute lines directly above it, doc comments
/// skipped, then the declaration through its closing line.
fn item<'a>(src: &'a str, decl: &str) -> (Vec<&'a str>, Vec<&'a str>) {
    let lines: Vec<&str> = src.lines().collect();
    let at =
        lines.iter().position(|l| l.trim_start().starts_with(decl)).unwrap_or_else(|| panic!("no `{decl}`"));
    let attrs = lines[..at].iter().rev().take_while(|l| l.starts_with("#[") || l.starts_with("///")).copied();
    let end = if lines[at].trim_end().ends_with('{') {
        at + lines[at..].iter().position(|l| *l == "}").expect("item closes")
    } else {
        at
    };
    (attrs.filter(|l| l.starts_with("#[")).collect(), lines[at..=end].to_vec())
}

/// The field lines of the struct declared by the line starting `decl` in
/// `rel`, comments skipped.
fn fields(rel: &str, decl: &str) -> Vec<String> {
    let src = read(rel);
    let (_, body) = item(&src, decl);
    let fields: Vec<String> = body[1..body.len() - 1]
        .iter()
        .map(|l| l.trim())
        .filter(|l| !l.starts_with("//"))
        .map(String::from)
        .collect();
    assert!(!fields.is_empty(), "{rel}: `{decl}` has no fields");
    fields
}

/// Fails if the tuple struct declared `pub struct {name}(…)` in `rel`
/// has a `pub` field, derives or implements `Clone`/`Default` when
/// `forbid_clone` says so.
fn sealed_newtype(rel: &str, name: &str, forbid_clone: bool) {
    let src = read(rel);
    let (attrs, body) = item(&src, &format!("pub struct {name}("));
    let field = body[0].split_once('(').expect("tuple struct").1;
    assert!(!field.trim_start().starts_with("pub"), "{rel}: `{name}`'s field became visible: {}", body[0]);
    if forbid_clone {
        for t in ["Clone", "Default"] {
            assert!(!attrs.iter().any(|a| a.contains(t)), "{rel}: `{name}` derives `{t}`: {attrs:?}");
            assert!(!src.contains(&format!("impl {t} for {name}")), "{rel}: `{name}` implements `{t}`");
        }
    }
}

#[test]
fn the_sequence_space_is_written_only_by_the_data_path() {
    // Every field the TCB shows beyond its own module — the sequence
    // space and the records — is the data path's, but the congestion
    // state and the action queue.
    let rel = "crates/foxtcp/src/data/tcb.rs";
    for f in fields(rel, "pub struct Tcb {").iter().filter(|f| f.starts_with("pub")) {
        let crate_wide = ["pub(crate) cc:", "pub(crate) to_do:"].iter().any(|p| f.starts_with(p));
        assert!(
            f.starts_with("pub(in crate::data) ") || crate_wide,
            "{rel}: a `Tcb` field left the data path: {f}"
        );
    }
    // The seam that writes the windows must not be able to write
    // sequence space, so it stays outside `data`.
    assert!(root().join("crates/foxtcp/src/congestion.rs").exists(), "congestion.rs left the crate root");
    assert!(!root().join("crates/foxtcp/src/data/congestion.rs").exists(), "congestion.rs moved into data/");
}

#[test]
fn a_connections_state_is_sealed_in_fsm() {
    sealed_newtype("crates/foxtcp/src/control/fsm.rs", "State", true);
}

#[test]
fn the_congestion_windows_are_private_to_the_seam() {
    let fields = fields("crates/foxtcp/src/congestion.rs", "pub struct Cc {");
    assert!(fields.iter().all(|f| !f.starts_with("pub")), "a `Cc` field became visible: {fields:?}");
}

#[test]
fn each_record_of_the_tcb_is_private_to_its_owner() {
    for (rel, decl) in RECORDS {
        let fields = fields(rel, decl);
        assert!(fields.iter().all(|f| !f.starts_with("pub")), "{rel}: `{decl}` shows a field: {fields:?}");
    }
}

#[test]
fn the_tcb_has_no_pub_field() {
    let fields = fields("crates/foxtcp/src/data/tcb.rs", "pub struct Tcb {");
    let public: Vec<&String> = fields.iter().filter(|f| f.starts_with("pub ")).collect();
    assert!(public.is_empty(), "`Tcb` fields anyone may write: {public:?}");
}

#[test]
fn a_connections_tcb_is_not_pub() {
    let fields = fields("crates/foxtcp/src/lib.rs", "pub struct ConnCore {");
    let tcb = fields.iter().find(|f| f.contains("tcb: Tcb,")).expect("`ConnCore` holds a TCB");
    assert!(!tcb.starts_with("pub "), "`ConnCore::tcb` is `pub`: code outside the crate could replace it");
}

/// The TCP's inner modules, which work on a connection's core and never
/// address its peer: the lower layer's address type is the engine's.
const INNER_MODULES: &[&str] = &[
    "crates/foxtcp/src/lib.rs",
    "crates/foxtcp/src/action.rs",
    "crates/foxtcp/src/congestion.rs",
    "crates/foxtcp/src/control",
    "crates/foxtcp/src/data",
];

#[test]
fn the_inner_modules_name_no_lower_layer_type() {
    for (rel, decl) in [
        ("crates/foxtcp/src/lib.rs", "pub struct ConnCore {"),
        ("crates/foxtcp/src/data/tcb.rs", "pub struct Tcb {"),
        ("crates/foxtcp/src/action.rs", "pub enum TcpAction {"),
    ] {
        assert!(read(rel).lines().any(|l| l.starts_with(decl)), "{rel}: no `{decl}`");
    }
    let mut generic = Vec::new();
    for rel in INNER_MODULES {
        let path = root().join(rel);
        let files: Vec<PathBuf> = if path.is_dir() {
            fs::read_dir(&path).expect("readable directory").flatten().map(|e| e.path()).collect()
        } else {
            vec![path]
        };
        for file in files {
            let src = fs::read_to_string(&file).expect("readable source");
            let lines = src.lines().enumerate().filter(|(_, l)| l.contains("<P>") || l.contains("<P:"));
            generic.extend(lines.map(|(n, l)| format!("{}:{}: {}", file.display(), n + 1, l.trim())));
        }
    }
    assert!(generic.is_empty(), "the inner modules take the peer's type: {generic:#?}");
}

/// Every `.rs` file under `rel`, subdirectories included.
fn rust_files(rel: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![root().join(rel)];
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(&dir).expect("readable directory").flatten().map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Every layer above the device attaches below through
/// `foxproto::upcall::Below` (IP's two bindings through its `Inbox`), so
/// the quasi-synchronous rule — a handler registered below only enqueues
/// — is written once: no other file builds a receive queue.
#[test]
fn layers_attach_through_below() {
    let mut queues = Vec::new();
    for file in rust_files("crates/protocols/src").into_iter().chain(rust_files("crates/foxtcp/src")) {
        if file.ends_with("upcall.rs") {
            continue;
        }
        let src = fs::read_to_string(&file).expect("readable source");
        let lines = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("RefCell<Fifo") || l.contains("borrow_mut().add("));
        queues.extend(lines.map(|(n, l)| format!("{}:{}: {}", file.display(), n + 1, l.trim())));
    }
    assert!(queues.is_empty(), "a layer builds its own receive queue: {queues:#?}");
}

#[test]
fn a_header_window_is_made_only_by_wire_window() {
    sealed_newtype("crates/wire/src/tcp.rs", "WireWindow", false);
}

#[test]
fn every_test_hook_is_test_only() {
    for (rel, name) in TEST_HOOKS {
        let src = read(rel);
        let lines: Vec<&str> = src.lines().collect();
        let at = lines
            .iter()
            .position(|l| {
                ['(', '<'].iter().any(|c| l.trim_start().starts_with(&format!("pub(crate) fn {name}{c}")))
            })
            .unwrap_or_else(|| panic!("{rel}: no `pub(crate) fn {name}`"));
        let imp = lines[..at].iter().rposition(|l| l.starts_with("impl")).expect("hook inside an impl");
        assert_eq!(lines[imp - 1], "#[cfg(test)]", "{rel}: `{name}`'s impl is not `#[cfg(test)]`");
    }
}

/// `simnet::drive` is the one place that decides how hosts and frames
/// take turns: every run that waits until quiet goes through
/// `simnet::settle`, every ticked run through `simnet::drive`, and no
/// other code asks a medium when its next frame is due, or gives up on a
/// run that will not settle (a round cap of its own is a settle loop of
/// its own). xktcp's test module keeps its own settle loop, because the
/// monolith is the control. foxperf's `ladder.rs` keeps a loop of its own: `foxperf/` is a
/// separate package that compiles against the workspace, outside what
/// this file reads.
#[test]
fn one_discrete_event_loop() {
    let call = format!(".{}(", "next_delivery");
    let (give_up, why) = (format!("{}!(", "panic"), format!("did not {}", "settle"));
    let loop_home = root().join("crates/simnet/src");
    let control = root().join("crates/xktcp/src/lib.rs");
    let mut loops = Vec::new();
    for file in ["crates", "tests", "examples"].into_iter().flat_map(rust_files) {
        if file.starts_with(&loop_home) {
            continue;
        }
        let src = fs::read_to_string(&file).expect("readable source");
        let exempt_from = if file == control { src.lines().position(|l| l == "mod tests {") } else { None };
        let capped = |n: usize, l: &str| {
            n < exempt_from.unwrap_or(usize::MAX) && l.contains(&give_up) && l.contains(&why)
        };
        let lines = src.lines().enumerate().filter(|&(n, l)| l.contains(&call) || capped(n, l));
        loops.extend(lines.map(|(n, l)| format!("{}:{}: {}", file.display(), n + 1, l.trim())));
    }
    assert!(loops.is_empty(), "a stepping loop outside simnet::drive: {loops:#?}");
}

/// Both stacks are driven through one interface,
/// `foxharness::station::Station`: the workloads, the tables and the
/// RFC 793 conformance suite alike. No other trait may declare both a
/// `listen` and a `step` — a second driver face over the same stacks.
/// foxperf, outside what this file reads, implements `Station` rather
/// than declaring a face of its own.
#[test]
fn one_driver_interface() {
    let (listen, step) = (format!("fn {}(", "listen"), format!("fn {}(", "step"));
    let home = root().join("crates/harness/src/station.rs");
    let is_trait = |l: &&str| l.split_whitespace().find(|w| !w.starts_with("pub")) == Some("trait");
    let mut faces = Vec::new();
    for file in ["crates", "tests", "examples"].into_iter().flat_map(rust_files) {
        if file == home {
            continue;
        }
        let src = fs::read_to_string(&file).expect("readable source");
        for decl in src.lines().map(str::trim_start).filter(is_trait) {
            let (_, body) = item(&src, decl);
            if body.iter().any(|l| l.contains(&listen)) && body.iter().any(|l| l.contains(&step)) {
                faces.push(format!("{}: {}", file.display(), decl.trim_end_matches(" {")));
            }
        }
    }
    assert!(faces.is_empty(), "a driver interface besides Station: {faces:#?}");
}

/// Nothing under `crates/` reads the wall clock, so `determinism`'s
/// banned types take no exception: wall-clock timing is foxperf's and
/// the vendored Criterion's.
#[test]
fn the_determinism_lint_has_no_exception() {
    let lint = format!("clippy::{}", "disallowed_types");
    let mut exceptions = Vec::new();
    for file in rust_files("crates") {
        let src = fs::read_to_string(&file).expect("readable source");
        let lines = src.lines().enumerate().filter(|(_, l)| l.contains(&lint));
        exceptions.extend(lines.map(|(n, l)| format!("{}:{}: {}", file.display(), n + 1, l.trim())));
    }
    assert!(exceptions.is_empty(), "an exception to the determinism lint: {exceptions:#?}");
}

/// `hash_iter` by construction: `foxbasis::flat` offers no way to walk
/// its entries, so its hash layout can never become an order anyone
/// observes. Lookups by key are all it answers.
#[test]
fn the_flat_index_cannot_be_iterated() {
    let src = read("crates/foxbasis/src/flat.rs");
    let walks = ["iter", "keys", "values", "drain", "retain"].map(|f| format!("fn {f}"));
    let impls = ["impl Iterator", "impl IntoIterator", " Iterator for ", " IntoIterator for "];
    let found: Vec<String> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| walks.iter().any(|w| l.contains(w.as_str())) || impls.iter().any(|i| l.contains(i)))
        .map(|(n, l)| format!("flat.rs:{}: {}", n + 1, l.trim()))
        .collect();
    assert!(found.is_empty(), "the flat index can be iterated: {found:#?}");
}

/// A manifest declares only the crates its package's code names: every
/// `[dependencies]` and `[dev-dependencies]` entry of each
/// `crates/*/Cargo.toml` and of the root manifest is named as `name::`,
/// `use name` or `extern crate name` (`-` spelled `_`) by some `.rs`
/// file under that package's `src/`, `tests/`, `benches/` or
/// `examples/`. An entry nothing names is a build edge nothing reads.
#[test]
fn every_declared_dependency_is_named_by_its_crate() {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let names = |src: &str, krate: &str| {
        src.match_indices(krate).any(|(at, _)| {
            let (before, after) = (&src[..at], &src[at + krate.len()..]);
            !before.ends_with(ident)
                && !after.starts_with(ident)
                && (after.starts_with("::") || before.ends_with("use ") || before.ends_with("extern crate "))
        })
    };
    let mut packages: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .flatten()
        .map(|e| e.path())
        .filter(|d| d.join("Cargo.toml").exists())
        .collect();
    packages.sort();
    packages.push(root());
    let mut unnamed = Vec::new();
    for package in packages {
        let rel = package.strip_prefix(root()).expect("inside the repo").to_path_buf();
        let sources: Vec<String> = ["src", "tests", "benches", "examples"]
            .iter()
            .map(|d| rel.join(d))
            .filter(|d| root().join(d).is_dir())
            .flat_map(|d| rust_files(d.to_str().expect("utf-8 path")))
            .map(|f| fs::read_to_string(&f).expect("readable source"))
            .collect();
        let manifest = fs::read_to_string(package.join("Cargo.toml")).expect("readable manifest");
        let mut section = "";
        for line in manifest.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            if line.starts_with('[') {
                section = line;
            } else if matches!(section, "[dependencies]" | "[dev-dependencies]") {
                let name = &line[..line.find(['.', ' ', '=']).unwrap_or(line.len())];
                if !sources.iter().any(|src| names(src, &name.replace('-', "_"))) {
                    unnamed.push(format!("{}: {section} {name}", rel.join("Cargo.toml").display()));
                }
            }
        }
    }
    assert!(unnamed.is_empty(), "a declared dependency its crate never names: {unnamed:#?}");
}
