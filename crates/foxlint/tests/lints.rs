//! Fixture corpus: one fire / no-fire pair per lint, plus the allow
//! escape hatch and the `#[cfg(test)]` exemption. Each fixture is
//! linted under a synthetic workspace-relative path that puts it in the
//! lint's scope.

use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Lints a fixture as if it lived at `rel` in the workspace.
fn run(name: &str, rel: &str) -> (Vec<foxlint::Violation>, usize) {
    foxlint::lint_source(rel, &fixture(name))
}

fn lints_of(vs: &[foxlint::Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.lint).collect()
}

#[test]
fn determinism_fires_on_ambient_time_and_randomness() {
    let (vs, _) = run("determinism_fire.rs", "crates/harness/src/fixture.rs");
    assert_eq!(vs.len(), 6, "{vs:?}");
    assert!(vs.iter().all(|v| v.lint == "determinism"), "{vs:?}");
    // The `use` line and each call site are reported individually.
    let lines: Vec<usize> = vs.iter().map(|v| v.line).collect();
    assert_eq!(lines, {
        let mut l = lines.clone();
        l.sort();
        l
    });
}

#[test]
fn determinism_is_silent_on_virtual_clock_and_in_bench() {
    let (vs, _) = run("determinism_clean.rs", "crates/harness/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    // The same ambient-time fixture is fine inside crates/bench.
    let (vs, _) = run("determinism_fire.rs", "crates/bench/src/fixture.rs");
    assert!(vs.is_empty(), "bench is exempt: {vs:?}");
}

#[test]
fn hash_iter_fires_on_types_and_iteration() {
    let (vs, _) = run("hash_iter_fire.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.iter().all(|v| v.lint == "hash_iter"), "{vs:?}");
    // Two type mentions (use + field) and one iteration call.
    assert_eq!(vs.len(), 3, "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("iteration")), "{vs:?}");
}

#[test]
fn hash_iter_is_silent_on_btree_and_out_of_scope_crates() {
    let (vs, _) = run("hash_iter_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    // The wire crate is not trace-affecting: hash containers allowed.
    let (vs, _) = run("hash_iter_fire.rs", "crates/wire/src/fixture.rs");
    assert!(vs.is_empty(), "wire is out of hash_iter scope: {vs:?}");
}

#[test]
fn rx_panic_fires_in_wire_decoders() {
    let (vs, _) = run("rx_panic_fire.rs", "crates/wire/src/fixture.rs");
    assert_eq!(lints_of(&vs), vec!["rx_panic"; 4], "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("indexing")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("unwrap")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("unreachable")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("expect")), "{vs:?}");
}

#[test]
fn rx_panic_is_silent_on_total_decoders_and_outside_scope() {
    let (vs, _) = run("rx_panic_clean.rs", "crates/wire/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    // The same panicky fixture is out of scope in, say, the scheduler.
    let (vs, _) = run("rx_panic_fire.rs", "crates/scheduler/src/fixture.rs");
    assert!(vs.is_empty(), "scheduler is out of rx_panic scope: {vs:?}");
}

#[test]
fn rx_panic_scopes_engine_files_by_function() {
    // In engine.rs only `internalize` is the rx path: a panic inside it
    // fires, the same panic in another fn does not.
    let src = "
        impl Engine {
            fn internalize(&mut self, buf: &[u8]) {
                let _ = buf.first().unwrap();
            }
            fn open(&mut self) {
                let _ = self.conns.first().unwrap();
            }
        }
    ";
    let (vs, _) = foxlint::lint_source("crates/foxtcp/src/engine.rs", src);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].lint, "rx_panic");
    let (toks_line, _) = (vs[0].line, ());
    assert_eq!(toks_line, 4, "violation should be inside internalize: {vs:?}");
}

/// The fields a `field_owner` violation names, in report order.
fn owned_fields(vs: &[foxlint::Violation]) -> Vec<&str> {
    assert!(vs.iter().all(|v| v.lint == "field_owner"), "{vs:?}");
    vs.iter().map(|v| v.message.split('`').nth(1).expect("field name")).collect()
}

#[test]
fn field_owner_fires_outside_each_fields_owner() {
    let fired = |rel: &str| {
        let (vs, _) = run("field_owner_fire.rs", rel);
        owned_fields(&vs).into_iter().map(String::from).collect::<Vec<_>>()
    };
    // In the engine root nobody's fields may be assigned: all four
    // writes fire, each exactly once.
    assert_eq!(fired("crates/foxtcp/src/engine.rs"), ["state", "snd_nxt", "cwnd", "ssthresh"]);
    // The state write is legal in exactly one file, `transition`'s; the
    // rest of control/ goes through it like everyone else. The data
    // path's fields are control's nowhere.
    assert_eq!(fired("crates/foxtcp/src/control/fsm.rs"), ["snd_nxt", "cwnd", "ssthresh"]);
    assert_eq!(fired("crates/foxtcp/src/control/segment.rs"), ["state", "snd_nxt", "cwnd", "ssthresh"]);
    assert_eq!(fired("crates/foxtcp/src/control/state.rs"), ["state", "snd_nxt", "cwnd", "ssthresh"]);
    // Inside a data-path module the sequence-space write is fine, but a
    // state transition is control's and the congestion writes still
    // belong to congestion.rs.
    assert_eq!(fired("crates/foxtcp/src/data/send.rs"), ["state", "cwnd", "ssthresh"]);
    assert_eq!(fired("crates/foxtcp/src/data/resend.rs"), ["state", "cwnd", "ssthresh"]);
    // congestion.rs may write the windows but — though it sits under
    // data/ — not sequence space; the TCB's own methods the reverse.
    assert_eq!(fired("crates/foxtcp/src/data/congestion.rs"), ["state", "snd_nxt"]);
    assert_eq!(fired("crates/foxtcp/src/tcb.rs"), ["state", "cwnd", "ssthresh"]);
    // The state rule is foxtcp-internal: the monolithic baseline (which
    // also owns its own sequence space) and the harness assign `state`
    // freely; the other rules span every trace-affecting crate.
    assert_eq!(fired("crates/xktcp/src/lib.rs"), ["cwnd", "ssthresh"]);
    assert_eq!(fired("crates/harness/src/fixture.rs"), ["snd_nxt", "cwnd", "ssthresh"]);
    // Non-trace crates are out of scope altogether.
    assert!(fired("crates/bench/src/fixture.rs").is_empty());

    let (vs, _) = run("field_owner_fire.rs", "crates/foxtcp/src/data/transfer.rs");
    assert!(vs[0].message.contains("state transition"), "{vs:?}");
}

#[test]
fn field_owner_is_silent_on_reads() {
    let (vs, _) = run("field_owner_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    let (vs, _) = run("field_owner_clean.rs", "crates/harness/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn allow_directive_suppresses_and_bad_directives_fail() {
    let (vs, allowed) = run("allow_escape.rs", "crates/foxtcp/src/fixture.rs");
    assert_eq!(allowed, 2, "both HashMap mentions suppressed: {vs:?}");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].lint, "directive");
    assert!(vs[0].message.contains("unknown lint"), "{vs:?}");
}

#[test]
fn cfg_test_regions_are_exempt() {
    let (vs, _) = run("test_mod_exempt.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn byte_strings_do_not_leak_lint_tokens() {
    let (vs, _) = run("byte_str_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn byte_string_continuations_keep_line_numbers() {
    // The fire fixture's byte strings use `\`-newline continuations;
    // the banned ident after them must be reported at its true line.
    let (vs, _) = run("byte_str_fire.rs", "crates/foxtcp/src/fixture.rs");
    assert_eq!(lints_of(&vs), vec!["determinism"], "{vs:?}");
    assert_eq!(vs[0].line, 18, "line drift across string continuations: {vs:?}");
}

#[test]
fn shard_global_fires_on_static_mut_and_thread_local() {
    let (vs, _) = run("shard_global_fire.rs", "crates/foxtcp/src/fixture.rs");
    assert_eq!(lints_of(&vs), vec!["shard_global", "shard_global"], "{vs:?}");
    assert!(vs[0].message.contains("static mut"), "{vs:?}");
    assert!(vs[1].message.contains("thread_local"), "{vs:?}");
}

#[test]
fn shard_global_is_silent_on_engine_state_and_allowed_diagnostics() {
    let (vs, allowed) = run("shard_global_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(allowed, 1, "the justified thread_local is suppressed");
    // Out of scope: a non-trace crate may keep globals.
    let (vs, _) = run("shard_global_fire.rs", "crates/bench/src/fixture.rs");
    assert!(vs.is_empty(), "bench is not trace-affecting: {vs:?}");
}
