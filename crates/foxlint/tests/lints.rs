//! Fixture corpus: a fire / no-fire pair for `field_owner`, the
//! `#[cfg(test)]` exemption and the lexer's byte strings. Each fixture
//! is linted under a synthetic workspace-relative path that puts it in
//! the lint's scope. `win_cast`'s cases are unit tests in `src/lib.rs`.

use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Lints a fixture as if it lived at `rel` in the workspace.
fn run(name: &str, rel: &str) -> Vec<foxlint::Violation> {
    foxlint::lint_source(rel, &fixture(name))
}

/// The fields a `field_owner` violation names, in report order.
fn owned_fields(vs: &[foxlint::Violation]) -> Vec<&str> {
    assert!(vs.iter().all(|v| v.lint == "field_owner"), "{vs:?}");
    vs.iter().map(|v| v.message.split('`').nth(1).expect("field name")).collect()
}

#[test]
fn field_owner_fires_outside_each_fields_owner() {
    let fired = |rel: &str| {
        let vs = run("field_owner_fire.rs", rel);
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

    let vs = run("field_owner_fire.rs", "crates/foxtcp/src/data/transfer.rs");
    assert!(vs[0].message.contains("state transition"), "{vs:?}");
}

#[test]
fn field_owner_is_silent_on_reads() {
    let vs = run("field_owner_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
    let vs = run("field_owner_clean.rs", "crates/harness/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn cfg_test_regions_are_exempt() {
    let vs = run("test_mod_exempt.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn byte_strings_do_not_leak_lint_tokens() {
    let vs = run("byte_str_clean.rs", "crates/foxtcp/src/fixture.rs");
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn byte_string_continuations_keep_line_numbers() {
    // The fire fixture's byte strings use `\`-newline continuations;
    // the field write after them must be reported at its true line.
    let vs = run("byte_str_fire.rs", "crates/foxtcp/src/fixture.rs");
    assert_eq!(owned_fields(&vs), ["cwnd"], "{vs:?}");
    assert_eq!(vs[0].line, 18, "line drift across string continuations: {vs:?}");
}
