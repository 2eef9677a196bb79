//! The `tables` binary's command line, driven as a process: a name the
//! registry does not hold — a typo, or a subcommand that no longer
//! exists — is refused with exit status 2 before anything runs.

use std::process::Command;

#[test]
fn an_unknown_item_exits_2_and_runs_nothing() {
    for arg in ["nosuch", "bench-json", "bench-check"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tables")).arg(arg).output().expect("tables runs");
        assert_eq!(out.status.code(), Some(2), "`tables {arg}`");
        assert!(out.stdout.is_empty(), "`tables {arg}` printed a table");
        let complaint = String::from_utf8_lossy(&out.stderr);
        assert!(complaint.starts_with(&format!("unknown item `{arg}`; items: table1 ")), "{complaint}");
    }
}
