//! The gate, enforced from the test suite too: the real workspace has
//! no violation, and the CLI does not mistake "found nothing to lint"
//! for "found nothing wrong". `ci.sh` runs the same check via
//! `cargo run -p foxlint -- --check`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn workspace_has_no_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = foxlint::check_root(&root);
    assert!(outcome.files > 50, "walk found only {} files — wrong root?", outcome.files);
    assert!(
        outcome.violations.is_empty(),
        "violations:\n{}",
        outcome.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// `--check --root <dir with no crates/>` used to lint 0 files and
/// exit 0.
#[test]
fn cli_refuses_a_root_with_nothing_to_lint() {
    let empty = std::env::temp_dir().join(format!("foxlint-empty-root-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_foxlint")).arg("--check").arg("--root").arg(&empty).output();
    std::fs::remove_dir(&empty).ok();
    let out = out.expect("run foxlint");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no Rust files under"), "{stderr}");
}
