//! `foxlint` CLI: checks the workspace for `field_owner` and `win_cast`
//! violations; any violation fails.
//!
//! ```text
//! cargo run -p foxlint -- --check              # default mode
//! cargo run -p foxlint -- --list               # describe the two lints
//! cargo run -p foxlint -- --root DIR           # lint the workspace at DIR
//! ```
//!
//! Exit status 0 means every workspace file was linted and none has a
//! violation; anything else is 1, with every offending site printed as
//! `file:line: lint: message`. A root with no Rust files under `src/`
//! or `crates/*/src/` is an error, not a clean run.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {}
            "--list" => list = true,
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage("--root needs a directory"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if list {
        for (name, desc) in foxlint::LINTS {
            println!("{name}: {desc}");
        }
        println!(
            "(determinism, hash_iter, rx_panic and shard_global are clippy's: \
             crates/clippy.toml and deny attributes, DESIGN.md §5.8)"
        );
        return ExitCode::SUCCESS;
    }

    let outcome = foxlint::check_root(&root);
    if outcome.files == 0 {
        eprintln!("foxlint: no Rust files under {}", root.display());
        return ExitCode::FAILURE;
    }
    for v in &outcome.violations {
        eprintln!("{v}");
    }
    println!("foxlint: {} files checked, {} violation(s)", outcome.files, outcome.violations.len());
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("foxlint: {err}\nusage: foxlint [--check] [--list] [--root DIR]");
    ExitCode::FAILURE
}
