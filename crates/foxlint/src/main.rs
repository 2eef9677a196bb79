//! `foxlint` CLI: lints the workspace and ratchets against the
//! checked-in baseline.
//!
//! ```text
//! cargo run -p foxlint -- --check              # default mode
//! cargo run -p foxlint -- --update-baseline    # re-bless current counts
//! cargo run -p foxlint -- --list               # describe the lints
//! cargo run -p foxlint -- --format json        # machine-readable findings
//! ```
//!
//! Exit status 0 means no new violations and no stale baseline entries;
//! anything else is 1, with every offending site printed as
//! `file:line: lint: message` (or as JSON records with `--format json`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut list = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {}
            "--update-baseline" => update = true,
            "--list" => list = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage("--format needs `text` or `json`"),
            },
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline needs a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if list {
        for (name, desc) in foxlint::LINTS {
            println!("{name}: {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("foxlint.baseline"));

    let outcome = foxlint::check_root(&root);
    let current = foxlint::count(&outcome.violations);

    if update {
        if let Err(e) = std::fs::write(&baseline_path, foxlint::render_baseline(&current)) {
            eprintln!("foxlint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "foxlint: baseline updated: {} entr{} ({} violation(s) across {} files)",
            current.len(),
            if current.len() == 1 { "y" } else { "ies" },
            outcome.violations.len(),
            outcome.files,
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match foxlint::load_baseline(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("foxlint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let drift = foxlint::compare(&current, &baseline);

    if json {
        // Machine-readable findings: every current violation, whether
        // baselined or new — consumers apply their own policy.
        print!("{}", foxlint::render_json(&outcome.violations));
    }

    let mut new = 0usize;
    for (lint, path, cur, base) in &drift.grown {
        new += cur - base;
        // Print the actual sites for the grown group, not just counts.
        for v in outcome.violations.iter().filter(|v| v.lint == *lint && v.path == *path) {
            eprintln!("{v}");
        }
        if *base > 0 {
            eprintln!("  note: {lint}:{path} had {base} baselined violation(s); now {cur}",);
        }
    }
    for (lint, path, cur, base) in &drift.stale {
        eprintln!(
            "stale baseline entry: {lint}\t{path}\t{base} (now {cur}) — \
             run `cargo run -p foxlint -- --update-baseline`",
        );
    }
    println!(
        "foxlint: {} files checked, {} allowed, {} new violation(s), {} stale baseline entr{}",
        outcome.files,
        outcome.allowed,
        new,
        drift.stale.len(),
        if drift.stale.len() == 1 { "y" } else { "ies" },
    );
    if drift.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "foxlint: {err}\n\
         usage: foxlint [--check] [--update-baseline] [--list] [--format text|json]\n\
         \x20              [--root DIR] [--baseline FILE]"
    );
    ExitCode::FAILURE
}
