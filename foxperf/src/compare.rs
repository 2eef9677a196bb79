//! `foxperf compare A.json B.json`: two result sets, metric by metric.
//!
//! An exact metric must be *equal* when both sets ran the same seed —
//! that is what "exact" means, and it is how a simulator speed-up shows
//! it left the simulated machine alone. Everything else is held to its
//! bound (`metrics::END_TO_END`, which a test keeps equal to
//! `BENCHMARK.json`), in either direction: run to run
//! on one commit (the repeatability check) a large swing is a
//! disagreement whichever way it points. Per-layer metrics have no
//! bound; they are printed side by side and never fail the comparison.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;

struct Figure {
    value: f64,
    q1: f64,
    q3: f64,
}

fn figure(entry: &Value, group: &str, name: &str) -> Option<Figure> {
    let m = entry.get(group)?.get(name)?;
    let field = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Figure { value: field("value")?, q1: field("q1")?, q3: field("q3")? })
}

fn cell(f: &Figure) -> String {
    if f.q1 == f.q3 {
        format!("{:.6}", f.value)
    } else {
        format!("{:.6} [{:.6}, {:.6}]", f.value, f.q1, f.q3)
    }
}

/// Compares two parsed sets; returns the table and whether they agree.
pub fn compare_sets(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    let mut compared = 0;
    let _ = writeln!(
        out,
        "{:<10} {:<30} {:>44} {:>44} {:>9} {:>6}  verdict",
        "workload", "metric", "A: value [q1, q3]", "B: value [q1, q3]", "B vs A", "bound"
    );
    for w in Workload::ALL {
        let entries = (
            a.get("workloads").and_then(|ws| ws.get(w.name())),
            b.get("workloads").and_then(|ws| ws.get(w.name())),
        );
        let (ea, eb) = match entries {
            (Some(ea), Some(eb)) => (ea, eb),
            (None, None) => continue,
            _ => {
                let _ = writeln!(out, "{:<10} present in only one set", w.name());
                agree = false;
                continue;
            }
        };
        let same_seed = ["seed", "smoke"].iter().all(|k| ea.get(k) == eb.get(k));
        for (group, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            for def in defs {
                let (Some(fa), Some(fb)) = (figure(ea, group, def.name), figure(eb, group, def.name)) else {
                    continue;
                };
                compared += 1;
                let change = if fa.value == 0.0 { 0.0 } else { (fb.value - fa.value) / fa.value.abs() };
                let (limit, verdict) = if group == "per_layer" {
                    ("-".to_string(), "-")
                } else if def.exact && same_seed {
                    ("==".to_string(), if fa.value == fb.value { "ok" } else { "DIFFERS" })
                } else {
                    let within = if fa.value == 0.0 { fb.value == 0.0 } else { change.abs() <= def.bound };
                    let worse = (change > 0.0) == (def.better == Better::Lower);
                    let verdict = match (within, worse) {
                        (true, _) => "ok",
                        (false, true) => "WORSE",
                        (false, false) => "BETTER",
                    };
                    (format!("{:.0}%", def.bound * 100.0), verdict)
                };
                agree &= matches!(verdict, "ok" | "-");
                let _ = writeln!(
                    out,
                    "{:<10} {:<30} {:>44} {:>44} {:>+8.2}% {:>6}  {verdict}",
                    w.name(),
                    def.name,
                    cell(&fa),
                    cell(&fb),
                    change * 100.0,
                    limit
                );
            }
        }
        for (set, e) in [("A", ea), ("B", eb)] {
            let failed = |pass: &str| e.get(pass).and_then(Value::as_f64).unwrap_or(0.0);
            if failed("failed_timed") + failed("failed_traced") > 0.0 {
                let _ = writeln!(out, "{:<10} set {set} recorded failed operations", w.name());
                agree = false;
            }
        }
    }
    if compared == 0 {
        let _ = writeln!(out, "the two sets have no workload and metric in common");
        agree = false;
    }
    let _ = writeln!(out, "{}", if agree { "the sets agree" } else { "the sets DISAGREE" });
    (out, agree)
}

/// The command: prints the table, returns the exit code.
pub fn compare_files(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, agree) = compare_sets(&a, &b);
            print!("{table}");
            i32::from(!agree)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("foxperf: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(seed: u64, ops_per_s: f64, allocs: f64) -> Value {
        let text = format!(
            r#"{{"schema": "foxperf-v1", "workloads": {{"rr": {{"seed": "{seed}", "smoke": false, "failed_timed": 0,
                "end_to_end": {{
                  "ops_per_s": {{"value": {ops_per_s}, "q1": {ops_per_s}, "q3": {ops_per_s}, "n": 7}},
                  "allocs_per_op": {{"value": {allocs}, "q1": {allocs}, "q3": {allocs}, "n": 7}}}}}}}}}}"#
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn exact_metrics_need_equality_at_one_seed_and_a_bound_across_seeds() {
        let base = set(1, 100_000.0, 55.74);
        assert!(compare_sets(&base, &set(1, 103_000.0, 55.74)).1, "3% is inside 25%");
        let (table, agree) = compare_sets(&base, &set(1, 100_000.0, 55.75));
        assert!(!agree && table.contains("DIFFERS"), "{table}");
        assert!(compare_sets(&base, &set(2, 100_000.0, 55.75)).1, "another seed: bounded, not exact");
        let (table, agree) = compare_sets(&base, &set(1, 70_000.0, 55.74));
        assert!(!agree && table.contains("WORSE"), "{table}");
        let (table, agree) = compare_sets(&base, &set(1, 130_000.0, 55.74));
        assert!(!agree && table.contains("BETTER"), "{table}");
        assert!(!compare_sets(&base, &json::parse("{}").unwrap()).1, "nothing in common");
    }
}
