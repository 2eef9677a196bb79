//! What a run prints and what it leaves in a result file.
//!
//! A result file holds one *set*: an `env` block and one entry per
//! workload, each with its `end_to_end` and (after a traced run)
//! `per_layer` metrics. Running the five workloads with the same `--out`
//! fills the set in; `foxperf compare` reads two of them.

use crate::json::{self, Value};
use crate::metrics::Stat;
use crate::run::{RunArgs, RunResult};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag of a result file.
pub const SCHEMA: &str = "foxperf-v1";

/// The human-readable report of one run.
pub fn render(args: &RunArgs, r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "foxperf {} --seed {} ({}{})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced pass: per-layer metrics" } else { "timed pass: end-to-end metrics" },
        if args.smoke { ", smoke scale" } else { "" }
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>16} {:<11} {:<6} {:>6}  {:>14} {:>14} {:>3}",
        "metric", "value", "unit", "better", "bound", "q1", "q3", "n"
    );
    for (def, s) in &r.measured.metrics {
        let bound = match (args.trace, def.exact) {
            (true, _) => "-".to_string(),
            (false, true) => "exact".to_string(),
            (false, false) => format!("{:.0}%", def.bound * 100.0),
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<11} {:<6} {:>6}  {:>14} {:>14} {:>3}",
            def.name,
            short(s.value),
            def.unit,
            def.better.name(),
            bound,
            short(s.q1),
            short(s.q3),
            s.n
        );
    }
    for note in &r.measured.notes {
        let _ = writeln!(out, "  {note}");
    }
    let _ = writeln!(out, "  host: {}", crate::env::describe().render());
    if r.failed == 0 {
        let _ = writeln!(
            out,
            "  checks: all {} operations delivered byte-exactly, every rep repeatable",
            r.attempted
        );
    } else {
        let _ = writeln!(out, "  FAILED: {} of {} operations", r.failed, r.attempted);
        for f in &r.failures {
            let _ = writeln!(out, "    {f}");
        }
    }
    out
}

/// Six significant digits, for the table only (files and the result
/// line keep every digit).
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

fn stat_json(def: &crate::metrics::Def, s: &Stat, with_bound: bool) -> Value {
    let mut v = Value::object();
    v.set("value", Value::Num(s.value));
    v.set("q1", Value::Num(s.q1));
    v.set("q3", Value::Num(s.q3));
    v.set("n", Value::Num(s.n as f64));
    v.set("unit", Value::Str(def.unit.into()));
    v.set("better", Value::Str(def.better.name().into()));
    if with_bound {
        v.set("bound", Value::Num(def.bound));
        v.set("exact", Value::Bool(def.exact));
    }
    v
}

/// Merges this run into `set` (an empty object to start one): the
/// workload's entry keeps whatever the other kind of pass wrote.
pub fn merge(mut set: Value, args: &RunArgs, r: &RunResult) -> Result<Value, String> {
    if set.get("schema").is_some_and(|s| s.as_str() != Some(SCHEMA)) {
        return Err(format!("not a {SCHEMA} file"));
    }
    set.set("schema", Value::Str(SCHEMA.into()));
    set.set("env", crate::env::describe());
    let mut workloads = set.get("workloads").cloned().unwrap_or_else(Value::object);
    let name = args.workload.name();
    let mut entry = workloads.get(name).cloned().unwrap_or_else(Value::object);
    // A set is one seed and one scale per workload: a run at another
    // seed starts the entry over rather than mixing the two.
    // The seed is kept as a string: a u64 does not fit a JSON number.
    let seed = Value::Str(args.seed.to_string());
    let same_run = entry.get("seed") == Some(&seed) && entry.get("smoke") == Some(&Value::Bool(args.smoke));
    if !same_run {
        entry = Value::object();
    }
    entry.set("seed", seed);
    entry.set("smoke", Value::Bool(args.smoke));
    let mut metrics = Value::object();
    for (def, s) in &r.measured.metrics {
        metrics.set(def.name, stat_json(def, s, !args.trace));
    }
    if args.trace {
        entry.set("per_layer", metrics);
    } else {
        entry.set("end_to_end", metrics);
        entry.set("rep_wall_s", Value::Arr(r.measured.rep_wall_s.iter().map(|&s| Value::Num(s)).collect()));
        let mut exact = Value::object();
        for (k, v) in r.measured.exact.fields() {
            exact.set(k, Value::Num(v as f64));
        }
        entry.set("rep_counters", exact);
    }
    entry.set(if args.trace { "failed_traced" } else { "failed_timed" }, Value::Num(r.failed as f64));
    workloads.set(name, entry);
    set.set("workloads", workloads);
    Ok(set)
}

/// Creates the result file at `path`, or merges this run into the set it
/// already holds.
pub fn merge_into(path: &Path, args: &RunArgs, r: &RunResult) -> Result<(), String> {
    let set = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::object(),
        Err(e) => return Err(e.to_string()),
    };
    let merged = merge(set, args, r)?;
    std::fs::write(path, merged.render_pretty(4)).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::short;

    #[test]
    fn short_keeps_six_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(45230.123), "45230.1");
        assert_eq!(short(1.5), "1.50000");
        assert_eq!(short(20.4412), "20.4412");
        assert_eq!(short(123_456_789.0), "1.23457e8");
    }
}
