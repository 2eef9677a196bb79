//! `foxperf` — the repository's benchmark.
//!
//! ```text
//! foxperf run --workload <bulk|bulk-loss|rr|churn|fanin> --seed <u64>
//!             [--seconds <n>] [--trace <0|1>]
//!             [--out <file>] [--trace-out <file>] [--smoke]
//! foxperf compare <A.json> <B.json>
//! ```
//!
//! `run` is one process, one thread of load, one workload, closed loop.
//! It reports on two clocks — host wall time (how fast the Rust runs)
//! and virtual time (what the simulated machine achieved, exact for a
//! seed) — checks every rep, prints a table, and ends its standard
//! output with one JSON line. See the README next to this package.

mod alloc;
mod compare;
mod counters;
mod env;
mod json;
mod ladder;
mod metrics;
mod payload;
mod report;
mod run;
mod station;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use run::RunArgs;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  foxperf run --workload <bulk|bulk-loss|rr|churn|fanin> --seed <u64>
              [--seconds <n>] [--trace <0|1>]
              [--out <file>] [--trace-out <file>] [--smoke]
  foxperf compare <A.json> <B.json>";

fn usage(problem: &str) -> ! {
    eprintln!("foxperf: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// Removes `--name value` from `args` and returns the value.
fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        usage(&format!("{name} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn parse_run(mut args: Vec<String>) -> RunArgs {
    let workload = take_value(&mut args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::parse(&workload).unwrap_or_else(|| usage(&format!("unknown workload {workload:?}")));
    let seed = take_value(&mut args, "--seed").unwrap_or_else(|| usage("--seed is required"));
    let seed = seed.parse::<u64>().unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds = take_value(&mut args, "--seconds").map_or(10.0, |s| {
        s.parse::<f64>()
            .ok()
            .filter(|s| (0.0..=120.0).contains(s))
            .unwrap_or_else(|| usage("--seconds takes 0..=120"))
    });
    let trace = match take_value(&mut args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace takes 0 or 1"),
    };
    let run = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke: take_flag(&mut args, "--smoke"),
        out: take_value(&mut args, "--out").map(PathBuf::from),
        trace_out: take_value(&mut args, "--trace-out").map(PathBuf::from),
    };
    if let Some(extra) = args.first() {
        usage(&format!("unexpected argument {extra:?}"));
    }
    run
}

fn main() {
    let started = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("no command");
    }
    match args.remove(0).as_str() {
        "run" => {
            let run_args = parse_run(args);
            let result = run::run(&run_args, started);
            print!("{}", report::render(&run_args, &result));
            println!("{}", result.result_line());
            if result.failed > 0 {
                std::process::exit(1);
            }
        }
        "compare" => {
            let [a, b] = args.as_slice() else { usage("compare takes two result files") };
            std::process::exit(compare::compare_files(&PathBuf::from(a), &PathBuf::from(b)));
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}
