//! Regenerates every table and in-text measurement of the paper's §5.
//!
//! Usage:
//!   cargo run --release -p foxbench --bin tables             # everything
//!   cargo run --release -p foxbench --bin tables -- table1   # one item
//!
//! The items are the [`ITEMS`] registry below; an unknown item prints
//! their names and exits 2. Wall-clock benchmarking is not here: that is
//! `foxperf/` (see `BENCHMARK.json`).
//!
//! Flags:
//!   --trace <file>   record the Table 1 bulk run's typed event stream;
//!                    `.jsonl` writes one JSON object per event, any
//!                    other extension writes chrome://tracing JSON
//!                    (open it in Perfetto)
//!   --pcap <file>    write the same run's wire capture, Wireshark-ready

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the `micro` item times real code on the wall clock; no other item reads it"
)]

use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use simnet::CostModel;
use std::time::Instant;

/// One thing the command line can ask for.
struct Item {
    name: &'static str,
    /// Printed, followed by a blank line, before the item runs.
    banner: &'static str,
    /// Runs the item under the given seed and prints its tables.
    run: fn(u64),
    /// Whether a bare `tables` runs it; `false` means by name only.
    in_all: bool,
}

/// Every item, in the order a run prints them. Dispatch, the
/// unknown-item message and the module docs' "items" all read this list.
const ITEMS: &[Item] = &[
    Item {
        name: "table1",
        banner: "running Table 1 (two 10^6-byte transfers + RTT runs)...",
        run: |seed| println!("{}", exp::render_table1(&exp::table1(seed))),
        in_all: true,
    },
    Item {
        name: "table2",
        banner: "running Table 2 (profiled 10^6-byte transfer, counters on)...",
        run: |seed| println!("{}", exp::render_table2(&exp::table2(seed))),
        in_all: true,
    },
    Item {
        name: "gc",
        banner: "running the GC study (transfer-size sweep)...",
        run: |seed| {
            let rows = exp::gc_study(&[500_000, 1_000_000, 2_000_000, 5_000_000, 8_000_000], seed);
            println!("{}", exp::render_gc_study(&rows));
        },
        in_all: true,
    },
    Item {
        name: "gcpause",
        banner: "running the GC pause study (stop-and-copy vs incremental)...",
        run: |seed| println!("{}", exp::render_gc_pause_study(&exp::gc_pause_study(400, seed))),
        in_all: true,
    },
    Item {
        name: "ablations",
        banner: "running the ablations (design-choice sweep)...",
        run: |seed| println!("{}", exp::render_ablations(&exp::ablations(500_000, seed))),
        in_all: true,
    },
    Item {
        name: "matrix",
        banner: "running the interoperation matrix...",
        run: |seed| println!("{}", exp::render_interop_matrix(&exp::interop_matrix(300_000, seed))),
        in_all: true,
    },
    Item {
        name: "loss",
        banner: "running the loss sweep...",
        run: |seed| println!("{}", exp::render_loss_sweep(&exp::loss_sweep(200_000, seed))),
        in_all: true,
    },
    Item {
        name: "lossmatrix",
        banner: "running the loss matrix (each cell twice, checking determinism)...",
        run: |seed| println!("{}", exp::render_loss_matrix(&exp::loss_matrix(200_000, seed))),
        in_all: true,
    },
    Item {
        name: "interop",
        banner: "running the options interop matrix (each cell twice, checking determinism)...",
        run: |seed| {
            println!("{}", exp::render_options_interop(&exp::options_interop(50_000, seed)));
            println!("running SACK vs NewReno under burst loss (three seeds)...\n");
            println!("{}", exp::render_sack_vs_newreno(&exp::sack_vs_newreno(300_000, seed)));
        },
        in_all: true,
    },
    Item {
        name: "copies",
        banner: "running the copy comparison (Table 1 workload, copy counter on)...",
        run: |seed| println!("{}", exp::render_copy_comparison(&exp::copy_comparison(1_000_000, seed))),
        in_all: true,
    },
    Item {
        name: "scale",
        banner: "running the scale experiment (N concurrent connections, fox vs x-kernel)...",
        run: |seed| println!("{}", exp::render_scale(&exp::scale_experiment(&[16, 64, 256], seed))),
        in_all: true,
    },
    // CI's subset: the full matrix already covers it.
    Item {
        name: "adversarial-smoke",
        banner: "running the adversarial smoke subset (6 fixed cells, each twice)...",
        run: |seed| println!("{}", exp::render_adversarial_matrix(&exp::adversarial_smoke(seed))),
        in_all: false,
    },
    Item {
        name: "adversarial",
        banner: "running the adversarial matrix (attack × link × stack, each cell twice)...",
        run: |seed| println!("{}", exp::render_adversarial_matrix(&exp::adversarial_matrix(seed))),
        in_all: true,
    },
    Item {
        name: "micro",
        banner: "quick wall-clock microbenchmarks (see Criterion benches for rigor):",
        run: |_| micro(),
        in_all: true,
    },
];

/// The complaint about the first argument that names no item, if any.
fn unknown_item(args: &[String]) -> Option<String> {
    let typo = args.iter().find(|a| ITEMS.iter().all(|item| item.name != a.as_str()))?;
    let names: Vec<&str> = ITEMS.iter().map(|item| item.name).collect();
    Some(format!("unknown item `{typo}`; items: {}", names.join(" ")))
}

/// Pulls `--name value` out of the argument list, if present.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        eprintln!("{name} needs a file argument");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = 42;

    let trace_path = take_flag(&mut args, "--trace");
    let pcap_path = take_flag(&mut args, "--pcap");
    if let Some(complaint) = unknown_item(&args) {
        eprintln!("{complaint}");
        std::process::exit(2);
    }
    if trace_path.is_some() || pcap_path.is_some() {
        println!("running the traced Table 1 bulk transfer (10^6 bytes, 1994 cost model)...");
        let t = exp::table1_cell(StackKind::FoxStandard, CostModel::decstation_sml(), seed)
            .traced_bulk(1_000_000);
        println!(
            "  {} events recorded ({} overwritten), {} frames captured, {:.1} Mb/s",
            t.events.len(),
            t.dropped,
            t.pcap.frame_count(),
            t.bulk.throughput_mbps
        );
        if let Some(path) = trace_path {
            let text = if path.ends_with(".jsonl") {
                foxbasis::obs::to_jsonl(&t.events)
            } else {
                foxbasis::obs::to_chrome_trace(&t.events)
            };
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("  trace written to {path}");
        }
        if let Some(path) = pcap_path {
            if let Err(e) = t.pcap.write_to_file(&path) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("  pcap written to {path}");
        }
        println!();
        if args.is_empty() {
            return; // flags alone: don't also grind through every table
        }
    }

    let wanted =
        |item: &&Item| if args.is_empty() { item.in_all } else { args.iter().any(|a| a == item.name) };
    for item in ITEMS.iter().filter(wanted) {
        println!("{}\n", item.banner);
        (item.run)(seed);
    }
}

/// Quick-and-dirty wall-clock versions of the Criterion microbenches, so
/// the tables binary is self-contained.
fn micro() {
    use foxbasis::checksum::{byte_check, word_check};
    use foxbasis::copy::{byte_copy, checked_word_copy, optimized_copy};
    use foxbasis::wordarray::WordArray;

    let kb = 64usize;
    let data: Vec<u8> = (0..kb * 1024).map(|i| (i % 251) as u8).collect();
    let reps = 2000;

    let time_per_kb = |f: &mut dyn FnMut() -> u16| {
        let t0 = Instant::now();
        let mut acc = 0u16;
        for _ in 0..reps {
            acc = acc.wrapping_add(f());
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64 / (reps as f64 * kb as f64) // ns per KB
    };

    let w = time_per_kb(&mut || word_check(&data));
    let b = time_per_kb(&mut || byte_check(&data));
    println!("checksum (per KB):");
    println!("  word_check (Fig. 10)  {w:8.1} ns/KB   (paper: 343,000 ns/KB on the DECstation)");
    println!("  byte_check (x-kernel) {b:8.1} ns/KB   (paper: 375,000 ns/KB)");
    println!("  algorithm speedup: {:.2}x (paper: 1.09x)", b / w);
    println!();

    let src = WordArray::from_slice(&data);
    let mut dst = WordArray::new(data.len());
    let mut dst2 = vec![0u8; data.len()];
    let time_copy = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_nanos() as f64 / (reps as f64 * kb as f64)
    };
    let cw = time_copy(&mut || checked_word_copy(&src, &mut dst));
    let cb = time_copy(&mut || byte_copy(&src, &mut dst));
    let co = time_copy(&mut || optimized_copy(&data, &mut dst2));
    println!("copy (per KB):");
    println!("  checked word copy     {cw:8.1} ns/KB   (paper SML: 300,000 ns/KB)");
    println!("  checked byte copy     {cb:8.1} ns/KB");
    println!("  memcpy (bcopy)        {co:8.1} ns/KB   (paper: 61,000 ns/KB)");
    println!("  checked/memcpy ratio: {:.1}x (paper: ~5x)", cw / co.max(0.01));
    println!();

    // Scheduler: empty call vs fork+switch.
    use fox_scheduler::Scheduler;
    let t0 = Instant::now();
    let n = 5_000_000u64;
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
    let call = t0.elapsed().as_nanos() as f64 / n as f64;

    let mut s = Scheduler::new();
    let t0 = Instant::now();
    let m = 200_000u64;
    for _ in 0..m {
        s.fork(Box::new(|_| {
            std::hint::black_box(0u64);
        }));
        s.run_ready();
    }
    let switch = t0.elapsed().as_nanos() as f64 / m as f64;
    println!("scheduler:");
    println!("  baseline op           {call:8.2} ns     (paper empty call: 1,200 ns)");
    println!("  fork+terminate+switch {switch:8.1} ns     (paper: 30,000 ns)");
    println!("  ratio: {:.0}x (paper: ~25x)", switch / call.max(0.01));
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_names_are_unique() {
        for (i, item) in ITEMS.iter().enumerate() {
            assert!(
                ITEMS[..i].iter().all(|earlier| earlier.name != item.name),
                "`{}` is listed twice",
                item.name
            );
        }
    }

    #[test]
    fn an_unknown_item_is_answered_with_exactly_the_registry() {
        let complaint = unknown_item(&["table1".into(), "nosuch".into()]).expect("`nosuch` is no item");
        let (blame, listed) = complaint.split_once("; items: ").expect("the complaint lists the items");
        assert_eq!(blame, "unknown item `nosuch`");
        let names: Vec<&str> = ITEMS.iter().map(|item| item.name).collect();
        assert_eq!(listed.split(' ').collect::<Vec<_>>(), names);
        let every: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(unknown_item(&every), None, "every registered name is accepted");
        // The deleted bench path left no subcommand behind.
        for gone in ["bench-json", "bench-check"] {
            assert!(unknown_item(&[gone.into()]).is_some(), "`{gone}` must be unknown");
        }
    }
}
