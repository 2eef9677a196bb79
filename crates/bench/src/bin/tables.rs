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
//!   --trace FILE     record the Table 1 bulk run's typed event stream;
//!                    `.jsonl` writes one JSON object per event, any
//!                    other extension writes chrome://tracing JSON
//!                    (open it in Perfetto)
//!   --pcap FILE      write the same run's wire capture, Wireshark-ready

use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use simnet::CostModel;

/// One thing the command line can ask for.
struct Item {
    name: &'static str,
    /// Printed, followed by a blank line, before the item runs.
    banner: &'static str,
    /// Runs the item under the given seed and prints its tables.
    run: fn(u64),
}

/// Every item, in the order a run prints them. Dispatch, the
/// unknown-item message and the module docs' "items" all read this list.
const ITEMS: &[Item] = &[
    Item {
        name: "table1",
        banner: "running Table 1 (two 10^6-byte transfers + RTT runs)...",
        run: |seed| println!("{}", exp::render_table1(&exp::table1(seed))),
    },
    Item {
        name: "table2",
        banner: "running Table 2 (profiled 10^6-byte transfer, counters on)...",
        run: |seed| println!("{}", exp::render_table2(&exp::table2(seed))),
    },
    Item {
        name: "gc",
        banner: "running the GC study (transfer-size sweep)...",
        run: |seed| {
            let rows = exp::gc_study(&[500_000, 1_000_000, 2_000_000, 5_000_000, 8_000_000], seed);
            println!("{}", exp::render_gc_study(&rows));
        },
    },
    Item {
        name: "gcpause",
        banner: "running the GC pause study (stop-and-copy vs incremental)...",
        run: |seed| println!("{}", exp::render_gc_pause_study(&exp::gc_pause_study(400, seed))),
    },
    Item {
        name: "ablations",
        banner: "running the ablations (design-choice sweep)...",
        run: |seed| println!("{}", exp::render_ablations(&exp::ablations(500_000, seed))),
    },
    Item {
        name: "matrix",
        banner: "running the interoperation matrix...",
        run: |seed| println!("{}", exp::render_interop_matrix(&exp::interop_matrix(300_000, seed))),
    },
    Item {
        name: "loss",
        banner: "running the loss sweep...",
        run: |seed| println!("{}", exp::render_loss_sweep(&exp::loss_sweep(200_000, seed))),
    },
    Item {
        name: "lossmatrix",
        banner: "running the loss matrix (each cell twice, checking determinism)...",
        run: |seed| println!("{}", exp::loss_matrix(200_000, seed)),
    },
    Item {
        name: "interop",
        banner: "running the options interop matrix (each cell twice, checking determinism)...",
        run: |seed| {
            println!("{}", exp::options_interop(50_000, seed));
            println!("running SACK vs NewReno under burst loss (three seeds)...\n");
            println!("{}", exp::sack_vs_newreno(300_000, seed));
        },
    },
    Item {
        name: "copies",
        banner: "running the copy comparison (Table 1 workload, copy counter on)...",
        run: |seed| println!("{}", exp::copy_comparison(1_000_000, seed)),
    },
    Item {
        name: "scale",
        banner: "running the scale experiment (N concurrent connections, fox vs x-kernel)...",
        run: |seed| println!("{}", exp::scale_experiment(&[16, 64, 256], seed)),
    },
    Item {
        name: "adversarial",
        banner: "running the adversarial matrix (attack × link × stack, each cell twice)...",
        run: |seed| println!("{}", exp::adversarial_matrix(seed)),
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

    for item in ITEMS.iter().filter(|item| args.is_empty() || args.iter().any(|a| a == item.name)) {
        println!("{}\n", item.banner);
        (item.run)(seed);
    }
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
