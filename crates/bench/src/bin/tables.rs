//! Regenerates every table and in-text measurement of the paper's §5.
//!
//! Usage:
//!   cargo run --release -p foxbench --bin tables             # everything
//!   cargo run --release -p foxbench --bin tables -- table1   # one item
//!
//! Items: table1, table2, gc, gcpause, ablations, matrix, loss,
//! lossmatrix, interop, copies, scale, adversarial, micro, and
//! adversarial-smoke (CI's 6-cell subset; by name only, never part of
//! "everything"). An unknown item prints this list and exits 2.
//!
//! Flags:
//!   --trace <file>   record the Table 1 bulk run's typed event stream;
//!                    `.jsonl` writes one JSON object per event, any
//!                    other extension writes chrome://tracing JSON
//!                    (open it in Perfetto)
//!   --pcap <file>    write the same run's wire capture, Wireshark-ready
//!
//! Bench trajectory (the checked-in real-time numbers):
//!   bench-json [--out F] [--bytes N] [--reps K] [--label L]
//!                    run {fox, x-kernel} × {1994, modern} transfers,
//!                    time them on the wall clock, and append a point to
//!                    the trajectory file (default BENCH_7.json)
//!   bench-check <file>
//!                    validate a trajectory file's schema and its
//!                    fox-vs-xk ordering on the modern profile

use foxbasis::time::VirtualDuration;
use foxharness::bench::{bench_transfer, BenchProfile};
use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use simnet::CostModel;
use std::time::Instant;

/// Every item name the command line accepts.
#[rustfmt::skip]
const ITEMS: [&str; 14] = [
    "table1", "table2", "gc", "gcpause", "ablations", "matrix", "loss", "lossmatrix", "interop", "copies",
    "scale", "adversarial", "adversarial-smoke", "micro",
];

fn want(args: &[String], name: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == name)
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

    if args.iter().any(|a| a == "bench-json") {
        args.retain(|a| a != "bench-json");
        bench_json(&mut args, seed);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "bench-check") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| "BENCH_7.json".into());
        bench_check(&path);
        return;
    }

    let trace_path = take_flag(&mut args, "--trace");
    let pcap_path = take_flag(&mut args, "--pcap");
    if let Some(typo) = args.iter().find(|a| !ITEMS.contains(&a.as_str())) {
        eprintln!("unknown item `{typo}`; items: {}", ITEMS.join(" "));
        std::process::exit(2);
    }
    if trace_path.is_some() || pcap_path.is_some() {
        println!("running the traced Table 1 bulk transfer (10^6 bytes, 1994 cost model)...");
        let t = exp::traced_table1_bulk(StackKind::FoxStandard, CostModel::decstation_sml, 1_000_000, seed);
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

    if want(&args, "table1") {
        println!("running Table 1 (two 10^6-byte transfers + RTT runs)...\n");
        let t1 = exp::table1(seed);
        println!("{}", exp::render_table1(&t1));
    }

    if want(&args, "table2") {
        println!("running Table 2 (profiled 10^6-byte transfer, counters on)...\n");
        let t2 = exp::table2(seed);
        println!("{}", exp::render_table2(&t2));
    }

    if want(&args, "gc") {
        println!("running the GC study (transfer-size sweep)...\n");
        let rows = exp::gc_study(&[500_000, 1_000_000, 2_000_000, 5_000_000, 8_000_000], seed);
        println!("{}", exp::render_gc_study(&rows));
    }

    if want(&args, "gcpause") {
        println!("running the GC pause study (stop-and-copy vs incremental)...\n");
        let t = exp::gc_pause_study(400, seed);
        println!("{}", exp::render_gc_pause_study(&t));
    }

    if want(&args, "ablations") {
        println!("running the ablations (design-choice sweep)...\n");
        let rows = exp::ablations(500_000, seed);
        println!("{}", exp::render_ablations(&rows));
    }

    if want(&args, "matrix") {
        println!("running the interoperation matrix...\n");
        let rows = exp::interop_matrix(300_000, seed);
        println!("{}", exp::render_interop_matrix(&rows));
    }

    if want(&args, "loss") {
        println!("running the loss sweep...\n");
        let rows = exp::loss_sweep(200_000, seed);
        println!("{}", exp::render_loss_sweep(&rows));
    }

    if want(&args, "lossmatrix") {
        println!("running the loss matrix (each cell twice, checking determinism)...\n");
        let cells = exp::loss_matrix(200_000, seed);
        println!("{}", exp::render_loss_matrix(&cells));
    }

    if want(&args, "interop") {
        println!("running the options interop matrix (each cell twice, checking determinism)...\n");
        let cells = exp::options_interop(50_000, seed);
        println!("{}", exp::render_options_interop(&cells));
        println!("running SACK vs NewReno under burst loss (three seeds)...\n");
        let rows = exp::sack_vs_newreno(300_000, seed);
        println!("{}", exp::render_sack_vs_newreno(&rows));
    }

    if want(&args, "copies") {
        println!("running the copy comparison (Table 1 workload, copy counter on)...\n");
        let rows = exp::copy_comparison(1_000_000, seed);
        println!("{}", exp::render_copy_comparison(&rows));
    }

    if want(&args, "scale") {
        println!("running the scale experiment (N concurrent connections, fox vs x-kernel)...\n");
        let cells = exp::scale_experiment(&[16, 64, 256], seed);
        println!("{}", exp::render_scale(&cells));
    }

    // The CI subset is opt-in by exact name, never part of "everything"
    // (the full matrix already covers it).
    if args.iter().any(|a| a == "adversarial-smoke") {
        println!("running the adversarial smoke subset (6 fixed cells, each twice)...\n");
        let cells = exp::adversarial_smoke(seed);
        println!("{}", exp::render_adversarial_matrix(&cells));
    }

    if want(&args, "adversarial") {
        println!("running the adversarial matrix (attack × link × stack, each cell twice)...\n");
        let cells = exp::adversarial_matrix(seed);
        println!("{}", exp::render_adversarial_matrix(&cells));
    }

    if want(&args, "micro") {
        println!("quick wall-clock microbenchmarks (see Criterion benches for rigor):\n");
        micro();
    }
}

/// One cell of the bench matrix: {fox, xk} × {1994, modern}.
const BENCH_CELLS: [(StackKind, &str); 2] = [(StackKind::FoxStandard, "fox"), (StackKind::XKernel, "xk")];

/// `bench-json`: runs the bench matrix, times each cell on the wall
/// clock (best of `--reps`, after one untimed warm-up), and appends a
/// point to the trajectory file. The virtual outcome of every rep must
/// be identical — the runs are deterministic — so only the wall time
/// varies. Fails loudly if the structured stack falls behind the
/// baseline on the modern profile.
fn bench_json(args: &mut Vec<String>, seed: u64) {
    let out = take_flag(args, "--out").unwrap_or_else(|| "BENCH_7.json".into());
    let bytes: usize =
        take_flag(args, "--bytes").map(|s| s.parse().expect("--bytes wants a number")).unwrap_or(1_000_000);
    let reps: usize =
        take_flag(args, "--reps").map(|s| s.parse().expect("--reps wants a number")).unwrap_or(5);
    let label = take_flag(args, "--label").unwrap_or_else(|| "local".into());

    println!("bench-json: {bytes}-byte transfers, best of {reps} interleaved reps per cell -> {out}");
    // All four cells, warmed once untimed. The timed reps interleave
    // across cells (fox, xk, fox, xk, ...) so a machine-load spike hits
    // every cell equally instead of poisoning one stack's whole run;
    // min-of-N per cell then discards the spikes.
    let mut cells: Vec<(StackKind, &str, BenchProfile, _, f64)> = Vec::new();
    for (kind, kname) in BENCH_CELLS {
        for profile in [BenchProfile::Paper1994, BenchProfile::Modern] {
            let warm = bench_transfer(kind, profile, bytes, seed);
            cells.push((kind, kname, profile, warm, f64::INFINITY));
        }
    }
    for _ in 0..reps {
        for (kind, _, profile, warm, best) in cells.iter_mut() {
            let t0 = Instant::now();
            let r = bench_transfer(*kind, *profile, bytes, seed);
            *best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(r.segments, warm.segments, "same-seed reruns must be identical");
        }
    }

    let mut runs = Vec::new();
    let mut modern_rate = std::collections::BTreeMap::new();
    for (_, kname, profile, warm, best) in &cells {
        // The rate's numerator is the *workload* in MSS units — the
        // same for every cell at a given size — so the rate orders
        // exactly like wall time-to-completion; see `BenchRun`.
        let segs_per_sec = warm.workload_segments as f64 / best.max(1e-9);
        if *profile == BenchProfile::Modern {
            modern_rate.insert(*kname, segs_per_sec);
        }
        println!(
            "  {kname:>3} [{:>6}]  {:>6} data segments ({:>6} on the wire)  {:>8.2} ms wall  {:>9.0} segs/sec  ({:.2} virtual Mb/s)",
            profile.name(),
            warm.segments,
            warm.wire_segments,
            best * 1e3,
            segs_per_sec,
            warm.throughput_mbps
        );
        runs.push(format!(
            "{{\"stack\": \"{kname}\", \"profile\": \"{}\", \"bytes\": {bytes}, \"workload_segments\": {}, \
             \"segments\": {}, \"wire_segments\": {}, \"virtual_mbps\": {:.3}, \"wall_ms\": {:.3}, \
             \"segments_per_sec\": {:.0}}}",
            profile.name(),
            warm.workload_segments,
            warm.segments,
            warm.wire_segments,
            warm.throughput_mbps,
            best * 1e3,
            segs_per_sec
        ));
    }

    let fox = modern_rate["fox"];
    let xk = modern_rate["xk"];
    assert!(
        fox >= xk,
        "the structured stack must process segments at least as fast as the baseline \
         on the modern profile (fox {fox:.0} vs xk {xk:.0} segs/sec)"
    );
    println!("  modern fox/xk real-time ratio: {:.2}", fox / xk);

    // Append-only trajectory: each point is exactly one line, so prior
    // points survive as lines and ours appends after them.
    let mut points: Vec<String> = std::fs::read_to_string(&out)
        .map(|text| {
            text.lines()
                .map(str::trim_end)
                .filter(|l| l.trim_start().starts_with("{\"label\""))
                .map(|l| format!("    {}", l.trim_start().trim_end_matches(',')))
                .collect()
        })
        .unwrap_or_default();
    points.push(format!("    {{\"label\": \"{label}\", \"runs\": [{}]}}", runs.join(", ")));
    let doc = format!(
        "{{\n  \"schema\": \"fox-bench-v1\",\n  \"unit\": \"segments_per_sec\",\n  \"points\": [\n{}\n  ]\n}}\n",
        points.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("  trajectory written to {out} ({} point(s))", points.len());
    bench_check(&out);
}

/// `bench-check`: validates a trajectory file — schema marker, full
/// {fox, xk} × {1994, modern} coverage, and the fox-vs-xk ordering on
/// the modern profile of the latest point. Exits nonzero on any
/// violation, so CI can gate on it.
fn bench_check(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = Vec::new();
    for needle in
        ["\"schema\": \"fox-bench-v1\"", "\"unit\": \"segments_per_sec\"", "\"points\": [", "\"label\": "]
    {
        if !text.contains(needle) {
            failures.push(format!("missing {needle}"));
        }
    }
    // The latest point must cover the whole matrix.
    let last = text.lines().rfind(|l| l.trim_start().starts_with("{\"label\""));
    let point: String = match last {
        Some(l) => {
            // Runs may be pretty-printed on the following lines; take
            // everything from the label line to the closing "]}".
            let start = text.rfind(l).unwrap_or(0);
            let rest = &text[start..];
            let end = rest.find("]}").map(|i| i + 2).unwrap_or(rest.len());
            rest[..end].to_string()
        }
        None => {
            eprintln!("bench-check: {path}: no points found");
            std::process::exit(1);
        }
    };
    let rate = |stack: &str, profile: &str| -> Option<f64> {
        let key = format!("\"stack\": \"{stack}\", \"profile\": \"{profile}\"");
        let at = point.find(&key)?;
        let tail = &point[at..];
        let v = tail.split("\"segments_per_sec\": ").nth(1)?;
        v.split([',', '}']).next()?.trim().parse().ok()
    };
    let mut rates = std::collections::BTreeMap::new();
    for (_, stack) in BENCH_CELLS {
        for profile in ["1994", "modern"] {
            match rate(stack, profile) {
                Some(v) if v > 0.0 => {
                    rates.insert((stack, profile), v);
                }
                Some(v) => failures.push(format!("{stack}/{profile}: nonpositive rate {v}")),
                None => failures.push(format!("{stack}/{profile}: cell missing from latest point")),
            }
        }
    }
    if let (Some(&fox), Some(&xk)) = (rates.get(&("fox", "modern")), rates.get(&("xk", "modern"))) {
        if fox < xk {
            failures.push(format!("modern profile: fox ({fox:.0}) slower than xk ({xk:.0}) segs/sec"));
        }
    }
    if failures.is_empty() {
        println!("bench-check: {path} OK ({} matrix cells in latest point)", rates.len());
    } else {
        for f in &failures {
            eprintln!("bench-check: {path}: {f}");
        }
        std::process::exit(1);
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
    let _ = VirtualDuration::ZERO;
}
