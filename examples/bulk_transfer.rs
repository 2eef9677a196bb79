//! The paper's throughput benchmark (the Table 1 workload), runnable
//! for any stack and machine model.
//!
//! "The test consists of sending 10^6 bytes of data between a designated
//! sender and a designated receiver on an isolated 10Mb/s ethernet."
//!
//! Usage: `cargo run --release --example bulk_transfer -- [fox|xk|special] [1994|modern] [bytes] [capture.pcap]`
//!
//! With a fourth argument, every frame on the simulated wire is written
//! to a Wireshark-readable pcap file.

use foxbasis::obs::EventSink;
use foxharness::experiments::table1_cell;
use foxharness::stack::StackKind;
use foxharness::workload::bulk_transfer;
use simnet::CostModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = match args.get(1).map(String::as_str) {
        Some("xk") => StackKind::XKernel,
        Some("special") => StackKind::FoxSpecial,
        _ => StackKind::FoxStandard,
    };
    let (cost, cost_name) = match args.get(2).map(String::as_str) {
        Some("modern") => (CostModel::modern(), "modern (free CPU)"),
        _ => {
            if kind == StackKind::XKernel {
                (CostModel::decstation_c(), "DECstation 5000/125 (C)")
            } else {
                (CostModel::decstation_sml(), "DECstation 5000/125 (SML/NJ)")
            }
        }
    };
    let bytes: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1_000_000);

    println!("stack: {}   machine: {cost_name}   transfer: {bytes} bytes", kind.name());
    let cell = table1_cell(kind, cost, 42);
    let (net, mut sender, mut receiver) = cell.pair(EventSink::off());
    let capture = args.get(4).map(|path| (net.capture(), std::path::PathBuf::from(path)));
    let r = bulk_transfer(&net, &mut sender, &mut receiver, bytes, cell.deadline);

    println!();
    println!("elapsed (virtual): {}", r.elapsed);
    println!("throughput:        {:.2} Mb/s   (paper: Fox Net 0.6, x-kernel 2.5)", r.throughput_mbps);
    println!(
        "sender:            {} segments ({} retransmitted), {} payload bytes",
        r.sender.segments_sent, r.sender.retransmits, r.sender.bytes_sent
    );
    println!(
        "receiver:          {} segments in, fast path took {}",
        r.receiver.segments_received, r.receiver.fastpath_hits
    );
    if let Some(gc) = &r.sender_gc {
        println!(
            "sender GC:         {} minors, {} majors, {} total pause (max {})",
            gc.minors, gc.majors, gc.total_pause, gc.max_pause
        );
    }
    println!("wire:              {} frames, {} bytes", r.net.frames_sent, r.net.bytes_sent);
    if let Some((sink, path)) = capture {
        sink.write_to(&path).expect("write pcap");
        println!("pcap:              {} frames -> {}", sink.frame_count(), path.display());
    }
}
