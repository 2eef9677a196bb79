//! The experiments of the paper's §5, each regenerating one table or
//! in-text claim. EXPERIMENTS.md records paper-vs-measured for all of
//! them; the `tables` binary in the bench crate prints them.

use crate::cell::Cell;
use crate::report::{f1, f2, Table};
use crate::stack::StackKind;
use crate::workload::{bulk_transfer, many_flows, ping_pong, BulkResult, PingResult};
use foxbasis::obs::EventSink;
use foxbasis::time::{NanoDuration, VirtualDuration, VirtualTime};
use foxtcp::TcpConfig;
use simnet::{Account, CostModel, FaultConfig, NetConfig, SimNet};
use std::fmt::Debug;

/// The paper's benchmark configuration: 4096-byte window, immediate
/// ACKs. (With a 4096-byte window — 2.8 MSS — holding ACKs back for
/// 200 ms stalls every window; the paper's ack-timer policy is not
/// specified beyond "if the ack is to be delayed", and its measured
/// throughput is only reachable with prompt ACKs. Delayed ACKs remain
/// available and are measured in the ablation table.)
pub fn paper_tcp_config() -> TcpConfig {
    TcpConfig { initial_window: 4096, send_buffer: 8192, delayed_ack_ms: None, ..TcpConfig::default() }
}

/// The Table 1 cell: `kind` at both ends with the paper's TCP
/// configuration on the fault-free 10 Mb/s segment. `measure_speed`
/// times its bulk run; `tables --trace` and the wire pins record it.
pub fn table1_cell(kind: StackKind, cost: CostModel, seed: u64) -> Cell {
    Cell::new(kind, cost, paper_tcp_config(), seed)
}

/// Runs `run` twice and asserts the two results are bit-identical — the
/// paper's determinism claim, checked on every matrix cell. `label` is
/// what the failure names: pass the [`Cell`], whose `{:?}` is everything
/// needed to run it again (traced, if need be).
pub fn replayed<T: PartialEq + Debug>(label: &dyn Debug, run: impl Fn() -> T) -> T {
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must replay bit-identically: {label:?}");
    a
}

/// One Table 1 measurement for a stack kind and cost model.
#[derive(Clone, Debug)]
pub struct Speed {
    /// Implementation name.
    pub name: &'static str,
    /// Bulk throughput, Mb/s.
    pub throughput_mbps: f64,
    /// Small-message round trip, ms.
    pub rtt_ms: f64,
    /// The underlying bulk result.
    pub bulk: BulkResult,
    /// The underlying ping result.
    pub ping: PingResult,
}

/// Measures one implementation on the paper's workload.
pub fn measure_speed(kind: StackKind, cost: CostModel, bytes: usize, seed: u64) -> Speed {
    // Throughput run.
    let bulk = table1_cell(kind, cost.clone(), seed).bulk(bytes);
    assert_eq!(bulk.bytes, bytes, "{}: transfer must complete", kind.name());

    // Round-trip run (fresh network, like the paper's separate test).
    // Delayed ACKs stay on here: for request/response traffic the ACK
    // piggybacks on the echo, which is what 1994 stacks did.
    let rtt_cfg = TcpConfig { initial_window: 4096, ..TcpConfig::default() };
    let ping = Cell::new(kind, cost, rtt_cfg, seed + 1).ping(20, 1);

    Speed {
        name: kind.name(),
        throughput_mbps: bulk.throughput_mbps,
        rtt_ms: ping.mean_rtt.as_micros() as f64 / 1e3,
        bulk,
        ping,
    }
}

/// Table 1: "Speed Comparison of TCP Implementations."
pub struct Table1 {
    /// Fox Net on the 1994 cost model.
    pub fox: Speed,
    /// x-kernel on the 1994 cost model.
    pub xk: Speed,
}

/// Runs Table 1 with the paper's 10^6-byte transfer.
pub fn table1(seed: u64) -> Table1 {
    let fox = measure_speed(StackKind::FoxStandard, CostModel::decstation_sml(), 1_000_000, seed);
    let xk = measure_speed(StackKind::XKernel, CostModel::decstation_c(), 1_000_000, seed);
    Table1 { fox, xk }
}

/// Renders Table 1 next to the paper's numbers.
pub fn render_table1(t: &Table1) -> Table {
    let mut tab = Table::new(
        "Table 1: Speed Comparison of TCP Implementations (paper: 0.6 / 2.5 Mb/s, 36 / 4.9 ms)",
        &["", "Fox Net", "x-kernel", "ratio"],
    );
    tab.row(&[
        "Throughput (Mb/s)".into(),
        f1(t.fox.throughput_mbps),
        f1(t.xk.throughput_mbps),
        f2(t.fox.throughput_mbps / t.xk.throughput_mbps),
    ]);
    tab.row(&["Round-Trip (ms)".into(), f1(t.fox.rtt_ms), f1(t.xk.rtt_ms), f2(t.fox.rtt_ms / t.xk.rtt_ms)]);
    tab
}

/// Table 2: the execution profile of the Fox Net stack, sender and
/// receiver columns, with the profiling counters *enabled* (15 µs per
/// update, perturbing the run exactly as the paper's hardware counters
/// did).
pub struct Table2 {
    /// (account, sender %, receiver %).
    pub rows: Vec<(Account, f64, f64)>,
    /// Column sums (the paper's were 100.2 and 94.0).
    pub totals: (f64, f64),
    /// The profiled bulk run the numbers came from.
    pub bulk: BulkResult,
}

/// Runs the profiled 10^6-byte transfer.
pub fn table2(seed: u64) -> Table2 {
    let cell =
        Cell { profiled: true, ..table1_cell(StackKind::FoxStandard, CostModel::decstation_sml(), seed) };
    let (net, mut sender, mut receiver) = cell.pair(EventSink::off());
    let bulk = bulk_transfer(&net, &mut sender, &mut receiver, 1_000_000, cell.deadline);

    // Each host's ledger as shares of the run's elapsed time. The
    // paper's "packet wait" is the time spent blocked in Mach waiting
    // for a packet; in the simulation that is exactly the machine's idle
    // time, so fold it into the charged account.
    let column = |st: &dyn crate::station::Station| {
        st.host().with(|h| {
            let wall = NanoDuration::from(bulk.elapsed).as_nanos().max(1) as f64;
            let idle = bulk.elapsed.saturating_sub(h.total_busy());
            let idle = 100.0 * idle.as_micros() as f64 / bulk.elapsed.as_micros().max(1) as f64;
            Account::ALL.map(|a| {
                let booked = 100.0 * h.booked(a).as_nanos() as f64 / wall;
                if a == Account::PacketWait {
                    booked + idle
                } else {
                    booked
                }
            })
        })
    };
    let (sender, receiver) = (column(&*sender), column(&*receiver));

    let mut rows = Vec::new();
    let mut totals = (0.0, 0.0);
    for ((account, s), r) in Account::ALL.into_iter().zip(sender).zip(receiver) {
        if account == Account::Scheduler {
            continue; // the paper leaves the scheduler unprofiled
        }
        totals.0 += s;
        totals.1 += r;
        rows.push((account, s, r));
    }
    Table2 { rows, totals, bulk }
}

/// The paper's Table 2 values, for side-by-side rendering.
pub fn paper_table2(account: Account) -> Option<(f64, f64)> {
    Some(match account {
        Account::Tcp => (29.0, 27.5),
        Account::Ip => (7.8, 9.7),
        Account::EthMachInterface => (11.2, 11.9),
        Account::Copy => (10.5, 6.3),
        Account::Checksum => (5.1, 5.6),
        Account::MachSend => (7.5, 6.0),
        Account::PacketWait => (15.8, 9.3),
        Account::Gc => (3.4, 5.0),
        Account::Misc => (4.7, 7.3),
        Account::Counters => (5.2, 5.4),
        Account::Scheduler => return None,
    })
}

/// Renders Table 2 next to the paper's numbers.
pub fn render_table2(t: &Table2) -> Table {
    let mut tab = Table::new(
        "Table 2: Execution Profile (Percent of Total Time) of the TCP/IP stack",
        &["component", "Sender", "Receiver", "paper S", "paper R"],
    );
    for (account, s, r) in &t.rows {
        let (ps, pr) = paper_table2(*account).unwrap_or((0.0, 0.0));
        tab.row(&[account.label().into(), f1(*s), f1(*r), f1(ps), f1(pr)]);
    }
    tab.row(&["total".into(), f1(t.totals.0), f1(t.totals.1), "100.2".into(), "94.0".into()]);
    tab
}

/// One row of the GC study: transfer size vs collections and throughput.
#[derive(Clone, Debug)]
pub struct GcRow {
    /// Transfer size in bytes.
    pub bytes: usize,
    /// Minor collections on the sender.
    pub minors: u64,
    /// Major collections on the sender.
    pub majors: u64,
    /// Longest pause.
    pub max_pause: VirtualDuration,
    /// Total pause time.
    pub total_pause: VirtualDuration,
    /// Throughput, Mb/s.
    pub throughput_mbps: f64,
}

/// The §5 GC discussion: "Runs of over 5 MB often require at least one
/// major garbage collection ... the overall throughput on the longer
/// runs is the same or faster than on the shorter runs."
pub fn gc_study(sizes: &[usize], seed: u64) -> Vec<GcRow> {
    sizes
        .iter()
        .map(|&bytes| {
            let r = table1_cell(StackKind::FoxStandard, CostModel::decstation_sml(), seed).bulk(bytes);
            let gc = r.sender_gc.clone().unwrap_or_default();
            GcRow {
                bytes,
                minors: gc.minors,
                majors: gc.majors,
                max_pause: gc.max_pause,
                total_pause: gc.total_pause,
                throughput_mbps: r.throughput_mbps,
            }
        })
        .collect()
}

/// Renders the GC study.
pub fn render_gc_study(rows: &[GcRow]) -> Table {
    let mut tab = Table::new(
        "GC study (paper §5: majors appear past ~5 MB; long-run throughput does not degrade)",
        &["transfer", "minors", "majors", "max pause", "total pause", "Mb/s"],
    );
    for r in rows {
        tab.row(&[
            format!("{:.1} MB", r.bytes as f64 / 1e6),
            r.minors.to_string(),
            r.majors.to_string(),
            format!("{}", r.max_pause),
            format!("{}", r.total_pause),
            f2(r.throughput_mbps),
        ]);
    }
    tab
}

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// What was varied.
    pub name: String,
    /// Throughput, Mb/s.
    pub throughput_mbps: f64,
    /// Segments the sender transmitted.
    pub segments: u64,
    /// Share of the receiver's segments header prediction takes (NaN
    /// when it received none).
    pub fastpath_fraction: f64,
}

fn run_ablation(name: &str, cfg: TcpConfig, bytes: usize, seed: u64) -> AblationRow {
    let r = Cell::new(StackKind::FoxStandard, CostModel::decstation_sml(), cfg, seed).bulk(bytes);
    let recv = r.receiver;
    AblationRow {
        name: name.into(),
        throughput_mbps: r.throughput_mbps,
        segments: r.sender.segments_sent,
        fastpath_fraction: if recv.segments_received > 0 {
            recv.fastpath_hits as f64 / recv.segments_received as f64
        } else {
            f64::NAN
        },
    }
}

/// The design-choice ablations DESIGN.md §4 lists.
pub fn ablations(bytes: usize, seed: u64) -> Vec<AblationRow> {
    let base = paper_tcp_config;
    let mut rows = vec![run_ablation("baseline (paper config)", base(), bytes, seed)];
    rows.push(run_ablation("delayed ACK off", TcpConfig { delayed_ack_ms: None, ..base() }, bytes, seed));
    rows.push(run_ablation("Nagle off", TcpConfig { nagle: false, ..base() }, bytes, seed));
    rows.push(run_ablation("checksums off", TcpConfig { compute_checksums: false, ..base() }, bytes, seed));
    rows.push(run_ablation(
        "latency-priority to_do queue",
        TcpConfig { latency_priority: true, ..base() },
        bytes,
        seed,
    ));
    for window in [1024usize, 4096, 16384, 65535] {
        rows.push(run_ablation(
            &format!("window {window}"),
            TcpConfig { initial_window: window, send_buffer: window * 2, ..base() },
            bytes,
            seed,
        ));
    }
    rows
}

/// Renders the ablations.
pub fn render_ablations(rows: &[AblationRow]) -> Table {
    let mut tab =
        Table::new("Ablations (Fox Net, 1994 cost model)", &["variant", "Mb/s", "segments", "fastpath"]);
    for r in rows {
        tab.row(&[
            r.name.clone(),
            f2(r.throughput_mbps),
            r.segments.to_string(),
            if r.fastpath_fraction.is_nan() {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * r.fastpath_fraction)
            },
        ]);
    }
    tab
}

/// The §7 future-work experiment: the stop-and-copy collector vs the
/// promised incremental collector with bounded pauses, measured where
/// pauses hurt — round-trip latency jitter on a live connection.
pub struct GcPauseStudy {
    /// (collector name, mean RTT, max RTT, total GC pause, max GC pause).
    pub rows: Vec<(&'static str, VirtualDuration, VirtualDuration, VirtualDuration, VirtualDuration)>,
}

/// Runs many echo rounds under each collector and reports the jitter.
pub fn gc_pause_study(rounds: usize, seed: u64) -> GcPauseStudy {
    let mut rows = Vec::new();
    for (name, cost) in [
        ("stop-and-copy (SML/NJ '94)", CostModel::decstation_sml()),
        ("incremental, 5 ms bound ('95 plan)", CostModel::decstation_sml_incremental()),
    ] {
        let cfg = TcpConfig { initial_window: 4096, ..TcpConfig::default() };
        let cell = Cell::new(StackKind::FoxStandard, cost, cfg, seed);
        let (net, mut server, mut client) = cell.pair(EventSink::off());
        // 512-byte echoes allocate enough to keep the collector busy.
        let r = ping_pong(&net, &mut server, &mut client, rounds, 512, cell.deadline);
        let gc = server.host().with(|h| h.gc_stats().cloned()).unwrap_or_default();
        rows.push((name, r.mean_rtt, r.max_rtt, gc.total_pause, gc.max_pause));
    }
    GcPauseStudy { rows }
}

/// Renders the pause study.
pub fn render_gc_pause_study(t: &GcPauseStudy) -> Table {
    let mut tab = Table::new(
        "GC pause study (paper §7: an incremental collector should bound the disruption)",
        &["collector", "mean RTT", "max RTT", "GC total", "GC max pause"],
    );
    for (name, mean, max, total, maxp) in &t.rows {
        tab.row(&[
            name.to_string(),
            format!("{mean}"),
            format!("{max}"),
            format!("{total}"),
            format!("{maxp}"),
        ]);
    }
    tab
}

/// Loss-rate robustness sweep (exercises Resend/Karn/backoff end to
/// end — the conditions the quasi-synchronous design is meant to make
/// testable).
pub fn loss_sweep(bytes: usize, seed: u64) -> Vec<(f64, f64, u64)> {
    [0.0, 0.01, 0.05, 0.10]
        .iter()
        .map(|&p| {
            let mut cell = table1_cell(StackKind::FoxStandard, CostModel::modern(), seed);
            cell.net.faults.drop_chance = p;
            let r = cell.bulk(bytes);
            assert_eq!(r.bytes, bytes, "transfer completes even at {p} loss");
            (p, r.throughput_mbps, r.sender.retransmits)
        })
        .collect()
}

/// Cross-implementation throughput matrix: every (client, server)
/// pairing of the two TCPs on equal (modern) machines. Both the
/// standard-conformance evidence (they interoperate) and a view of which
/// side's implementation limits a mixed deployment.
pub fn interop_matrix(bytes: usize, seed: u64) -> Vec<(String, f64)> {
    let kinds = [StackKind::FoxStandard, StackKind::XKernel];
    let mut rows = Vec::new();
    for &sender in &kinds {
        for &receiver in &kinds {
            let cfg = TcpConfig { delayed_ack_ms: None, ..paper_tcp_config() };
            let res = Cell { receiver, ..Cell::new(sender, CostModel::modern(), cfg, seed) }.bulk(bytes);
            assert_eq!(res.bytes, bytes, "{} -> {}", sender.name(), receiver.name());
            rows.push((format!("{} -> {}", sender.name(), receiver.name()), res.throughput_mbps));
        }
    }
    rows
}

/// Renders the interop matrix.
pub fn render_interop_matrix(rows: &[(String, f64)]) -> Table {
    let mut tab =
        Table::new("Interoperation matrix (sender -> receiver, free CPU, Mb/s)", &["pairing", "Mb/s"]);
    for (name, mbps) in rows {
        tab.row(&[name.clone(), f2(*mbps)]);
    }
    tab
}

/// The fault profiles of the loss matrix: one fault class per row, each
/// strong enough to provoke recovery but survivable by both stacks.
pub fn loss_matrix_profiles() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("drop 5%", FaultConfig { drop_chance: 0.05, ..FaultConfig::default() }),
        // Gilbert–Elliott: mean burst of 3 frames dropping 90%, entered
        // once per ~50 frames — short clustered losses that take out part
        // of a window, the regime fast recovery (and its NewReno
        // partial-ACK path) exists for. Longer bursts kill whole windows
        // and degenerate into pure RTO grind.
        ("burst (GE)", FaultConfig::bursty(1.0 / 50.0, 1.0 / 3.0, 0.9)),
        ("corrupt 3%", FaultConfig { corrupt_chance: 0.03, ..FaultConfig::default() }),
        ("duplicate 5%", FaultConfig { duplicate_chance: 0.05, ..FaultConfig::default() }),
        (
            "reorder (1 ms jitter)",
            FaultConfig { jitter: VirtualDuration::from_millis(1), ..FaultConfig::default() },
        ),
    ]
}

/// A window wide enough (≥ 11 MSS) that three duplicate ACKs can
/// actually accumulate behind a hole; the paper's 4096-byte window is
/// under three segments and would mask fast retransmit entirely.
pub fn loss_matrix_config() -> TcpConfig {
    TcpConfig { initial_window: 16384, send_buffer: 32768, delayed_ack_ms: None, ..TcpConfig::default() }
}

/// One loss-matrix cell, declared: `kind` at both ends on free CPUs
/// over a link with `faults`. Unlike the fault-free Table 1 cell — whose
/// event stream does not depend on the seed at all — a lossy cell
/// consumes the fault dice, so different seeds diverge. Passing a `cfg`
/// other than [`loss_matrix_config`] trace-diffs a configuration change
/// (a congestion algorithm, an offered option) against the pinned
/// defaults on the same dice.
pub fn loss_cell(kind: StackKind, faults: FaultConfig, cfg: TcpConfig, seed: u64) -> Cell {
    Cell {
        net: NetConfig { faults, ..NetConfig::default() },
        // A finite deadline (ten virtual minutes): a wedged cell must fail
        // the delivery assert, not grind the harness forever.
        deadline: VirtualTime::from_millis(600_000),
        ..Cell::new(kind, CostModel::modern(), cfg, seed)
    }
}

/// The loss matrix: {drop, burst, corrupt, duplicate, reorder} × {Fox
/// Net, x-kernel} on fixed seeds. Every cell must deliver every byte,
/// and every cell is run twice to assert that identical seeds give
/// bit-identical outcomes — the paper's determinism claim extended to
/// the fault harness itself.
pub fn loss_matrix(bytes: usize, seed: u64) -> Table {
    let mut tab = Table::new(
        "Loss matrix (every cell delivered all bytes; identical seeds replay bit-identically)",
        &["profile", "stack", "Mb/s", "retx", "fast retx", "recoveries", "RTO"],
    );
    for (profile, faults) in loss_matrix_profiles() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let cell = loss_cell(kind, faults.clone(), loss_matrix_config(), seed);
            let r = replayed(&cell, || cell.bulk(bytes));
            assert_eq!(r.bytes, bytes, "{profile}: transfer must complete: {cell:?}");
            tab.row(&[
                profile.into(),
                kind.name().into(),
                f2(r.throughput_mbps),
                r.sender.retransmits.to_string(),
                r.sender.fast_retransmits.to_string(),
                r.sender.recoveries.to_string(),
                r.sender.rto_fires.to_string(),
            ]);
        }
    }
    tab
}

// ----- TCP options: interop matrix and SACK-vs-NewReno (DESIGN.md §5.9) -----

/// The option profiles of the interop matrix: every option alone, none,
/// and all together, so a negotiation bug in any single module shows up
/// as its own row.
pub fn option_profiles() -> Vec<(&'static str, bool, bool, bool)> {
    vec![
        // (name, window_scale, sack, timestamps)
        ("none", false, false, false),
        ("wscale", true, false, false),
        ("sack", false, true, false),
        ("ts", false, false, true),
        ("all", true, true, true),
    ]
}

/// The loss-matrix config with one option profile switched on. The
/// window stays at the loss-matrix size so the `none` rows are directly
/// comparable with the loss matrix itself.
fn option_config(wscale: bool, sack: bool, ts: bool) -> TcpConfig {
    TcpConfig { window_scale: wscale, sack, timestamps: ts, ..loss_matrix_config() }
}

/// The options interop matrix: {none, wscale, sack, ts, all} × {fox→fox,
/// fox→xk, xk→fox} × every loss-matrix fault profile, on fixed seeds.
/// Every cell must deliver every byte, and every cell runs twice to
/// assert that identical seeds replay bit-identically — negotiation must
/// not perturb determinism. The x-kernel pairings additionally prove
/// that each option degrades cleanly against a peer with a simpler
/// implementation (xk echoes timestamps but keeps go-back-N, so its
/// SackPermitted never grows a scoreboard).
pub fn options_interop(bytes: usize, seed: u64) -> Table {
    let mut tab = Table::new(
        "Options interop matrix (every cell delivered all bytes; identical seeds replay bit-identically)",
        &["options", "pairing", "fault profile", "Mb/s", "retx"],
    );
    let pairings = [
        (StackKind::FoxStandard, StackKind::FoxStandard),
        (StackKind::FoxStandard, StackKind::XKernel),
        (StackKind::XKernel, StackKind::FoxStandard),
    ];
    for (opts, wscale, sack, ts) in option_profiles() {
        let cfg = option_config(wscale, sack, ts);
        for &(sender, receiver) in &pairings {
            for (profile, faults) in loss_matrix_profiles() {
                let cell = Cell { receiver, ..loss_cell(sender, faults, cfg.clone(), seed) };
                let r = replayed(&cell, || cell.bulk(bytes));
                assert_eq!(r.bytes, bytes, "{opts}/{profile}: transfer must complete: {cell:?}");
                tab.row(&[
                    opts.into(),
                    format!("{} -> {}", sender.name(), receiver.name()),
                    profile.into(),
                    f2(r.throughput_mbps),
                    r.sender.retransmits.to_string(),
                ]);
            }
        }
    }
    tab
}

fn sack_cell(sack: bool, bytes: usize, seed: u64) -> BulkResult {
    // A window wide enough (~43 MSS) for a burst to punch several holes
    // into one flight — the multi-hole regime where cumulative-ACK
    // NewReno retransmits one hole per RTT while the SACK scoreboard
    // fills them all in the first.
    let cfg = TcpConfig {
        initial_window: 65535,
        send_buffer: 131072,
        delayed_ack_ms: None,
        sack,
        ..TcpConfig::default()
    };
    let faults = FaultConfig::bursty(1.0 / 50.0, 1.0 / 3.0, 0.9);
    let res = loss_cell(StackKind::FoxStandard, faults, cfg, seed).bulk(bytes);
    assert_eq!(res.bytes, bytes, "{}: transfer must complete", if sack { "SACK" } else { "NewReno" });
    res
}

/// SACK-based loss recovery (RFC 6675) against plain NewReno under
/// Gilbert–Elliott burst loss: the same transfer, seeds, and network on
/// both sides, differing only in whether the SACK option is offered.
/// Asserts that across the seeds SACK retransmits strictly fewer payload
/// bytes and completes strictly sooner in aggregate — the scoreboard
/// retransmits only the holes the bursts actually punched, where
/// go-one-hole-per-RTT NewReno rewinds and waits.
pub fn sack_vs_newreno(bytes: usize, seed: u64) -> Table {
    let mut tab = Table::new(
        "SACK vs NewReno under Gilbert-Elliott burst loss (fox -> fox, 64 KB window)",
        &["seed", "scheme", "elapsed (ms)", "retx bytes", "retx", "RTO"],
    );
    // (payload bytes retransmitted, completion ms) summed over the seeds:
    // NewReno, then SACK.
    let mut totals = [(0u64, 0.0f64); 2];
    for s in seed..seed + 3 {
        for (sack, total) in [false, true].into_iter().zip(&mut totals) {
            let r = sack_cell(sack, bytes, s);
            let elapsed_ms = r.elapsed.as_micros() as f64 / 1e3;
            let retransmitted_bytes = r.sender.bytes_sent - r.bytes as u64;
            total.0 += retransmitted_bytes;
            total.1 += elapsed_ms;
            tab.row(&[
                s.to_string(),
                if sack { "SACK" } else { "NewReno" }.into(),
                f1(elapsed_ms),
                retransmitted_bytes.to_string(),
                r.sender.retransmits.to_string(),
                r.sender.rto_fires.to_string(),
            ]);
        }
    }
    let [(nr_bytes, nr_ms), (sk_bytes, sk_ms)] = totals;
    assert!(
        sk_bytes < nr_bytes,
        "SACK must retransmit fewer payload bytes than NewReno ({sk_bytes} vs {nr_bytes})"
    );
    assert!(sk_ms < nr_ms, "SACK must complete sooner than NewReno ({sk_ms:.1} ms vs {nr_ms:.1} ms)");
    tab
}

// ----- copy accounting (DESIGN.md §5.6: the buffer architecture) -----

/// Runs the Table 1 bulk transfer once per stack with the thread-local
/// copy counter zeroed, and reports what each implementation memcpy'd
/// through the packet-buffer layer. The counter is purely observational
/// — the virtual cost model charges the paper's per-KB constants
/// independently — so these numbers measure what the zero-copy buffer
/// architecture actually saves, per stack. The Fox stack stages each
/// segment once (ring -> [`PacketBuf`] with headroom, checksum folded
/// into the same pass); the baseline stages headroom-free and pays
/// again when the header is prepended.
///
/// [`PacketBuf`]: foxbasis::buf::PacketBuf
pub fn copy_comparison(bytes: usize, seed: u64) -> Table {
    use foxbasis::buf::{copy_stats, reset_copy_stats};
    let mut tab = Table::new(
        "Buffer copies on the Table 1 bulk workload (both hosts, user copy excluded)",
        &["stack", "copies", "bytes", "segments", "copies/pkt", "bytes/pkt"],
    );
    let runs = [
        (StackKind::FoxStandard, CostModel::decstation_sml()),
        (StackKind::XKernel, CostModel::decstation_c()),
    ];
    for (kind, cost) in runs {
        reset_copy_stats();
        let bulk = table1_cell(kind, cost, seed).bulk(bytes);
        let cs = copy_stats();
        assert_eq!(bulk.bytes, bytes, "{}: transfer must complete", kind.name());
        let segments = bulk.sender.segments_sent + bulk.receiver.segments_sent;
        let per_segment = |n: u64| if segments == 0 { 0.0 } else { n as f64 / segments as f64 };
        tab.row(&[
            kind.name().into(),
            cs.copies.to_string(),
            cs.bytes.to_string(),
            segments.to_string(),
            f2(per_segment(cs.copies)),
            f1(per_segment(cs.bytes)),
        ]);
    }
    tab
}

/// Renders the loss sweep.
pub fn render_loss_sweep(rows: &[(f64, f64, u64)]) -> Table {
    let mut tab = Table::new("Loss-rate sweep (Fox Net, free CPU)", &["loss", "Mb/s", "retransmits"]);
    for (p, mbps, retx) in rows {
        tab.row(&[format!("{:.0}%", p * 100.0), f2(*mbps), retx.to_string()]);
    }
    tab
}

/// The scale experiment: [`many_flows`] at each concurrency in `ns`
/// (paper setup × N — the regime Table 1 never reaches), fox and
/// x-kernel back to back on identical segments. Every client downloads
/// 8 KB (even index) or runs eight 64-byte round trips (odd index).
/// Both stacks run on the same DECstation C cost model, so the host-cost
/// column compares implementations, not machines.
pub fn scale_experiment(ns: &[usize], seed: u64) -> Table {
    let mut tab = Table::new(
        "Scale: N concurrent connections through one server (DECstation C cost model)",
        &[
            "stack",
            "N",
            "done",
            "agg Mb/s",
            "bulk Mb/s",
            "ping ms",
            "cpu ms",
            "tmr arms",
            "tmr fires",
            "casc",
            "dmx look",
            "dmx steps",
            "steps/look",
        ],
    );
    for &kind in &[StackKind::FoxStandard, StackKind::XKernel] {
        for &n in ns {
            let net = SimNet::new(NetConfig::default(), seed);
            let r = many_flows(
                &net,
                kind,
                n,
                8192,
                8,
                CostModel::decstation_c,
                &EventSink::off(),
                VirtualTime::from_millis(600_000),
            );
            let bulk: Vec<f64> = r.per_flow.iter().filter(|f| f.bulk).map(|f| f.mbps()).collect();
            let ping: Vec<f64> = r
                .per_flow
                .iter()
                .filter(|f| !f.bulk)
                .map(|f| f.elapsed.as_secs_f64() * 1000.0 / 8.0)
                .collect();
            let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
            let sc = r.server_scale;
            tab.row(&[
                kind.name().into(),
                n.to_string(),
                format!("{}/{n}", r.completed),
                f2(r.aggregate_mbps),
                f2(mean(&bulk)),
                f2(mean(&ping)),
                f1(r.server_busy.as_secs_f64() * 1000.0),
                sc.timer_arms.to_string(),
                sc.timer_fires.to_string(),
                sc.timer_cascades.to_string(),
                sc.demux_lookups.to_string(),
                sc.demux_steps.to_string(),
                f2(sc.demux_steps as f64 / (sc.demux_lookups as f64).max(1.0)),
            ]);
        }
    }
    tab
}

// ----- Adversarial matrix (DESIGN.md §5.12) -----

/// The link personalities the adversarial matrix crosses the attack
/// scripts with: a clean segment plus the hostile-link shapes — the
/// ADSL-style dialup↔gigabit mismatch, a bufferbloat-deep drop-tail
/// queue, an MSS-clamping middlebox, and the in-loop packet fuzzer.
pub fn adversarial_profiles() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("clean", FaultConfig::default()),
        ("dialup", FaultConfig::dialup_mismatch()),
        ("bloat", FaultConfig::bufferbloat(16)),
        ("clamp536", FaultConfig::clamped(536)),
        ("fuzz2%", FaultConfig::fuzzing(0.02)),
    ]
}

/// The adversarial matrix: every attack script × every link
/// personality × {Fox Net, x-kernel}, on a fixed seed. Every cell must
/// either survive with full delivery or be one of the two documented
/// refusals, and every cell is run twice to assert that identical
/// seeds give bit-identical reports — the adversary owns no
/// randomness, so a replayed cell is the same cell.
pub fn adversarial_matrix(seed: u64) -> Table {
    use crate::advpeer::Attack;
    let mut tab = Table::new(
        "Adversarial matrix (attack × link × stack; every cell replayed bit-identically)",
        &["attack", "link", "stack", "verdict", "delivered", "injected", "rstRej", "ackIgn", "synDrop"],
    );
    for attack in Attack::ALL {
        for (profile, faults) in adversarial_profiles() {
            for kind in [StackKind::FoxStandard, StackKind::XKernel] {
                tab.row(&adversarial_cell(kind, attack, profile, &faults, seed));
            }
        }
    }
    tab
}

/// Runs one matrix cell twice, asserting bit-identical replay, the
/// survive-or-documented-refusal outcome, and — for the attacks that
/// are *about* a counter — that the counter moved on this personality,
/// not just on the clean link. Returns the cell's row of the matrix.
fn adversarial_cell(
    kind: StackKind,
    attack: crate::advpeer::Attack,
    profile: &'static str,
    faults: &FaultConfig,
    seed: u64,
) -> [String; 9] {
    use crate::advpeer::{run_attack, Attack};
    let a = replayed(&(attack, profile, kind, seed), || run_attack(kind, attack, faults.clone(), seed));
    assert!(
        a.outcome_ok(),
        "{}/{profile}/{}: survive-or-documented-refusal violated: {a:?}",
        attack.name(),
        kind.name()
    );
    let rst_rejected = a.sender.rst_rejected_seq + a.receiver.rst_rejected_seq;
    let acks_ignored = a.sender.acks_ignored_unsent_data + a.receiver.acks_ignored_unsent_data;
    let syns_dropped = a.sender.syns_dropped + a.receiver.syns_dropped;
    match attack {
        Attack::BlindRstInWindow => assert!(
            rst_rejected >= 1,
            "{}/{profile}/{}: challenge-ACK counter never moved: {a:?}",
            attack.name(),
            kind.name()
        ),
        Attack::OptimisticAck => assert!(
            acks_ignored >= 1,
            "{}/{profile}/{}: optimistic ACKs were not counted: {a:?}",
            attack.name(),
            kind.name()
        ),
        Attack::SynFloodReplay if kind == StackKind::FoxStandard => assert!(
            syns_dropped >= 1,
            "{}/{profile}/{}: the full backlog never refused a SYN: {a:?}",
            attack.name(),
            kind.name()
        ),
        _ => {}
    }
    [
        attack.name().into(),
        profile.into(),
        kind.name().into(),
        a.verdict().into(),
        a.delivered.to_string(),
        a.injected.to_string(),
        rst_rejected.to_string(),
        acks_ignored.to_string(),
        syns_dropped.to_string(),
    ]
}
