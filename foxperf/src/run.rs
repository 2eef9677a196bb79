//! `foxperf run`: one workload, one process. Without `--trace` the
//! timed pass and the seven end-to-end metrics; with it, the traced pass
//! and every per-layer metric. Both check every rep and fail the run on
//! any mismatch.

use crate::alloc;
use crate::counters::Exact;
use crate::env::{self, Watchdog};
use crate::json::Value;
use crate::ladder::{self, Pattern, ReplayRungs, StackRungs};
use crate::metrics::{self, quantile_sorted, Stat, END_TO_END, PER_LAYER};
use crate::payload::Pool;
use crate::report;
use crate::trace::{Recorder, TraceSummary};
use crate::workloads::{self, Probe, RepOutcome, Scale, Session, Workload};
use foxbasis::obs::{EventSink, DEFAULT_RING_CAPACITY};
use foxharness::stack::StackKind;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What `foxperf run` was asked to do.
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input but `bulk-loss`'s fault schedules,
    /// which are fixed.
    pub seed: u64,
    /// How long the timed reps should measure for.
    pub seconds: f64,
    /// Traced pass instead of the timed one.
    pub trace: bool,
    /// Tiny sizes, for the tests.
    pub smoke: bool,
    /// Result file to create or merge this workload into.
    pub out: Option<PathBuf>,
    /// Where the traced pass writes its Chrome-trace spans.
    pub trace_out: Option<PathBuf>,
}

/// Timed reps are trimmed to fit `--seconds`, never below this…
pub const MIN_REPS: usize = 7;
/// …and never run beyond this.
pub const MAX_REPS: usize = 11;
/// The timed pass sets up this many times and reports the median.
const SETUPS: usize = 3;
/// Reps of each pass of the traced run.
const TRACED_REPS: usize = 3;
/// No single step may take longer than this: the whole process has to
/// end within the driver's 180 s.
const STEP_LIMIT: Duration = Duration::from_secs(100);

/// What a pass measured.
#[derive(Default)]
pub struct Measured {
    /// Every metric of the pass, in table order.
    pub metrics: Vec<(&'static metrics::Def, Stat)>,
    /// The first timed rep's exact counters (the self-check's subject).
    pub exact: Exact,
    /// Wall seconds of each timed rep, in order.
    pub rep_wall_s: Vec<f64>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// What a run found: the measurements, and the verdict of its checks.
pub struct RunResult {
    /// The pass's measurements (empty if the run was abandoned).
    pub measured: Measured,
    /// Operations attempted, all passes.
    pub attempted: u64,
    /// Operations in reps that failed a check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl RunResult {
    /// The line the driver parses.
    pub fn result_line(&self) -> String {
        let mut m = Value::object();
        for (def, stat) in &self.measured.metrics {
            // `fail_share` is the line's own `failed` / `attempted`.
            if def.name == "fail_share" {
                continue;
            }
            let mut v = Value::object();
            v.set("value", Value::Num(stat.value));
            v.set("unit", Value::Str(def.unit.into()));
            m.set(def.name, v);
        }
        let mut line = Value::object();
        line.set("correct", Value::Bool(self.failed == 0));
        line.set("attempted", Value::Num(self.attempted.max(1) as f64));
        line.set("failed", Value::Num(self.failed as f64));
        line.set("metrics", m);
        line.render()
    }
}

/// One pass: a session, its warm-up rep and its checked reps.
struct Pass {
    session: Session,
    warm: RepOutcome,
    reps: Vec<RepOutcome>,
    /// Wall time of creating the session and running the warm-up rep.
    setup: Duration,
}

struct Checker<'a> {
    workload: Workload,
    dog: &'a Watchdog,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker<'_> {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Sets up `label`'s pass: the session (for `fanin`, its 1024
    /// handshakes) and one untimed warm-up rep.
    fn set_up(&mut self, label: &str, scale: Scale, seed: u64, probe: Probe) -> Pass {
        self.dog.arm(&format!("{} {label}: set-up and warm-up rep", self.workload.name()), STEP_LIMIT);
        let t = Instant::now();
        let mut session = Session::new(self.workload, scale, seed, probe);
        let warm = session.rep();
        let setup = t.elapsed();
        self.dog.disarm();
        self.attempted += warm.ops;
        if !warm.ok {
            self.fail(warm.ops, format!("{label} warm-up rep: {}", warm.why));
        }
        Pass { session, warm, reps: Vec::new(), setup }
    }

    /// Runs one checked rep of `pass`. A rep from fresh stations must
    /// repeat the warm-up rep's virtual outcome and every exact counter;
    /// `fanin`'s reps continue on the same connections, so its delivery
    /// check (cumulative over the run) stands in.
    fn rep(&mut self, label: &str, pass: &mut Pass) {
        let i = pass.reps.len() + 1;
        let limit = (pass.warm.wall * 10).clamp(Duration::from_secs(2), STEP_LIMIT);
        self.dog.arm(&format!("{} {label}: rep {i}", self.workload.name()), limit);
        let rep = pass.session.rep();
        self.dog.disarm();
        self.attempted += rep.ops;
        // A recording sink's ring grows during the warm-up rep and not
        // after, so under it only the heap counters may differ.
        let (seen, expected) = if pass.session.records_events() {
            (rep.exact.without_heap(), pass.warm.exact.without_heap())
        } else {
            (rep.exact, pass.warm.exact)
        };
        if !rep.ok {
            self.fail(rep.ops, format!("{label} rep {i}: {}", rep.why));
        } else if self.workload.fresh_stations_per_rep() && seen != expected {
            self.fail(
                rep.ops,
                format!("{label} rep {i} differs from the warm-up rep: {}", differences(&expected, &seen)),
            );
        }
        pass.reps.push(rep);
    }
}

/// `name: a != b` for each field that differs.
fn differences(a: &Exact, b: &Exact) -> String {
    let diffs: Vec<String> = a
        .fields()
        .iter()
        .zip(b.fields())
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{}: {} != {}", x.0, x.1, y.1))
        .collect();
    diffs.join(", ")
}

fn total(reps: &[RepOutcome]) -> (Exact, u64) {
    reps.iter().fold((Exact::default(), 0), |(e, o), r| (e.plus(&r.exact), o + r.ops))
}

/// Wall seconds of the fastest rep. Every rep of a pass executes the
/// same work, so reps differ only by what the host did to them, and on
/// this kind of host that only ever adds time: over ten runs of `rr` the
/// fastest of 11 reps repeated to 1.3 % (interquartile range over
/// median) where their median repeated to 7.5 %.
fn fastest_wall(reps: &[RepOutcome]) -> f64 {
    reps.iter().map(|r| r.wall.as_secs_f64()).fold(f64::INFINITY, f64::min)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Runs the workload as asked and returns what it found; writes the
/// result and trace files if asked to.
pub fn run(args: &RunArgs, started: Instant) -> RunResult {
    let scale = if args.smoke { Scale::smoke() } else { Scale::full() };
    let dog = Watchdog::start();
    let mut check =
        Checker { workload: args.workload, dog: &dog, attempted: 0, failed: 0, failures: Vec::new() };
    // The repository's workload functions `expect` their way through a
    // transfer; a connection that died turns up here as a panic (the
    // hook has already printed it) and becomes a failed run, not an
    // abort.
    let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.trace {
            traced(args, scale, &mut check)
        } else {
            timed(args, scale, &mut check, started)
        }
    }));
    let measured = pass.unwrap_or_else(|_| {
        let ops = scale.ops(args.workload, StackKind::FoxStandard) as u64;
        check.attempted += ops;
        check.fail(ops, "a rep panicked (see standard error); the run was abandoned".into());
        Measured::default()
    });
    dog.disarm();
    let mut result =
        RunResult { measured, attempted: check.attempted, failed: check.failed, failures: check.failures };
    if let Some(path) = &args.out {
        if let Err(e) = report::merge_into(path, args, &result) {
            result.failed += 1;
            result.failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    result
}

// ----------------------------------------------------------------------
// The timed pass
// ----------------------------------------------------------------------

fn timed(args: &RunArgs, scale: Scale, check: &mut Checker<'_>, started: Instant) -> Measured {
    let probe = || Probe::plain(StackKind::FoxStandard);
    // Set-up is measured several times — inputs from the seed, stations,
    // `fanin`'s handshakes, the warm-up rep — and the median reported:
    // one sample of a second-long interval is too noisy to gate on. The
    // first sample starts at process start, the last one's session is
    // the one the timed reps run on.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pass = None;
    for i in 0..SETUPS {
        drop(pass.take());
        let before = started.elapsed();
        let p = check.set_up("timed pass", scale, args.seed, probe());
        setups.push(if i == 0 { (before + p.setup).as_secs_f64() } else { p.setup.as_secs_f64() });
        pass = Some(p);
    }
    let mut pass = pass.expect("SETUPS > 0");

    alloc::reset_peak();
    let budget = Duration::from_secs_f64(args.seconds);
    let t = Instant::now();
    while pass.reps.len() < MAX_REPS && (pass.reps.len() < MIN_REPS || t.elapsed() < budget) {
        check.rep("timed pass", &mut pass);
    }
    let reps = &pass.reps;

    // The exact metrics cover the reps every run has, so that a run
    // which fitted more reps into its time reports the same values.
    let (exact, ops) = total(&reps[..reps.len().min(MIN_REPS)]);
    let per_rep = |f: &dyn Fn(&RepOutcome) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let with_spread = |value: f64, samples: Vec<f64>| Stat { value, ..Stat::of(&samples) };

    let stats = [
        Stat::of(&setups),
        with_spread(
            pass.session.ops() as f64 / fastest_wall(reps),
            per_rep(&|r| r.ops as f64 / r.wall.as_secs_f64()),
        ),
        with_spread(
            ops as f64 / (exact.virt_us as f64 / 1e6),
            per_rep(&|r| r.ops as f64 / (r.exact.virt_us as f64 / 1e6)),
        ),
        with_spread(ratio(exact.allocs, ops), per_rep(&|r| ratio(r.exact.allocs, r.ops))),
        with_spread(ratio(exact.wire_bytes, ops), per_rep(&|r| ratio(r.exact.wire_bytes, r.ops))),
        Stat::single(env::peak_rss_mb()),
        Stat::single(ratio(check.failed, check.attempted)),
    ];
    let mut notes = vec![format!(
        "{} timed reps of {} ops after {SETUPS} set-ups; exact metrics over the first {}",
        reps.len(),
        pass.session.ops(),
        reps.len().min(MIN_REPS)
    )];
    if args.workload == Workload::Churn {
        notes.push(format!(
            "most connections resident in TIME-WAIT at once: {} (limit {})",
            reps.iter().map(|r| r.time_wait_peak).max().unwrap_or(0),
            workloads::TIME_WAIT_LIMIT
        ));
    }
    Measured {
        metrics: END_TO_END.iter().zip(stats).collect(),
        exact: reps.first().map_or(Exact::default(), |r| r.exact),
        rep_wall_s: reps.iter().map(|r| r.wall.as_secs_f64()).collect(),
        notes,
    }
}

// ----------------------------------------------------------------------
// The traced pass
// ----------------------------------------------------------------------

/// Nanoseconds `foxbasis::checksum` takes per KiB of payload (fastest of
/// nine passes over a megabyte).
fn checksum_ns_per_kb(seed: u64) -> f64 {
    let pool = Pool::new(seed);
    let bytes = pool.period();
    (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut folded = 0u16;
            for segment in bytes.chunks(workloads::MSS) {
                folded ^= foxbasis::checksum::checksum(black_box(segment));
            }
            black_box(folded);
            t.elapsed().as_nanos() as f64 / (bytes.len() as f64 / 1024.0)
        })
        .fold(f64::INFINITY, f64::min)
}

fn traced(args: &RunArgs, scale: Scale, check: &mut Checker<'_>) -> Measured {
    let w = args.workload;
    let seed = args.seed;
    let reps_per_pass = if args.smoke { 2 } else { TRACED_REPS };
    let fox = StackKind::FoxStandard;
    let mut notes = Vec::new();

    // (1) The untraced reference, exactly as the timed pass runs it.
    let mut plain = check.set_up("untraced pass", scale, seed, Probe::plain(fox));
    alloc::reset_peak();
    for _ in 0..reps_per_pass {
        check.rep("untraced pass", &mut plain);
    }
    let peak_live = alloc::snapshot().peak_live;
    let fanin_setup = plain.session.fanin().map(|f| (f.heap_bytes_per_conn, f.allocs_per_conn));

    // (2) The same reps with a span around every call into a station.
    let recorder = Rc::new(Recorder::new(w.op_mark(), plain.session.ops()));
    let probe = Probe { recorder: Some(recorder.clone()), ..Probe::plain(fox) };
    let mut spans = check.set_up("traced pass", scale, seed, probe);
    for _ in 0..reps_per_pass {
        check.rep("traced pass", &mut spans);
    }
    // The wrapper must be transparent: same seed, same rep, same counts.
    for (i, (a, b)) in plain.reps.iter().zip(&spans.reps).enumerate() {
        if a.exact != b.exact {
            check.fail(
                b.ops,
                format!("traced rep {} differs from untraced: {}", i + 1, differences(&a.exact, &b.exact)),
            );
        }
    }
    let summary = recorder.summary();
    let trace_overhead = (fastest_wall(&spans.reps) / fastest_wall(&plain.reps) - 1.0) * 100.0;
    // Warm-up rep included: the recorder saw it too.
    let traced_ops = spans.warm.ops + total(&spans.reps).1;
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, recorder.to_chrome_trace()) {
            check.fail(1, format!("cannot write {}: {e}", path.display()));
        }
    }
    drop(spans);

    // (3) The monolith as control: same workload, x-kernel stations.
    let mut xk = check.set_up("x-kernel control", scale, seed, Probe::plain(StackKind::XKernel));
    for _ in 0..reps_per_pass {
        check.rep("x-kernel control", &mut xk);
    }
    let (xk_exact, xk_ops) = total(&xk.reps);
    let xk_rate = xk.session.ops() as f64 / fastest_wall(&xk.reps);
    drop(xk);

    // (4) Observability on: a recording sink in every layer, against the
    // same reps without it, both at the ladder's size.
    let small = scale.for_ladder();
    let mut quiet = check.set_up("obs reference", small, seed, Probe::plain(fox));
    let sink = EventSink::recording(DEFAULT_RING_CAPACITY);
    let mut loud =
        check.set_up("obs recording", small, seed, Probe { sink: sink.clone(), ..Probe::plain(fox) });
    for _ in 0..reps_per_pass {
        check.rep("obs reference", &mut quiet);
        check.rep("obs recording", &mut loud);
    }
    let obs_overhead = (fastest_wall(&loud.reps) / fastest_wall(&quiet.reps) - 1.0) * 100.0;
    let loud_ops = loud.warm.ops + total(&loud.reps).1;
    let obs_events = sink.len() as u64 + sink.dropped();
    let obs_dropped = sink.dropped();
    drop((quiet, loud, sink));

    // (5) The ladder. Replay rungs on a capture of this workload's own
    // frames; stack rungs where the workload is one connection.
    let mut cap = check.set_up("capture", small, seed, Probe { capture: true, ..Probe::plain(fox) });
    check.dog.arm(&format!("{} ladder", w.name()), STEP_LIMIT);
    let replay = match cap.warm.capture.take() {
        Some(c) => ladder::replay_rungs(&c, seed, reps_per_pass),
        None => ReplayRungs { error: Some("no capture was taken".into()), ..ReplayRungs::default() },
    };
    drop(cap);
    if let Some(e) = &replay.error {
        check.fail(1, format!("ladder: {e}"));
    }
    let pattern = match w {
        Workload::Bulk => Some(Pattern::Bulk(small.bulk_bytes)),
        Workload::BulkLoss => Some(Pattern::Bulk(small.loss_bytes)),
        Workload::Rr => Some(Pattern::RoundTrips(small.rr_rounds)),
        Workload::Churn | Workload::Fanin => None,
    };
    let stack = match pattern.map(|p| ladder::stack_rungs(w, p, workloads::net_seed(w, seed), reps_per_pass))
    {
        Some(Ok(rungs)) => rungs,
        Some(Err(e)) => {
            check.fail(1, format!("ladder: {e}"));
            StackRungs::default()
        }
        None => StackRungs::default(),
    };
    let checksum_ns = checksum_ns_per_kb(seed);
    check.dog.disarm();

    // ---- reduce ----
    let (e, ops) = total(&plain.reps);
    let first = plain.reps.first().map_or(Exact::default(), |r| r.exact);
    let per_op = |count: u64| ratio(count, ops);
    let station_ns = fastest_wall(&plain.reps) * 1e9 / plain.session.ops() as f64;
    let fox_rate = 1e9 / station_ns;
    let frames_per_op = per_op(e.frames_sent);
    let has_budget = matches!(w, Workload::Bulk | Workload::Rr);
    let pattern_ops = pattern.map_or(1, Pattern::ops) as f64;
    let (p50, p99) = if summary.virt_op_us.len() >= 2 {
        (quantile_sorted(&summary.virt_op_us, 0.5), quantile_sorted(&summary.virt_op_us, 0.99))
    } else {
        (0.0, 0.0)
    };
    let value = |name: &str| -> f64 {
        match name {
            "wire.ns_per_op" => replay.wire_ns * frames_per_op,
            "foxbasis.checksum_ns_per_kb" => checksum_ns,
            "foxbasis.copies_per_op" => per_op(e.copies),
            "foxbasis.copy_bytes_per_op" => per_op(e.copy_bytes),
            "foxbasis.wheel_arms_per_op" => per_op(e.timer_arms),
            "foxbasis.wheel_cancels_per_op" => per_op(e.timer_cancels),
            "foxbasis.wheel_fires_per_op" => per_op(e.timer_fires),
            "foxbasis.wheel_cascades_per_op" => per_op(e.timer_cascades),
            "simnet.ns_per_frame" => replay.simnet_ns,
            // The two differences of stack rungs exist only where all
            // three rungs ran.
            "simnet.cost_ns_per_op" | "harness.ns_per_op" if !has_budget => 0.0,
            "simnet.cost_ns_per_op" => stack.stack_modern.ns_per_op - stack.stack_free.ns_per_op,
            "simnet.frames_per_op" => frames_per_op,
            "simnet.dropped_fault" => first.frames_dropped_fault as f64,
            "simnet.dropped_overflow" => first.frames_dropped_overflow as f64,
            "simnet.virt_busy_share" => ratio(e.host0_busy_ns, e.virt_us * 1000),
            "protocols.dev_ns_per_frame" => replay.dev_ns - replay.simnet_ns,
            "protocols.eth_ns_per_frame" => replay.eth_ns - replay.dev_ns,
            "protocols.ip_ns_per_frame" => replay.ip_ns - replay.eth_ns,
            "protocols.frames_per_batch" => replay.frames_per_batch,
            "protocols.eth_fcs_drops" => replay.fcs_drops as f64,
            "foxtcp.engine_ns_per_op" => stack.engine.ns_per_op,
            "foxtcp.stack_ns_per_op" => stack.stack_free.ns_per_op,
            "foxtcp.segs_per_op" => per_op(e.segments_sent),
            "foxtcp.actions_per_op" => stack.stack_modern.counts.actions as f64 / pattern_ops,
            "foxtcp.fastpath_share" => ratio(e.fastpath_hits, e.fastpath_hits + e.fastpath_misses),
            "foxtcp.out_of_order" => stack.stack_modern.counts.out_of_order as f64,
            "foxtcp.retransmits" => first.retransmits as f64,
            "foxtcp.fast_retransmits" => first.fast_retransmits as f64,
            "foxtcp.rto_fires" => first.rto_fires as f64,
            "foxtcp.recoveries" => first.recoveries as f64,
            "foxtcp.demux_steps_per_lookup" => ratio(e.demux_steps, e.demux_lookups),
            "foxtcp.idle_step_ns" => summary.idle_step_ns,
            "foxtcp.steps_per_op" => ratio(summary.steps, traced_ops),
            "foxtcp.conn_heap_bytes" => fanin_setup.map_or(0.0, |f| f.0),
            "foxtcp.allocs_per_conn" => match w {
                Workload::Churn => per_op(e.allocs),
                _ => fanin_setup.map_or(0.0, |f| f.1),
            },
            "xktcp.ops_per_s" => xk_rate,
            "xktcp.virt_ops_per_s" => xk_ops as f64 / (xk_exact.virt_us as f64 / 1e6),
            "xktcp.allocs_per_op" => ratio(xk_exact.allocs, xk_ops),
            "xktcp.wire_bytes_per_op" => ratio(xk_exact.wire_bytes, xk_ops),
            "xktcp.demux_steps_per_lookup" => ratio(xk_exact.demux_steps, xk_exact.demux_lookups),
            "xktcp.fox_over_xk" => fox_rate / xk_rate,
            "harness.ns_per_op" => station_ns - stack.stack_modern.ns_per_op,
            "harness.app_ns_per_op" => ratio(summary.app_io_ns, traced_ops),
            "harness.drive_iters_per_op" => ratio(summary.drive_iters, traced_ops),
            "harness.idle_ticks_per_op" => ratio(summary.idle_ticks, traced_ops),
            "harness.virt_op_us_p50" => p50,
            "harness.virt_op_us_p99" => p99,
            "harness.obs_overhead_pct" => obs_overhead,
            "harness.obs_events_per_op" => ratio(obs_events, loud_ops),
            "harness.obs_dropped" => obs_dropped as f64,
            "harness.trace_overhead_pct" => trace_overhead,
            "alloc.bytes_per_op" => per_op(e.alloc_bytes),
            "alloc.peak_live_bytes" => peak_live as f64,
            other => unreachable!("no value computed for per-layer metric {other}"),
        }
    };
    let metrics: Vec<_> = PER_LAYER.iter().map(|d| (d, Stat::single(value(d.name)))).collect();

    notes.push(format!(
        "untraced reference: {:.0} ns/op ({:.0} ops/s) over {} reps of {} ops; {} frames captured at ladder scale",
        station_ns,
        fox_rate,
        plain.reps.len(),
        plain.session.ops(),
        replay.frames
    ));
    notes.extend(self_time_split(&summary, traced_ops));
    if has_budget {
        notes.extend(budget(&replay, &stack, frames_per_op, station_ns, pattern_ops));
    }
    if summary.spans_dropped > 0 {
        notes.push(format!(
            "{} spans beyond the {}-span buffer were timed and counted but not kept",
            summary.spans_dropped,
            crate::trace::SPAN_CAP
        ));
    }
    Measured {
        metrics,
        exact: first,
        rep_wall_s: plain.reps.iter().map(|r| r.wall.as_secs_f64()).collect(),
        notes,
    }
}

/// Where the traced reps' wall time went, seen from the `Station`
/// boundary: inside `step` (the stack), inside the other calls (the
/// application's side), and the rest (the driver and the simulated
/// wire).
fn self_time_split(s: &TraceSummary, ops: u64) -> Vec<String> {
    let per = |ns: u64| ns as f64 / ops.max(1) as f64;
    let outside = s.rep_ns.saturating_sub(s.stack_ns + s.app_ns);
    vec![format!(
        "self time per op, traced reps: stack (step) {:.0} ns, app (other station calls) {:.0} ns, \
         drive + simnet (outside any station call) {:.0} ns, total {:.0} ns",
        per(s.stack_ns),
        per(s.app_ns),
        per(outside),
        per(s.rep_ns)
    )]
}

/// The ladder as a budget: adjacent rungs subtracted, so the rows name
/// layers. The rows telescope — the last is the end-to-end figure minus
/// the last stack rung — so their sum equals that figure by construction
/// and checks nothing; what the table can show is a rung that is not
/// nested in the next, as a row below zero, and it says so.
fn budget(
    r: &ReplayRungs,
    s: &StackRungs,
    frames_per_op: f64,
    station_ns: f64,
    pattern_ops: f64,
) -> Vec<String> {
    let below_tcp = r.ip_ns * frames_per_op;
    let rows = [
        ("simnet (raw port)", r.simnet_ns * frames_per_op),
        ("protocols: dev", (r.dev_ns - r.simnet_ns) * frames_per_op),
        ("protocols: eth", (r.eth_ns - r.dev_ns) * frames_per_op),
        ("protocols: ip", (r.ip_ns - r.eth_ns) * frames_per_op),
        ("foxtcp: engine (over testlink)", s.engine.ns_per_op),
        (
            "foxtcp: tcp<->ip seam (stack - engine - below)",
            s.stack_free.ns_per_op - s.engine.ns_per_op - below_tcp,
        ),
        ("simnet: cost model + batching", s.stack_modern.ns_per_op - s.stack_free.ns_per_op),
        ("harness: station + drive + checks", station_ns - s.stack_modern.ns_per_op),
    ];
    let mut out = vec!["ladder budget, ns per op:".to_string()];
    let mut sum = 0.0;
    for (name, ns) in rows {
        sum += ns;
        out.push(format!("  {name:<48} {ns:>10.0}  {:>5.1} %", ns / station_ns * 100.0));
    }
    out.push(format!(
        "  {:<48} {sum:>10.0}  (= untraced end to end, {station_ns:.0}, by construction: the rows telescope)",
        "sum"
    ));
    let below_zero: Vec<&str> = rows.iter().filter(|(_, ns)| *ns < 0.0).map(|(name, _)| *name).collect();
    if !below_zero.is_empty() {
        out.push(format!(
            "  below zero, so not a cost — the taller rung ran a cheaper schedule or the difference is noise: {}",
            below_zero.join("; ")
        ));
    }
    out.push(format!("  of which foxwire codecs (inside eth, ip and tcp): {:.0}", r.wire_ns * frames_per_op));
    // The rungs are not strict subsets of one another: a link with
    // latency and a machine with costs change the schedule, which the
    // engines' own counts make visible.
    out.push("  stack rungs (ns, Tcp::step calls, segments, actions; per op):".to_string());
    for (name, rung) in [
        ("Tcp over testlink, free host", &s.engine),
        ("Tcp(Ip(Eth(Dev))), free cost model, no batching", &s.stack_free),
        ("Tcp(Ip(Eth(Dev))), modern_gbps + GRO/TSO 8", &s.stack_modern),
    ] {
        out.push(format!(
            "    {name:<48} {:>8.0} {:>7.2} {:>6.2} {:>6.2}",
            rung.ns_per_op,
            rung.steps as f64 / pattern_ops,
            rung.counts.segments_sent as f64 / pattern_ops,
            rung.counts.actions as f64 / pattern_ops
        ));
    }
    out
}
