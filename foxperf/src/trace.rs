//! Spans recorded from outside the program: the traced pass wraps each
//! station in a [`crate::station::TimedStation`], which brackets every
//! call across the `Station` boundary with the [`Recorder`] here. Spans
//! live in a buffer allocated before the rep starts (recording never
//! allocates, so the allocation counts of a traced and an untraced rep
//! are identical) and are written as Chrome-trace JSON when the
//! benchmark ends.

use foxbasis::time::VirtualTime;
use simnet::SimNet;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// The calls a span can bracket.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Call {
    /// One whole rep (the root span; every other span's parent).
    Rep,
    /// `Station::connect`.
    Connect,
    /// `Station::listen`.
    Listen,
    /// `Station::accept`.
    Accept,
    /// `Station::send`.
    Send,
    /// `Station::recv`.
    Recv,
    /// `received_len`, `established`, `peer_closed`, `finished`.
    Query,
    /// `Station::close`.
    Close,
    /// `Station::step` — the stack itself.
    Step,
}

const CALLS: usize = Call::Step as usize + 1;

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Rep => "rep",
            Call::Connect => "connect",
            Call::Listen => "listen",
            Call::Accept => "accept",
            Call::Send => "send",
            Call::Recv => "recv",
            Call::Query => "query",
            Call::Close => "close",
            Call::Step => "step",
        }
    }
}

/// One recorded span.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
    /// The operation in progress when the call was made.
    pub op: u32,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// What was called.
    pub call: Call,
    /// Which station (index in the slice handed to `drive`).
    pub station: u8,
}

/// How many spans the buffer keeps; calls beyond it are still counted
/// and timed into the totals, only their individual spans are dropped
/// (and the drop is reported).
pub const SPAN_CAP: usize = 400_000;
const IDLE_SAMPLE_CAP: usize = 1 << 18;

/// Which station call begins a new operation, so spans and virtual
/// latencies can be attributed to operations without the workload
/// drivers knowing they are being traced.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpMark {
    /// Each `send` on the marking station starts an op (`rr`, `fanin`).
    Send,
    /// Each `connect` on the marking station starts an op (`churn`).
    Connect,
    /// The op is the number of whole MSS units the marking station has
    /// received (`bulk`, `bulk-loss`).
    RxMss,
}

#[derive(Copy, Clone, Default)]
struct Total {
    calls: u64,
    ns: u64,
}

/// What a recorder accumulated, in the units the report wants.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Nanoseconds inside `Station::step`.
    pub stack_ns: u64,
    /// Nanoseconds inside every other `Station` call (the application's
    /// side of the boundary).
    pub app_ns: u64,
    /// Nanoseconds inside `send`/`recv`/`accept`/`connect`/`close` only.
    pub app_io_ns: u64,
    /// Nanoseconds of the reps themselves.
    pub rep_ns: u64,
    /// `Station::step` calls.
    pub steps: u64,
    /// Distinct virtual instants the driver visited.
    pub drive_iters: u64,
    /// Instants at which every station stepped once and none progressed.
    pub idle_ticks: u64,
    /// Median wall nanoseconds of a `step` that reported no progress.
    pub idle_step_ns: f64,
    /// Spans that did not fit the buffer.
    pub spans_dropped: u64,
    /// Per-operation virtual latencies in microseconds, sorted.
    pub virt_op_us: Vec<u64>,
}

/// The span store and the counters read at the same boundary.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
    totals: RefCell<[Total; CALLS]>,
    mark: OpMark,
    op: Cell<u32>,
    rep_span: Cell<u32>,
    /// The network of the rep in progress; `None` between reps, when
    /// calls (set-up's handshakes, say) pass through unrecorded.
    net: RefCell<Option<SimNet>>,
    op_starts_us: RefCell<Vec<u64>>,
    virt_op_us: RefCell<Vec<u64>>,
    // Drive-iteration tracking: steps grouped by the `now` they carry.
    stations: Cell<u32>,
    cur_now: Cell<Option<VirtualTime>>,
    group_steps: Cell<u32>,
    group_progress: Cell<bool>,
    drive_iters: Cell<u64>,
    idle_ticks: Cell<u64>,
    idle_steps: RefCell<Vec<u32>>,
}

impl Recorder {
    /// A recorder sized for `ops` operations per rep.
    pub fn new(mark: OpMark, ops: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(SPAN_CAP)),
            dropped: Cell::new(0),
            totals: RefCell::new([Total::default(); CALLS]),
            mark,
            op: Cell::new(0),
            rep_span: Cell::new(u32::MAX),
            net: RefCell::new(None),
            op_starts_us: RefCell::new(Vec::with_capacity(ops + 1)),
            virt_op_us: RefCell::new(Vec::new()),
            stations: Cell::new(2),
            cur_now: Cell::new(None),
            group_steps: Cell::new(0),
            group_progress: Cell::new(false),
            drive_iters: Cell::new(0),
            idle_ticks: Cell::new(0),
            idle_steps: RefCell::new(Vec::with_capacity(IDLE_SAMPLE_CAP)),
        }
    }

    /// The rule that says which call starts an operation.
    pub fn mark(&self) -> OpMark {
        self.mark
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(span);
            (spans.len() - 1) as u32
        } else {
            self.dropped.set(self.dropped.get() + 1);
            u32::MAX
        }
    }

    /// Opens the root span of a rep driven over `net`; returns the
    /// instant to hand back to [`Recorder::end_rep`].
    pub fn begin_rep(&self, net: &SimNet, stations: u32, expected_ops: usize) -> u64 {
        *self.net.borrow_mut() = Some(net.clone());
        self.stations.set(stations);
        self.cur_now.set(None);
        self.group_steps.set(0);
        self.op.set(0);
        let mut starts = self.op_starts_us.borrow_mut();
        starts.clear();
        starts.reserve(expected_ops + 1);
        self.virt_op_us.borrow_mut().reserve(expected_ops);
        let start_ns = self.now_ns();
        let id = self.push(Span {
            start_ns,
            dur_ns: 0,
            op: 0,
            parent: u32::MAX,
            call: Call::Rep,
            station: u8::MAX,
        });
        self.rep_span.set(id);
        start_ns
    }

    /// Closes the rep opened at `start_ns`, turning op start times into
    /// per-op virtual latencies (each op runs until the next begins; the
    /// last until the rep's virtual end).
    pub fn end_rep(&self, start_ns: u64, virt_end: VirtualTime) {
        self.close_group();
        let dur = self.now_ns() - start_ns;
        if let Some(s) = self.spans.borrow_mut().get_mut(self.rep_span.get() as usize) {
            s.dur_ns = dur.min(u64::from(u32::MAX)) as u32;
        }
        let mut totals = self.totals.borrow_mut();
        totals[Call::Rep as usize].calls += 1;
        totals[Call::Rep as usize].ns += dur;
        let starts = self.op_starts_us.borrow();
        let mut lat = self.virt_op_us.borrow_mut();
        for w in starts.windows(2) {
            lat.push(w[1] - w[0]);
        }
        if let Some(&last) = starts.last() {
            lat.push(virt_end.as_micros().saturating_sub(last));
        }
        *self.net.borrow_mut() = None;
    }

    /// A new operation begins now (on the virtual clock).
    pub fn begin_op(&self) {
        let Some(now) = self.net.borrow().as_ref().map(|n| n.now().as_micros()) else { return };
        let mut starts = self.op_starts_us.borrow_mut();
        self.op.set(starts.len() as u32);
        if starts.len() < starts.capacity() {
            starts.push(now);
        }
    }

    /// The operation in progress is `op` (for [`OpMark::RxMss`]).
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    fn in_rep(&self) -> bool {
        self.net.borrow().is_some()
    }

    /// Records one call: `f` runs between the two clock reads.
    #[inline]
    pub fn call<R>(&self, station: u8, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.in_rep() {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let dur = self.now_ns() - start_ns;
        self.finish(station, call, start_ns, dur);
        r
    }

    fn finish(&self, station: u8, call: Call, start_ns: u64, dur: u64) {
        let mut totals = self.totals.borrow_mut();
        totals[call as usize].calls += 1;
        totals[call as usize].ns += dur;
        self.push(Span {
            start_ns,
            dur_ns: dur.min(u64::from(u32::MAX)) as u32,
            op: self.op.get(),
            parent: self.rep_span.get(),
            call,
            station,
        });
    }

    /// Records a `Station::step(now)` and keeps the driver's iteration
    /// count: the driver steps every station at one virtual instant
    /// until nothing moves, then advances the clock.
    #[inline]
    pub fn step(&self, station: u8, now: VirtualTime, f: impl FnOnce() -> bool) -> bool {
        if !self.in_rep() {
            return f();
        }
        if self.cur_now.get() != Some(now) {
            self.close_group();
            self.cur_now.set(Some(now));
            self.drive_iters.set(self.drive_iters.get() + 1);
        }
        let start_ns = self.now_ns();
        let progress = f();
        let dur = self.now_ns() - start_ns;
        self.finish(station, Call::Step, start_ns, dur);
        self.group_steps.set(self.group_steps.get() + 1);
        if progress {
            self.group_progress.set(true);
        } else {
            let mut idle = self.idle_steps.borrow_mut();
            if idle.len() < IDLE_SAMPLE_CAP {
                idle.push(dur.min(u64::from(u32::MAX)) as u32);
            }
        }
        progress
    }

    fn close_group(&self) {
        if self.group_steps.get() == self.stations.get() && !self.group_progress.get() {
            self.idle_ticks.set(self.idle_ticks.get() + 1);
        }
        self.group_steps.set(0);
        self.group_progress.set(false);
    }

    /// Everything recorded so far, reduced.
    pub fn summary(&self) -> TraceSummary {
        let t = self.totals.borrow();
        let ns = |c: Call| t[c as usize].ns;
        let app_io_ns =
            ns(Call::Connect) + ns(Call::Accept) + ns(Call::Send) + ns(Call::Recv) + ns(Call::Close);
        let mut idle = self.idle_steps.borrow().clone();
        idle.sort_unstable();
        let mut virt_op_us = self.virt_op_us.borrow().clone();
        virt_op_us.sort_unstable();
        TraceSummary {
            stack_ns: ns(Call::Step),
            app_ns: app_io_ns + ns(Call::Listen) + ns(Call::Query),
            app_io_ns,
            rep_ns: ns(Call::Rep),
            steps: t[Call::Step as usize].calls,
            drive_iters: self.drive_iters.get(),
            idle_ticks: self.idle_ticks.get(),
            idle_step_ns: if idle.is_empty() { 0.0 } else { f64::from(idle[idle.len() / 2]) },
            spans_dropped: self.dropped.get(),
            virt_op_us,
        }
    }

    /// The span buffer as Chrome-trace ("Trace Event Format") JSON:
    /// complete events, one thread per station, op id and parent span in
    /// `args`.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 110 + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let tid = if s.station == u8::MAX { 0 } else { u32::from(s.station) + 1 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.call.name(),
                tid,
                s.start_ns as f64 / 1000.0,
                f64::from(s.dur_ns) / 1000.0,
                i,
                if s.parent == u32::MAX { -1 } else { i64::from(s.parent) },
                s.op
            );
        }
        let _ = write!(out, "\n],\"spansDropped\":{}}}\n", self.dropped.get());
        out
    }
}
