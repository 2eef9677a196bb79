//! The five workloads. Each is a closed loop on one thread: the next
//! operation starts only when the previous one completed. `bulk`,
//! `bulk-loss` and `rr` drive the repository's own
//! `workload::{bulk_transfer, ping_pong}`; `churn` and `fanin` are
//! drivers owned by the benchmark, over the same `Station` face and the
//! same unmodified `sim::drive`.
//!
//! Why these five: see the README next to this package. In one line
//! each — `bulk` is per-byte work and batching, `bulk-loss` is the
//! recovery machinery and the only place the seed changes the schedule,
//! `rr` is per-packet work at N = 1, `churn` is the control path, and
//! `fanin` is `rr`'s exchange at N = 1024.

use crate::counters::{read_exact, Exact};
use crate::payload::{Pool, SplitMix};
use crate::station::{CheckedStation, Source, Tally, TimedStation};
use crate::trace::{OpMark, Recorder};
use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::bench::BenchProfile;
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::station::{ConnHandle, Station};
use foxharness::workload::{bulk_transfer, ping_pong};
use foxtcp::TcpConfig;
use simnet::{FaultConfig, NetConfig, PcapSink, SimNet};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One full-sized TCP segment of payload on Ethernet.
pub const MSS: usize = 1460;
/// Request and response size of the small-message workloads.
pub const MSG_LEN: usize = 64;
/// `churn`'s TIME-WAIT hold time, virtual milliseconds.
pub const CHURN_TIME_WAIT_MS: u64 = 10;
/// `churn` fails a rep whose TIME-WAIT population passes this: a quarter
/// of the 16 384-port ephemeral range, because `alloc_ephemeral` spins
/// forever once the range is exhausted.
pub const TIME_WAIT_LIMIT: usize = 4096;

const TICK: VirtualDuration = VirtualDuration::from_millis(1);

/// No rep needs a thousandth of this (the slowest, `bulk-loss`, takes
/// ~500 virtual seconds per transfer); a connection that died instead
/// of delivering idles to here in seconds of wall time and the rep
/// fails with the reason, rather than the watchdog having to end the
/// process.
fn deadline() -> VirtualTime {
    VirtualTime::from_millis(100_000_000)
}

/// Which workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One 10^8-byte transfer on a clean gigabit link.
    Bulk,
    /// The same transfer over burst loss, jitter and corruption.
    BulkLoss,
    /// 64-byte request/response on one connection.
    Rr,
    /// Connect, one exchange, close — sequentially, many times.
    Churn,
    /// `rr`'s exchange across 1024 open connections.
    Fanin,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 5] =
        [Workload::Bulk, Workload::BulkLoss, Workload::Rr, Workload::Churn, Workload::Fanin];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::BulkLoss => "bulk-loss",
            Workload::Rr => "rr",
            Workload::Churn => "churn",
            Workload::Fanin => "fanin",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Which station call starts an operation, for the traced pass.
    pub fn op_mark(self) -> OpMark {
        match self {
            Workload::Bulk | Workload::BulkLoss => OpMark::RxMss,
            Workload::Rr | Workload::Fanin => OpMark::Send,
            Workload::Churn => OpMark::Connect,
        }
    }

    /// Whether every rep starts from fresh stations (and so must repeat
    /// the warm-up rep's counters exactly). `fanin` continues on the
    /// connections opened in set-up instead.
    pub fn fresh_stations_per_rep(self) -> bool {
        self != Workload::Fanin
    }
}

/// How much work a rep does. Never trimmed to fit a time budget: the
/// runner trims *reps*.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// `bulk`: payload bytes per rep.
    pub bulk_bytes: usize,
    /// `bulk-loss`: payload bytes per sub-seed (three per rep).
    pub loss_bytes: usize,
    /// `rr`: round trips per rep.
    pub rr_rounds: usize,
    /// `churn`: connection lifecycles per rep.
    pub churn_conns: usize,
    /// `fanin`: connections opened in set-up.
    pub fanin_conns: usize,
    /// `fanin`: round trips per rep.
    pub fanin_ops: usize,
    /// `bulk-loss` on the x-kernel control, per sub-seed: without fast
    /// retransmit it recovers every loss by timeout, and a full-size
    /// transfer takes tens of wall seconds.
    pub xk_loss_bytes: usize,
    /// `churn` on the x-kernel control, which never reaps active opens.
    pub xk_churn_conns: usize,
    /// `fanin` on the x-kernel control, which scans linearly.
    pub xk_fanin_ops: usize,
    /// Bulk bytes the ladder's rungs and captures move.
    pub ladder_bulk_bytes: usize,
    /// Round trips the ladder's `rr` rungs and capture run.
    pub ladder_rr_rounds: usize,
    /// Connections `churn`'s capture and obs reps run.
    pub ladder_churn_conns: usize,
    /// Round trips `fanin`'s capture and obs reps run.
    pub ladder_fanin_ops: usize,
}

impl Scale {
    /// The sizes the benchmark reports on.
    pub fn full() -> Scale {
        Scale {
            bulk_bytes: 100_000_000,
            loss_bytes: 20_000_000,
            rr_rounds: 100_000,
            churn_conns: 4000,
            fanin_conns: 1024,
            fanin_ops: 3000,
            xk_loss_bytes: 1_000_000,
            xk_churn_conns: 500,
            xk_fanin_ops: 150,
            ladder_bulk_bytes: 20_000_000,
            ladder_rr_rounds: 20_000,
            ladder_churn_conns: 2000,
            ladder_fanin_ops: 1000,
        }
    }

    /// `--smoke`: every workload well under a second, for the tests.
    pub fn smoke() -> Scale {
        Scale {
            bulk_bytes: 400_000,
            loss_bytes: 100_000,
            rr_rounds: 300,
            churn_conns: 40,
            fanin_conns: 24,
            fanin_ops: 60,
            xk_loss_bytes: 50_000,
            xk_churn_conns: 20,
            xk_fanin_ops: 30,
            ladder_bulk_bytes: 200_000,
            ladder_rr_rounds: 200,
            ladder_churn_conns: 30,
            ladder_fanin_ops: 40,
        }
    }

    /// Operations in one rep of `w` on stack `kind`.
    pub fn ops(&self, w: Workload, kind: StackKind) -> usize {
        let xk = kind == StackKind::XKernel;
        match w {
            Workload::Bulk => self.bulk_bytes.div_ceil(MSS),
            Workload::BulkLoss => LOSS_SUBSEEDS * self.loss_bytes_for(kind).div_ceil(MSS),
            Workload::Rr => self.rr_rounds,
            Workload::Churn if xk => self.xk_churn_conns,
            Workload::Churn => self.churn_conns,
            Workload::Fanin if xk => self.xk_fanin_ops,
            Workload::Fanin => self.fanin_ops,
        }
    }

    /// `bulk-loss`'s bytes per sub-seed on stack `kind`.
    pub fn loss_bytes_for(&self, kind: StackKind) -> usize {
        if kind == StackKind::XKernel {
            self.xk_loss_bytes
        } else {
            self.loss_bytes
        }
    }

    /// The same scale with the primary sizes replaced by the ladder's:
    /// what the capture and the obs reps run.
    pub fn for_ladder(&self) -> Scale {
        Scale {
            bulk_bytes: self.ladder_bulk_bytes,
            loss_bytes: self.ladder_bulk_bytes / LOSS_SUBSEEDS,
            rr_rounds: self.ladder_rr_rounds,
            churn_conns: self.ladder_churn_conns,
            fanin_ops: self.ladder_fanin_ops,
            ..*self
        }
    }
}

/// `bulk-loss` runs this many independently seeded transfers per rep, so
/// one unlucky fault schedule does not decide the rep.
pub const LOSS_SUBSEEDS: usize = 3;

/// Where `bulk-loss`'s fault schedules come from. Deliberately *not*
/// `--seed`: at HEAD the virtual duration of a rep varies by 37 %
/// (standard deviation; 470 to 1470 virtual seconds) from one fault
/// schedule to the next, because a burst that catches a retransmission
/// costs exponentially backed-off timeouts. No number of reps that fits
/// a run averages that out, so a benchmark that drew its schedules from
/// `--seed` would report a different "exact" figure on every seed and
/// could gate nothing. Fixed schedules are the common-random-numbers
/// design: two commits meet the same faults, so their difference is the
/// code's.
const FAULT_SEED: u64 = 0x666f_7870_6572_6621;

/// The network seeds of `bulk-loss`'s transfers, one per fault schedule.
pub fn fault_schedules() -> [u64; LOSS_SUBSEEDS] {
    let mut rng = SplitMix(FAULT_SEED);
    std::array::from_fn(|_| rng.next_u64())
}

/// The seed of the (first) network `w` runs over, given `--seed`.
pub fn net_seed(w: Workload, seed: u64) -> u64 {
    if w == Workload::BulkLoss {
        fault_schedules()[0]
    } else {
        seed
    }
}

/// The link each workload runs over. Only `bulk-loss` injects faults:
/// Gilbert–Elliott bursts (enter 1/500, leave 1/3, lose 90 % inside),
/// 20 µs of jitter (reordering) and 0.05 % corruption.
pub fn net_config(w: Workload) -> NetConfig {
    let mut cfg = BenchProfile::Modern.net_config();
    if w == Workload::BulkLoss {
        cfg.faults = FaultConfig {
            jitter: VirtualDuration::from_micros(20),
            corrupt_chance: 0.0005,
            ..FaultConfig::bursty(1.0 / 500.0, 1.0 / 3.0, 0.9)
        };
    }
    cfg
}

/// The TCP configuration each workload runs: the modern bench profile,
/// plus what the workload is there to exercise.
pub fn tcp_config(w: Workload) -> TcpConfig {
    let modern = BenchProfile::Modern.tcp_config();
    match w {
        Workload::Bulk | Workload::Rr => modern,
        // Loss recovery is the subject, so everything that takes part
        // in it is on. The retry budgets are raised because this fault
        // model otherwise aborts connections: a lone retransmission
        // inside a burst is lost with probability 0.6, so the default 12
        // retries run out about once in 450 bursts — with ~110 bursts a
        // rep, on half of all fault schedules tried. At 64 that is once
        // in 10^14.
        Workload::BulkLoss => TcpConfig {
            sack: true,
            timestamps: true,
            congestion_control: true,
            max_retransmits: 64,
            syn_retries: 64,
            ..modern
        },
        // Small eager buffers: with the profile's 256 KB/512 KB ones a
        // lifecycle measured about 1.5x the wall time and 20x the
        // resident memory, nearly all of it allocating and zeroing
        // buffers a 64-byte exchange never uses.
        Workload::Churn => {
            TcpConfig { initial_window: 8192, send_buffer: 8192, time_wait_ms: CHURN_TIME_WAIT_MS, ..modern }
        }
        Workload::Fanin => {
            TcpConfig { initial_window: 65_535, send_buffer: 65_536, window_scale: false, ..modern }
        }
    }
}

/// How a pass watches the workload.
#[derive(Clone)]
pub struct Probe {
    /// Which TCP: the structured one, or the monolith as control.
    pub kind: StackKind,
    /// Span recorder of the traced pass.
    pub recorder: Option<Rc<Recorder>>,
    /// Event sink handed to every layer (off except on the obs rung).
    pub sink: EventSink,
    /// Keep a wire capture of each rep (the ladder replays it).
    pub capture: bool,
}

impl Probe {
    /// The untraced pass: nothing but the delivery check.
    pub fn plain(kind: StackKind) -> Probe {
        Probe { kind, recorder: None, sink: EventSink::off(), capture: false }
    }
}

/// What one rep did.
pub struct RepOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// Whether every operation completed and every byte arrived intact.
    pub ok: bool,
    /// Why not, if not.
    pub why: String,
    /// Host wall time of the work (stations are built and dropped
    /// outside it).
    pub wall: Duration,
    /// Every exact counter, over the same window.
    pub exact: Exact,
    /// Most connections `churn` had resident in TIME-WAIT at once.
    pub time_wait_peak: usize,
    /// The rep's frames, when the probe asked for a capture.
    pub capture: Option<PcapSink>,
}

struct Pair {
    net: SimNet,
    /// Station 1: sender (bulk) or server.
    a: Box<dyn Station>,
    /// Station 2: receiver (bulk) or client.
    b: Box<dyn Station>,
    ta: Rc<Tally>,
    tb: Rc<Tally>,
    capture: Option<PcapSink>,
}

impl Pair {
    /// Builds the two stations of a rep on a fresh network. Station 2
    /// is the one whose calls mark operations in the traced pass.
    fn build(w: Workload, probe: &Probe, pool: &Rc<Pool>, net_seed: u64, b_source: Source) -> Pair {
        let profile = BenchProfile::Modern;
        let net = SimNet::new(net_config(w), net_seed);
        let capture = probe.capture.then(|| net.capture());
        if probe.sink.is_on() {
            net.set_obs(probe.sink.clone());
        }
        let cfg = tcp_config(w);
        let build = |id: u16, peer: u16, source: Source| {
            let raw = probe.kind.build_batched(
                &net,
                id,
                peer,
                profile.cost(probe.kind),
                false,
                cfg.clone(),
                probe.sink.clone(),
                profile.batch(),
            );
            let (checked, tally) = CheckedStation::wrap(raw, pool.clone(), source);
            let station = match &probe.recorder {
                Some(rec) => TimedStation::wrap(checked, rec.clone(), (id - 1) as u8, id == 2),
                None => checked,
            };
            (station, tally)
        };
        let (a, ta) = build(1, 2, Source::Seeded);
        let (b, tb) = build(2, 1, b_source);
        Pair { net, a, b, ta, tb, capture }
    }

    fn read(&self) -> Exact {
        read_exact(&self.net, &[&*self.a, &*self.b], &[&self.ta, &self.tb])
    }

    /// Runs `work` between two counter reads and two clock reads.
    fn measure(
        &mut self,
        probe: &Probe,
        ops: usize,
        work: impl FnOnce(&mut Pair) -> Result<(), String>,
    ) -> RepOutcome {
        let span = probe.recorder.as_ref().map(|r| r.begin_rep(&self.net, 2, ops));
        let before = self.read();
        let t = Instant::now();
        let result = work(self);
        let wall = t.elapsed();
        let exact = self.read().since(&before);
        if let (Some(rec), Some(start)) = (&probe.recorder, span) {
            rec.end_rep(start, self.net.now());
        }
        let result = result.and_then(|()| {
            if self.ta.agrees_with(&self.tb) {
                Ok(())
            } else {
                Err(format!(
                    "delivery is not byte-exact: station 1 sent {:?} / got {:?}, station 2 sent {:?} / got {:?}",
                    self.ta.tx.borrow().digest(),
                    self.ta.rx.borrow().digest(),
                    self.tb.tx.borrow().digest(),
                    self.tb.rx.borrow().digest()
                ))
            }
        });
        RepOutcome {
            ops: ops as u64,
            ok: result.is_ok(),
            why: result.err().unwrap_or_default(),
            wall,
            exact,
            time_wait_peak: 0,
            capture: self.capture.clone(),
        }
    }
}

fn bulk_once(w: Workload, probe: &Probe, pool: &Rc<Pool>, net_seed: u64, bytes: usize) -> RepOutcome {
    // The receiver's 8-byte request is parsed by the sending
    // application, so it alone goes out as given.
    let mut pair = Pair::build(w, probe, pool, net_seed, Source::AsGiven);
    pair.measure(probe, bytes.div_ceil(MSS), |p| {
        let r = bulk_transfer(&p.net, &mut p.a, &mut p.b, bytes, deadline());
        let delivered = p.tb.rx.borrow().len();
        if r.bytes == bytes && delivered == bytes as u64 {
            Ok(())
        } else {
            Err(format!(
                "asked for {bytes} bytes, transfer reported {}, application took {delivered}; sender is {:?}, \
                 receiver is {:?}",
                r.bytes,
                p.ta.last_accept.get().map(|h| p.a.conn_state(h)),
                p.tb.last_connect.get().map(|h| p.b.conn_state(h))
            ))
        }
    })
}

fn bulk_loss_rep(probe: &Probe, pool: &Rc<Pool>, bytes: usize) -> RepOutcome {
    let mut total: Option<RepOutcome> = None;
    for schedule in fault_schedules() {
        let one = bulk_once(Workload::BulkLoss, probe, pool, schedule, bytes);
        total = Some(match total {
            None => one,
            Some(t) => RepOutcome {
                ops: t.ops + one.ops,
                ok: t.ok && one.ok,
                why: if t.ok { one.why } else { t.why },
                wall: t.wall + one.wall,
                exact: t.exact.plus(&one.exact),
                time_wait_peak: 0,
                // The ladder replays one schedule; the first is as good
                // as any.
                capture: t.capture,
            },
        });
    }
    total.expect("LOSS_SUBSEEDS > 0")
}

fn rr_rep(probe: &Probe, pool: &Rc<Pool>, seed: u64, rounds: usize) -> RepOutcome {
    let mut pair = Pair::build(Workload::Rr, probe, pool, seed, Source::Seeded);
    pair.measure(probe, rounds, |p| {
        let r = ping_pong(&p.net, &mut p.a, &mut p.b, rounds, MSG_LEN, deadline());
        let echoed = p.tb.rx.borrow().len();
        if r.rounds == rounds && echoed == (rounds * MSG_LEN) as u64 {
            Ok(())
        } else {
            Err(format!("{rounds} round trips wanted, {} run, {echoed} bytes echoed", r.rounds))
        }
    })
}

/// One connection's whole life, as two small applications polled from
/// the driver's `done` callback: the client connects, sends a request,
/// reads the response and closes; the server accepts, answers, and
/// closes when the client has. The op ends when the server's side is
/// fully closed; the client's side stays behind in TIME-WAIT.
///
/// `drive` also returns at `deadline`, which is absolute — once one
/// lifecycle has idled there, every later `drive` returns at once — so
/// the op counts only if the done condition held when `drive` returned.
fn churn_one(p: &mut Pair, deadline: VirtualTime) -> Result<(), String> {
    #[derive(PartialEq)]
    enum Client {
        Connecting,
        AwaitingResponse,
        Closed,
    }
    let msg = [0u8; MSG_LEN];
    let cc = p.b.connect(CHURN_PORT);
    let mut client = Client::Connecting;
    let mut sc: Option<ConnHandle> = None;
    let (mut replied, mut server_closed, mut complete) = (false, false, false);
    let mut error = None;
    drive(
        &p.net,
        &mut [&mut p.a, &mut p.b],
        |st| {
            if sc.is_none() {
                sc = st[0].accept();
            }
            if let Some(sc) = sc {
                if !replied && st[0].received_len(sc) >= MSG_LEN {
                    let req = st[0].recv(sc);
                    if req.len() != MSG_LEN || st[0].send(sc, &msg) != MSG_LEN {
                        error = Some(format!("server: {}-byte request or short response", req.len()));
                    }
                    replied = true;
                }
                if replied && !server_closed && st[0].peer_closed(sc) {
                    st[0].close(sc);
                    server_closed = true;
                }
            }
            match client {
                Client::Connecting => {
                    if st[1].established(cc) {
                        if st[1].send(cc, &msg) != MSG_LEN {
                            error = Some("client: request did not fit an empty window".into());
                        }
                        client = Client::AwaitingResponse;
                    }
                }
                Client::AwaitingResponse => {
                    if st[1].received_len(cc) >= MSG_LEN {
                        let resp = st[1].recv(cc);
                        if resp.len() != MSG_LEN {
                            error = Some(format!("client: {}-byte response", resp.len()));
                        }
                        st[1].close(cc);
                        client = Client::Closed;
                    }
                }
                Client::Closed => {}
            }
            complete = client == Client::Closed && server_closed && sc.is_some_and(|sc| st[0].finished(sc));
            error.is_some() || complete
        },
        TICK,
        deadline,
    );
    match error {
        Some(e) => Err(e),
        None if complete => Ok(()),
        None => Err(format!(
            "lifecycle still open at the deadline: client is {:?}, server is {:?}",
            p.b.conn_state(cc),
            sc.map(|sc| p.a.conn_state(sc))
        )),
    }
}

const CHURN_PORT: u16 = 2002;
const FANIN_PORT: u16 = 2003;

fn churn_rep(probe: &Probe, pool: &Rc<Pool>, seed: u64, conns: usize, deadline: VirtualTime) -> RepOutcome {
    let mut pair = Pair::build(Workload::Churn, probe, pool, seed, Source::Seeded);
    pair.a.listen(CHURN_PORT);
    let hold = VirtualDuration::from_millis(CHURN_TIME_WAIT_MS);
    let mut in_time_wait: VecDeque<VirtualTime> = VecDeque::with_capacity(TIME_WAIT_LIMIT + 1);
    let mut peak = 0;
    let mut out = pair.measure(probe, conns, |p| {
        for i in 0..conns {
            churn_one(p, deadline).map_err(|e| format!("connection {i}: {e}"))?;
            let now = p.net.now();
            in_time_wait.push_back(now);
            while in_time_wait.front().is_some_and(|&t| t + hold <= now) {
                in_time_wait.pop_front();
            }
            peak = peak.max(in_time_wait.len());
            if in_time_wait.len() >= TIME_WAIT_LIMIT {
                return Err(format!(
                    "{} connections resident in TIME-WAIT after {} lifecycles: too close to the \
                     16384-port ephemeral range",
                    in_time_wait.len(),
                    i + 1
                ));
            }
        }
        Ok(())
    });
    out.time_wait_peak = peak;
    out
}

/// `fanin`'s long-lived half: the two stations, the connections opened
/// between them during set-up, and the position in the visiting order.
pub struct Fanin {
    pair: Pair,
    /// (server handle, client handle) per connection.
    conns: Vec<(ConnHandle, ConnHandle)>,
    order: Vec<usize>,
    next: usize,
    echoed: usize,
    /// Heap bytes still live from opening the connections, per
    /// connection.
    pub heap_bytes_per_conn: f64,
    /// Allocation calls made opening the connections, per connection.
    pub allocs_per_conn: f64,
}

impl Fanin {
    /// Panics (a failed run, see `run::run`) if a handshake has not
    /// completed by `deadline`.
    fn open(probe: &Probe, pool: &Rc<Pool>, seed: u64, n: usize, deadline: VirtualTime) -> Fanin {
        let mut pair = Pair::build(Workload::Fanin, probe, pool, seed, Source::Seeded);
        let order = SplitMix(seed ^ 0x6f72_6465_7221).permutation(n);
        let mut conns = Vec::with_capacity(n);
        let before = crate::alloc::snapshot();
        pair.a.listen(FANIN_PORT);
        for i in 0..n {
            let cc = pair.b.connect(FANIN_PORT);
            let mut sc = None;
            drive(
                &pair.net,
                &mut [&mut pair.a, &mut pair.b],
                |st| {
                    if sc.is_none() {
                        sc = st[0].accept();
                    }
                    sc.is_some() && st[1].established(cc)
                },
                TICK,
                deadline,
            );
            match sc {
                Some(sc) if pair.b.established(cc) => conns.push((sc, cc)),
                _ => panic!(
                    "fanin connection {i} did not open by the deadline: client is {:?}, server is {:?}",
                    pair.b.conn_state(cc),
                    sc.map(|sc| pair.a.conn_state(sc))
                ),
            }
        }
        let after = crate::alloc::snapshot();
        Fanin {
            pair,
            conns,
            order,
            next: 0,
            echoed: 0,
            heap_bytes_per_conn: after.live.saturating_sub(before.live) as f64 / n as f64,
            allocs_per_conn: after.since(&before).0 as f64 / n as f64,
        }
    }

    fn rep(&mut self, probe: &Probe, ops: usize) -> RepOutcome {
        let Fanin { pair, conns, order, next, echoed, .. } = self;
        let msg = [0x42u8; MSG_LEN];
        pair.measure(probe, ops, |p| {
            for _ in 0..ops {
                let (sc, cc) = conns[order[*next % order.len()]];
                *next += 1;
                if p.b.send(cc, &msg) != MSG_LEN {
                    return Err(format!("request {} did not fit an empty window", *next));
                }
                // From here on, exactly `workload::ping_pong`'s exchange
                // (its per-echo vector included), so `fanin` / `rr` is
                // the price of the other 1023 connections and nothing
                // else.
                let want = *echoed + MSG_LEN;
                let mut unanswered = 0usize;
                drive(
                    &p.net,
                    &mut [&mut p.a, &mut p.b],
                    |st| {
                        unanswered += st[0].recv(sc).len();
                        if unanswered > 0 {
                            unanswered -= st[0].send(sc, &vec![0x42u8; unanswered]);
                        }
                        *echoed += st[1].recv(cc).len();
                        *echoed >= want
                    },
                    TICK,
                    deadline(),
                );
                if *echoed != want {
                    return Err(format!("round trip {}: {} bytes echoed, {want} wanted", *next, *echoed));
                }
            }
            Ok(())
        })
    }
}

/// One pass over one workload: the seeded inputs, plus `fanin`'s open
/// connections. Creating it is the workload's set-up.
pub struct Session {
    workload: Workload,
    scale: Scale,
    /// `--seed`: payload bytes, the network's RNG on the fault-free
    /// workloads, `fanin`'s visiting order.
    seed: u64,
    probe: Probe,
    pool: Rc<Pool>,
    fanin: Option<Fanin>,
}

impl Session {
    /// Generates the inputs from the seed and, for `fanin`, builds the
    /// stations and opens the connections.
    pub fn new(workload: Workload, scale: Scale, seed: u64, probe: Probe) -> Session {
        let pool = Rc::new(Pool::new(seed));
        let fanin = (workload == Workload::Fanin)
            .then(|| Fanin::open(&probe, &pool, seed, scale.fanin_conns, deadline()));
        Session { workload, scale, seed, probe, pool, fanin }
    }

    /// Operations per rep.
    pub fn ops(&self) -> usize {
        self.scale.ops(self.workload, self.probe.kind)
    }

    /// Whether the layers are recording events into a sink.
    pub fn records_events(&self) -> bool {
        self.probe.sink.is_on()
    }

    /// `fanin`'s open connections, if this is `fanin`.
    pub fn fanin(&self) -> Option<&Fanin> {
        self.fanin.as_ref()
    }

    /// Runs one rep.
    pub fn rep(&mut self) -> RepOutcome {
        let Session { workload, scale, seed, probe, pool, fanin } = self;
        let ops = scale.ops(*workload, probe.kind);
        let seed = *seed;
        match workload {
            Workload::Bulk => bulk_once(Workload::Bulk, probe, pool, seed, scale.bulk_bytes),
            Workload::BulkLoss => bulk_loss_rep(probe, pool, scale.loss_bytes_for(probe.kind)),
            Workload::Rr => rr_rep(probe, pool, seed, ops),
            Workload::Churn => churn_rep(probe, pool, seed, ops, deadline()),
            Workload::Fanin => fanin.as_mut().expect("fanin session holds its connections").rep(probe, ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_inputs() -> (Probe, Rc<Pool>) {
        (Probe::plain(StackKind::FoxStandard), Rc::new(Pool::new(9)))
    }

    /// A handshake takes ~10 virtual µs; a deadline inside it leaves
    /// every lifecycle open.
    const TOO_EARLY: VirtualTime = VirtualTime::from_micros(3);

    #[test]
    fn churn_fails_a_rep_whose_lifecycles_stop_at_the_deadline() {
        let (probe, pool) = smoke_inputs();
        let ok = churn_rep(&probe, &pool, 9, 5, deadline());
        assert!(ok.ok, "{}", ok.why);
        let hung = churn_rep(&probe, &pool, 9, 5, TOO_EARLY);
        assert!(!hung.ok);
        assert!(hung.why.starts_with("connection 0: lifecycle still open at the deadline"), "{}", hung.why);

        // Past the deadline every later `drive` returns at once: those
        // lifecycles must fail too, not count as completed.
        let mut pair = Pair::build(Workload::Churn, &probe, &pool, 9, Source::Seeded);
        pair.a.listen(CHURN_PORT);
        assert!(churn_one(&mut pair, TOO_EARLY).is_err());
        assert!(churn_one(&mut pair, TOO_EARLY).is_err());
    }

    #[test]
    #[should_panic(expected = "fanin connection 0 did not open by the deadline")]
    fn fanin_set_up_fails_when_a_handshake_stops_at_the_deadline() {
        let (probe, pool) = smoke_inputs();
        Fanin::open(&probe, &pool, 9, 4, TOO_EARLY);
    }
}
