//! The drive loop skips the ticks at which no host has a frame, a due
//! timer or a fresh user call (DESIGN.md §5.1). That is only an
//! optimisation if nothing can tell: each cell here runs twice, once as
//! `sim::drive` runs it and once with every station made due again after
//! each of its steps, so that the loop stops at every tick, and the
//! event stream and the wire bytes must be the same. The lossy cell's
//! engines are also replayed, alone, from their recorded input logs.

use foxbasis::obs::{first_divergence, ConnMetrics, EventSink, Stamped, DEFAULT_RING_CAPACITY};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::advpeer::{attack_cell, attack_pair, Attack};
use foxharness::experiments as exp;
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::station::{ConnHandle, ScaleCounters, Station, StationStats};
use foxharness::workload::{bulk_transfer, ping_pong};
use foxharness::Cell;
use foxproto::dev::Dev;
use foxproto::eth::Eth;
use foxproto::ip::Ip;
use foxproto::IpAuxImpl;
use foxtcp::testlink::check_replay;
use foxtcp::{InputLog, Tcp, TcpConfig};
use simnet::{CostModel, FaultConfig, HostHandle, SimNet};
use std::rc::Rc;

const TICK: VirtualDuration = VirtualDuration::from_millis(1);

/// Both TCPs keep their host's alarm by one rule, so a cell that either
/// can run runs on each.
const BOTH: [StackKind; 2] = [StackKind::FoxStandard, StackKind::XKernel];

/// How the loop is let to move.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Pace {
    /// As `sim::drive` moves it: from one event to the next.
    Skipping,
    /// Every station's host is due again after each of its steps.
    EveryTick,
}

/// A station that counts its steps and, paced [`Pace::EveryTick`],
/// lowers its host's alarm to now after each one.
struct Watched {
    inner: Box<dyn Station>,
    pace: Pace,
    steps: Rc<std::cell::Cell<u64>>,
}

impl Station for Watched {
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        self.inner.connect(remote_port)
    }

    fn listen(&mut self, local_port: u16) {
        self.inner.listen(local_port);
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        self.inner.accept()
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        self.inner.send(conn, data)
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        self.inner.recv(conn)
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.inner.received_len(conn)
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.inner.established(conn)
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.inner.peer_closed(conn)
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.inner.finished(conn)
    }

    fn close(&mut self, conn: ConnHandle) {
        self.inner.close(conn);
    }

    fn abort(&mut self, conn: ConnHandle) {
        self.inner.abort(conn);
    }

    fn listener(&self) -> Option<ConnHandle> {
        self.inner.listener()
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.steps.set(self.steps.get() + 1);
        let progress = self.inner.step(now);
        if self.pace == Pace::EveryTick {
            self.inner.host().wake_at(VirtualTime::ZERO);
        }
        progress
    }

    fn host(&self) -> HostHandle {
        self.inner.host()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn stats(&self) -> StationStats {
        self.inner.stats()
    }

    fn metrics(&self, conn: ConnHandle) -> Option<ConnMetrics> {
        self.inner.metrics(conn)
    }

    fn conn_state(&self, conn: ConnHandle) -> &'static str {
        self.inner.conn_state(conn)
    }

    fn scale_counters(&self) -> ScaleCounters {
        self.inner.scale_counters()
    }
}

/// A two-station workload, run on `cell`'s pair.
type Workload<'a> = &'a dyn Fn(&Cell, &SimNet, &mut Box<dyn Station>, &mut Box<dyn Station>);

/// What one run left behind.
struct Run {
    events: Vec<Stamped>,
    dropped: u64,
    pcap: Vec<u8>,
    steps: u64,
}

fn run(cell: &Cell, pace: Pace, workload: Workload) -> Run {
    let sink = EventSink::recording(DEFAULT_RING_CAPACITY);
    let (net, a, b) = cell.pair(sink.clone());
    let pcap = net.capture();
    let steps = Rc::new(std::cell::Cell::new(0));
    let watch = |inner| -> Box<dyn Station> { Box::new(Watched { inner, pace, steps: steps.clone() }) };
    let (mut a, mut b) = (watch(a), watch(b));
    workload(cell, &net, &mut a, &mut b);
    Run { events: sink.events(), dropped: sink.dropped(), pcap: pcap.bytes(), steps: steps.get() }
}

/// Runs `workload` on `cell` at both paces, asserts that the two runs
/// are the same run, and returns the stations' steps (skipping, every
/// tick).
fn invisible(cell: &Cell, workload: Workload) -> (u64, u64) {
    let skipping = run(cell, Pace::Skipping, workload);
    let every = run(cell, Pace::EveryTick, workload);
    assert!(!skipping.events.is_empty(), "{cell:?}: nothing recorded");
    let d = first_divergence(&every.events, &skipping.events);
    assert!(d.is_none(), "{cell:?}: skipping changed the run, first at {d:?}");
    assert_eq!(skipping.dropped, every.dropped, "{cell:?}");
    assert!(skipping.pcap == every.pcap, "{cell:?}: skipping changed the wire bytes");
    (skipping.steps, every.steps)
}

/// The `tables_pinned::wire_is_pinned` lossy cell: corrupt 3 %, every
/// option offered, 200 KB.
fn lossy_cell(kind: StackKind) -> Cell {
    let cfg = TcpConfig { window_scale: true, sack: true, timestamps: true, ..exp::loss_matrix_config() };
    let faults = FaultConfig { corrupt_chance: 0.03, ..FaultConfig::default() };
    exp::loss_cell(kind, faults, cfg, 42)
}

fn bulk_200k(cell: &Cell, net: &SimNet, sender: &mut Box<dyn Station>, receiver: &mut Box<dyn Station>) {
    let r = bulk_transfer(net, sender, receiver, 200_000, cell.deadline);
    assert_eq!(r.bytes, 200_000);
    assert!(r.net.frames_corrupted > 0 && r.sender.retransmits > 0, "the cell must exercise recovery");
}

/// The lossy cell takes exactly this many station steps (both stations
/// together): a return to stepping at every tick, or a step at an
/// instant with nothing due, fails here exactly.
const LOSSY_CELL_STEPS: u64 = 2128;

/// The same for the baseline, which keeps its host's alarm by the same
/// rule.
const XK_LOSSY_CELL_STEPS: u64 = 3588;

#[test]
fn the_lossy_cell_is_the_same_run_in_fewer_steps() {
    let (skipping, every) = invisible(&lossy_cell(StackKind::FoxStandard), &bulk_200k);
    assert_eq!(skipping, LOSSY_CELL_STEPS, "stepped at every tick: {every}");
}

#[test]
fn the_baseline_lossy_cell_is_the_same_run_in_fewer_steps() {
    let (skipping, every) = invisible(&lossy_cell(StackKind::XKernel), &bulk_200k);
    assert_eq!(skipping, XK_LOSSY_CELL_STEPS, "stepped at every tick: {every}");
    assert!(skipping < every, "{skipping} steps, {every} at every tick");
}

/// The fox engine of the standard stack: the traced Table 1 run's.
type FoxEngine = Tcp<Ip<Eth<Dev>>, IpAuxImpl>;

/// `station`'s fox engine.
fn fox_engine(station: &mut Box<dyn Station>) -> &mut FoxEngine {
    station.engine().and_then(|e| e.downcast_mut()).expect("a standard-stack fox engine")
}

/// Both fox engines of the lossy cell, each recorded, replay on lone
/// engines: the same event stream and equal TCBs from the input log
/// alone, whatever the loss, the IP and Ethernet layers and the drive
/// loop did around them.
#[test]
fn the_lossy_cells_engines_replay_on_lone_engines() {
    let cell = lossy_cell(StackKind::FoxStandard);
    let (net, mut a, mut b) = cell.pair(EventSink::off());
    let recorded = [&mut a, &mut b].map(|station| {
        let (sink, log) = (EventSink::recording(DEFAULT_RING_CAPACITY), InputLog::default());
        fox_engine(station).set_obs(sink.clone());
        fox_engine(station).set_recorder(log.clone());
        (sink, log)
    });
    bulk_200k(&cell, &net, &mut a, &mut b);
    for (station, (sink, log)) in [&mut a, &mut b].into_iter().zip(recorded) {
        assert_eq!(sink.dropped(), 0, "the event ring overflowed");
        let inputs = log.borrow().len();
        assert!(inputs > 1000, "{inputs} inputs recorded");
        if let Err(report) = check_replay(fox_engine(station), &sink.events(), &log) {
            panic!("{} engine: {report}", station.host().with(|h| h.name()));
        }
    }
}

/// A writer that was given room writes again, and nothing but its next
/// poll announces that write. With congestion control off, a 16 KB
/// window and a 32 KB send buffer, `bulk_transfer`'s 8 KB writes are
/// what holds the flow back: each write that takes bytes leaves the
/// window room for the next, which goes on the wire within the call.
/// Stepped at every tick, the writer writes at the very next one; so
/// must the skipping loop, and it does because a send that takes bytes
/// lowers its host's alarm to now (`Tcp::apply`'s wake rule). Without
/// that wake the second write, and its segments, wait for the next
/// delivery.
#[test]
fn a_writer_given_room_writes_again_at_the_next_tick() {
    let workload =
        |cell: &Cell, net: &SimNet, sender: &mut Box<dyn Station>, receiver: &mut Box<dyn Station>| {
            assert_eq!(bulk_transfer(net, sender, receiver, 32_768, cell.deadline).bytes, 32_768);
        };
    let cfg = TcpConfig { congestion_control: false, ..exp::loss_matrix_config() };
    for kind in BOTH {
        let (skipping, every) =
            invisible(&exp::loss_cell(kind, FaultConfig::default(), cfg.clone(), 1), &workload);
        assert!(skipping < every, "{kind:?}: {skipping} steps, {every} at every tick");
    }
}

/// The paper's round trip: 20 × 64 B on the 1994 cost model.
#[test]
fn ping_pong_is_the_same_run() {
    let workload =
        |cell: &Cell, net: &SimNet, server: &mut Box<dyn Station>, client: &mut Box<dyn Station>| {
            ping_pong(net, server, client, 20, 64, cell.deadline);
        };
    for kind in BOTH {
        let cell = Cell::new(kind, CostModel::decstation_sml(), TcpConfig::default(), 13);
        let (skipping, every) = invisible(&cell, &workload);
        assert!(skipping < every, "{kind:?}: {skipping} steps, {every} at every tick");
    }
}

/// Zero-window probing: the receiving application has not adopted the
/// connection yet, so what arrives counts against the window, which
/// closes; the sender keeps writing 8 KB per poll and the persist timer
/// probes. After three probes the receiver adopts the connection and
/// reads everything.
#[test]
fn persist_probes_are_the_same_run() {
    const PORT: u16 = 4000;
    const BYTES: usize = 64 * 1024;
    let workload = |_: &Cell, net: &SimNet, a: &mut Box<dyn Station>, b: &mut Box<dyn Station>| {
        b.listen(PORT);
        let conn = a.connect(PORT);
        let chunk = [0x5au8; 8192];
        let (mut produced, mut received, mut adopted) = (0, 0, None);
        drive(
            net,
            &mut [&mut *a, &mut *b],
            |st| {
                if produced < BYTES && st[0].established(conn) {
                    produced += st[0].send(conn, &chunk[..chunk.len().min(BYTES - produced)]);
                }
                if adopted.is_none() && st[0].stats().probe_fires >= 3 {
                    adopted = st[1].accept();
                }
                if let Some(sc) = adopted {
                    received += st[1].recv(sc).len();
                }
                received >= BYTES
            },
            TICK,
            VirtualTime::from_millis(120_000),
        );
        assert_eq!(received, BYTES);
        assert!(a.stats().probe_fires >= 3);
    };
    let cell = Cell::new(StackKind::FoxStandard, CostModel::modern(), TcpConfig::default(), 5);
    let (skipping, every) = invisible(&cell, &workload);
    assert!(skipping < every, "{skipping} steps, {every} at every tick");
}

/// The baseline's zero window: an xk sender fills the window of a fox
/// receiver whose application has not adopted the connection, so
/// nothing is read. A second after the window has closed, with every
/// byte acknowledged, the sender goes on writing 1 KB per poll: its
/// first write arms Persist and puts nothing on the wire. Five seconds
/// after the window closed the receiver adopts the connection and reads
/// everything.
#[test]
fn the_baseline_writing_into_a_closed_window_is_the_same_run() {
    const PORT: u16 = 4002;
    const BYTES: usize = 16 * 1024;
    const RESUME_AFTER: VirtualDuration = VirtualDuration::from_millis(1_000);
    const ADOPT_AFTER: VirtualDuration = VirtualDuration::from_millis(5_000);
    let workload = |cell: &Cell, net: &SimNet, a: &mut Box<dyn Station>, b: &mut Box<dyn Station>| {
        b.listen(PORT);
        let conn = a.connect(PORT);
        let window = cell.tcp.initial_window;
        let chunk = vec![0x5au8; window];
        let (mut produced, mut received, mut closed_at, mut adopted) = (0, 0, None, None);
        drive(
            net,
            &mut [&mut *a, &mut *b],
            |st| {
                let now = net.now();
                if produced < window && st[0].established(conn) {
                    produced += st[0].send(conn, &chunk[produced..]);
                }
                if closed_at.is_none() && produced == window {
                    let m = st[0].metrics(conn).expect("open");
                    closed_at = (m.snd_wnd == 0 && m.bytes_in_flight == 0).then_some(now);
                }
                let Some(closed) = closed_at else { return false };
                // The applications' own timeouts: each asks for its instant.
                let (resume_at, adopt_at) = (closed + RESUME_AFTER, closed + ADOPT_AFTER);
                if now < resume_at {
                    st[0].host().wake_at(resume_at);
                } else if produced < BYTES {
                    produced += st[0].send(conn, &chunk[..1024.min(BYTES - produced)]);
                }
                if now < adopt_at {
                    st[1].host().wake_at(adopt_at);
                } else if adopted.is_none() {
                    adopted = st[1].accept();
                }
                if let Some(sc) = adopted {
                    received += st[1].recv(sc).len();
                }
                received >= BYTES
            },
            TICK,
            VirtualTime::from_millis(120_000),
        );
        assert!(closed_at.is_some(), "the window never closed");
        assert_eq!(received, BYTES);
    };
    let cell = Cell::new(StackKind::FoxStandard, CostModel::modern(), TcpConfig::default(), 5);
    let cell = Cell { sender: StackKind::XKernel, ..cell };
    let (skipping, every) = invisible(&cell, &workload);
    assert!(skipping < every, "{skipping} steps, {every} at every tick");
}

/// Three `churn`-style lifecycles (connect, 64 B each way, close from
/// both ends) on one pair of stations, and then the client's TIME-WAITs
/// run out; on a clean link, and on one that drops a fifth of the frames
/// and corrupts a fifth, where a FIN that a `close` sent between steps
/// is lost and its retransmit, armed by that call, must fire on time.
#[test]
fn lifecycles_through_time_wait_are_the_same_run() {
    const PORT: u16 = 4001;
    let workload = |_: &Cell, net: &SimNet, server: &mut Box<dyn Station>, client: &mut Box<dyn Station>| {
        server.listen(PORT);
        let msg = [7u8; 64];
        let mut clients = Vec::new();
        for _ in 0..3 {
            let cc = client.connect(PORT);
            clients.push(cc);
            let (mut sc, mut asked, mut answered, mut closed) = (None, false, false, false);
            drive(
                net,
                &mut [&mut *server, &mut *client],
                |st| {
                    if sc.is_none() {
                        sc = st[0].accept();
                    }
                    if !asked && st[1].established(cc) {
                        asked = st[1].send(cc, &msg) == msg.len();
                    }
                    if let Some(sc) = sc {
                        if !answered && st[0].recv(sc).len() == msg.len() {
                            answered = st[0].send(sc, &msg) == msg.len();
                        }
                        if !closed && st[1].recv(cc).len() == msg.len() {
                            st[1].close(cc);
                            closed = true;
                        }
                        if closed && st[0].peer_closed(sc) && !st[0].finished(sc) {
                            st[0].close(sc);
                        }
                    }
                    sc.is_some_and(|sc| st[0].finished(sc))
                },
                TICK,
                VirtualTime::from_millis(600_000),
            );
            assert!(sc.is_some_and(|sc| server.finished(sc)), "a lifecycle did not complete");
        }
        drive(
            net,
            &mut [&mut *server, &mut *client],
            |st| clients.iter().all(|&cc| st[1].finished(cc)),
            TICK,
            VirtualTime::from_millis(600_000),
        );
        assert!(clients.iter().all(|&cc| client.finished(cc)), "TIME-WAIT did not run out");
    };
    for (faults, seed) in [(FaultConfig::default(), 9), (FaultConfig::lossy(0.2), 28)] {
        for kind in BOTH {
            let cell = exp::loss_cell(kind, faults.clone(), TcpConfig::default(), seed);
            let (skipping, every) = invisible(&cell, &workload);
            assert!(skipping < every, "{kind:?}: {skipping} steps, {every} at every tick");
        }
    }
}

/// The in-window blind RST: the adversary waits for a stable wire for
/// a span of virtual time, which it asks the loop for through a host's
/// alarm.
#[test]
fn a_blind_rst_volley_is_the_same_run() {
    let workload =
        |cell: &Cell, net: &SimNet, sender: &mut Box<dyn Station>, receiver: &mut Box<dyn Station>| {
            let report = attack_pair(cell, net, sender, receiver, Attack::BlindRstInWindow);
            assert!(report.outcome_ok() && report.injected > 0, "{report:?}");
        };
    for kind in BOTH {
        let (skipping, every) = invisible(&attack_cell(kind, FaultConfig::default(), 11), &workload);
        assert!(skipping < every, "{kind:?}: {skipping} steps, {every} at every tick");
    }
}
