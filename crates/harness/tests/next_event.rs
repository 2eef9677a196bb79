//! The drive loop skips the ticks at which no host has a frame, a due
//! timer or a fresh user call (DESIGN.md §5.1). That is only an
//! optimisation if nothing can tell: each cell here runs twice, once as
//! `sim::drive` runs it and once with every station made due again after
//! each of its steps, so that the loop stops at every tick, and the
//! event stream and the wire bytes must be the same.

use foxbasis::obs::{first_divergence, ConnMetrics, EventSink, Stamped, DEFAULT_RING_CAPACITY};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::advpeer::{attack_cell, attack_pair, Attack};
use foxharness::experiments as exp;
use foxharness::sim::drive;
use foxharness::stack::StackKind;
use foxharness::station::{ConnHandle, ScaleCounters, Station, StationStats};
use foxharness::workload::bulk_transfer;
use foxharness::Cell;
use foxtcp::TcpConfig;
use simnet::{CostModel, FaultConfig, HostHandle, SimNet};
use std::rc::Rc;

const TICK: VirtualDuration = VirtualDuration::from_millis(1);

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
const LOSSY_CELL_STEPS: u64 = 2268;

#[test]
fn the_lossy_cell_is_the_same_run_in_fewer_steps() {
    let (skipping, every) = invisible(&lossy_cell(StackKind::FoxStandard), &bulk_200k);
    assert_eq!(skipping, LOSSY_CELL_STEPS, "stepped at every tick: {every}");
}

/// The baseline keeps no alarm, so its host is due at every tick and it
/// is stepped exactly as often as before.
#[test]
fn the_baseline_is_still_stepped_at_every_tick() {
    let (skipping, every) = invisible(&lossy_cell(StackKind::XKernel), &bulk_200k);
    assert_eq!(skipping, every);
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

/// Three `churn`-style lifecycles (connect, 64 B each way, close from
/// both ends), and then the client's TIME-WAITs run out.
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
    let cell = Cell::new(StackKind::FoxStandard, CostModel::modern(), TcpConfig::default(), 9);
    let (skipping, every) = invisible(&cell, &workload);
    assert!(skipping < every, "{skipping} steps, {every} at every tick");
}

/// The in-window blind RST: the adversary waits for a stable wire for
/// a span of virtual time, which it asks the loop for through a host's
/// alarm.
#[test]
fn a_blind_rst_volley_is_the_same_run() {
    let cell = attack_cell(StackKind::FoxStandard, FaultConfig::default(), 11);
    let workload =
        |cell: &Cell, net: &SimNet, sender: &mut Box<dyn Station>, receiver: &mut Box<dyn Station>| {
            let report = attack_pair(cell, net, sender, receiver, Attack::BlindRstInWindow);
            assert!(report.outcome_ok() && report.injected > 0, "{report:?}");
        };
    let (skipping, every) = invisible(&cell, &workload);
    assert!(skipping < every, "{skipping} steps, {every} at every tick");
}
