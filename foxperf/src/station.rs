//! The two `Station` newtypes the benchmark puts between the workload
//! drivers and the real stations.
//!
//! [`CheckedStation`] is always there: it is the application's payload
//! source (seeded bytes from the [`Pool`]) and the delivery check (a
//! [`Rolling`] sum over everything sent and received). [`TimedStation`]
//! is added only in the traced pass and records a span around every
//! call. Both hand the wrapped `Box<dyn Station>` to the unmodified
//! `foxharness::sim::drive`, so neither the drivers nor the stacks know
//! they are being watched.

use crate::payload::{Pool, Rolling};
use crate::trace::{Call, OpMark, Recorder};
use foxbasis::obs::{ConnMetrics, EventSink};
use foxbasis::time::VirtualTime;
use foxharness::station::{ConnHandle, ScaleCounters, Station, StationStats};
use simnet::HostHandle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The `Station` calls both wrappers hand straight to the station they
/// wrap: the driver asking for the host, and the benchmark reading
/// counters — neither is the workload running.
macro_rules! forward_to_inner {
    () => {
        fn host(&self) -> HostHandle {
            self.inner.host()
        }

        fn kind(&self) -> &'static str {
            self.inner.kind()
        }

        fn stats(&self) -> StationStats {
            self.inner.stats()
        }

        fn set_obs(&mut self, sink: EventSink) {
            self.inner.set_obs(sink);
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

        fn debug_line(&self) -> String {
            self.inner.debug_line()
        }
    };
}

/// What a [`CheckedStation`] saw, shared with the code that built it.
#[derive(Default)]
pub struct Tally {
    /// Every byte the station accepted for sending, in order.
    pub tx: RefCell<Rolling>,
    /// Every byte the application took from the station, in order.
    pub rx: RefCell<Rolling>,
    /// The handle the last `connect` returned.
    pub last_connect: Cell<Option<ConnHandle>>,
    /// The handle the last successful `accept` returned.
    pub last_accept: Cell<Option<ConnHandle>>,
}

impl Tally {
    /// True if everything this station sent is exactly what `peer`'s
    /// application received, and the other way round.
    pub fn agrees_with(&self, peer: &Tally) -> bool {
        self.tx.borrow().digest() == peer.rx.borrow().digest()
            && peer.tx.borrow().digest() == self.rx.borrow().digest()
    }
}

/// Where the bytes of a `send` come from.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Source {
    /// The caller's bytes are replaced by the next bytes of the seeded
    /// stream (same length), so payload is a function of `--seed` even
    /// under `workload::bulk_transfer`, which brings its own pattern.
    Seeded,
    /// The caller's bytes go out as given (the bulk *request*, which the
    /// sending application parses).
    AsGiven,
}

/// A station whose traffic is generated from the seed and checked.
pub struct CheckedStation {
    inner: Box<dyn Station>,
    pool: Rc<Pool>,
    source: Source,
    tally: Rc<Tally>,
}

impl CheckedStation {
    /// Wraps `inner`; the returned [`Tally`] stays readable after the
    /// station has been boxed away.
    pub fn wrap(inner: Box<dyn Station>, pool: Rc<Pool>, source: Source) -> (Box<dyn Station>, Rc<Tally>) {
        let tally = Rc::new(Tally::default());
        (Box::new(CheckedStation { inner, pool, source, tally: tally.clone() }), tally)
    }
}

impl Station for CheckedStation {
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        let h = self.inner.connect(remote_port);
        self.tally.last_connect.set(Some(h));
        h
    }

    fn listen(&mut self, local_port: u16) {
        self.inner.listen(local_port);
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        let h = self.inner.accept();
        if h.is_some() {
            self.tally.last_accept.set(h);
        }
        h
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        let mut tx = self.tally.tx.borrow_mut();
        let bytes = match self.source {
            Source::Seeded => self.pool.slice(tx.len(), data.len()),
            Source::AsGiven => data,
        };
        let taken = self.inner.send(conn, bytes);
        tx.update(&bytes[..taken]);
        taken
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        let data = self.inner.recv(conn);
        if !data.is_empty() {
            self.tally.rx.borrow_mut().update(&data);
        }
        data
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

    fn step(&mut self, now: VirtualTime) -> bool {
        self.inner.step(now)
    }

    forward_to_inner!();
}

/// A station that records a span around every call made to it.
pub struct TimedStation {
    inner: Box<dyn Station>,
    rec: Rc<Recorder>,
    index: u8,
    /// Whether this station's calls mark operation boundaries.
    marks_ops: bool,
    rx_bytes: u64,
}

impl TimedStation {
    /// Wraps `inner` as station number `index` of the slice handed to
    /// `drive`. Exactly one station of a rep has `marks_ops` set: the
    /// client (or, for the bulk workloads, the receiver).
    pub fn wrap(inner: Box<dyn Station>, rec: Rc<Recorder>, index: u8, marks_ops: bool) -> Box<dyn Station> {
        Box::new(TimedStation { inner, rec, index, marks_ops, rx_bytes: 0 })
    }

    fn marks(&self, mark: OpMark) -> bool {
        self.marks_ops && self.rec.mark() == mark
    }
}

impl Station for TimedStation {
    fn connect(&mut self, remote_port: u16) -> ConnHandle {
        if self.marks(OpMark::Connect) {
            self.rec.begin_op();
        }
        let inner = &mut self.inner;
        self.rec.call(self.index, Call::Connect, || inner.connect(remote_port))
    }

    fn listen(&mut self, local_port: u16) {
        let inner = &mut self.inner;
        self.rec.call(self.index, Call::Listen, || inner.listen(local_port));
    }

    fn accept(&mut self) -> Option<ConnHandle> {
        let inner = &mut self.inner;
        self.rec.call(self.index, Call::Accept, || inner.accept())
    }

    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize {
        if self.marks(OpMark::Send) {
            self.rec.begin_op();
        }
        let inner = &mut self.inner;
        self.rec.call(self.index, Call::Send, || inner.send(conn, data))
    }

    fn recv(&mut self, conn: ConnHandle) -> Vec<u8> {
        let inner = &mut self.inner;
        let data = self.rec.call(self.index, Call::Recv, || inner.recv(conn));
        if self.marks(OpMark::RxMss) && !data.is_empty() {
            self.rx_bytes += data.len() as u64;
            self.rec.set_op((self.rx_bytes / crate::workloads::MSS as u64) as u32);
        }
        data
    }

    fn received_len(&self, conn: ConnHandle) -> usize {
        self.rec.call(self.index, Call::Query, || self.inner.received_len(conn))
    }

    fn established(&self, conn: ConnHandle) -> bool {
        self.rec.call(self.index, Call::Query, || self.inner.established(conn))
    }

    fn peer_closed(&self, conn: ConnHandle) -> bool {
        self.rec.call(self.index, Call::Query, || self.inner.peer_closed(conn))
    }

    fn finished(&self, conn: ConnHandle) -> bool {
        self.rec.call(self.index, Call::Query, || self.inner.finished(conn))
    }

    fn close(&mut self, conn: ConnHandle) {
        let inner = &mut self.inner;
        self.rec.call(self.index, Call::Close, || inner.close(conn));
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let inner = &mut self.inner;
        self.rec.step(self.index, now, || inner.step(now))
    }

    // The remaining calls pass through unrecorded.
    forward_to_inner!();
}
