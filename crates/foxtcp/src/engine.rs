//! The Main and Action modules: the quasi-synchronous executor, segment
//! externalization/internalization, timers, and the user-facing
//! operations.
//!
//! "The control structure of our TCP is therefore very simple: executing
//! an operation computes the corresponding actions and queues them onto
//! the connection's to_do queue. ... in the current implementation, the
//! thread executing an operation then executes actions, one at a time,
//! until at least those actions it placed on the queue have completed
//! execution." (paper §4)
//!
//! [`Tcp<L, A>`] is the TCP functor of the paper's Fig. 4. Its type
//! parameters are the functor's structure parameters — the lower
//! protocol and the auxiliary structure — and the `where` bounds are the
//! `sharing type` constraints, checked by the compiler exactly as the
//! paper advertises. [`crate::TcpConfig`] carries the value parameters.

use crate::action::{AttackEvent, LossEvent, TcpAction, TimerKind};
use crate::control::fsm::Trigger;
use crate::control::segment::{self, ListenVerdict};
use crate::control::state;
use crate::data::{fastpath, resend, transfer};
use crate::demux::{Demux, DemuxStats};
use crate::{ConnCore, TcpConfig, TcpState};
use fox_scheduler::SchedHandle;
use foxbasis::buf::{copy_mark, BufPool};
use foxbasis::fifo::Fifo;
use foxbasis::obs::{ConnMetrics, Event, EventSink};
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxbasis::wheel::{TimerWheel, WheelStats};
use foxproto::aux::IpAux;
use foxproto::{Handler, ProtoError, Protocol};
use foxwire::tcp::TcpSegment;
use simnet::{HostHandle, Work};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A TCP connection handle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TcpConnId(pub u32);

/// What `open` matches: the paper's `address` (active) or
/// `address_pattern` (passive).
#[derive(Clone, Debug)]
pub enum TcpPattern<P> {
    /// Active open to `remote:remote_port`; `local_port` 0 means pick an
    /// ephemeral port.
    Active {
        /// Peer address at the lower layer.
        remote: P,
        /// Peer TCP port.
        remote_port: u16,
        /// Our port (0 = ephemeral).
        local_port: u16,
    },
    /// Passive open on `local_port`.
    Passive {
        /// The port to listen on.
        local_port: u16,
    },
}

/// Events delivered to a connection's upcall handler.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcpEvent {
    /// The three-way handshake completed.
    Established,
    /// In-order payload.
    Data(Vec<u8>),
    /// The peer sent FIN: no more data will arrive.
    PeerClosed,
    /// The connection is fully closed.
    Closed,
    /// The peer reset the connection.
    Reset,
    /// The user timeout (or retransmission give-up) fired.
    TimedOut,
    /// (Listeners only) a new connection arrived; adopt it with
    /// [`Tcp::set_handler`].
    NewConnection(TcpConnId),
    /// The peer signalled urgent data up to the given stream offset
    /// (relative to the connection's initial receive sequence number).
    Urgent(u32),
}

/// Aggregate statistics (several of the benchmark tables read these).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Segments received and processed.
    pub segments_received: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub bytes_sent: u64,
    /// Payload bytes delivered to users.
    pub bytes_delivered: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Segments the §4 fast path fully handled.
    pub fastpath_hits: u64,
    /// Segments that fell through to the full DAG.
    pub fastpath_misses: u64,
    /// Segments dropped for bad checksums.
    pub checksum_failures: u64,
    /// RSTs transmitted.
    pub rsts_sent: u64,
    /// Segments that arrived out of order.
    pub out_of_order: u64,
    /// Actions executed through to_do queues.
    pub actions_executed: u64,
    /// Fast retransmissions (three duplicate ACKs, no timer).
    pub fast_retransmits: u64,
    /// Fast-recovery episodes entered (Reno/NewReno).
    pub recoveries: u64,
    /// Retransmission timer expirations that actually retransmitted.
    pub rto_fires: u64,
    /// Zero-window probes sent by the persist timer.
    pub probe_fires: u64,
    /// SYNs dropped because the listener's accept queue was full.
    pub syns_dropped: u64,
    /// In-window RSTs rejected because their sequence number was not
    /// exactly RCV.NXT (blind-reset attempts; RFC 5961 §3.2). Each one
    /// was answered with a challenge ACK instead of aborting.
    pub rst_rejected_seq: u64,
    /// ACKs dropped because they acknowledged data never sent
    /// (optimistic-ACK attempts; SEG.ACK > SND.NXT).
    pub acks_ignored_unsent_data: u64,
    /// Real buffer copies ([`foxbasis::buf`] copy counter deltas)
    /// observed while externalizing/internalizing segments. Purely
    /// observational: the virtual cost model charges the paper's per-KB
    /// constants independently.
    pub buf_copies: u64,
    /// Bytes moved by those copies.
    pub buf_copy_bytes: u64,
}

struct Conn<P> {
    id: u32,
    /// The peer's lower-layer address (`None` while listening), fixed
    /// for the connection's lifetime: only demultiplexing and
    /// transmission read it, so the core does not carry it.
    peer: Option<P>,
    core: ConnCore,
    handler: Option<Handler<TcpEvent>>,
    pending_events: Vec<TcpEvent>,
    timers: [Option<foxbasis::wheel::TimerId>; 5],
    /// The listener that spawned this connection, if any.
    parent: Option<u32>,
    /// Set once a terminal event (Closed/Reset/TimedOut) was delivered.
    finished: bool,
    /// True while this child takes up a place in its parent's accept
    /// queue: from its spawning until the first of adoption or `Closed`.
    in_backlog: bool,
    /// (Listeners) the children currently `in_backlog` — the count a SYN
    /// is admitted against.
    backlogged: usize,
    /// Already on the engine's `reap_list`.
    reap_listed: bool,
}

/// The first port of the ephemeral range (through 65535).
const EPHEMERAL_FIRST: u16 = 49152;

impl<P> Conn<P> {
    /// Fully closed, drained, and the user has seen the end (an
    /// unadopted child has no user to show it to).
    fn reapable(&self) -> bool {
        self.core.state == TcpState::Closed
            && self.core.tcb.to_do.is_empty()
            && self.pending_events.is_empty()
            && (self.finished || self.parent.is_some())
    }
}

fn timer_index(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Resend => 0,
        TimerKind::DelayedAck => 1,
        TimerKind::Persist => 2,
        TimerKind::TimeWait => 3,
        TimerKind::UserTimeout => 4,
    }
}

/// The TCP functor (paper Fig. 4).
///
/// ```text
/// functor Tcp
///   (structure Lower: PROTOCOL            -- L
///    structure Aux: IP_AUX                -- A
///    sharing type Lower.address = Aux.address      -- A::Address = L::Peer
///    and type Lower.incoming_message = Aux.incoming_message
///    val initial_window / compute_checksums / ...  -- TcpConfig
///    structure Scheduler: COROUTINE       -- SchedHandle
///    structure B: FOX_BASIS               -- HostHandle + EventSink
///    ...): TCP_PROTOCOL
/// ```
///
/// The engine reads the scheduler only as a clock (`now`,
/// `advance_to`): it forks no coroutine, and every connection timer
/// lives on the engine's own shared wheel.
pub struct Tcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    lower: L,
    aux: A,
    cfg: TcpConfig,
    sched: SchedHandle,
    host: HostHandle,
    lower_pattern: L::Pattern,
    lower_conn: Option<L::ConnId>,
    rx: Rc<RefCell<Fifo<L::Incoming>>>,
    /// The only connection table (see [`Table`]).
    conns: Table<L::Peer>,
    next_id: u32,
    next_ephemeral: u16,
    stats: TcpStats,
    obs: EventSink,
    /// All connection timers, one shared wheel: payload is
    /// (connection id, timer kind).
    wheel: TimerWheel<(u32, TimerKind)>,
    /// Keyed segment→connection-id table; files every id in `conns`.
    demux: Demux,
    /// The storage every segment this engine sends is staged in; each
    /// connection holds a handle on it.
    pool: BufPool,
    /// `(id, slot)` of the connections whose timers fired in this `step`
    /// (scratch, kept for its capacity).
    fired: Vec<(u32, usize)>,
    /// The slots of the connections that can have become reapable since
    /// the last `reap` — listed wherever one of [`Conn::reapable`]'s
    /// terms can have turned true — which are the only ones it visits.
    reap_list: Vec<usize>,
}

/// The connection table: a slab. A connection is built in a slot and
/// stays there until it is reaped, so a slot number, once looked up, is
/// good for as long as the connection is — `reap` runs only at the end
/// of `step`, and nothing else removes. Slots are recycled, ids are not:
/// an id is the engine's creation counter (traces, the demux's
/// oldest-first rule and `step`'s drain order all read it as one), and a
/// stale `TcpConnId` must name nothing rather than a stranger.
///
/// `live` is the table's only order and its only index: `(id, slot)`
/// pairs in creation order, which is ascending id, so id → slot is a
/// binary search over 8-byte entries. An entry is written once when its
/// connection is created and removed once when it is reaped; nothing
/// ever renumbers the others.
struct Table<P> {
    slots: Vec<Option<Conn<P>>>,
    /// Vacant slots, the last vacated first to be reused.
    free: Vec<u32>,
    live: Vec<(u32, u32)>,
}

impl<P> Table<P> {
    fn new() -> Table<P> {
        Table { slots: Vec::new(), free: Vec::new(), live: Vec::new() }
    }

    /// Live connections.
    fn len(&self) -> usize {
        self.live.len()
    }

    /// The slot connection `id` lives in, if it is live.
    fn slot_of(&self, id: u32) -> Option<usize> {
        let at = self.live.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(self.live[at].1 as usize)
    }

    /// Files `conn`, whose id must exceed every id filed before it, in
    /// a vacant slot; returns the slot.
    fn insert(&mut self, conn: Conn<P>) -> usize {
        debug_assert!(self.live.last().is_none_or(|&(newest, _)| newest < conn.id), "ids only grow");
        let id = conn.id;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 connections")
            }
        };
        self.live.push((id, slot));
        slot as usize
    }

    /// Takes the connection out of `slot`, which it must occupy.
    fn remove(&mut self, slot: usize) -> Conn<P> {
        let conn = self.slots[slot].take().expect("only an occupied slot is vacated");
        let at =
            self.live.binary_search_by_key(&conn.id, |&(id, _)| id).expect("a live connection is listed");
        self.live.remove(at);
        self.free.push(slot as u32);
        conn
    }

    /// Every live connection, in id order.
    fn iter(&self) -> impl Iterator<Item = &Conn<P>> {
        self.live.iter().map(|&(_, slot)| &self[slot as usize])
    }
}

impl<P> std::ops::Index<usize> for Table<P> {
    type Output = Conn<P>;

    fn index(&self, slot: usize) -> &Conn<P> {
        self.slots[slot].as_ref().expect("a looked-up slot stays occupied until the end of `step`")
    }
}

impl<P> std::ops::IndexMut<usize> for Table<P> {
    fn index_mut(&mut self, slot: usize) -> &mut Conn<P> {
        self.slots[slot].as_mut().expect("a looked-up slot stays occupied until the end of `step`")
    }
}

impl<L, A> Tcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// Instantiates the functor.
    pub fn new(
        lower: L,
        aux: A,
        lower_pattern: L::Pattern,
        cfg: TcpConfig,
        sched: SchedHandle,
        host: HostHandle,
    ) -> Tcp<L, A> {
        let wheel = TimerWheel::new(sched.now());
        Tcp {
            lower,
            aux,
            cfg,
            sched,
            host,
            lower_pattern,
            lower_conn: None,
            rx: Rc::new(RefCell::new(Fifo::new())),
            conns: Table::new(),
            next_id: 0,
            next_ephemeral: EPHEMERAL_FIRST,
            stats: TcpStats::default(),
            obs: EventSink::off(),
            wheel,
            demux: Demux::new(),
            pool: BufPool::new(),
            fired: Vec::new(),
            reap_list: Vec::new(),
        }
    }

    /// Installs an event sink; the default ([`EventSink::off`]) records
    /// nothing and costs one branch per emit site.
    pub fn set_obs(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Timer-wheel operation counters (the `tables -- scale` experiment
    /// reports these alongside demux counters).
    pub fn wheel_stats(&self) -> WheelStats {
        self.wheel.stats()
    }

    /// Demux-table operation counters.
    pub fn demux_stats(&self) -> DemuxStats {
        self.demux.stats()
    }

    /// The engine's buffer pool, for a test or a diagnostic to read its
    /// counters.
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    /// A unified per-connection metrics snapshot: the TCB's live
    /// estimator/window state plus the engine's counters (the engine
    /// counts across connections; single-connection hosts — every
    /// harness station — read them as per-connection).
    pub fn metrics_of(&self, conn: TcpConnId) -> Option<ConnMetrics> {
        let i = self.conns.slot_of(conn.0)?;
        let tcb = &self.conns[i].core.tcb;
        let rtt = tcb.send_side().rtt();
        Some(ConnMetrics {
            srtt_us: rtt.srtt.map(|d| d.as_micros()),
            rto_us: rtt.rto.as_micros(),
            cwnd: tcb.cc.cwnd(),
            ssthresh: tcb.cc.ssthresh(),
            snd_wnd: tcb.seq().snd_wnd,
            bytes_in_flight: tcb.flight_size(),
            fastpath_hits: self.stats.fastpath_hits,
            fastpath_misses: self.stats.fastpath_misses,
            retransmits: self.stats.retransmits,
            fast_retransmits: self.stats.fast_retransmits,
            recoveries: self.stats.recoveries,
            rto_fires: self.stats.rto_fires,
            probe_fires: self.stats.probe_fires,
            segments_sent: self.stats.segments_sent,
            segments_received: self.stats.segments_received,
            bytes_sent: self.stats.bytes_sent,
            bytes_delivered: self.stats.bytes_delivered,
            buf_copies: self.stats.buf_copies,
            buf_copy_bytes: self.stats.buf_copy_bytes,
        })
    }

    /// The connection's core — its state and TCB — for a test or a
    /// diagnostic to read, if it still exists.
    pub fn core_of(&self, conn: TcpConnId) -> Option<&ConnCore> {
        self.conns.slot_of(conn.0).map(|i| &self.conns[i].core)
    }

    /// The connection's current state, if it still exists.
    pub fn state_of(&self, conn: TcpConnId) -> Option<TcpState> {
        self.core_of(conn).map(|core| TcpState::clone(&core.state))
    }

    /// Free space in the connection's send buffer.
    ///
    /// `Err(NotOpen)` for an unknown (or already reaped) connection —
    /// distinguishable from `Ok(0)`, which means the connection exists
    /// but flow control is pushing back.
    pub fn send_capacity(&self, conn: TcpConnId) -> Result<usize, ProtoError> {
        let i = self.conns.slot_of(conn.0).ok_or(ProtoError::NotOpen)?;
        Ok(self.conns[i].core.tcb.send_side().send_buf().free())
    }

    /// Installs (or replaces) the upcall handler; buffered events are
    /// flushed to it immediately. This is how a listener's user adopts a
    /// [`TcpEvent::NewConnection`] child — and when the data the child
    /// parked meanwhile stops counting against its receive window.
    pub fn set_handler(&mut self, conn: TcpConnId, mut handler: Handler<TcpEvent>) -> Result<(), ProtoError> {
        let i = self.conns.slot_of(conn.0).ok_or(ProtoError::NotOpen)?;
        let mut taken = 0;
        for ev in self.conns[i].pending_events.drain(..) {
            if let TcpEvent::Data(d) = &ev {
                taken += d.len();
            }
            handler(ev);
        }
        self.conns[i].handler = Some(handler);
        self.leave_backlog(i);
        self.list_for_reap(i);
        if taken > 0 {
            transfer::user_took(&mut self.conns[i].core, taken, self.sched.now());
            self.run_actions(i);
        }
        Ok(())
    }

    /// Accepts as much of `data` as fits the send buffer; returns the
    /// number of bytes taken (0 means flow control pushed back).
    pub fn send_data(&mut self, conn: TcpConnId, data: &[u8]) -> Result<usize, ProtoError> {
        let i = self.conns.slot_of(conn.0).ok_or(ProtoError::NotOpen)?;
        let taken = state::send(&self.cfg, &mut self.conns[i].core, data, self.sched.now())?;
        self.run_actions(i);
        Ok(taken)
    }

    // ----- internals -----

    /// The slot of the oldest connection filed under `(local_port,
    /// peer, remote_port)` whose peer really is `peer` (the demux keys
    /// on a hash) and whose state `accept`s.
    fn flow_index(
        &mut self,
        local_port: u16,
        peer: &L::Peer,
        remote_port: u16,
        accept: impl Fn(&TcpState) -> bool,
    ) -> Option<usize> {
        let conns = &self.conns;
        // The closure has to find the slot to look at the connection;
        // the slot it accepted is the answer.
        let mut found = None;
        self.demux.lookup_flow(local_port, A::hash(peer), remote_port, |id| {
            found = conns.slot_of(id).filter(|&i| {
                let conn = &conns[i];
                conn.peer.as_ref().is_some_and(|a| A::eq(a, peer))
                    && conn.core.remote_port == remote_port
                    && accept(&conn.core.state)
            });
            found.is_some()
        })?;
        found
    }

    /// The slot of the oldest listener on `local_port` whose state
    /// `accept`s.
    fn listener_index(&mut self, local_port: u16, accept: impl Fn(&TcpState) -> bool) -> Option<usize> {
        let conns = &self.conns;
        let mut found = None;
        self.demux.lookup_listener(local_port, |id| {
            found = conns.slot_of(id).filter(|&i| accept(&conns[i].core.state));
            found.is_some()
        })?;
        found
    }

    /// Reports the state change of the connection in slot `idx` since
    /// `before`, if any — the one place a `StateTransition` is stamped.
    fn note_transition(&self, idx: usize, before: &'static str, cause: &'static str) {
        let conn = &self.conns[idx];
        let after = conn.core.state.name();
        if before != after {
            self.obs.emit(self.sched.now(), conn.id, || Event::StateTransition {
                from: before,
                to: after,
                cause,
            });
        }
    }

    /// Runs the user call `call` on the connection in slot `idx`, then
    /// reports what it did: the state change it made, stamped with
    /// `trigger`, and the actions it queued, drained. The call's own
    /// refusal is returned after that.
    fn user_call(
        &mut self,
        idx: usize,
        trigger: Trigger,
        call: impl FnOnce(&TcpConfig, &mut ConnCore, VirtualTime) -> Result<(), ProtoError>,
    ) -> Result<(), ProtoError> {
        let now = self.sched.now();
        let core = &mut self.conns[idx].core;
        let before = core.state.name();
        let res = call(&self.cfg, core, now);
        self.note_closed(idx);
        self.note_transition(idx, before, trigger.name());
        self.run_actions(idx);
        res
    }

    fn ensure_lower_open(&mut self) -> Result<(), ProtoError> {
        if self.lower_conn.is_none() {
            let q = self.rx.clone();
            self.lower_conn =
                Some(self.lower.open(self.lower_pattern.clone(), Box::new(move |m| q.borrow_mut().add(m)))?);
        }
        Ok(())
    }

    /// RFC 793-style clock-driven initial sequence number, made unique
    /// per connection id. Deterministic under the virtual clock.
    fn new_iss(&self) -> Seq {
        let clock = (self.sched.now().as_micros() / 4) as u32;
        Seq(clock.wrapping_add(self.next_id.wrapping_mul(65_536)).wrapping_add(1))
    }

    /// The next free port of 49152–65535, or `None` once one whole lap
    /// finds every one of them bound.
    fn alloc_ephemeral(&mut self) -> Option<u16> {
        for _ in EPHEMERAL_FIRST..=u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { EPHEMERAL_FIRST } else { p + 1 };
            if !self.demux.port_in_use(p) {
                return Some(p);
            }
        }
        None
    }

    /// Creates a closed connection and files it; returns its slot.
    fn new_conn(&mut self, local_port: u16, remote: Option<(L::Peer, u16)>, parent: Option<u32>) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let iss = self.new_iss();
        // RFC 879: the MSS excludes both the IP and TCP headers from
        // the link MTU the aux reports — 1460 on a 1500-byte Ethernet.
        // One saturating helper, shared with xktcp.
        let mss = foxwire::tcp::mss_for_mtu(self.aux.mtu() as u32);
        let (peer, remote_port) = remote.map_or((None, 0), |(peer, port)| (Some(peer), port));
        let core = ConnCore::new(&self.cfg, local_port, remote_port, iss, mss, self.pool.clone());
        let conn = Conn {
            id,
            peer,
            core,
            handler: None,
            pending_events: Vec::new(),
            timers: Default::default(),
            parent,
            finished: false,
            in_backlog: false,
            backlogged: 0,
            reap_listed: false,
        };
        // The peer and both ports are fixed for the connection's
        // lifetime, so its demux key never needs re-filing.
        let (id, local_port, flow) = Self::demux_key(&conn);
        self.demux.insert(id, local_port, flow);
        self.conns.insert(conn)
    }

    /// The child in slot `idx` gives up its place in its parent's accept
    /// queue, if it still holds one: called at adoption and at `Closed`,
    /// whichever comes first.
    fn leave_backlog(&mut self, idx: usize) {
        if std::mem::take(&mut self.conns[idx].in_backlog) {
            let parent = self.conns[idx].parent.and_then(|lid| self.conns.slot_of(lid));
            if let Some(lidx) = parent {
                self.conns[lidx].backlogged -= 1;
            }
        }
    }

    /// Puts the connection in slot `idx` on the list `reap` visits.
    fn list_for_reap(&mut self, idx: usize) {
        if !std::mem::replace(&mut self.conns[idx].reap_listed, true) {
            self.reap_list.push(idx);
        }
    }

    fn deliver(&mut self, idx: usize, event: TcpEvent) {
        if matches!(event, TcpEvent::Closed | TcpEvent::Reset | TcpEvent::TimedOut) {
            self.conns[idx].finished = true;
            self.list_for_reap(idx);
        }
        match &mut self.conns[idx].handler {
            Some(h) => h(event),
            None => self.conns[idx].pending_events.push(event),
        }
    }

    /// Externalizes and transmits a segment for connection `idx` (the
    /// Action module's send half).
    fn transmit(&mut self, idx: usize, seg: TcpSegment) {
        let to = match &self.conns[idx].peer {
            Some(peer) => peer.clone(),
            None => return, // cannot address: drop (listener RSTs go via transmit_to)
        };
        self.transmit_to(seg, to, Some(idx));
    }

    /// Transmits a segment to an explicit peer, on behalf of the
    /// connection in slot `tx_conn` (RST replies for unknown connections
    /// have no connection record).
    fn transmit_to(&mut self, seg: TcpSegment, to: L::Peer, tx_conn: Option<usize>) {
        let total = seg.header.header_len() + seg.payload.len();
        let pseudo = if self.cfg.compute_checksums { self.aux.check(&to, total) } else { None };
        if pseudo.is_some() {
            self.host.charge(Work::Checksum(total));
        }
        self.host.charge(Work::TcpSegment { payload: seg.payload.len() });
        self.host.with(|h| h.alloc_segment(seg.payload.len()));
        if let Some(idx) = tx_conn {
            self.conns[idx].core.tcb.note_advertised(&seg.header);
        }
        // The encoder consumes the segment — the payload buffer it
        // carries is the buffer that goes down — so what is reported
        // about it is read first.
        let (h, len) = (&seg.header, seg.payload.len());
        let (seq, ack, flags, wnd) = (h.seq.0, h.ack.0, h.flags, h.window);
        let mark = copy_mark();
        let bytes = match seg.encode_buf(pseudo) {
            Ok(b) => b,
            Err(_) => return,
        };
        let delta = mark.delta();
        if delta.bytes > 0 {
            self.stats.buf_copies += delta.copies;
            self.stats.buf_copy_bytes += delta.bytes;
            self.obs.emit(self.sched.now(), foxbasis::obs::NO_CONN, || Event::BufCopy {
                layer: "tcp_tx",
                bytes: delta.bytes as u32,
            });
        }
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += len as u64;
        if self.obs.is_on() {
            let conn = tx_conn.map_or(foxbasis::obs::NO_CONN, |idx| self.conns[idx].id);
            self.obs.emit(self.sched.now(), conn, || Event::SegTx {
                seq,
                ack,
                len: len as u32,
                flags: flags.to_u8(),
                wnd: u32::from(wnd),
            });
        }
        if flags.rst {
            self.stats.rsts_sent += 1;
        }
        let conn = match self.lower_conn {
            Some(c) => c,
            None => return,
        };
        let _ = self.lower.send(conn, to, bytes);
    }

    /// Arms the Fig. 11 timer for `kind` on connection `idx` — on the
    /// shared wheel rather than as a forked coroutine, but with the same
    /// contract: expiry synchronizes only by enqueueing a
    /// `Timer_Expiration` action onto the connection's to_do queue,
    /// never by touching state.
    fn set_timer(&mut self, idx: usize, kind: TimerKind, ms: u64) {
        self.clear_timer(idx, kind);
        self.obs.emit(self.sched.now(), self.conns[idx].id, || Event::TimerSet {
            timer: kind.name(),
            after_ms: ms,
        });
        self.host.charge(Work::ThreadOp);
        let deadline = self.sched.now() + VirtualDuration::from_millis(ms);
        let id = self.conns[idx].id;
        let tid = self.wheel.arm(deadline, (id, kind));
        self.conns[idx].timers[timer_index(kind)] = Some(tid);
    }

    fn clear_timer(&mut self, idx: usize, kind: TimerKind) {
        if let Some(tid) = self.conns[idx].timers[timer_index(kind)].take() {
            // May already have fired — cancelling then is a no-op, and
            // the clear is still reported.
            self.wheel.cancel(tid);
            self.obs.emit(self.sched.now(), self.conns[idx].id, || Event::TimerClear { timer: kind.name() });
        }
    }

    /// Drains a connection's to_do queue, executing actions one at a
    /// time — the heart of the quasi-synchronous control structure
    /// (paper Fig. 7).
    ///
    /// Takes the connection's slot: the caller looked it up, and it
    /// stays good however long the drain runs.
    fn run_actions(&mut self, idx: usize) {
        let conn_id = self.conns[idx].id;
        loop {
            let q = &mut self.conns[idx].core.tcb.to_do;
            // The paper's §4 priority extension: serve the actions
            // that affect packet latency (outbound segments) first.
            let action = if self.cfg.latency_priority {
                q.take_first_match(|a| matches!(a, TcpAction::SendSegment(_))).or_else(|| q.next())
            } else {
                q.next()
            };
            let Some(action) = action else { return };
            self.stats.actions_executed += 1;
            let now = self.sched.now();
            let state_before = if self.obs.is_on() {
                self.obs.emit(now, conn_id, || Event::Action { tag: action.tag() });
                // Only segments and timers can move the state machine
                // from inside the action loop; stamp the cause now,
                // while the action still owns its segment.
                let cause = match &action {
                    TcpAction::ProcessData(seg) => Trigger::of(&seg.header.flags).name(),
                    TcpAction::TimerExpiration(_) => Trigger::Timer.name(),
                    _ => "action",
                };
                Some((self.conns[idx].core.state.name(), cause))
            } else {
                None
            };
            match action {
                TcpAction::ProcessData(seg) => {
                    self.obs.emit(now, conn_id, || Event::SegRx {
                        seq: seg.header.seq.0,
                        ack: seg.header.ack.0,
                        len: seg.payload.len() as u32,
                        flags: seg.header.flags.to_u8(),
                        wnd: u32::from(seg.header.window),
                    });
                    self.host.charge(Work::TcpSegment { payload: seg.payload.len() });
                    self.host.with(|h| h.alloc_segment(seg.payload.len()));
                    let mut handled_fast = false;
                    if self.cfg.fast_path {
                        let core = &mut self.conns[idx].core;
                        handled_fast = fastpath::try_fast(&self.cfg, core, &seg, now);
                    }
                    if handled_fast {
                        self.stats.fastpath_hits += 1;
                    } else {
                        self.stats.fastpath_misses += 1;
                        if seg.header.seq != self.conns[idx].core.tcb.seq().rcv_nxt && !seg.payload.is_empty()
                        {
                            self.stats.out_of_order += 1;
                        }
                        let disposition = {
                            let core = &mut self.conns[idx].core;
                            segment::segment_arrives(&self.cfg, core, seg, now)
                        };
                        if let Some(reply) = disposition.reply {
                            self.transmit(idx, reply);
                        }
                    }
                }
                TcpAction::SendSegment(seg) => {
                    self.transmit(idx, seg);
                }
                TcpAction::UserData(data) => {
                    self.stats.bytes_delivered += data.len() as u64;
                    // A connection with a handler has a user, who takes
                    // the data here. An unadopted child has none yet:
                    // what it parks stays charged to its receive window
                    // — the bound on what a peer nobody `accept`s from
                    // can make us hold — until `set_handler` flushes it.
                    if self.conns[idx].handler.is_some() {
                        transfer::user_took(&mut self.conns[idx].core, data.len(), now);
                    }
                    if !data.is_empty() {
                        self.deliver(idx, TcpEvent::Data(data));
                    }
                }
                TcpAction::SetTimer(kind, ms) => self.set_timer(idx, kind, ms),
                TcpAction::ClearTimer(kind) => self.clear_timer(idx, kind),
                TcpAction::TimerExpiration(kind) => {
                    self.obs.emit(now, conn_id, || Event::TimerFire { timer: kind.name() });
                    let core = &mut self.conns[idx].core;
                    state::timer_expired(&self.cfg, core, kind, now);
                }
                TcpAction::CompleteOpen => self.deliver(idx, TcpEvent::Established),
                TcpAction::CompleteClose => self.deliver(idx, TcpEvent::Closed),
                TcpAction::PeerClose => self.deliver(idx, TcpEvent::PeerClosed),
                TcpAction::PeerReset => self.deliver(idx, TcpEvent::Reset),
                TcpAction::UserTimeoutFired => self.deliver(idx, TcpEvent::TimedOut),
                TcpAction::NewConnection(child) => {
                    self.deliver(idx, TcpEvent::NewConnection(TcpConnId(child)))
                }
                TcpAction::UrgentData(up) => {
                    let offset = up.since(self.conns[idx].core.tcb.seq().irs);
                    self.deliver(idx, TcpEvent::Urgent(offset));
                }
                TcpAction::AckedTo(_) => {}
                TcpAction::Loss(ev) => {
                    self.obs.emit(now, conn_id, || Event::Loss { kind: ev.name() });
                    match ev {
                        LossEvent::FastRetransmit => {
                            self.stats.fast_retransmits += 1;
                            self.stats.retransmits += 1;
                        }
                        LossEvent::RtoRetransmit => self.stats.retransmits += 1,
                        LossEvent::RecoveryEntered => self.stats.recoveries += 1,
                        // What a partial ACK or a timeout retransmits
                        // reports itself, segment by segment.
                        LossEvent::RecoveryExited | LossEvent::PartialAck => {}
                        LossEvent::Rto => self.stats.rto_fires += 1,
                        LossEvent::Probe => self.stats.probe_fires += 1,
                    }
                }
                TcpAction::Attack(ev) => {
                    self.obs.emit(now, conn_id, || Event::Attack { kind: ev.name() });
                    match ev {
                        AttackEvent::RstBadSeq => self.stats.rst_rejected_seq += 1,
                        AttackEvent::AckUnsentData => self.stats.acks_ignored_unsent_data += 1,
                    }
                }
            }
            if let Some((before, cause)) = state_before {
                self.note_transition(idx, before, cause);
            }
            if cfg!(debug_assertions) {
                self.conns[idx].core.tcb.check_invariants();
            }
            self.note_closed(idx);
        }
    }

    /// Internalizes one lower-layer message (the Action module's receive
    /// half): verify the checksum, decode, demultiplex, enqueue a
    /// `Process_Data` action, then drain that connection's queue.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn internalize(&mut self, msg: L::Incoming) {
        let (src, seg) = {
            let info = self.aux.info(&msg);
            let pseudo =
                if self.cfg.compute_checksums { self.aux.check(&info.src, info.data.len()) } else { None };
            if pseudo.is_some() {
                self.host.charge(Work::Checksum(info.data.len()));
            }
            let mark = copy_mark();
            let decoded = TcpSegment::decode_buf(info.data, pseudo);
            let delta = mark.delta();
            if delta.bytes > 0 {
                self.stats.buf_copies += delta.copies;
                self.stats.buf_copy_bytes += delta.bytes;
                self.obs.emit(self.sched.now(), foxbasis::obs::NO_CONN, || Event::BufCopy {
                    layer: "tcp_rx",
                    bytes: delta.bytes as u32,
                });
            }
            match decoded {
                Ok(seg) => (info.src.clone(), seg),
                Err(foxwire::WireError::BadChecksum(_)) => {
                    self.stats.checksum_failures += 1;
                    return;
                }
                Err(_) => return,
            }
        };
        self.stats.segments_received += 1;

        // Demultiplex: exact (remote, ports) match first.
        let exact =
            self.flow_index(seg.header.dst_port, &src, seg.header.src_port, |s| *s != TcpState::Closed);
        if let Some(idx) = exact {
            self.conns[idx].core.tcb.push_action(TcpAction::ProcessData(seg));
            self.run_actions(idx);
            return;
        }

        // A listener on the port?
        let listener = self.listener_index(seg.header.dst_port, |s| matches!(s, TcpState::Listen { .. }));
        if let Some(lidx) = listener {
            let lid = self.conns[lidx].id;
            match segment::on_listen_segment(&self.pool, seg.header.dst_port, &seg) {
                ListenVerdict::Ignore => {}
                ListenVerdict::Reply(rst) => self.transmit_to(rst, src, None),
                ListenVerdict::Spawn => {
                    // The verify closure above only accepts Listen, but
                    // stay total on the rx path: treat anything else as
                    // a vanished listener and drop the SYN.
                    let TcpState::Listen { backlog } = *self.conns[lidx].core.state else {
                        return;
                    };
                    // The backlog is a real bounded accept queue: the
                    // listener counts every live child the user has not
                    // taken over yet — embryonic (handshake in flight)
                    // and established-but-unaccepted alike. The dropped
                    // SYN is not answered; the peer's retransmitted SYN
                    // retries admission once the queue has drained.
                    if self.conns[lidx].backlogged >= backlog {
                        self.stats.syns_dropped += 1;
                        return;
                    }
                    let cidx =
                        self.new_conn(seg.header.dst_port, Some((src, seg.header.src_port)), Some(lid));
                    self.conns[cidx].in_backlog = true;
                    self.conns[lidx].backlogged += 1;
                    let child = self.conns[cidx].id;
                    state::spawn_embryonic(&mut self.conns[cidx].core);
                    self.conns[cidx].core.tcb.push_action(TcpAction::ProcessData(seg));
                    self.run_actions(cidx);
                    // Tell the listener's user about the child.
                    self.conns[lidx].core.tcb.push_action(TcpAction::NewConnection(child));
                    self.run_actions(lidx);
                }
            }
            return;
        }

        // No connection at all: RFC 793 p. 36.
        if let Some(rst) = segment::on_closed_segment(&self.cfg, &self.pool, seg.header.dst_port, &seg) {
            self.transmit_to(rst, src, None);
        }
    }

    /// A connection reaching `Closed` is one of the three ways it can
    /// become reapable (see [`Conn::reapable`]) — `deliver` and
    /// `set_handler` list the other two — and, for a child nobody
    /// adopted, the end of its stay in the accept queue.
    fn note_closed(&mut self, idx: usize) {
        if self.conns[idx].core.state == TcpState::Closed {
            self.leave_backlog(idx);
            self.list_for_reap(idx);
        }
    }

    /// Removes the listed connections that are fully closed, drained,
    /// and whose user has seen the end, unfiling each from the demux
    /// table and vacating its slot. A listed connection that is not
    /// there yet (closed, say, with its last event still parked for a
    /// user who has not adopted it) is left, and is listed again by
    /// whatever brings it the rest of the way.
    fn reap(&mut self) {
        while let Some(idx) = self.reap_list.pop() {
            self.conns[idx].reap_listed = false;
            if self.conns[idx].reapable() {
                let (id, local_port, flow) = Self::demux_key(&self.conns.remove(idx));
                self.demux.remove(id, local_port, flow);
            }
        }
    }

    /// Asserts what holds between the table, the demux, the wheel and
    /// the accept-queue counters whenever the engine is at rest. `step`
    /// ends with it in debug builds (the switch `Tcb::check_invariants`
    /// and `fsm::transition`'s guard use); release builds never call it.
    ///
    /// # Panics
    /// Panics, naming the relation, if one does not hold.
    fn check_invariants(&self) {
        let table = &self.conns;
        // The slab: `live` ascends by id and points at its connections;
        // every other slot is vacant and on the free list exactly once.
        for pair in table.live.windows(2) {
            assert!(pair[0].0 < pair[1].0, "live entries {:?} and {:?} out of order", pair[0], pair[1]);
        }
        for &(id, slot) in &table.live {
            let holds = table.slots.get(slot as usize).and_then(|s| s.as_ref()).map(|c| c.id);
            assert_eq!(holds, Some(id), "slot {slot} does not hold connection {id}");
        }
        let mut free = table.free.clone();
        free.sort_unstable();
        assert!(free.windows(2).all(|w| w[0] != w[1]), "a slot is on the free list twice");
        assert!(
            free.iter().all(|&s| table.slots[s as usize].is_none()),
            "an occupied slot is on the free list"
        );
        assert_eq!(table.live.len() + free.len(), table.slots.len(), "a slot is neither live nor free");

        for c in table.iter() {
            let id = c.id;
            assert!(c.core.tcb.to_do.is_empty(), "connection {id}'s to_do queue outlived step");
            assert!(!c.reapable(), "reapable connection {id} was not listed");
            let (_, local_port, flow) = Self::demux_key(c);
            assert!(self.demux.files(id, local_port, flow), "connection {id} is not filed in the demux");

            // The accept queue: a listener's counter is the scan it
            // replaced, and a child is counted exactly while that scan
            // would have found it.
            let waits =
                |child: &Conn<L::Peer>| child.handler.is_none() && child.core.state != TcpState::Closed;
            assert_eq!(
                c.in_backlog,
                c.parent.is_some() && waits(c),
                "connection {id}'s place in the accept queue"
            );
            if c.peer.is_none() {
                let scan = table.iter().filter(|child| child.parent == Some(id) && waits(child)).count();
                assert_eq!(c.backlogged, scan, "listener {id}'s accept-queue count");
            } else {
                assert_eq!(c.backlogged, 0, "connection {id} is no listener and counts children");
            }

            // A timer id still pending on the wheel is this connection's
            // own, and of the kind it is filed under.
            let pending = |kind| c.timers[timer_index(kind)].and_then(|tid| self.wheel.get(tid));
            for kind in TimerKind::ALL {
                assert!(
                    pending(kind).is_none_or(|&armed| armed == (id, kind)),
                    "connection {id}'s {} timer slot holds {:?}",
                    kind.name(),
                    pending(kind)
                );
            }
            // The retransmission timer runs exactly while something is
            // in flight.
            assert_eq!(
                pending(TimerKind::Resend).is_some(),
                resend::has_flight(&c.core),
                "connection {id}'s retransmission timer against its resend queue"
            );
        }
    }

    /// The demux key connection `c` is filed under.
    fn demux_key(c: &Conn<L::Peer>) -> (u32, u16, Option<(u64, u16)>) {
        (c.id, c.core.local_port, c.peer.as_ref().map(|a| (A::hash(a), c.core.remote_port)))
    }
}

impl<L, A> Protocol for Tcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    type Pattern = TcpPattern<L::Peer>;
    type Peer = ();
    type Incoming = TcpEvent;
    type ConnId = TcpConnId;

    fn open(
        &mut self,
        pattern: TcpPattern<L::Peer>,
        handler: Handler<TcpEvent>,
    ) -> Result<TcpConnId, ProtoError> {
        self.ensure_lower_open()?;
        match pattern {
            TcpPattern::Active { remote, remote_port, local_port } => {
                let local_port = match local_port {
                    // Every ephemeral port bound: the request cannot be
                    // given a 4-tuple of its own.
                    0 => self.alloc_ephemeral().ok_or(ProtoError::AlreadyOpen)?,
                    p => p,
                };
                // A live connection with the exact 4-tuple, or any live
                // listener on the port (remote-`None` connections are
                // only listeners).
                let live = |s: &TcpState| *s != TcpState::Closed;
                let clash = self.flow_index(local_port, &remote, remote_port, live).is_some()
                    || self.listener_index(local_port, live).is_some();
                if clash {
                    return Err(ProtoError::AlreadyOpen);
                }
                let idx = self.new_conn(local_port, Some((remote, remote_port)), None);
                self.conns[idx].handler = Some(handler);
                self.user_call(idx, Trigger::Open, state::active_open)?;
                Ok(TcpConnId(self.conns[idx].id))
            }
            TcpPattern::Passive { local_port } => {
                if local_port == 0 {
                    return Err(ProtoError::Invalid("listen port 0"));
                }
                if self.listener_index(local_port, |s| matches!(s, TcpState::Listen { .. })).is_some() {
                    return Err(ProtoError::AlreadyOpen);
                }
                let idx = self.new_conn(local_port, None, None);
                self.conns[idx].handler = Some(handler);
                self.user_call(idx, Trigger::Open, |cfg, core, _| state::passive_open(cfg, core))?;
                Ok(TcpConnId(self.conns[idx].id))
            }
        }
    }

    /// Sends all of `payload` or nothing ([`ProtoError::WouldBlock`] if
    /// the send buffer cannot take it); use [`Tcp::send_data`] for
    /// partial writes.
    fn send(
        &mut self,
        conn: TcpConnId,
        _to: (),
        payload: impl Into<foxbasis::buf::PacketBuf>,
    ) -> Result<(), ProtoError> {
        let payload = payload.into();
        if self.send_capacity(conn)? < payload.len() {
            return Err(ProtoError::WouldBlock);
        }
        let n = self.send_data(conn, &payload.bytes())?;
        debug_assert_eq!(n, payload.len());
        Ok(())
    }

    fn close(&mut self, conn: TcpConnId) -> Result<(), ProtoError> {
        let i = self.conns.slot_of(conn.0).ok_or(ProtoError::NotOpen)?;
        self.user_call(i, Trigger::Close, state::close)
    }

    fn abort(&mut self, conn: TcpConnId) -> Result<(), ProtoError> {
        let i = self.conns.slot_of(conn.0).ok_or(ProtoError::NotOpen)?;
        self.user_call(i, Trigger::Abort, state::abort)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        // 0. A host answers (RSTs) even before any user open: make sure
        //    we are attached below.
        let _ = self.ensure_lower_open();
        // 1. Let the clock catch up: due timers enqueue
        //    Timer_Expiration actions, in (deadline, arm order).
        let mut fired = std::mem::take(&mut self.fired);
        if self.sched.now() < now {
            self.sched.advance_to(now);
            for timer in self.wheel.advance(now) {
                let (cid, kind) = timer.payload;
                if let Some(idx) = self.conns.slot_of(cid) {
                    self.conns[idx].core.tcb.push_action(TcpAction::TimerExpiration(kind));
                    fired.push((cid, idx));
                }
            }
        }
        // 2. Pull from below.
        let mut progress = self.lower.step(now);
        // 3. Internalize and process arrivals.
        loop {
            let msg = match self.rx.borrow_mut().next() {
                Some(m) => m,
                None => break,
            };
            progress = true;
            self.internalize(msg);
        }
        // 4. Drain queues filled by timer expirations, in id order
        //    whatever order the timers fired in. Only phase 1 leaves
        //    actions queued: every other enqueue is followed by
        //    `run_actions` before control returns (and an arrival in
        //    phase 3 may already have drained a fired connection).
        fired.sort_unstable();
        fired.dedup();
        for (_, idx) in fired.drain(..) {
            if !self.conns[idx].core.tcb.to_do.is_empty() {
                progress = true;
                self.run_actions(idx);
            }
        }
        self.fired = fired;
        self.reap();
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        progress
    }
}

impl<L, A> fmt::Debug for Tcp<L, A>
where
    L: Protocol + fmt::Debug,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tcp(conns={}, over {:?})", self.conns.len(), self.lower)
    }
}

#[cfg(test)]
mod tests {
    //! The engine tests that need the engine's private parts
    //! (`set_timer`, `clear_timer`, the wheel, slot numbers); the rest of
    //! the engine's tests are `tests/engine*.rs`, over the same [`Pair`].

    use super::*;
    use crate::testlink::{immediate, Pair};

    /// Slots are recycled, ids are not; and whatever slots connections
    /// landed in, `step` drains the ones whose timers fired in id order.
    #[test]
    fn a_reaped_connections_slot_is_reused_and_its_id_is_not() {
        let mut p = Pair::new(immediate(), immediate());
        let [(first, first_child), (second, _), (third, _)] = [p.open(80), p.open(80), p.open(80)];
        let slot = |p: &Pair, conn: TcpConnId| p.a.conns.slot_of(conn.0);
        assert_eq!(
            [first, second, third].map(|c| (c.0, slot(&p, c))),
            [(0, Some(0)), (1, Some(1)), (2, Some(2))]
        );

        // b closes first, so a's end skips TIME-WAIT and is reaped by
        // the step that delivers `Closed`.
        p.b.close(first_child).unwrap();
        p.settle();
        p.a.close(first).unwrap();
        p.settle();
        assert_eq!(slot(&p, first), None);
        assert_eq!((&p.a.conns.free[..], p.a.conns.len()), (&[0][..], 2));

        let (fourth, _) = p.open(80);
        assert_eq!((fourth, slot(&p, fourth)), (TcpConnId(3), Some(0)), "the freed slot, the next id");
        assert!(p.a.conns.free.is_empty());
        assert_eq!(p.a.conns.live, [(1, 1), (2, 2), (3, 0)], "creation order, whatever the slots");
        assert_eq!(p.a.state_of(first), None, "the old id names nothing, not the slot's new tenant");
        assert_eq!(p.a.send_data(first, b"x"), Err(ProtoError::NotOpen));

        // Timers on all three at one instant, armed in slot order —
        // the newest connection first.
        p.link.set_filter_toward(1, Box::new(|_| false));
        let sink = EventSink::recording(1024);
        p.a.set_obs(sink.clone());
        for conn in [fourth, second, third] {
            assert_eq!(p.a.send_data(conn, b"unanswered"), Ok(10));
        }
        p.a.step(p.now + VirtualDuration::from_secs(5));
        let fired: Vec<u32> = sink
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::TimerFire { timer: "Resend" }))
            .map(|e| e.conn)
            .collect();
        assert_eq!(fired, [1, 2, 3], "drained in id order, not slot order");
    }

    /// `Conn::timers[k]` keeps a timer's id after the timer fired, and
    /// a later `clear_timer` hands that id to the wheel. By then the
    /// wheel has given the fired timer's cell to someone else: the clear
    /// must still be reported (DESIGN §5.7) and must cancel nothing.
    #[test]
    fn clearing_a_fired_timer_spares_its_cells_next_tenant() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        let (client, _child) = p.open(80);
        let idx = p.a.conns.slot_of(client.0).unwrap();
        assert!(p.a.wheel.is_empty(), "an idle connection holds no timer");
        let sink = EventSink::recording(256);
        p.a.set_obs(sink.for_host(0));

        // A fires (a delayed ACK with none owed does nothing) and frees
        // its cell; B, armed next on an otherwise empty wheel, gets it.
        p.a.set_timer(idx, TimerKind::DelayedAck, 1);
        p.now = VirtualTime::from_millis(2);
        p.settle();
        p.a.set_timer(idx, TimerKind::UserTimeout, 5);
        let before = p.a.wheel_stats();
        p.a.clear_timer(idx, TimerKind::DelayedAck);
        assert_eq!(p.a.wheel_stats(), before, "a stale id cancels nothing");
        assert_eq!(p.a.wheel.len(), 1, "B is still pending");
        p.now = VirtualTime::from_millis(10);
        p.settle();

        let timers: Vec<String> = sink
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::TimerSet { timer, .. } => Some(format!("set {timer}")),
                Event::TimerClear { timer } => Some(format!("clear {timer}")),
                Event::TimerFire { timer } => Some(format!("fire {timer}")),
                _ => None,
            })
            .collect();
        assert_eq!(
            timers,
            ["set DelayedAck", "fire DelayedAck", "set UserTimeout", "clear DelayedAck", "fire UserTimeout"]
        );
        assert_eq!(p.a.state_of(client), Some(TcpState::Estab));
    }
}
