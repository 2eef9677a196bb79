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
use crate::data::{fastpath, send};
use crate::demux::{Demux, DemuxStats};
use crate::tcb::TcpState;
use crate::{ConnCore, TcpConfig};
use fox_scheduler::SchedHandle;
use foxbasis::buf::copy_mark;
use foxbasis::fifo::Fifo;
use foxbasis::obs::{ConnMetrics, Event, EventSink};
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxbasis::wheel::{TimerWheel, WheelStats};
use foxproto::aux::IpAux;
use foxproto::{Handler, ProtoError, Protocol};
use foxwire::tcp::TcpSegment;
use simnet::HostHandle;
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
    /// Pure ACKs transmitted.
    pub acks_sent: u64,
    /// Actions executed through to_do queues.
    pub actions_executed: u64,
    /// Timers armed.
    pub timers_set: u64,
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
    core: ConnCore<P>,
    handler: Option<Handler<TcpEvent>>,
    pending_events: Vec<TcpEvent>,
    timers: [Option<foxbasis::wheel::TimerId>; 5],
    /// The listener that spawned this connection, if any.
    parent: Option<u32>,
    /// Set once a terminal event (Closed/Reset/TimedOut) was delivered.
    finished: bool,
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
    /// The only connection table. Creation-ordered, and ids only grow,
    /// so it is sorted by id: id → position is a binary search
    /// ([`position`]) and needs no mirror to keep in step when `reap`
    /// compacts it.
    conns: Vec<Conn<L::Peer>>,
    next_id: u32,
    next_ephemeral: u16,
    stats: TcpStats,
    obs: EventSink,
    /// All connection timers, one shared wheel: payload is
    /// (connection id, timer kind).
    wheel: TimerWheel<(u32, TimerKind)>,
    /// Keyed segment→connection-id table; files every id in `conns`.
    demux: Demux,
    /// Connections whose timers fired in this `step` (scratch, kept for
    /// its capacity).
    fired_ids: Vec<u32>,
    /// Set wherever a connection can have become reapable; `reap` looks
    /// at the table only when it is.
    reap_due: bool,
}

/// Where connection `id` sits in the engine's table (sorted by id).
fn position<P>(conns: &[Conn<P>], id: u32) -> Option<usize> {
    conns.binary_search_by_key(&id, |c| c.id).ok()
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
            conns: Vec::new(),
            next_id: 0,
            next_ephemeral: EPHEMERAL_FIRST,
            stats: TcpStats::default(),
            obs: EventSink::off(),
            wheel,
            demux: Demux::new(),
            fired_ids: Vec::new(),
            reap_due: false,
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

    /// A unified per-connection metrics snapshot: the TCB's live
    /// estimator/window state plus the engine's counters (the engine
    /// counts across connections; single-connection hosts — every
    /// harness station — read them as per-connection).
    pub fn metrics_of(&self, conn: TcpConnId) -> Option<ConnMetrics> {
        let i = self.index_of(conn.0)?;
        let tcb = &self.conns[i].core.tcb;
        Some(ConnMetrics {
            srtt_us: tcb.rtt.srtt.map(|d| d.as_micros()),
            rto_us: tcb.rtt.rto.as_micros(),
            cwnd: tcb.cwnd,
            ssthresh: tcb.ssthresh,
            snd_wnd: tcb.snd_wnd,
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
    pub fn core_of(&self, conn: TcpConnId) -> Option<&ConnCore<L::Peer>> {
        self.index_of(conn.0).map(|i| &self.conns[i].core)
    }

    /// The connection's current state, if it still exists.
    pub fn state_of(&self, conn: TcpConnId) -> Option<TcpState> {
        self.core_of(conn).map(|core| core.state.clone())
    }

    /// Free space in the connection's send buffer.
    ///
    /// `Err(NotOpen)` for an unknown (or already reaped) connection —
    /// distinguishable from `Ok(0)`, which means the connection exists
    /// but flow control is pushing back.
    pub fn send_capacity(&self, conn: TcpConnId) -> Result<usize, ProtoError> {
        let i = self.index_of(conn.0).ok_or(ProtoError::NotOpen)?;
        Ok(self.conns[i].core.tcb.send_buf.free())
    }

    /// Installs (or replaces) the upcall handler; buffered events are
    /// flushed to it immediately. This is how a listener's user adopts a
    /// [`TcpEvent::NewConnection`] child.
    pub fn set_handler(&mut self, conn: TcpConnId, mut handler: Handler<TcpEvent>) -> Result<(), ProtoError> {
        let i = self.index_of(conn.0).ok_or(ProtoError::NotOpen)?;
        for ev in self.conns[i].pending_events.drain(..) {
            handler(ev);
        }
        self.conns[i].handler = Some(handler);
        self.reap_due = true;
        Ok(())
    }

    /// Accepts as much of `data` as fits the send buffer; returns the
    /// number of bytes taken (0 means flow control pushed back).
    pub fn send_data(&mut self, conn: TcpConnId, data: &[u8]) -> Result<usize, ProtoError> {
        let i = self.index_of(conn.0).ok_or(ProtoError::NotOpen)?;
        {
            let core = &mut self.conns[i].core;
            match core.state {
                TcpState::Closed => return Err(ProtoError::NotOpen),
                TcpState::Listen { .. } => return Err(ProtoError::Invalid("send on listener")),
                ref s
                    if !s.can_send()
                        && !matches!(
                            s,
                            TcpState::SynSent { .. } | TcpState::SynActive | TcpState::SynPassive { .. }
                        ) =>
                {
                    return Err(ProtoError::Closing)
                }
                _ => {}
            }
        }
        let now = self.sched.now();
        let taken = {
            let core = &mut self.conns[i].core;
            send::user_send(&self.cfg, core, data, now)
        };
        self.run_actions(conn.0);
        Ok(taken)
    }

    // ----- internals -----

    fn index_of(&self, id: u32) -> Option<usize> {
        position(&self.conns, id)
    }

    /// The oldest connection filed under `(local_port, peer,
    /// remote_port)` whose peer really is `peer` (the demux keys on a
    /// hash) and whose state `accept`s.
    fn flow_index(
        &mut self,
        local_port: u16,
        peer: &L::Peer,
        remote_port: u16,
        accept: impl Fn(&TcpState) -> bool,
    ) -> Option<usize> {
        let conns = &self.conns;
        let id = self.demux.lookup_flow(local_port, A::hash(peer), remote_port, |id| {
            position(conns, id).is_some_and(|i| {
                let core = &conns[i].core;
                core.remote.as_ref().is_some_and(|(a, p)| A::eq(a, peer) && *p == remote_port)
                    && accept(&core.state)
            })
        })?;
        self.index_of(id)
    }

    /// The oldest listener on `local_port` whose state `accept`s.
    fn listener_index(&mut self, local_port: u16, accept: impl Fn(&TcpState) -> bool) -> Option<usize> {
        let conns = &self.conns;
        let id = self.demux.lookup_listener(local_port, |id| {
            position(conns, id).is_some_and(|i| accept(&conns[i].core.state))
        })?;
        self.index_of(id)
    }

    /// Reports connection `id`'s state change since `before`, if any —
    /// the one place a `StateTransition` is stamped.
    fn note_transition(&self, id: u32, before: &'static str, cause: &'static str) {
        let Some(idx) = self.index_of(id) else { return };
        let after = self.conns[idx].core.state.name();
        if before != after {
            self.obs.emit(self.sched.now(), id, || Event::StateTransition { from: before, to: after, cause });
        }
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

    fn new_conn(&mut self, local_port: u16, remote: Option<(L::Peer, u16)>, parent: Option<u32>) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let iss = self.new_iss();
        // RFC 879: the MSS excludes both the IP and TCP headers from
        // the link MTU the aux reports — 1460 on a 1500-byte Ethernet.
        // One saturating helper, shared with xktcp.
        let mss = foxwire::tcp::mss_for_mtu(self.aux.mtu() as u32);
        let mut core = ConnCore::new(&self.cfg, local_port, iss, mss);
        core.remote = remote;
        core.tcb.mss = mss;
        // `core.remote` is fixed for the connection's lifetime, so its
        // demux key never needs re-filing.
        let flow = core.remote.as_ref().map(|(a, p)| (A::hash(a), *p));
        self.demux.insert(id, local_port, flow);
        self.conns.push(Conn {
            id,
            core,
            handler: None,
            pending_events: Vec::new(),
            timers: Default::default(),
            parent,
            finished: false,
        });
        id
    }

    fn deliver(&mut self, idx: usize, event: TcpEvent) {
        if matches!(event, TcpEvent::Closed | TcpEvent::Reset | TcpEvent::TimedOut) {
            self.conns[idx].finished = true;
            self.reap_due = true;
        }
        match &mut self.conns[idx].handler {
            Some(h) => h(event),
            None => self.conns[idx].pending_events.push(event),
        }
    }

    /// Externalizes and transmits a segment for connection `idx` (the
    /// Action module's send half).
    fn transmit(&mut self, idx: usize, seg: TcpSegment) {
        let to = match &self.conns[idx].core.remote {
            Some((peer, _)) => peer.clone(),
            None => return, // cannot address: drop (listener RSTs go via transmit_to)
        };
        self.transmit_to(seg, to);
    }

    /// Transmits a segment to an explicit peer (RST replies for unknown
    /// connections have no connection record).
    fn transmit_to(&mut self, seg: TcpSegment, to: L::Peer) {
        let total = seg.header.header_len() + seg.payload.len();
        let pseudo = if self.cfg.compute_checksums { self.aux.check(&to, total) } else { None };
        if pseudo.is_some() {
            self.host.charge_checksum(total);
        }
        self.host.charge_tcp_segment_sized(seg.payload.len());
        self.host.with(|h| h.alloc_segment(seg.payload.len()));
        // One keyed lookup serves both the window bookkeeping and the
        // observability stamp below; skipped when neither needs it.
        let tx_conn = if seg.header.flags.ack || self.obs.is_on() {
            self.flow_index(seg.header.src_port, &to, seg.header.dst_port, |_| true)
        } else {
            None
        };
        // Remember what window the peer will believe after this segment
        // (post-scaling; SYN windows go out unscaled per RFC 7323).
        if seg.header.flags.ack {
            if let Some(idx) = tx_conn {
                let tcb = &mut self.conns[idx].core.tcb;
                let shift = if seg.header.flags.syn { 0 } else { tcb.adv_wscale() };
                tcb.last_adv_wnd = u32::from(seg.header.window) << shift;
            }
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
        if len == 0 && !flags.syn && !flags.fin {
            self.stats.acks_sent += 1;
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
        self.stats.timers_set += 1;
        self.obs.emit(self.sched.now(), self.conns[idx].id, || Event::TimerSet {
            timer: kind.name(),
            after_ms: ms,
        });
        self.host.charge_thread_op();
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
    fn run_actions(&mut self, conn_id: u32) {
        loop {
            let Some(idx) = self.index_of(conn_id) else { return };
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
                    TcpAction::ProcessData(seg, _) => Trigger::of(&seg.header.flags).name(),
                    TcpAction::TimerExpiration(_) => Trigger::Timer.name(),
                    _ => "action",
                };
                Some((self.conns[idx].core.state.name(), cause))
            } else {
                None
            };
            match action {
                TcpAction::ProcessData(seg, _src) => {
                    self.obs.emit(now, conn_id, || Event::SegRx {
                        seq: seg.header.seq.0,
                        ack: seg.header.ack.0,
                        len: seg.payload.len() as u32,
                        flags: seg.header.flags.to_u8(),
                        wnd: u32::from(seg.header.window),
                    });
                    self.host.charge_tcp_segment_sized(seg.payload.len());
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
                        if seg.header.seq != self.conns[idx].core.tcb.rcv_nxt && !seg.payload.is_empty() {
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
                    // The user takes the data here, which frees its
                    // share of the receive buffer — the copy the paper
                    // says is "not reflected in the benchmarks".
                    self.conns[idx].core.tcb.recv_buf.skip(data.len());
                    self.stats.bytes_delivered += data.len() as u64;
                    // BSD window-update rule: consuming data may have
                    // grown the window well past what the peer last saw;
                    // tell it, or a zero-window peer stays stuck.
                    {
                        let core = &mut self.conns[idx].core;
                        let wnd = core.tcb.rcv_wnd();
                        let grew = wnd.saturating_sub(core.tcb.last_adv_wnd);
                        let half = (core.tcb.recv_buf.capacity() as u32 / 2).max(1);
                        if core.state == TcpState::Estab && (grew >= 2 * core.tcb.mss || grew >= half) {
                            send::queue_ack(core, now);
                        }
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
                    let offset = up.since(self.conns[idx].core.tcb.irs);
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
                self.note_transition(conn_id, before, cause);
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
    fn internalize(&mut self, msg: L::Incoming) {
        let (src, seg) = {
            let info = self.aux.info(&msg);
            let pseudo =
                if self.cfg.compute_checksums { self.aux.check(&info.src, info.data.len()) } else { None };
            if pseudo.is_some() {
                self.host.charge_checksum(info.data.len());
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
            let id = self.conns[idx].id;
            self.conns[idx].core.tcb.push_action(TcpAction::ProcessData(seg, src));
            self.run_actions(id);
            return;
        }

        // A listener on the port?
        let listener = self.listener_index(seg.header.dst_port, |s| matches!(s, TcpState::Listen { .. }));
        if let Some(lidx) = listener {
            let lid = self.conns[lidx].id;
            match segment::on_listen_segment(seg.header.dst_port, &seg) {
                ListenVerdict::Ignore => {}
                ListenVerdict::Reply(rst) => self.transmit_to(rst, src),
                ListenVerdict::Spawn => {
                    // The verify closure above only accepts Listen, but
                    // stay total on the rx path: treat anything else as
                    // a vanished listener and drop the SYN.
                    let TcpState::Listen { backlog } = self.conns[lidx].core.state else {
                        return;
                    };
                    // The backlog is a real bounded accept queue: it
                    // counts every live child the user has not taken
                    // over yet — embryonic (handshake in flight) and
                    // established-but-unaccepted alike. The dropped SYN
                    // is not answered; the peer's retransmitted SYN
                    // retries admission once the queue has drained.
                    let pending = self
                        .conns
                        .iter()
                        .filter(|c| {
                            c.parent == Some(lid) && c.handler.is_none() && c.core.state != TcpState::Closed
                        })
                        .count();
                    if pending >= backlog {
                        self.stats.syns_dropped += 1;
                        return;
                    }
                    let child = self.new_conn(
                        seg.header.dst_port,
                        Some((src.clone(), seg.header.src_port)),
                        Some(lid),
                    );
                    let Some(cidx) = self.index_of(child) else { return };
                    state::spawn_embryonic(&mut self.conns[cidx].core);
                    self.conns[cidx].core.tcb.push_action(TcpAction::ProcessData(seg, src));
                    self.run_actions(child);
                    // Tell the listener's user about the child.
                    if let Some(lidx) = self.index_of(lid) {
                        self.conns[lidx].core.tcb.push_action(TcpAction::NewConnection(child));
                        self.run_actions(lid);
                    }
                }
            }
            return;
        }

        // No connection at all: RFC 793 p. 36.
        if let Some(rst) = segment::on_closed_segment(&self.cfg, seg.header.dst_port, &seg) {
            self.transmit_to(rst, src);
        }
    }

    /// A connection reaching `Closed` is one of the three ways it can
    /// become reapable (see [`Conn::reapable`]); `deliver` and
    /// `set_handler` note the other two.
    fn note_closed(&mut self, idx: usize) {
        if self.conns[idx].core.state == TcpState::Closed {
            self.reap_due = true;
        }
    }

    /// Removes connections that are fully closed, drained, and whose
    /// user has seen the end, unfiling each from the demux table.
    /// `retain` keeps the survivors in id order. Looks at the table only
    /// when something in it can have changed its answer.
    fn reap(&mut self) {
        if !self.reap_due {
            debug_assert!(!self.conns.iter().any(Conn::reapable), "a reapable connection was not flagged");
            return;
        }
        self.reap_due = false;
        let demux = &mut self.demux;
        self.conns.retain(|c| {
            let done = c.reapable();
            if done {
                let flow = c.core.remote.as_ref().map(|(a, p)| (A::hash(a), *p));
                demux.remove(c.id, c.core.local_port, flow);
            }
            !done
        });
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
                let id = self.new_conn(local_port, Some((remote, remote_port)), None);
                let conn = self.conns.last_mut().expect("created");
                conn.handler = Some(handler);
                state::active_open(&self.cfg, &mut conn.core, self.sched.now())?;
                self.note_transition(id, "Closed", Trigger::Open.name());
                self.run_actions(id);
                Ok(TcpConnId(id))
            }
            TcpPattern::Passive { local_port } => {
                if local_port == 0 {
                    return Err(ProtoError::Invalid("listen port 0"));
                }
                if self.listener_index(local_port, |s| matches!(s, TcpState::Listen { .. })).is_some() {
                    return Err(ProtoError::AlreadyOpen);
                }
                let id = self.new_conn(local_port, None, None);
                let conn = self.conns.last_mut().expect("created");
                conn.handler = Some(handler);
                state::passive_open(&self.cfg, &mut conn.core)?;
                self.note_transition(id, "Closed", Trigger::Open.name());
                Ok(TcpConnId(id))
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
        let i = self.index_of(conn.0).ok_or(ProtoError::NotOpen)?;
        let core = &mut self.conns[i].core;
        let before = core.state.name();
        let res = state::close(&self.cfg, core, self.sched.now());
        self.note_closed(i);
        self.note_transition(conn.0, before, Trigger::Close.name());
        self.run_actions(conn.0);
        res
    }

    fn abort(&mut self, conn: TcpConnId) -> Result<(), ProtoError> {
        let i = self.index_of(conn.0).ok_or(ProtoError::NotOpen)?;
        let core = &mut self.conns[i].core;
        let before = core.state.name();
        let res = state::abort(&self.cfg, core, self.sched.now());
        self.note_closed(i);
        self.note_transition(conn.0, before, Trigger::Abort.name());
        self.run_actions(conn.0);
        res
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        // 0. A host answers (RSTs) even before any user open: make sure
        //    we are attached below.
        let _ = self.ensure_lower_open();
        // 1. Let the clock catch up: due timers enqueue
        //    Timer_Expiration actions, in (deadline, arm order).
        let mut fired_ids = std::mem::take(&mut self.fired_ids);
        if self.sched.now() < now {
            self.sched.advance_to(now);
            for fired in self.wheel.advance(now) {
                let (cid, kind) = fired.payload;
                if let Some(idx) = position(&self.conns, cid) {
                    self.conns[idx].core.tcb.push_action(TcpAction::TimerExpiration(kind));
                    fired_ids.push(cid);
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
        fired_ids.sort_unstable();
        fired_ids.dedup();
        for id in fired_ids.drain(..) {
            if self.index_of(id).is_some_and(|idx| !self.conns[idx].core.tcb.to_do.is_empty()) {
                progress = true;
                self.run_actions(id);
            }
        }
        self.fired_ids = fired_ids;
        debug_assert!(self.conns.iter().all(|c| c.core.tcb.to_do.is_empty()), "a to_do queue outlived step");
        self.reap();
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
    //! The one engine test that needs the engine's private parts
    //! (`set_timer`, `clear_timer`, the wheel); the rest of the engine's
    //! tests are `tests/engine*.rs`, over the same [`Pair`].

    use super::*;
    use crate::testlink::Pair;

    /// `Conn::timers[k]` keeps a timer's id after the timer fired, and
    /// a later `clear_timer` hands that id to the wheel. By then the
    /// wheel has given the fired timer's cell to someone else: the clear
    /// must still be reported (DESIGN §5.7) and must cancel nothing.
    #[test]
    fn clearing_a_fired_timer_spares_its_cells_next_tenant() {
        let mut p = Pair::new(TcpConfig::default(), TcpConfig::default());
        let (client, _child) = p.open(80);
        let idx = p.a.index_of(client.0).unwrap();
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
