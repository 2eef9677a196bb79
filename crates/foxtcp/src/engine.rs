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

    /// The connection's current state, if it still exists.
    pub fn state_of(&self, conn: TcpConnId) -> Option<TcpState> {
        self.index_of(conn.0).map(|i| self.conns[i].core.state.clone())
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
        // One shared, saturating helper (the old code subtracted a bare
        // unchecked 20 here and disagreed with xktcp on the clamp).
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
        // observability stamp below (the old code scanned twice with the
        // same predicate); skipped when neither needs it.
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
        self.stats.bytes_sent += seg.payload.len() as u64;
        if self.obs.is_on() {
            let conn = tx_conn.map_or(foxbasis::obs::NO_CONN, |idx| self.conns[idx].id);
            self.obs.emit(self.sched.now(), conn, || Event::SegTx {
                seq: seg.header.seq.0,
                ack: seg.header.ack.0,
                len: seg.payload.len() as u32,
                flags: seg.header.flags.to_u8(),
                wnd: u32::from(seg.header.window),
            });
        }
        if seg.payload.is_empty() && !seg.header.flags.syn && !seg.header.flags.fin {
            self.stats.acks_sent += 1;
        }
        if seg.header.flags.rst {
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
            // the clear is still reported (as with the old one-shot
            // timer handles).
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
                    if kind == TimerKind::Resend {
                        let had_flight = !self.conns[idx].core.tcb.resend_queue.is_empty();
                        if had_flight {
                            self.stats.retransmits += 1;
                        }
                    }
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
                        LossEvent::RecoveryEntered => self.stats.recoveries += 1,
                        LossEvent::RecoveryExited => {}
                        // The hole retransmitted on a partial ACK is a
                        // retransmission the Resend timer never saw.
                        LossEvent::PartialAck => self.stats.retransmits += 1,
                        // `retransmits` itself is counted when the
                        // Resend timer expires with data outstanding.
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
        //    Timer_Expiration actions, in (deadline, arm order) — the
        //    same total order the scheduler's sleep heap used to give.
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
    use super::*;
    use crate::testlink::{LinkPair, TestAux, TestLower};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Engine = Tcp<TestLower, TestAux>;

    struct Host {
        tcp: Engine,
        #[allow(dead_code)]
        sched: SchedHandle,
        events: Rc<RefCell<Vec<(TcpConnId, TcpEvent)>>>,
    }

    impl Host {
        fn new(link: &LinkPair, side: u8, cfg: TcpConfig) -> Host {
            Host::with_host(link, side, cfg, HostHandle::free())
        }

        fn with_host(link: &LinkPair, side: u8, cfg: TcpConfig, hh: HostHandle) -> Host {
            let sched = SchedHandle::new();
            let tcp = Tcp::new(link.endpoint(side), TestAux, (), cfg, sched.clone(), hh);
            Host { tcp, sched, events: Rc::new(RefCell::new(Vec::new())) }
        }

        fn recorder(&self, id_hint: u32) -> Handler<TcpEvent> {
            let ev = self.events.clone();
            Box::new(move |e| ev.borrow_mut().push((TcpConnId(id_hint), e)))
        }

        /// Adopt a connection with a recording handler tagged by its id.
        fn adopt(&mut self, conn: TcpConnId) {
            let ev = self.events.clone();
            self.tcp.set_handler(conn, Box::new(move |e| ev.borrow_mut().push((conn, e)))).unwrap();
        }

        fn events_of(&self, conn: TcpConnId) -> Vec<TcpEvent> {
            self.events.borrow().iter().filter(|(c, _)| *c == conn).map(|(_, e)| e.clone()).collect()
        }

        fn received_bytes(&self, conn: TcpConnId) -> Vec<u8> {
            self.events_of(conn)
                .into_iter()
                .filter_map(|e| match e {
                    TcpEvent::Data(d) => Some(d),
                    _ => None,
                })
                .flatten()
                .collect()
        }
    }

    /// Step both hosts at `now` until neither makes progress.
    fn settle(a: &mut Host, b: &mut Host, now: VirtualTime) {
        for _ in 0..500 {
            let pa = a.tcp.step(now);
            let pb = b.tcp.step(now);
            if !pa && !pb {
                return;
            }
        }
        panic!("did not settle");
    }

    /// Advance both hosts through virtual time in `tick_ms` steps.
    fn run_for(a: &mut Host, b: &mut Host, from: VirtualTime, ms: u64, tick_ms: u64) -> VirtualTime {
        let mut now = from;
        let end = from + VirtualDuration::from_millis(ms);
        while now < end {
            now = (now + VirtualDuration::from_millis(tick_ms)).min(end);
            settle(a, b, now);
        }
        end
    }

    fn open_pair(a: &mut Host, b: &mut Host) -> (TcpConnId, TcpConnId) {
        let _listener = b.tcp.open(TcpPattern::Passive { local_port: 80 }, b.recorder(999)).unwrap();
        let ev = a.events.clone();
        let client = a
            .tcp
            .open(
                TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 },
                Box::new(move |e| ev.borrow_mut().push((TcpConnId(u32::MAX), e))),
            )
            .unwrap();
        settle(a, b, VirtualTime::ZERO);
        // The listener got a NewConnection event (recorded under tag 999).
        let child = b
            .events_of(TcpConnId(999))
            .into_iter()
            .find_map(|e| match e {
                TcpEvent::NewConnection(c) => Some(c),
                _ => None,
            })
            .expect("listener should see the child");
        b.adopt(child);
        (client, child)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        assert_eq!(a.tcp.state_of(client), Some(TcpState::Estab));
        assert_eq!(b.tcp.state_of(child), Some(TcpState::Estab));
        assert!(a.events.borrow().iter().any(|(_, e)| *e == TcpEvent::Established));
        assert!(b.events_of(child).contains(&TcpEvent::Established));
    }

    #[test]
    fn data_flows_client_to_server() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        a.tcp.send(client, (), b"hello from the fox".to_vec()).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(b.received_bytes(child), b"hello from the fox");
    }

    #[test]
    fn data_flows_both_directions() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig { nagle: false, ..TcpConfig::default() });
        let (client, child) = open_pair(&mut a, &mut b);
        a.tcp.send(client, (), b"ping".to_vec()).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        b.tcp.send(child, (), b"pong".to_vec()).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(b.received_bytes(child), b"ping");
        assert_eq!(a.received_bytes(TcpConnId(u32::MAX)), b"pong");
    }

    #[test]
    fn bulk_transfer_with_flow_control() {
        // 100 KB through a 4096-byte window: many round trips, windows
        // opening and closing, delayed ACKs, the works.
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut now = VirtualTime::ZERO;
        let mut spins = 0;
        while sent < payload.len() {
            let n = a.tcp.send_data(client, &payload[sent..]).unwrap();
            sent += n;
            now = run_for(&mut a, &mut b, now, 50, 10);
            spins += 1;
            assert!(spins < 10_000, "transfer wedged at {sent} bytes");
        }
        now = run_for(&mut a, &mut b, now, 2000, 50);
        let got = b.received_bytes(child);
        assert_eq!(got.len(), payload.len());
        assert_eq!(got, payload);
        let _ = now;
    }

    /// Satellite regression: segments the fast path fully handles must
    /// charge exactly the accounts (and update exactly the stats) the
    /// full SEGMENT-ARRIVES DAG would.
    #[test]
    fn fast_and_slow_path_charge_the_same_accounts() {
        use foxbasis::profile::Account;
        use simnet::{CostModel, Host as SimHost};

        fn run(fast_path: bool) -> (Vec<(u64, u64)>, TcpStats, TcpStats) {
            let link = LinkPair::new();
            let cfg = TcpConfig { nagle: false, fast_path, ..TcpConfig::default() };
            let ha = HostHandle::new(SimHost::new("a", CostModel::decstation_sml(), true));
            let hb = HostHandle::new(SimHost::new("b", CostModel::decstation_sml(), true));
            let mut a = Host::with_host(&link, 0, cfg.clone(), ha.clone());
            let mut b = Host::with_host(&link, 1, cfg, hb.clone());
            let (client, child) = open_pair(&mut a, &mut b);
            // Bidirectional bulk: exercises both fast-path cases (pure
            // ACK of new data, pure in-order data) on both hosts.
            let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
            let (mut sa, mut sb) = (0, 0);
            let mut now = VirtualTime::ZERO;
            while sa < payload.len() || sb < payload.len() {
                if sa < payload.len() {
                    sa += a.tcp.send_data(client, &payload[sa..]).unwrap();
                }
                if sb < payload.len() {
                    sb += b.tcp.send_data(child, &payload[sb..]).unwrap();
                }
                now = run_for(&mut a, &mut b, now, 50, 10);
            }
            run_for(&mut a, &mut b, now, 1000, 50);
            assert_eq!(b.received_bytes(child).len(), payload.len());
            assert_eq!(a.received_bytes(TcpConnId(u32::MAX)).len(), payload.len());
            let accounts = Account::ALL
                .iter()
                .map(|&acc| {
                    (
                        ha.with(|h| h.profiler().total(acc)).as_micros(),
                        hb.with(|h| h.profiler().total(acc)).as_micros(),
                    )
                })
                .collect();
            (accounts, a.tcp.stats(), b.tcp.stats())
        }

        let (acc_fast, a_fast, b_fast) = run(true);
        let (acc_slow, a_slow, b_slow) = run(false);
        assert!(a_fast.fastpath_hits > 0, "fast run must actually take the fast path");
        assert_eq!(a_slow.fastpath_hits, 0);
        assert_eq!(acc_fast, acc_slow, "fast and slow path must charge the same accounts");
        // Same stats, except the hit/miss split that defines the paths.
        let neutral = |mut s: TcpStats| {
            s.fastpath_hits = 0;
            s.fastpath_misses = 0;
            s
        };
        assert_eq!(neutral(a_fast), neutral(a_slow));
        assert_eq!(neutral(b_fast), neutral(b_slow));
    }

    /// The obs layer sees the whole life of a connection: transitions,
    /// actions, timers, segments — and metrics summarize it.
    #[test]
    fn obs_records_typed_events_and_metrics() {
        use foxbasis::obs::{flags, EventSink};

        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let sink = EventSink::recording(4096);
        a.tcp.set_obs(sink.for_host(0));
        b.tcp.set_obs(sink.for_host(1));
        let (client, child) = open_pair(&mut a, &mut b);
        a.tcp.send(client, (), b"observable".to_vec()).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        let m = b.tcp.metrics_of(child).expect("child metrics");
        assert!(m.segments_received > 0);
        assert_eq!(m.bytes_delivered, 10);
        a.tcp.close(client).unwrap();
        b.tcp.close(child).unwrap();
        run_for(&mut a, &mut b, VirtualTime::ZERO, 120_000, 5_000);

        let evs = sink.events();
        let has = |f: &dyn Fn(&Event) -> bool| evs.iter().any(|e| f(&e.event));
        assert!(has(&|e| matches!(e, Event::StateTransition { to: "Estab", .. })));
        assert!(has(&|e| matches!(e, Event::StateTransition { to: "TimeWait", .. })));
        assert!(has(&|e| matches!(e, Event::SegTx { flags: f, .. } if *f == flags::SYN)));
        assert!(has(&|e| matches!(e, Event::SegRx { flags: f, .. } if *f == flags::SYN | flags::ACK)));
        assert!(has(&|e| matches!(e, Event::Action { tag: "Process_Data" })));
        assert!(has(&|e| matches!(e, Event::TimerSet { timer: "Resend", .. })));
        assert!(has(&|e| matches!(e, Event::TimerFire { timer: "TimeWait" })));
        assert!(evs.iter().any(|e| e.host == 0) && evs.iter().any(|e| e.host == 1));
        assert_eq!(sink.dropped(), 0);
    }

    /// `Conn::timers[k]` keeps a timer's id after the timer fired, and
    /// a later `clear_timer` hands that id to the wheel. By then the
    /// wheel has given the fired timer's cell to someone else: the clear
    /// must still be reported (DESIGN §5.7) and must cancel nothing.
    #[test]
    fn clearing_a_fired_timer_spares_its_cells_next_tenant() {
        use foxbasis::obs::EventSink;

        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, _child) = open_pair(&mut a, &mut b);
        let idx = a.tcp.index_of(client.0).unwrap();
        assert!(a.tcp.wheel.is_empty(), "an idle connection holds no timer");
        let sink = EventSink::recording(256);
        a.tcp.set_obs(sink.for_host(0));

        // A fires (a delayed ACK with none owed does nothing) and frees
        // its cell; B, armed next on an otherwise empty wheel, gets it.
        a.tcp.set_timer(idx, TimerKind::DelayedAck, 1);
        settle(&mut a, &mut b, VirtualTime::from_millis(2));
        a.tcp.set_timer(idx, TimerKind::UserTimeout, 5);
        let before = a.tcp.wheel_stats();
        a.tcp.clear_timer(idx, TimerKind::DelayedAck);
        assert_eq!(a.tcp.wheel_stats(), before, "a stale id cancels nothing");
        assert_eq!(a.tcp.wheel.len(), 1, "B is still pending");
        settle(&mut a, &mut b, VirtualTime::from_millis(10));

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
        assert_eq!(a.tcp.state_of(client), Some(TcpState::Estab));
    }

    #[test]
    fn graceful_close_sequence() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);

        a.tcp.close(client).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        // Peer saw our FIN.
        assert!(b.events_of(child).contains(&TcpEvent::PeerClosed));
        assert_eq!(b.tcp.state_of(child), Some(TcpState::CloseWait));
        assert_eq!(a.tcp.state_of(client), Some(TcpState::FinWait2));

        b.tcp.close(child).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert!(a.events_of(TcpConnId(u32::MAX)).contains(&TcpEvent::PeerClosed));
        // b's side is fully closed (reaped after Closed event).
        assert!(b.events_of(child).contains(&TcpEvent::Closed));
        // a lingers in TIME-WAIT.
        assert_eq!(a.tcp.state_of(client), Some(TcpState::TimeWait));
        // ... and completes after 2MSL.
        run_for(&mut a, &mut b, VirtualTime::ZERO, 61_000, 1000);
        assert!(a.events_of(TcpConnId(u32::MAX)).contains(&TcpEvent::Closed));
        assert_eq!(a.tcp.state_of(client), None, "reaped after close");
    }

    #[test]
    fn connect_to_closed_port_is_reset() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let ev = a.events.clone();
        let client = a
            .tcp
            .open(
                TcpPattern::Active { remote: 1, remote_port: 4444, local_port: 0 },
                Box::new(move |e| ev.borrow_mut().push((TcpConnId(7), e))),
            )
            .unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert!(a.events_of(TcpConnId(7)).contains(&TcpEvent::Reset));
        assert_eq!(a.tcp.state_of(client), None, "connection reaped after reset");
        assert_eq!(b.tcp.stats().rsts_sent, 1);
    }

    #[test]
    fn syn_advertises_rfc_879_mss_for_the_link() {
        // Regression for the MSS derivation: the test link reports the
        // conventional 1500-byte Ethernet MTU, and the SYN on the wire
        // must carry 1460 — both 20-byte headers subtracted, through
        // the one shared `mss_for_mtu` helper.
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let tap = seen.clone();
        link.set_filter_toward(
            1,
            Box::new(move |bytes| {
                if let Ok(seg) = TcpSegment::decode_buf(bytes, None) {
                    if seg.header.flags.syn {
                        tap.borrow_mut().push(seg.header.mss());
                    }
                }
                true
            }),
        );
        let (client, _child) = open_pair(&mut a, &mut b);
        assert_eq!(seen.borrow().as_slice(), &[Some(1460)], "one SYN, MSS 1460 for MTU 1500");
        assert!(a.tcp.state_of(client).is_some());
    }

    #[test]
    fn transfer_survives_packet_loss() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        // Drop every 5th frame toward the server.
        let counter = Rc::new(RefCell::new(0u32));
        let c = counter.clone();
        link.set_filter_toward(
            1,
            Box::new(move |_| {
                *c.borrow_mut() += 1;
                !(*c.borrow()).is_multiple_of(5)
            }),
        );
        let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
        let mut sent = 0;
        let mut now = VirtualTime::ZERO;
        let mut spins = 0;
        while sent < payload.len() {
            sent += a.tcp.send_data(client, &payload[sent..]).unwrap();
            now = run_for(&mut a, &mut b, now, 200, 50);
            spins += 1;
            assert!(spins < 5000, "lossy transfer wedged at {sent}");
        }
        run_for(&mut a, &mut b, now, 30_000, 250);
        let got = b.received_bytes(child);
        assert_eq!(got.len(), payload.len(), "all bytes despite loss");
        assert_eq!(got, payload);
        assert!(a.tcp.stats().retransmits > 0, "loss must cause retransmissions");
        assert!(link.dropped() > 0);
    }

    #[test]
    fn syn_retransmits_then_gives_up() {
        let link = LinkPair::new();
        let mut a = Host::new(
            &link,
            0,
            TcpConfig { syn_retries: 2, user_timeout_ms: 600_000, ..TcpConfig::default() },
        );
        let mut b = Host::new(&link, 1, TcpConfig::default());
        // Black-hole everything toward b.
        link.set_filter_toward(1, Box::new(|_| false));
        let ev = a.events.clone();
        let client = a
            .tcp
            .open(
                TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 },
                Box::new(move |e| ev.borrow_mut().push((TcpConnId(7), e))),
            )
            .unwrap();
        run_for(&mut a, &mut b, VirtualTime::ZERO, 120_000, 500);
        assert!(a.events_of(TcpConnId(7)).contains(&TcpEvent::TimedOut), "{:?}", a.events);
        assert_eq!(a.tcp.state_of(client), None);
        assert!(link.dropped() >= 3, "initial SYN plus at least 2 retries");
    }

    #[test]
    fn zero_window_then_reopen_via_probe() {
        // Server app stops consuming (we emulate by a tiny window),
        // then the client's persist probe keeps the connection alive.
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        // Server with a 512-byte window.
        let mut b = Host::new(&link, 1, TcpConfig { initial_window: 512, ..TcpConfig::default() });
        let (client, child) = open_pair(&mut a, &mut b);
        let payload = vec![0x5a_u8; 4000];
        let mut sent = 0;
        let mut now = VirtualTime::ZERO;
        let mut spins = 0;
        while sent < payload.len() {
            sent += a.tcp.send_data(client, &payload[sent..]).unwrap();
            now = run_for(&mut a, &mut b, now, 400, 100);
            spins += 1;
            assert!(spins < 3000, "zero-window transfer wedged at {sent}");
        }
        run_for(&mut a, &mut b, now, 20_000, 250);
        assert_eq!(b.received_bytes(child).len(), payload.len());
    }

    #[test]
    fn listener_backlog_bounds_embryonic_connections() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig { backlog: 1, ..TcpConfig::default() });
        let _listener = b.tcp.open(TcpPattern::Passive { local_port: 80 }, b.recorder(999)).unwrap();
        // Stop SYN+ACKs from reaching client so children stay embryonic.
        link.set_filter_toward(0, Box::new(|_| false));
        for i in 0..3 {
            let _ = a.tcp.open(
                TcpPattern::Active { remote: 1, remote_port: 80, local_port: 10_000 + i },
                Box::new(|_| {}),
            );
        }
        settle(&mut a, &mut b, VirtualTime::ZERO);
        let embryonic =
            (0..200u32).filter_map(|i| b.tcp.state_of(TcpConnId(i))).filter(|s| s.is_syn_received()).count();
        assert_eq!(embryonic, 1, "backlog 1 admits a single embryonic child");
    }

    #[test]
    fn abort_sends_rst_peer_sees_reset() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        a.tcp.abort(client).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert!(b.events_of(child).contains(&TcpEvent::Reset));
        assert!(a.events_of(TcpConnId(u32::MAX)).contains(&TcpEvent::Closed));
    }

    #[test]
    fn send_on_unknown_connection_errors() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        assert_eq!(a.tcp.send(TcpConnId(42), (), b"x".to_vec()), Err(ProtoError::NotOpen));
        assert_eq!(a.tcp.close(TcpConnId(42)), Err(ProtoError::NotOpen));
    }

    #[test]
    fn send_pushback_when_buffer_full() {
        let link = LinkPair::new();
        let mut a =
            Host::new(&link, 0, TcpConfig { send_buffer: 1000, nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig { initial_window: 256, ..TcpConfig::default() });
        let (client, _child) = open_pair(&mut a, &mut b);
        // Fill beyond window + buffer.
        let r = a.tcp.send(client, (), vec![0; 5000]);
        assert_eq!(r, Err(ProtoError::WouldBlock));
        let n = a.tcp.send_data(client, &vec![0; 5000]).unwrap();
        assert!(n > 0 && n <= 1000);
    }

    #[test]
    fn duplicate_active_open_rejected() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        a.tcp
            .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 }, Box::new(|_| {}))
            .unwrap();
        let again =
            a.tcp.open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 }, Box::new(|_| {}));
        assert_eq!(again.unwrap_err(), ProtoError::AlreadyOpen);
    }

    #[test]
    fn duplicate_listen_rejected() {
        let link = LinkPair::new();
        let mut b = Host::new(&link, 1, TcpConfig::default());
        b.tcp.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        assert_eq!(
            b.tcp.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap_err(),
            ProtoError::AlreadyOpen
        );
    }

    #[test]
    fn server_close_first_client_second() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig::default());
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        b.tcp.close(child).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(a.tcp.state_of(client), Some(TcpState::CloseWait));
        a.tcp.close(client).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert!(a.events_of(TcpConnId(u32::MAX)).contains(&TcpEvent::Closed));
        // Server side lingers in TIME-WAIT, then finishes.
        assert_eq!(b.tcp.state_of(child), Some(TcpState::TimeWait));
        run_for(&mut a, &mut b, VirtualTime::ZERO, 61_000, 1000);
        assert!(b.events_of(child).contains(&TcpEvent::Closed));
        assert_eq!(b.tcp.state_of(child), None);
    }

    #[test]
    fn data_before_close_is_delivered_with_fin() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, child) = open_pair(&mut a, &mut b);
        a.tcp.send(client, (), b"last words".to_vec()).unwrap();
        a.tcp.close(client).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        let evs = b.events_of(child);
        assert_eq!(b.received_bytes(child), b"last words");
        let data_pos = evs.iter().position(|e| matches!(e, TcpEvent::Data(_))).unwrap();
        let fin_pos = evs.iter().position(|e| *e == TcpEvent::PeerClosed).unwrap();
        assert!(data_pos < fin_pos, "data precedes the close notice: {evs:?}");
    }

    #[test]
    fn determinism_same_run_same_stats() {
        let run = || {
            let link = LinkPair::new();
            let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
            let mut b = Host::new(&link, 1, TcpConfig::default());
            let (client, child) = open_pair(&mut a, &mut b);
            let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 7) as u8).collect();
            let mut sent = 0;
            let mut now = VirtualTime::ZERO;
            while sent < payload.len() {
                sent += a.tcp.send_data(client, &payload[sent..]).unwrap();
                now = run_for(&mut a, &mut b, now, 50, 10);
            }
            run_for(&mut a, &mut b, now, 1000, 50);
            let _ = child;
            (a.tcp.stats(), b.tcp.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fast_path_dominates_bulk_transfer() {
        let link = LinkPair::new();
        let mut a = Host::new(&link, 0, TcpConfig { nagle: false, ..TcpConfig::default() });
        let mut b = Host::new(&link, 1, TcpConfig::default());
        let (client, _child) = open_pair(&mut a, &mut b);
        let payload = vec![3u8; 50_000];
        let mut sent = 0;
        let mut now = VirtualTime::ZERO;
        while sent < payload.len() {
            sent += a.tcp.send_data(client, &payload[sent..]).unwrap();
            now = run_for(&mut a, &mut b, now, 50, 10);
        }
        run_for(&mut a, &mut b, now, 1000, 50);
        let b_stats = b.tcp.stats();
        assert!(
            b_stats.fastpath_hits > b_stats.fastpath_misses,
            "receiver fast path should dominate: {b_stats:?}"
        );
    }
}

#[cfg(test)]
mod priority_tests {
    //! The §4 scheduling extension: with `latency_priority` on, queued
    //! outbound segments are executed ahead of other actions.

    use super::*;
    use crate::testlink::{LinkPair, TestAux};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn send_segments_jump_the_queue() {
        let cfg =
            TcpConfig { latency_priority: true, nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
        let link = LinkPair::new();
        let sched = SchedHandle::new();
        let mut a = Tcp::new(link.endpoint(0), TestAux, (), cfg.clone(), sched.clone(), HostHandle::free());
        let mut b = Tcp::new(link.endpoint(1), TestAux, (), cfg, SchedHandle::new(), HostHandle::free());
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        let conn = a
            .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, Box::new(|_| {}))
            .unwrap();
        for _ in 0..50 {
            a.step(VirtualTime::ZERO);
            b.step(VirtualTime::ZERO);
        }
        assert_eq!(a.state_of(conn), Some(TcpState::Estab));
        // Adopt the child so its data lands somewhere.
        let child = TcpConnId(1);
        b.set_handler(
            child,
            Box::new(move |ev| {
                if let TcpEvent::Data(d) = ev {
                    g.borrow_mut().extend_from_slice(&d);
                }
            }),
        )
        .unwrap();
        a.send(conn, (), b"priority-scheduled".to_vec()).unwrap();
        for _ in 0..50 {
            a.step(VirtualTime::ZERO);
            b.step(VirtualTime::ZERO);
        }
        assert_eq!(
            &got.borrow()[..],
            b"priority-scheduled",
            "correctness unchanged under priority scheduling"
        );
    }

    #[test]
    fn priority_and_fifo_deliver_identical_streams() {
        let run = |priority: bool| {
            let cfg = TcpConfig {
                latency_priority: priority,
                nagle: false,
                delayed_ack_ms: None,
                ..TcpConfig::default()
            };
            let link = LinkPair::new();
            let mut a =
                Tcp::new(link.endpoint(0), TestAux, (), cfg.clone(), SchedHandle::new(), HostHandle::free());
            let mut b = Tcp::new(link.endpoint(1), TestAux, (), cfg, SchedHandle::new(), HostHandle::free());
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
            let conn = a
                .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, Box::new(|_| {}))
                .unwrap();
            let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
            let mut sent = 0;
            let mut now = VirtualTime::ZERO;
            let mut adopted = false;
            for _ in 0..100_000 {
                now += VirtualDuration::from_millis(1);
                if sent < payload.len() {
                    sent += a.send_data(conn, &payload[sent..]).unwrap_or(0);
                }
                a.step(now);
                b.step(now);
                if !adopted {
                    let g2 = g.clone();
                    adopted = b
                        .set_handler(
                            TcpConnId(1),
                            Box::new(move |ev| {
                                if let TcpEvent::Data(d) = ev {
                                    g2.borrow_mut().extend_from_slice(&d);
                                }
                            }),
                        )
                        .is_ok();
                }
                if got.borrow().len() >= payload.len() {
                    break;
                }
            }
            assert_eq!(got.borrow().len(), payload.len(), "priority={priority}");
            let out = got.borrow().clone();
            (out, payload)
        };
        let (fifo_stream, payload) = run(false);
        let (prio_stream, _) = run(true);
        assert_eq!(fifo_stream, payload);
        assert_eq!(prio_stream, payload, "byte stream identical under either scheduler");
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::testlink::{LinkPair, TestAux};
    use foxwire::tcp::{TcpFlags, TcpHeader, TcpSegment};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn engine(link: &LinkPair, side: u8, cfg: TcpConfig) -> Tcp<crate::testlink::TestLower, TestAux> {
        Tcp::new(link.endpoint(side), TestAux, (), cfg, SchedHandle::new(), HostHandle::free())
    }

    fn spin(
        a: &mut Tcp<crate::testlink::TestLower, TestAux>,
        b: &mut Tcp<crate::testlink::TestLower, TestAux>,
    ) {
        for _ in 0..200 {
            let p = a.step(VirtualTime::ZERO);
            let q = b.step(VirtualTime::ZERO);
            if !p && !q {
                break;
            }
        }
    }

    #[test]
    fn simultaneous_open_establishes_both_sides() {
        // Both ends actively open to each other with fixed ports: the
        // SYNs cross, each side enters Syn_Active (the paper's
        // active-open SYN-RECEIVED variant), and both establish.
        let link = LinkPair::new();
        let cfg = TcpConfig::default();
        let mut a = engine(&link, 0, cfg.clone());
        let mut b = engine(&link, 1, cfg);
        let ev_a = Rc::new(RefCell::new(Vec::new()));
        let ev_b = Rc::new(RefCell::new(Vec::new()));
        let (ea, eb) = (ev_a.clone(), ev_b.clone());
        let ca = a
            .open(
                TcpPattern::Active { remote: 1, remote_port: 2000, local_port: 1000 },
                Box::new(move |e| ea.borrow_mut().push(e)),
            )
            .unwrap();
        let cb = b
            .open(
                TcpPattern::Active { remote: 0, remote_port: 1000, local_port: 2000 },
                Box::new(move |e| eb.borrow_mut().push(e)),
            )
            .unwrap();
        spin(&mut a, &mut b);
        assert_eq!(a.state_of(ca), Some(TcpState::Estab), "events: {:?}", ev_a.borrow());
        assert_eq!(b.state_of(cb), Some(TcpState::Estab), "events: {:?}", ev_b.borrow());
        assert!(ev_a.borrow().contains(&TcpEvent::Established));
        assert!(ev_b.borrow().contains(&TcpEvent::Established));
    }

    #[test]
    fn urgent_pointer_signalled_once_per_region() {
        let link = LinkPair::new();
        // Immediate ACKs and no Nagle: the test spins at a frozen clock,
        // so nothing timer-driven can fire.
        let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
        let mut a = engine(&link, 0, cfg.clone());
        let mut b = engine(&link, 1, cfg);
        let ev = Rc::new(RefCell::new(Vec::new()));
        let e2 = ev.clone();
        b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        let ca = a
            .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 }, Box::new(|_| {}))
            .unwrap();
        spin(&mut a, &mut b);
        assert_eq!(a.state_of(ca), Some(TcpState::Estab));
        b.set_handler(TcpConnId(1), Box::new(move |e| e2.borrow_mut().push(e))).unwrap();
        // Craft an URG segment from a's side by sending data with the
        // URG flag through the raw link: simplest is to use a's engine
        // send and then rewrite... instead, push a hand-built segment
        // into b via the link from endpoint 0's address.
        // a's engine state gives us the right seq numbers:
        a.send(ca, (), b"urgent!".to_vec()).unwrap();
        // Rewrite in flight: set URG + urgent pointer on the data frame.
        // (The test link carries raw TCP bytes; decode, set, re-encode.)
        let pair_filter_installed = Rc::new(RefCell::new(0));
        let n = pair_filter_installed.clone();
        link.set_filter_toward(
            1,
            Box::new(move |bytes| {
                if let Ok(mut seg) = TcpSegment::decode_buf(bytes, None) {
                    if !seg.payload.is_empty() {
                        seg.header.flags.urg = true;
                        seg.header.urgent = seg.payload.len() as u16;
                        *bytes = seg.encode_buf(None).unwrap();
                        *n.borrow_mut() += 1;
                    }
                }
                true
            }),
        );
        // Retransmit will carry the URG flag after the filter mutates it;
        // force one round trip.
        spin(&mut a, &mut b);
        let urgents: Vec<_> =
            ev.borrow().iter().filter(|e| matches!(e, TcpEvent::Urgent(_))).cloned().collect();
        // The data already flowed before the filter was installed in
        // this spin; send one more urgent-marked chunk.
        a.send(ca, (), b"more".to_vec()).unwrap();
        spin(&mut a, &mut b);
        let urgents_after: Vec<_> =
            ev.borrow().iter().filter(|e| matches!(e, TcpEvent::Urgent(_))).cloned().collect();
        assert!(urgents_after.len() > urgents.len(), "urgent event delivered: {:?}", ev.borrow());
        // Data itself still arrives in order.
        let data: Vec<u8> = ev
            .borrow()
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data, b"urgent!more");
    }

    #[test]
    fn traces_record_segment_flow_when_enabled() {
        use foxbasis::obs::flags;

        let link = LinkPair::new();
        let mut a = engine(&link, 0, TcpConfig::default());
        let mut b = engine(&link, 1, TcpConfig::default());
        let sink = EventSink::recording(256);
        a.set_obs(sink.for_host(0));
        b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        a.open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 }, Box::new(|_| {}))
            .unwrap();
        spin(&mut a, &mut b);
        let evs = sink.events();
        let syn_ack = flags::SYN | flags::ACK;
        assert!(evs.iter().any(|e| matches!(e.event, Event::SegTx { flags: flags::SYN, .. })), "{evs:?}");
        assert!(
            evs.iter().any(|e| matches!(e.event, Event::SegRx { flags, .. } if flags == syn_ack)),
            "{evs:?}"
        );
        // No sink installed on b: silent.
        assert!(evs.iter().all(|e| e.host == 0), "{evs:?}");
    }

    #[test]
    fn urgent_test_filter_decodes_what_engine_encodes() {
        // Sanity for the filter trick above: decode(encode(x)) == x with
        // checksums off (the TestAux configuration).
        let mut h = TcpHeader::new(1, 2);
        h.flags = TcpFlags::ACK;
        let seg = TcpSegment { header: h, payload: b"xyz"[..].into() };
        let bytes = seg.encode(None).unwrap();
        assert_eq!(TcpSegment::decode(&bytes, None).unwrap(), seg);
    }
}

#[cfg(test)]
mod half_close_tests {
    //! TCP's half-close semantics: after the peer FINs, our side may
    //! keep sending (CLOSE-WAIT is a sending state).

    use super::*;
    use crate::testlink::{LinkPair, TestAux};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn data_flows_from_close_wait() {
        let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
        let link = LinkPair::new();
        let mut a =
            Tcp::new(link.endpoint(0), TestAux, (), cfg.clone(), SchedHandle::new(), HostHandle::free());
        let mut b = Tcp::new(link.endpoint(1), TestAux, (), cfg, SchedHandle::new(), HostHandle::free());
        let a_events = Rc::new(RefCell::new(Vec::new()));
        let ae = a_events.clone();
        b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        let ca = a
            .open(
                TcpPattern::Active { remote: 1, remote_port: 80, local_port: 5000 },
                Box::new(move |e| ae.borrow_mut().push(e)),
            )
            .unwrap();
        let spin = |a: &mut Tcp<_, _>, b: &mut Tcp<_, _>| {
            for _ in 0..200 {
                let p = a.step(VirtualTime::ZERO);
                let q = b.step(VirtualTime::ZERO);
                if !p && !q {
                    break;
                }
            }
        };
        spin(&mut a, &mut b);
        let cb = TcpConnId(1);
        b.set_handler(cb, Box::new(|_| {})).unwrap();

        // a closes first: a -> FIN-WAIT, b -> CLOSE-WAIT.
        a.close(ca).unwrap();
        spin(&mut a, &mut b);
        assert_eq!(b.state_of(cb), Some(TcpState::CloseWait));
        assert_eq!(a.state_of(ca), Some(TcpState::FinWait2));

        // b keeps talking on the half-open connection.
        b.send(cb, (), b"parting data".to_vec()).unwrap();
        spin(&mut a, &mut b);
        let data: Vec<u8> = a_events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data, b"parting data", "CLOSE-WAIT can still send");

        // And finally closes: full teardown, a through TIME-WAIT.
        b.close(cb).unwrap();
        spin(&mut a, &mut b);
        assert_eq!(a.state_of(ca), Some(TcpState::TimeWait));
        assert!(a_events.borrow().contains(&TcpEvent::PeerClosed));
    }
}

#[cfg(test)]
mod golden_trace_tests {
    //! "Once the actions have been placed on the queue the behavior of
    //! TCP is completely deterministic and testable" — pinned as a
    //! golden trace: the exact segment sequence of a canonical
    //! handshake + exchange + close, captured by a recording
    //! [`EventSink`].

    use super::*;
    use crate::testlink::{LinkPair, TestAux};
    use foxbasis::obs::flags_to_string;

    #[test]
    fn canonical_session_trace_is_stable() {
        let run = || {
            let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
            let link = LinkPair::new();
            let mut a =
                Tcp::new(link.endpoint(0), TestAux, (), cfg.clone(), SchedHandle::new(), HostHandle::free());
            let mut b = Tcp::new(link.endpoint(1), TestAux, (), cfg, SchedHandle::new(), HostHandle::free());
            let sink = EventSink::recording(1024);
            a.set_obs(sink.clone());
            b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
            let ca = a
                .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 9000 }, Box::new(|_| {}))
                .unwrap();
            let spin = |a: &mut Tcp<_, _>, b: &mut Tcp<_, _>| {
                for _ in 0..300 {
                    let p = a.step(VirtualTime::ZERO);
                    let q = b.step(VirtualTime::ZERO);
                    if !p && !q {
                        break;
                    }
                }
            };
            spin(&mut a, &mut b);
            b.set_handler(TcpConnId(1), Box::new(|_| {})).unwrap();
            a.send(ca, (), b"abc".to_vec()).unwrap();
            spin(&mut a, &mut b);
            a.close(ca).unwrap();
            spin(&mut a, &mut b);
            assert_eq!(sink.dropped(), 0);
            sink.events()
        };
        let t1 = run();
        let t2 = run();
        assert_eq!(t1, t2, "identical event streams across runs");

        // The flag sequence of a's transmissions is the textbook session.
        let tx_flags: Vec<String> = t1
            .iter()
            .filter_map(|e| match e.event {
                Event::SegTx { flags, .. } => Some(flags_to_string(flags)),
                _ => None,
            })
            .collect();
        assert_eq!(tx_flags, vec!["SYN", "ACK", "PSH+ACK", "FIN+ACK"], "full stream:\n{t1:#?}");
    }
}

#[cfg(test)]
mod wraparound_tests {
    //! Sequence-number wraparound: a transfer that crosses 2^32 in the
    //! middle of the stream must be seamless — the reason `ubyte4`
    //! arithmetic (our [`foxbasis::seq::Seq`]) exists at all.

    use super::*;
    use crate::testlink::{LinkPair, TestAux};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn stream_crosses_sequence_space_wrap() {
        // Start the virtual clock so the clock-derived ISS sits just
        // below 2^32; a 200 KB transfer then wraps mid-stream.
        let start = VirtualTime::from_micros(((u32::MAX as u64) - 60_000) * 4);
        let cfg = TcpConfig { nagle: false, delayed_ack_ms: None, ..TcpConfig::default() };
        let link = LinkPair::new();
        let sched_a = SchedHandle::from_scheduler(fox_scheduler::Scheduler::starting_at(start));
        let sched_b = SchedHandle::from_scheduler(fox_scheduler::Scheduler::starting_at(start));
        let mut a = Tcp::new(link.endpoint(0), TestAux, (), cfg.clone(), sched_a, HostHandle::free());
        let mut b = Tcp::new(link.endpoint(1), TestAux, (), cfg, sched_b, HostHandle::free());

        let got = Rc::new(RefCell::new(Vec::new()));
        b.open(TcpPattern::Passive { local_port: 80 }, Box::new(|_| {})).unwrap();
        let conn = a
            .open(TcpPattern::Active { remote: 1, remote_port: 80, local_port: 0 }, Box::new(|_| {}))
            .unwrap();

        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
        let mut sent = 0;
        let mut now = start;
        let mut adopted = false;
        for _ in 0..100_000 {
            now += VirtualDuration::from_millis(1);
            if sent < payload.len() {
                sent += a.send_data(conn, &payload[sent..]).unwrap_or(0);
            }
            a.step(now);
            b.step(now);
            if !adopted {
                let g = got.clone();
                adopted = b
                    .set_handler(
                        TcpConnId(1),
                        Box::new(move |ev| {
                            if let TcpEvent::Data(d) = ev {
                                g.borrow_mut().extend_from_slice(&d);
                            }
                        }),
                    )
                    .is_ok();
            }
            if got.borrow().len() >= payload.len() {
                break;
            }
        }
        assert_eq!(got.borrow().len(), payload.len(), "transfer wedged at the wrap");
        assert_eq!(&got.borrow()[..], &payload[..]);
        assert_eq!(a.stats().retransmits, 0, "clean link: the wrap alone must not confuse RTT/resend");
    }
}
