//! # The x-kernel-style baseline TCP
//!
//! The paper's Table 1 compares the Fox Net against "the x-kernel
//! version 3.2", whose TCP "is derived from the Berkeley code, which is
//! highly optimized". This crate is that comparator, rebuilt in the
//! Berkeley style the x-kernel inherited:
//!
//! * **monolithic**: one module, one big `process_segment` with inline
//!   state switches — no Tcb/State/Receive/Send/Resend decomposition;
//! * **direct-call**: packet arrival is processed synchronously to
//!   completion; there is no `to_do` queue and no total ordering of
//!   actions — the control structure the paper's design replaces;
//! * **poll-based**: no upcalls; users call `recv` against a receive
//!   buffer, as with sockets;
//! * **deadline timers**: retransmission and delayed-ACK deadlines are
//!   plain fields checked on every `step`, not scheduler threads.
//!
//! It speaks the same wire format (`foxwire::tcp`), so it interoperates
//! with `foxtcp` — the integration suite connects the two — and it runs
//! over the same `Protocol`/`IpAux` substrate, so Table 1 really does
//! hold everything equal except the implementation and its cost model,
//! just as the paper arranged ("both the advantages and the
//! disadvantages of running in user mode on top of the Mach 3.0
//! microkernel are factored out").

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

use foxbasis::buf::{copy_mark, PacketBuf};
use foxbasis::obs::{ConnMetrics, Event, EventSink};
use foxbasis::ring::RingBuffer;
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxbasis::wheel::{TimerWheel, WheelStats};
use foxproto::aux::IpAux;
use foxproto::{ProtoError, Protocol};
use foxwire::tcp::{TcpFlags, TcpHeader, TcpOption, TcpSegment};
use simnet::HostHandle;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Why no option push onto a header xk builds is refused: a SYN carries
/// at most 19 option bytes and any later segment 10, of the 40 there
/// are.
const OPTIONS_FIT: &str = "a header's options fit the 40-byte option space";

/// Socket handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct SockId(pub u32);

/// Connection states (the classic eleven; no Syn_Active/Passive split —
/// that refinement is the Fox design's).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs, reason = "the RFC 793 state names document themselves")]
pub enum XkState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

impl XkState {
    /// Short stable name for traces; the same vocabulary a reader of
    /// the `foxtcp` stream sees where the two state machines overlap.
    pub fn name(self) -> &'static str {
        match self {
            XkState::Closed => "Closed",
            XkState::Listen => "Listen",
            XkState::SynSent => "SynSent",
            XkState::SynReceived => "SynReceived",
            XkState::Established => "Estab",
            XkState::FinWait1 => "FinWait1",
            XkState::FinWait2 => "FinWait2",
            XkState::CloseWait => "CloseWait",
            XkState::Closing => "Closing",
            XkState::LastAck => "LastAck",
            XkState::TimeWait => "TimeWait",
        }
    }
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct XkConfig {
    /// Receive window / buffer (Table 1 standardizes 4096).
    pub window: usize,
    /// Send buffer.
    pub send_buffer: usize,
    /// Compute/verify checksums.
    pub checksums: bool,
    /// Delayed-ACK flush interval (BSD's 200 ms), `None` = immediate.
    pub delayed_ack_ms: Option<u64>,
    /// 2MSL.
    pub time_wait_ms: u64,
    /// Give up after this many retransmissions.
    pub max_retransmits: u32,
    /// Bound on embryonic (SYN-RECEIVED) children per listener; SYNs
    /// beyond it are dropped and admitted on retransmission once the
    /// queue drains.
    pub backlog: usize,
    /// Offer RFC 7323 window scaling on SYNs (on only if both sides
    /// offer).
    pub window_scale: bool,
    /// Advertise RFC 2018 SACK-permitted on SYNs. The baseline drops
    /// out-of-order segments, so it never *generates* SACK blocks — the
    /// option only tells the peer it may send them.
    pub sack: bool,
    /// Offer RFC 7323 timestamps; when negotiated, every segment
    /// carries TSval/TSecr and the peer's TSval is echoed back.
    pub timestamps: bool,
    /// ACK-coalescing parity knob (mirrors `TcpConfig`): how many full
    /// in-order segments may arrive before an immediate ACK is forced.
    /// `None` (default) keeps this baseline's historical rule — an
    /// immediate ACK on *every* full segment — byte-for-byte.
    pub ack_coalesce_segments: Option<u32>,
}

impl Default for XkConfig {
    fn default() -> Self {
        XkConfig {
            window: 4096,
            send_buffer: 8192,
            checksums: true,
            delayed_ack_ms: Some(200),
            time_wait_ms: 60_000,
            max_retransmits: 12,
            backlog: 8,
            window_scale: false,
            sack: false,
            ack_coalesce_segments: None,
            timestamps: false,
        }
    }
}

/// Events a user can poll for.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum XkEvent {
    /// Handshake done.
    Connected,
    /// New child socket on a listener.
    Accepted(SockId),
    /// Peer sent FIN.
    PeerClosed,
    /// Fully closed.
    Closed,
    /// Reset by peer.
    Reset,
    /// Gave up retransmitting.
    TimedOut,
}

/// Statistics for the benchmark harness.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct XkStats {
    /// Segments sent (with retransmissions).
    pub segments_sent: u64,
    /// Segments processed.
    pub segments_received: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
    /// Checksum drops.
    pub checksum_failures: u64,
    /// Real buffer copies while externalizing/internalizing segments.
    /// The baseline stages payloads with no headroom, so every data
    /// segment pays a counted copy when the header is prepended — the
    /// per-layer copy the x-kernel inherited from Berkeley.
    pub buf_copies: u64,
    /// Bytes moved by those copies.
    pub buf_copy_bytes: u64,
    /// Demultiplexing scans over the socket table (one per arriving
    /// segment, plus one for the listener pass when the exact scan
    /// misses). The baseline keeps the x-kernel's linear session list.
    pub demux_lookups: u64,
    /// Sockets examined across those scans — grows O(N) per segment
    /// with N open connections, which is the scaling cost the keyed
    /// table in `foxtcp::demux` removes.
    pub demux_steps: u64,
    /// In-window RSTs rejected because their sequence number was not
    /// exactly RCV.NXT (blind-reset attempts; RFC 5961 §3.2).
    pub rst_rejected_seq: u64,
    /// ACKs dropped because they acknowledged data never sent
    /// (optimistic-ACK attempts; SEG.ACK > SND.NXT).
    pub acks_ignored_unsent_data: u64,
}

/// Timer kinds, in the order the old per-step poll checked them —
/// timer dispatch sorts by this rank to keep traces identical.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum XkTimerKind {
    DelayedAck = 0,
    TimeWait = 1,
    Resend = 2,
    Persist = 3,
}

/// One socket timer: the deadline (still consulted by `is_none` checks
/// and diagnostics, exactly like the old plain fields) plus its entry on
/// the shared wheel.
#[derive(Default)]
struct TimerSlot {
    at: Option<VirtualTime>,
    tid: Option<foxbasis::wheel::TimerId>,
}

struct Socket<P> {
    id: u32,
    local_port: u16,
    remote: Option<(P, u16)>,
    state: XkState,
    parent: Option<u32>,

    iss: Seq,
    snd_una: Seq,
    snd_nxt: Seq,
    snd_wnd: u32,
    snd_wl1: Seq,
    snd_wl2: Seq,
    rcv_nxt: Seq,
    mss: u32,

    // Negotiated TCP options (all off until the SYN exchange says
    // otherwise, so the default trace is byte-identical to pre-options).
    wscale_on: bool,
    snd_wscale: u8,
    rcv_wscale: u8,
    sack_ok: bool,
    ts_on: bool,
    ts_recent: u32,

    send_buf: RingBuffer,
    recv_buf: RingBuffer,
    fin_pending: bool,
    fin_seq: Option<Seq>,

    // BSD-style single retransmit deadline + counters.
    rto: VirtualDuration,
    backoff: u32,
    retransmits_left: u32,
    srtt: Option<VirtualDuration>,
    rttvar: VirtualDuration,
    timing: Option<(Seq, VirtualTime)>,

    ack_owed: bool,
    /// Full in-order segments accepted since the last ACK we sent
    /// (drives the `ack_coalesce_segments` immediate-ACK threshold).
    segs_since_ack: u32,
    /// Retransmit / delayed-ACK / TIME-WAIT / persist deadlines, each
    /// mirrored on the stack's shared timer wheel.
    timers: [TimerSlot; 4],

    events: VecDeque<XkEvent>,
}

impl<P> Socket<P> {
    fn flight(&self) -> u32 {
        self.snd_nxt.since(self.snd_una)
    }

    /// The largest payload a data segment may carry: the MSS less the
    /// timestamp option's 12 bytes when it is on (RFC 6691 §3 — the
    /// MSS never accounts for options; sizing by the raw MSS would
    /// push a "full" timestamped segment past the link MTU).
    fn eff_mss(&self) -> u32 {
        if self.ts_on {
            self.mss.saturating_sub(foxwire::tcp::TIMESTAMPS_SEGMENT_OVERHEAD).max(1)
        } else {
            self.mss
        }
    }

    fn push_event(&mut self, e: XkEvent) {
        self.events.push_back(e);
    }

    fn deadline(&self, kind: XkTimerKind) -> Option<VirtualTime> {
        self.timers[kind as usize].at
    }

    fn set_timer(&mut self, wheel: &mut TimerWheel<(u32, XkTimerKind)>, kind: XkTimerKind, at: VirtualTime) {
        let slot = &mut self.timers[kind as usize];
        if let Some(tid) = slot.tid.take() {
            wheel.cancel(tid);
        }
        slot.at = Some(at);
        slot.tid = Some(wheel.arm(at, (self.id, kind)));
    }

    fn clear_timer(&mut self, wheel: &mut TimerWheel<(u32, XkTimerKind)>, kind: XkTimerKind) {
        let slot = &mut self.timers[kind as usize];
        slot.at = None;
        if let Some(tid) = slot.tid.take() {
            wheel.cancel(tid);
        }
    }
}

/// The baseline TCP over a lower protocol and aux structure.
pub struct XkTcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    lower: L,
    aux: A,
    cfg: XkConfig,
    host: HostHandle,
    lower_pattern: L::Pattern,
    lower_conn: Option<L::ConnId>,
    rx: Rc<RefCell<VecDeque<L::Incoming>>>,
    socks: Vec<Socket<L::Peer>>,
    next_id: u32,
    next_port: u16,
    stats: XkStats,
    now: VirtualTime,
    obs: EventSink,
    /// All socket timers, one shared wheel: payload is
    /// (socket id, timer kind).
    wheel: TimerWheel<(u32, XkTimerKind)>,
}

impl<L, A> XkTcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// Builds the stack.
    pub fn new(lower: L, aux: A, lower_pattern: L::Pattern, cfg: XkConfig, host: HostHandle) -> Self {
        XkTcp {
            lower,
            aux,
            cfg,
            host,
            lower_pattern,
            lower_conn: None,
            rx: Rc::new(RefCell::new(VecDeque::new())),
            socks: Vec::new(),
            next_id: 0,
            next_port: 48000,
            stats: XkStats::default(),
            now: VirtualTime::ZERO,
            obs: EventSink::off(),
            wheel: TimerWheel::new(VirtualTime::ZERO),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> XkStats {
        self.stats
    }

    /// Timer-wheel operation counters (the `tables -- scale` experiment
    /// reports these alongside demux counters).
    pub fn wheel_stats(&self) -> WheelStats {
        self.wheel.stats()
    }

    /// Installs an event sink; segments, timers, and state transitions
    /// are recorded with the socket id as the connection stamp.
    pub fn set_obs(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// Per-connection metrics snapshot (None once reaped). The baseline
    /// has no congestion window, so `cwnd`/`ssthresh` read zero and the
    /// fast-path counters stay empty; segment and byte counters are the
    /// stack-wide totals, as BSD kept them.
    pub fn metrics_of(&self, sock: SockId) -> Option<ConnMetrics> {
        let i = self.idx(sock)?;
        let s = &self.socks[i];
        Some(ConnMetrics {
            srtt_us: s.srtt.map(|d| d.as_micros()),
            rto_us: s.rto.as_micros(),
            cwnd: 0,
            ssthresh: 0,
            snd_wnd: s.snd_wnd,
            bytes_in_flight: s.flight(),
            fastpath_hits: 0,
            fastpath_misses: 0,
            retransmits: self.stats.retransmits,
            fast_retransmits: 0,
            recoveries: 0,
            rto_fires: self.stats.retransmits,
            probe_fires: 0,
            segments_sent: self.stats.segments_sent,
            segments_received: self.stats.segments_received,
            bytes_sent: self.stats.bytes_sent,
            bytes_delivered: self.stats.bytes_received,
            buf_copies: self.stats.buf_copies,
            buf_copy_bytes: self.stats.buf_copy_bytes,
        })
    }

    /// Emits a state transition if `before` is no longer the state of
    /// socket `i` (callers snapshot before mutating). `cause` names the
    /// trigger in the `spec/tcp_fsm.txt` vocabulary: a user call, a
    /// timer, or the arriving segment's dominant flag.
    fn note_transition(&mut self, i: usize, before: XkState, cause: &'static str) {
        if !self.obs.is_on() {
            return;
        }
        let after = self.socks[i].state;
        if before as u32 != after as u32 {
            let conn = self.socks[i].id;
            self.obs.emit(self.now, conn, || Event::StateTransition {
                from: before.name(),
                to: after.name(),
                cause,
            });
        }
    }

    fn attach(&mut self) -> Result<(), ProtoError> {
        if self.lower_conn.is_none() {
            let q = self.rx.clone();
            self.lower_conn = Some(
                self.lower
                    .open(self.lower_pattern.clone(), Box::new(move |m| q.borrow_mut().push_back(m)))?,
            );
        }
        Ok(())
    }

    fn new_socket(&mut self, local_port: u16, remote: Option<(L::Peer, u16)>) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let iss = Seq(((self.now.as_micros() / 4) as u32).wrapping_add(id.wrapping_mul(64021)));
        self.socks.push(Socket {
            id,
            local_port,
            remote,
            state: XkState::Closed,
            parent: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            snd_wl1: Seq(0),
            snd_wl2: Seq(0),
            rcv_nxt: Seq(0),
            // RFC 879 via the shared helper: MTU minus 40 bytes of
            // IP+TCP headers (this stack formerly subtracted only 20
            // and clamped at 536; foxtcp clamped at 1 — one rule now).
            mss: foxwire::tcp::mss_for_mtu(self.aux.mtu() as u32),
            wscale_on: false,
            snd_wscale: 0,
            rcv_wscale: if self.cfg.window_scale { foxwire::tcp::wscale_for(self.cfg.window) } else { 0 },
            sack_ok: false,
            ts_on: false,
            ts_recent: 0,
            send_buf: RingBuffer::new(self.cfg.send_buffer.max(1)),
            recv_buf: RingBuffer::new(self.cfg.window.max(1)),
            fin_pending: false,
            fin_seq: None,
            rto: VirtualDuration::from_millis(1000),
            backoff: 0,
            retransmits_left: self.cfg.max_retransmits,
            srtt: None,
            rttvar: VirtualDuration::ZERO,
            timing: None,
            ack_owed: false,
            segs_since_ack: 0,
            timers: Default::default(),
            events: VecDeque::new(),
        });
        id
    }

    fn idx(&self, id: SockId) -> Option<usize> {
        self.socks.iter().position(|s| s.id == id.0)
    }

    // ----- user API -----

    /// Active open.
    pub fn connect(
        &mut self,
        remote: L::Peer,
        remote_port: u16,
        local_port: u16,
    ) -> Result<SockId, ProtoError> {
        self.attach()?;
        let local_port = if local_port == 0 {
            let p = self.next_port;
            self.next_port = self.next_port.wrapping_add(1).max(48000);
            p
        } else {
            local_port
        };
        let id = self.new_socket(local_port, Some((remote, remote_port)));
        let i = self.idx(SockId(id)).expect("created");
        self.socks[i].state = XkState::SynSent;
        self.note_transition(i, XkState::Closed, "open");
        self.send_syn(i, false);
        Ok(SockId(id))
    }

    /// Passive open.
    pub fn listen(&mut self, local_port: u16) -> Result<SockId, ProtoError> {
        self.attach()?;
        if self.socks.iter().any(|s| s.local_port == local_port && s.state == XkState::Listen) {
            return Err(ProtoError::AlreadyOpen);
        }
        let id = self.new_socket(local_port, None);
        let i = self.idx(SockId(id)).expect("created");
        self.socks[i].state = XkState::Listen;
        self.note_transition(i, XkState::Closed, "open");
        Ok(SockId(id))
    }

    /// Queues data; returns bytes accepted.
    pub fn send(&mut self, sock: SockId, data: &[u8]) -> Result<usize, ProtoError> {
        let i = self.idx(sock).ok_or(ProtoError::NotOpen)?;
        match self.socks[i].state {
            XkState::Established | XkState::CloseWait | XkState::SynSent | XkState::SynReceived => {}
            XkState::Closed => return Err(ProtoError::NotOpen),
            _ => return Err(ProtoError::Closing),
        }
        if self.socks[i].fin_pending {
            return Err(ProtoError::Closing);
        }
        let n = self.socks[i].send_buf.write(data);
        self.output(i);
        Ok(n)
    }

    /// Reads buffered in-order data.
    pub fn recv(&mut self, sock: SockId, buf: &mut [u8]) -> Result<usize, ProtoError> {
        let i = self.idx(sock).ok_or(ProtoError::NotOpen)?;
        let n = self.socks[i].recv_buf.read(buf);
        if n > 0 {
            // Window opened: let the peer know if it was pinched.
            self.socks[i].ack_owed = true;
            if self.socks[i].deadline(XkTimerKind::DelayedAck).is_none() {
                let at = self.now;
                self.socks[i].set_timer(&mut self.wheel, XkTimerKind::DelayedAck, at);
            }
        }
        Ok(n)
    }

    /// Bytes waiting in the receive buffer.
    pub fn available(&self, sock: SockId) -> usize {
        self.idx(sock).map_or(0, |i| self.socks[i].recv_buf.len())
    }

    /// Next queued event.
    pub fn poll_event(&mut self, sock: SockId) -> Option<XkEvent> {
        let i = self.idx(sock)?;
        self.socks[i].events.pop_front()
    }

    /// Graceful close.
    pub fn close(&mut self, sock: SockId) -> Result<(), ProtoError> {
        let i = self.idx(sock).ok_or(ProtoError::NotOpen)?;
        let before = self.socks[i].state;
        match self.socks[i].state {
            XkState::Closed => return Err(ProtoError::NotOpen),
            XkState::Listen | XkState::SynSent => {
                self.socks[i].state = XkState::Closed;
                self.socks[i].push_event(XkEvent::Closed);
                self.note_transition(i, before, "close");
                return Ok(());
            }
            XkState::Established | XkState::SynReceived => {
                self.socks[i].fin_pending = true;
                self.socks[i].state = XkState::FinWait1;
            }
            XkState::CloseWait => {
                self.socks[i].fin_pending = true;
                self.socks[i].state = XkState::LastAck;
            }
            _ => return Err(ProtoError::Closing),
        }
        self.note_transition(i, before, "close");
        self.output(i);
        Ok(())
    }

    /// Current state (None once reaped).
    pub fn state_of(&self, sock: SockId) -> Option<XkState> {
        self.idx(sock).map(|i| self.socks[i].state)
    }

    /// Diagnostic snapshot: (state, snd_una, snd_nxt, snd_wnd, flight,
    /// buffered, retransmit_at, backoff).
    pub fn debug_of(&self, sock: SockId) -> Option<String> {
        self.idx(sock).map(|i| {
            let s = &self.socks[i];
            format!(
                "{:?} una={} nxt={} wnd={} flight={} buf={} rexmit_at={:?} backoff={} left={}",
                s.state,
                s.snd_una,
                s.snd_nxt,
                s.snd_wnd,
                s.flight(),
                s.send_buf.len(),
                s.deadline(XkTimerKind::Resend),
                s.backoff,
                s.retransmits_left
            )
        })
    }

    /// Drives the stack.
    pub fn step(&mut self, now: VirtualTime) -> bool {
        self.now = self.now.max(now);
        let _ = self.attach();
        let mut progress = self.lower.step(now);
        loop {
            let msg = match self.rx.borrow_mut().pop_front() {
                Some(m) => m,
                None => break,
            };
            progress = true;
            self.input(msg);
        }
        progress |= self.run_timers();
        self.socks.retain(|s| !(s.state == XkState::Closed && s.events.is_empty() && s.parent.is_some()));
        progress
    }

    // ----- output path -----

    fn transmit(&mut self, i: usize, seg: TcpSegment) {
        let to = match &self.socks[i].remote {
            Some((p, _)) => p.clone(),
            None => return,
        };
        self.transmit_to(seg, to);
    }

    fn transmit_to(&mut self, seg: TcpSegment, to: L::Peer) {
        let total = seg.header.header_len() + seg.payload.len();
        let pseudo = if self.cfg.checksums { self.aux.check(&to, total) } else { None };
        if pseudo.is_some() {
            self.host.charge(simnet::Work::Checksum(total));
        }
        self.host.charge(simnet::Work::TcpSegment { payload: seg.payload.len() });
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += seg.payload.len() as u64;
        if self.obs.is_on() {
            let conn = self
                .socks
                .iter()
                .find(|s| {
                    s.local_port == seg.header.src_port
                        && s.remote.as_ref().is_some_and(|(a, p)| A::eq(a, &to) && *p == seg.header.dst_port)
                })
                .map_or(foxbasis::obs::NO_CONN, |s| s.id);
            self.obs.emit(self.now, conn, || Event::SegTx {
                seq: seg.header.seq.0,
                ack: seg.header.ack.0,
                len: seg.payload.len() as u32,
                flags: obs_flags(&seg.header.flags),
                wnd: u32::from(seg.header.window),
            });
        }
        let mark = copy_mark();
        let encoded = seg.encode_buf(pseudo);
        let delta = mark.delta();
        if delta.bytes > 0 {
            self.stats.buf_copies += delta.copies;
            self.stats.buf_copy_bytes += delta.bytes;
            self.obs.emit(self.now, foxbasis::obs::NO_CONN, || Event::BufCopy {
                layer: "xk_tx",
                bytes: delta.bytes as u32,
            });
        }
        if let (Some(conn), Ok(bytes)) = (self.lower_conn, encoded) {
            let _ = self.lower.send(conn, to, bytes);
        }
    }

    fn header_for(&self, i: usize, flags: TcpFlags, seq: Seq) -> TcpHeader {
        let s = &self.socks[i];
        let mut h = TcpHeader::new(s.local_port, s.remote.as_ref().map(|(_, p)| *p).unwrap_or(0));
        h.seq = seq;
        h.ack = if flags.ack { s.rcv_nxt } else { Seq(0) };
        h.flags = flags;
        // SYN windows are never scaled (RFC 7323 §2.2); everywhere else
        // the codec helper applies the negotiated shift and the cap.
        let shift = if flags.syn || !s.wscale_on { 0 } else { s.rcv_wscale };
        h.window = foxwire::tcp::wire_window(s.recv_buf.free() as u32, shift);
        if s.ts_on && !flags.syn {
            h.options
                .push(TcpOption::Timestamps(self.now.as_millis() as u32, s.ts_recent))
                .expect(OPTIONS_FIT);
        }
        h
    }

    fn send_syn(&mut self, i: usize, with_ack: bool) {
        let flags = if with_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN };
        let iss = self.socks[i].iss;
        let mut h = self.header_for(i, flags, iss);
        {
            let s = &self.socks[i];
            h.options.push(TcpOption::MaxSegmentSize(s.mss.min(65535) as u16)).expect(OPTIONS_FIT);
            // A SYN offers what the config enables; a SYN+ACK echoes
            // only what the peer's SYN already agreed to.
            if if with_ack { s.wscale_on } else { self.cfg.window_scale } {
                h.options.push(TcpOption::WindowScale(s.rcv_wscale)).expect(OPTIONS_FIT);
            }
            if if with_ack { s.sack_ok } else { self.cfg.sack } {
                h.options.push(TcpOption::SackPermitted).expect(OPTIONS_FIT);
            }
            if if with_ack { s.ts_on } else { self.cfg.timestamps } {
                h.options
                    .push(TcpOption::Timestamps(self.now.as_millis() as u32, s.ts_recent))
                    .expect(OPTIONS_FIT);
            }
        }
        if self.socks[i].snd_nxt == iss {
            self.socks[i].snd_nxt = iss + 1;
        }
        self.arm_retransmit(i);
        self.transmit(i, TcpSegment { header: h, payload: PacketBuf::new() });
    }

    /// Adopts the peer's SYN options: each one turns on only if our
    /// config offered it too.
    fn negotiate_syn_options(&mut self, i: usize, h: &TcpHeader) {
        let s = &mut self.socks[i];
        if let Some(shift) = h.wscale() {
            if self.cfg.window_scale {
                s.wscale_on = true;
                s.snd_wscale = shift;
            }
        }
        if h.sack_permitted() && self.cfg.sack {
            s.sack_ok = true;
        }
        if let Some((tsval, _)) = h.timestamps() {
            if self.cfg.timestamps {
                s.ts_on = true;
                s.ts_recent = tsval;
            }
        }
    }

    /// The peer's window field, widened by the negotiated send shift.
    /// Windows on SYN segments are never scaled.
    fn peer_window(&self, i: usize, h: &TcpHeader) -> u32 {
        let s = &self.socks[i];
        let shift = if h.flags.syn || !s.wscale_on { 0 } else { s.snd_wscale };
        u32::from(h.window) << shift
    }

    fn send_ack(&mut self, i: usize) {
        let seq = self.socks[i].snd_nxt;
        let h = self.header_for(i, TcpFlags::ACK, seq);
        self.socks[i].ack_owed = false;
        self.socks[i].segs_since_ack = 0;
        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::DelayedAck);
        self.transmit(i, TcpSegment { header: h, payload: PacketBuf::new() });
    }

    /// The output routine: push whatever the windows allow, inline.
    fn output(&mut self, i: usize) {
        loop {
            let (take, fin_now, seq) = {
                let s = &self.socks[i];
                if !matches!(
                    s.state,
                    XkState::Established
                        | XkState::CloseWait
                        | XkState::FinWait1
                        | XkState::LastAck
                        | XkState::Closing
                ) {
                    return;
                }
                if s.fin_seq.is_some_and(|f| s.snd_nxt.gt(f)) {
                    return;
                }
                let unsent = (s.send_buf.len() as u32).saturating_sub(s.flight());
                let usable = s.snd_wnd.saturating_sub(s.flight());
                let take = unsent.min(usable).min(s.eff_mss());
                let fin_now = s.fin_pending && s.fin_seq.is_none() && take == unsent;
                if take == 0 && !fin_now {
                    // Zero window with data pending: arm the persist
                    // timer so a lost window update cannot wedge us.
                    let stalled = unsent > 0 && s.snd_wnd == 0 && s.flight() == 0;
                    if stalled && self.socks[i].deadline(XkTimerKind::Persist).is_none() {
                        let at = self.now + self.socks[i].rto;
                        self.socks[i].set_timer(&mut self.wheel, XkTimerKind::Persist, at);
                    }
                    return;
                }
                (take, fin_now, s.snd_nxt)
            };
            // Staged with no headroom: the Berkeley baseline pays a
            // counted copy when `encode_buf` prepends the header.
            let payload;
            {
                let s = &mut self.socks[i];
                let off = s.flight() as usize;
                // The SYN octet never coexists with buffered data here:
                // output only runs in synchronized states.
                let send_buf = &s.send_buf;
                payload = PacketBuf::build(0, take as usize, |dst| {
                    let got = send_buf.peek_at(off, dst);
                    debug_assert_eq!(got as u32, take, "staged bytes must be present");
                });
                s.snd_nxt = seq + take + u32::from(fin_now);
                if fin_now {
                    s.fin_seq = Some(seq + take);
                }
                if s.timing.is_none() && (take > 0 || fin_now) {
                    s.timing = Some((seq + take + u32::from(fin_now), self.now));
                }
            }
            let flags = TcpFlags { ack: true, psh: take > 0, fin: fin_now, ..TcpFlags::default() };
            let h = self.header_for(i, flags, seq);
            self.arm_retransmit(i);
            self.socks[i].ack_owed = false;
            self.socks[i].segs_since_ack = 0;
            self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::DelayedAck);
            self.transmit(i, TcpSegment { header: h, payload });
            if fin_now {
                return;
            }
        }
    }

    fn arm_retransmit(&mut self, i: usize) {
        if self.socks[i].deadline(XkTimerKind::Resend).is_none() {
            let s = &self.socks[i];
            let at = self.now + s.rto.saturating_mul(1 << s.backoff.min(6));
            self.socks[i].set_timer(&mut self.wheel, XkTimerKind::Resend, at);
        }
    }

    // ----- timers -----

    /// Fires due deadlines from the shared wheel. Dispatch order
    /// replicates the per-step poll this replaces exactly: sockets in
    /// table order, and within one socket delayed ACK, then TIME-WAIT,
    /// then retransmission, then persist.
    fn run_timers(&mut self) -> bool {
        let fired = self.wheel.advance(self.now);
        if fired.is_empty() {
            return false;
        }
        let mut due: Vec<(usize, XkTimerKind, foxbasis::wheel::TimerId)> = fired
            .iter()
            .filter_map(|f| {
                let (sid, kind) = f.payload;
                self.socks.iter().position(|s| s.id == sid).map(|i| (i, kind, f.id))
            })
            .collect();
        due.sort_by_key(|&(i, kind, _)| (i, kind as u32));
        let mut progress = false;
        for (i, kind, tid) in due {
            if self.socks[i].timers[kind as usize].tid != Some(tid) {
                continue; // superseded since the wheel drained
            }
            match kind {
                // Delayed ACK flush.
                XkTimerKind::DelayedAck => {
                    if self.socks[i].ack_owed {
                        progress = true;
                        let conn = self.socks[i].id;
                        self.obs.emit(self.now, conn, || Event::TimerFire { timer: "DelayedAck" });
                        self.send_ack(i);
                    } else {
                        // No ACK owed: the flush was superseded (the ACK
                        // piggybacked on output or went out immediately).
                        // The deadline slot still holds the *fired*
                        // instant, so re-arming at `deadline(..)` would
                        // put a timer in the past and the wheel would
                        // refire it on every advance — a refire storm
                        // that also pins `deadline(..).is_some()` and
                        // blocks the rx path from ever arming a fresh
                        // delay. Clear the slot instead; whoever next
                        // owes an ACK arms a fresh timer.
                        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::DelayedAck);
                    }
                }
                // TIME-WAIT expiry.
                XkTimerKind::TimeWait => {
                    if self.socks[i].state == XkState::TimeWait {
                        progress = true;
                        let conn = self.socks[i].id;
                        self.obs.emit(self.now, conn, || Event::TimerFire { timer: "TimeWait" });
                        self.socks[i].state = XkState::Closed;
                        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::TimeWait);
                        self.socks[i].push_event(XkEvent::Closed);
                        self.note_transition(i, XkState::TimeWait, "timer");
                    } else {
                        // Left TIME-WAIT some other way; re-entry re-arms.
                        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::TimeWait);
                    }
                }
                // Retransmission.
                XkTimerKind::Resend => {
                    progress = true;
                    let conn = self.socks[i].id;
                    self.obs.emit(self.now, conn, || Event::TimerFire { timer: "Resend" });
                    let before = self.socks[i].state;
                    self.retransmit(i);
                    self.note_transition(i, before, "timer");
                }
                // Zero-window probe.
                XkTimerKind::Persist => {
                    progress = true;
                    let conn = self.socks[i].id;
                    self.obs.emit(self.now, conn, || Event::TimerFire { timer: "Persist" });
                    self.window_probe(i);
                }
            }
        }
        progress
    }

    /// Persist: send one byte beyond the window to solicit a window
    /// update, and re-arm with backoff.
    fn window_probe(&mut self, i: usize) {
        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Persist);
        let (send_probe, seq) = {
            let s = &self.socks[i];
            let unsent = (s.send_buf.len() as u32).saturating_sub(s.flight());
            if s.snd_wnd > 0 || unsent == 0 {
                (false, Seq(0))
            } else {
                (true, s.snd_nxt)
            }
        };
        if !send_probe {
            return;
        }
        let payload;
        {
            let s = &mut self.socks[i];
            let off = s.flight() as usize;
            let mut got = 0;
            let send_buf = &s.send_buf;
            payload = PacketBuf::build(0, 1, |dst| {
                got = send_buf.peek_at(off, dst);
            });
            if got == 0 {
                return;
            }
            s.snd_nxt = seq + 1;
            s.backoff = (s.backoff + 1).min(6);
        }
        {
            let s = &self.socks[i];
            let at = self.now + s.rto.saturating_mul(1 << s.backoff);
            self.socks[i].set_timer(&mut self.wheel, XkTimerKind::Persist, at);
        }
        {
            let conn = self.socks[i].id;
            self.obs.emit(self.now, conn, || Event::Loss { kind: "Probe" });
        }
        let flags = TcpFlags { ack: true, psh: true, ..TcpFlags::default() };
        let h = self.header_for(i, flags, seq);
        self.arm_retransmit(i);
        self.transmit(i, TcpSegment { header: h, payload });
    }

    fn retransmit(&mut self, i: usize) {
        self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Resend);
        {
            let s = &mut self.socks[i];
            let has_unacked = s.flight() > 0;
            if !has_unacked {
                return;
            }
            if s.retransmits_left == 0 {
                s.state = XkState::Closed;
                s.push_event(XkEvent::TimedOut);
                return;
            }
            s.retransmits_left -= 1;
            s.backoff += 1;
            s.timing = None; // Karn
        }
        self.stats.retransmits += 1;
        {
            let conn = self.socks[i].id;
            self.obs.emit(self.now, conn, || Event::Loss { kind: "Rto" });
        }
        // Go-back-N from snd_una.
        let (state, una) = {
            let s = &self.socks[i];
            (s.state, s.snd_una)
        };
        match state {
            // send_syn rebuilds the options (MSS plus whatever was
            // offered/negotiated), so a retransmitted SYN is identical
            // to the original.
            XkState::SynSent => {
                self.send_syn(i, false);
            }
            XkState::SynReceived => {
                self.send_syn(i, true);
            }
            _ => {
                // Resend one MSS from snd_una (and the FIN if it is the
                // front of the unacked region).
                let (take, fin, payload) = {
                    let s = &mut self.socks[i];
                    let infl = s.flight();
                    let fin_at_front = s.fin_seq == Some(una);
                    let data = infl
                        .saturating_sub(u32::from(s.fin_seq.is_some_and(|f| f.lt(s.snd_nxt))))
                        .min(s.eff_mss());
                    let mut staged = vec![0u8; data as usize];
                    let got = s.send_buf.peek_at(0, &mut staged);
                    staged.truncate(got);
                    // Go-back-N re-reads the ring every time: a counted
                    // copy per retransmitted segment, headroom-free so
                    // the header prepend pays another.
                    let payload = PacketBuf::build(0, staged.len(), |dst| dst.copy_from_slice(&staged));
                    let fin =
                        fin_at_front || (s.fin_seq == Some(una + got as u32) && (got as u32) < s.eff_mss());
                    (got, fin, payload)
                };
                let flags = TcpFlags { ack: true, psh: take > 0, fin, ..TcpFlags::default() };
                let h = self.header_for(i, flags, una);
                self.arm_retransmit(i);
                self.transmit(i, TcpSegment { header: h, payload });
            }
        }
    }

    // ----- input path: one big switch, BSD style -----

    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn input(&mut self, msg: L::Incoming) {
        let (src, seg) = {
            let info = self.aux.info(&msg);
            let pseudo = if self.cfg.checksums { self.aux.check(&info.src, info.data.len()) } else { None };
            if pseudo.is_some() {
                self.host.charge(simnet::Work::Checksum(info.data.len()));
            }
            let mark = copy_mark();
            let decoded = TcpSegment::decode_buf(info.data, pseudo);
            let delta = mark.delta();
            if delta.bytes > 0 {
                self.stats.buf_copies += delta.copies;
                self.stats.buf_copy_bytes += delta.bytes;
                self.obs.emit(self.now, foxbasis::obs::NO_CONN, || Event::BufCopy {
                    layer: "xk_rx",
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
        self.host.charge(simnet::Work::TcpSegment { payload: seg.payload.len() });
        self.stats.segments_received += 1;
        let h = seg.header.clone();

        // Demux: the x-kernel's linear session scan, instrumented so the
        // scale experiment can price it against foxtcp's keyed table.
        self.stats.demux_lookups += 1;
        let mut steps = 0u64;
        let exact = self.socks.iter().position(|s| {
            steps += 1;
            s.local_port == h.dst_port
                && s.remote.as_ref().is_some_and(|(a, p)| A::eq(a, &src) && *p == h.src_port)
                && s.state != XkState::Closed
        });
        self.stats.demux_steps += steps;
        let i = match exact {
            Some(i) => i,
            None => {
                self.stats.demux_lookups += 1;
                let mut steps = 0u64;
                let listener = self.socks.iter().position(|s| {
                    steps += 1;
                    s.local_port == h.dst_port && s.state == XkState::Listen
                });
                self.stats.demux_steps += steps;
                match listener {
                    Some(li) if h.flags.syn && !h.flags.ack && !h.flags.rst => {
                        // Spawn a child in SYN-RECEIVED — unless the
                        // listener's embryonic queue is full, in which
                        // case the SYN is silently dropped and the
                        // peer's retransmission retries admission.
                        let lid = self.socks[li].id;
                        let embryonic = self
                            .socks
                            .iter()
                            .filter(|s| s.parent == Some(lid) && s.state == XkState::SynReceived)
                            .count();
                        if embryonic >= self.cfg.backlog {
                            return;
                        }
                        let port = self.socks[li].local_port;
                        let child = self.new_socket(port, Some((src.clone(), h.src_port)));
                        let Some(ci) = self.idx(SockId(child)) else { return };
                        self.socks[ci].parent = Some(lid);
                        self.socks[ci].state = XkState::SynReceived;
                        if self.obs.is_on() {
                            let conn = self.socks[ci].id;
                            self.obs.emit(self.now, conn, || Event::SegRx {
                                seq: h.seq.0,
                                ack: h.ack.0,
                                len: 0,
                                flags: obs_flags(&h.flags),
                                wnd: u32::from(h.window),
                            });
                            // The child is spawned by the listener's
                            // SYN: in spec vocabulary that is the
                            // LISTEN -> SYN-RECEIVED edge, not a fresh
                            // socket's CLOSED -> LISTEN (that edge
                            // belongs to the `listen` user call).
                            self.obs.emit(self.now, conn, || Event::StateTransition {
                                from: XkState::Listen.name(),
                                to: XkState::SynReceived.name(),
                                cause: "syn",
                            });
                        }
                        self.socks[ci].rcv_nxt = h.seq + 1;
                        // A SYN's window is never scaled.
                        self.socks[ci].snd_wnd = u32::from(h.window);
                        if let Some(mss) = h.mss() {
                            self.socks[ci].mss = self.socks[ci].mss.min(u32::from(mss)).max(1);
                        }
                        self.negotiate_syn_options(ci, &h);
                        self.send_syn(ci, true);
                        if let Some(li) = self.socks.iter().position(|s| s.id == lid) {
                            let ev = XkEvent::Accepted(SockId(child));
                            self.socks[li].push_event(ev);
                        }
                        return;
                    }
                    Some(_) if h.flags.rst => return,
                    _ => {
                        // RST for anything else.
                        if !h.flags.rst {
                            let rst = reset_for(h.dst_port, &seg);
                            self.transmit_to(rst, src);
                        }
                        return;
                    }
                }
            }
        };

        if self.obs.is_on() {
            let conn = self.socks[i].id;
            self.obs.emit(self.now, conn, || Event::SegRx {
                seq: h.seq.0,
                ack: h.ack.0,
                len: seg.payload.len() as u32,
                flags: obs_flags(&h.flags),
                wnd: u32::from(h.window),
            });
        }
        let before = self.socks[i].state;
        let cause = seg_cause(&h.flags);
        self.process_segment(i, seg);
        // `process_segment` never removes sockets (reaping happens in
        // `step`), so index `i` still names the same socket here.
        self.note_transition(i, before, cause);
    }

    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn process_segment(&mut self, i: usize, seg: TcpSegment) {
        let h = seg.header.clone();
        let state = self.socks[i].state;

        if state == XkState::SynSent {
            if h.flags.ack && (h.ack.le(self.socks[i].iss) || h.ack.gt(self.socks[i].snd_nxt)) {
                if !h.flags.rst {
                    let rst = reset_for(self.socks[i].local_port, &seg);
                    self.transmit(i, rst);
                }
                return;
            }
            if h.flags.rst {
                if h.flags.ack {
                    self.socks[i].state = XkState::Closed;
                    self.socks[i].push_event(XkEvent::Reset);
                }
                return;
            }
            if h.flags.syn {
                {
                    let s = &mut self.socks[i];
                    s.rcv_nxt = h.seq + 1;
                    if let Some(mss) = h.mss() {
                        s.mss = s.mss.min(u32::from(mss)).max(1);
                    }
                }
                self.negotiate_syn_options(i, &h);
                let s = &mut self.socks[i];
                if h.flags.ack {
                    s.snd_una = h.ack;
                    // The SYN+ACK's own window is unscaled.
                    s.snd_wnd = u32::from(h.window);
                    s.snd_wl1 = h.seq;
                    s.snd_wl2 = h.ack;
                    s.state = XkState::Established;
                    s.backoff = 0;
                    s.push_event(XkEvent::Connected);
                    self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Resend);
                    self.send_ack(i);
                    self.output(i);
                } else {
                    s.state = XkState::SynReceived;
                    self.send_syn(i, true);
                }
            }
            return;
        }

        // Timestamps (when negotiated): remember the peer's TSval for
        // echo, BEFORE the acceptability check — RFC 7323 R4 updates
        // TS.Recent for any segment at or left of the edge, duplicates
        // included, so the re-ACK a retransmission earns echoes the
        // retransmission's own clock and the sender's RTT sample spans
        // one round trip, not the whole loss episode. The baseline
        // keeps RTT timing on its Karn clock.
        if self.socks[i].ts_on {
            if let Some((tsval, _)) = h.timestamps() {
                let s = &mut self.socks[i];
                if h.seq.le(s.rcv_nxt) && (tsval.wrapping_sub(s.ts_recent) as i32) >= 0 {
                    s.ts_recent = tsval;
                }
            }
        }

        // Sequence acceptability (abbreviated BSD check). The window
        // used here is what the peer could have seen advertised:
        // wire-granular under the negotiated shift.
        let wnd = {
            let s = &self.socks[i];
            let shift = if s.wscale_on { s.rcv_wscale } else { 0 };
            u32::from(foxwire::tcp::wire_window(s.recv_buf.free() as u32, shift)) << shift
        };
        let seq_ok = {
            let s = &self.socks[i];
            let slen = seg.seq_len();
            match (slen, wnd) {
                (0, 0) => h.seq == s.rcv_nxt,
                (0, w) => h.seq.in_window(s.rcv_nxt, w),
                (_, 0) => false,
                (l, w) => h.seq.in_window(s.rcv_nxt, w) || (h.seq + (l - 1)).in_window(s.rcv_nxt, w),
            }
        };
        if !seq_ok {
            if !h.flags.rst {
                self.send_ack(i);
            }
            return;
        }
        if h.flags.rst {
            // RFC 5961 §3.2: only an RST at exactly RCV.NXT aborts; an
            // in-window RST elsewhere is a blind-reset attempt — answer
            // it with a challenge ACK and stay up.
            if h.seq == self.socks[i].rcv_nxt {
                let s = &mut self.socks[i];
                s.state = XkState::Closed;
                s.push_event(XkEvent::Reset);
            } else {
                self.stats.rst_rejected_seq += 1;
                let conn = self.socks[i].id;
                self.obs.emit(self.now, conn, || Event::Attack { kind: "RstBadSeq" });
                self.send_ack(i);
            }
            return;
        }
        if h.flags.syn {
            let rst = reset_for(self.socks[i].local_port, &seg);
            self.transmit(i, rst);
            let s = &mut self.socks[i];
            s.state = XkState::Closed;
            s.push_event(XkEvent::Reset);
            return;
        }
        if !h.flags.ack {
            return;
        }
        // ACK processing.
        let peer_wnd = self.peer_window(i, &h);
        if state == XkState::SynReceived {
            if h.ack.in_open_closed(self.socks[i].snd_una - 1, self.socks[i].snd_nxt) {
                let s = &mut self.socks[i];
                s.snd_una = h.ack;
                s.snd_wnd = peer_wnd;
                s.snd_wl1 = h.seq;
                s.snd_wl2 = h.ack;
                s.state = XkState::Established;
                s.backoff = 0;
                s.push_event(XkEvent::Connected);
                self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Resend);
            } else {
                let rst = reset_for(self.socks[i].local_port, &seg);
                self.transmit(i, rst);
                return;
            }
        } else if h.ack.in_open_closed(self.socks[i].snd_una, self.socks[i].snd_nxt) {
            let s = &mut self.socks[i];
            let mut acked = h.ack.since(s.snd_una);
            // SYN/FIN octets occupy no buffer bytes.
            if s.fin_seq.is_some_and(|f| f.lt(h.ack)) {
                acked = acked.saturating_sub(1);
            }
            s.send_buf.skip(acked as usize);
            s.snd_una = h.ack;
            s.backoff = 0;
            s.retransmits_left = self.cfg.max_retransmits;
            if let Some((timed, at)) = s.timing {
                if timed.le(h.ack) {
                    let sample = self.now.saturating_since(at);
                    let smoothed = match s.srtt {
                        None => {
                            s.rttvar = sample / 2;
                            sample
                        }
                        Some(sr) => {
                            let err = if sr > sample { sr - sample } else { sample - sr };
                            s.rttvar = (s.rttvar * 3) / 4 + err / 4;
                            (sr * 7) / 8 + sample / 8
                        }
                    };
                    s.srtt = Some(smoothed);
                    // BSD's one-second RTO floor (must exceed the
                    // peer's delayed-ACK hold time).
                    s.rto = (smoothed + s.rttvar * 4)
                        .max(VirtualDuration::from_millis(1000))
                        .min(VirtualDuration::from_secs(64));
                    s.timing = None;
                }
            }
            let rearm = if s.flight() > 0 {
                Some(self.now + s.rto.saturating_mul(1 << s.backoff.min(6)))
            } else {
                None
            };
            match rearm {
                Some(at) => self.socks[i].set_timer(&mut self.wheel, XkTimerKind::Resend, at),
                None => self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Resend),
            }
        } else if h.ack.gt(self.socks[i].snd_nxt) {
            // "If the ACK acks something not yet sent ... send an ACK,
            // drop the segment" — the optimistic-ACK attack shape.
            self.stats.acks_ignored_unsent_data += 1;
            let conn = self.socks[i].id;
            self.obs.emit(self.now, conn, || Event::Attack { kind: "AckUnsentData" });
            self.send_ack(i);
            return;
        }
        // Window update.
        {
            let s = &mut self.socks[i];
            if s.snd_wl1.lt(h.seq) || (s.snd_wl1 == h.seq && s.snd_wl2.le(h.ack)) {
                s.snd_wnd = peer_wnd;
                s.snd_wl1 = h.seq;
                s.snd_wl2 = h.ack;
                if s.snd_wnd > 0 {
                    self.socks[i].clear_timer(&mut self.wheel, XkTimerKind::Persist);
                }
            }
        }
        // Closing-state ACK transitions.
        let fin_acked = self.socks[i].fin_seq.is_some_and(|f| (f + 1).le(self.socks[i].snd_una));
        match self.socks[i].state {
            XkState::FinWait1 if fin_acked => self.socks[i].state = XkState::FinWait2,
            XkState::Closing if fin_acked => {
                self.socks[i].state = XkState::TimeWait;
                let at = self.now + VirtualDuration::from_millis(self.cfg.time_wait_ms);
                self.socks[i].set_timer(&mut self.wheel, XkTimerKind::TimeWait, at);
            }
            XkState::LastAck if fin_acked => {
                self.socks[i].state = XkState::Closed;
                self.socks[i].push_event(XkEvent::Closed);
                return;
            }
            _ => {}
        }

        // Text.
        let mut consumed_fin = false;
        if !seg.payload.is_empty()
            && matches!(self.socks[i].state, XkState::Established | XkState::FinWait1 | XkState::FinWait2)
        {
            let s = &mut self.socks[i];
            if h.seq == s.rcv_nxt {
                let took = s.recv_buf.write(&seg.payload.bytes());
                s.rcv_nxt += took as u32;
                self.stats.bytes_received += took as u64;
                s.ack_owed = true;
                // Ack every full segment immediately (this baseline's
                // approximation of BSD's every-second-segment rule),
                // unless the coalescing parity knob raises the
                // threshold to one ACK per `k` full segments.
                let full_segment = seg.payload.len() as u32 >= s.eff_mss();
                if full_segment {
                    s.segs_since_ack += 1;
                }
                let threshold = self.cfg.ack_coalesce_segments.unwrap_or(1).max(1);
                if self.socks[i].deadline(XkTimerKind::DelayedAck).is_none() {
                    let delay = self.cfg.delayed_ack_ms.unwrap_or(0);
                    let at = self.now + VirtualDuration::from_millis(delay);
                    self.socks[i].set_timer(&mut self.wheel, XkTimerKind::DelayedAck, at);
                }
                if full_segment && self.socks[i].segs_since_ack >= threshold {
                    self.send_ack(i);
                }
            } else if h.seq.gt(s.rcv_nxt) {
                // No reassembly queue in the baseline: drop and dup-ACK
                // (the original BSD did have one; our baseline's loss
                // recovery is therefore a bit weaker, which only hurts
                // the baseline on lossy links — Table 1's link is clean).
                self.send_ack(i);
            } else {
                // Overlap: take the fresh tail.
                let skip = s.rcv_nxt.since(h.seq) as usize;
                if skip < seg.payload.len() {
                    let took = s.recv_buf.write(&seg.payload.bytes()[skip..]);
                    s.rcv_nxt += took as u32;
                    self.stats.bytes_received += took as u64;
                }
                self.send_ack(i);
            }
        }
        // FIN.
        if h.flags.fin {
            let fin_at = h.seq + seg.payload.len() as u32;
            if self.socks[i].rcv_nxt == fin_at {
                self.socks[i].rcv_nxt += 1;
                consumed_fin = true;
            }
        }
        if consumed_fin {
            self.send_ack(i);
            self.socks[i].push_event(XkEvent::PeerClosed);
            let fin_acked = self.socks[i].fin_seq.is_some_and(|f| (f + 1).le(self.socks[i].snd_una));
            let tw = self.now + VirtualDuration::from_millis(self.cfg.time_wait_ms);
            match self.socks[i].state {
                XkState::Established | XkState::SynReceived => self.socks[i].state = XkState::CloseWait,
                XkState::FinWait1 if fin_acked => {
                    self.socks[i].state = XkState::TimeWait;
                    self.socks[i].set_timer(&mut self.wheel, XkTimerKind::TimeWait, tw);
                }
                XkState::FinWait1 => self.socks[i].state = XkState::Closing,
                XkState::FinWait2 => {
                    self.socks[i].state = XkState::TimeWait;
                    self.socks[i].set_timer(&mut self.wheel, XkTimerKind::TimeWait, tw);
                }
                XkState::TimeWait => self.socks[i].set_timer(&mut self.wheel, XkTimerKind::TimeWait, tw),
                _ => {}
            }
        }

        self.output(i);
        // Flush a pending immediate ACK policy.
        if self.socks[i].ack_owed && self.cfg.delayed_ack_ms.is_none() {
            self.send_ack(i);
        }
    }
}

/// The transition-cause a segment carries, by flag precedence (`rst` >
/// `syn` > `fin` > `ack`) — the `spec/tcp_fsm.txt` trigger vocabulary,
/// kept identical to the structured stack's so both engines' observed
/// edges resolve against the same spec.
fn seg_cause(f: &TcpFlags) -> &'static str {
    if f.rst {
        "rst"
    } else if f.syn {
        "syn"
    } else if f.fin {
        "fin"
    } else if f.ack {
        "ack"
    } else {
        "seg"
    }
}

/// Renders wire flags as the event layer's bitmask.
fn obs_flags(f: &TcpFlags) -> u8 {
    use foxbasis::obs::flags;
    let mut bits = 0;
    if f.fin {
        bits |= flags::FIN;
    }
    if f.syn {
        bits |= flags::SYN;
    }
    if f.rst {
        bits |= flags::RST;
    }
    if f.psh {
        bits |= flags::PSH;
    }
    if f.ack {
        bits |= flags::ACK;
    }
    if f.urg {
        bits |= flags::URG;
    }
    bits
}

fn reset_for(local_port: u16, seg: &TcpSegment) -> TcpSegment {
    let mut h = TcpHeader::new(local_port, seg.header.src_port);
    if seg.header.flags.ack {
        h.seq = seg.header.ack;
        h.flags = TcpFlags::RST;
    } else {
        h.seq = Seq(0);
        h.ack = seg.header.seq + seg.seq_len();
        h.flags = TcpFlags::RST_ACK;
    }
    TcpSegment { header: h, payload: PacketBuf::new() }
}

impl<L, A> fmt::Debug for XkTcp<L, A>
where
    L: Protocol + fmt::Debug,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XkTcp(socks={}, over {:?})", self.socks.len(), self.lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxtcp::testlink::{LinkPair, TestAux, TestLower};

    type Stack = XkTcp<TestLower, TestAux>;

    fn pair() -> (LinkPair, Stack, Stack) {
        let link = LinkPair::new();
        let a = XkTcp::new(link.endpoint(0), TestAux, (), XkConfig::default(), HostHandle::free());
        let b = XkTcp::new(link.endpoint(1), TestAux, (), XkConfig::default(), HostHandle::free());
        (link, a, b)
    }

    fn settle(a: &mut Stack, b: &mut Stack, now: VirtualTime) {
        for _ in 0..500 {
            let p = a.step(now) | b.step(now);
            if !p {
                return;
            }
        }
        panic!("did not settle");
    }

    fn run_for(a: &mut Stack, b: &mut Stack, from: VirtualTime, ms: u64, tick: u64) -> VirtualTime {
        let mut now = from;
        let end = from + VirtualDuration::from_millis(ms);
        while now < end {
            now = (now + VirtualDuration::from_millis(tick)).min(end);
            settle(a, b, now);
        }
        end
    }

    fn open(a: &mut Stack, b: &mut Stack) -> (SockId, SockId) {
        let listener = b.listen(80).unwrap();
        let client = a.connect(1, 80, 0).unwrap();
        settle(a, b, VirtualTime::ZERO);
        let child = match b.poll_event(listener) {
            Some(XkEvent::Accepted(c)) => c,
            other => panic!("expected Accepted, got {other:?}"),
        };
        assert_eq!(a.poll_event(client), Some(XkEvent::Connected));
        assert_eq!(b.poll_event(child), Some(XkEvent::Connected));
        (client, child)
    }

    #[test]
    fn handshake() {
        let (_l, mut a, mut b) = pair();
        let (client, child) = open(&mut a, &mut b);
        assert_eq!(a.state_of(client), Some(XkState::Established));
        assert_eq!(b.state_of(child), Some(XkState::Established));
    }

    #[test]
    fn bulk_transfer() {
        let (_l, mut a, mut b) = pair();
        let (client, child) = open(&mut a, &mut b);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        let mut now = VirtualTime::ZERO;
        let mut spins = 0;
        while got.len() < payload.len() {
            if sent < payload.len() {
                sent += a.send(client, &payload[sent..]).unwrap();
            }
            now = run_for(&mut a, &mut b, now, 250, 50);
            let mut buf = [0u8; 4096];
            loop {
                let n = b.recv(child, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            spins += 1;
            assert!(spins < 5000, "wedged at sent={sent} got={}", got.len());
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn close_sequence() {
        let (_l, mut a, mut b) = pair();
        let (client, child) = open(&mut a, &mut b);
        a.close(client).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(b.poll_event(child), Some(XkEvent::PeerClosed));
        assert_eq!(b.state_of(child), Some(XkState::CloseWait));
        b.close(child).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(a.poll_event(client), Some(XkEvent::PeerClosed));
        assert_eq!(b.poll_event(child), Some(XkEvent::Closed));
        assert_eq!(a.state_of(client), Some(XkState::TimeWait));
        run_for(&mut a, &mut b, VirtualTime::ZERO, 61_000, 1000);
        assert_eq!(a.poll_event(client), Some(XkEvent::Closed));
    }

    #[test]
    fn spurious_delayed_ack_fire_clears_instead_of_storming() {
        // Regression: a DelayedAck that fires with no ACK owed (the
        // flush was superseded) used to re-arm itself at the *fired*
        // deadline — a timer in the past that the wheel refired on
        // every advance, and whose pinned `deadline(..)` blocked the
        // rx path from ever arming a real delayed ACK again. It must
        // instead fire exactly once and leave the slot clear.
        let (_l, mut a, mut b) = pair();
        let (_client, child) = open(&mut a, &mut b);
        let i = b.idx(child).unwrap();
        let at = b.now + VirtualDuration::from_millis(1);
        b.socks[i].set_timer(&mut b.wheel, XkTimerKind::DelayedAck, at);
        b.socks[i].ack_owed = false;
        let before = b.wheel_stats().fires;
        let mut now = b.now;
        for _ in 0..10 {
            now += VirtualDuration::from_millis(5);
            b.step(now);
        }
        assert_eq!(
            b.wheel_stats().fires - before,
            1,
            "one flushed ACK means one DelayedAck fire, not a refire storm"
        );
        assert!(
            b.socks[i].deadline(XkTimerKind::DelayedAck).is_none(),
            "the slot must clear so the next owed ACK can arm a fresh delay"
        );
    }

    #[test]
    fn duplicate_refreshes_ts_recent_for_the_echo() {
        // RFC 7323 R4: a pure duplicate (seq + len entirely left of
        // rcv_nxt) still updates TS.Recent, so the re-ACK echoes the
        // retransmission's own clock — not the clock of the segment
        // that last advanced the edge. Without this, the sender's next
        // RTT sample spans the whole lost-ACK episode instead of one
        // round trip, and its RTO saturates for the rest of the
        // connection.
        let link = LinkPair::new();
        let cfg = XkConfig { timestamps: true, ..XkConfig::default() };
        let mut a = XkTcp::new(link.endpoint(0), TestAux, (), cfg.clone(), HostHandle::free());
        let mut b = XkTcp::new(link.endpoint(1), TestAux, (), cfg, HostHandle::free());
        let (client, child) = open(&mut a, &mut b);

        // Let the clocks advance past the handshake's TSval of zero,
        // then deliver 100 bytes while every frame back toward the
        // sender vanishes: the data advances rcv_nxt, the ACKs do not
        // arrive.
        let now = run_for(&mut a, &mut b, VirtualTime::ZERO, 1_000, 100);
        let blackhole = std::rc::Rc::new(std::cell::RefCell::new(true));
        let bh = blackhole.clone();
        link.set_filter_toward(0, Box::new(move |_| !*bh.borrow()));
        a.send(client, &[7u8; 100]).unwrap();
        let now = run_for(&mut a, &mut b, now, 200, 10);
        let bi = b.idx(child).unwrap();
        let mut buf = [0u8; 128];
        assert_eq!(b.recv(child, &mut buf).unwrap(), 100, "data accepted");
        let stale = b.socks[bi].ts_recent;
        assert!(stale >= 1_000, "echo clock is from the original send");

        // Keep the reverse path dark across the sender's RTO: the
        // retransmissions that arrive now are pure duplicates at b,
        // and each must still refresh TS.Recent.
        let now = run_for(&mut a, &mut b, now, 4_000, 50);
        let fresh = b.socks[bi].ts_recent;
        assert!(fresh > stale, "duplicate refreshed TS.Recent ({stale} -> {fresh})");

        // Heal the path; the next re-ACK releases the sender.
        *blackhole.borrow_mut() = false;
        let _ = run_for(&mut a, &mut b, now, 5_000, 50);
        let ai = a.idx(client).unwrap();
        assert_eq!(a.socks[ai].snd_una, a.socks[ai].snd_nxt, "retransmission was ACKed");
    }

    #[test]
    fn retransmission_recovers_loss() {
        let (link, mut a, mut b) = pair();
        let (client, child) = open(&mut a, &mut b);
        // Drop every 4th frame toward b.
        let n = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        let n2 = n.clone();
        link.set_filter_toward(
            1,
            Box::new(move |_| {
                *n2.borrow_mut() += 1;
                !(*n2.borrow()).is_multiple_of(4)
            }),
        );
        let payload = vec![0xabu8; 20_000];
        let mut sent = 0;
        let mut got = Vec::new();
        let mut now = VirtualTime::ZERO;
        let mut spins = 0;
        while got.len() < payload.len() {
            if sent < payload.len() {
                sent += a.send(client, &payload[sent..]).unwrap();
            }
            now = run_for(&mut a, &mut b, now, 1000, 100);
            let mut buf = [0u8; 4096];
            loop {
                let k = b.recv(child, &mut buf).unwrap();
                if k == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..k]);
            }
            spins += 1;
            assert!(spins < 5000, "wedged: got {}", got.len());
        }
        assert_eq!(got, payload);
        assert!(a.stats().retransmits > 0);
    }

    #[test]
    fn connect_to_dead_port_resets() {
        let (_l, mut a, mut b) = pair();
        let client = a.connect(1, 9999, 0).unwrap();
        settle(&mut a, &mut b, VirtualTime::ZERO);
        assert_eq!(a.poll_event(client), Some(XkEvent::Reset));
        assert_eq!(a.state_of(client), Some(XkState::Closed));
    }

    #[test]
    fn give_up_after_max_retransmits() {
        let (link, _unused, mut b) = pair();
        let cfgd = XkConfig { max_retransmits: 2, ..XkConfig::default() };
        let mut a = XkTcp::new(link.endpoint(0), TestAux, (), cfgd, HostHandle::free());
        link.set_filter_toward(1, Box::new(|_| false));
        let client = a.connect(1, 80, 0).unwrap();
        let mut now = VirtualTime::ZERO;
        for _ in 0..300 {
            now += VirtualDuration::from_millis(1000);
            a.step(now);
            b.step(now);
            if a.poll_event(client) == Some(XkEvent::TimedOut) {
                return;
            }
        }
        panic!("never timed out");
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use foxtcp::testlink::{LinkPair, TestAux};

    #[test]
    fn zero_window_probe_unwedges_lost_window_update() {
        // The scenario that motivated the persist timer: the receiver's
        // window-opening ACK is lost; without probing, the sender waits
        // forever.
        let link = LinkPair::new();
        let mut a = XkTcp::new(link.endpoint(0), TestAux, (), XkConfig::default(), HostHandle::free());
        let mut b = XkTcp::new(
            link.endpoint(1),
            TestAux,
            (),
            XkConfig { window: 512, ..XkConfig::default() },
            HostHandle::free(),
        );
        let listener = b.listen(80).unwrap();
        let client = a.connect(1, 80, 0).unwrap();
        let mut now = VirtualTime::ZERO;
        for _ in 0..50 {
            a.step(now);
            b.step(now);
        }
        let child = match b.poll_event(listener) {
            Some(XkEvent::Accepted(c)) => c,
            other => panic!("expected accept, got {other:?}"),
        };
        // Fill b's tiny window so it advertises zero, then drop exactly
        // the window-update ACK that b sends after the app drains.
        assert!(a.send(client, &[9u8; 2000]).unwrap() > 0);
        for _ in 0..50 {
            a.step(now);
            b.step(now);
        }
        // b's buffer (512) is now full; drain it while suppressing the
        // very next frame toward a (the window update).
        let drop_next = std::rc::Rc::new(std::cell::RefCell::new(1u32));
        let d = drop_next.clone();
        link.set_filter_toward(
            0,
            Box::new(move |_| {
                let mut n = d.borrow_mut();
                if *n > 0 {
                    *n -= 1;
                    false
                } else {
                    true
                }
            }),
        );
        let mut buf = [0u8; 4096];
        let _ = b.recv(child, &mut buf).unwrap();
        for _ in 0..20 {
            a.step(now);
            b.step(now);
        }
        // Let virtual time pass: the persist probe must fire, solicit a
        // window update, and the transfer must finish.
        let mut got = 0usize;
        for _ in 0..200 {
            now += VirtualDuration::from_millis(500);
            a.step(now);
            b.step(now);
            loop {
                let n = b.recv(child, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
            if got >= 1488 {
                break; // the rest of the 2000 minus the first drain
            }
        }
        let total = 512 + got;
        assert!(total >= 2000, "persist probe must unwedge the transfer: got {total}");
    }
}
