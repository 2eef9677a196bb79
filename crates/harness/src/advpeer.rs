//! The adversarial scripted peer — the conformance suite's raw peer,
//! generalized into a reusable attacker that runs against *both* stacks
//! on the simulated wire.
//!
//! The conformance tests drive a stack with hand-built segments over a
//! private [`foxtcp::testlink`] pair; that peer is cooperative — it
//! speaks TCP badly on purpose, but only to one victim, with perfect
//! knowledge, on a perfect link. This module rebuilds the idea at the
//! [`simnet`] level: an [`Adversary`] is a third, promiscuous port on
//! the shared Ethernet segment that *sniffs* a live legitimate transfer
//! and injects spoofed frames against it — blind resets, blind data,
//! ACK-division and optimistic-ACK window inflation, silly-window
//! pumps, self-addressed land SYNs, and SYN floods with replays of a
//! promoted child's original SYN. Every script runs mid-transfer, so
//! each report answers the question the taxonomy in DESIGN.md §5.12
//! asks: did the victim keep its counters, its connection, *and* its
//! payload?
//!
//! Determinism: the adversary owns no randomness. Everything it does is
//! a pure function of sniffed traffic, so a cell (stack × attack ×
//! link personality × seed) replays bit-identically — the property the
//! `tables -- adversarial` matrix asserts by running every cell twice.

use crate::experiments::loss_cell;
use crate::sim::drive;
use crate::stack::{ip_of, mac_of, StackKind};
use crate::station::StationStats;
use crate::workload::establish;
use foxbasis::buf::PacketBuf;
use foxbasis::obs::EventSink;
use foxbasis::seq::Seq;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxtcp::TcpConfig;
use foxwire::ether::{EthAddr, EtherType, Frame};
use foxwire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Header, Ipv4Packet};
use foxwire::tcp::{wire_window, TcpFlags, TcpHeader, TcpOption, TcpSegment};
use simnet::{FaultConfig, NetStats, Port, SimNet};
use std::collections::BTreeMap;

/// Station id of the transfer's sender (the listening side): the
/// `Cell`'s first station.
const SENDER_ID: u16 = 1;
/// Station id of the transfer's receiver (the connecting side): the
/// `Cell`'s second.
const RECEIVER_ID: u16 = 2;
/// Station id the adversary's own (never-spoofed) port answers to.
const ADVERSARY_ID: u16 = 66;
/// The sender's listening port.
const SERVICE_PORT: u16 = 2000;
/// Payload bytes of the legitimate transfer every attack rides along.
pub const TRANSFER_BYTES: usize = 24_000;
/// Payload carried by each injected data segment.
const INJECT_LEN: usize = 512;
/// Accept backlog configured on the listener (the SYN flood sends more).
const BACKLOG: usize = 4;
/// Spoofed SYNs the flood script sends.
const FLOOD_SYNS: usize = 6;

/// What the sniffer knows about one direction of a flow, updated from
/// every frame whose IPv4 source matches the key.
#[derive(Copy, Clone, Debug, Default)]
struct FlowView {
    /// TCP source port of the latest frame.
    src_port: u16,
    /// `seq + seg.len` of the latest frame — the speaker's SND.NXT as
    /// far as the wire shows it.
    seq_end: u32,
    /// Latest acknowledgment field — the speaker's RCV.NXT.
    ack: u32,
    /// Frames seen from this source.
    frames: u64,
}

/// A promiscuous port plus the flow state it has sniffed. All attack
/// scripts address their forgeries from what the spy saw, never from
/// configuration it was handed out of band — the same information a
/// real on-segment attacker has.
pub struct Adversary {
    port: Port,
    views: BTreeMap<Ipv4Addr, FlowView>,
    /// Raw bytes of the first client SYN toward the service port —
    /// replayed verbatim by the flood script.
    captured_syn: Option<Vec<u8>>,
    /// Spoofed frames injected so far.
    pub injected: u64,
}

impl Adversary {
    /// Attaches the adversary's promiscuous port to the segment.
    pub fn new(net: &SimNet) -> Adversary {
        let port = net.attach(mac_of(ADVERSARY_ID));
        port.set_promiscuous(true);
        Adversary { port, views: BTreeMap::new(), captured_syn: None, injected: 0 }
    }

    /// Drains the promiscuous port and updates the flow views.
    pub fn poll(&mut self) {
        while let Some(frame) = self.port.recv() {
            self.sniff(&frame);
        }
    }

    fn sniff(&mut self, frame: &PacketBuf) {
        let Ok(eth) = Frame::decode_buf(frame) else { return };
        if eth.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok(ip) = Ipv4Packet::decode_buf(&eth.payload) else { return };
        if ip.header.protocol != IpProtocol::Tcp || ip.header.is_fragment() {
            return;
        }
        let Ok(tcp) = TcpSegment::decode_buf(&ip.payload, None) else { return };
        if tcp.header.flags.syn
            && !tcp.header.flags.ack
            && tcp.header.dst_port == SERVICE_PORT
            && self.captured_syn.is_none()
        {
            self.captured_syn = Some(frame.bytes().to_vec());
        }
        let v = self.views.entry(ip.header.src).or_default();
        v.src_port = tcp.header.src_port;
        v.seq_end = (tcp.header.seq + tcp.seq_len()).0;
        if tcp.header.flags.ack {
            v.ack = tcp.header.ack.0;
        }
        v.frames += 1;
    }

    fn view(&self, ip: Ipv4Addr) -> FlowView {
        self.views.get(&ip).copied().unwrap_or_default()
    }

    /// Forges one TCP segment (correct TCP checksum, IP checksum and
    /// Ethernet FCS — forgeries must survive every integrity check the
    /// stack runs) and puts it on the wire from the adversary's port.
    #[allow(clippy::too_many_arguments, reason = "a forged header is its field list")]
    fn forge(
        &mut self,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        dst_mac: EthAddr,
        seq: u32,
        ack: Option<u32>,
        mut flags: TcpFlags,
        window: u16,
        payload: &[u8],
        options: &[TcpOption],
    ) {
        let mut h = TcpHeader::new(src.1, dst.1);
        h.seq = Seq(seq);
        if let Some(a) = ack {
            h.ack = Seq(a);
            flags.ack = true;
        }
        h.flags = flags;
        h.window = wire_window(u32::from(window), 0);
        for &o in options {
            h.options.push(o).expect("forged options fit the option space");
        }
        let seg = TcpSegment { header: h, payload: payload.into() };
        let tcp_bytes = seg.encode_v4(Some((src.0, dst.0))).expect("forged segment encodes");
        let pkt = Ipv4Packet { header: Ipv4Header::new(IpProtocol::Tcp, src.0, dst.0), payload: tcp_bytes };
        // The source MAC is spoofed too: the frame claims to come from
        // the host whose IP it borrows, like a real on-LAN forgery.
        let frame = Frame::new(
            dst_mac,
            EthAddr([0x02, 0, 0, 0, 0, 0xfe]),
            EtherType::Ipv4,
            pkt.encode_buf().expect("forged packet encodes"),
        )
        .encode_buf()
        .expect("forged frame encodes");
        self.port.send(frame);
        self.injected += 1;
    }

    /// Replays a previously captured frame verbatim.
    fn replay(&mut self, bytes: &[u8]) {
        self.port.send(PacketBuf::from_vec(bytes.to_vec()));
        self.injected += 1;
    }
}

/// The attack scripts. Each is one way a hostile peer tries to kill,
/// corrupt, or inflate a connection it does not own; DESIGN.md §5.12 is
/// the prose taxonomy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Attack {
    /// RST far outside the victim's window: must be dropped silently.
    BlindRstOffWindow,
    /// RST inside the window but off RCV.NXT: must draw a challenge
    /// ACK and bump `rst_rejected_seq`, not abort (RFC 5961 §3.2).
    BlindRstInWindow,
    /// RST landing exactly on RCV.NXT: aborts — the documented refusal
    /// an in-window, exact-sequence reset is entitled to.
    ExactRst,
    /// Data injected far outside the victim's window: dropped, acked.
    BlindDataOffWindow,
    /// Data inside the window but above RCV.NXT: sits in the reassembly
    /// queue forever (the hole in front of it is never filled) and must
    /// never reach the application.
    BlindDataInWindow,
    /// Data landing exactly on RCV.NXT with a correct checksum: TCP
    /// accepts it — the documented exposure of cleartext TCP — and the
    /// poisoned ACKs it provokes stall the transfer (RFC 793 drops
    /// segments whose ACK covers unsent data).
    ExactData,
    /// Savage-style ACK division: the sender's window must grow by
    /// *bytes* acked, not ACKs counted.
    AckDivision,
    /// ACKs for data beyond SND.NXT: dropped, counted, window intact.
    OptimisticAck,
    /// Spoofed tiny-window updates (silly window syndrome pump): the
    /// transfer must still complete.
    SwsPump,
    /// Self-addressed SYN to the listener (land attack).
    Land,
    /// More spoofed SYNs than the backlog holds, plus a verbatim replay
    /// of the promoted child's original SYN.
    SynFloodReplay,
}

impl Attack {
    /// Every script, in matrix order.
    pub const ALL: [Attack; 11] = [
        Attack::BlindRstOffWindow,
        Attack::BlindRstInWindow,
        Attack::ExactRst,
        Attack::BlindDataOffWindow,
        Attack::BlindDataInWindow,
        Attack::ExactData,
        Attack::AckDivision,
        Attack::OptimisticAck,
        Attack::SwsPump,
        Attack::Land,
        Attack::SynFloodReplay,
    ];

    /// Short table label.
    pub fn name(self) -> &'static str {
        match self {
            Attack::BlindRstOffWindow => "rst-off-window",
            Attack::BlindRstInWindow => "rst-in-window",
            Attack::ExactRst => "rst-exact",
            Attack::BlindDataOffWindow => "data-off-window",
            Attack::BlindDataInWindow => "data-in-window",
            Attack::ExactData => "data-exact",
            Attack::AckDivision => "ack-division",
            Attack::OptimisticAck => "optimistic-ack",
            Attack::SwsPump => "sws-pump",
            Attack::Land => "land",
            Attack::SynFloodReplay => "syn-flood",
        }
    }

    /// Whether the script is *expected* to stop the transfer: these are
    /// the documented refusals; every other script must leave the
    /// legitimate transfer fully delivered.
    pub fn expects_refusal(self) -> bool {
        matches!(self, Attack::ExactRst | Attack::ExactData)
    }
}

/// What one attack run produced, for assertions and the matrix table.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackReport {
    /// The script that ran.
    pub attack: Attack,
    /// The victim stack.
    pub stack: StackKind,
    /// Payload bytes the receiver's application got.
    pub delivered: usize,
    /// Payload bytes the transfer asked for.
    pub expected: usize,
    /// The victim connection died before full delivery.
    pub aborted: bool,
    /// Bytes the *sender's* application received beyond the 8-byte
    /// request — nonzero only when injected data was accepted.
    pub sender_extra: usize,
    /// Spoofed frames the adversary put on the wire.
    pub injected: u64,
    /// Largest congestion window observed on the sender (0 for the
    /// baseline, which has no window to inflate).
    pub cwnd_max: u32,
    /// The byte-counted ceiling the window must stay under.
    pub cwnd_bound: u32,
    /// Self-connections the land SYN managed to get accepted (must be 0).
    pub self_accepts: u32,
    /// Sender-side stats at the end of the run.
    pub sender: StationStats,
    /// Receiver-side stats at the end of the run.
    pub receiver: StationStats,
    /// Wire statistics (personality faults show up here).
    pub net: NetStats,
}

impl AttackReport {
    /// The survive-or-documented-refusal verdict a matrix cell asserts.
    pub fn outcome_ok(&self) -> bool {
        if self.attack.expects_refusal() {
            // The refusal must actually have happened: an exact RST
            // kills the connection; exact data is accepted (and its
            // ACK poisoning stalls the transfer short of completion).
            match self.attack {
                Attack::ExactRst => self.aborted,
                Attack::ExactData => self.sender_extra > 0 && self.delivered < self.expected,
                _ => unreachable!("refusal list above"),
            }
        } else {
            self.delivered == self.expected && !self.aborted && self.self_accepts == 0
        }
    }

    /// One-word cell verdict for the rendered matrix.
    pub fn verdict(&self) -> &'static str {
        match (self.outcome_ok(), self.attack.expects_refusal()) {
            (true, true) => "refused",
            (true, false) => "survived",
            (false, _) => "FAILED",
        }
    }
}

/// Runs one attack script against one stack over one link personality,
/// returning the full report. Same arguments ⇒ bit-identical report.
pub fn run_attack(kind: StackKind, attack: Attack, faults: FaultConfig, seed: u64) -> AttackReport {
    let tcp_cfg = TcpConfig { backlog: BACKLOG, ..TcpConfig::default() };
    let cell = loss_cell(kind, faults, tcp_cfg, seed);
    let (net, mut sender, mut receiver) = cell.pair(EventSink::off());
    let mut adv = Adversary::new(&net);
    let deadline = cell.deadline;

    let (sconn, rconn) = establish(&net, &mut sender, &mut receiver, SERVICE_PORT, deadline, || adv.poll());

    let bytes = TRANSFER_BYTES;
    let request = (bytes as u64).to_be_bytes();
    assert_eq!(receiver.send(rconn, &request), 8, "request fits any window");

    let sender_ip = ip_of(SENDER_ID);
    let sender_mac = mac_of(SENDER_ID);
    let receiver_ip = ip_of(RECEIVER_ID);
    let receiver_mac = mac_of(RECEIVER_ID);
    let junk = [0xEEu8; INJECT_LEN];

    let mut produced = 0usize;
    let mut request_seen = false;
    let mut received = 0usize;
    let mut sender_extra = 0usize;
    let mut cwnd_max = 0u32;
    let mut volleys = 0u32;
    let mut refusal_noticed_at: Option<VirtualTime> = None;
    // The RST scripts pause the sending application once the trigger
    // byte count is through, wait for the wire to go stable (every byte
    // acked, nothing in flight), and only then fire: a reset aimed at a
    // moving RCV.NXT lands below the window and tells us nothing about
    // the victim's sequence validation.
    let rst_volley_cap: u32 = match attack {
        Attack::BlindRstOffWindow => 4,
        Attack::BlindRstInWindow => 6,
        Attack::ExactRst => 12,
        _ => 0,
    };
    let mut stable_ticks = 0u32;
    let mut last_wire = (0u32, 0u32);
    let payload_chunk: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    let trigger = bytes / 4; // attacks start a quarter of the way in
    let sustain = bytes / 2; // pump-style attacks stop half-way

    drive(
        &net,
        &mut [&mut sender, &mut receiver],
        |st| {
            adv.poll();
            // ---- Legitimate applications (as in workload::bulk_transfer).
            if !request_seen && st[0].received_len(sconn) >= 8 {
                let req = st[0].recv(sconn);
                let want = u64::from_be_bytes(req[..8].try_into().expect("8-byte request")) as usize;
                debug_assert_eq!(want, bytes);
                request_seen = true;
            }
            let vs = adv.view(sender_ip); // sender's outbound view
            let vr = adv.view(receiver_ip); // receiver's outbound view
            let rst_paused = rst_volley_cap > 0
                && received >= trigger
                && volleys < rst_volley_cap
                && !st[1].finished(rconn);
            let wire = (vs.seq_end, vr.ack);
            if rst_paused && wire == last_wire && vr.ack == vs.seq_end {
                stable_ticks += 1;
            } else {
                stable_ticks = 0;
                last_wire = wire;
            }
            // Stable for 20 ticks with everything acked: RCV.NXT is
            // parked exactly where the sniffed ACK says it is.
            let quiet = rst_paused && stable_ticks >= 20;
            if request_seen {
                if produced < bytes && !rst_paused {
                    let left = bytes - produced;
                    let chunk = payload_chunk.len().min(left);
                    produced += st[0].send(sconn, &payload_chunk[..chunk]);
                }
                // Anything else arriving at the sender is injected data
                // that TCP accepted.
                sender_extra += st[0].recv(sconn).len();
            }
            received += st[1].recv(rconn).len();
            if let Some(m) = st[0].metrics(sconn) {
                cwnd_max = cwnd_max.max(m.cwnd);
            }

            // ---- The attack script.
            let fired_window = received >= trigger;
            let sustained = fired_window && received < sustain;
            let to_receiver = (sender_ip, SERVICE_PORT);
            let to_receiver_dst = (receiver_ip, vr.src_port);
            let to_sender = (receiver_ip, vr.src_port);
            let to_sender_dst = (sender_ip, SERVICE_PORT);
            match attack {
                Attack::BlindRstOffWindow if quiet => {
                    volleys += 1;
                    adv.forge(
                        to_receiver,
                        to_receiver_dst,
                        receiver_mac,
                        vr.ack.wrapping_add(100_000),
                        None,
                        TcpFlags::RST,
                        0,
                        &[],
                        &[],
                    );
                }
                Attack::BlindRstInWindow if quiet => {
                    // The cursor is parked, so +2048 is inside the
                    // receiver's 4096-byte window but off RCV.NXT.
                    volleys += 1;
                    adv.forge(
                        to_receiver,
                        to_receiver_dst,
                        receiver_mac,
                        vr.ack.wrapping_add(2048),
                        None,
                        TcpFlags::RST,
                        0,
                        &[],
                        &[],
                    );
                }
                Attack::ExactRst if quiet => {
                    // With the stream drained, the receiver's last ACK
                    // *is* RCV.NXT — this one lands exactly.
                    volleys += 1;
                    adv.forge(
                        to_receiver,
                        to_receiver_dst,
                        receiver_mac,
                        vr.ack,
                        None,
                        TcpFlags::RST,
                        0,
                        &[],
                        &[],
                    );
                }
                Attack::BlindDataOffWindow if fired_window && volleys < 4 => {
                    volleys += 1;
                    adv.forge(
                        to_sender,
                        to_sender_dst,
                        sender_mac,
                        vs.ack.wrapping_add(100_000),
                        Some(vs.seq_end),
                        TcpFlags { psh: true, ..TcpFlags::default() },
                        4096,
                        &junk,
                        &[],
                    );
                }
                Attack::BlindDataInWindow if fired_window && volleys < 4 => {
                    // The sender's RCV.NXT is parked after the 8-byte
                    // request, so +1024 is stably in-window and the hole
                    // in front of it is never filled.
                    volleys += 1;
                    adv.forge(
                        to_sender,
                        to_sender_dst,
                        sender_mac,
                        vs.ack.wrapping_add(1024),
                        Some(vs.seq_end),
                        TcpFlags { psh: true, ..TcpFlags::default() },
                        4096,
                        &junk,
                        &[],
                    );
                }
                Attack::ExactData if fired_window && volleys < 1 => {
                    volleys += 1;
                    adv.forge(
                        to_sender,
                        to_sender_dst,
                        sender_mac,
                        vs.ack,
                        Some(vs.seq_end),
                        TcpFlags { psh: true, ..TcpFlags::default() },
                        4096,
                        &junk,
                        &[],
                    );
                }
                Attack::AckDivision if sustained && volleys < 30 => {
                    // Divide the unacked flight into ten sub-MSS ACKs.
                    volleys += 1;
                    let base = vr.ack;
                    let gap = vs.seq_end.wrapping_sub(base).min(1460);
                    if gap >= 10 {
                        for i in 1..=10u32 {
                            adv.forge(
                                to_sender,
                                to_sender_dst,
                                sender_mac,
                                vr.seq_end,
                                Some(base.wrapping_add(i * gap / 10)),
                                TcpFlags::default(),
                                4096,
                                &[],
                                &[],
                            );
                        }
                    }
                }
                Attack::OptimisticAck if fired_window && volleys < 6 => {
                    volleys += 1;
                    adv.forge(
                        to_sender,
                        to_sender_dst,
                        sender_mac,
                        vr.seq_end,
                        Some(vs.seq_end.wrapping_add(100_000)),
                        TcpFlags::default(),
                        4096,
                        &[],
                        &[],
                    );
                }
                Attack::SwsPump if fired_window && volleys < 40 => {
                    // A valid-but-tiny window update at the current ack.
                    volleys += 1;
                    adv.forge(
                        to_sender,
                        to_sender_dst,
                        sender_mac,
                        vr.seq_end,
                        Some(vr.ack),
                        TcpFlags::default(),
                        64,
                        &[],
                        &[],
                    );
                }
                Attack::Land if fired_window && volleys < 3 => {
                    volleys += 1;
                    adv.forge(
                        (sender_ip, SERVICE_PORT),
                        (sender_ip, SERVICE_PORT),
                        sender_mac,
                        0xdead_0000 + volleys,
                        None,
                        TcpFlags::SYN,
                        4096,
                        &[],
                        &[TcpOption::MaxSegmentSize(1460)],
                    );
                }
                Attack::SynFloodReplay if fired_window && volleys < 1 => {
                    volleys += 1;
                    for i in 0..FLOOD_SYNS as u16 {
                        adv.forge(
                            (ip_of(40 + i), 7000 + i),
                            (sender_ip, SERVICE_PORT),
                            sender_mac,
                            1_000 + u32::from(i),
                            None,
                            TcpFlags::SYN,
                            4096,
                            &[],
                            &[TcpOption::MaxSegmentSize(1460)],
                        );
                    }
                    if let Some(syn) = adv.captured_syn.clone() {
                        adv.replay(&syn);
                        adv.replay(&syn);
                    }
                }
                _ => {}
            }

            // ---- Termination.
            if received >= bytes {
                return true;
            }
            if attack.expects_refusal() {
                let refused = match attack {
                    Attack::ExactRst => st[1].finished(rconn),
                    _ => sender_extra > 0,
                };
                if refused && refusal_noticed_at.is_none() {
                    refusal_noticed_at = Some(net.now());
                }
                // Give the wreckage two seconds to settle, then stop —
                // a poisoned connection would otherwise retransmit at
                // the deadline's pleasure.
                if let Some(t) = refusal_noticed_at {
                    return net.now().saturating_since(t) >= VirtualDuration::from_millis(2_000);
                }
            }
            false
        },
        VirtualDuration::from_millis(1),
        deadline,
    );

    let aborted = received < bytes && (receiver.finished(rconn) || attack.expects_refusal());
    // Adopt whatever the land SYN or the flood left on the accept
    // queue. Only a child whose handshake actually completed counts as
    // a manufactured connection — a SYN-RCVD husk is the listener
    // doing its job, not a breach.
    let mut self_accepts = 0u32;
    for _ in 0..(FLOOD_SYNS + BACKLOG) {
        if let Some(h) = sender.accept() {
            let synchronized = matches!(
                sender.conn_state(h),
                "Estab" | "FinWait1" | "FinWait2" | "CloseWait" | "Closing" | "LastAck" | "TimeWait"
            );
            if synchronized {
                self_accepts += 1;
            }
        }
    }
    AttackReport {
        attack,
        stack: kind,
        delivered: received.min(bytes),
        expected: bytes,
        aborted,
        sender_extra,
        injected: adv.injected,
        cwnd_max,
        // One initial window, the whole transfer's worth of honest
        // ACKable bytes, and a few MSS of recovery slack: anything above
        // this means ACKs were *counted*, not byte-credited.
        cwnd_bound: 8 * 1460 + bytes as u32,
        self_accepts,
        sender: sender.stats(),
        receiver: receiver.stats(),
        net: net.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(kind: StackKind, attack: Attack) -> AttackReport {
        run_attack(kind, attack, FaultConfig::default(), 7)
    }

    #[test]
    fn blind_rsts_do_not_kill_either_stack() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            for attack in [Attack::BlindRstOffWindow, Attack::BlindRstInWindow] {
                let r = clean(kind, attack);
                assert!(r.outcome_ok(), "{kind:?} {attack:?}: {r:?}");
                assert!(r.injected >= 4, "the script actually fired");
                if attack == Attack::BlindRstInWindow {
                    assert!(r.receiver.rst_rejected_seq >= 1, "{kind:?}: challenge-ACK counter moved: {r:?}");
                }
            }
        }
    }

    #[test]
    fn exact_rst_is_the_documented_refusal() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = clean(kind, Attack::ExactRst);
            assert!(r.outcome_ok(), "{kind:?}: {r:?}");
            assert!(r.aborted, "{kind:?}: exact-sequence RST kills the connection");
        }
    }

    #[test]
    fn blind_data_never_reaches_the_application() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            for attack in [Attack::BlindDataOffWindow, Attack::BlindDataInWindow] {
                let r = clean(kind, attack);
                assert!(r.outcome_ok(), "{kind:?} {attack:?}: {r:?}");
                assert_eq!(r.sender_extra, 0, "{kind:?} {attack:?}: no injected byte delivered");
            }
        }
    }

    #[test]
    fn exact_data_is_accepted_and_documented() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = clean(kind, Attack::ExactData);
            assert!(r.outcome_ok(), "{kind:?}: {r:?}");
            assert_eq!(r.sender_extra, INJECT_LEN, "{kind:?}: the forged payload was delivered");
            assert!(
                r.receiver.acks_ignored_unsent_data >= 1,
                "{kind:?}: the poisoned ACKs were counted: {r:?}"
            );
        }
    }

    #[test]
    fn ack_division_cannot_inflate_the_window() {
        let r = clean(StackKind::FoxStandard, Attack::AckDivision);
        assert!(r.outcome_ok(), "{r:?}");
        assert!(r.injected >= 100, "the division volleys fired: {}", r.injected);
        assert!(
            r.cwnd_max <= r.cwnd_bound,
            "cwnd {} exceeded the byte-counted bound {}",
            r.cwnd_max,
            r.cwnd_bound
        );
        let xk = clean(StackKind::XKernel, Attack::AckDivision);
        assert!(xk.outcome_ok(), "{xk:?}");
        assert_eq!(xk.cwnd_max, 0, "the baseline has no window to inflate");
    }

    #[test]
    fn optimistic_acks_are_dropped_and_counted() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = clean(kind, Attack::OptimisticAck);
            assert!(r.outcome_ok(), "{kind:?}: {r:?}");
            assert!(r.sender.acks_ignored_unsent_data >= 1, "{kind:?}: optimistic ACKs counted: {r:?}");
            assert!(r.cwnd_max <= r.cwnd_bound, "{kind:?}: window bounded: {r:?}");
        }
    }

    #[test]
    fn sws_pump_slows_but_does_not_stop_the_transfer() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = clean(kind, Attack::SwsPump);
            assert!(r.outcome_ok(), "{kind:?}: {r:?}");
            assert!(r.injected >= 30, "the pump ran: {}", r.injected);
        }
    }

    #[test]
    fn land_syn_is_survived_with_no_self_connection() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = clean(kind, Attack::Land);
            assert!(r.outcome_ok(), "{kind:?}: {r:?}");
            assert_eq!(r.self_accepts, 0, "{kind:?}: no self-connection was accepted");
        }
    }

    #[test]
    fn syn_flood_with_replay_spares_the_promoted_child() {
        let r = clean(StackKind::FoxStandard, Attack::SynFloodReplay);
        assert!(r.outcome_ok(), "{r:?}");
        assert!(
            r.sender.syns_dropped >= (FLOOD_SYNS - BACKLOG) as u64,
            "the overflow SYNs were refused: {r:?}"
        );
        let xk = clean(StackKind::XKernel, Attack::SynFloodReplay);
        assert!(xk.outcome_ok(), "{xk:?}");
    }

    #[test]
    fn reports_replay_bit_identically() {
        let a = run_attack(StackKind::FoxStandard, Attack::BlindRstInWindow, FaultConfig::default(), 11);
        let b = run_attack(StackKind::FoxStandard, Attack::BlindRstInWindow, FaultConfig::default(), 11);
        assert_eq!(a, b, "same cell, same seed, same report");
    }
}
