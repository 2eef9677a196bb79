//! The paper's workloads.
//!
//! §5: "To benchmark the throughput of the protocol stack, we have
//! written a program which tries to send large amounts of data in one
//! direction as fast as possible, letting TCP's flow control mechanisms
//! regulate the speed at which data is delivered. We standardize the TCP
//! window size to 4096 bytes ... The test consists of sending 10^6 bytes
//! of data between a designated sender and a designated receiver on an
//! isolated 10Mb/s ethernet. The receiver starts a timer, sends the
//! designated sender a small packet specifying the amount of data
//! desired, and stops the timer after all the specified data has been
//! received. The received data is discarded when it is received at the
//! application level."

use crate::sim::drive;
use crate::stack::StackKind;
use crate::station::{ConnHandle, ScaleCounters, Station, StationStats};
use foxbasis::obs::EventSink;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxproto::dev::BatchConfig;
use foxtcp::TcpConfig;
use simnet::{CostModel, GcStats, NetStats, SimNet};
use std::collections::BTreeMap;

/// Result of one bulk-transfer run.
#[derive(Clone, Debug, PartialEq)]
pub struct BulkResult {
    /// Bytes the receiver asked for and got.
    pub bytes: usize,
    /// Receiver-measured elapsed time (request sent → last byte).
    pub elapsed: VirtualDuration,
    /// Payload throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Sender TCP stats.
    pub sender: StationStats,
    /// Receiver TCP stats.
    pub receiver: StationStats,
    /// Sender GC statistics (when the cost model has a collector).
    pub sender_gc: Option<GcStats>,
    /// Network statistics.
    pub net: NetStats,
}

/// Opens one connection from `client` to `server`, which listens on
/// `port`, and drives both until the server has accepted it and the
/// client sees it established. Returns the server's handle and then the
/// client's. `each_tick` runs first on every pass of the drive loop,
/// before the server's `accept`.
pub fn establish(
    net: &SimNet,
    server: &mut Box<dyn Station>,
    client: &mut Box<dyn Station>,
    port: u16,
    deadline: VirtualTime,
    mut each_tick: impl FnMut(),
) -> (ConnHandle, ConnHandle) {
    server.listen(port);
    let cconn = client.connect(port);
    let mut sconn = None;
    drive(
        net,
        &mut [&mut *server, &mut *client],
        |st| {
            each_tick();
            if sconn.is_none() {
                sconn = st[0].accept();
            }
            sconn.is_some() && st[1].established(cconn)
        },
        VirtualDuration::from_millis(1),
        deadline,
    );
    (sconn.expect("server accepted the client's connection"), cconn)
}

/// Runs the paper's throughput benchmark: the *receiver* connects,
/// requests `bytes` with a small packet, and times until all data has
/// arrived (data discarded at application level, as in the paper).
///
/// `sender` must already be listening on port 2000 — this function sets
/// that up itself; pass freshly-built stations.
pub fn bulk_transfer(
    net: &SimNet,
    sender: &mut Box<dyn Station>,
    receiver: &mut Box<dyn Station>,
    bytes: usize,
    deadline: VirtualTime,
) -> BulkResult {
    let (sconn, rconn) = establish(net, sender, receiver, 2000, deadline, || {});

    // Receiver starts its timer and sends the request.
    let t0 = net.now();
    let request = (bytes as u64).to_be_bytes();
    assert_eq!(receiver.send(rconn, &request), 8, "request fits any window");

    // Sender: on request, pump `bytes` of data. We model the sender app
    // inline here (read request, then keep the send buffer full).
    let mut produced = 0usize;
    let mut request_seen = false;
    let mut received = 0usize;
    let payload_chunk: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();

    let end = drive(
        net,
        &mut [&mut *sender, &mut *receiver],
        |st| {
            // Sender application.
            if !request_seen && st[0].received_len(sconn) >= 8 {
                let req = st[0].recv(sconn);
                let want = u64::from_be_bytes(req[..8].try_into().expect("8-byte request")) as usize;
                debug_assert_eq!(want, bytes);
                request_seen = true;
            }
            if request_seen && produced < bytes {
                let left = bytes - produced;
                let chunk = payload_chunk.len().min(left);
                produced += st[0].send(sconn, &payload_chunk[..chunk]);
            }
            // Receiver application: discard on delivery.
            let fresh = st[1].recv(rconn).len();
            received += fresh;
            received >= bytes
        },
        VirtualDuration::from_millis(1),
        deadline,
    );

    let elapsed = end.saturating_since(t0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let sender_gc = sender.host().with(|h| h.gc_stats().cloned());

    BulkResult {
        bytes: received.min(bytes),
        elapsed,
        throughput_mbps: (bytes as f64 * 8.0) / secs / 1e6,
        sender: sender.stats(),
        receiver: receiver.stats(),
        sender_gc,
        net: net.stats(),
    }
}

/// What one flow of a [`many_flows`] run accomplished.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// Bulk download (`true`) or ping-pong (`false`).
    pub bulk: bool,
    /// Application payload bytes the client received.
    pub bytes: u64,
    /// Request sent → last byte received.
    pub elapsed: VirtualDuration,
}

impl FlowOutcome {
    /// Payload throughput of this flow in Mb/s.
    pub fn mbps(&self) -> f64 {
        (self.bytes as f64 * 8.0) / self.elapsed.as_secs_f64().max(1e-9) / 1e6
    }
}

/// Result of one [`many_flows`] run.
#[derive(Clone, Debug)]
pub struct ManyFlowsResult {
    /// Flows driven (= clients attached).
    pub flows: usize,
    /// Flows that delivered everything they asked for.
    pub completed: usize,
    /// Per-flow outcomes, in client order (even indexes bulk, odd ping).
    pub per_flow: Vec<FlowOutcome>,
    /// First request sent → last flow complete.
    pub elapsed: VirtualDuration,
    /// Application payload bytes moved, all flows.
    pub total_bytes: u64,
    /// Aggregate payload throughput in Mb/s.
    pub aggregate_mbps: f64,
    /// Simulated CPU time the server host spent (aggregate host cost).
    pub server_busy: VirtualDuration,
    /// Server TCP stats.
    pub server: StationStats,
    /// Server timer-wheel and demux operation counts.
    pub server_scale: ScaleCounters,
    /// Network statistics.
    pub net: NetStats,
}

/// The scale workload: `n` clients share one server station on one
/// segment. Even-indexed clients download `bulk_bytes`; odd-indexed
/// clients run `ping_rounds` round trips of a 64-byte message. Each
/// client opens one connection to server port 2000, sends a 9-byte
/// request header (mode byte + big-endian count), and runs its mode to
/// completion; the run ends when every flow is done (or at `deadline`).
///
/// All stations use the same `cost` model, so fox-vs-xk differences in
/// `server_busy` and [`ScaleCounters`] are implementation differences,
/// not machine differences.
#[allow(clippy::too_many_arguments, reason = "a workload is its parameter list")]
pub fn many_flows(
    net: &SimNet,
    kind: StackKind,
    n: usize,
    bulk_bytes: usize,
    ping_rounds: usize,
    cost: fn() -> CostModel,
    sink: &EventSink,
    deadline: VirtualTime,
) -> ManyFlowsResult {
    const PING_LEN: usize = 64;
    // A server expecting n simultaneous openers provisions its accept
    // queue for them; the SYN-flood path is exercised separately.
    let base = TcpConfig::default();
    let cfg = TcpConfig { backlog: base.backlog.max(n), ..base };

    // The one place with more than two hosts, so the one caller of the
    // station constructor besides `Cell::pair`: the server is id 1, the
    // clients ids 2.., attached in that order.
    let build = |id: u16, peer: u16| {
        kind.build_batched(net, id, peer, cost(), false, cfg.clone(), sink.clone(), BatchConfig::default())
    };
    let mut all: Vec<Box<dyn Station>> = Vec::with_capacity(n + 1);
    all.push(build(1, 2));
    for i in 0..n {
        all.push(build(u16::try_from(i + 2).expect("station id fits u16"), 1));
    }
    all[0].listen(2000);
    let handles: Vec<ConnHandle> = all[1..].iter_mut().map(|c| c.connect(2000)).collect();

    // Server-side per-connection application state.
    #[derive(Default)]
    struct Srv {
        got_header: bool,
        mode_bulk: bool,
        head: Vec<u8>,
        bulk_left: u64,
        echo_pending: usize,
    }
    let mut srv_conns: Vec<ConnHandle> = Vec::new();
    let mut srv_state: BTreeMap<ConnHandle, Srv> = BTreeMap::new();
    let chunk: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    let ping = [0x42u8; PING_LEN];

    // Client-side progress.
    let is_bulk = |i: usize| i.is_multiple_of(2);
    let want = |i: usize| -> u64 {
        if is_bulk(i) {
            bulk_bytes as u64
        } else {
            (ping_rounds * PING_LEN) as u64
        }
    };
    let mut t0: Vec<Option<VirtualTime>> = vec![None; n];
    let mut t1: Vec<Option<VirtualTime>> = vec![None; n];
    let mut got: Vec<u64> = vec![0; n];
    let mut rounds_sent: Vec<usize> = vec![0; n];

    let mut refs: Vec<&mut Box<dyn Station>> = all.iter_mut().collect();
    drive(
        net,
        &mut refs,
        |st| {
            // Server application: accept, parse requests, pump/echo.
            while let Some(c) = st[0].accept() {
                srv_conns.push(c);
                srv_state.insert(c, Srv::default());
            }
            for &c in &srv_conns {
                let fresh = st[0].recv(c);
                let s = srv_state.get_mut(&c).expect("accepted conn has state");
                if !s.got_header {
                    s.head.extend_from_slice(&fresh);
                    if s.head.len() >= 9 {
                        s.got_header = true;
                        s.mode_bulk = s.head[0] == 0;
                        let count = u64::from_be_bytes(s.head[1..9].try_into().expect("8-byte count"));
                        if s.mode_bulk {
                            s.bulk_left = count;
                        } else {
                            s.echo_pending = s.head.len() - 9;
                        }
                    }
                } else if !s.mode_bulk {
                    s.echo_pending += fresh.len();
                }
                if s.got_header {
                    if s.mode_bulk {
                        if s.bulk_left > 0 {
                            let len = chunk.len().min(s.bulk_left as usize);
                            s.bulk_left -= st[0].send(c, &chunk[..len]) as u64;
                        }
                    } else if s.echo_pending > 0 {
                        let len = s.echo_pending.min(chunk.len());
                        s.echo_pending -= st[0].send(c, &vec![0x42u8; len]);
                    }
                }
            }
            // Client applications.
            let mut all_done = true;
            for i in 0..n {
                let h = handles[i];
                let stn = &mut *st[1 + i];
                if t0[i].is_none() {
                    if stn.established(h) {
                        let mut req = [0u8; 9];
                        req[0] = u8::from(!is_bulk(i));
                        let count = if is_bulk(i) { bulk_bytes as u64 } else { ping_rounds as u64 };
                        req[1..].copy_from_slice(&count.to_be_bytes());
                        assert_eq!(stn.send(h, &req), 9, "request fits an empty window");
                        t0[i] = Some(net.now());
                        if !is_bulk(i) && ping_rounds > 0 {
                            assert_eq!(stn.send(h, &ping), PING_LEN);
                            rounds_sent[i] = 1;
                        }
                    }
                    all_done = false;
                    continue;
                }
                got[i] += stn.recv(h).len() as u64;
                if !is_bulk(i) {
                    // Next round once the previous echo fully returned.
                    while rounds_sent[i] < ping_rounds && got[i] >= (rounds_sent[i] * PING_LEN) as u64 {
                        assert_eq!(stn.send(h, &ping), PING_LEN, "one ping in flight fits");
                        rounds_sent[i] += 1;
                    }
                }
                if got[i] >= want(i) {
                    if t1[i].is_none() {
                        t1[i] = Some(net.now());
                    }
                } else {
                    all_done = false;
                }
            }
            all_done
        },
        VirtualDuration::from_millis(1),
        deadline,
    );

    let per_flow: Vec<FlowOutcome> = (0..n)
        .map(|i| FlowOutcome {
            bulk: is_bulk(i),
            bytes: got[i].min(want(i)),
            elapsed: match (t0[i], t1[i]) {
                (Some(a), Some(b)) => b.saturating_since(a),
                (Some(a), None) => net.now().saturating_since(a),
                _ => VirtualDuration::ZERO,
            },
        })
        .collect();
    let completed = (0..n).filter(|&i| got[i] >= want(i)).count();
    let start = t0.iter().flatten().min().copied().unwrap_or(net.now());
    let end =
        if completed == n { t1.iter().flatten().max().copied().unwrap_or(net.now()) } else { net.now() };
    let elapsed = end.saturating_since(start);
    let total_bytes: u64 = per_flow.iter().map(|f| f.bytes).sum();
    ManyFlowsResult {
        flows: n,
        completed,
        elapsed,
        total_bytes,
        aggregate_mbps: (total_bytes as f64 * 8.0) / elapsed.as_secs_f64().max(1e-9) / 1e6,
        server_busy: all[0].host().with(|h| h.total_busy()),
        server: all[0].stats(),
        server_scale: all[0].scale_counters(),
        net: net.stats(),
        per_flow,
    }
}

/// Result of a round-trip (ping-pong) run.
#[derive(Clone, Debug)]
pub struct PingResult {
    /// Round trips completed.
    pub rounds: usize,
    /// Mean round-trip time.
    pub mean_rtt: VirtualDuration,
    /// Smallest observed RTT.
    pub min_rtt: VirtualDuration,
    /// Largest observed RTT.
    pub max_rtt: VirtualDuration,
}

/// Measures application-level round-trip time over an established
/// connection: the client sends a small message, the server echoes it,
/// `rounds` times. This is the Table 1 "Round-Trip" number.
pub fn ping_pong(
    net: &SimNet,
    server: &mut Box<dyn Station>,
    client: &mut Box<dyn Station>,
    rounds: usize,
    msg_len: usize,
    deadline: VirtualTime,
) -> PingResult {
    let (sconn, cconn) = establish(net, server, client, 2001, deadline, || {});

    let msg = vec![0x42u8; msg_len.max(1)];
    let mut rtts = Vec::with_capacity(rounds);
    let mut echoed = 0usize; // bytes the server has echoed back so far
    for _ in 0..rounds {
        let t0 = net.now();
        assert_eq!(client.send(cconn, &msg), msg.len());
        let want = echoed + msg.len();
        let mut unanswered = 0usize;
        drive(
            net,
            &mut [&mut *server, &mut *client],
            |st| {
                // Server application: echo whatever arrives.
                let inbound = st[0].recv(sconn);
                if !inbound.is_empty() {
                    unanswered += inbound.len();
                }
                if unanswered > 0 {
                    let n = st[0].send(sconn, &vec![0x42u8; unanswered]);
                    unanswered -= n;
                }
                // Client application: count echo bytes.
                echoed += st[1].recv(cconn).len();
                echoed >= want
            },
            VirtualDuration::from_millis(1),
            deadline,
        );
        rtts.push(net.now().saturating_since(t0));
    }
    let sum: u64 = rtts.iter().map(|d| d.as_micros()).sum();
    PingResult {
        rounds,
        mean_rtt: VirtualDuration::from_micros(sum / rtts.len().max(1) as u64),
        min_rtt: rtts.iter().copied().min().unwrap_or(VirtualDuration::ZERO),
        max_rtt: rtts.iter().copied().max().unwrap_or(VirtualDuration::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::stack::StackKind;
    use foxtcp::TcpConfig;
    use simnet::{CostModel, SimNet};

    fn cell(kind: StackKind) -> Cell {
        let deadline = VirtualTime::from_millis(600_000);
        Cell { deadline, ..Cell::new(kind, CostModel::modern(), TcpConfig::default(), 77) }
    }

    #[test]
    fn bulk_transfer_fox_modern_cost() {
        let r = cell(StackKind::FoxStandard).bulk(200_000);
        assert_eq!(r.bytes, 200_000);
        // With zero CPU cost the 10 Mb/s wire is the only limit; with a
        // 4096-byte window and ~2.5 ms RTT-ish, expect a few Mb/s.
        assert!(r.throughput_mbps > 1.0, "got {} Mb/s", r.throughput_mbps);
        assert!(r.throughput_mbps < 10.0, "can't beat the wire: {}", r.throughput_mbps);
        assert_eq!(r.sender.retransmits, 0, "clean link");
    }

    #[test]
    fn bulk_transfer_xk_modern_cost() {
        let r = cell(StackKind::XKernel).bulk(100_000);
        assert_eq!(r.bytes, 100_000);
        assert!(r.throughput_mbps > 0.5, "got {} Mb/s", r.throughput_mbps);
    }

    #[test]
    fn bulk_transfer_special_stack() {
        let r = cell(StackKind::FoxSpecial).bulk(100_000);
        assert_eq!(r.bytes, 100_000);
        assert_eq!(r.sender.checksum_failures, 0);
    }

    #[test]
    fn many_flows_fox_full_delivery() {
        let net = SimNet::ethernet_10mbps(99);
        let r = many_flows(
            &net,
            StackKind::FoxStandard,
            8,
            16_384,
            8,
            CostModel::modern,
            &foxbasis::obs::EventSink::off(),
            VirtualTime::from_millis(600_000),
        );
        assert_eq!(r.completed, 8, "all flows finish: {:?}", r.per_flow);
        assert_eq!(r.total_bytes, 4 * 16_384 + 4 * 8 * 64);
        assert!(r.server_scale.demux_lookups > 0, "keyed demux was exercised");
        assert!(r.server_scale.timer_arms > 0, "wheel was exercised");
        // The keyed table examines ~1 candidate per lookup however many
        // connections are open.
        assert!(
            r.server_scale.demux_steps <= 2 * r.server_scale.demux_lookups,
            "steps {} for {} lookups",
            r.server_scale.demux_steps,
            r.server_scale.demux_lookups
        );
    }

    #[test]
    fn many_flows_xk_full_delivery() {
        let net = SimNet::ethernet_10mbps(99);
        let r = many_flows(
            &net,
            StackKind::XKernel,
            8,
            16_384,
            8,
            CostModel::modern,
            &foxbasis::obs::EventSink::off(),
            VirtualTime::from_millis(600_000),
        );
        assert_eq!(r.completed, 8, "all flows finish");
        assert!(r.server_scale.demux_lookups > 0);
        // The baseline's linear scan walks the socket table.
        assert!(r.server_scale.demux_steps > r.server_scale.demux_lookups);
    }

    #[test]
    fn ping_pong_reports_rtts() {
        let r = cell(StackKind::FoxStandard).ping(10, 1);
        assert_eq!(r.rounds, 10);
        assert!(r.mean_rtt > VirtualDuration::ZERO);
        assert!(r.min_rtt <= r.mean_rtt && r.mean_rtt <= r.max_rtt);
    }
}
