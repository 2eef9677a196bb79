//! One declared run. The paper's Fig. 3 writes a stack down once, as a
//! value; a [`Cell`] writes a whole two-host experiment down once — both
//! compositions, the machine, the TCP parameters, the link, the seed —
//! and its methods are the only way the harness turns such a description
//! into stations. Every field is plain data: a cell prints (`{:?}` names
//! everything needed to re-run it), clones, varies by struct update, and
//! runs traced through the same code that runs it untraced.

use crate::stack::StackKind;
use crate::station::Station;
use crate::workload::{bulk_transfer, ping_pong, BulkResult, PingResult};
use foxbasis::obs::{EventSink, Stamped, DEFAULT_RING_CAPACITY};
use foxbasis::time::VirtualTime;
use foxproto::dev::BatchConfig;
use foxtcp::TcpConfig;
use simnet::{CostModel, NetConfig, PcapSink, SimNet};

/// A two-host experiment, declared.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Station 1, attached first: the bulk sender, the ping server.
    pub sender: StackKind,
    /// Station 2: the bulk receiver, the ping client.
    pub receiver: StackKind,
    /// The machine model of both hosts.
    pub cost: CostModel,
    /// The TCP functor's value parameters on both hosts.
    pub tcp: TcpConfig,
    /// The link and its fault schedule.
    pub net: NetConfig,
    /// GRO/TSO device batching on both hosts.
    pub batch: BatchConfig,
    /// Whether the Table 2 profiling counters run (and perturb the run).
    pub profiled: bool,
    /// Seeds the link's fault dice.
    pub seed: u64,
    /// The virtual time at which a run gives up.
    pub deadline: VirtualTime,
}

/// A [`Cell::traced_bulk`] run: the typed event stream, its drop
/// counter, the wire capture of the same run, and the workload result.
pub struct TracedBulk {
    /// The recorded events, in emission order.
    pub events: Vec<Stamped>,
    /// Events the bounded ring overwrote (0 in a healthy run).
    pub dropped: u64,
    /// Every frame that crossed the medium, libpcap-framed.
    pub pcap: PcapSink,
    /// The workload result.
    pub bulk: BulkResult,
}

impl Cell {
    /// The deadline of a run that is expected to finish: later than any
    /// experiment reaches, early enough that clock arithmetic past it
    /// cannot overflow.
    pub const NEVER: VirtualTime = VirtualTime::from_micros(u64::MAX / 2);

    /// `kind` at both ends on the paper's fault-free 10 Mb/s segment:
    /// unbatched, unprofiled, no deadline. Everything else is a struct
    /// update away: `Cell { receiver: StackKind::XKernel, ..cell }`.
    pub fn new(kind: StackKind, cost: CostModel, tcp: TcpConfig, seed: u64) -> Cell {
        Cell {
            sender: kind,
            receiver: kind,
            cost,
            tcp,
            net: NetConfig::default(),
            batch: BatchConfig::default(),
            profiled: false,
            seed,
            deadline: Cell::NEVER,
        }
    }

    /// Builds the segment and both stations, `sink` installed on the
    /// wire and in every layer of both hosts. The sender is id 1 and
    /// attaches first, the receiver is id 2: wire ports, ARP order and
    /// RNG draws — and so every trace and pcap — depend on that order.
    pub fn pair(&self, sink: EventSink) -> (SimNet, Box<dyn Station>, Box<dyn Station>) {
        let net = SimNet::new(self.net.clone(), self.seed);
        net.set_obs(sink.clone());
        let build = |kind: StackKind, id, peer| {
            let (cost, tcp) = (self.cost.clone(), self.tcp.clone());
            kind.build_batched(&net, id, peer, cost, self.profiled, tcp, sink.clone(), self.batch)
        };
        let (sender, receiver) = (build(self.sender, 1, 2), build(self.receiver, 2, 1));
        (net, sender, receiver)
    }

    /// The paper's throughput workload ([`bulk_transfer`]) over this cell.
    pub fn bulk(&self, bytes: usize) -> BulkResult {
        let (net, mut sender, mut receiver) = self.pair(EventSink::off());
        bulk_transfer(&net, &mut sender, &mut receiver, bytes, self.deadline)
    }

    /// The paper's round-trip workload ([`ping_pong`]) over this cell.
    pub fn ping(&self, rounds: usize, msg_len: usize) -> PingResult {
        let (net, mut server, mut client) = self.pair(EventSink::off());
        ping_pong(&net, &mut server, &mut client, rounds, msg_len, self.deadline)
    }

    /// [`Cell::bulk`] with the event layer recording and the pcap tap
    /// on: the same pair, the same workload, the same virtual outcome.
    /// Two calls on one cell must produce byte-identical streams —
    /// `foxbasis::obs::first_divergence` of the pair is `None`.
    pub fn traced_bulk(&self, bytes: usize) -> TracedBulk {
        let sink = EventSink::recording(DEFAULT_RING_CAPACITY);
        let (net, mut sender, mut receiver) = self.pair(sink.clone());
        let pcap = net.capture();
        let bulk = bulk_transfer(&net, &mut sender, &mut receiver, bytes, self.deadline);
        TracedBulk { events: sink.events(), dropped: sink.dropped(), pcap, bulk }
    }
}
