//! The host cost model: a virtual DECstation 5000/125.
//!
//! The paper's absolute numbers belong to a 1994 machine: a 25 MHz MIPS
//! DECstation running Mach 3.0, with SML/NJ-compiled protocol code.
//! [`CostModel`] captures those costs as constants, most of them straight
//! out of the paper's own text:
//!
//! * copy: 300 µs/KB (SML) vs 61 µs/KB (`bcopy`);
//! * checksum: 343 µs/KB (Fig. 10 algorithm) vs 375 µs/KB (x-kernel);
//! * thread fork+switch: 30 µs;
//! * profiling counter update: 15 µs;
//!
//! plus per-packet processing constants for the TCP, IP and
//! Ethernet/Mach-interface layers fitted so that the Table 1 and
//! Table 2 results emerge from the simulation (the fit is documented in
//! EXPERIMENTS.md).
//!
//! A [`Host`] owns one simulated CPU: protocol code runs inside a
//! *processing episode* (`begin` … `end`). Each layer describes what it
//! just did as one [`Work`] value; [`CostModel::price`] turns it into an
//! [`Account`] and a duration, and [`Host::charge`] books that. The
//! episode's total determines when the CPU is free again and when any
//! frames produced during the episode actually reach the wire.
//!
//! The host's per-account table is Table 2's ledger. The paper could not
//! use SML/NJ's sampling profiler under Mach 3.0, so it "installed
//! hardware devices containing free-running counters that can be mapped
//! into the address space of the SML task"; one start/stop pair cost
//! about 15 µs, and the "counters (est.)" row is that perturbation. A
//! host built `profiled` pays it on every booking, so the measurement
//! slows the simulated machine down as it did in 1994.

use crate::gcmodel::{GcConfig, GcStats, SmlRuntime};
use foxbasis::obs::{Event, EventSink, NO_CONN};
use foxbasis::time::{NanoDuration, VirtualDuration, VirtualTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The cost accounts of Table 2, plus `Scheduler` (which the paper left
/// unprofiled because the 15 µs update would swamp the 30 µs thread
/// switch — the account is kept but, like the paper, left out of the
/// printed table).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
#[allow(missing_docs, reason = "the account names are Table 2's row labels")]
pub enum Account {
    Tcp,
    Ip,
    EthMachInterface,
    Copy,
    Checksum,
    MachSend,
    PacketWait,
    Gc,
    Misc,
    Counters,
    Scheduler,
}

impl Account {
    /// Every account, in Table 2's row order (which is also the order of
    /// the host's ledger).
    pub const ALL: [Account; 11] = [
        Account::Tcp,
        Account::Ip,
        Account::EthMachInterface,
        Account::Copy,
        Account::Checksum,
        Account::MachSend,
        Account::PacketWait,
        Account::Gc,
        Account::Misc,
        Account::Counters,
        Account::Scheduler,
    ];

    /// The row label Table 2 uses.
    pub fn label(self) -> &'static str {
        match self {
            Account::Tcp => "TCP",
            Account::Ip => "IP",
            Account::EthMachInterface => "eth, Mach interf.",
            Account::Copy => "copy",
            Account::Checksum => "checksum",
            Account::MachSend => "Mach send",
            Account::PacketWait => "packet wait",
            Account::Gc => "g. c.",
            Account::Misc => "misc.",
            Account::Counters => "counters (est.)",
            Account::Scheduler => "scheduler",
        }
    }
}

/// The paper's measured cost of one start/stop counter pair.
pub const PAPER_COUNTER_UPDATE_COST: NanoDuration = NanoDuration::from_micros(15);

/// One unit of protocol work, as the layer that did it describes it.
/// [`CostModel::price`] says what it costs and which account pays.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Work {
    /// TCP processing of one segment sent or received; a zero `payload`
    /// is a pure ACK, which costs less.
    TcpSegment {
        /// Payload bytes the segment carries.
        payload: usize,
    },
    /// IP processing of one packet (or of each extra fragment).
    IpPacket,
    /// Ethernet encapsulation plus the Mach device interface, one frame.
    EthFrame,
    /// Mach IPC send of one frame.
    MachSend,
    /// One transmit doorbell for a group of frames (TSO amortization).
    TxDoorbell,
    /// Mach IPC receive ("packet wait") of one frame.
    PacketWait,
    /// One receive wakeup for a drained batch of frames (GRO
    /// amortization).
    RxBatch,
    /// Buffer management, reading the clock and other utilities, one
    /// packet.
    Misc,
    /// A data copy of this many bytes.
    Copy(usize),
    /// An Internet checksum over this many bytes.
    Checksum(usize),
    /// A coroutine fork/switch (timers, the `to_do` drain thread).
    ThreadOp,
}

/// Per-operation virtual CPU costs.
///
/// Costs are [`NanoDuration`]s: the 1994 presets are whole microseconds
/// (built with `NanoDuration::from_micros`, so every historical value is
/// exact), while the modern preset uses genuine nanosecond constants
/// that a µs grid cannot express.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// TCP protocol processing per data segment handled (send or
    /// receive).
    pub tcp_per_segment: NanoDuration,
    /// TCP protocol processing per header-only (pure ACK) segment —
    /// cheaper, as header prediction makes it in real stacks.
    pub tcp_per_ack: NanoDuration,
    /// IP processing per packet.
    pub ip_per_packet: NanoDuration,
    /// Ethernet encapsulation plus Mach device interface, per packet.
    pub eth_interface_per_packet: NanoDuration,
    /// Mach IPC send, per packet.
    pub mach_send_per_packet: NanoDuration,
    /// Driver doorbell / IPC overhead paid once per *batch* of frames
    /// handed to the device (TSO-style amortization). Zero in the 1994
    /// presets — batching is cost-invisible there, so batched and
    /// unbatched runs trace-diff to zero.
    pub mach_send_per_batch: NanoDuration,
    /// Mach IPC receive path ("packet wait"), per packet received.
    pub packet_wait_per_packet: NanoDuration,
    /// Receive wakeup / interrupt overhead paid once per *batch* of
    /// frames drained from the device (GRO-style amortization). Zero in
    /// the 1994 presets, like [`CostModel::mach_send_per_batch`].
    pub packet_wait_per_batch: NanoDuration,
    /// Buffer management, reading the clock, and other utilities, per
    /// packet.
    pub misc_per_packet: NanoDuration,
    /// Data copy cost per kilobyte.
    pub copy_per_kb: NanoDuration,
    /// Fixed per-packet buffer-management share of the copy path.
    pub copy_per_packet: NanoDuration,
    /// Checksum cost per kilobyte.
    pub checksum_per_kb: NanoDuration,
    /// Fixed per-packet setup share of the checksum path.
    pub checksum_per_packet: NanoDuration,
    /// Coroutine fork + switch (the paper: ~30 µs).
    pub thread_op: NanoDuration,
    /// Computed (per-KB) charges are rounded *down* to a multiple of
    /// this quantum. The 1994 presets use 1 µs, reproducing the original
    /// microsecond integer arithmetic bit-for-bit; the modern preset
    /// uses 1 ns (no rounding).
    pub charge_quantum: NanoDuration,
    /// Heap bytes allocated per segment beyond its payload (closures,
    /// actions, headers). Zero disables allocation modeling.
    pub alloc_overhead_per_segment: usize,
    /// How many hardware-counter updates one accounted operation stands
    /// for (the paper instrumented far more sites than our coarse
    /// accounts; each update costs 15 µs).
    pub counter_updates_per_charge: u64,
    /// The modeled garbage collector, if any.
    pub gc: Option<GcConfig>,
}

impl CostModel {
    /// The Fox Net on the paper's DECstation: SML/NJ costs.
    pub fn decstation_sml() -> CostModel {
        CostModel {
            tcp_per_segment: NanoDuration::from_micros(4000),
            tcp_per_ack: NanoDuration::from_micros(1500),
            ip_per_packet: NanoDuration::from_micros(750),
            eth_interface_per_packet: NanoDuration::from_micros(1050),
            mach_send_per_packet: NanoDuration::from_micros(1390),
            mach_send_per_batch: NanoDuration::ZERO,
            packet_wait_per_packet: NanoDuration::from_micros(2000),
            packet_wait_per_batch: NanoDuration::ZERO,
            misc_per_packet: NanoDuration::from_micros(450),
            copy_per_kb: NanoDuration::from_micros(300),
            copy_per_packet: NanoDuration::from_micros(1400),
            checksum_per_kb: NanoDuration::from_micros(343),
            checksum_per_packet: NanoDuration::from_micros(420),
            thread_op: NanoDuration::from_micros(30),
            charge_quantum: NanoDuration::from_micros(1),
            alloc_overhead_per_segment: 2048,
            counter_updates_per_charge: 4,
            gc: Some(GcConfig::smlnj_1994()),
        }
    }

    /// The Fox Net machine with the paper's §7 future-work collector:
    /// "we will implement and use an incremental garbage collector with
    /// bounded pauses." Identical to [`CostModel::decstation_sml`] but
    /// with collection work bounded to 5 ms per pause.
    pub fn decstation_sml_incremental() -> CostModel {
        CostModel {
            gc: Some(GcConfig::incremental_1995(VirtualDuration::from_millis(5))),
            ..CostModel::decstation_sml()
        }
    }

    /// The x-kernel on the same DECstation: Berkeley-derived C code.
    pub fn decstation_c() -> CostModel {
        CostModel {
            tcp_per_segment: NanoDuration::from_micros(450),
            tcp_per_ack: NanoDuration::from_micros(180),
            ip_per_packet: NanoDuration::from_micros(150),
            eth_interface_per_packet: NanoDuration::from_micros(280),
            mach_send_per_packet: NanoDuration::from_micros(300),
            mach_send_per_batch: NanoDuration::ZERO,
            packet_wait_per_packet: NanoDuration::from_micros(350),
            packet_wait_per_batch: NanoDuration::ZERO,
            misc_per_packet: NanoDuration::from_micros(80),
            copy_per_kb: NanoDuration::from_micros(61),
            copy_per_packet: NanoDuration::ZERO,
            checksum_per_kb: NanoDuration::from_micros(375),
            checksum_per_packet: NanoDuration::ZERO,
            thread_op: NanoDuration::from_micros(10),
            charge_quantum: NanoDuration::from_micros(1),
            alloc_overhead_per_segment: 0,
            counter_updates_per_charge: 1,
            gc: None,
        }
    }

    /// No modeled costs at all: the protocol code runs "for free", so
    /// simulated results reflect only the network. Use this preset when
    /// measuring the real Rust implementation with Criterion.
    pub fn modern() -> CostModel {
        CostModel {
            tcp_per_segment: NanoDuration::ZERO,
            tcp_per_ack: NanoDuration::ZERO,
            ip_per_packet: NanoDuration::ZERO,
            eth_interface_per_packet: NanoDuration::ZERO,
            mach_send_per_packet: NanoDuration::ZERO,
            mach_send_per_batch: NanoDuration::ZERO,
            packet_wait_per_packet: NanoDuration::ZERO,
            packet_wait_per_batch: NanoDuration::ZERO,
            misc_per_packet: NanoDuration::ZERO,
            copy_per_kb: NanoDuration::ZERO,
            copy_per_packet: NanoDuration::ZERO,
            checksum_per_kb: NanoDuration::ZERO,
            checksum_per_packet: NanoDuration::ZERO,
            thread_op: NanoDuration::ZERO,
            charge_quantum: NanoDuration::from_nanos(1),
            alloc_overhead_per_segment: 0,
            counter_updates_per_charge: 1,
            gc: None,
        }
    }

    /// A plausibly modern machine on a Gb/s link: ~ns per-packet
    /// constants for a few-GHz CPU with SIMD checksums and ~64 GB/s
    /// memory copy bandwidth, plus non-zero per-*batch* costs so GRO/TSO
    /// batching actually amortizes something. The values are documented
    /// and justified in DESIGN.md §5.10; nothing in the paper's tables
    /// depends on them.
    pub fn modern_gbps() -> CostModel {
        CostModel {
            tcp_per_segment: NanoDuration::from_nanos(450),
            tcp_per_ack: NanoDuration::from_nanos(150),
            ip_per_packet: NanoDuration::from_nanos(120),
            eth_interface_per_packet: NanoDuration::from_nanos(180),
            mach_send_per_packet: NanoDuration::from_nanos(60),
            mach_send_per_batch: NanoDuration::from_nanos(600),
            packet_wait_per_packet: NanoDuration::from_nanos(50),
            packet_wait_per_batch: NanoDuration::from_nanos(400),
            misc_per_packet: NanoDuration::from_nanos(40),
            copy_per_kb: NanoDuration::from_nanos(16),
            copy_per_packet: NanoDuration::from_nanos(30),
            checksum_per_kb: NanoDuration::from_nanos(25),
            checksum_per_packet: NanoDuration::from_nanos(15),
            thread_op: NanoDuration::from_nanos(200),
            charge_quantum: NanoDuration::from_nanos(1),
            alloc_overhead_per_segment: 0,
            counter_updates_per_charge: 1,
            gc: None,
        }
    }

    /// What `work` costs and which account pays for it. `None` means the
    /// work is free and not booked at all: a zero per-batch cost (every
    /// 1994 preset), so device batching cannot perturb a paper-era run.
    /// Every other price is booked, even a zero one.
    pub fn price(&self, work: Work) -> Option<(Account, NanoDuration)> {
        // Per-KB motion, rounded down to the quantum, plus the fixed
        // buffer or setup share, which header-sized packets skip.
        let sized = |per_kb: NanoDuration, per_packet: NanoDuration, bytes: usize| {
            let motion = (NanoDuration::from_nanos(per_kb.as_nanos() * bytes as u64) / 1024)
                .quantize_down(self.charge_quantum);
            motion + if bytes > 256 { per_packet } else { NanoDuration::ZERO }
        };
        let per_batch = |cost: NanoDuration| (!cost.is_zero()).then_some(cost);
        Some(match work {
            Work::TcpSegment { payload: 0 } => (Account::Tcp, self.tcp_per_ack),
            Work::TcpSegment { .. } => (Account::Tcp, self.tcp_per_segment),
            Work::IpPacket => (Account::Ip, self.ip_per_packet),
            Work::EthFrame => (Account::EthMachInterface, self.eth_interface_per_packet),
            Work::MachSend => (Account::MachSend, self.mach_send_per_packet),
            Work::TxDoorbell => (Account::MachSend, per_batch(self.mach_send_per_batch)?),
            Work::PacketWait => (Account::PacketWait, self.packet_wait_per_packet),
            Work::RxBatch => (Account::PacketWait, per_batch(self.packet_wait_per_batch)?),
            Work::Misc => (Account::Misc, self.misc_per_packet),
            Work::Copy(bytes) => (Account::Copy, sized(self.copy_per_kb, self.copy_per_packet, bytes)),
            Work::Checksum(bytes) => {
                (Account::Checksum, sized(self.checksum_per_kb, self.checksum_per_packet, bytes))
            }
            Work::ThreadOp => (Account::Scheduler, self.thread_op),
        })
    }
}

/// One simulated machine.
///
/// CPU position and busy time are tracked internally in nanoseconds so
/// modern-profile charges (hundreds of ns) accumulate without loss; the
/// public API exposes the microsecond simulation clock, truncating.
/// Every 1994-profile charge is a whole number of microseconds, so the
/// truncation is exact there and the paper's tables are unaffected.
pub struct Host {
    name: &'static str,
    cost: CostModel,
    /// Whether every booking also pays the paper's counter updates.
    profiled: bool,
    /// Time booked per account, indexed in [`Account::ALL`] order.
    booked: [NanoDuration; Account::ALL.len()],
    gc: Option<SmlRuntime>,
    /// Nanoseconds since the epoch at which the CPU becomes free.
    cpu_free_ns: u64,
    /// Episode start, in nanoseconds since the epoch.
    episode_start_ns: Option<u64>,
    episode_accum: NanoDuration,
    total_busy: NanoDuration,
    obs: EventSink,
}

impl Host {
    /// A host with the given cost model. `profiled` turns the Table 2
    /// counters on, *including their 15 µs perturbation*.
    pub fn new(name: &'static str, cost: CostModel, profiled: bool) -> Host {
        let gc = cost.gc.clone().map(SmlRuntime::new);
        Host {
            name,
            cost,
            profiled,
            booked: [NanoDuration::ZERO; Account::ALL.len()],
            gc,
            cpu_free_ns: 0,
            episode_start_ns: None,
            episode_accum: NanoDuration::ZERO,
            total_busy: NanoDuration::ZERO,
            obs: EventSink::off(),
        }
    }

    /// Installs an event sink; GC pauses are recorded through it. The
    /// default sink is off and records nothing.
    pub fn set_obs(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// The host's name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// When the CPU becomes free (truncated to the µs simulation clock).
    pub fn cpu_free_at(&self) -> VirtualTime {
        VirtualTime::from_micros(self.cpu_free_ns / 1_000)
    }

    /// The CPU's current position: inside an episode, the episode start
    /// plus everything charged so far; otherwise the free instant. This
    /// is "now" as the simulated machine experiences it — the moment a
    /// frame built during an episode actually reaches the device.
    pub fn now_busy(&self) -> VirtualTime {
        let ns = match self.episode_start_ns {
            Some(s) => s + self.episode_accum.as_nanos(),
            None => self.cpu_free_ns,
        };
        VirtualTime::from_micros(ns / 1_000)
    }

    /// Starts a processing episode for an event arriving at `arrival`;
    /// returns the episode's start time (the CPU may still be busy with
    /// earlier work).
    pub fn begin(&mut self, arrival: VirtualTime) -> VirtualTime {
        assert!(self.episode_start_ns.is_none(), "nested host episode");
        let start_ns = (arrival.as_micros() * 1_000).max(self.cpu_free_ns);
        self.episode_start_ns = Some(start_ns);
        self.episode_accum = NanoDuration::ZERO;
        VirtualTime::from_micros(start_ns / 1_000)
    }

    /// Ends the episode; the CPU is busy until the returned instant.
    pub fn end(&mut self) -> VirtualTime {
        let start_ns = self.episode_start_ns.take().expect("end without begin");
        self.cpu_free_ns = start_ns + self.episode_accum.as_nanos();
        self.cpu_free_at()
    }

    /// Prices `work` under the host's cost model and books it; work the
    /// model prices at `None` is skipped entirely.
    pub fn charge(&mut self, work: Work) {
        if let Some((account, dur)) = self.cost.price(work) {
            self.book(account, dur);
        }
    }

    /// Books `dur` to `account` within the current episode (or, if no
    /// episode is open, extends the CPU busy time directly). A profiled
    /// host also pays for the paper's instrumentation, which updated
    /// several counters per protocol operation: the perturbation is
    /// booked to [`Account::Counters`] and slows the machine down.
    fn book(&mut self, account: Account, dur: NanoDuration) {
        let overhead = if self.profiled {
            PAPER_COUNTER_UPDATE_COST * self.cost.counter_updates_per_charge.max(1)
        } else {
            NanoDuration::ZERO
        };
        self.booked[account as usize] += dur;
        self.booked[Account::Counters as usize] += overhead;
        let total = dur + overhead;
        self.total_busy += total;
        if self.episode_start_ns.is_some() {
            self.episode_accum += total;
        } else {
            self.cpu_free_ns += total.as_nanos();
        }
    }

    /// Time booked to `account` so far: one row of Table 2's ledger.
    pub fn booked(&self, account: Account) -> NanoDuration {
        self.booked[account as usize]
    }

    /// Total CPU time consumed so far (all charges plus measurement
    /// overhead), truncated to whole microseconds. `elapsed -
    /// total_busy` is the machine's idle time, which the paper's profile
    /// books as "packet wait".
    pub fn total_busy(&self) -> VirtualDuration {
        self.total_busy.to_virtual_floor()
    }

    /// Total CPU time consumed so far, at full nanosecond resolution
    /// (for modern-profile reporting).
    pub fn total_busy_nanos(&self) -> NanoDuration {
        self.total_busy
    }

    /// Models a heap allocation of `bytes`; any GC pause is booked to
    /// the `g. c.` account.
    pub fn alloc(&mut self, bytes: usize) {
        if let Some(gc) = &mut self.gc {
            let pause = gc.alloc(bytes);
            if !pause.is_zero() {
                self.obs.emit(self.now_busy(), NO_CONN, || Event::GcPause { micros: pause.as_micros() });
                self.book(Account::Gc, pause.into());
            }
        }
    }

    /// GC statistics, if a collector is modeled.
    pub fn gc_stats(&self) -> Option<&GcStats> {
        self.gc.as_ref().map(|g| g.stats())
    }

    /// Allocation for one segment of `payload` bytes (buffer + fixed
    /// overhead).
    pub fn alloc_segment(&mut self, payload: usize) {
        let bytes = payload + self.cost.alloc_overhead_per_segment;
        if self.gc.is_some() {
            self.alloc(bytes);
        }
    }
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Host({}, cpu_free_at={:?})", self.name, self.cpu_free_at())
    }
}

/// Cloneable shared handle to a host, in the role of the paper's
/// `FOX_BASIS` functor parameter: the utilities (timing, profiling,
/// allocation accounting) every protocol layer receives.
#[derive(Clone)]
pub struct HostHandle {
    inner: Rc<RefCell<Host>>,
}

impl HostHandle {
    /// Wraps a host.
    pub fn new(host: Host) -> HostHandle {
        HostHandle { inner: Rc::new(RefCell::new(host)) }
    }

    /// A zero-cost host (for unit tests and modern measurements).
    pub fn free() -> HostHandle {
        HostHandle::new(Host::new("free", CostModel::modern(), false))
    }

    /// Runs `f` with the host borrowed mutably.
    pub fn with<R>(&self, f: impl FnOnce(&mut Host) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// See [`Host::begin`].
    pub fn begin(&self, arrival: VirtualTime) -> VirtualTime {
        self.inner.borrow_mut().begin(arrival)
    }

    /// See [`Host::end`].
    pub fn end(&self) -> VirtualTime {
        self.inner.borrow_mut().end()
    }

    /// See [`Host::charge`].
    pub fn charge(&self, work: Work) {
        self.inner.borrow_mut().charge(work);
    }
}

impl fmt::Debug for HostHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.inner.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1994 presets ARE the paper: every constant pinned to its
    /// published microsecond value, charges quantized to the original
    /// 1 µs integer grid, and zero per-batch costs so the PR-7 device
    /// batching cannot perturb a Table 1/2 run by even a nanosecond.
    #[test]
    fn paper_cost_constants_are_pinned() {
        let us = |d: NanoDuration| {
            assert_eq!(d.as_nanos() % 1000, 0, "1994 constants live on the µs grid");
            d.as_micros()
        };
        let sml = CostModel::decstation_sml();
        assert_eq!(
            [
                us(sml.tcp_per_segment),
                us(sml.tcp_per_ack),
                us(sml.ip_per_packet),
                us(sml.eth_interface_per_packet),
                us(sml.mach_send_per_packet),
                us(sml.packet_wait_per_packet),
                us(sml.misc_per_packet),
                us(sml.copy_per_kb),
                us(sml.copy_per_packet),
                us(sml.checksum_per_kb),
                us(sml.checksum_per_packet),
                us(sml.thread_op),
            ],
            [4000, 1500, 750, 1050, 1390, 2000, 450, 300, 1400, 343, 420, 30]
        );
        let c = CostModel::decstation_c();
        assert_eq!(
            [
                us(c.tcp_per_segment),
                us(c.tcp_per_ack),
                us(c.ip_per_packet),
                us(c.eth_interface_per_packet),
                us(c.mach_send_per_packet),
                us(c.packet_wait_per_packet),
                us(c.misc_per_packet),
                us(c.copy_per_kb),
                us(c.copy_per_packet),
                us(c.checksum_per_kb),
                us(c.checksum_per_packet),
                us(c.thread_op),
            ],
            [450, 180, 150, 280, 300, 350, 80, 61, 0, 375, 0, 10]
        );
        for m in [&sml, &c] {
            assert_eq!(m.charge_quantum, NanoDuration::from_micros(1));
            assert_eq!(m.mach_send_per_batch, NanoDuration::ZERO);
            assert_eq!(m.packet_wait_per_batch, NanoDuration::ZERO);
        }
        assert_eq!(sml.counter_updates_per_charge, 4);
        assert_eq!(PAPER_COUNTER_UPDATE_COST, NanoDuration::from_micros(15));
        assert!(sml.gc.is_some() && c.gc.is_none());
        // The modern preset is the opposite bargain: a 1 ns quantum
        // (no rounding) and nonzero per-batch costs for GRO/TSO to
        // amortize.
        let g = CostModel::modern_gbps();
        assert_eq!(g.charge_quantum, NanoDuration::from_nanos(1));
        assert!(g.mach_send_per_batch > NanoDuration::ZERO);
        assert!(g.packet_wait_per_batch > NanoDuration::ZERO);
        assert!(g.tcp_per_segment < sml.tcp_per_segment / 1000, "GHz-class constants");
    }

    /// Every pricing rule, one `Work` at a time, on the SML machine.
    #[test]
    fn price_maps_work_to_its_account() {
        let sml = CostModel::decstation_sml();
        let us = |account, micros| Some((account, NanoDuration::from_micros(micros)));
        // Data segments and pure ACKs are priced apart.
        assert_eq!(sml.price(Work::TcpSegment { payload: 1 }), us(Account::Tcp, 4000));
        assert_eq!(sml.price(Work::TcpSegment { payload: 0 }), us(Account::Tcp, 1500));
        assert_eq!(sml.price(Work::IpPacket), us(Account::Ip, 750));
        assert_eq!(sml.price(Work::EthFrame), us(Account::EthMachInterface, 1050));
        assert_eq!(sml.price(Work::MachSend), us(Account::MachSend, 1390));
        assert_eq!(sml.price(Work::PacketWait), us(Account::PacketWait, 2000));
        assert_eq!(sml.price(Work::Misc), us(Account::Misc, 450));
        assert_eq!(sml.price(Work::ThreadOp), us(Account::Scheduler, 30));
        // A zero per-batch cost is no booking at all; a nonzero one is
        // booked beside the per-packet cost of the same account.
        assert_eq!(sml.price(Work::TxDoorbell), None);
        assert_eq!(sml.price(Work::RxBatch), None);
        let g = CostModel::modern_gbps();
        assert_eq!(g.price(Work::TxDoorbell), Some((Account::MachSend, NanoDuration::from_nanos(600))));
        assert_eq!(g.price(Work::RxBatch), Some((Account::PacketWait, NanoDuration::from_nanos(400))));
        // Any other zero price is still booked (a profiled host pays its
        // counters for it).
        assert_eq!(CostModel::modern().price(Work::Misc), Some((Account::Misc, NanoDuration::ZERO)));
    }

    #[test]
    fn per_kb_prices_scale_and_quantize_down() {
        let sml = CostModel::decstation_sml();
        // 300/KB + 1400 buffer surcharge; 2×343 + 420 setup surcharge.
        assert_eq!(sml.price(Work::Copy(1024)), Some((Account::Copy, NanoDuration::from_micros(1700))));
        assert_eq!(
            sml.price(Work::Checksum(2048)),
            Some((Account::Checksum, NanoDuration::from_micros(1106)))
        );
        // Header-sized packets skip the surcharges, and the per-KB part
        // rounds down to the 1 µs grid: 300·64/1024 = 18.75 → 18.
        assert_eq!(sml.price(Work::Copy(64)), Some((Account::Copy, NanoDuration::from_micros(18))));
        assert_eq!(sml.price(Work::Checksum(64)), Some((Account::Checksum, NanoDuration::from_micros(21))));
        // The modern machine's 1 ns quantum keeps what a µs grid drops:
        // 16·1000/1024 = 15.6 → 15 ns, plus the 30 ns surcharge.
        let g = CostModel::modern_gbps();
        assert_eq!(g.price(Work::Copy(1000)), Some((Account::Copy, NanoDuration::from_nanos(45))));
    }

    #[test]
    fn episode_accumulates_and_serializes() {
        let mut h = Host::new("t", CostModel::decstation_sml(), false);
        let start = h.begin(VirtualTime::from_millis(10));
        assert_eq!(start, VirtualTime::from_millis(10));
        h.charge(Work::TcpSegment { payload: 1 }); // 4 ms
        h.charge(Work::IpPacket); // 0.75 ms
        let done = h.end();
        assert_eq!(done, VirtualTime::from_micros(14_750));
        // A second event arriving during the busy period starts late.
        let start2 = h.begin(VirtualTime::from_millis(11));
        assert_eq!(start2, VirtualTime::from_micros(14_750));
        let done2 = h.end();
        assert_eq!(done2, VirtualTime::from_micros(14_750));
        assert_eq!(h.booked(Account::Tcp), NanoDuration::from_micros(4000));
        assert_eq!(h.booked(Account::Ip), NanoDuration::from_micros(750));
    }

    #[test]
    fn profiled_host_pays_counter_overhead() {
        // The 1994 preset models 4 counter updates per accounted
        // operation, 15 µs each.
        let mut h = Host::new("t", CostModel::decstation_sml(), true);
        h.begin(VirtualTime::ZERO);
        h.charge(Work::TcpSegment { payload: 0 });
        let done = h.end();
        assert_eq!(done, VirtualTime::from_micros(1500 + 4 * 15));
        assert_eq!(h.booked(Account::Tcp).as_micros(), 1500);
        assert_eq!(h.booked(Account::Counters).as_micros(), 4 * 15);
        assert_eq!(h.total_busy().as_micros(), 1560);
    }

    #[test]
    fn unprofiled_host_pays_none() {
        let mut h = Host::new("t", CostModel::decstation_sml(), false);
        h.begin(VirtualTime::ZERO);
        h.charge(Work::TcpSegment { payload: 0 });
        assert_eq!(h.end(), VirtualTime::from_micros(1500));
        assert_eq!(h.booked(Account::Counters), NanoDuration::ZERO);
    }

    #[test]
    fn unpriced_work_costs_nothing_even_profiled() {
        let mut h = Host::new("t", CostModel::decstation_sml(), true);
        h.begin(VirtualTime::ZERO);
        h.charge(Work::TxDoorbell);
        h.charge(Work::RxBatch);
        assert_eq!(h.end(), VirtualTime::ZERO);
        assert!(Account::ALL.iter().all(|&a| h.booked(a).is_zero()));
    }

    #[test]
    fn allocation_drives_gc_charges() {
        let mut h = Host::new("t", CostModel::decstation_sml(), false);
        h.begin(VirtualTime::ZERO);
        // Allocate several nurseries' worth.
        for _ in 0..1200 {
            h.alloc_segment(1460);
        }
        let done = h.end();
        let gc = h.gc_stats().unwrap();
        assert!(gc.minors > 0);
        assert_eq!(h.booked(Account::Gc), NanoDuration::from(gc.total_pause));
        assert!(done.as_micros() > 0);
    }

    #[test]
    fn charges_outside_episode_extend_cpu_directly() {
        let mut h = Host::new("t", CostModel::decstation_c(), false);
        h.charge(Work::Misc);
        assert_eq!(h.cpu_free_at(), VirtualTime::from_micros(80));
    }

    #[test]
    #[should_panic(expected = "nested host episode")]
    fn nested_episodes_panic() {
        let mut h = Host::new("t", CostModel::modern(), false);
        h.begin(VirtualTime::ZERO);
        h.begin(VirtualTime::ZERO);
    }

    #[test]
    fn modern_preset_is_free() {
        let mut h = Host::new("t", CostModel::modern(), false);
        h.begin(VirtualTime::ZERO);
        h.charge(Work::TcpSegment { payload: 1 });
        h.charge(Work::IpPacket);
        h.charge(Work::Copy(100_000));
        h.alloc_segment(100_000);
        assert_eq!(h.end(), VirtualTime::ZERO);
    }

    #[test]
    fn handle_shares_host() {
        let h = HostHandle::new(Host::new("t", CostModel::decstation_c(), false));
        let h2 = h.clone();
        h.begin(VirtualTime::ZERO);
        h2.charge(Work::TcpSegment { payload: 1 });
        assert_eq!(h.end().as_micros(), 450);
    }

    #[test]
    fn labels_match_table2() {
        assert_eq!(Account::EthMachInterface.label(), "eth, Mach interf.");
        assert_eq!(Account::Gc.label(), "g. c.");
        assert_eq!(Account::Counters.label(), "counters (est.)");
        // The ledger is indexed by declaration order, which is Table 2's.
        assert!(Account::ALL.iter().enumerate().all(|(i, &a)| a as usize == i));
    }
}
