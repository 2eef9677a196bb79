//! The one driver interface over the two TCP implementations: every
//! workload, the Table 1 comparison and the RFC 793 conformance suite
//! drive both stacks through [`Station`]. `crate::stack::fox_station`
//! and `crate::stack::xk_station` box an already-built TCP over any
//! lower layer as one.

use foxbasis::time::VirtualTime;
use simnet::HostHandle;

/// An opaque per-station connection handle.
pub type ConnHandle = u32;

/// Stats every station can report (the union the tables need).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StationStats {
    /// Segments sent (with retransmissions).
    pub segments_sent: u64,
    /// Segments received.
    pub segments_received: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Fast-path hits (zero for the baseline, which has no fast path).
    pub fastpath_hits: u64,
    /// Checksum failures.
    pub checksum_failures: u64,
    /// Fast retransmissions (zero for the baseline, which has no fast
    /// retransmit).
    pub fast_retransmits: u64,
    /// Fast-recovery episodes entered (zero for the baseline).
    pub recoveries: u64,
    /// Retransmission-timer fires that retransmitted (zero for the
    /// baseline, which does not separate them from `retransmits`).
    pub rto_fires: u64,
    /// Zero-window probes sent (zero for the baseline).
    pub probe_fires: u64,
    /// In-window RSTs rejected for not landing exactly on RCV.NXT
    /// (blind-reset attempts answered with a challenge ACK).
    pub rst_rejected_seq: u64,
    /// ACKs for data never sent, dropped (optimistic-ACK attempts).
    pub acks_ignored_unsent_data: u64,
    /// SYNs refused because the accept backlog was full (zero for the
    /// baseline, which keeps no such counter).
    pub syns_dropped: u64,
}

/// Timer and demultiplexer operation counts, for the scale experiment.
/// Both stacks arm timers on the shared hierarchical wheel, so the
/// timer columns are directly comparable; the demux columns price
/// foxtcp's keyed table against the baseline's linear session scan
/// (`steps` = candidates examined across all `lookups`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScaleCounters {
    /// Timers armed on the wheel.
    pub timer_arms: u64,
    /// Timers cancelled before firing.
    pub timer_cancels: u64,
    /// Timers that fired.
    pub timer_fires: u64,
    /// Entries cascaded between wheel levels.
    pub timer_cascades: u64,
    /// Segment-demux lookups performed.
    pub demux_lookups: u64,
    /// Connections examined across those lookups.
    pub demux_steps: u64,
}

/// One host's TCP endpoint, as the workloads see it.
pub trait Station {
    /// Begins an active open; the handle becomes established later.
    fn connect(&mut self, remote_port: u16) -> ConnHandle;

    /// Listens on a port.
    fn listen(&mut self, local_port: u16);

    /// A newly accepted connection, if any arrived.
    fn accept(&mut self) -> Option<ConnHandle>;

    /// Queues data; returns bytes accepted (flow control may push back).
    fn send(&mut self, conn: ConnHandle, data: &[u8]) -> usize;

    /// Takes everything received so far.
    fn recv(&mut self, conn: ConnHandle) -> Vec<u8>;

    /// Bytes received so far without taking them.
    fn received_len(&self, conn: ConnHandle) -> usize;

    /// True once the handshake completed.
    fn established(&self, conn: ConnHandle) -> bool;

    /// True once the peer closed its direction.
    fn peer_closed(&self, conn: ConnHandle) -> bool;

    /// True once fully closed (or reset / timed out).
    fn finished(&self, conn: ConnHandle) -> bool;

    /// Starts a graceful close (of a connection or the listener).
    fn close(&mut self, conn: ConnHandle);

    /// ABORT (RFC 793 p. 62): drops the connection (or the listener) at
    /// once. The default panics: the baseline has no abort API.
    fn abort(&mut self, _conn: ConnHandle) {
        panic!("{} has no abort API", self.kind());
    }

    /// The listener's handle, once `listen` has been called.
    fn listener(&self) -> Option<ConnHandle> {
        None
    }

    /// Drives the stack.
    fn step(&mut self, now: VirtualTime) -> bool;

    /// The simulated machine the station runs on.
    fn host(&self) -> HostHandle;

    /// Implementation name for reports.
    fn kind(&self) -> &'static str;

    /// Statistics.
    fn stats(&self) -> StationStats;

    /// Installs an event sink; the station's layers record typed events
    /// into it. The default station records nothing.
    fn set_obs(&mut self, _sink: foxbasis::obs::EventSink) {}

    /// Per-connection metrics snapshot (`None` once the connection is
    /// reaped, or for stations that keep no such bookkeeping).
    fn metrics(&self, _conn: ConnHandle) -> Option<foxbasis::obs::ConnMetrics> {
        None
    }

    /// The stack's own name for a connection's state (`Estab`,
    /// `SynPassive`, `SynReceived`, ...), or `""` once the stack has
    /// forgotten the connection. The adversarial harness uses it to tell
    /// a SYN-RCVD husk from a connection that really opened; the
    /// conformance suite maps it onto RFC 793's vocabulary.
    fn conn_state(&self, _conn: ConnHandle) -> &'static str {
        ""
    }

    /// Timer-wheel and demux operation counts (the scale experiment).
    fn scale_counters(&self) -> ScaleCounters {
        ScaleCounters::default()
    }

    /// Implementation-specific diagnostic line (for debugging harnesses).
    fn debug_line(&self) -> String {
        String::new()
    }

    /// The TCP engine itself, for a test to downcast to its concrete
    /// type and reach what this trait does not carry (a `foxtcp::Tcp`'s
    /// input recorder and TCBs). `None` by default.
    fn engine(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}
