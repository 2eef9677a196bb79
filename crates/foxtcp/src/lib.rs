//! # The structured TCP — the paper's core contribution
//!
//! "We designed the TCP implementation to have the same structure as the
//! TCP standard" (§4). The module decomposition here is the paper's
//! Fig. 9, one Rust module per SML module:
//!
//! | paper module | here          | job |
//! |--------------|---------------|-----|
//! | `Tcb`        | [`data::tcb`] + [`control::fsm`] | the TCB record (Fig. 6) and, with the state machine, the `tcp_state` datatype |
//! | `Main`       | [`engine`]    | the quasi-synchronous executor and user operations |
//! | `State`      | [`control::state`] | open/close/abort and timer-expiration state manipulations |
//! | `Receive`    | [`control::segment`] + [`data::transfer`] | RFC 793 SEGMENT-ARRIVES, branch for branch, functions as merge points |
//! | `Resend`     | [`data::resend`] | the retransmit queue and the Karn/Jacobson round-trip computations |
//! | `Send`       | [`data::send`] | segmenting outgoing data into `Send_Segment` actions |
//! | `Action`     | [`engine`] + [`action`] | timers, segment externalization/internalization |
//! |  (§4)        | [`data::fastpath`] | "fast-path receive and send routines which handle the normal cases quickly" |
//!
//! On top of the paper's decomposition, the modules are grouped by
//! *which half of TCP they implement*: [`control`] owns the connection
//! lifecycle (every [`TcpState`] write), [`data`] owns byte transfer
//! (every sequence/window write), [`congestion`] owns the congestion
//! windows, and the halves communicate only through the narrow seams in
//! [`data::transfer`]. Module privacy and types enforce the split — the
//! compiler rejects a write outside its owner (DESIGN.md §5.8) — and
//! [`socket`] exposes it to users as a typestate API where illegal
//! operations (sending on a listener) fail to compile.
//!
//! The control structure is the paper's Fig. 7: timer expirations and
//! message receptions are asynchronous, but each merely *enqueues* a
//! [`action::TcpAction`] on the connection's `to_do` queue; the thread
//! that executes an operation then drains the queue. Everything after
//! enqueue is totally ordered and deterministic.
//!
//! The TCP functor itself is [`engine::Tcp<L, A>`], whose parameters are
//! the paper's Fig. 4: the lower protocol `L`, the auxiliary structure
//! `A` (with the `sharing` constraints as associated-type bounds), and
//! the value parameters collected in [`TcpConfig`].

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod action;
pub mod congestion;
pub mod control;
pub mod data;
pub mod demux;
pub mod engine;
pub mod socket;
pub mod testlink;

pub use action::TcpAction;
pub use control::fsm::TcpState;
pub use data::tcb::Tcb;
pub use demux::{Demux, DemuxStats};
pub use engine::{Applied, Input, InputLog, Tcp, TcpConnId, TcpEvent, TcpPattern, TcpStats, UserCall};
pub use socket::{ConnectingSocket, EstablishedSocket, ListeningSocket};

use foxbasis::buf::BufPool;

/// The value parameters of the TCP functor (paper Fig. 4).
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// `val initial_window: int` — the receive-buffer/window size. The
    /// paper's benchmark standardizes it to 4096 bytes.
    pub initial_window: usize,
    /// `val compute_checksums: bool` — `false` only for compositions
    /// where the layer below guarantees integrity (`Special_Tcp` over
    /// Ethernet with its CRC).
    pub compute_checksums: bool,
    /// `val abort_unknown_connections: bool` — whether segments for
    /// unknown connections are answered with RST. "Set to false when we
    /// wish to run ... on a workstation without disturbing connections
    /// that were set up by the resident operating system."
    pub abort_unknown_connections: bool,
    /// `val user_timeout: int` (ms) — "the length of time before hung
    /// operations fail".
    pub user_timeout_ms: u64,
    /// Send-buffer size in bytes.
    pub send_buffer: usize,
    /// Milliseconds to delay ACKs waiting for a piggyback opportunity;
    /// `None` acknowledges immediately.
    pub delayed_ack_ms: Option<u64>,
    /// ACK coalescing: how many in-order data segments (and segments ×
    /// MSS bytes) may accumulate before an immediate ACK is forced.
    /// `None` (the default) keeps the RFC 1122 / BSD rule — ACK at
    /// least every second full segment — so every existing trace is
    /// unchanged. `Some(k)` with `k > 2` lets a GRO-style burst be
    /// answered with one cumulative ACK per `k` segments; the delayed-ACK
    /// timer still bounds the wait, and `delayed_ack_ms: None` (the
    /// paper's bulk config) still acknowledges every segment
    /// immediately, coalescing or not.
    pub ack_coalesce_segments: Option<u32>,
    /// Nagle's small-segment coalescing.
    pub nagle: bool,
    /// Use the §4 fast-path receive routine for common-case segments.
    pub fast_path: bool,
    /// The paper's proposed scheduling extension: "By replacing the
    /// current FIFO with a priority queue, we could specify that
    /// particular actions, e.g., actions which affect the packet
    /// latency, be executed with higher priority." When set, the action
    /// executor serves `Send_Segment` actions (the latency-affecting
    /// ones) ahead of anything else in the connection's to_do queue.
    pub latency_priority: bool,
    /// Slow start, congestion avoidance and NewReno fast recovery
    /// ([`congestion`]; RFC 1122 requires the first two). On by default;
    /// the ablations turn it off, and so does the modern bench profile,
    /// whose x-kernel baseline has none.
    pub congestion_control: bool,
    /// Offer RFC 7323 window scaling on our SYN. Scaling only turns on
    /// when both sides offer it; otherwise windows stay 16-bit exactly
    /// as before.
    pub window_scale: bool,
    /// Offer RFC 2018 selective acknowledgments on our SYN.
    pub sack: bool,
    /// Offer RFC 7323 timestamps (RTTM + PAWS) on our SYN.
    pub timestamps: bool,
    /// The 2MSL TIME-WAIT hold time, in ms.
    pub time_wait_ms: u64,
    /// Maximum retransmissions of one segment before giving up.
    pub max_retransmits: u32,
    /// SYN (and SYN+ACK) retries.
    pub syn_retries: u32,
    /// Default backlog for passive opens.
    pub backlog: usize,
}

impl Default for TcpConfig {
    /// The paper's benchmark configuration: 4096-byte window, checksums
    /// on, immediate aborts of unknown connections, 2-minute user
    /// timeout.
    fn default() -> Self {
        TcpConfig {
            initial_window: 4096,
            compute_checksums: true,
            abort_unknown_connections: true,
            user_timeout_ms: 120_000,
            send_buffer: 8192,
            delayed_ack_ms: Some(200),
            ack_coalesce_segments: None,
            nagle: true,
            fast_path: true,
            latency_priority: false,
            congestion_control: true,
            window_scale: false,
            sack: false,
            timestamps: false,
            time_wait_ms: 2 * 30_000, // 2 × MSL, scaled for the simulated LAN
            max_retransmits: 12,
            syn_retries: 5,
            backlog: 8,
        }
    }
}

impl TcpConfig {
    /// The in-order segment count at which an immediate ACK is forced
    /// (the byte bound is this × MSS). `ack_coalesce_segments: None`
    /// yields the historical BSD threshold of 2.
    pub fn ack_threshold(&self) -> u32 {
        self.ack_coalesce_segments.unwrap_or(2).max(1)
    }
}

/// The per-connection core the State/Receive/Send/Resend modules operate
/// on: everything about a connection *except* the engine-side plumbing
/// (user handler, timer handles, and the peer's lower-layer address,
/// which only demultiplexing and transmission read). Module-level tests
/// construct one of these, apply one operation, and compare the TCB
/// against the standard — the paper's test structure. [`ConnCore::new`]
/// (in [`control::fsm`]) is the only way to make one; code outside the
/// crate reads its TCB ([`ConnCore::tcb`]) and cannot replace it.
pub struct ConnCore {
    /// Our port.
    pub local_port: u16,
    /// The peer's port (0 while listening).
    pub remote_port: u16,
    /// The connection state: read anywhere, changed only by
    /// [`control::fsm`].
    pub state: control::fsm::State,
    /// The transmission control block.
    pub(crate) tcb: Tcb,
    /// The MSS we advertise on SYNs (from the aux structure's MTU).
    pub our_mss: u32,
    /// The engine's buffer pool, a handle on the one every connection
    /// of the engine shares: each segment this connection sends is
    /// staged in a block from it. Kept beside the TCB, not in it, so
    /// that the TCB stays plain data.
    pub pool: BufPool,
}

impl ConnCore {
    /// The transmission control block, to read.
    pub fn tcb(&self) -> &Tcb {
        &self.tcb
    }
}
