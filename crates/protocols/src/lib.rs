//! # The protocol stack below TCP
//!
//! This crate is the Rust rendering of the paper's x-kernel-inspired
//! stack architecture (§3):
//!
//! > "We have a signature PROTOCOL which is generic in that it is
//! > satisfied by all the modules implementing each of the protocols in
//! > the stack. ... Unlike the x-kernel, our interfaces are defined
//! > formally as signatures, and syntactic compliance of an
//! > implementation with the interface is checked by the compiler."
//!
//! The [`Protocol`] trait is that signature. Every layer implements it;
//! layers compose by *generic instantiation* — `Ip<Eth<Dev>>` is the
//! paper's `structure Ip = Ip (structure Lower = Eth ...)` (Fig. 3), with
//! the compiler checking the sharing constraints as associated-type
//! bounds. Because `Eth` and `Ip` both satisfy [`Protocol`], TCP can be
//! instantiated over either — the paper's `Standard_Tcp` / `Special_Tcp`
//! pair.
//!
//! Receive follows the upcall style (§6): at `open` time each client
//! registers a handler, and the handler is *specialized on the
//! connection* — it is a closure capturing exactly the state the
//! connection needs, the staging trick the paper implements with
//! higher-order functions. To preserve the quasi-synchronous discipline
//! (and to make the single-threaded borrow story sound), handlers must
//! only *enqueue*; real processing happens when the owner's `step` runs.
//! That rule is written once, in [`upcall::Below`]: every layer above the
//! device (TCP included) attaches below through one, whose handler only
//! enqueues into an inbox the layer drains in its own `step`.
//!
//! Layers:
//! * [`upcall`] — `Below`, the one attachment shape, and the binding
//!   table every demultiplexing layer keeps;
//! * [`dev`] — the device protocol: the boundary to the simulated
//!   Mach 3.0 device interface;
//! * [`eth`] — Ethernet framing/demultiplexing;
//! * [`arp`] — the address-resolution cache each IP link keeps;
//! * [`ip`] — IPv4 with routing, fragmentation and reassembly, over a
//!   `Link` (the IPv4 and ARP bindings, the ARP cache, the subnet);
//! * [`router`] — store-and-forward between segments, one `Link` per
//!   interface;
//! * [`aux`] — the `IP_AUX` signature of Fig. 5, the auxiliary structure
//!   TCP and UDP take alongside their lower protocol;
//! * [`udp`] — UDP as a functor over any (lower, aux) pair, like TCP;
//! * [`icmp`] — ICMP echo: a responder layer and a `Ping` client;
//! * [`shared`] — `Shared<P>`, the glue that lets several upper layers
//!   (TCP, UDP, ICMP) share one lower instance;
//! * [`vp`] — `SizedPayload`, the virtual protocol that makes raw
//!   Ethernet a clean transport substrate.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod arp;
pub mod aux;
pub mod dev;
pub mod eth;
pub mod icmp;
pub mod ip;
pub mod router;
pub mod shared;
pub mod udp;
pub mod upcall;
pub mod vp;

pub use aux::{EthAux, IpAux, IpAuxImpl};
pub use dev::{BatchConfig, Dev};
pub use eth::{Eth, EthIncoming};
pub use icmp::{Icmp, Ping};
pub use ip::{Ip, IpIncoming};
pub use router::Router;
pub use shared::Shared;
pub use udp::{Udp, UdpIncoming};
pub use vp::SizedPayload;

use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use std::fmt;

/// An upcall handler: called once per incoming message for the
/// connection it was registered on. Handlers are specialized per
/// connection (they are closures) and must only enqueue work, never
/// recurse into the protocol graph.
pub type Handler<T> = Box<dyn FnMut(T)>;

/// Errors shared by all protocol layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The connection id is unknown or already closed.
    NotOpen,
    /// A conflicting connection or binding already exists.
    AlreadyOpen,
    /// The peer cannot be reached (no route / resolution failed).
    Unreachable,
    /// The peer actively refused (TCP RST during connect).
    Refused,
    /// The connection was reset by the peer.
    Reset,
    /// The operation timed out (the paper's `user_timeout`).
    Timeout,
    /// The connection is closing; no further sends are possible.
    Closing,
    /// The payload is too large for the layer.
    TooBig,
    /// A malformed argument.
    Invalid(&'static str),
    /// Send buffer full: retry after progress (flow control pushback).
    WouldBlock,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::NotOpen => write!(f, "connection not open"),
            ProtoError::AlreadyOpen => write!(f, "already open"),
            ProtoError::Unreachable => write!(f, "peer unreachable"),
            ProtoError::Refused => write!(f, "connection refused"),
            ProtoError::Reset => write!(f, "connection reset"),
            ProtoError::Timeout => write!(f, "operation timed out"),
            ProtoError::Closing => write!(f, "connection closing"),
            ProtoError::TooBig => write!(f, "payload too large"),
            ProtoError::Invalid(s) => write!(f, "invalid argument: {s}"),
            ProtoError::WouldBlock => write!(f, "send buffer full"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The generic `PROTOCOL` signature (paper §3, Figs. 1–2).
///
/// Associated types are the paper's shared types:
/// * `Pattern` — what `open` matches (the paper's `address_pattern` for
///   passive opens; for active opens the pattern carries the peer);
/// * `Peer` — the network-level peer address (the paper's `address`),
///   named by `send` and reported in incoming messages;
/// * `Incoming` — the layer's `incoming_message`;
/// * `ConnId` — the value `open` returns, standing for the paper's
///   connection values.
pub trait Protocol {
    /// What `open` matches/binds.
    type Pattern: Clone + 'static;
    /// Peer addresses.
    type Peer: Clone + PartialEq + fmt::Debug + 'static;
    /// Messages delivered to handlers.
    type Incoming: 'static;
    /// Connection handle.
    type ConnId: Copy + PartialEq + fmt::Debug + 'static;

    /// Opens a connection matching `pattern`, registering the
    /// connection-specialized upcall `handler`.
    fn open(
        &mut self,
        pattern: Self::Pattern,
        handler: Handler<Self::Incoming>,
    ) -> Result<Self::ConnId, ProtoError>;

    /// Sends `payload` to `to` on `conn`.
    ///
    /// The payload travels as a [`PacketBuf`]: layers prepend their
    /// headers into its headroom and hand the *same* buffer down, so a
    /// segment is copied at most once on its way to the wire. `impl
    /// Into<PacketBuf>` keeps `Vec<u8>` call sites working (adopting the
    /// vector, not copying it).
    fn send(
        &mut self,
        conn: Self::ConnId,
        to: Self::Peer,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError>;

    /// Closes `conn` (graceful where the protocol has the notion).
    fn close(&mut self, conn: Self::ConnId) -> Result<(), ProtoError>;

    /// Aborts `conn` (immediate; TCP sends RST). Defaults to `close`.
    fn abort(&mut self, conn: Self::ConnId) -> Result<(), ProtoError> {
        self.close(conn)
    }

    /// Drives the layer at virtual time `now`: ingest from below, run
    /// protocol processing, fire upcalls. Returns true if any progress
    /// was made (used by drivers to loop to quiescence).
    fn step(&mut self, now: VirtualTime) -> bool;

    /// The earliest instant at which [`Protocol::step`] has work that no
    /// newly arriving frame brings, or `None` if it has none: until
    /// then, stepping the layer (and everything below it) does nothing.
    /// [`VirtualTime::ZERO`] means "due now". The default is always due,
    /// which is right for any layer that does not say otherwise.
    fn poll_at(&self) -> Option<VirtualTime> {
        Some(VirtualTime::ZERO)
    }
}
