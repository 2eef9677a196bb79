//! # The simulated substrate
//!
//! The paper benchmarked Fox Net on "64MB DECstation 5000/125s running
//! the Mach 3.0 microkernel" attached to "an isolated 10Mb/s ethernet".
//! None of that hardware exists here, so this crate *builds* it, per the
//! substitution plan in DESIGN.md:
//!
//! * [`net`] — a deterministic discrete-event shared Ethernet segment:
//!   frames serialize onto the medium at the configured bandwidth
//!   (default 10 Mb/s), arbitrate FIFO for the shared wire, propagate
//!   with a fixed delay, and arrive in bounded per-port receive queues
//!   (the analogue of the paper's 24 KB Mach kernel buffer). A seeded
//!   fault injector can drop, corrupt, duplicate or delay frames — the
//!   conditions the Resend module exists to survive;
//! * [`host`] — the host cost model: a virtual CPU per host that is
//!   *charged* time for protocol processing, copies, checksums, Mach IPC
//!   and so on, with presets calibrated to the paper's DECstation numbers
//!   (SML and C variants) plus a free "modern" preset. Each layer
//!   charges one [`Work`] value; the cost model prices it into an
//!   [`Account`], and the host's per-account ledger, with the paper's
//!   15 µs counter perturbation when profiled, is how Table 2 falls out
//!   of a run;
//! * [`gcmodel`] — an allocation-driven model of the SML/NJ generational
//!   stop-and-copy collector: minor collections when the nursery fills,
//!   major collections as promoted data accumulates, each contributing
//!   pauses to the host CPU and time to the `g. c.` account;
//! * [`mod@drive`] — the discrete-event loop: [`settle`] runs hosts and
//!   media until quiet, [`drive()`] runs hosts and segments on a ticking
//!   clock until a condition or a deadline. It is the one place that
//!   decides how hosts and frames take turns. A [`Medium`] is what
//!   `settle` runs over: a clock and the frames due on it, which a
//!   segment has and so has the whole-engine test link in `foxtcp`.
//!
//! Everything is keyed by [`foxbasis::time::VirtualTime`]; with the same
//! seed and configuration a simulation is bit-for-bit repeatable.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod drive;
pub mod gcmodel;
pub mod host;
pub mod net;
pub mod pcap;

pub use drive::{drive, settle, Medium, SETTLE_ROUNDS};
pub use gcmodel::{GcConfig, GcStats, SmlRuntime};
pub use host::{Account, CostModel, Host, HostHandle, Work, PAPER_COUNTER_UPDATE_COST};
pub use net::{FaultConfig, NetConfig, NetStats, Port, SimNet, TxShape};
pub use pcap::PcapSink;
