//! # Fox Basis
//!
//! The utility substrate of FoxNet-RS, mirroring the Fox Project's
//! `FOX_BASIS` structure that every protocol functor in the paper takes as
//! a parameter ("`structure B: FOX_BASIS (* our utilities *)`", Fig. 4 of
//! Biagioni, *A Structured TCP in Standard ML*, SIGCOMM '94).
//!
//! It contains:
//!
//! * [`buf`] — [`buf::PacketBuf`], the refcounted headroom buffer a
//!   packet lives in from TCP payload to wire and back (one real copy
//!   per direction, with the checksum folded into that pass; two heap
//!   calls per buffer, none per clone; a frame's FCS sealed until read);
//! * [`fifo`] — the FIFO queue (`structure Q: FIFO` in Fig. 6), used for
//!   the per-connection `to_do` action queue and each layer's queue of
//!   received messages (the TCB's out-of-order store is a `VecDeque` of
//!   the received `PacketBuf`s, kept sorted by sequence number);
//! * [`flat`] — [`flat::FlatIndex`], the open-addressing index behind
//!   every keyed lookup on the per-segment and per-call paths (the
//!   engine's id → slot table, the demux, the harness's stations): one
//!   hashed probe, duplicate keys in insertion order, a fixed mixer and
//!   no iteration, so its layout is never an observable order;
//! * [`ring`] — a byte ring buffer used for the socket send buffer (the
//!   receive side keeps a byte count, not a ring);
//! * [`wordarray`] — safe byte arrays with 1/2/4-byte big-endian access,
//!   the Rust rendering of the Fox extensions' in-lined byte arrays and
//!   `Byte2`/`Byte4` operations;
//! * [`mod@checksum`] — the Internet checksum: the wide-load kernel the
//!   stack runs, a line-for-line port of the paper's Fig. 10 `word_check`
//!   loop and the slower byte-oriented algorithm the x-kernel used (the
//!   §5 exhibits), incremental update, and the Ethernet FCS's CRC-32;
//! * [`copy`] — the copy routines whose cost the paper reports
//!   (300 µs/KB in SML vs 61 µs/KB for `bcopy` on a DECstation 5000/125);
//! * [`seq`] — TCP sequence-number arithmetic (modulo 2^32);
//! * [`time`] — the virtual-time types used by the deterministic
//!   simulation substrate (the profiling half of `FOX_BASIS`, the
//!   Table 2 ledger with its 15 µs counter updates, is the simulated
//!   host's: `simnet::host`);
//! * [`obs`] — the typed, bounded, zero-cost-when-off event layer
//!   (state transitions, actions, timers, segments, wire faults, GC
//!   pauses) with JSONL / chrome://tracing exporters and a stream
//!   differ that turns the determinism claim into a debugging tool —
//!   the stack's one window, standing in for the print/trace switches
//!   every functor in the paper accepts (Fig. 4);
//! * [`wheel`] — a hierarchical timer wheel shared by both TCP stacks,
//!   replacing the one-coroutine-per-timer Fig. 11 scheme at scale: one
//!   slab of timers threaded onto per-slot lists, virtual-time driven,
//!   O(1) arm and eager O(1) cancel, and no heap traffic once warm.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod buf;
pub mod checksum;
pub mod copy;
pub mod fifo;
pub mod flat;
pub mod obs;
pub mod ring;
pub mod seq;
pub mod time;
pub mod wheel;
pub mod wordarray;

pub use buf::PacketBuf;
pub use checksum::{checksum, ones_complement_sum, ChecksumAccum};
pub use fifo::Fifo;
pub use flat::{FlatIndex, FlatKey};
pub use obs::{ConnMetrics, Event, EventRing, EventSink, Stamped, NO_CONN};
pub use ring::RingBuffer;
pub use seq::Seq;
pub use time::{NanoDuration, VirtualDuration, VirtualTime};
pub use wheel::{TimerId, TimerWheel, WheelStats};
pub use wordarray::WordArray;
