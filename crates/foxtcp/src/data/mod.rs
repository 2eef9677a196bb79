//! The data path: byte transfer over an already-shaped connection.
//!
//! Sequence/ack bookkeeping, the send and receive windows,
//! retransmission, and §4's header prediction (a count), over the TCB ([`tcb`]) whose
//! sequence space they own. The TCB's sequence-space fields are
//! `pub(in crate::data)`: only the modules here can write them, and the
//! rest of the crate reads a copy ([`tcb::Tcb::seq`]). Each of the TCB's
//! other parts is one module's, with fields private to it: [`transfer`]
//! owns what the SYNs agreed, the receive side and the ACK clock,
//! [`resend`] the send side, and [`crate::congestion`] the congestion
//! windows, which the data path drives through its seam. Nothing here can write a
//! [`crate::TcpState`] — lifecycle decisions stay in [`crate::control`],
//! which hands the data path an `EstablishedHandle` proof token at
//! transition time and learns of stream-closing events through
//! `transfer::DataEvent`.

pub mod fastpath;
pub mod resend;
pub mod send;
pub mod tcb;
pub mod transfer;
