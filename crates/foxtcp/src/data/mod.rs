//! The data path: byte transfer over an already-shaped connection.
//!
//! Sequence/ack bookkeeping, the send and receive windows,
//! retransmission, and the §4 fast path, over the TCB ([`tcb`]) whose
//! sequence space they own. The TCB's sequence-space fields are
//! `pub(in crate::data)`: only the modules here can write them, and the
//! rest of the crate reads them through the TCB's accessors. The
//! congestion windows are [`crate::congestion`]'s, which the data path
//! drives through its seam. Nothing here can write a
//! [`crate::TcpState`] — lifecycle decisions stay in [`crate::control`],
//! which hands the data path an `EstablishedHandle` proof token at
//! transition time and learns of stream-closing events through
//! `transfer::DataEvent`.

pub mod fastpath;
pub mod resend;
pub mod send;
pub mod tcb;
pub mod transfer;
