//! The data path: byte transfer over an already-shaped connection.
//!
//! Sequence/ack bookkeeping, the send and receive windows, congestion
//! control, retransmission, and the §4 fast path. Modules here own the
//! TCB's sequence-space and window fields (the `field_owner` foxlint
//! rule's owner lists point exactly here) and are forbidden from
//! writing [`crate::TcpState`] — lifecycle decisions stay in
//! [`crate::control`], which hands the data path an
//! `EstablishedHandle` proof token at transition time and learns of
//! stream-closing events through `transfer::DataEvent`.

pub mod congestion;
pub mod fastpath;
pub mod resend;
pub mod send;
pub mod transfer;
