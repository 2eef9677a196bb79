//! The control path: connection lifecycle, and nothing else.
//!
//! Everything that decides *what a connection is* lives here — passive
//! and active opens, the SYN handshakes, RST handling, the close
//! sequences, timer-driven give-ups, and every change of
//! [`crate::TcpState`], each one a [`fsm::transition`] checked against
//! `spec/tcp_fsm.txt`. The data path ([`crate::data`]) moves bytes for
//! a connection whose shape control has already decided; it reports
//! events back (see `DataEvent` in [`crate::data::transfer`]) but never
//! mutates the state machine.
//!
//! The boundary is the compiler's: a connection's state is an
//! [`fsm::State`] only `fsm` can change, and the TCB's sequence space
//! is private to `data`, so this directory reads it and cannot write it
//! (DESIGN.md §5.11).

pub mod fsm;
pub mod segment;
pub mod state;

#[cfg(test)]
mod segment_fuzz;

/// Control's transition token: proof that the decision to enter
/// ESTABLISHED was made on the control side of the boundary.
///
/// The constructor is visible only inside `control`, and the one data
/// function that completes an establishment
/// (`crate::data::transfer::establish`) demands a handle — so the data
/// path cannot promote a connection on its own, and control cannot
/// forget to run the data-side bookkeeping when it does.
pub(crate) struct EstablishedHandle {
    _token: (),
}

impl EstablishedHandle {
    /// Minted next to a `TcpState::Estab` write, nowhere else.
    pub(in crate::control) fn mint() -> EstablishedHandle {
        EstablishedHandle { _token: () }
    }
}
