//! Typestate socket wrappers: the connection lifecycle in the type
//! system.
//!
//! "Session Types for the Transport Layer" encodes a transport
//! protocol's lifecycle so that illegal operations are unrepresentable;
//! this module does the lightweight Rust version of that for the user
//! API. Each lifecycle stage is a distinct wrapper around
//! [`TcpConnId`]:
//!
//! ```text
//!   Tcp::listen ──────────▶ ListeningSocket ──accept──▶ ConnectingSocket
//!   Tcp::connect ─────────▶ ConnectingSocket ──try_established──▶ EstablishedSocket
//!   EstablishedSocket ──close──▶ (consumed; FIN in flight)
//! ```
//!
//! A [`ListeningSocket`] has no `send_data` method and a
//! [`ConnectingSocket`] has no `accept`, so the mistakes the RFC's
//! state diagram forbids are *compile* errors, not runtime `Err`s:
//!
//! ```compile_fail
//! use foxtcp::testlink::{TestAux, TestLower};
//! use foxtcp::{ListeningSocket, Tcp};
//!
//! fn illegal(sock: &ListeningSocket, tcp: &mut Tcp<TestLower, TestAux>) {
//!     // A listener transfers no data: `send_data` does not exist on
//!     // `ListeningSocket`.
//!     sock.send_data(tcp, b"no data before a connection exists");
//! }
//! ```
//!
//! ```compile_fail
//! use foxtcp::testlink::{TestAux, TestLower};
//! use foxtcp::{ConnectingSocket, Tcp, TcpConnId};
//!
//! fn illegal(sock: &ConnectingSocket, tcp: &mut Tcp<TestLower, TestAux>) {
//!     // Only a listener owns an accept queue: `accept` does not exist
//!     // on `ConnectingSocket`.
//!     let _ = sock.accept(tcp, TcpConnId(7), Box::new(|_| {}));
//! }
//! ```
//!
//! The wrappers are deliberately thin — each holds only the
//! [`TcpConnId`] and every operation borrows the engine explicitly —
//! so the untyped [`Tcp`] API remains available underneath for callers
//! (and tests) that need to poke at the raw lifecycle.

use crate::engine::{Tcp, TcpConnId, TcpEvent, TcpPattern};
use crate::TcpState;
use foxproto::aux::IpAux;
use foxproto::{Handler, ProtoError, Protocol};

/// A passive socket in LISTEN: it can spawn children and be closed,
/// nothing else.
#[derive(Debug)]
pub struct ListeningSocket {
    id: TcpConnId,
}

/// A socket whose handshake is in flight: SYN-SENT for an active open,
/// SYN-RECEIVED for a freshly accepted child. It carries no data yet.
#[derive(Debug)]
pub struct ConnectingSocket {
    id: TcpConnId,
}

/// A synchronized connection: the only stage at which `send_data`
/// exists.
#[derive(Debug)]
pub struct EstablishedSocket {
    id: TcpConnId,
}

impl<L, A> Tcp<L, A>
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    /// Passive open, typed: [`Tcp::open`] with a
    /// [`TcpPattern::Passive`], wrapped as a [`ListeningSocket`].
    pub fn listen(
        &mut self,
        local_port: u16,
        handler: Handler<TcpEvent>,
    ) -> Result<ListeningSocket, ProtoError> {
        let id = self.open(TcpPattern::Passive { local_port }, handler)?;
        Ok(ListeningSocket { id })
    }

    /// Active open, typed: [`Tcp::open`] with a [`TcpPattern::Active`],
    /// wrapped as a [`ConnectingSocket`] (promote it with
    /// [`ConnectingSocket::try_established`] once the handshake
    /// completes).
    pub fn connect(
        &mut self,
        remote: L::Peer,
        remote_port: u16,
        local_port: u16,
        handler: Handler<TcpEvent>,
    ) -> Result<ConnectingSocket, ProtoError> {
        let id = self.open(TcpPattern::Active { remote, remote_port, local_port }, handler)?;
        Ok(ConnectingSocket { id })
    }
}

impl ListeningSocket {
    /// The underlying connection id (for state queries and metrics).
    pub fn id(&self) -> TcpConnId {
        self.id
    }

    /// Adopts a child announced via [`TcpEvent::NewConnection`]:
    /// installs its upcall handler and takes it off the accept queue.
    /// The child's handshake may still be in flight, so it comes back
    /// as a [`ConnectingSocket`].
    pub fn accept<L, A>(
        &self,
        tcp: &mut Tcp<L, A>,
        child: TcpConnId,
        handler: Handler<TcpEvent>,
    ) -> Result<ConnectingSocket, ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.set_handler(child, handler)?;
        Ok(ConnectingSocket { id: child })
    }

    /// Closes the listener, consuming the socket.
    pub fn close<L, A>(self, tcp: &mut Tcp<L, A>) -> Result<(), ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.close(self.id)
    }
}

impl ConnectingSocket {
    /// The underlying connection id (for state queries and metrics).
    pub fn id(&self) -> TcpConnId {
        self.id
    }

    /// Promotes the socket once the three-way handshake has completed.
    /// Returns the socket unchanged (as the `Err` side) while the
    /// connection is still synchronizing — or if it has already died
    /// (reset, timed out, reaped), in which case it will never promote.
    pub fn try_established<L, A>(self, tcp: &Tcp<L, A>) -> Result<EstablishedSocket, ConnectingSocket>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        match tcp.state_of(self.id) {
            Some(s) if s.is_synchronized() && s != TcpState::TimeWait => {
                Ok(EstablishedSocket { id: self.id })
            }
            _ => Err(self),
        }
    }

    /// Abandons the connection attempt, consuming the socket.
    pub fn close<L, A>(self, tcp: &mut Tcp<L, A>) -> Result<(), ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.close(self.id)
    }
}

impl EstablishedSocket {
    /// The underlying connection id (for state queries and metrics).
    pub fn id(&self) -> TcpConnId {
        self.id
    }

    /// Accepts as much of `data` as fits the send buffer; returns the
    /// number of bytes taken (0 means flow control pushed back).
    pub fn send_data<L, A>(&self, tcp: &mut Tcp<L, A>, data: &[u8]) -> Result<usize, ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.send_data(self.id, data)
    }

    /// Free space in the connection's send buffer.
    pub fn send_capacity<L, A>(&self, tcp: &Tcp<L, A>) -> Result<usize, ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.send_capacity(self.id)
    }

    /// Graceful close (FIN), consuming the socket.
    pub fn close<L, A>(self, tcp: &mut Tcp<L, A>) -> Result<(), ProtoError>
    where
        L: Protocol,
        A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
    {
        tcp.close(self.id)
    }
}
