//! `Shared<P>`: several upper layers sharing one lower instance.
//!
//! In SML, instantiating `Tcp (structure Lower = Ip ...)` and
//! `Udp (structure Lower = Ip ...)` against the *same* `Ip` structure is
//! free — structures are shared by name. Rust's ownership model wants a
//! single owner, so `Shared<P>` provides the by-name sharing:
//! a cheap cloneable wrapper that itself satisfies [`Protocol`] by
//! delegation. Borrow discipline is sound because handlers only enqueue
//! (see the crate docs): no call path re-enters the same `RefCell`.

use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::time::VirtualTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A cloneable shared protocol instance.
pub struct Shared<P> {
    inner: Rc<RefCell<P>>,
}

impl<P> Shared<P> {
    /// Wraps `proto` for sharing.
    pub fn new(proto: P) -> Shared<P> {
        Shared { inner: Rc::new(RefCell::new(proto)) }
    }

    /// Runs `f` with the inner protocol borrowed mutably.
    pub fn with<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

impl<P> Clone for Shared<P> {
    fn clone(&self) -> Self {
        Shared { inner: self.inner.clone() }
    }
}

impl<P: Protocol> Protocol for Shared<P> {
    type Pattern = P::Pattern;
    type Peer = P::Peer;
    type Incoming = P::Incoming;
    type ConnId = P::ConnId;

    fn open(
        &mut self,
        pattern: Self::Pattern,
        handler: Handler<Self::Incoming>,
    ) -> Result<Self::ConnId, ProtoError> {
        self.inner.borrow_mut().open(pattern, handler)
    }

    fn send(
        &mut self,
        conn: Self::ConnId,
        to: Self::Peer,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError> {
        self.inner.borrow_mut().send(conn, to, payload)
    }

    fn close(&mut self, conn: Self::ConnId) -> Result<(), ProtoError> {
        self.inner.borrow_mut().close(conn)
    }

    fn abort(&mut self, conn: Self::ConnId) -> Result<(), ProtoError> {
        self.inner.borrow_mut().abort(conn)
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        self.inner.borrow_mut().step(now)
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        self.inner.borrow().poll_at()
    }
}

impl<P: fmt::Debug> fmt::Debug for Shared<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared({:?})", self.inner.borrow())
    }
}
