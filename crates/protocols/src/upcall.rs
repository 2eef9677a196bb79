//! One attachment shape for every layer above the device.
//!
//! A layer attaches to the one below it by opening a binding whose
//! handler only *enqueues* into the layer's own inbox, and drains that
//! inbox in its own `step` — the quasi-synchronous rule of the crate
//! docs. [`Below`] is that attachment, written once. `Bindings` is the
//! other half every demultiplexing layer shares: the table from a key
//! (an ethertype, an IP protocol, a port, a ping identifier) to the
//! handler of the one client bound to it.

use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::fifo::Fifo;
use foxbasis::time::VirtualTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A receive queue: handlers registered below fill it, its owner drains
/// it. Several handlers may feed one inbox, and arrivals keep the order
/// the lower layer delivered them in.
pub(crate) struct Inbox<T>(Rc<RefCell<Fifo<T>>>);

impl<T: 'static> Inbox<T> {
    pub(crate) fn new() -> Inbox<T> {
        Inbox(Rc::new(RefCell::new(Fifo::new())))
    }

    /// A handler that only enqueues into this inbox.
    pub(crate) fn handler(&self) -> Handler<T> {
        let q = self.0.clone();
        Box::new(move |m| q.borrow_mut().add(m))
    }

    /// The oldest arrival not yet taken.
    pub(crate) fn next(&self) -> Option<T> {
        self.0.borrow_mut().next()
    }

    /// Nothing waiting?
    pub(crate) fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// A layer's attachment to the layer below it: the lower layer, the
/// pattern it is opened with, the one binding once it is open, and the
/// inbox that binding feeds.
pub struct Below<L: Protocol> {
    lower: L,
    pattern: L::Pattern,
    conn: Option<L::ConnId>,
    inbox: Inbox<L::Incoming>,
}

impl<L: Protocol> Below<L> {
    /// `lower`, to be opened with `pattern` by [`Below::attach`].
    pub fn new(lower: L, pattern: L::Pattern) -> Below<L> {
        Below { lower, pattern, conn: None, inbox: Inbox::new() }
    }

    /// Opens the binding below, once; after it succeeds this does
    /// nothing.
    pub fn attach(&mut self) -> Result<(), ProtoError> {
        if self.conn.is_none() {
            self.conn = Some(self.lower.open(self.pattern.clone(), self.inbox.handler())?);
        }
        Ok(())
    }

    /// Whether the binding below is open.
    pub fn attached(&self) -> bool {
        self.conn.is_some()
    }

    /// Sends `payload` to `to` on the binding; [`ProtoError::NotOpen`]
    /// before [`Below::attach`].
    pub fn send(&mut self, to: L::Peer, payload: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        let conn = self.conn.ok_or(ProtoError::NotOpen)?;
        self.lower.send(conn, to, payload)
    }

    /// The oldest arrival not yet taken.
    #[expect(clippy::should_implement_trait, reason = "the inbox's `Fifo::next`, the paper's `Q.next`")]
    pub fn next(&mut self) -> Option<L::Incoming> {
        self.inbox.next()
    }

    /// Drives the lower layer, which fills the inbox.
    pub fn step(&mut self, now: VirtualTime) -> bool {
        self.lower.step(now)
    }

    /// Due now while the inbox holds an arrival; otherwise when the lower
    /// layer is (see [`Protocol::poll_at`]).
    pub fn poll_at(&self) -> Option<VirtualTime> {
        if self.inbox.is_empty() {
            self.lower.poll_at()
        } else {
            Some(VirtualTime::ZERO)
        }
    }
}

/// Prints the lower layer, which is what an owner's `over …` shows.
impl<L: Protocol + fmt::Debug> fmt::Debug for Below<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lower.fmt(f)
    }
}

/// The clients bound to a demultiplexing layer, at most one per key. A
/// binding's id counts up from 0 and is never reused, so a stale handle
/// names nothing rather than a later client.
pub(crate) struct Bindings<K, M> {
    bound: Vec<(u32, K, Handler<M>)>,
    next_id: u32,
}

impl<K: Copy + PartialEq, M> Bindings<K, M> {
    pub(crate) fn new() -> Bindings<K, M> {
        Bindings { bound: Vec::new(), next_id: 0 }
    }

    /// Binds `key` to `handler`; [`ProtoError::AlreadyOpen`] if `key` is
    /// bound.
    pub(crate) fn bind(&mut self, key: K, handler: Handler<M>) -> Result<u32, ProtoError> {
        if self.bound.iter().any(|(_, k, _)| *k == key) {
            return Err(ProtoError::AlreadyOpen);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.bound.push((id, key, handler));
        Ok(id)
    }

    /// Removes binding `id`; [`ProtoError::NotOpen`] if there is none.
    pub(crate) fn unbind(&mut self, id: u32) -> Result<(), ProtoError> {
        let at = self.bound.iter().position(|(i, _, _)| *i == id).ok_or(ProtoError::NotOpen)?;
        drop(self.bound.remove(at));
        Ok(())
    }

    /// The key binding `id` holds; [`ProtoError::NotOpen`] if there is
    /// none.
    pub(crate) fn key_of(&self, id: u32) -> Result<K, ProtoError> {
        self.bound.iter().find(|(i, _, _)| *i == id).map(|(_, k, _)| *k).ok_or(ProtoError::NotOpen)
    }

    /// Hands `msg` to the handler bound to `key`; false if none is.
    pub(crate) fn deliver(&mut self, key: K, msg: M) -> bool {
        match self.bound.iter_mut().find(|(_, k, _)| *k == key) {
            Some((_, _, handler)) => {
                handler(msg);
                true
            }
            None => false,
        }
    }

    /// Bindings held.
    pub(crate) fn len(&self) -> usize {
        self.bound.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use foxwire::ether::EthAddr;
    use simnet::{HostHandle, SimNet};

    fn recorder(log: &Rc<RefCell<Vec<(char, u8)>>>, who: char) -> Handler<u8> {
        let log = log.clone();
        Box::new(move |m| log.borrow_mut().push((who, m)))
    }

    #[test]
    fn a_bound_key_is_refused_and_an_id_is_never_reused() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b: Bindings<u16, u8> = Bindings::new();
        let first = b.bind(7, recorder(&log, 'a')).unwrap();
        assert_eq!(b.bind(7, recorder(&log, 'b')), Err(ProtoError::AlreadyOpen));
        let second = b.bind(9, recorder(&log, 'c')).unwrap();
        assert_eq!((first, second), (0, 1));
        b.unbind(first).unwrap();
        assert_eq!(b.unbind(first), Err(ProtoError::NotOpen));
        assert_eq!(b.key_of(first), Err(ProtoError::NotOpen));
        assert_eq!(b.bind(7, recorder(&log, 'd')), Ok(2), "the freed key, a new id");
        assert_eq!((b.key_of(2), b.key_of(second), b.len()), (Ok(7), Ok(9), 2));
    }

    #[test]
    fn delivery_goes_by_key() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b: Bindings<u16, u8> = Bindings::new();
        b.bind(7, recorder(&log, 'a')).unwrap();
        b.bind(9, recorder(&log, 'b')).unwrap();
        assert!(b.deliver(9, 1));
        assert!(b.deliver(7, 2));
        assert!(!b.deliver(8, 3), "nobody is bound to 8");
        assert_eq!(*log.borrow(), [('b', 1), ('a', 2)]);
    }

    /// `ip::Link`'s case: IPv4 and ARP arrive through two bindings into
    /// one inbox, and come out in the order they went in.
    #[test]
    fn two_handlers_into_one_inbox_keep_their_interleaving() {
        let inbox = Inbox::new();
        let (mut ipv4, mut arp) = (inbox.handler(), inbox.handler());
        ipv4(1);
        arp(2);
        ipv4(3);
        assert_eq!(
            [inbox.next(), inbox.next(), inbox.next(), inbox.next()],
            [Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn below_sends_only_once_attached_and_attaches_once() {
        let net = SimNet::ethernet_10mbps(1);
        let host = HostHandle::free();
        let mut below = Below::new(Dev::new(net.attach(EthAddr::host(1)), host.clone()), ());
        assert_eq!(below.send((), vec![0; 60]), Err(ProtoError::NotOpen));
        below.attach().unwrap();
        below.attach().unwrap(); // a second `Dev::open` would be refused
        assert!(below.attached());
        assert_eq!(below.send((), vec![0; 60]), Ok(()));
    }
}
