//! ICMP echo: a responder layer and a `Ping` client.
//!
//! `Icmp` sits over the Ip layer on proto 1. Echo requests addressed to
//! the host are answered automatically (the "responds to pings" behavior
//! of every example host); echo replies are delivered to whichever
//! [`Ping`] session matches their identifier.

use crate::ip::IpIncoming;
use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::fifo::Fifo;
use foxbasis::time::VirtualTime;
use foxwire::icmp::IcmpEcho;
use foxwire::ipv4::{IpProtocol, Ipv4Addr};
use simnet::{HostHandle, Work};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A received echo reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EchoReply {
    /// Who replied.
    pub from: Ipv4Addr,
    /// Sequence number echoed back.
    pub seq: u16,
    /// Payload echoed back.
    pub payload: Vec<u8>,
}

/// Connection handle (one per ping identifier).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IcmpConn(u16);

/// Statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IcmpStats {
    /// Echo requests answered.
    pub requests_answered: u64,
    /// Echo replies delivered to ping sessions.
    pub replies_delivered: u64,
    /// Undecodable messages.
    pub bad: u64,
}

struct Session {
    ident: u16,
    handler: Handler<EchoReply>,
}

/// The ICMP echo layer over Ip.
pub struct Icmp<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>> {
    lower: L,
    host: HostHandle,
    conn: Option<L::ConnId>,
    rx: Rc<RefCell<Fifo<IpIncoming>>>,
    sessions: Vec<Session>,
    stats: IcmpStats,
}

impl<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>> Icmp<L> {
    /// An echo layer over `lower`.
    pub fn new(lower: L, host: HostHandle) -> Icmp<L> {
        Icmp {
            lower,
            host,
            conn: None,
            rx: Rc::new(RefCell::new(Fifo::new())),
            sessions: Vec::new(),
            stats: IcmpStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> IcmpStats {
        self.stats
    }

    fn ensure_lower_open(&mut self) -> Result<(), ProtoError> {
        if self.conn.is_none() {
            let q = self.rx.clone();
            self.conn = Some(self.lower.open(IpProtocol::Icmp, Box::new(move |m| q.borrow_mut().add(m)))?);
        }
        Ok(())
    }

    /// Activates the responder (opens the lower conn) without starting a
    /// ping session — every host should call this once.
    pub fn activate(&mut self) -> Result<(), ProtoError> {
        self.ensure_lower_open()
    }
}

impl<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>> Protocol for Icmp<L> {
    /// The ping identifier to claim.
    type Pattern = u16;
    type Peer = Ipv4Addr;
    type Incoming = EchoReply;
    type ConnId = IcmpConn;

    fn open(&mut self, ident: u16, handler: Handler<EchoReply>) -> Result<IcmpConn, ProtoError> {
        self.ensure_lower_open()?;
        if self.sessions.iter().any(|s| s.ident == ident) {
            return Err(ProtoError::AlreadyOpen);
        }
        self.sessions.push(Session { ident, handler });
        Ok(IcmpConn(ident))
    }

    /// Sends an echo request carrying `payload`; the first two bytes of
    /// `payload` are used as the sequence number if present... no —
    /// `send` uses an internal sequence of 0; use [`Ping`] for numbered
    /// probes.
    fn send(
        &mut self,
        conn: IcmpConn,
        to: Ipv4Addr,
        payload: impl Into<PacketBuf>,
    ) -> Result<(), ProtoError> {
        self.send_request(conn, to, 0, payload.into().to_vec())
    }

    fn close(&mut self, conn: IcmpConn) -> Result<(), ProtoError> {
        let before = self.sessions.len();
        self.sessions.retain(|s| s.ident != conn.0);
        if self.sessions.len() == before {
            return Err(ProtoError::NotOpen);
        }
        Ok(())
    }

    fn step(&mut self, now: VirtualTime) -> bool {
        let mut progress = self.lower.step(now);
        loop {
            let msg = match self.rx.borrow_mut().next() {
                Some(m) => m,
                None => break,
            };
            progress = true;
            let echo = match IcmpEcho::decode(&msg.payload.bytes()) {
                Ok(e) => e,
                Err(_) => {
                    self.stats.bad += 1;
                    continue;
                }
            };
            if echo.is_request {
                // Answer automatically, as every live host does.
                self.host.charge(Work::Checksum(msg.payload.len()));
                let reply = echo.reply();
                if let (Some(conn), Ok(bytes)) = (self.conn, reply.encode()) {
                    let _ = self.lower.send(conn, msg.src, bytes);
                    self.stats.requests_answered += 1;
                }
            } else {
                if let Some(sess) = self.sessions.iter_mut().find(|s| s.ident == echo.ident) {
                    self.stats.replies_delivered += 1;
                    (sess.handler)(EchoReply { from: msg.src, seq: echo.seq, payload: echo.payload });
                }
            }
        }
        progress
    }
}

impl<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>> Icmp<L> {
    /// Sends one numbered echo request.
    pub fn send_request(
        &mut self,
        conn: IcmpConn,
        to: Ipv4Addr,
        seq: u16,
        payload: Vec<u8>,
    ) -> Result<(), ProtoError> {
        if !self.sessions.iter().any(|s| s.ident == conn.0) {
            return Err(ProtoError::NotOpen);
        }
        let lower_conn = self.conn.ok_or(ProtoError::NotOpen)?;
        let req = IcmpEcho { is_request: true, ident: conn.0, seq, payload };
        let bytes = req.encode().map_err(|_| ProtoError::TooBig)?;
        self.host.charge(Work::Checksum(bytes.len()));
        self.lower.send(lower_conn, to, bytes)
    }
}

impl<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming> + fmt::Debug> fmt::Debug
    for Icmp<L>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Icmp(sessions={}, over {:?})", self.sessions.len(), self.lower)
    }
}

/// A convenience ping client: sends numbered probes, records round-trip
/// times against the virtual clock.
pub struct Ping {
    conn: IcmpConn,
    replies: Rc<RefCell<Vec<EchoReply>>>,
    sent: Vec<(u16, VirtualTime)>,
    next_seq: u16,
}

impl Ping {
    /// Claims `ident` on the given ICMP layer.
    pub fn new<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>>(
        icmp: &mut Icmp<L>,
        ident: u16,
    ) -> Result<Ping, ProtoError> {
        let replies = Rc::new(RefCell::new(Vec::new()));
        let r = replies.clone();
        let conn = icmp.open(ident, Box::new(move |rep| r.borrow_mut().push(rep)))?;
        Ok(Ping { conn, replies, sent: Vec::new(), next_seq: 0 })
    }

    /// Sends the next probe at time `now`.
    pub fn probe<L: Protocol<Pattern = IpProtocol, Peer = Ipv4Addr, Incoming = IpIncoming>>(
        &mut self,
        icmp: &mut Icmp<L>,
        to: Ipv4Addr,
        now: VirtualTime,
    ) -> Result<u16, ProtoError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        icmp.send_request(self.conn, to, seq, b"foxnet ping".to_vec())?;
        self.sent.push((seq, now));
        Ok(seq)
    }

    /// Round-trip times of answered probes, as (seq, rtt) pairs computed
    /// at `now` for replies received so far.
    pub fn rtts(
        &self,
        now_received: &dyn Fn(u16) -> Option<VirtualTime>,
    ) -> Vec<(u16, foxbasis::time::VirtualDuration)> {
        self.sent
            .iter()
            .filter_map(|(seq, t0)| now_received(*seq).map(|t1| (*seq, t1.saturating_since(*t0))))
            .collect()
    }

    /// Replies received so far.
    pub fn replies(&self) -> Vec<EchoReply> {
        self.replies.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::Dev;
    use crate::eth::Eth;
    use crate::ip::{Ip, IpConfig};
    use foxwire::ether::EthAddr;
    use simnet::SimNet;

    type Stack = Icmp<Ip<Eth<Dev>>>;

    fn station(net: &SimNet, id: u8) -> Stack {
        let host = HostHandle::free();
        let mac = EthAddr::host(id);
        let eth = Eth::new(Dev::new(net.attach(mac), host.clone()), mac, host.clone());
        let ip = Ip::new(eth, mac, IpConfig::isolated(Ipv4Addr::new(10, 0, 0, id)), host.clone());
        Icmp::new(ip, host)
    }

    fn settle(net: &SimNet, stacks: &mut [&mut Stack]) {
        for _ in 0..100 {
            let mut progress = false;
            for s in stacks.iter_mut() {
                progress |= s.step(net.now());
            }
            if let Some(t) = net.next_delivery() {
                net.advance_to(t);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    #[test]
    fn ping_round_trip() {
        let net = SimNet::ethernet_10mbps(21);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        b.activate().unwrap();
        let mut ping = Ping::new(&mut a, 0x1234).unwrap();
        ping.probe(&mut a, Ipv4Addr::new(10, 0, 0, 2), net.now()).unwrap();
        settle(&net, &mut [&mut a, &mut b]);
        let replies = ping.replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].from, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(replies[0].seq, 0);
        assert_eq!(replies[0].payload, b"foxnet ping");
        assert_eq!(b.stats().requests_answered, 1);
        assert_eq!(a.stats().replies_delivered, 1);
    }

    #[test]
    fn multiple_probes_sequence() {
        let net = SimNet::ethernet_10mbps(21);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        b.activate().unwrap();
        let mut ping = Ping::new(&mut a, 1).unwrap();
        for _ in 0..4 {
            ping.probe(&mut a, Ipv4Addr::new(10, 0, 0, 2), net.now()).unwrap();
            settle(&net, &mut [&mut a, &mut b]);
        }
        let seqs: Vec<u16> = ping.replies().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replies_with_unknown_ident_ignored() {
        let net = SimNet::ethernet_10mbps(21);
        let mut a = station(&net, 1);
        let mut b = station(&net, 2);
        b.activate().unwrap();
        let mut ping = Ping::new(&mut a, 77).unwrap();
        ping.probe(&mut a, Ipv4Addr::new(10, 0, 0, 2), net.now()).unwrap();
        // Drop the session before the reply lands.
        a.close(IcmpConn(77)).unwrap();
        settle(&net, &mut [&mut a, &mut b]);
        assert_eq!(a.stats().replies_delivered, 0);
        let _ = ping;
    }

    #[test]
    fn duplicate_ident_rejected() {
        let net = SimNet::ethernet_10mbps(21);
        let mut a = station(&net, 1);
        Ping::new(&mut a, 5).unwrap();
        assert!(Ping::new(&mut a, 5).is_err());
    }
}
