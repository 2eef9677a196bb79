//! The ARP cache (RFC 826) used by the Ip layer.
//!
//! Policy follows the smoltcp conventions the ecosystem settled on:
//! cached entries expire after one minute, requests for one protocol
//! address are sent at most once per second, and packets awaiting
//! resolution are queued (bounded) rather than dropped.

use foxbasis::buf::PacketBuf;
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxwire::arp::{ArpOp, ArpPacket};
use foxwire::ether::EthAddr;
use foxwire::ipv4::Ipv4Addr;
use std::collections::BTreeMap;

/// How long a learned mapping stays valid.
pub const ENTRY_TTL: VirtualDuration = VirtualDuration::from_secs(60);
/// Minimum spacing between requests for the same address.
pub const REQUEST_INTERVAL: VirtualDuration = VirtualDuration::from_secs(1);
/// Most packets queued per unresolved address.
pub const MAX_PENDING: usize = 8;

struct Entry {
    mac: EthAddr,
    expires: VirtualTime,
}

struct PendingSlot {
    packets: Vec<PacketBuf>,
    last_request: VirtualTime,
}

/// What the cache wants done in response to an event.
#[derive(Debug, PartialEq, Eq)]
pub enum ArpEffect {
    /// Transmit this ARP packet (to the broadcast address for requests,
    /// unicast for replies).
    Transmit(ArpPacket, EthAddr),
    /// These queued IP packets are now deliverable to the given MAC.
    Release(Vec<PacketBuf>, EthAddr),
}

/// The address-resolution cache.
pub struct ArpCache {
    local_eth: EthAddr,
    local_ip: Ipv4Addr,
    entries: BTreeMap<Ipv4Addr, Entry>,
    pending: BTreeMap<Ipv4Addr, PendingSlot>,
    /// Requests transmitted (for tests and stats).
    pub requests_sent: u64,
    /// Replies transmitted.
    pub replies_sent: u64,
}

impl ArpCache {
    /// A cache answering for (`local_eth`, `local_ip`).
    pub fn new(local_eth: EthAddr, local_ip: Ipv4Addr) -> ArpCache {
        ArpCache {
            local_eth,
            local_ip,
            entries: BTreeMap::new(),
            pending: BTreeMap::new(),
            requests_sent: 0,
            replies_sent: 0,
        }
    }

    /// Looks up `ip`; on a miss, queues `packet` and possibly emits a
    /// request. Returns the effects to perform. This is the slow path:
    /// a sender with a packet per call asks [`ArpCache::lookup`] first
    /// and, on a hit, transmits without building an effect list.
    pub fn resolve(
        &mut self,
        now: VirtualTime,
        ip: Ipv4Addr,
        packet: impl Into<PacketBuf>,
    ) -> Vec<ArpEffect> {
        let packet = packet.into();
        if let Some(e) = self.entries.get(&ip) {
            if e.expires > now {
                return vec![ArpEffect::Release(vec![packet], e.mac)];
            }
            self.entries.remove(&ip);
        }
        let slot = self.pending.entry(ip).or_insert(PendingSlot {
            packets: Vec::new(),
            // Force an immediate first request.
            last_request: VirtualTime::ZERO,
        });
        if slot.packets.len() < MAX_PENDING {
            slot.packets.push(packet);
        }
        let first_ever = slot.last_request == VirtualTime::ZERO;
        if first_ever || now.saturating_since(slot.last_request) >= REQUEST_INTERVAL {
            slot.last_request = if now == VirtualTime::ZERO {
                // Distinguish "requested at t=0" from "never requested".
                VirtualTime::from_micros(1)
            } else {
                now
            };
            self.requests_sent += 1;
            vec![ArpEffect::Transmit(
                ArpPacket::request(self.local_eth, self.local_ip, ip),
                EthAddr::BROADCAST,
            )]
        } else {
            Vec::new()
        }
    }

    /// Processes a received ARP packet. Learns the sender mapping,
    /// answers requests addressed to us, and releases queued packets.
    pub fn input(&mut self, now: VirtualTime, packet: &ArpPacket) -> Vec<ArpEffect> {
        let mut effects = Vec::new();
        // Learn the sender (both from requests and replies — including
        // gratuitous ones).
        self.entries.insert(packet.sender_ip, Entry { mac: packet.sender_eth, expires: now + ENTRY_TTL });
        if let Some(slot) = self.pending.remove(&packet.sender_ip) {
            if !slot.packets.is_empty() {
                effects.push(ArpEffect::Release(slot.packets, packet.sender_eth));
            }
        }
        if packet.op == ArpOp::Request && packet.target_ip == self.local_ip {
            self.replies_sent += 1;
            effects.push(ArpEffect::Transmit(packet.reply_from(self.local_eth), packet.sender_eth));
        }
        effects
    }

    /// Drops pending queues whose requests have gone unanswered past
    /// `timeout`; returns how many queued packets went with them.
    pub fn expire_pending(&mut self, now: VirtualTime, timeout: VirtualDuration) -> u64 {
        if self.pending.is_empty() {
            return 0;
        }
        let mut dropped = 0;
        self.pending.retain(|_, slot| {
            let dead = now.saturating_since(slot.last_request) > timeout;
            if dead {
                dropped += slot.packets.len() as u64;
            }
            !dead
        });
        dropped
    }

    /// Whether any next hop is waiting for an answer (and so for
    /// [`ArpCache::expire_pending`]).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// A snapshot lookup without side effects (and without allocating):
    /// the live mapping for `ip`, if there is one. `Ip` sends every
    /// packet whose next hop this answers straight to the returned
    /// address; only a miss goes through [`ArpCache::resolve`].
    pub fn lookup(&self, now: VirtualTime, ip: Ipv4Addr) -> Option<EthAddr> {
        self.entries.get(&ip).filter(|e| e.expires > now).map(|e| e.mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_ETH: EthAddr = EthAddr::host(1);
    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_ETH: EthAddr = EthAddr::host(2);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::from_millis(ms)
    }

    #[test]
    fn miss_queues_and_requests() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        let fx = c.resolve(t(0), B_IP, b"pkt1".to_vec());
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            ArpEffect::Transmit(p, dst) => {
                assert_eq!(p.op, ArpOp::Request);
                assert_eq!(p.target_ip, B_IP);
                assert_eq!(*dst, EthAddr::BROADCAST);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn requests_are_rate_limited() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        assert_eq!(c.resolve(t(0), B_IP, b"p1".to_vec()).len(), 1);
        assert!(c.resolve(t(500), B_IP, b"p2".to_vec()).is_empty());
        assert_eq!(c.resolve(t(1500), B_IP, b"p3".to_vec()).len(), 1);
        assert_eq!(c.requests_sent, 2);
    }

    #[test]
    fn reply_releases_queued_packets() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        c.resolve(t(0), B_IP, b"p1".to_vec());
        c.resolve(t(100), B_IP, b"p2".to_vec());
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_eth: B_ETH,
            sender_ip: B_IP,
            target_eth: A_ETH,
            target_ip: A_IP,
        };
        let fx = c.input(t(200), &reply);
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            ArpEffect::Release(pkts, mac) => {
                assert_eq!(pkts.len(), 2);
                assert_eq!(*mac, B_ETH);
            }
            other => panic!("expected release, got {other:?}"),
        }
        // Subsequent resolutions hit the cache.
        let fx = c.resolve(t(300), B_IP, b"p3".to_vec());
        assert!(matches!(&fx[0], ArpEffect::Release(p, m) if p.len() == 1 && *m == B_ETH));
    }

    #[test]
    fn requests_to_us_are_answered_and_learned() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        let req = ArpPacket::request(B_ETH, B_IP, A_IP);
        let fx = c.input(t(0), &req);
        assert!(fx.iter().any(|e| matches!(e,
            ArpEffect::Transmit(p, dst) if p.op == ArpOp::Reply && p.sender_eth == A_ETH && *dst == B_ETH)));
        // We also learned B from its request.
        assert_eq!(c.lookup(t(1), B_IP), Some(B_ETH));
    }

    #[test]
    fn requests_for_others_are_ignored_but_learned() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        let req = ArpPacket::request(B_ETH, B_IP, Ipv4Addr::new(10, 0, 0, 3));
        let fx = c.input(t(0), &req);
        assert!(fx.is_empty());
        assert_eq!(c.lookup(t(1), B_IP), Some(B_ETH));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        c.input(t(0), &ArpPacket::request(B_ETH, B_IP, Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(c.lookup(t(59_999), B_IP), Some(B_ETH));
        assert_eq!(c.lookup(t(60_000), B_IP), None);
        // A resolve after expiry re-requests.
        let fx = c.resolve(t(60_001), B_IP, b"p".to_vec());
        assert!(matches!(&fx[0], ArpEffect::Transmit(..)));
    }

    #[test]
    fn pending_queue_is_bounded() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        for i in 0..20 {
            c.resolve(t(i), B_IP, vec![i as u8]);
        }
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_eth: B_ETH,
            sender_ip: B_IP,
            target_eth: A_ETH,
            target_ip: A_IP,
        };
        let fx = c.input(t(100), &reply);
        match &fx[0] {
            ArpEffect::Release(pkts, _) => assert_eq!(pkts.len(), MAX_PENDING),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn unanswered_pending_expires() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        c.resolve(t(0), B_IP, b"p1".to_vec());
        c.resolve(t(100), B_IP, b"p2".to_vec());
        assert_eq!(c.expire_pending(t(1000), VirtualDuration::from_secs(3)), 0);
        assert_eq!(c.expire_pending(t(10_000), VirtualDuration::from_secs(3)), 2, "both packets, one hop");
        assert_eq!(c.resolve(t(10_001), B_IP, b"p3".to_vec()).len(), 1, "a fresh request");
    }

    /// A pending queue outlives its timeout by nothing and falls short of
    /// it by nothing: it is kept at the exact deadline and dropped one
    /// microsecond past it.
    #[test]
    fn pending_expires_just_past_its_timeout() {
        let mut c = ArpCache::new(A_ETH, A_IP);
        c.resolve(t(500), B_IP, b"p".to_vec());
        let timeout = VirtualDuration::from_secs(3);
        assert_eq!(c.expire_pending(t(3_500), timeout), 0, "kept at the deadline");
        assert!(c.has_pending());
        assert_eq!(c.expire_pending(t(3_500) + VirtualDuration::from_micros(1), timeout), 1);
        assert!(!c.has_pending());
    }
}
