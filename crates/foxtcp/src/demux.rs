//! Keyed segment demultiplexing: (local port, remote address, remote
//! port) → connection, in O(1).
//!
//! The paper's Connection module keeps "a list of open connections";
//! with one or two connections per host (all Table 1 ever needed) a
//! linear scan per segment is free, but at N connections every arrival
//! costs O(N) — exactly the hot path Laminar identifies as dominating
//! structured-TCP scaling. This table replaces those scans:
//!
//! * **flows** — established/embryonic connections, keyed by
//!   `(local port, hash(remote addr), remote port)`. The address is
//!   keyed by its [`IpAux::hash`](foxproto::aux::IpAux::hash) value, so
//!   the table is address-type-agnostic; hash collisions are resolved
//!   by the caller's `verify` closure, which re-checks full address
//!   equality (and any state predicate) against the TCB.
//! * **listeners** — connections opened passively (no remote), keyed by
//!   local port.
//! * **ports** — local-port reference counts, for ephemeral allocation.
//!
//! One [`FlatIndex`] per namespace, the connection id its value: the
//! candidates for a key are its entries in insertion order, filing a
//! connection is one insert and unfiling it one remove, each one hashed
//! probe. Only the engine's `new_conn` files, and it files ids in
//! creation order, so a key's first verified candidate is the oldest —
//! the same connection the old front-to-back scan found: lookup results
//! are bit-for-bit unchanged, only cheaper.
//!
//! A run of colliding keys costs its length. A peer files flows only
//! through a listener, and the children it makes that no user has
//! adopted are bounded by the listener's backlog, so that is what an
//! attacker can make collide; a keyed hash no attacker can aim at waits
//! for a per-host secret (DESIGN.md §5.7).

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use foxbasis::flat::{FlatIndex, FlatKey};

/// A flow's key: `(local port, hash(remote addr), remote port)`. Packed
/// to 4-byte alignment, so that a `(FlowKey, id)` entry is 16 bytes.
#[derive(Copy, Clone, PartialEq, Eq)]
#[repr(C, packed(4))]
struct FlowKey {
    peer: u64,
    local_port: u16,
    remote_port: u16,
}

impl FlowKey {
    fn new(local_port: u16, (peer, remote_port): (u64, u16)) -> FlowKey {
        FlowKey { peer, local_port, remote_port }
    }
}

impl FlatKey for FlowKey {
    /// Local port 0 is never bound.
    const EMPTY: FlowKey = FlowKey { peer: 0, local_port: 0, remote_port: 0 };

    fn hash64(self) -> u64 {
        self.peer ^ (u64::from(self.local_port) << 16 | u64::from(self.remote_port))
    }
}

/// Operation counters (the `tables -- scale` experiment reports these).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DemuxStats {
    /// Lookups performed (flow + listener).
    pub lookups: u64,
    /// Candidates examined across all lookups. With a healthy table
    /// this stays ~1 per lookup however many connections exist; the
    /// linear scan it replaces examined ~N/2.
    pub steps: u64,
}

/// The demux table. It speaks the engine's connection ids only: where a
/// connection sits in the engine's table is the engine's business.
#[derive(Default)]
pub struct Demux {
    flows: FlatIndex<FlowKey, u32>,
    /// Local port → id.
    listeners: FlatIndex<u16, u32>,
    /// Local port → connections using it.
    ports: FlatIndex<u16, u32>,
    stats: DemuxStats,
}

impl Demux {
    /// An empty table.
    pub fn new() -> Demux {
        Demux::default()
    }

    /// Operation counters.
    pub fn stats(&self) -> DemuxStats {
        self.stats
    }

    /// Registers a connection. `flow` is `(hash(remote addr), remote
    /// port)` for connections with a fixed peer; `None` for listeners.
    pub fn insert(&mut self, id: u32, local_port: u16, flow: Option<(u64, u16)>) {
        match self.ports.get_mut(&local_port) {
            Some(n) => *n += 1,
            None => self.ports.insert(local_port, 1),
        }
        match flow {
            Some(flow) => self.flows.insert(FlowKey::new(local_port, flow), id),
            None => self.listeners.insert(local_port, id),
        }
    }

    /// Unregisters a connection; `flow` must match what `insert` got.
    pub fn remove(&mut self, id: u32, local_port: u16, flow: Option<(u64, u16)>) {
        if let Some(n) = self.ports.get_mut(&local_port) {
            *n -= 1;
            if *n == 0 {
                self.ports.remove_where(&local_port, |_| true);
            }
        }
        match flow {
            Some(flow) => self.flows.remove_where(&FlowKey::new(local_port, flow), |&v| v == id),
            None => self.listeners.remove_where(&local_port, |&v| v == id),
        };
    }

    /// Any connection (in any state) using `local_port`?
    pub fn port_in_use(&self, local_port: u16) -> bool {
        self.ports.get(&local_port).is_some()
    }

    /// True if `id` is filed under exactly this key.
    pub fn files(&self, id: u32, local_port: u16, flow: Option<(u64, u16)>) -> bool {
        match flow {
            Some(flow) => self.flows.find(&FlowKey::new(local_port, flow), |&v| v == id).is_some(),
            None => self.listeners.find(&local_port, |&v| v == id).is_some(),
        }
    }

    /// Finds the first (oldest) flow connection matching the key that
    /// `verify(id)` accepts — the closure re-checks full address
    /// equality against the TCB, making hash collisions harmless.
    pub fn lookup_flow(
        &mut self,
        local_port: u16,
        peer: u64,
        remote_port: u16,
        mut verify: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        self.stats.lookups += 1;
        let steps = &mut self.stats.steps;
        let key = FlowKey::new(local_port, (peer, remote_port));
        self.flows
            .find(&key, |&id| {
                *steps += 1;
                verify(id)
            })
            .copied()
    }

    /// Finds the first (oldest) listener on `local_port` that
    /// `verify(id)` accepts.
    pub fn lookup_listener(&mut self, local_port: u16, mut verify: impl FnMut(u32) -> bool) -> Option<u32> {
        self.stats.lookups += 1;
        let steps = &mut self.stats.steps;
        self.listeners
            .find(&local_port, |&id| {
                *steps += 1;
                verify(id)
            })
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_lookup_finds_oldest_verified_candidate() {
        let mut d = Demux::new();
        d.insert(7, 2000, Some((0xabc, 5000)));
        // Enough flows between the two to grow the index four times:
        // growth keeps a key's order.
        for other in 0..20 {
            d.insert(100 + other, 2000, Some((0xabc, 6000 + other as u16)));
        }
        d.insert(9, 2000, Some((0xabc, 5000))); // same bucket (collision or dup key)

        // Verify rejects id 7 (e.g. state mismatch): falls to 9.
        assert_eq!(d.lookup_flow(2000, 0xabc, 5000, |id| id != 7), Some(9));
        // Verify accepts all: oldest wins, like the old front-to-back scan.
        assert_eq!(d.lookup_flow(2000, 0xabc, 5000, |_| true), Some(7));
        assert_eq!(d.stats().lookups, 2);
        assert_eq!(d.stats().steps, 3);
    }

    #[test]
    fn listener_and_flow_namespaces_are_distinct() {
        let mut d = Demux::new();
        d.insert(1, 2000, None);
        d.insert(2, 2000, Some((5, 6)));
        assert_eq!(d.lookup_listener(2000, |_| true), Some(1));
        assert_eq!(d.lookup_flow(2000, 5, 6, |_| true), Some(2));
        assert_eq!(d.lookup_flow(2000, 5, 7, |_| true), None);
        assert_eq!(d.lookup_listener(2001, |_| true), None);
    }

    #[test]
    fn remove_unfiles_the_id_and_keeps_shared_ports() {
        let mut d = Demux::new();
        d.insert(1, 1000, Some((1, 1)));
        d.insert(2, 1000, Some((2, 2)));
        d.insert(3, 1001, None);
        assert!(d.port_in_use(1000));
        d.remove(1, 1000, Some((1, 1)));
        assert!(d.port_in_use(1000), "port refcount survives one of two users");
        assert_eq!(d.lookup_flow(1000, 1, 1, |_| true), None);
        assert_eq!(d.lookup_flow(1000, 2, 2, |_| true), Some(2));
        d.remove(2, 1000, Some((2, 2)));
        assert!(!d.port_in_use(1000));
        assert_eq!(d.lookup_flow(1000, 2, 2, |_| true), None);
        assert_eq!(d.lookup_listener(1001, |_| true), Some(3), "other ports untouched");
    }

    /// The mixer's guard: 4 096 flows shaped like the benchmark's — one
    /// peer, one port on one side and sequential ephemeral ports on the
    /// other, as the client and the server see them — never make a
    /// lookup read more than 16 slots.
    #[test]
    fn sequential_ports_probe_at_most_16_slots() {
        let peer = foxwire::ipv4::Ipv4Addr::new(10, 0, 0, 2).hash();
        let ephemeral = || (0..4096u16).map(|i| 49152 + i);
        let client: Vec<FlowKey> = ephemeral().map(|p| FlowKey::new(p, (peer, 5001))).collect();
        let server: Vec<FlowKey> = ephemeral().map(|p| FlowKey::new(5001, (peer, p))).collect();
        for keys in [client, server] {
            let mut d = Demux::new();
            for (id, k) in keys.iter().enumerate() {
                d.insert(id as u32, k.local_port, Some((k.peer, k.remote_port)));
            }
            let worst = keys.iter().map(|k| d.flows.probes(k)).max();
            assert!(worst.is_some_and(|w| w <= 16), "a lookup reads {worst:?} slots");
        }
        assert_eq!(std::mem::size_of::<(FlowKey, u32)>(), 16);
    }

    #[test]
    fn port_refcounts_span_flows_and_listeners() {
        let mut d = Demux::new();
        d.insert(1, 2000, None);
        d.insert(2, 2000, Some((9, 9)));
        d.remove(1, 2000, None);
        assert!(d.port_in_use(2000));
        d.remove(2, 2000, Some((9, 9)));
        assert!(!d.port_in_use(2000));
    }
}
