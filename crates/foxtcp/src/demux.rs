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
//! One ordered set per namespace, its entries the key followed by the
//! connection id: the candidates for a key are a `range` over the id
//! suffix, filing a connection is one insert and unfiling it one remove,
//! and no key owns a heap object of its own. Ids ascend in creation
//! order, so the first verified candidate is the same connection the old
//! front-to-back scan found — lookup results are bit-for-bit unchanged,
//! only cheaper.

// rx_panic (DESIGN.md §5.8): a segment from the wire reaches this module.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::{BTreeMap, BTreeSet};

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
    /// `(local port, hash(remote addr), remote port, id)`.
    flows: BTreeSet<(u16, u64, u16, u32)>,
    /// `(local port, id)`.
    listeners: BTreeSet<(u16, u32)>,
    ports: BTreeMap<u16, usize>,
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
        *self.ports.entry(local_port).or_insert(0) += 1;
        match flow {
            Some((peer, remote_port)) => self.flows.insert((local_port, peer, remote_port, id)),
            None => self.listeners.insert((local_port, id)),
        };
    }

    /// Unregisters a connection; `flow` must match what `insert` got.
    pub fn remove(&mut self, id: u32, local_port: u16, flow: Option<(u64, u16)>) {
        if let Some(n) = self.ports.get_mut(&local_port) {
            *n -= 1;
            if *n == 0 {
                self.ports.remove(&local_port);
            }
        }
        match flow {
            Some((peer, remote_port)) => self.flows.remove(&(local_port, peer, remote_port, id)),
            None => self.listeners.remove(&(local_port, id)),
        };
    }

    /// Any connection (in any state) using `local_port`?
    pub fn port_in_use(&self, local_port: u16) -> bool {
        self.ports.contains_key(&local_port)
    }

    /// True if `id` is filed under exactly this key.
    pub fn files(&self, id: u32, local_port: u16, flow: Option<(u64, u16)>) -> bool {
        match flow {
            Some((peer, remote_port)) => self.flows.contains(&(local_port, peer, remote_port, id)),
            None => self.listeners.contains(&(local_port, id)),
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
        verify: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        self.stats.lookups += 1;
        let ids = self
            .flows
            .range((local_port, peer, remote_port, 0)..=(local_port, peer, remote_port, u32::MAX))
            .map(|&(_, _, _, id)| id);
        first_verified(ids, &mut self.stats.steps, verify)
    }

    /// Finds the first (oldest) listener on `local_port` that
    /// `verify(id)` accepts.
    pub fn lookup_listener(&mut self, local_port: u16, verify: impl FnMut(u32) -> bool) -> Option<u32> {
        self.stats.lookups += 1;
        let ids = self.listeners.range((local_port, 0)..=(local_port, u32::MAX)).map(|&(_, id)| id);
        first_verified(ids, &mut self.stats.steps, verify)
    }
}

/// The first of a key's ids that `verify` accepts, counting each
/// candidate examined.
fn first_verified(
    mut ids: impl Iterator<Item = u32>,
    steps: &mut u64,
    mut verify: impl FnMut(u32) -> bool,
) -> Option<u32> {
    ids.find(|&id| {
        *steps += 1;
        verify(id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_lookup_finds_oldest_verified_candidate() {
        let mut d = Demux::new();
        d.insert(7, 2000, Some((0xabc, 5000)));
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
