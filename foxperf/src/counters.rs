//! The one place the benchmark reads the repository's counters.
//!
//! `StationStats`, `ScaleCounters`, `NetStats`, `ConnMetrics`,
//! `TcpStats`, the `buf` copy counters, `Dev::batch_counters` and the
//! host's busy time all have their own shapes today (ROADMAP item 3
//! wants one); everything else in this package sees only the flat
//! [`Exact`] record and the two small structs below, so when those
//! shapes change this file is the whole follow-up.

use crate::alloc;
use crate::station::Tally;
use foxharness::station::Station;
use foxproto::aux::IpAux;
use foxproto::dev::Dev;
use foxproto::Protocol;
use foxtcp::Tcp;
use simnet::SimNet;

macro_rules! exact_counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Every deterministic count the benchmark takes, as one flat
        /// record. All of them are exact for a seed: two runs of one
        /// commit must agree field by field.
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct Exact {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Exact {
            /// The fields by name, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Field-wise `self - earlier` (counters only grow).
            pub fn since(&self, earlier: &Exact) -> Exact {
                Exact { $($name: self.$name - earlier.$name,)* }
            }

            /// Field-wise sum.
            pub fn plus(&self, other: &Exact) -> Exact {
                Exact { $($name: self.$name + other.$name,)* }
            }
        }
    };
}

exact_counters! {
    /// Virtual microseconds on the network clock.
    virt_us,
    /// TCP segments sent, both stations, retransmissions included.
    segments_sent,
    /// TCP segments received, both stations.
    segments_received,
    /// Payload bytes TCP transmitted, retransmissions included.
    payload_bytes_sent,
    /// Segments retransmitted.
    retransmits,
    /// Fast retransmissions.
    fast_retransmits,
    /// Fast-recovery episodes entered.
    recoveries,
    /// Retransmission-timer fires that retransmitted.
    rto_fires,
    /// Segments dropped for a bad TCP checksum.
    checksum_failures,
    /// Segments the fast path handled.
    fastpath_hits,
    /// Segments that fell through to the full DAG (0 where no live
    /// connection exposes the engine's `ConnMetrics`).
    fastpath_misses,
    /// Timers armed on the wheels.
    timer_arms,
    /// Timers cancelled.
    timer_cancels,
    /// Timers fired.
    timer_fires,
    /// Wheel entries cascaded between levels.
    timer_cascades,
    /// Demultiplexer lookups.
    demux_lookups,
    /// Candidates examined across those lookups.
    demux_steps,
    /// Frames handed to the wire.
    frames_sent,
    /// Frames delivered into receive queues.
    frames_delivered,
    /// Frames the fault injector dropped.
    frames_dropped_fault,
    /// Frames the fault injector corrupted (each fails Ethernet's FCS).
    frames_corrupted,
    /// Arrivals lost to a full receive queue.
    frames_dropped_overflow,
    /// Bytes handed to the wire: headers, ACKs and retransmissions too.
    wire_bytes,
    /// Real payload memcpys (`foxbasis::buf`).
    copies,
    /// Bytes those memcpys moved.
    copy_bytes,
    /// Simulated CPU nanoseconds the first station's host was busy.
    host0_busy_ns,
    /// Heap allocation calls.
    allocs,
    /// Heap bytes requested.
    alloc_bytes,
}

impl Exact {
    /// The record with the heap counters zeroed: what two reps must
    /// still agree on when something that allocates on its own schedule
    /// (a recording event ring filling up) runs alongside them.
    pub fn without_heap(&self) -> Exact {
        Exact { allocs: 0, alloc_bytes: 0, ..*self }
    }
}

/// Reads every counter reachable through the `Station` face, the
/// network and the thread's copy/allocation counters. `tallies[i]`
/// belongs to `stations[i]` and supplies the connection handles through
/// which a fox station exposes its engine's `ConnMetrics`.
pub fn read_exact(net: &SimNet, stations: &[&dyn Station], tallies: &[&Tally]) -> Exact {
    let mut e = Exact { virt_us: net.now().as_micros(), ..Exact::default() };
    for (s, tally) in stations.iter().zip(tallies) {
        let st = s.stats();
        e.segments_sent += st.segments_sent;
        e.segments_received += st.segments_received;
        e.payload_bytes_sent += st.bytes_sent;
        e.retransmits += st.retransmits;
        e.fast_retransmits += st.fast_retransmits;
        e.recoveries += st.recoveries;
        e.rto_fires += st.rto_fires;
        e.checksum_failures += st.checksum_failures;
        e.fastpath_hits += st.fastpath_hits;
        // The engine-wide miss count is only published inside a live
        // connection's metrics; try the handles most likely to be alive.
        let live = [tally.last_connect.get(), tally.last_accept.get(), Some(0)];
        if let Some(m) = live.iter().flatten().find_map(|&h| s.metrics(h)) {
            e.fastpath_misses += m.fastpath_misses;
        }
        let sc = s.scale_counters();
        e.timer_arms += sc.timer_arms;
        e.timer_cancels += sc.timer_cancels;
        e.timer_fires += sc.timer_fires;
        e.timer_cascades += sc.timer_cascades;
        e.demux_lookups += sc.demux_lookups;
        e.demux_steps += sc.demux_steps;
    }
    let n = net.stats();
    e.frames_sent = n.frames_sent;
    e.frames_delivered = n.frames_delivered;
    e.frames_dropped_fault = n.frames_dropped_fault;
    e.frames_corrupted = n.frames_corrupted;
    e.frames_dropped_overflow = n.frames_dropped_overflow;
    e.wire_bytes = n.bytes_sent;
    let c = foxbasis::buf::copy_stats();
    e.copies = c.copies;
    e.copy_bytes = c.bytes;
    if let Some(s) = stations.first() {
        e.host0_busy_ns = s.host().with(|h| h.total_busy_nanos().as_nanos());
    }
    let a = alloc::snapshot();
    e.allocs = a.allocs;
    e.alloc_bytes = a.bytes;
    e
}

/// What a bare `Tcp` engine (no `Station` around it) counts — the only
/// place `TcpStats` is reachable, so the ladder's own stacks supply
/// these.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Segments sent.
    pub segments_sent: u64,
    /// Actions executed through the `to_do` queues.
    pub actions: u64,
    /// Data segments that arrived out of order.
    pub out_of_order: u64,
    /// Payload bytes delivered to the user.
    pub bytes_delivered: u64,
}

impl EngineCounts {
    /// Field-wise sum.
    pub fn plus(&self, o: &EngineCounts) -> EngineCounts {
        EngineCounts {
            segments_sent: self.segments_sent + o.segments_sent,
            actions: self.actions + o.actions,
            out_of_order: self.out_of_order + o.out_of_order,
            bytes_delivered: self.bytes_delivered + o.bytes_delivered,
        }
    }
}

/// The engine's own counters.
pub fn engine_counts<L, A>(tcp: &Tcp<L, A>) -> EngineCounts
where
    L: Protocol,
    A: IpAux<Address = L::Peer, Incoming = L::Incoming>,
{
    let s = tcp.stats();
    EngineCounts {
        segments_sent: s.segments_sent,
        actions: s.actions_executed,
        out_of_order: s.out_of_order,
        bytes_delivered: s.bytes_delivered,
    }
}

/// Frames a device received and the GRO batches it drained them in:
/// useful outcomes and attempts of receive batching.
pub fn dev_rx_batching(dev: &Dev) -> (u64, u64) {
    let (_sent, received) = dev.counters();
    let (rx_batches, _doorbells) = dev.batch_counters();
    (received, rx_batches)
}
