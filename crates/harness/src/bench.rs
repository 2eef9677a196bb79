//! The two machine-and-link eras a run can model (DESIGN.md §5.10), each
//! a recipe for a [`Cell`]. Everything here stays on the virtual clock —
//! the `std::time::Instant` entries of `crates/clippy.toml` forbid wall
//! time everywhere but `tables micro` — and wall-clock measurement of
//! these profiles is foxperf's job (`foxperf/`, `BENCHMARK.json`).

use crate::cell::Cell;
use crate::experiments::paper_tcp_config;
use crate::stack::StackKind;
use foxproto::dev::BatchConfig;
use foxtcp::TcpConfig;
use simnet::{CostModel, NetConfig};

/// Which machine-and-link era a run models. The 1994 profile is
/// the paper's Table 1 setup, bit-for-bit; the modern profile is the
/// same experiment rebased onto today's constants so the fast path is
/// exercised where it matters.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BenchProfile {
    /// The paper's setup: DECstation 5000/200-class costs (µs quantum)
    /// on 10 Mb/s Ethernet, no device batching, the paper TCP config.
    Paper1994,
    /// A contemporary setup: GHz-class host costs (ns quantum,
    /// [`CostModel::modern_gbps`]) on a 1 Gb/s link
    /// ([`NetConfig::gigabit`]), GRO/TSO device batching, window
    /// scaling with large buffers, and coalesced ACKs.
    Modern,
}

impl BenchProfile {
    /// Short name used in benchmark ids.
    pub fn name(self) -> &'static str {
        match self {
            BenchProfile::Paper1994 => "1994",
            BenchProfile::Modern => "modern",
        }
    }

    /// The link this profile runs over.
    pub fn net_config(self) -> NetConfig {
        match self {
            BenchProfile::Paper1994 => NetConfig::default(),
            BenchProfile::Modern => NetConfig::gigabit(),
        }
    }

    /// The machine model for a stack kind under this profile. The 1994
    /// profile keeps the paper's asymmetry — SML costs for the Fox
    /// stacks, C costs for the x-kernel — while the modern profile puts
    /// both implementations on the same hardware.
    pub fn cost(self, kind: StackKind) -> CostModel {
        match (self, kind) {
            (BenchProfile::Paper1994, StackKind::XKernel) => CostModel::decstation_c(),
            (BenchProfile::Paper1994, _) => CostModel::decstation_sml(),
            (BenchProfile::Modern, _) => CostModel::modern_gbps(),
        }
    }

    /// The TCP configuration for this profile.
    pub fn tcp_config(self) -> TcpConfig {
        match self {
            BenchProfile::Paper1994 => paper_tcp_config(),
            // A gigabit link wants a window much wider than 64 KB
            // (wscale), ACKs coalesced across GRO bursts with a short
            // delayed-ACK backstop, and send buffers that keep the pipe
            // full. Congestion control is off on both stacks (the
            // x-kernel baseline never had any): the bench compares
            // engine processing cost with everything but the
            // implementation held equal, and an ACK-clocked slow start
            // against an 8-segment coalescer measures the coalescing
            // policy, not the engines.
            BenchProfile::Modern => TcpConfig {
                initial_window: 256 * 1024,
                send_buffer: 512 * 1024,
                window_scale: true,
                delayed_ack_ms: Some(1),
                ack_coalesce_segments: Some(8),
                congestion_control: false,
                ..TcpConfig::default()
            },
        }
    }

    /// The device batching limits for this profile. Batching stays off
    /// for 1994 — the per-batch costs are zero there anyway, and the
    /// trace must match the paper runs exactly.
    pub fn batch(self) -> BatchConfig {
        match self {
            BenchProfile::Paper1994 => BatchConfig::default(),
            BenchProfile::Modern => BatchConfig { rx_burst: 8, tx_burst: 8 },
        }
    }

    /// The whole profile as one declared run: `kind` at both ends over
    /// this profile's link, machine, TCP configuration and batching.
    pub fn cell(self, kind: StackKind, seed: u64) -> Cell {
        Cell {
            net: self.net_config(),
            batch: self.batch(),
            ..Cell::new(kind, self.cost(kind), self.tcp_config(), seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modern_profile_moves_the_bulk_workload() {
        for kind in [StackKind::FoxStandard, StackKind::XKernel] {
            let r = BenchProfile::Modern.cell(kind, 7).bulk(200_000);
            assert_eq!(r.bytes, 200_000);
            assert!(r.sender.segments_sent > 0);
            // A gigabit link with modern host costs must beat the
            // paper's 10 Mb/s Ethernet by a wide margin.
            assert!(
                r.throughput_mbps > 50.0,
                "{}: modern profile is implausibly slow: {:.2} Mb/s",
                kind.name(),
                r.throughput_mbps
            );
        }
    }

    #[test]
    fn paper_profile_matches_the_table1_setup() {
        let r = BenchProfile::Paper1994.cell(StackKind::FoxStandard, 7).bulk(100_000);
        assert_eq!(r.bytes, 100_000);
        // The 1994 fox stack runs at ~0.6 Mb/s; sanity-bound it.
        assert!(r.throughput_mbps < 5.0);
    }
}
