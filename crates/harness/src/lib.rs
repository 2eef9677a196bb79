//! # The experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (§5): stack
//! assembly (the paper's Fig. 3), a common station abstraction over the
//! Fox TCP and the x-kernel baseline, host episodes over `simnet`'s
//! discrete-event loop ([`sim`]), the workloads (bulk transfer and round-trip), a two-host
//! experiment as one declared value ([`Cell`]), and the experiments
//! themselves (Table 1, Table 2, the GC study, and the ablations).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod advpeer;
pub mod bench;
pub mod cell;
pub mod experiments;
pub mod report;
pub mod sim;
pub mod stack;
pub mod station;
pub mod workload;

pub use advpeer::{run_attack, Adversary, Attack, AttackReport};
pub use bench::BenchProfile;
pub use cell::{Cell, TracedBulk};
pub use sim::drive;
pub use stack::StackKind;
pub use station::{ConnHandle, Station};
pub use workload::{bulk_transfer, ping_pong, BulkResult, PingResult};
