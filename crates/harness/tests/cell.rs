//! A [`Cell`] is one description with one way to run it: the traced run
//! is the run, and a replay that differs says which cell to re-run.

use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use foxharness::{BenchProfile, Cell};
use simnet::FaultConfig;

/// Recording must not move the virtual clock: `bulk` and `traced_bulk`
/// of one cell agree on the whole result — bytes, elapsed time, both
/// stations' counters, the wire's — on both profiles and under loss.
#[test]
fn a_traced_run_is_the_run() {
    let lossy = FaultConfig { drop_chance: 0.05, ..FaultConfig::default() };
    let cells = [
        BenchProfile::Paper1994.cell(StackKind::FoxStandard, 7),
        BenchProfile::Modern.cell(StackKind::FoxStandard, 7),
        BenchProfile::Modern.cell(StackKind::XKernel, 7),
        exp::loss_cell(StackKind::FoxStandard, lossy, exp::loss_matrix_config(), 7),
    ];
    for cell in cells {
        let (plain, traced) = (cell.bulk(60_000), cell.traced_bulk(60_000));
        assert_eq!(plain.bytes, 60_000, "{cell:?}");
        assert!(!traced.events.is_empty() && traced.pcap.frame_count() > 0, "{cell:?}");
        assert_eq!(plain, traced.bulk, "recording changed the outcome of {cell:?}");
    }
}

/// A replay that differs fails, and the failure prints the cell.
#[test]
#[should_panic(expected = "sender: FoxSpecial, receiver: XKernel")]
fn replayed_names_the_cell_whose_two_runs_differ() {
    let cell =
        Cell { receiver: StackKind::XKernel, ..BenchProfile::Paper1994.cell(StackKind::FoxSpecial, 3) };
    let calls = std::cell::Cell::new(0u32);
    exp::replayed(&cell, || calls.replace(calls.get() + 1));
}

#[test]
fn replayed_returns_the_result_of_an_exact_replay() {
    let cell = BenchProfile::Paper1994.cell(StackKind::FoxStandard, 3);
    assert_eq!(exp::replayed(&cell, || cell.ping(3, 64).rounds), 3);
}
