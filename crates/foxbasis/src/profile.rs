//! Profiling counters — the measurement substrate behind the paper's
//! Table 2.
//!
//! The paper could not use SML/NJ's sampling profiler under Mach 3.0, so
//! it "installed hardware devices containing free-running counters that
//! can be mapped into the address space of the SML task". One call each
//! to the start/stop functions cost about **15 µs** altogether, and the
//! "counters (est.)" row of Table 2 is the estimated perturbation
//! (updates × 15 µs).
//!
//! [`Profiler`] reproduces this: protocol components charge elapsed
//! (virtual) time to an [`Account`]; when profiling is enabled, each
//! charge also books the configured counter overhead against
//! [`Account::Counters`] *and* reports it to the caller so the host cost
//! model can slow the simulated machine down by the same amount — the
//! measurement perturbs the system, as it did in 1994.

use crate::time::{NanoDuration, VirtualDuration};
use std::fmt;

/// The cost accounts of Table 2, plus `Scheduler` (which the paper left
/// unprofiled because the 15 µs update would swamp the 30 µs thread
/// switch — we keep the account but, like the paper, exclude it from the
/// printed table by default).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
#[allow(missing_docs, reason = "the account names are Table 2's row labels")]
pub enum Account {
    Tcp,
    Ip,
    EthMachInterface,
    Copy,
    Checksum,
    MachSend,
    PacketWait,
    Gc,
    Misc,
    Counters,
    Scheduler,
}

impl Account {
    /// Every account, in Table 2's row order.
    pub const ALL: [Account; 11] = [
        Account::Tcp,
        Account::Ip,
        Account::EthMachInterface,
        Account::Copy,
        Account::Checksum,
        Account::MachSend,
        Account::PacketWait,
        Account::Gc,
        Account::Misc,
        Account::Counters,
        Account::Scheduler,
    ];

    /// The row label Table 2 uses.
    pub fn label(self) -> &'static str {
        match self {
            Account::Tcp => "TCP",
            Account::Ip => "IP",
            Account::EthMachInterface => "eth, Mach interf.",
            Account::Copy => "copy",
            Account::Checksum => "checksum",
            Account::MachSend => "Mach send",
            Account::PacketWait => "packet wait",
            Account::Gc => "g. c.",
            Account::Misc => "misc.",
            Account::Counters => "counters (est.)",
            Account::Scheduler => "scheduler",
        }
    }

    fn index(self) -> usize {
        match self {
            Account::Tcp => 0,
            Account::Ip => 1,
            Account::EthMachInterface => 2,
            Account::Copy => 3,
            Account::Checksum => 4,
            Account::MachSend => 5,
            Account::PacketWait => 6,
            Account::Gc => 7,
            Account::Misc => 8,
            Account::Counters => 9,
            Account::Scheduler => 10,
        }
    }
}

/// Per-account totals (nanosecond resolution — see [`NanoDuration`]).
#[derive(Copy, Clone, Default, Debug)]
struct Slot {
    total: NanoDuration,
    updates: u64,
}

/// The counter bank.
#[derive(Clone, Debug)]
pub struct Profiler {
    enabled: bool,
    /// Virtual cost of one counter update pair (paper: 15 µs).
    update_cost: NanoDuration,
    slots: [Slot; Account::ALL.len()],
}

/// The paper's measured cost of one start/stop counter pair.
pub const PAPER_COUNTER_UPDATE_COST: NanoDuration = NanoDuration::from_micros(15);

impl Profiler {
    /// A disabled profiler: charges are still accumulated (they are
    /// cheap), but no counter overhead is booked or reported.
    pub fn disabled() -> Self {
        Profiler { enabled: false, update_cost: NanoDuration::ZERO, slots: Default::default() }
    }

    /// An enabled profiler with the paper's 15 µs update cost.
    pub fn enabled() -> Self {
        Self::with_update_cost(PAPER_COUNTER_UPDATE_COST)
    }

    /// An enabled profiler with a custom update cost.
    pub fn with_update_cost(update_cost: NanoDuration) -> Self {
        Profiler { enabled: true, update_cost, slots: Default::default() }
    }

    /// True if counter overhead is being modeled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Charges `dur` of time to `account`. Returns the *extra* time the
    /// measurement itself costs (the counter update), which the caller
    /// must add to the simulated machine's busy time. The overhead is
    /// booked under [`Account::Counters`], estimated exactly as the paper
    /// does (updates × per-update cost).
    pub fn charge(&mut self, account: Account, dur: NanoDuration) -> NanoDuration {
        let slot = &mut self.slots[account.index()];
        slot.total += dur;
        slot.updates += 1;
        if self.enabled {
            let c = &mut self.slots[Account::Counters.index()];
            c.total += self.update_cost;
            c.updates += 1;
            self.update_cost
        } else {
            NanoDuration::ZERO
        }
    }

    /// Total time booked to `account`.
    pub fn total(&self, account: Account) -> NanoDuration {
        self.slots[account.index()].total
    }

    /// Number of charges booked to `account`.
    pub fn updates(&self, account: Account) -> u64 {
        self.slots[account.index()].updates
    }

    /// Sum over all accounts.
    pub fn grand_total(&self) -> NanoDuration {
        self.slots.iter().fold(NanoDuration::ZERO, |acc, s| acc + s.total)
    }

    /// Each account's share of `wall` (the run's elapsed time), as
    /// percentages in Table 2 row order. Note the paper's totals are
    /// 100.2 % and 94.0 % — overlap and unprofiled time make the column
    /// sums inexact, and ours are also not forced to 100.
    pub fn percentages(&self, wall: VirtualDuration) -> Vec<(Account, f64)> {
        let denom = NanoDuration::from(wall).as_nanos().max(1) as f64;
        Account::ALL.iter().map(|&a| (a, 100.0 * self.total(a).as_nanos() as f64 / denom)).collect()
    }

    /// Resets every account.
    pub fn reset(&mut self) {
        self.slots = Default::default();
    }
}

impl fmt::Display for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in Account::ALL {
            let s = self.slots[a.index()];
            if s.updates > 0 {
                writeln!(f, "{:<18} {:>12} ({} updates)", a.label(), format!("{}", s.total), s.updates)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_has_no_overhead() {
        let mut p = Profiler::disabled();
        let extra = p.charge(Account::Tcp, NanoDuration::from_micros(100));
        assert_eq!(extra, NanoDuration::ZERO);
        assert_eq!(p.total(Account::Tcp).as_micros(), 100);
        assert_eq!(p.total(Account::Counters), NanoDuration::ZERO);
    }

    #[test]
    fn enabled_profiler_books_15us_per_update() {
        let mut p = Profiler::enabled();
        let extra = p.charge(Account::Ip, NanoDuration::from_micros(40));
        assert_eq!(extra.as_micros(), 15);
        p.charge(Account::Ip, NanoDuration::from_micros(60));
        assert_eq!(p.total(Account::Ip).as_micros(), 100);
        assert_eq!(p.updates(Account::Ip), 2);
        assert_eq!(p.total(Account::Counters).as_micros(), 30);
        assert_eq!(p.updates(Account::Counters), 2);
    }

    #[test]
    fn counters_account_charges_like_any_other() {
        // Updating a counter is itself a measured operation — the
        // "counters (est.)" row estimates exactly this self-cost.
        let mut p = Profiler::enabled();
        let extra = p.charge(Account::Counters, NanoDuration::from_micros(5));
        assert_eq!(extra.as_micros(), 15);
        assert_eq!(p.total(Account::Counters).as_micros(), 5 + 15);
    }

    #[test]
    fn percentages_against_wall_time() {
        let mut p = Profiler::disabled();
        p.charge(Account::Tcp, NanoDuration::from_micros(290));
        p.charge(Account::Ip, NanoDuration::from_micros(78));
        let pct = p.percentages(VirtualDuration::from_micros(1000));
        let tcp = pct.iter().find(|(a, _)| *a == Account::Tcp).unwrap().1;
        let ip = pct.iter().find(|(a, _)| *a == Account::Ip).unwrap().1;
        assert!((tcp - 29.0).abs() < 1e-9);
        assert!((ip - 7.8).abs() < 1e-9);
    }

    #[test]
    fn grand_total_and_reset() {
        let mut p = Profiler::enabled();
        p.charge(Account::Copy, NanoDuration::from_micros(10));
        assert_eq!(p.grand_total().as_micros(), 25); // 10 + 15 overhead
        p.reset();
        assert_eq!(p.grand_total(), NanoDuration::ZERO);
    }

    #[test]
    fn labels_match_table2() {
        assert_eq!(Account::EthMachInterface.label(), "eth, Mach interf.");
        assert_eq!(Account::Gc.label(), "g. c.");
        assert_eq!(Account::Counters.label(), "counters (est.)");
    }
}
