//! The metrics the benchmark reports: their names, units, directions
//! and bounds, and the statistics every reported figure goes through.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

/// Which way is better.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Copy, Clone, Debug)]
pub struct Def {
    /// Name, `<layer>.<metric>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How far the metric may worsen, as a share of the parent's median,
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Whether the metric is a pure function of commit and seed, so two
    /// runs of one commit at one seed must agree exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64, exact: bool) -> Def {
    Def { name, unit, better, bound, exact }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0, exact: false }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported on every workload. The bounds are
/// what `BENCHMARK.json` carries: they gate a later change against its
/// parent. `ops_per_s` gets the widest bound the contract allows: on this
/// shared 2-core host the fastest rep of a run repeats to 1–5 % in a quiet
/// quarter of an hour, but whole minutes run up to 14 % slow (the median
/// of ten `rr` runs moved 13.7 % between two back-to-back sweeps of one
/// binary), and a bound inside that would reject innocent changes. The
/// exact metrics do not vary from run to run at all, so their 2 % is a
/// tolerance, not a noise margin — they are the precise gate, and
/// `foxperf compare` holds them to `==` at equal seeds.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Higher, 0.25, false),
    e2e("virt_ops_per_s", "ops/virt_s", Higher, 0.02, true),
    e2e("allocs_per_op", "count", Lower, 0.02, true),
    e2e("wire_bytes_per_op", "B", Lower, 0.02, true),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
    // Expected 0, and `BENCHMARK.json` wants metrics that are never 0:
    // there it is the result line's `failed` / `attempted` instead.
    e2e("fail_share", "share", Lower, 0.0, true),
];

/// The per-layer metrics of the traced pass. 0 where a metric does not
/// apply to a workload (the stack rungs exist for `bulk` and `rr` only).
pub const PER_LAYER: [Def; 52] = [
    layer("wire.ns_per_op", "ns", Lower),
    layer("foxbasis.checksum_ns_per_kb", "ns", Lower),
    layer("foxbasis.copies_per_op", "count", Lower),
    layer("foxbasis.copy_bytes_per_op", "B", Lower),
    layer("foxbasis.wheel_arms_per_op", "count", Lower),
    layer("foxbasis.wheel_cancels_per_op", "count", Lower),
    layer("foxbasis.wheel_fires_per_op", "count", Lower),
    layer("foxbasis.wheel_cascades_per_op", "count", Lower),
    layer("simnet.ns_per_frame", "ns", Lower),
    layer("simnet.cost_ns_per_op", "ns", Lower),
    layer("simnet.frames_per_op", "count", Lower),
    layer("simnet.dropped_fault", "count", Lower),
    layer("simnet.dropped_overflow", "count", Lower),
    layer("simnet.virt_busy_share", "share", Higher),
    layer("protocols.dev_ns_per_frame", "ns", Lower),
    layer("protocols.eth_ns_per_frame", "ns", Lower),
    layer("protocols.ip_ns_per_frame", "ns", Lower),
    layer("protocols.frames_per_batch", "count", Higher),
    layer("protocols.eth_fcs_drops", "count", Lower),
    layer("foxtcp.engine_ns_per_op", "ns", Lower),
    layer("foxtcp.stack_ns_per_op", "ns", Lower),
    layer("foxtcp.segs_per_op", "count", Lower),
    layer("foxtcp.actions_per_op", "count", Lower),
    layer("foxtcp.fastpath_share", "share", Higher),
    layer("foxtcp.out_of_order", "count", Lower),
    layer("foxtcp.retransmits", "count", Lower),
    layer("foxtcp.fast_retransmits", "count", Lower),
    layer("foxtcp.rto_fires", "count", Lower),
    layer("foxtcp.recoveries", "count", Lower),
    layer("foxtcp.demux_steps_per_lookup", "count", Lower),
    layer("foxtcp.idle_step_ns", "ns", Lower),
    layer("foxtcp.steps_per_op", "count", Lower),
    layer("foxtcp.conn_heap_bytes", "B", Lower),
    layer("foxtcp.allocs_per_conn", "count", Lower),
    layer("xktcp.ops_per_s", "1/s", Higher),
    layer("xktcp.virt_ops_per_s", "ops/virt_s", Higher),
    layer("xktcp.allocs_per_op", "count", Lower),
    layer("xktcp.wire_bytes_per_op", "B", Lower),
    layer("xktcp.demux_steps_per_lookup", "count", Lower),
    layer("xktcp.fox_over_xk", "ratio", Higher),
    layer("harness.ns_per_op", "ns", Lower),
    layer("harness.app_ns_per_op", "ns", Lower),
    layer("harness.drive_iters_per_op", "count", Lower),
    layer("harness.idle_ticks_per_op", "count", Lower),
    layer("harness.virt_op_us_p50", "us", Lower),
    layer("harness.virt_op_us_p99", "us", Lower),
    layer("harness.obs_overhead_pct", "%", Lower),
    layer("harness.obs_events_per_op", "count", Lower),
    layer("harness.obs_dropped", "count", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    layer("alloc.peak_live_bytes", "B", Lower),
];

/// A reported figure: the value, and the spread of the samples behind
/// it.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Stat {
    /// The figure itself (usually the samples' median).
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// How many samples.
    pub n: usize,
}

impl Stat {
    /// A figure measured once.
    pub fn single(value: f64) -> Stat {
        Stat { value, q1: value, q3: value, n: 1 }
    }

    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Stat {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, value, q3) = quartiles(&v);
        Stat { value, q1, q3, n: v.len() }
    }
}

/// (Q1, median, Q3) of sorted `v`, as Python's
/// `statistics.quantiles(v, n=4)` computes them (the "exclusive"
/// method), so spreads computed here and by the driver agree.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                let pos = k as f64 * (n + 1) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

/// The value at quantile `q` (0..=1) of sorted `v`, by nearest rank.
pub fn quantile_sorted(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
        let s = Stat::of(&[7.0, 1.0, 3.0, 5.0, 9.0, 11.0, 13.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (3.0, 7.0, 11.0, 7));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{}", d.name);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{}", d.unit);
            assert!(d.bound <= 0.25);
        }
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.99), 4.0);
    }
}
