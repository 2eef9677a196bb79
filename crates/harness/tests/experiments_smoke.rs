//! Smoke tests keeping the experiment harness honest: every experiment
//! entry point runs (at reduced scale) and produces sane output.

use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use simnet::CostModel;

#[test]
fn measure_speed_smoke() {
    let s = exp::measure_speed(StackKind::FoxStandard, CostModel::modern(), 50_000, 7);
    assert!(s.throughput_mbps > 0.5 && s.throughput_mbps < 10.0);
    assert!(s.rtt_ms > 0.0 && s.rtt_ms < 100.0);
}

#[test]
fn interop_matrix_smoke() {
    let rows = exp::interop_matrix(40_000, 7);
    assert_eq!(rows.len(), 4);
    for (name, mbps) in &rows {
        assert!(*mbps > 0.5, "{name}: {mbps}");
    }
    let t = exp::render_interop_matrix(&rows).to_string();
    assert!(t.contains("Fox Net -> x-kernel"));
}

#[test]
fn gc_study_smoke() {
    let rows = exp::gc_study(&[300_000], 7);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].minors > 0);
    assert_eq!(rows[0].majors, 0, "300 KB stays below the major threshold");
    assert!(rows[0].throughput_mbps > 0.3);
}

#[test]
fn gc_pause_study_smoke() {
    // Enough rounds that the sender's nursery fills at least once.
    let t = exp::gc_pause_study(150, 7);
    assert_eq!(t.rows.len(), 2);
    let (_, _, max_lump, _, maxp_lump) = t.rows[0];
    let (_, _, max_incr, _, maxp_incr) = t.rows[1];
    assert!(!maxp_lump.is_zero(), "the lump collector must have paused");
    assert!(maxp_incr < maxp_lump, "incremental bounds the pause: {maxp_incr:?} vs {maxp_lump:?}");
    assert!(max_incr <= max_lump, "and therefore the worst RTT");
}

#[test]
fn loss_sweep_smoke() {
    let rows = exp::loss_sweep(30_000, 7);
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0].2, 0, "clean link retransmits nothing");
    assert!(rows[3].2 > 0, "10% loss retransmits");
}

#[test]
fn ablations_smoke() {
    let rows = exp::ablations(60_000, 7);
    assert!(rows.len() >= 9);
    let base = rows.iter().find(|r| r.name.contains("baseline")).unwrap();
    let w1k = rows.iter().find(|r| r.name.contains("window 1024")).unwrap();
    assert!(w1k.throughput_mbps < base.throughput_mbps, "a 1 KB window must hurt");
}
