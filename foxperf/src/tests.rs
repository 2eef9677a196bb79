//! End-to-end tests at `--smoke` scale: every workload, both passes, the
//! ladder, the result line against `BENCHMARK.json`, and a result set
//! through `compare`.

use crate::compare::compare_sets;
use crate::json::{self, Value};
use crate::ladder;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report;
use crate::run::{run, RunArgs, RunResult};
use crate::workloads::{Probe, Scale, Session, Workload};
use foxharness::stack::StackKind;
use std::time::Instant;

fn smoke(workload: Workload, seed: u64, trace: bool) -> (RunArgs, RunResult) {
    let args = RunArgs { workload, seed, seconds: 0.0, trace, smoke: true, out: None, trace_out: None };
    let result = run(&args, Instant::now());
    (args, result)
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
    doc.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn line_names(result: &RunResult) -> Vec<String> {
    let line = json::parse(&result.result_line()).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks {key}");
    }
    let Some(Value::Obj(metrics)) = line.get("metrics") else { panic!("metrics is an object") };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_runs_both_passes_and_reports_what_benchmark_json_names() {
    let doc = benchmark_json();
    let named: Vec<String> =
        doc.get("workloads").and_then(Value::as_array).unwrap().iter().map(listed_name).collect();
    assert_eq!(named, Workload::ALL.map(|w| w.name().to_string()));

    let e2e = listed(&doc, "end_to_end");
    let ours: Vec<_> = END_TO_END
        .iter()
        .filter(|d| d.name != "fail_share")
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.name().to_string()))
        .collect();
    assert_eq!(e2e, ours, "BENCHMARK.json end_to_end and metrics::END_TO_END are out of step");
    for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert_eq!(Some(bound), END_TO_END.iter().find(|d| d.name == name).map(|d| d.bound), "{name}");
    }
    let layers = listed(&doc, "per_layer");
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.name().to_string()))
        .collect();
    assert_eq!(layers, ours, "BENCHMARK.json per_layer and metrics::PER_LAYER are out of step");

    for w in Workload::ALL {
        let (_, timed) = smoke(w, 5, false);
        assert_eq!(timed.failed, 0, "{}: {:?}", w.name(), timed.failures);
        assert!(timed.attempted > 0);
        assert_eq!(line_names(&timed), e2e.iter().map(|m| m.0.clone()).collect::<Vec<_>>(), "{}", w.name());
        for (def, stat) in &timed.measured.metrics {
            assert!(stat.value.is_finite(), "{} {}", w.name(), def.name);
            assert!(def.name == "fail_share" || stat.value > 0.0, "{} {} is never 0", w.name(), def.name);
        }

        let (_, traced) = smoke(w, 5, true);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.failures);
        assert_eq!(
            line_names(&traced),
            layers.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
            "{}",
            w.name()
        );
        let value =
            |name: &str| traced.measured.metrics.iter().find(|(d, _)| d.name == name).unwrap().1.value;
        assert!(traced.measured.metrics.iter().all(|(_, s)| s.value.is_finite()), "{}", w.name());
        // The ladder ran: replay rungs everywhere, stack rungs where
        // the workload is one connection.
        assert!(value("wire.ns_per_op") > 0.0 && value("simnet.ns_per_frame") > 0.0, "{}", w.name());
        assert!(value("xktcp.ops_per_s") > 0.0 && value("foxtcp.steps_per_op") > 0.0, "{}", w.name());
        let has_stack_rungs = matches!(w, Workload::Bulk | Workload::Rr);
        assert_eq!(value("foxtcp.engine_ns_per_op") > 0.0, has_stack_rungs, "{}", w.name());
        assert_eq!(
            value("foxtcp.actions_per_op") > 0.0,
            has_stack_rungs || w == Workload::BulkLoss,
            "{}",
            w.name()
        );
    }
}

fn listed_name(w: &Value) -> String {
    w.get("name").and_then(Value::as_str).unwrap_or_default().to_string()
}

#[test]
fn two_runs_of_one_seed_agree_exactly_and_another_seed_moves_only_what_it_may() {
    // Wall-clock metrics at smoke scale are noise; compare only what is
    // exact, which is what this test is about.
    let exact_only = |set: Value| -> Value {
        let mut set = set;
        let mut workloads = set.get("workloads").cloned().unwrap();
        for w in Workload::ALL {
            let mut entry = workloads.get(w.name()).cloned().unwrap();
            let mut kept = Value::object();
            for d in END_TO_END.iter().filter(|d| d.exact) {
                kept.set(d.name, entry.get("end_to_end").and_then(|e| e.get(d.name)).cloned().unwrap());
            }
            entry.set("end_to_end", kept);
            workloads.set(w.name(), entry);
        }
        set.set("workloads", workloads);
        set
    };
    let set_for = |seed: u64| {
        let mut set = Value::object();
        for w in Workload::ALL {
            let (args, result) = smoke(w, seed, false);
            assert_eq!(result.failed, 0, "{}: {:?}", w.name(), result.failures);
            set = report::merge(set, &args, &result).unwrap();
        }
        exact_only(set)
    };
    let (a, b, other) = (set_for(11), set_for(11), set_for(12));
    let (table, agree) = compare_sets(&a, &b);
    assert!(agree, "same commit, same seed:\n{table}");

    let exact_of = |set: &Value, w: Workload| -> Vec<f64> {
        let e2e =
            set.get("workloads").and_then(|ws| ws.get(w.name())).and_then(|e| e.get("end_to_end")).unwrap();
        END_TO_END
            .iter()
            .filter(|d| d.exact)
            .map(|d| e2e.get(d.name).and_then(|m| m.get("value")).and_then(Value::as_f64).unwrap())
            .collect()
    };
    for w in Workload::ALL {
        let moved = exact_of(&a, w) != exact_of(&other, w);
        // The seed reaches the schedule only through `fanin`'s visiting
        // order (`bulk-loss`'s fault schedules are fixed); at smoke
        // scale that may be too short to change a count, so only the
        // converse is asserted.
        if w != Workload::Fanin {
            assert!(!moved, "{}: the seed must not reach the schedule", w.name());
        }
    }
}

#[test]
fn a_capture_parses_back_into_the_frames_the_wire_carried() {
    let probe = Probe { capture: true, ..Probe::plain(StackKind::FoxStandard) };
    let mut session = Session::new(Workload::Rr, Scale::smoke(), 3, probe);
    let rep = session.rep();
    assert!(rep.ok, "{}", rep.why);
    let capture = rep.capture.expect("the probe asked for a capture");
    let frames = ladder::frames_of(&capture);
    assert_eq!(frames.len() as u64, capture.frame_count());
    assert_eq!(frames.len() as u64, rep.exact.frames_sent);
    assert_eq!(frames.iter().map(|f| f.bytes.len() as u64).sum::<u64>(), rep.exact.wire_bytes);
    assert!(frames.windows(2).all(|w| w[0].at <= w[1].at), "timestamps never run backwards");
    assert!(frames.iter().any(|f| f.from == 0) && frames.iter().any(|f| f.from == 1));
}
