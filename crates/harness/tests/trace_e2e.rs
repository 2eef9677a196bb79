//! End-to-end checks of the event layer against whole experiment runs:
//! determinism (same seed → byte-identical streams), divergence
//! reporting (different seeds on a lossy link → a named first
//! difference), and a schema check that the chrome://tracing export of
//! a loss-matrix cell is well-formed JSON of the expected shape.

use foxbasis::obs::{
    first_divergence, to_chrome_trace, to_jsonl, Event, EventSink, Stamped, StateName, DEFAULT_RING_CAPACITY,
};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::advpeer::{attack_cell, attack_pair, Attack};
use foxharness::experiments as exp;
use foxharness::stack::StackKind;
use foxharness::workload::{many_flows, ManyFlowsResult};
use foxharness::{Cell, TracedBulk};
use foxtcp::TcpConfig;
use simnet::{CostModel, FaultConfig, NetConfig, SimNet};

/// The loss matrix's "drop 5%" cell under `cfg`, recorded.
fn traced_drop5(cfg: TcpConfig, bytes: usize, seed: u64) -> TracedBulk {
    let faults = FaultConfig { drop_chance: 0.05, ..FaultConfig::default() };
    exp::loss_cell(StackKind::FoxStandard, faults, cfg, seed).traced_bulk(bytes)
}

#[test]
fn same_seed_table1_runs_diff_to_zero() {
    let cell = exp::table1_cell(StackKind::FoxStandard, CostModel::modern(), 7);
    let a = cell.traced_bulk(50_000);
    let b = cell.traced_bulk(50_000);
    assert!(!a.events.is_empty(), "a traced run must record events");
    assert_eq!(a.dropped, 0, "the default ring must hold a 50 KB run");
    assert_eq!(a.bulk.bytes, 50_000);
    let d = first_divergence(&a.events, &b.events);
    assert!(d.is_none(), "identical seeds must replay identically, diverged at {d:?}");
    assert_eq!(to_jsonl(&a.events), to_jsonl(&b.events));
    assert!(a.pcap.frame_count() > 0, "the pcap tap rides along");
}

#[test]
fn traced_run_covers_every_layer() {
    // 300 KB: enough to fill the 1994 model's nursery at least once,
    // so the GC layer shows up in the stream.
    let t = exp::table1_cell(StackKind::FoxStandard, CostModel::decstation_sml(), 7).traced_bulk(300_000);
    let has = |f: &dyn Fn(&Event) -> bool| t.events.iter().any(|e| f(&e.event));
    assert!(has(&|e| matches!(e, Event::StateTransition { to: StateName::Estab, .. })), "TCP layer");
    assert!(has(&|e| matches!(e, Event::Action { .. })), "action queue");
    assert!(has(&|e| matches!(e, Event::TimerSet { .. })), "timers");
    assert!(has(&|e| matches!(e, Event::SegTx { .. })), "segments out");
    assert!(has(&|e| matches!(e, Event::SegRx { .. })), "segments in");
    assert!(has(&|e| matches!(e, Event::FrameTx { .. })), "device layer");
    assert!(has(&|e| matches!(e, Event::FrameDeliver { .. })), "wire layer");
    assert!(has(&|e| matches!(e, Event::GcPause { .. })), "collector");
    assert!(
        t.events.iter().any(|e| e.host == 0) && t.events.iter().any(|e| e.host == 1),
        "both hosts are stamped"
    );
}

/// Every variant of `Event`, in declaration order, by its export name.
const KINDS: [&str; 17] = [
    "state",
    "action",
    "adopt",
    "timer_set",
    "timer_clear",
    "timer_fire",
    "loss",
    "seg_tx",
    "seg_rx",
    "frame_tx",
    "frame_drop",
    "frame_corrupt",
    "frame_mutate",
    "frame_rewrite",
    "attack",
    "frame_deliver",
    "gc_pause",
];

/// The place of `e`'s variant in [`KINDS`]. No arm is a wildcard, so a
/// new variant does not compile here until it is listed, and then fails
/// [`every_event_kind_is_emitted_by_some_run`] until some run emits it.
fn kind(e: &Event) -> usize {
    match e {
        Event::StateTransition { .. } => 0,
        Event::Action { .. } => 1,
        Event::Adopt { .. } => 2,
        Event::TimerSet { .. } => 3,
        Event::TimerClear { .. } => 4,
        Event::TimerFire { .. } => 5,
        Event::Loss { .. } => 6,
        Event::SegTx { .. } => 7,
        Event::SegRx { .. } => 8,
        Event::FrameTx { .. } => 9,
        Event::FrameDrop { .. } => 10,
        Event::FrameCorrupt => 11,
        Event::FrameMutate { .. } => 12,
        Event::FrameRewrite { .. } => 13,
        Event::Attack { .. } => 14,
        Event::FrameDeliver { .. } => 15,
        Event::GcPause { .. } => 16,
    }
}

/// No event kind is defined that nothing writes: three small recorded
/// runs emit all of them. A fox bulk on the 1994 machine (the collector
/// pauses it), a lossy cell whose wire drops, corrupts, mutates and
/// clamps, and one blind-RST attack, whose listener adopts its child.
#[test]
fn every_event_kind_is_emitted_by_some_run() {
    let table1 =
        exp::table1_cell(StackKind::FoxStandard, CostModel::decstation_sml(), 7).traced_bulk(300_000);
    let faults = FaultConfig { mutate_chance: 0.05, mss_clamp: Some(536), ..FaultConfig::lossy(0.05) };
    let lossy = exp::loss_cell(StackKind::FoxStandard, faults, TcpConfig::default(), 3).traced_bulk(20_000);
    let cell = attack_cell(StackKind::FoxStandard, FaultConfig::default(), 11);
    let sink = EventSink::recording(DEFAULT_RING_CAPACITY);
    let (net, mut sender, mut receiver) = cell.pair(sink.clone());
    let report = attack_pair(&cell, &net, &mut sender, &mut receiver, Attack::BlindRstInWindow);
    assert!(report.outcome_ok(), "{report:?}");
    assert_eq!(table1.dropped + lossy.dropped + sink.dropped(), 0, "every ring holds its whole run");

    let mut seen = [false; KINDS.len()];
    for e in table1.events.iter().chain(&lossy.events).chain(&sink.events()) {
        let k = kind(&e.event);
        assert_eq!(KINDS[k], e.event.name(), "KINDS is in Event's declaration order");
        seen[k] = true;
    }
    let unwritten: Vec<&str> = KINDS.iter().zip(seen).filter(|&(_, s)| !s).map(|(k, _)| *k).collect();
    assert!(unwritten.is_empty(), "event kinds no run emits: {unwritten:?}");
}

#[test]
fn xkernel_stack_is_traced_too() {
    let t = exp::table1_cell(StackKind::XKernel, CostModel::modern(), 7).traced_bulk(30_000);
    let has = |f: &dyn Fn(&Event) -> bool| t.events.iter().any(|e| f(&e.event));
    assert!(has(&|e| matches!(e, Event::StateTransition { to: StateName::Estab, .. })));
    assert!(has(&|e| matches!(e, Event::SegTx { .. })));
    assert!(has(&|e| matches!(e, Event::SegRx { .. })));
}

/// The scale workload is as replayable as the two-host ones: 64
/// concurrent connections through one server on a bursty
/// (Gilbert–Elliott) segment, run twice with the same seed, must
/// produce byte-identical event streams — the demux table and the
/// shared timer wheel introduce no iteration-order or timing
/// nondeterminism even while losses force retransmission.
#[test]
fn same_seed_many_flows_under_burst_loss_diff_to_zero() {
    fn run(kind: StackKind, seed: u64) -> (ManyFlowsResult, Vec<Stamped>) {
        let cfg = NetConfig {
            // Mean burst of ~3 frames, entered ~2% of frames, dropping
            // 70% while bad: enough to force recovery on many flows.
            faults: FaultConfig::bursty(0.02, 0.3, 0.7),
            ..NetConfig::default()
        };
        let net = SimNet::new(cfg, seed);
        let sink = EventSink::recording(1 << 18);
        let deadline = VirtualTime::ZERO + VirtualDuration::from_millis(600_000);
        let r = many_flows(&net, kind, 64, 4096, 4, CostModel::modern, &sink, deadline);
        (r, sink.events())
    }
    for kind in [StackKind::FoxStandard, StackKind::XKernel] {
        let (r1, e1) = run(kind, 11);
        let (r2, e2) = run(kind, 11);
        assert_eq!(r1.completed, 64, "{kind:?}: all flows finish despite the bursts");
        assert_eq!(r1.completed, r2.completed);
        assert!(r1.net.frames_dropped_fault > 0, "{kind:?}: the fault chain actually fired");
        assert!(!e1.is_empty());
        let d = first_divergence(&e1, &e2);
        assert!(d.is_none(), "{kind:?}: same-seed replay diverged at {d:?}");
        assert_eq!(to_jsonl(&e1), to_jsonl(&e2));
    }
}

/// GRO/TSO device batching groups the per-batch cost charges — which
/// are zero in every 1994 preset — so a batched device on the paper
/// profile must replay the unbatched run byte for byte: same events,
/// same timestamps, same delivery. Only the modern profile's nonzero
/// per-batch constants give batching anything observable to amortize.
#[test]
fn gro_batched_device_is_trace_invisible_on_the_1994_profile() {
    use foxproto::dev::BatchConfig;
    for (kind, cost) in [
        (StackKind::FoxStandard, CostModel::decstation_sml()),
        (StackKind::XKernel, CostModel::decstation_c()),
    ] {
        let cell = exp::table1_cell(kind, cost, 7);
        let unbatched = cell.traced_bulk(120_000);
        let batched = Cell { batch: BatchConfig { rx_burst: 8, tx_burst: 8 }, ..cell }.traced_bulk(120_000);
        assert_eq!(unbatched.bulk.bytes, 120_000);
        assert_eq!(batched.bulk.bytes, 120_000);
        let d = first_divergence(&unbatched.events, &batched.events);
        assert!(d.is_none(), "{kind:?}: batching perturbed a 1994 trace, diverged at {d:?}");
        assert_eq!(to_jsonl(&unbatched.events), to_jsonl(&batched.events));
        assert_eq!(unbatched.bulk.elapsed, batched.bulk.elapsed, "{kind:?}: virtual time moved");
    }
}

/// `ack_coalesce_segments: None` means "the historical threshold", and
/// setting the knob explicitly *to* that threshold must be
/// indistinguishable on the wire: Some(2) for the structured stack
/// (the BSD every-second-segment rule), Some(1) for the x-kernel
/// baseline (its every-full-segment rule). A genuinely raised
/// threshold must then actually change the trace — the knob is a real
/// policy, not dead configuration.
#[test]
fn ack_coalescing_defaults_pin_the_historical_thresholds() {
    // Fox: coalescing only matters with a delayed-ACK timer to hold
    // the ACK back (the paper's bulk config acks immediately).
    let delayed = TcpConfig { initial_window: 4096, send_buffer: 8192, ..TcpConfig::default() };
    assert_eq!(delayed.delayed_ack_ms, Some(200));
    let fox =
        |tcp| Cell::new(StackKind::FoxStandard, CostModel::decstation_sml(), tcp, 7).traced_bulk(80_000);
    let base = fox(delayed.clone());
    let explicit = fox(TcpConfig { ack_coalesce_segments: Some(2), ..delayed.clone() });
    let d = first_divergence(&base.events, &explicit.events);
    assert!(d.is_none(), "fox: Some(2) must equal the default threshold, diverged at {d:?}");

    let coalesced = fox(TcpConfig { ack_coalesce_segments: Some(8), ..delayed });
    assert_eq!(coalesced.bulk.bytes, 80_000, "a coalescing receiver still delivers everything");
    assert!(
        first_divergence(&base.events, &coalesced.events).is_some(),
        "fox: an 8-segment threshold must change the ACK stream"
    );

    // x-kernel: its historical rule is an immediate ACK on every full
    // segment, i.e. threshold 1.
    let paper = exp::paper_tcp_config();
    let xk = |tcp| Cell::new(StackKind::XKernel, CostModel::decstation_c(), tcp, 7).traced_bulk(80_000);
    let base = xk(paper.clone());
    let explicit = xk(TcpConfig { ack_coalesce_segments: Some(1), ..paper });
    let d = first_divergence(&base.events, &explicit.events);
    assert!(d.is_none(), "xk: Some(1) must equal the default threshold, diverged at {d:?}");
}

#[test]
fn different_seed_lossy_cell_reports_first_divergence() {
    let a = traced_drop5(exp::loss_matrix_config(), 30_000, 7);
    let b = traced_drop5(exp::loss_matrix_config(), 30_000, 8);
    let d = first_divergence(&a.events, &b.events).expect("different fault dice must diverge somewhere");
    assert!(d.index <= a.events.len().max(b.events.len()));
    assert!(d.left.is_some() || d.right.is_some(), "a divergence names at least one side's event");
    // And the same lossy seed still replays exactly.
    let a2 = traced_drop5(exp::loss_matrix_config(), 30_000, 7);
    assert!(first_divergence(&a.events, &a2.events).is_none());
}

#[test]
fn chrome_export_of_a_lossmatrix_cell_is_valid_json() {
    let t = traced_drop5(exp::loss_matrix_config(), 20_000, 7);
    let json = to_chrome_trace(&t.events);
    let value = json::parse(&json).expect("export must be syntactically valid JSON");
    let obj = match value {
        json::Value::Object(pairs) => pairs,
        other => panic!("top level must be an object, got {other:?}"),
    };
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("top level must carry traceEvents");
    let arr = match events {
        json::Value::Array(items) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!arr.is_empty());
    for item in arr {
        let fields = match item {
            json::Value::Object(pairs) => pairs,
            other => panic!("each trace event must be an object, got {other:?}"),
        };
        for key in ["name", "ph", "ts", "pid", "tid", "args"] {
            assert!(fields.iter().any(|(k, _)| k == key), "trace event missing {key:?}");
        }
        let ph = fields.iter().find(|(k, _)| k == "ph").map(|(_, v)| v).unwrap();
        assert_eq!(ph, &json::Value::String("i".into()), "instant events only");
    }
}

/// A minimal recursive-descent JSON reader — just enough to prove the
/// exporters emit well-formed JSON without pulling in a parser crate.
mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::String(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {pos}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at {pos}")),
                    }
                    *pos += 1;
                }
                Some(&c) if c >= 0x20 => {
                    // Multi-byte UTF-8 passes through untouched.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b
                        .get(*pos..*pos + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| format!("bad utf8 at {pos}"))?;
                    out.push_str(chunk);
                    *pos += len;
                }
                _ => return Err(format!("unterminated string at {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected , or ] at {pos}")),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            pairs.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(format!("expected , or }} at {pos}")),
            }
        }
    }
}
