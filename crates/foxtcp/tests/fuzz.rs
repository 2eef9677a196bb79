//! Property-based adversarial test of the whole engine: transfers over
//! randomly failing links. The quasi-synchronous design's promise is
//! determinism and testability; this property pins down the safety side
//! — no drop pattern may make the stack deliver a byte it should not.
//! (The receive-DAG properties, which start from states no handshake
//! reaches, are unit tests in `control::segment_fuzz`.)

use foxtcp::testlink::{immediate, Pair};
use proptest::prelude::*;

// Whole-engine property: under an arbitrary drop pattern, a transfer
// either completes with a byte-exact stream or makes no false delivery
// — the received bytes are always a prefix of what was sent.
//
// The body lives in `stream_prefix_property` so the checked-in
// regression case (see fuzz.proptest-regressions) can be replayed as an
// explicit test below, independent of the fuzzer's seed decoding.
fn stream_prefix_property(drop_mask: &[bool], payload_len: usize) {
    let cfg = immediate();
    let mut p = Pair::new(cfg.clone(), cfg);

    // Drop frames toward the server according to the mask, cycling.
    let mask = drop_mask.to_vec();
    let len = mask.len() as u64;
    p.link.set_filter_toward(1, Box::new(move |i, _| !mask[(i % len) as usize]));

    let conn = p.connect(80).id();
    let payload: Vec<u8> = (0..payload_len as u32).map(|i| (i % 251) as u8).collect();

    // The handshake itself runs through the drop mask, so the child is
    // adopted whenever it first appears (it buffers its events until
    // then).
    let mut sent = 0;
    let mut child = None;
    for _ in 0..4_000 {
        if sent < payload.len() {
            sent += p.a.send_data(conn, &payload[sent..]).unwrap_or(0);
        }
        p.tick(100);
        child = child.or_else(|| p.accept());
        if p.b.stats().bytes_delivered >= payload.len() as u64 {
            break;
        }
    }
    let received = child.map_or(Vec::new(), |c| p.data_of(1, c.id()));
    // The received stream must be an exact prefix — never reordered,
    // never duplicated, never corrupted.
    assert!(received.len() <= payload.len());
    assert_eq!(&received[..], &payload[..received.len()]);
    // Completion can only be demanded when the adversary's drop
    // runs are short: a long run is indistinguishable from a dead
    // link, where giving up (the user timeout) is the *correct*
    // behavior. Bound the cyclic run length at 3.
    let doubled: Vec<bool> = drop_mask.iter().chain(drop_mask.iter()).copied().collect();
    let max_run = doubled.split(|d| !*d).map(|run| run.len()).max().unwrap_or(0);
    if max_run <= 3 {
        assert_eq!(received.len(), payload.len(), "transfer wedged (max drop run {max_run})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_stream_is_always_an_exact_prefix(
        drop_mask in proptest::collection::vec(any::<bool>(), 64),
        payload_len in 1usize..20_000,
    ) {
        stream_prefix_property(&drop_mask, payload_len);
    }
}

/// The checked-in shrunk counterexample from fuzz.proptest-regressions:
/// two six-frame drop bursts (indices 5–10 and 14–19 of the cyclic
/// mask) against an 8193-byte transfer. Before fast recovery handled
/// partial ACKs, this pattern wedged the transfer into repeated
/// timeouts past the driver's iteration budget. Replayed explicitly so
/// the pin survives even if the fuzzer's seed format changes.
#[test]
fn regression_burst_drops_payload_8193() {
    let mut drop_mask = vec![false; 64];
    for i in (5..=10).chain(14..=19) {
        drop_mask[i] = true;
    }
    stream_prefix_property(&drop_mask, 8193);
}
