#!/usr/bin/env bash
# Full local CI gate. Run from the repository root.
#
#   ./ci.sh
#
# Eleven stages, all must pass:
#   1. formatting (fails fast, before anything compiles)
#   2. release build of every crate and target. This is also where the
#      ownership invariants fail (DESIGN.md §5.8): a connection's state
#      is an `fsm::State` only control/fsm.rs can change, the TCB's
#      sequence space is `pub(in crate::data)`, each of its records
#      (`Negotiated`, `RecvSide` and the ACK clock in data/transfer.rs,
#      `SendSide` in data/resend.rs, `Cc` in congestion.rs) has fields
#      private to that one module, `ConnCore::tcb` is not `pub`,
#      `ConnCore` keeps the peer's port but not its lower-layer address
#      (only the engine's `Conn` holds that), and a
#      header window is a `WireWindow` only `wire_window` makes — so a
#      write outside its owner, or a raw narrowing, does not compile (in
#      test code: stage 3)
#   3. the whole workspace test suite, then foxbasis and foxwire again
#      in release: their per-byte kernels (checksum, CRC-32, ring) defer
#      carries and index tables, debug builds trap the overflow that
#      release builds wrap, and every benchmark number is a release
#      build — a mistake that only misbehaves when wrapping fails here.
#      The release re-run also covers the allocation budgets
#      (foxbasis's wheel_alloc: a warm timer wheel makes 0 heap calls;
#      foxbasis's pool_alloc: a warm BufPool hands back the same block
#      with 0 heap calls; foxtcp's alloc_budget: ALLOCS_PER_ROUND_TRIP
#      == 2 with options on and off, the two TcpEvent::Data vectors,
#      ALLOCS_PER_LIFECYCLE == 2, a whole connect/exchange/close/reap
#      lifecycle on warm engines that recycle reaped records,
#      BYTES_HELD_BY_IDLE_PAIRS == 237 896, the bytes-per-connection
#      ceiling with the engines' free blocks, and the spare bound: reused
#      spares hold no byte more and each new one holds DESIGN.md §5.15's
#      formula, 880 + 976 bytes a client/child pair — all exact) —
#      the counts are facts about the optimized build.
#      The workspace run also holds the copy budget beside them
#      (foxtcp's retransmit_copy_budget: one staging copy per segment
#      resent, none while encoding, both exact) and the pool's leak
#      detector (foxtcp's buf_pool_leak: after a transfer through drops,
#      duplicates and reordering, every block each engine's pool made
#      is home, and it made no more than its flight's high-water + 4).
#      The workspace run also pins the statements of the tool-enforced
#      invariants (the root tests/clippy_gate.rs): every clippy.toml
#      entry and deny attribute, and that the ownership types above are
#      not loosened (no `pub` field on `Tcb` or any record, a private
#      `ConnCore::tcb`, no type parameter on `ConnCore`, `Tcb` or
#      `TcpAction`, no `Clone` on `State`, every test hook
#      `#[cfg(test)]`), and that every layer above the device — TCP
#      included — attaches below through `foxproto::upcall::Below`: no
#      file of foxproto or foxtcp but `upcall.rs` builds a receive queue
#   4. the RFC-793 conformance suite, explicitly (both TCP stacks
#      against the standard's state diagram; also part of stage 3, but
#      a named stage keeps the gate visible)
#   5. the TCP-options interop matrix under fixed seeds: {none, wscale,
#      sack, ts, all} × {fox↔fox, fox↔xk} × the loss-matrix fault
#      profiles, every cell delivered in full and replayed
#      bit-identically, plus the SACK-beats-NewReno burst-loss
#      assertions (the `tables` binary panics if any of it regresses);
#      then the loss matrix once from a *debug* build, where
#      `Tcb::check_invariants` runs after every executed action,
#      `Tcp::check_invariants` (table, demux, accept-queue counters,
#      timers) at the end of every `step`, and `fsm::transition`'s guard
#      is live, so every lossy cell is checked at every step on every run
#   6. adversarial smoke: a fixed 6-cell subset of the adversarial
#      matrix (DESIGN.md §5.12) — each cell internally run twice with
#      bit-identical reports asserted — executed as two whole process
#      runs whose rendered tables must diff to zero
#   7. examples run: the eight `examples/*.rs`, from the release build,
#      each must exit 0 (together under a second; their output is
#      run-to-run identical, and nothing else executes them)
#   8. the Criterion benches compile (not run; keeps them from rotting) —
#      including timer.rs's `wheel` group beside the Fig. 11 rows, and
#      engine.rs and obs.rs on the shared two-engine rig
#      (foxtcp::testlink::Pair)
#   9. clippy over every target (benches and bins too), warnings as
#      errors. This is the gate for four workspace invariants
#      (DESIGN.md §5.8), stated in crates/clippy.toml and lint
#      attributes: determinism (no Instant/SystemTime/RandomState/
#      DefaultHasher), hash_iter (no HashMap/HashSet), rx_panic (no
#      unwrap/expect/panic-family on the packet-input path, no indexing
#      in wire decoders) and shard_global (no thread-local accessors).
#      Stage 3's clippy_gate test pins the statements themselves
#  10. the FSM gate: the control::fsm unit tests (the guard admits
#      exactly the edges of spec/tcp_fsm.txt, a write outside it panics,
#      the spec parser, docs/tcp_fsm.dot is current), then the
#      conformance coverage ratchet proves every non-exempt spec edge is
#      witnessed at runtime by both stacks (printing the
#      edges-covered/total counts per stack). That every state write is
#      a spec edge needs no stage of its own: rustc confines the writes
#      to control/fsm.rs, where `transition`'s debug assertion is live in
#      stages 3 and 4
#  11. the benchmark: foxperf — the repo's one wall-clock bench path
#      (BENCHMARK.json says how it is run; no stage here times anything),
#      a package of its own outside this workspace, so stages 1, 2, 3
#      and 9 never see it — is tested,
#      clippy-linted and format-checked against the tree as it stands,
#      so a refactor that breaks what foxperf compiles against fails
#      here and not in the benchmark driver. What it guards in the
#      buffer path: foxperf compiles *and lints* unchanged against
#      `PacketBuf`'s public names and the by-value `encode_buf`s — which
#      is why `PacketBuf::bytes()` still returns a guard (a `&[u8]`
#      there trips `needless_borrow` in foxperf's ladder)
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt (check) =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== test (workspace; per-byte kernels and allocation budgets again in release) =="
cargo test -q --workspace
cargo test -q --release -p foxbasis -p foxwire
cargo test -q --release -p foxtcp --test alloc_budget

echo "== conformance (RFC 793, both stacks) =="
cargo test -q -p foxtcp --test conformance

echo "== options interop matrix (fixed seeds); loss matrix under debug invariants =="
cargo run -q --release -p foxbench --bin tables -- interop
cargo run -q -p foxbench --bin tables -- lossmatrix > /dev/null

echo "== adversarial smoke (6 fixed cells, two runs, diffed to zero) =="
ADV_SMOKE_A=$(mktemp /tmp/adv_smoke_a.XXXXXX.txt)
ADV_SMOKE_B=$(mktemp /tmp/adv_smoke_b.XXXXXX.txt)
trap 'rm -f "$ADV_SMOKE_A" "$ADV_SMOKE_B"' EXIT
cargo run -q --release -p foxbench --bin tables -- adversarial-smoke > "$ADV_SMOKE_A"
cargo run -q --release -p foxbench --bin tables -- adversarial-smoke > "$ADV_SMOKE_B"
diff "$ADV_SMOKE_A" "$ADV_SMOKE_B"

echo "== examples run (all eight, release, exit 0) =="
cargo build -q --release --examples
for example in examples/*.rs; do
  "target/release/examples/$(basename "$example" .rs)" > /dev/null
done

echo "== bench (compile only) =="
cargo bench --workspace --no-run

echo "== clippy (all targets, deny warnings; determinism, hash_iter, rx_panic, shard_global) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fsm gate (guard == spec, spec edges covered at runtime) =="
cargo test -q -p foxtcp --lib control::fsm
cargo test -q -p foxtcp --test conformance \
  runtime_transitions_cover_the_fsm_spec -- --nocapture \
  | grep -E "fsm coverage|test result"

echo "== foxperf (the benchmark: test, clippy, fmt) =="
cargo test -q --offline --manifest-path foxperf/Cargo.toml
cargo clippy --offline --manifest-path foxperf/Cargo.toml --all-targets -- -D warnings
cargo fmt --check --manifest-path foxperf/Cargo.toml

echo "CI OK"
