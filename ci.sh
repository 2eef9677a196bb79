#!/usr/bin/env bash
# Full local CI gate. Run from the repository root.
#
#   ./ci.sh
#
# Eleven stages, all must pass. Each prints `== <name> (…) ==`, and the
# docs cite a stage by that name (`== clippy ==`), never by its place:
#   fmt: formatting (fails fast, before anything compiles)
#   build: release build of every crate's library, every binary (the
#      `tables` and `trace-diff` CLIs) and every example, so a
#      release-only compile error fails here and not first in
#      `== artifacts ==`. This is also where
#      the ownership invariants fail (DESIGN.md §5.8): a connection's
#      state is an `fsm::State` only control/fsm.rs can change, the
#      TCB's sequence space is `pub(in crate::data)`, each of its records
#      (`Negotiated`, `RecvSide` and the ACK clock in data/transfer.rs,
#      `SendSide` in data/resend.rs, `Cc` in congestion.rs) has fields
#      private to that one module, `ConnCore::tcb` is not `pub`,
#      `ConnCore` keeps the peer's port but not its lower-layer address
#      (only the engine's `Conn` holds that), and a
#      header window is a `WireWindow` only `wire_window` makes — so a
#      write outside its owner, or a raw narrowing, does not compile (in
#      test code: `== test ==`)
#   test: the whole workspace test suite, then foxbasis and foxwire
#      again in release: their per-byte kernels (checksum, CRC-32, ring)
#      defer carries and index tables, debug builds trap the overflow
#      that release builds wrap, and every benchmark number is a release
#      build — a mistake that only misbehaves when wrapping fails here.
#      The release re-run also covers the allocation budgets
#      (foxbasis's wheel_alloc: a warm timer wheel makes 0 heap calls;
#      foxbasis's pool_alloc: a warm BufPool hands back the same block
#      with 0 heap calls; foxtcp's alloc_budget: ALLOCS_PER_ROUND_TRIP
#      == 2 with options on and off, the two TcpEvent::Data vectors,
#      ALLOCS_PER_LIFECYCLE == 2, a whole connect/exchange/close/reap
#      lifecycle on warm engines that recycle reaped records,
#      BYTES_HELD_BY_IDLE_PAIRS == 233 288, the bytes-per-connection
#      ceiling with the engines' free blocks, and the spare bound: reused
#      spares hold no byte more and each new one holds DESIGN.md §5.15's
#      formula, 880 + 976 bytes a client/child pair — all exact;
#      foxharness's forget_rule: a warm fox station whose user never
#      asks `finished` runs a connect/exchange/close lifecycle in
#      CLIENT_ALLOCS_PER_LIFECYCLE == 2 heap calls, exact) —
#      the counts are facts about the optimized build.
#      The workspace run also holds the copy budget beside them
#      (foxtcp's retransmit_copy_budget: one staging copy per segment
#      resent, none while encoding, both exact) and the pool's leak
#      detector (foxtcp's buf_pool_leak: after a transfer through drops,
#      duplicates and reordering, every block each engine's pool made
#      is home, and it made no more than its flight's high-water + 4).
#      The workspace run also pins the statements of the tool-enforced
#      invariants (the root tests/clippy_gate.rs): every clippy.toml
#      entry and deny attribute, `unsafe_code` denied in every crate
#      root and no `[features]` table in any manifest, and that the
#      ownership types above are not loosened (no `pub` field on `Tcb`
#      or any record, a private `ConnCore::tcb`, no type parameter on
#      `ConnCore`, `Tcb` or `TcpAction`, no `Clone` on `State`, every
#      test hook `#[cfg(test)]`, `TcpConfig`'s 18 fields named by one
#      exhaustive pattern, so a 19th does not compile), and that every
#      layer above the device — TCP included — attaches below through
#      `foxproto::upcall::Below`: no file of foxproto or foxtcp but
#      `upcall.rs` builds a receive queue
#   conformance: the RFC-793 conformance suite, explicitly (both TCP
#      stacks against the standard's state diagram; also part of
#      `== test ==`, but a named stage keeps the gate visible)
#   loss and adversarial matrices: the loss matrix and the adversarial
#      matrix (all 110 attack cells) once from a *debug* build, where
#      `Tcb::check_invariants` runs after every executed action,
#      `Tcp::check_invariants` (table, demux, accept-queue counters,
#      timers) at the end of every input to the engine, and
#      `fsm::transition`'s guard is live, so every lossy cell and every
#      attack is checked at every step on every run
#   artifacts: every "same bytes" artifact, each run once from the
#      release build — each `tables` item's stdout, the traced Table 1
#      run's stdout, JSONL and pcap, each example's stdout — digested by
#      `scripts/same_bytes.sh --digests` and diffed against the
#      checked-in artifacts.sha256. It fails on a command that exits
#      non-zero (the `tables` items panic on a determinism, delivery or
#      SACK-wins regression in the options interop matrix, the loss
#      matrix and all 110 adversarial cells, each cell run twice), on
#      one moved byte, and on a different `rustc -V`, which it names
#      instead of diffing. A change that moves an artifact on purpose
#      rewrites the file with `--digests`, so the move shows in review
#   bench: the Criterion benches compile (not run; keeps them from
#      rotting) — including timer.rs's `wheel` group beside the Fig. 11
#      rows, and engine.rs and obs.rs on the shared two-engine rig
#      (foxtcp::testlink::Pair)
#   doc: rustdoc over every workspace crate, warnings as errors, so a
#      doc link to a renamed or deleted name (or a public doc linking a
#      private item) fails here instead of rotting silently
#   clippy: clippy over every target (benches and bins too), warnings
#      as errors. This is the gate for four workspace invariants
#      (DESIGN.md §5.8), stated in crates/clippy.toml and lint
#      attributes: determinism (no Instant/SystemTime/RandomState/
#      DefaultHasher), hash_iter (no HashMap/HashSet), rx_panic (no
#      unwrap/expect/panic-family on the packet-input path, no indexing
#      in wire decoders) and shard_global (no thread-local accessors).
#      The clippy_gate test of `== test ==` pins the statements
#      themselves
#   fsm gate: the control::fsm unit tests (the guard admits exactly the
#      edges of spec/tcp_fsm.txt, a write outside it panics, the spec
#      parser reads every RFC state, docs/tcp_fsm.dot is current), then
#      the conformance coverage ratchet proves every non-exempt spec
#      edge is witnessed at runtime by both stacks (printing the
#      edges-covered/total counts per stack). Guard and ratchet compare
#      typed edges, foxbasis::obs's RfcState and Trigger, never the
#      spelling of a state. That every state write is a spec edge needs no
#      stage of its own: rustc confines the writes to control/fsm.rs,
#      where `transition`'s debug assertion is live in `== test ==` and
#      `== conformance ==`
#   foxperf: the benchmark — the repo's one wall-clock bench path
#      (BENCHMARK.json says how it is run; no stage here times anything),
#      a package of its own outside this workspace, so `== fmt ==`,
#      `== build ==`, `== test ==` and `== clippy ==` never see it — is
#      tested, clippy-linted and format-checked against the tree as it
#      stands, so a refactor that breaks what foxperf compiles against
#      fails here and not in the benchmark driver. What it guards in the
#      buffer path: foxperf compiles *and lints* unchanged against
#      `PacketBuf`'s public names and the by-value `encode_buf`s — which
#      is why `PacketBuf::bytes()` still returns a guard (a `&[u8]`
#      there trips `needless_borrow` in foxperf's ladder)
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt (check) =="
cargo fmt --check

echo "== build (release: every library, binary and example) =="
cargo build --release --workspace --lib --bins --examples

echo "== test (workspace; per-byte kernels and allocation budgets again in release) =="
cargo test -q --workspace
cargo test -q --release -p foxbasis -p foxwire
cargo test -q --release -p foxtcp --test alloc_budget
cargo test -q --release -p foxharness --test forget_rule

echo "== conformance (RFC 793, both stacks) =="
cargo test -q -p foxtcp --test conformance

echo "== loss and adversarial matrices (debug build, invariants checked at every step) =="
cargo run -q -p foxbench --bin tables -- lossmatrix adversarial > /dev/null

echo "== artifacts (every tables item, the traced run, the examples; digests against artifacts.sha256) =="
pinned=$(head -n 1 artifacts.sha256)
digests=$(scripts/same_bytes.sh --digests)
if [ "${digests%%$'\n'*}" != "$pinned" ]; then
  echo "toolchain mismatch: artifacts.sha256 is from \`$pinned\`, this build is \`${digests%%$'\n'*}\`" >&2
  exit 1
fi
diff artifacts.sha256 - <<< "$digests" || {
  echo "artifacts moved: scripts/same_bytes.sh <rev> shows which; if on purpose, rewrite artifacts.sha256 with --digests" >&2
  exit 1
}

echo "== bench (compile only) =="
cargo bench --workspace --no-run

echo "== doc (rustdoc, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

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
