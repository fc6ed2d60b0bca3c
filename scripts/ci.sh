#!/usr/bin/env bash
# CI entry point: hermetic (offline) build + tests + dependency guard.
#
# The workspace must build with NOTHING from crates.io — every dependency is
# an in-repo `meissa-*` path crate (`meissa-testkit` supplies the RNG,
# property-testing, JSON, and bench support that external crates used to).
# The guard at the end fails the run if any non-workspace crate sneaks into
# the dependency graph.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release, offline)"
cargo build --release --offline --workspace --benches

echo "==> test (offline, sequential engine: MEISSA_THREADS=1, auto backend)"
# MEISSA_BACKEND=auto is the default; pin it so the CI run is explicit
# about which predicate backend answered the probes.
MEISSA_BACKEND=auto MEISSA_THREADS=1 cargo test -q --offline --workspace

echo "==> test (offline, parallel engine: MEISSA_THREADS=4, auto backend)"
# Same suite again under the work-stealing explorer: templates must be
# byte-identical to the sequential run (the golden/e2e tests assert exact
# output), so this catches any thread-count-dependent behavior.
MEISSA_BACKEND=auto MEISSA_THREADS=4 cargo test -q --offline --workspace

echo "==> test (offline, smt-only backend: MEISSA_BACKEND=smt)"
# The suite once more with every probe forced onto the incremental SMT
# solver: output must not depend on which backend decided the probes
# (backend_equivalence/backend_prop assert it explicitly; the rest of the
# suite re-asserts it wholesale).
MEISSA_BACKEND=smt MEISSA_THREADS=4 cargo test -q --offline -p meissa-suite -p meissa-core

echo "==> test (offline, clause exchange off: MEISSA_CLAUSE_SHARE=off)"
# The parallel run once more with the learned-clause exchange disabled:
# shared lemmas may only save SAT-engine work, never steer the search, so
# every golden/e2e/determinism assertion must hold identically without
# them (clause_exchange.rs additionally diffs the two modes head-to-head).
MEISSA_CLAUSE_SHARE=off MEISSA_THREADS=4 cargo test -q --offline -p meissa-suite -p meissa-core

echo "==> test (offline, stateful sequences: MEISSA_K_PACKETS=2)"
# The core + suite tests once more with the sequence-length knob set:
# `Meissa::run` is contractually independent of `k_packets` (only
# `run_sequences` consumes it), so every golden and e2e assertion must
# hold unchanged — while the stateful suite tests exercise the k=2
# sequence engine, the register-threading unroller, and the stateful
# wire checker directly.
MEISSA_K_PACKETS=2 MEISSA_THREADS=4 cargo test -q --offline -p meissa-suite -p meissa-core

echo "==> loopback smoke test: gw-3 through the wire driver"
# Spawns the switch agent on an ephemeral loopback port and streams the
# gw-3 suite through the TCP sender/receiver/checker (transport faults
# off); the test asserts zero spurious failures and verdict-for-verdict
# agreement with the in-process driver.
cargo test -q --offline -p meissa-suite --test wire_equivalence

echo "==> wire tests again under binary framing: MEISSA_WIRE_FRAMING=bin"
# The same loopback equivalence run plus the 16-fault seeded matrix and
# the codec property tests, with the client requesting the compact binary
# codec at Hello time. Framing is transport, not semantics: every verdict
# must match the JSON-framed runs bug-for-bug, including under injected
# transport faults.
MEISSA_WIRE_FRAMING=bin cargo test -q --offline \
  -p meissa-suite --test wire_equivalence --test fault_matrix
MEISSA_WIRE_FRAMING=bin cargo test -q --offline \
  -p meissa-netdriver --test codec_props

echo "==> netdriver throughput guard: binary loopback floor (host-gated)"
# Streams the gw-3 (8-EIP) suite through the pipelined wire client with
# binary framing at 4 connections and fails if the best-of-3 replay-phase
# throughput lands under 20k cases/s. The floor is calibrated for a
# dedicated CI host; set MEISSA_SKIP_NETDRIVER_GUARD=1 on shared or
# heavily loaded machines.
MEISSA_BENCH_NETDRIVER=1 cargo bench -q --offline -p meissa-bench

echo "==> soak smoke: traced sub-second soaks + meissa-trace --check"
# The short soak tests once more with a JSONL trace sink attached: the
# wire.case / wire.conn / wire.run spans the pipelined client emits must
# survive the sustained-replay path too. meissa-trace then validates the
# trace wholesale (lines parse, span ids unique, parents resolve, children
# nest). The full bench leaves a longer 5 s soak trace behind as
# results/trace_netdriver_soak.jsonl with the same span vocabulary.
SOAK_TRACE="$PWD/target/soak_smoke.jsonl"
rm -f "$SOAK_TRACE"
MEISSA_TRACE="$SOAK_TRACE" cargo test -q --offline -p meissa-netdriver --test codec_props soak
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check "$SOAK_TRACE"

echo "==> bench smoke: gw-3-r8 figures row vs goldens"
# Runs the figures bench in smoke mode: one gw-3 (8-EIP) row through the
# DFS and summary engines at threads=1, asserting smt_checks and template
# counts against goldens. Catches silent drift in the Fig. 11b metric —
# batched probing must keep one smt_check per probed arm — without paying
# for the full bench sweep. With observability off (no MEISSA_TRACE here),
# this also runs the disabled-path guard: a gated obs site must cost one
# relaxed atomic load (< 5 ns), or the smoke run fails.
MEISSA_BENCH_SMOKE=1 cargo bench -q --offline -p meissa-bench

echo "==> stateful bench smoke: firewall unrolling sweep + sequence trace"
# Runs the stateful unrolling sweep (sequence templates and time vs k on
# the connection-tracking firewall, writing results/stateful_unroll.txt
# and BENCH_stateful.json), then reconciles the engine's sequence.* spans
# with meissa-trace: every line parses, span ids are unique, parents
# resolve, children nest. The sweep itself asserts the k=1 degeneration
# contract against the single-packet engine.
MEISSA_BENCH_STATEFUL=1 cargo bench -q --offline -p meissa-bench
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check results/trace_stateful_unroll.jsonl
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- results/trace_stateful_unroll.jsonl

echo "==> scaling guard: gw-3-r32/dfs t4 speedup (host-gated)"
# On a host with >= 4 cores the work-stealing DFS must deliver at least a
# 2.0x speedup at 4 threads on the large gateway, or the run fails — this
# is the regression tripwire for the serialization bugs the scaling trace
# work flushed out (static donation depth, merge on the join path, cold
# min_paths floor). On smaller hosts the engine right-sizes its pool to
# the available cores, the target is unattainable by construction, and
# the guard is skipped.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  MEISSA_BENCH_SCALING=1 cargo bench -q --offline -p meissa-bench
else
  echo "skipped: host exposes $cores core(s) (< 4)"
fi

echo "==> obs smoke: traced gw-3-r8 run + meissa-trace --check"
# Re-runs the bench smoke with a JSONL trace sink attached (the engine's
# counters must not move — the smoke goldens still apply), then validates
# the trace with meissa-trace: every line parses, span ids are unique,
# parents resolve, children nest inside their parent's interval. The
# summarizer run at the end proves the per-phase/per-worker report path.
OBS_TRACE="$PWD/target/obs_smoke.jsonl"
rm -f "$OBS_TRACE"
MEISSA_BENCH_SMOKE=1 MEISSA_TRACE="$OBS_TRACE" cargo bench -q --offline -p meissa-bench
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check "$OBS_TRACE"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- "$OBS_TRACE"

echo "==> coverage ledger & diff gate: identical runs match, mutations fail"
# Two identical-seed traced gw-3 runs append RunRecords to separate
# ledgers; `meissa-trace diff` must pass them (covered arms preserved,
# smt_checks/templates/valid_paths exactly equal). Then a seeded
# coverage-dropping mutation — the last eip_lookup rule removed — must
# make the gate FAIL and name the now-missing rule, or the gate itself
# is broken.
LEDGER_DIR="$PWD/target/ledger_gate"
rm -rf "$LEDGER_DIR" && mkdir -p "$LEDGER_DIR"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/a.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/b.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
  diff "$LEDGER_DIR/a.jsonl" "$LEDGER_DIR/b.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/mut.jsonl" --drop-last-rule eip_lookup
if out=$(cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
    diff "$LEDGER_DIR/a.jsonl" "$LEDGER_DIR/mut.jsonl"); then
  echo "diff gate FAILED to fail on a coverage-dropping mutation:" >&2
  echo "$out" >&2
  exit 1
fi
if ! echo "$out" | grep -q "table eip_lookup rule .* absent in candidate"; then
  echo "diff gate failed but did not name the dropped rule:" >&2
  echo "$out" >&2
  exit 1
fi
echo "ok: identical runs diff clean; dropped rule named and gated"

echo "==> e2ebench: self-tests + one correctness run per declared workload"
# The source-to-verdict benchmark is a package of its own; its unit tests
# include the check that BENCHMARK.json equals the rendered spec. Each
# declared workload then runs once, briefly and untraced: the exit code
# gates the golden template counts and fingerprints, planned cases, skips
# and rules hit, fail_frac = 0, and 16/16 known answers. Timings from
# these short runs are not compared.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
for w in gw4-summary acl-dfs; do
  if ! out=$(cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- \
      --workload "$w" --seed 1 --seconds 1 --trace 0); then
    echo "e2ebench $w failed its correctness gates:" >&2
    echo "$out" >&2
    exit 1
  fi
done
echo "ok: e2ebench goldens and known answers hold"

echo "==> dependency guard: workspace crates only"
# Every line of the flat dependency listing must be a meissa-* path crate
# (or the facade crate `meissa` itself). Anything else is an external
# dependency and breaks the hermetic-build guarantee.
bad=$(cargo tree --offline --workspace --prefix none --edges normal,build,dev \
  | sed 's/ (\*)$//' | sort -u \
  | grep -v -E '^meissa(-[a-z]+)? v[0-9.]+ \(/' || true)
if [ -n "$bad" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok: dependency graph is meissa-* only"
