#!/usr/bin/env bash
# Full local gate, in the order a reviewer would want failures surfaced:
# formatting first (cheapest), then the lint gates, then the test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

# Token-level determinism / panic-reachability / overflow-audit pass.
# The --budget-ms gate keeps the analyzer honest about its own cost: the
# whole workspace must lex, parse, and graph-walk in under 5 seconds.
echo "==> cargo run -p xtask -- analyze (budget 5s)"
cargo run -q -p xtask -- analyze --budget-ms 5000

# The machine-readable surface: --json must emit a valid
# sachi.analyze.v1 document even on a clean tree.
echo "==> cargo run -p xtask -- analyze --json | xtask validate-analysis"
cargo run -q -p xtask -- analyze --json 2>/dev/null \
  | cargo run -q -p xtask -- validate-analysis

echo "==> cargo test -q"
cargo test -q --workspace

# Release is the build that benches and serve run, and it compiles out
# the sweep's debug_assert! H == local_field check: run the kernel and
# protocol differential suites against the optimized build too
# (property_machines proptests every design, the resident machine and,
# on the graph families inside its envelope, BRIM against the golden
# model).
echo "==> kernel differential suites (--release)"
cargo test -q --release --test plane_equivalence --test golden_agreement --test fault_trajectories \
  --test property_machines

# The ensemble determinism contract must hold with the worker pool to
# itself and under heavy harness contention: run the suite serially and
# with 8 concurrent test threads.
echo "==> ensemble determinism (--test-threads=1)"
cargo test -q --test ensemble_determinism -- --test-threads=1

echo "==> ensemble determinism (--test-threads=8)"
cargo test -q --test ensemble_determinism -- --test-threads=8

# Fast fault-injection sweep: asserts the zero-rate identity and the
# thread-count independence of the fault stream on a small instance.
echo "==> disc_faults --smoke"
cargo run -q -p sachi-bench --bin disc_faults -- --smoke

# Kernel/sweep equality tripwire: asserts H equality between the scalar
# golden and the SoA tuple-plane kernel on the dense acceptance tuple, a
# King's-graph sweep, and a dense SoA sweep — and that banked
# multi-round sweeps keep the H trajectory and compute cycles
# bit-identical (timing ratios are only gated in the full run).
echo "==> perf_kernels --smoke"
cargo run -q -p sachi-bench --bin perf_kernels -- --smoke

# Model drift report: asserts the closed-form PerfModel reproduces the
# functional machine's metered compute cycles exactly on uniform-degree
# graphs, and prints the load-side cycle deltas for the record.
echo "==> disc_drift --smoke"
cargo run -q -p sachi-bench --bin disc_drift -- --smoke

# Observability smoke: a real solve's --metrics json snapshot must pass
# the sachi.metrics.v1 schema validation, including counter coverage of
# every subsystem (sram/l1/dram/machine/solver/recovery).
echo "==> sachi solve --metrics json | xtask validate-metrics"
cargo run -q -p sachi-cli --bin sachi -- \
  solve --cop md --size 64 --restarts 2 --metrics json --trace-phases \
  | cargo run -q -p xtask -- validate-metrics

# Solution-quality gate: the one-cell-per-family smoke subset of the
# seeded corpus (3-SAT, coloring, scheduling) must stay within the
# stated tolerances of the committed BENCH_quality.json — including the
# replica-exchange (+pt) twins, which must also match or beat the
# independent-restart best energy at an equal sweep budget in every
# (cell, design) pair (the tempering dominance gate, enforced inside
# disc_quality) — and the committed baseline itself must pass
# sachi.quality.v1 schema + coverage + tempered-twin pairing checks.
echo "==> disc_quality --smoke"
cargo run -q -p sachi-bench --bin disc_quality -- --smoke

echo "==> xtask validate-quality BENCH_quality.json"
cargo run -q -p xtask -- validate-quality BENCH_quality.json

# Daemon smoke: start `sachi serve`, then assert the protocol contract
# end to end — a daemon-solved job is byte-identical to the one-shot
# CLI (multi-tenant determinism), malformed input answers code 2,
# over-limit jobs answer code 5, /metrics is valid Prometheus text,
# and shutdown drains cleanly (daemon exits 0).
echo "==> sachi serve e2e smoke"
cargo build -q -p sachi-cli
SACHI=target/debug/sachi
PORT=17853
"$SACHI" serve --port "$PORT" --threads 2 --queue-depth 4 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if "$SACHI" submit --addr "127.0.0.1:$PORT" --ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$SACHI" submit --addr "127.0.0.1:$PORT" --ping

JOB=(--cop sat --size 12 --seed 9 --restarts 3 --step-budget 60000)
REF=$("$SACHI" solve "${JOB[@]}" | grep 'result  : H =')
# A co-tenant job runs concurrently so the determinism check exercises
# real replica interleaving on the shared pool, not an idle daemon.
"$SACHI" submit --addr "127.0.0.1:$PORT" \
  --cop md --size 24 --seed 4 --restarts 2 --step-budget 200000 \
  >/dev/null &
COTENANT_PID=$!
GOT=$("$SACHI" submit --addr "127.0.0.1:$PORT" "${JOB[@]}" | grep 'result  : H =')
wait "$COTENANT_PID"
if [ "$GOT" != "$REF" ]; then
  echo "serve smoke: daemon result diverged from one-shot CLI" >&2
  echo "  one-shot: $REF" >&2
  echo "  daemon:   $GOT" >&2
  exit 1
fi
echo "serve smoke: daemon result matches one-shot CLI"

# Same contract for a replica-exchange job: the coupled rungs must be
# byte-identical between the daemon's shared pool and the one-shot CLI.
PTJOB=(--cop sat --size 12 --seed 9 --restarts 3 --step-budget 60000
       --tempering --ladder adaptive)
PTREF=$("$SACHI" solve "${PTJOB[@]}" | grep 'result  : H =')
PTGOT=$("$SACHI" submit --addr "127.0.0.1:$PORT" "${PTJOB[@]}" | grep 'result  : H =')
if [ "$PTGOT" != "$PTREF" ]; then
  echo "serve smoke: tempered daemon result diverged from one-shot CLI" >&2
  echo "  one-shot: $PTREF" >&2
  echo "  daemon:   $PTGOT" >&2
  exit 1
fi
echo "serve smoke: tempered daemon result matches one-shot CLI"

# And for a faulted job: the fault stream, parity retries and the
# winning replica must agree between the daemon and the one-shot CLI.
FJOB=(--cop md --size 24 --seed 4 --restarts 3 --step-budget 60000
      --fault-ber 1e-3 --fault-policy retry:3)
FREF=$("$SACHI" solve "${FJOB[@]}" | grep -E '^(result  : H =|accuracy:)')
FGOT=$("$SACHI" submit --addr "127.0.0.1:$PORT" "${FJOB[@]}" | grep -E '^(result  : H =|accuracy:)')
if [ "$FGOT" != "$FREF" ]; then
  echo "serve smoke: faulted daemon result diverged from one-shot CLI" >&2
  echo "  one-shot: $FREF" >&2
  echo "  daemon:   $FGOT" >&2
  exit 1
fi
echo "serve smoke: faulted daemon result matches one-shot CLI"

# The one-shot engine itself is thread-count blind: a tempered solve's
# whole metrics snapshot is byte-identical at 1 and 2 threads.
PT1=$("$SACHI" solve "${PTJOB[@]}" --threads 1 --metrics json)
PT2=$("$SACHI" solve "${PTJOB[@]}" --threads 2 --metrics json)
if [ "$PT1" != "$PT2" ]; then
  echo "serve smoke: tempered --metrics json differs between 1 and 2 threads" >&2
  exit 1
fi
echo "serve smoke: tempered metrics snapshot is thread-count independent"

set +e
"$SACHI" submit --addr "127.0.0.1:$PORT" --raw 'this is not json' >/dev/null 2>&1
CODE_PARSE=$?
"$SACHI" submit --addr "127.0.0.1:$PORT" \
  --cop md --size 8 --restarts 2 --step-budget 999999999 >/dev/null 2>&1
CODE_LIMIT=$?
set -e
if [ "$CODE_PARSE" -ne 2 ] || [ "$CODE_LIMIT" -ne 5 ]; then
  echo "serve smoke: wrong protocol codes (parse=$CODE_PARSE want 2, limit=$CODE_LIMIT want 5)" >&2
  exit 1
fi
echo "serve smoke: typed refusals answer codes 2 and 5"

"$SACHI" submit --addr "127.0.0.1:$PORT" --fetch-metrics \
  | cargo run -q -p xtask -- validate-exposition

"$SACHI" submit --addr "127.0.0.1:$PORT" --shutdown
wait "$SERVE_PID"
trap - EXIT
echo "serve smoke: daemon drained cleanly"

echo "ci: all gates passed"
