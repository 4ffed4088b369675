#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build + tests, the meda-check
# replay corpus, the concurrent-fleet smoke, the synthesis-service smoke,
# and (unless --quick) the full-mode paper-scale synthesis bench, the
# full-mode hard-chaos degradation matrix, the full-mode concurrent-makespan
# bench, the full-mode serve-latency bench, the profile smoke, the
# repository benchmark's own tests plus a serve-replay correctness smoke,
# and the benchmark-regression gate.
# Everything runs without network access (the workspace has zero
# third-party dependencies — see DESIGN.md §6).
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the release bench/chaos/profile stages and the bench
#             regression gate (the slow stages) — for fast local loops.
#
# Each stage is a named function run through `stage <name> <fn>`; a trap
# prints the per-stage wall-time summary on exit, pass or fail.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (supported: --quick)" >&2; exit 2 ;;
  esac
done

STAGE_NAMES=()
STAGE_TIMES=()
CURRENT_STAGE=""

summary() {
  local status=$?
  echo
  echo "==> ci.sh stage summary"
  local i
  for ((i = 0; i < ${#STAGE_NAMES[@]}; i++)); do
    printf '    %-24s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}"
  done
  if [ "$status" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
    printf '    %-24s FAILED\n' "$CURRENT_STAGE"
    echo "ci.sh: FAILED in stage '$CURRENT_STAGE' (exit $status)"
  elif [ "$status" -eq 0 ]; then
    echo "ci.sh: all checks passed"
  fi
}
trap summary EXIT

stage() {
  local name=$1
  shift
  CURRENT_STAGE=$name
  echo
  echo "==> $name"
  local start=$SECONDS
  "$@"
  STAGE_NAMES+=("$name")
  STAGE_TIMES+=("$((SECONDS - start))")
  CURRENT_STAGE=""
}

fmt()           { cargo fmt --all -- --check; }
clippy()        { cargo clippy --workspace --all-targets -- -D warnings; }
build_release() { cargo build --workspace --release; }
# Early, cheap, and high-signal: every previously-shrunk counterexample in
# crates/check/tests/corpus/ must still pass before the random suites run.
replay_corpus() { cargo run --release -- check --replay-only; }
tests()         { cargo test --workspace --quiet; }
lint()          { cargo run --release -p meda-lint; }
audit_smoke()   { cargo run --release -- audit covid-rat; }
# Sound certification pass: certified [lo, hi] interval-iteration bounds
# over the MEC quotient plus an exact induced-chain strategy evaluation
# for every routed job (DESIGN.md §14).
audit_sound()   { cargo run --release -- audit covid-rat --sound; }
# Negative self-test: the packaged end-component trap is an exact fixed
# point of the plain Pmax operator, so the residual certificate MUST
# accept it (exit 0) while the sound pass MUST reject it (exit nonzero).
# Either outcome flipping means a certification gate is broken.
audit_sound_selftest() {
  cargo run --release -- audit selftest-unsound
  if cargo run --release -- audit selftest-unsound --sound; then
    echo "audit-sound-selftest: the sound pass accepted the end-component trap — the bounds gate is broken" >&2
    return 1
  fi
  echo "audit-sound-selftest: sound pass rejected the trap the residual certificate accepts, as it must"
}
# Default smoke budget is small; set MEDA_CHECK_CASES for an extended run.
check_smoke()   { cargo run --release -- check --smoke; }
# End-to-end concurrent-fleet smoke: N=4 must complete master-mix no slower
# than serial with a clean fluidic-separation audit (exits nonzero either way).
fleet_smoke()   { cargo run --release -- fleet --smoke; }
# End-to-end synthesis-service smoke over the committed request fixture
# (repeated + translated jobs): the batch must produce at least one
# canonical cache hit, two runs over the same persistent cache must be
# byte-identical on stdout, and after corrupting a cached entry the store
# audit (`meda serve --check-cache`) must exit nonzero.
serve_smoke() {
  local dir=target/ci-serve-cache
  rm -rf "$dir"
  cargo run --release -- serve --batch scripts/serve_smoke_requests.jsonl \
    --cache-dir "$dir" --min-hits 1 > target/serve_smoke_run1.out
  cargo run --release -- serve --batch scripts/serve_smoke_requests.jsonl \
    --cache-dir "$dir" --min-hits 1 > target/serve_smoke_run2.out
  cmp target/serve_smoke_run1.out target/serve_smoke_run2.out \
    || { echo "serve-smoke: warm rerun is not byte-identical to the cold run" >&2; return 1; }
  local entry
  entry=$(ls "$dir"/*.json | head -n 1)
  sed -i 's/"values":\["/"values":["f/' "$entry"
  if cargo run --release -- serve --check-cache --cache-dir "$dir"; then
    echo "serve-smoke: --check-cache accepted a corrupted entry — the load audit is broken" >&2
    return 1
  fi
  echo "serve-smoke: cache hits, byte-identical reruns, and corruption detection all hold"
}
# Full (non-smoke) mode: the paper-scale Table V matrix up to 90×90. The
# committed BENCH_synthesis.json baseline is full-mode, and bench_compare
# only gates timings when modes match — a smoke run here would downgrade
# every paper-scale regression to a warning.
bench_full()    { cargo run --release -p meda-bench --bin bench_synthesis; }
# Full mode runs all four fault classes and self-checks the blessed
# degradation-curve claims (monotone curves, reconfig dominance on the
# electrode-killing classes) — it exits nonzero on a shape violation even
# before bench_compare diffs the committed baseline.
chaos_full()    { cargo run --release -p meda-bench --bin ext_chaos; }
# Full mode runs CEP, COVID-PCR, and the multiplex assay at N ∈ {1,2,4,8}
# and self-checks that every N ≥ 2 strictly beats the serial makespan —
# it exits nonzero on a throughput regression even before bench_compare
# diffs the committed baseline.
makespan_full() { cargo run --release -p meda-bench --bin bench_makespan; }
# Full mode runs the three-assay translated-geometry mix and self-checks
# the headline claims (every warm request hits the canonical cache, warm
# hits are >= 10x faster than cold synthesis) — it exits nonzero on a
# cache regression even before bench_compare diffs the committed baseline.
serve_full()    { cargo run --release -p meda-bench --bin bench_serve; }
profile_smoke() { cargo run --release -- profile covid-rat; }
# The repository benchmark (perfbench/, its own workspace) has its own
# tests, and every workload checks its own rounds: serve-replay checks each
# response it replays (no errors, all-hit warm and restart phases,
# byte-identical restarts, value bits equal to direct synthesis), and
# reuse-adaptive and fleet-chaos replay cloned chips and must reproduce
# every round bit for bit. One second of each workload on the held-out
# seed must end with `"correct":true` on the last line of stdout.
perfbench_smoke() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  local workload last
  for workload in serve-replay fleet-chaos reuse-adaptive; do
    last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 7919 --seconds 1 --trace 0 | tail -n 1)
    case "$last" in
      *'"correct":true'*) echo "perfbench-smoke: $workload seed 7919 is correct" ;;
      *) echo "perfbench-smoke: $workload did not report \"correct\":true: $last" >&2; return 1 ;;
    esac
  done
}
# Diff the fresh target/bench/ runs against the committed baselines;
# >25% timing regressions in smoke mode fail (see EXPERIMENTS.md to re-bless).
bench_gate()    { cargo run --release -p meda-bench --bin bench_compare -- synthesis chaos makespan serve; }
# Negative self-test: against a fixture baseline with 1 ns timings the gate
# MUST fire; if it exits 0 the gate is broken and CI should say so.
gate_selftest() {
  if cargo run --release -p meda-bench --bin bench_compare -- synthesis \
      --baseline scripts/bench_regression_fixture.json; then
    echo "gate-selftest: bench_compare passed against the impossible fixture — the gate is broken" >&2
    return 1
  fi
  echo "gate-selftest: gate fired against the fixture baseline, as it must"
}
# Same negative self-test for the degradation-curve gate: the fixture
# claims absurd reconfig dominance margins, so any real full-mode chaos run
# must trip the dominance-collapse check in bench_compare.
chaos_gate_selftest() {
  if cargo run --release -p meda-bench --bin bench_compare -- chaos \
      --baseline scripts/chaos_regression_fixture.json; then
    echo "chaos-gate-selftest: bench_compare passed against the impossible fixture — the dominance gate is broken" >&2
    return 1
  fi
  echo "chaos-gate-selftest: gate fired against the fixture baseline, as it must"
}
# Same negative self-test for the concurrent-makespan gate: the fixture
# claims absurd serial-vs-concurrent dominance margins, so any real
# full-mode makespan run must trip the dominance-collapse check.
makespan_gate_selftest() {
  if cargo run --release -p meda-bench --bin bench_compare -- makespan \
      --baseline scripts/makespan_regression_fixture.json; then
    echo "makespan-gate-selftest: bench_compare passed against the impossible fixture — the concurrent-makespan gate is broken" >&2
    return 1
  fi
  echo "makespan-gate-selftest: gate fired against the fixture baseline, as it must"
}
# Same negative self-test for the serve gate: the fixture claims 1 ns
# latencies, a 1e9x warm-hit speedup, and a 0.0 hit rate, so any real
# full-mode bench_serve run must trip the timing and speedup gates.
serve_gate_selftest() {
  if cargo run --release -p meda-bench --bin bench_compare -- serve \
      --baseline scripts/serve_regression_fixture.json; then
    echo "serve-gate-selftest: bench_compare passed against the impossible fixture — the serve gate is broken" >&2
    return 1
  fi
  echo "serve-gate-selftest: gate fired against the fixture baseline, as it must"
}

stage "fmt"            fmt
stage "clippy"         clippy
stage "build-release"  build_release
stage "replay-corpus"  replay_corpus
stage "test"           tests
stage "lint"           lint
stage "audit-smoke"    audit_smoke
stage "audit-sound"    audit_sound
stage "audit-sound-selftest" audit_sound_selftest
stage "check-smoke"    check_smoke
stage "fleet-smoke"    fleet_smoke
stage "serve-smoke"    serve_smoke
if [ "$QUICK" -eq 0 ]; then
  stage "bench-full"              bench_full
  stage "chaos-full"              chaos_full
  stage "makespan-full"           makespan_full
  stage "serve-full"              serve_full
  stage "profile-smoke"           profile_smoke
  stage "perfbench-smoke"         perfbench_smoke
  stage "bench-gate"              bench_gate
  stage "gate-selftest"           gate_selftest
  stage "chaos-gate-selftest"     chaos_gate_selftest
  stage "makespan-gate-selftest"  makespan_gate_selftest
  stage "serve-gate-selftest"     serve_gate_selftest
else
  echo
  echo "==> --quick: skipping bench-full, chaos-full, makespan-full, serve-full, profile-smoke, perfbench-smoke, bench-gate, gate-selftest, chaos-gate-selftest, makespan-gate-selftest, serve-gate-selftest"
fi
