#!/usr/bin/env bash
# Tier-1 verification gates for the workspace. CI runs these same
# subcommands as separate jobs; run `./verify.sh` locally before pushing.
# Requires only the stable Rust toolchain (all third-party dependencies
# are vendored under vendor/ — no network needed).
#
# Usage:
#   ./verify.sh             # lint + test (the tier-1 gate)
#   ./verify.sh lint        # rustfmt + clippy only (fast feedback)
#   ./verify.sh test        # release build + full test pyramid (incl. the
#                           # slot-equivalence golden suite, run at both
#                           # full and FAST=1 horizons)
#   ./verify.sh bench-smoke # FAST=1 run of every fig/table binary;
#                           # writes CSV/JSON artifacts into $RESULTS_DIR,
#                           # then runs the hotpath trend gate (fails on a
#                           # sustained >20% regression) and prints the
#                           # markdown digest of the BENCH_*.json rates
#   ./verify.sh bench-full  # the same suite at full resolution (no FAST);
#                           # slow — CI exposes it as a manual
#                           # workflow_dispatch job
#   ./verify.sh sweep-smoke # FAST=1 sharded-sweep determinism check: runs
#                           # two figure grids single-process and as local
#                           # multi-process worker fleets, then byte-diffs
#                           # the merged BENCH_*.json against the reference
#   ./verify.sh search-smoke# FAST=1 manifest-search determinism check:
#                           # runs the tiny checked-in `smoke` manifest
#                           # search twice (second run on a single worker
#                           # thread) and byte-diffs the two
#                           # BENCH_search_smoke.json outputs
#   ./verify.sh perfbench   # tests of the end-to-end benchmark package
#                           # (perfbench/, its own workspace), which
#                           # drives the engine and policy APIs
set -euo pipefail
cd "$(dirname "$0")"

FIG_BINARIES=(
  fig1_convergence fig2_latency_vs_load fig3_cost_vs_load fig4_acceptance
  fig5_scalability fig6_chain_length fig7_dynamic fig8_optgap fig9_ablation
  fig10_reward_weights fig11_pg_vs_dqn fig12_resilience fig13_metro
  table1_params table2_hyperparams table3_summary
  hotpath
)

lint() {
  echo "==> cargo fmt --all --check"
  cargo fmt --all --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
}

test_() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test -q"
  cargo test -q

  # The slot-equivalence golden suite runs inside the full pyramid above;
  # run it again under FAST=1 so both horizon resolutions of the
  # slot-loop-vs-event-queue contract stay green (FAST trims the
  # scenarios' horizons, which shifts which slots carry events).
  echo "==> FAST=1 cargo test -q -p mano --test event_slot_equivalence"
  FAST=1 cargo test -q -p mano --test event_slot_equivalence
}

run_figures() {
  echo "==> cargo build --release -p bench"
  cargo build --release -p bench

  for bin in "${FIG_BINARIES[@]}"; do
    echo "==> $bin (FAST=${FAST:-0} -> $RESULTS_DIR)"
    ./target/release/"$bin" >/dev/null
  done

  echo "==> artifacts in $RESULTS_DIR:"
  ls -l "$RESULTS_DIR"
  # The perf trajectory needs at least one machine-readable report, the
  # resilience sweep must have produced its report, and the hotpath
  # throughput tracker (decisions/sec, batched decisions/sec and
  # train-steps/sec, with its in-report pre-optimization baseline) must
  # have emitted its report, as must the fig13 metro-scale streaming
  # sweep (requests/sec + peak heap across the 1x→100x horizon growth).
  ls "$RESULTS_DIR"/BENCH_*.json >/dev/null
  ls "$RESULTS_DIR"/BENCH_resilience.json >/dev/null
  ls "$RESULTS_DIR"/BENCH_hotpath.json >/dev/null
  ls "$RESULTS_DIR"/BENCH_metro.json >/dev/null
}

# Byte-identity check for one grid: single-process reference vs a merged
# N-shard × W-worker run. sweep_drive re-checks the bytes in memory; the
# cmp here additionally pins the on-disk artifact (the thing figures and
# the summary actually consume).
run_sweep_grid_check() {
  local grid="$1" shards="$2" workers="$3"
  echo "==> sweep: $grid reference (single process)"
  ./target/release/sweep_drive --grid "$grid" --in-process
  cp "$RESULTS_DIR/BENCH_$grid.json" "$RESULTS_DIR/BENCH_$grid.reference.json"

  echo "==> sweep: $grid sharded ($shards shards, $workers workers)"
  ./target/release/sweep_drive --grid "$grid" --shards "$shards" --workers "$workers"

  echo "==> sweep: byte-diff merged vs reference"
  cmp "$RESULTS_DIR/BENCH_$grid.reference.json" "$RESULTS_DIR/BENCH_$grid.json"
  rm -f "$RESULTS_DIR/BENCH_$grid.reference.json"
}

run_sweep_smoke() {
  echo "==> cargo build --release -p bench"
  cargo build --release -p bench
  run_sweep_grid_check fig2_load 4 4
  run_sweep_grid_check fig6_chains 2 2
}

# Byte-identity check for the manifest search: the checked-in two-axis
# `smoke` manifest searched twice — the second run pinned to one worker
# thread — must write byte-identical BENCH_search_smoke.json documents.
# This is the successive-halving determinism contract (index-keyed
# reduction, seeded expansion) pinned on the on-disk artifact.
run_search_smoke() {
  echo "==> cargo build --release -p bench"
  cargo build --release -p bench

  echo "==> search: smoke manifest (reference run)"
  ./target/release/search_drive smoke
  cp "$RESULTS_DIR/BENCH_search_smoke.json" "$RESULTS_DIR/BENCH_search_smoke.reference.json"

  echo "==> search: smoke manifest again (EXPER_THREADS=1)"
  EXPER_THREADS=1 ./target/release/search_drive smoke

  echo "==> search: byte-diff second run vs reference"
  cmp "$RESULTS_DIR/BENCH_search_smoke.reference.json" "$RESULTS_DIR/BENCH_search_smoke.json"
  rm -f "$RESULTS_DIR/BENCH_search_smoke.reference.json"
}

perfbench_() {
  echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

search_smoke() {
  export FAST=1
  export RESULTS_DIR="${RESULTS_DIR:-results}"
  run_search_smoke
}

sweep_smoke() {
  export FAST=1
  export RESULTS_DIR="${RESULTS_DIR:-results}"
  run_sweep_smoke
}

bench_smoke() {
  export FAST=1
  export RESULTS_DIR="${RESULTS_DIR:-results}"
  run_figures

  # Sharded-sweep smoke between the figures and the gate: sweep_drive
  # records optimized.sweep_cells_per_sec into the BENCH_hotpath.json the
  # figures just produced, so the trend gate below genuinely gates it.
  run_sweep_smoke

  # Manifest-search smoke ahead of the trend gate: its
  # BENCH_search_smoke.json lands in $RESULTS_DIR so the summary's search
  # digest (and the fingerprint-drift ⚠) covers a fresh document.
  run_search_smoke

  # Trend gate: compares BENCH_hotpath.json against the persisted series
  # state (restored across CI runs via actions/cache; accumulated in
  # $RESULTS_DIR locally). Soft-logs a single >20% dip, fails the job on
  # two consecutive ones.
  echo "==> hotpath trend gate"
  ./target/release/hotpath_gate

  echo "==> bench summary (markdown)"
  ./target/release/bench_summary
}

bench_full() {
  # Full-resolution on-demand sample of the perf trajectory: no FAST, its
  # own results dir, no trend gate (the tracked series is the smoke run's).
  unset FAST
  export RESULTS_DIR="${RESULTS_DIR:-results-full}"
  run_figures

  echo "==> bench summary (markdown)"
  ./target/release/bench_summary
}

case "${1:-all}" in
  lint) lint ;;
  test) test_ ;;
  bench-smoke) bench_smoke ;;
  bench-full) bench_full ;;
  sweep-smoke) sweep_smoke ;;
  search-smoke) search_smoke ;;
  perfbench) perfbench_ ;;
  all)
    lint
    test_
    ;;
  *)
    echo "usage: $0 [lint|test|bench-smoke|bench-full|sweep-smoke|search-smoke|perfbench|all]" >&2
    exit 2
    ;;
esac

echo "verify.sh: ${1:-all} gates passed"
