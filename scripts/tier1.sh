#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): everything a PR must keep green.
# Runs the release build, the full test suite, formatting and lints.
set -u

fail=0

run() {
  echo "==> $*"
  "$@" 2>&1 | tail -n 40
  local status=${PIPESTATUS[0]}
  if [ "$status" -ne 0 ]; then
    echo "FAILED ($status): $*"
    fail=1
  fi
}

cd "$(dirname "$0")/.."

run cargo build --release
run cargo test --workspace -q
# The benchmark harness is its own workspace; building it here catches an
# API break in the crates it drives before the benchmark runs.
run cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Behaviour and determinism gate: each ablation runs once at --quick
# (asserting its DESIGN.md §11-§17 acceptance checks) and its JSON must
# equal the committed quick baseline; on a mismatch benchdiff shows every
# moved field. README "Baselines" says how to regenerate them.
det_gate() {
  local want=baselines/quick/BENCH_$2.json got=results/BENCH_$2.json
  rm -f "$got"
  run cargo run --release -q -p prebake-bench --bin "$1" -- --quick
  cmp -s "$want" "$got" && return
  echo "FAILED: $got differs from $want"
  cargo run --release -q -p prebake-bench --bin benchdiff -- "$want" "$got" --tol 0 --floor 0
  fail=1
}
det_gate ablation_extent_restore restore
det_gate ablation_fleet fleet
det_gate ablation_registry registry
det_gate ablation_restore_parallel parallel
det_gate ablation_obs obs
det_gate ablation_scale scale
det_gate ablation_gateway gateway

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

if [ "$fail" -ne 0 ]; then
  echo "tier-1: FAILED"
  exit 1
fi
echo "tier-1: OK"
