#!/usr/bin/env bash
# Build tb-e2e (release, offline) and run it with the given arguments.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]       all workloads
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json | aa [--seed N]
#
# Run from the repository root (BENCHMARK.json's command does).
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/tb-e2e" "$@"
