#!/usr/bin/env bash
# Build the benchmark (and the experiment binaries its analyze-cached
# workload launches), then run one workload:
#
#   bash perfbench/run.sh --workload profile-paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
  -p mica-perfbench -p mica-experiments >&2
exec "$CARGO_TARGET_DIR/release/mica-perfbench" bench "$@"
