#!/usr/bin/env bash
# Build the em-gateway binary and the benchmark from source, then run the
# benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload match-http --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; stdout carries only the benchmark's lines.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p em-gateway --bin em-gateway >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --gateway-bin "$CARGO_TARGET_DIR/release/em-gateway" "$@"
