#!/usr/bin/env bash
# Build the sqlcheck CLI and the perfbench binary from source, then run one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload plain|skewed|github|edit --seed N \
#                         --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); generated
# inputs and span files go under $CARGO_TARGET_DIR/perfbench. The last line
# on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin sqlcheck >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --sqlcheck "$CARGO_TARGET_DIR/release/sqlcheck" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
