#!/usr/bin/env bash
# Runs one benchmark workload from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the repository's own `prj-serve` (the cluster workload spawns it as
# its workers) and the benchmark, both in release mode, into
# $CARGO_TARGET_DIR (default: target), then runs the benchmark.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p prj-cluster --bin prj-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --prj-serve "$CARGO_TARGET_DIR/release/prj-serve" "$@"
