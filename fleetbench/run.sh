#!/usr/bin/env bash
# Builds gb-serve, gb-router and the benchmark in release mode, then runs
# the benchmark from the checkout root with the given arguments, e.g.
#   bash fleetbench/run.sh --workload miss-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p gb-service --bin gb-serve -p gb-router --bin gb-router >&2
cargo build --release --offline --quiet --manifest-path fleetbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fleetbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
