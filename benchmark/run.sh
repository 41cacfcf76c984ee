#!/usr/bin/env bash
# Builds the benchmark and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload untraced, then traced; prints every metric and
#       writes benchmark/out/results.json + trace-<workload>.json
#   benchmark/run.sh run|trace <workload> [--seed N] [--seconds S] [--quick]
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is its JSON result
set -euo pipefail
cd "$(dirname "$0")/.."

# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
