#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--smoke] [--out FILE]
#       every workload, every check, every metric as
#       `workload metric value unit`, and a results file
#       (default benchmark/results/latest.json)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload for about S seconds, one JSON line (BENCHMARK.json)
#   benchmark/run.sh compare A.json B.json
#       verdicts between two results files; exits 1 on any *worse*
#
# Builds offline in release mode first; exits non-zero when the build
# or any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/lorabench" "$@"
