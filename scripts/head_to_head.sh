#!/usr/bin/env bash
# Regenerates experiment E13 — LoRaMesher vs. managed flooding on the
# same placements, seeds and workloads, at 64–1024 nodes under the
# Meshtastic LongFast and LongSlow modem presets — entirely offline.
# The markdown table feeds the E13 section of EXPERIMENTS.md.
#
# Extra arguments are passed through:
#   ./scripts/head_to_head.sh                      # full sweep
#   ./scripts/head_to_head.sh --quick              # shrunk (seconds)
#   ./scripts/head_to_head.sh --seeds 5 --jobs 4   # replicated
#   ./scripts/head_to_head.sh --protocol flooding  # one stack only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline -p meshsim --bin exp_all"
cargo build --release --offline -p meshsim --bin exp_all

echo "==> exp_all e13 $*"
./target/release/exp_all e13 "$@"
