#!/usr/bin/env bash
# Byte-identity check of a refactor: builds `exp_all` and `meshsim` from
# the working tree and from a git revision (default HEAD), runs the same
# outputs on both (`exp_all`, and `meshsim` all-to-one under each of the
# three stacks, once light and once contended, once more with a fault
# inside a six-hour stream, once with the SNR tie-break, once with
# per-node and gateway reports and once more with per-node reports on
# a 256-node grid, once more under each stack at SF9 on EU868's 1 %
# duty cycle, plus three bulk transfers: one clean, one that completes
# after retransmissions, one that aborts) and `cmp`s each one. Exits 1
# naming every output that differs, 0 when all are identical.
#
#   ./scripts/parent_diff.sh            # working tree vs HEAD
#   ./scripts/parent_diff.sh HEAD~1     # working tree vs its parent
#
# The revision is unpacked under target/parent_diff/tree and built with
# its own CARGO_TARGET_DIR (target/parent_diff/target); outputs go to
# target/parent_diff/out. Everything builds offline and nothing is
# written outside target/. Not part of ci.sh: it needs a second build.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
work="target/parent_diff"
tree="$work/tree"
out="$work/out"

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
  echo "error: unknown revision '$rev'" >&2
  exit 2
}

rm -rf "$tree" "$out"
mkdir -p "$tree" "$out/rev" "$out/tree"
# Fresh mtimes (-m): cargo fingerprints sources by mtime, and a previous
# revision's objects in the shared target dir must not pass for this one's.
git archive "$rev" | tar -x -m -C "$tree"

# Every binary of the workspace: one command that builds `exp_all` and
# `meshsim` whichever package holds them at the revision.
echo "==> building exp_all and meshsim at $rev"
CARGO_TARGET_DIR="$PWD/$work/target" cargo build -q --release --offline \
  --manifest-path "$tree/Cargo.toml" --workspace --bins
echo "==> building exp_all and meshsim from the working tree"
cargo build -q --release --offline --workspace --bins

# name|binary|arguments. The all-to-one run goes through each stack's
# send path once more; exp_all already covers the three stacks' tables.
# The six-hour run kills and revives a sender inside its stream and
# outlasts the event queue's ≈ 4.9 h level-1 window, so sends fire on a
# dead node and are parked beyond the wheel. The contended grid runs
# (36 nodes, a send every 2 s each) fill transmit queues and back off
# on busy CAD verdicts under each stack. The SNR tie-break run moves
# routes between next hops at equal metric, the one path on which the
# routing table stores no repeat record. The per-node run prints what
# is read back out of every table: each node's route count and its
# gateway's hop count. The 256-node grid run has the shape of the
# benchmark's `mesh_grid` workload (16×16, all-to-one every 60 s,
# ≈ 0.4 s) and prints every node's route count after about two hours:
# tables that grew, and shrank again, through the formation transient,
# the phase that exercises the table's growth path. The three SF9 runs
# (16-node grid, a send every 20 s each, one hour on EU868) keep
# transmit queues full behind the 1 % duty cycle: frames wait longest
# between being queued and being sent, and evictions and refusals are
# constant (LoRaMesher refuses 2 074 of its 2 610 datagrams). The clean
# bulk run never reaches a retry; the two grey-zone bulk runs lose
# frames on purpose: the 4 KiB one completes after retransmissions
# (first completion at 172.886 s, 1 339 frames), the 8 KiB one at 95 %
# spacing spends its retry budget and aborts (0 completed, 1 failed,
# 1 119 frames).
runs=(
  "exp_all.md|exp_all|--markdown --seed 42"
  "meshsim_all_to_one.txt|meshsim|--nodes 16 --duration 600 --traffic all-to-one:30"
  "meshsim_all_to_one_flooding.txt|meshsim|--protocol flooding --nodes 16 --duration 600 --traffic all-to-one:30"
  "meshsim_all_to_one_star.txt|meshsim|--protocol star --nodes 16 --duration 600 --traffic all-to-one:30"
  "meshsim_contended.txt|meshsim|--protocol loramesher --topology grid --nodes 36 --duration 300 --traffic all-to-one:2"
  "meshsim_contended_flooding.txt|meshsim|--protocol flooding --topology grid --nodes 36 --duration 300 --traffic all-to-one:2"
  "meshsim_contended_star.txt|meshsim|--protocol star --topology grid --nodes 36 --duration 300 --traffic all-to-one:2"
  "meshsim_bulk.txt|meshsim|--nodes 6 --duration 1800 --traffic bulk:0:5:2048"
  "meshsim_bulk_retries.txt|meshsim|--nodes 6 --grey-zone --duration 3600 --traffic bulk:0:5:4096"
  "meshsim_bulk_abort.txt|meshsim|--nodes 6 --grey-zone --spacing-frac 0.95 --duration 3600 --traffic bulk:0:5:8192"
  "meshsim_all_to_one_faults.txt|meshsim|--nodes 16 --duration 21600 --traffic all-to-one:60 --kill 3@3000 --revive 3@6000"
  "meshsim_snr_tiebreak.txt|meshsim|--snr-tiebreak --topology random --nodes 16 --duration 600 --traffic all-to-one:30"
  "meshsim_per_node.txt|meshsim|--per-node --gateway 0 --topology random --nodes 16 --duration 600 --traffic all-to-one:30"
  "meshsim_grid256.txt|meshsim|--topology grid --nodes 256 --traffic all-to-one:60 --duration 7440 --per-node"
  "meshsim_duty_sf9.txt|meshsim|--protocol loramesher --eu868 --sf 9 --topology grid --nodes 16 --traffic all-to-one:20 --duration 3600"
  "meshsim_duty_sf9_flooding.txt|meshsim|--protocol flooding --eu868 --sf 9 --topology grid --nodes 16 --traffic all-to-one:20 --duration 3600"
  "meshsim_duty_sf9_star.txt|meshsim|--protocol star --eu868 --sf 9 --topology grid --nodes 16 --traffic all-to-one:20 --duration 3600"
)

differ=0
for run in "${runs[@]}"; do
  IFS='|' read -r name bin args <<<"$run"
  echo "==> $bin $args"
  # shellcheck disable=SC2086 # the arguments are split on purpose
  "$work/target/release/$bin" $args >"$out/rev/$name"
  # shellcheck disable=SC2086
  "target/release/$bin" $args >"$out/tree/$name"
  if ! cmp -s "$out/rev/$name" "$out/tree/$name"; then
    echo "DIFFERS: $name ($bin $args): $out/rev/$name vs $out/tree/$name"
    differ=1
  fi
done

if [ "$differ" -ne 0 ]; then
  exit 1
fi
echo "all outputs identical to $rev"
