#!/usr/bin/env bash
# Tier-1 gate for the repository: formatting, the static-analysis wall
# (clippy -D warnings + meshlint), a fully offline release build, and
# the fully offline test suite, then the out-of-workspace benchmark
# package (smoke run + its unit tests). Run from anywhere; no network
# access is required (the workspace has no registry dependencies).
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo build --offline --examples (host-integration examples)"
cargo build --offline --examples

echo "==> cargo build -p loramesher -p lora-phy --no-default-features --offline (no_std feature leg)"
cargo build -p loramesher -p lora-phy --no-default-features --offline

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> meshlint (determinism & robustness rules, ratcheted)"
cargo run -q --release --offline -p meshlint -- --root . --baseline meshlint.baseline

echo "==> cargo test -q --offline -p meshlint (analyzer unit + fixture suite)"
cargo test -q --offline -p meshlint

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# Release is the build the benchmark measures, and debug assertions
# double as oracles that can mask a broken gate: the gate-soundness
# batteries run once without them as well — as do the event queue's
# models, the only oracle its cached head has in release, and the
# clock's: integer overflow traps in debug and wraps in release, so the
# clock's saturation is only proved explicit on this build. The
# connectivity check's squared-distance gate is float arithmetic the
# optimiser may schedule differently, so its model runs here too.
echo "==> cargo test -q --offline --release -p radio-sim --test row_model --test grid_model --test interference_model --test queue_model --test clock_model --test shard_model --test commit_merge --test topology_model (model batteries without debug assertions)"
cargo test -q --offline --release -p radio-sim --test row_model --test grid_model --test interference_model --test queue_model --test clock_model --test shard_model --test commit_merge --test topology_model

# The routing table's repeat memo answers most hellos in a converged
# mesh; its exactness against the map reference and the expiry oracle
# holds on the optimised build too, where no debug assertion backs it.
echo "==> cargo test -q --offline --release -p loramesher --test table_model --test expiry_oracle (routing-table models without debug assertions)"
cargo test -q --offline --release -p loramesher --test table_model --test expiry_oracle

# One thread runs one queue, so the k-way merge's sequential band
# drain is entered only by threaded runs whose planner declines; in
# release it has no debug assertion behind it, only this battery.
echo "==> cargo test -q --offline --release --test shard_diff (shard/thread transparency, declined-planner merge drain, without debug assertions)"
cargo test -q --offline --release --test shard_diff

# Allocation behaviour is a property of the optimised build the
# benchmark measures; the debug run above adds the MAC's wire-cache
# cross-check encode to every count.
echo "==> cargo test -q --offline --release --test alloc_regression (allocation bounds on the optimised build)"
cargo test -q --offline --release --test alloc_regression

echo "==> cargo clippy --offline -p loramesher --features crypto --all-targets -- -D warnings (crypto feature lint leg)"
cargo clippy --offline -p loramesher --features crypto --all-targets -- -D warnings

echo "==> cargo test -q --offline -p loramesher --features crypto (AES-CTR flood payload encryption leg)"
cargo test -q --offline -p loramesher --features crypto

echo "==> meshsim --shards 4 smoke (sharded engine through the CLI)"
cargo run -q --release --offline -p meshsim -- --nodes 12 --duration 120 --shards 4 >/dev/null

echo "==> meshsim --shards 4 --threads 2 --rng-streams smoke (parallel batch commit through the CLI)"
cargo run -q --release --offline -p meshsim -- --nodes 12 --duration 120 --shards 4 --threads 2 --rng-streams >/dev/null

# One thread queues a frame's ends as one burst; band queues file them
# singly. SF12 frames outlast the event wheel's level 0, so the bursts
# are re-filed from level 1 too: both runs must print the same bytes.
echo "==> meshsim --sf 12 bulk --shards 4 --rng-streams at --threads 1 and 2 (bursts vs per-receiver events, cmp)"
sf12=(--nodes 6 --duration 1800 --sf 12 --traffic bulk:0:5:2048 --shards 4 --rng-streams)
cargo run -q --release --offline -p meshsim -- "${sf12[@]}" --threads 1 >target/ci_sf12_t1.txt
cargo run -q --release --offline -p meshsim -- "${sf12[@]}" --threads 2 >target/ci_sf12_t2.txt
cmp target/ci_sf12_t1.txt target/ci_sf12_t2.txt

echo "==> meshsim --protocol flooding --shards 4 --threads 2 --rng-streams smoke (flooding stack on the parallel engine)"
cargo run -q --release --offline -p meshsim -- --protocol flooding --nodes 12 --duration 120 --shards 4 --threads 2 --rng-streams >/dev/null

# At the CLI's density (mean degree ≈ 4.3) 300 random nodes never come
# out connected: meshsim must say so and exit 1, not panic (101).
echo "==> meshsim --topology random --nodes 300 (refused with an error, not a panic)"
status=0
cargo run -q --release --offline -p meshsim -- --topology random --nodes 300 2>target/ci_random300.txt >/dev/null || status=$?
test "$status" -eq 1
grep -qx "error: no connected random placement of 300 nodes in 2000 draws" target/ci_random300.txt

# The benchmark is a package of its own outside the workspace, so none
# of the legs above compile it: these two catch a public-API break it
# depends on here instead of in the bench driver.
echo "==> benchmark/run.sh --smoke (out-of-workspace benchmark: builds against the crates, every check passes)"
benchmark/run.sh --smoke --out target/benchmark/smoke.json >/dev/null

echo "==> (cd benchmark && cargo test -q --offline) (benchmark package unit tests)"
(cd benchmark && cargo test -q --offline)

echo "ci: all checks passed"
