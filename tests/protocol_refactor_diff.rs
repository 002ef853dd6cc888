//! The protocol-pluggability refactor (the `Protocol` abstraction and
//! managed flooding as a second stack) changed no behaviour: LoRaMesher
//! and flooding grid runs reproduce the golden table's pins
//! (`tests/scenarios/table.rs`) in both RNG families — fork-chain at
//! shards {1, 4}, per-node streams at shards {1, 4} × threads {1, 2} —
//! and so does a jobs-invariant sweep.

mod scenarios;

scenarios::table::golden_tests!(
    mesh_fork_family_matches_golden,
    mesh_stream_family_matches_golden,
    flood_fork_family_matches_golden,
    flood_stream_family_matches_golden,
    sweep_aggregates_match_golden,
);
