//! Swapping hashed collections for `BTreeMap`/`BTreeSet` (injected link
//! loss, per-node metrics, delivery dedup keys, flooding's duplicate
//! suppression) changed no behaviour: grey-zone mesh and flooding runs
//! reproduce the golden table's pins (`tests/scenarios/table.rs`),
//! recorded on the hashed implementations.

mod scenarios;

scenarios::table::golden_tests!(
    mesh_traces_unchanged_by_collection_swap,
    flooding_traces_unchanged_by_collection_swap,
);
