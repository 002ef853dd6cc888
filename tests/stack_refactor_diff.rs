//! The layered-stack split (`MeshNode` into `core::stack::{mac,
//! routing, transport, app}`) changed no behaviour: static churn,
//! mobile, full-mesh, baseline, ALOHA, duty-limited and sweep runs
//! reproduce the golden table's pins (`tests/scenarios/table.rs`),
//! recorded on the pre-split monolith.

mod scenarios;

scenarios::table::golden_tests!(
    static_churn_matches_golden,
    mobile_matches_golden,
    full_mesh_matches_golden,
    baselines_match_golden,
    aloha_matches_golden,
    duty_limited_matches_golden,
    sweep_aggregates_match_golden,
);
