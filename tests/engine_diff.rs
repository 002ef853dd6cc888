//! The tombstone-timer engine is behaviourally transparent: with stale
//! wakes dropped at pop, engine-level runs under CAD traffic, node churn
//! and mobility reproduce the traces, metrics and firmware state the
//! resync engine produced, pinned in the golden table
//! (`tests/scenarios/table.rs`) while both engines still ran. The
//! link-cache swap was proved on the same runs.

mod scenarios;

scenarios::table::golden_tests!(
    static_runs_identical_across_seeds,
    mobile_runs_identical_across_seeds,
);
